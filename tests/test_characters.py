import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repzoo
from repzoo.characters import (
    DegreeMultiset,
    _charpoly,
    _poly_eval,
    _sqrt_mod,
    character_degrees,
    character_table_modp,
    choose_ell,
)
from repzoo.groups import GroupScheme, build_group, congruence_kernel, conjugacy_classes
from repzoo.localring import RingSpec


def degrees_of(family, n, kind, p, f, r, e=1):
    group = build_group(GroupScheme(family, n), RingSpec(kind, p, f, r, e))
    return character_degrees(group), group


def test_s3_degrees():
    dm, _ = degrees_of("GL", 2, "unramified", 2, 1, 1)
    assert dm.entries == ((1, 2), (2, 1))


def test_gl2_f3_degrees():
    dm, _ = degrees_of("GL", 2, "unramified", 3, 1, 1)
    assert dm.entries == ((1, 2), (2, 3), (3, 2), (4, 1))


def test_heisenberg_degrees():
    dm, _ = degrees_of("U", 3, "unramified", 3, 1, 1)
    assert dm.entries == ((1, 9), (3, 2))


def test_sl2_f3_degrees():
    dm, _ = degrees_of("SL", 2, "unramified", 3, 1, 1)
    assert dm.entries == ((1, 3), (2, 3), (3, 1))


def test_borel_solvable_group():
    dm, group = degrees_of("B", 2, "unramified", 3, 1, 1)
    dm.validate(group.order, conjugacy_classes(group).n_classes)
    assert dm.entries == ((1, 4), (2, 2))


@pytest.mark.parametrize(
    "family,n,kind,p,f,r",
    [
        ("GL", 2, "unramified", 2, 1, 1),
        ("GL", 2, "unramified", 5, 1, 1),
        ("GL", 2, "unramified", 2, 2, 1),
        ("GL", 2, "eqchar", 2, 1, 2),
        ("SL", 2, "unramified", 2, 1, 2),
        ("U", 3, "unramified", 2, 1, 1),
        ("U", 4, "unramified", 2, 1, 1),
        ("GL", 3, "unramified", 2, 1, 1),
    ],
)
def test_structural_identities(family, n, kind, p, f, r):
    group = build_group(GroupScheme(family, n), RingSpec(kind, p, f, r))
    classes = conjugacy_classes(group)
    dm = character_degrees(group)
    dm.validate(group.order, classes.n_classes)


def test_abelian_fast_paths():
    group = build_group(GroupScheme("GL", 2), RingSpec("unramified", 2, 1, 2))
    kernel = congruence_kernel(group, 1)
    assert character_degrees(kernel).entries == ((1, 16),)
    torus = build_group(GroupScheme("T", 2), RingSpec("unramified", 3, 1, 1))
    assert character_degrees(torus).entries == ((1, 4),)


def test_degree_multiset_diff():
    a = DegreeMultiset(((1, 2), (2, 3), (3, 2)))
    b = DegreeMultiset(((1, 2), (2, 1), (4, 1)))
    assert a.diff(b) == ((2, 3, 1), (3, 2, 0), (4, 0, 1))
    assert b.diff(a) == ((2, 1, 3), (3, 0, 2), (4, 1, 0))
    assert a.diff(a) == ()


def test_modp_table_is_deterministic_and_lifts_degrees():
    group = build_group(GroupScheme("GL", 2), RingSpec("unramified", 3, 1, 1))
    table = character_table_modp(group)
    assert sorted(table.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert (table.ell - 1) % 24 == 0  # exp(GL2(F3)) = 24
    assert table.ell * table.ell > 4 * group.order


def test_choose_ell_bounds():
    ell = choose_ell(order=48, exponent=24)
    assert ell == 73  # smallest prime = 1 mod 24 with ell^2 > 4 * 48
    assert choose_ell(order=6, exponent=6) == 7


def test_degree_multiset_serialization():
    dm = DegreeMultiset(((1, 2), (2, 1)))
    assert DegreeMultiset.from_json(dm.to_json()) == dm


def test_degree_multiset_validate_raises_under_optimize():
    # python -O strips assert statements; validate must still reject bad degrees
    code = "from repzoo.characters import DegreeMultiset; DegreeMultiset(((1, 5),)).validate(6, 2)"
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


@pytest.mark.parametrize(
    "n,q,p,f",
    [(3, 2, 2, 1), (3, 3, 3, 1), (3, 4, 2, 2), (3, 5, 5, 1), (4, 2, 2, 1), (4, 3, 3, 1)],
)
def test_unitriangular_degrees_are_q_powers(n, q, p, f):
    group = build_group(GroupScheme("U", n), RingSpec("unramified", p, f, 1))
    dm = character_degrees(group)
    degrees = dm.degrees_set()
    powers = {q**k for k in range(20)}
    assert degrees <= powers, (n, q, sorted(degrees - powers))


def test_sqrt_mod():
    for ell in (97, 433, 337):
        for a in range(1, 30):
            root = _sqrt_mod(a * a % ell, ell)
            assert root in (a % ell, (-a) % ell)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=96), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_charpoly_matches_cofactor_expansion(mat):
    ell = 97
    n = len(mat)
    cp = _charpoly(mat, ell)
    assert len(cp) == n + 1 and cp[-1] == 1
    # verify det(xI - mat) at a few points against direct cofactor determinants
    for x in (0, 1, 5, 20):
        shifted = [
            [((x if i == j else 0) - mat[i][j]) % ell for j in range(n)]
            for i in range(n)
        ]
        assert _poly_eval(cp, x, ell) == _det_mod(shifted, ell)


def _det_mod(m, ell):
    n = len(m)
    if n == 1:
        return m[0][0] % ell
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det_mod(minor, ell)
        total = (total - term if j % 2 else total + term) % ell
    return total
