import dataclasses
import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repzoo
from repzoo import clifford, groups, harness
from repzoo.characters import character_degrees
from repzoo.clifford import (
    DualGroup,
    NotAbelianNormalError,
    OrbitDims,
    clifford_dimirr,
    default_normal_subgroup,
    orbits_and_stabilizers,
)
from repzoo.groups import (
    FiniteMatrixGroup,
    GroupScheme,
    NotNormalError,
    SubgroupView,
    build_group,
    congruence_kernel,
    coset_group,
    predicted_order,
)
from repzoo.intlinalg import smith_normal_form
from repzoo.localring import RingSpec, prime_power

GL2 = GroupScheme("GL", 2)


def heisenberg(q_spec):
    """U3 and its center, the matrices with zero off the top-right corner."""
    group = build_group(GroupScheme("U", 3), q_spec)
    corner = [k for k, m in enumerate(map(group.matrix, range(group.order))) if m[1] == m[5] == group.ring.zero]
    return group, SubgroupView(group, corner)


def test_dual_of_elementary_abelian():
    group = build_group(GL2, RingSpec("unramified", 2, 1, 2))
    kernel = congruence_kernel(group, 1)
    dual = DualGroup(kernel)
    chars = list(dual.characters())
    assert len(chars) == 16
    assert len(set(chars)) == 16


def _all_of_t2_z9():
    """T2(Z/9), of type (6, 6): characters of every order dividing 6."""
    torus = build_group(GroupScheme("T", 2), RingSpec("unramified", 3, 1, 2))
    return SubgroupView(torus, range(torus.order))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: congruence_kernel(build_group(GL2, RingSpec("unramified", 2, 1, 2)), 1), id="K^1 of GL2(Z/4)"),
        pytest.param(_all_of_t2_z9, id="T2(Z/9)"),
    ],
)
def test_character_values_are_the_discrete_log_phases_and_multiplicative(make):
    kernel = make()
    dual = DualGroup(kernel)
    weights = [dual.exponent // n for n in dual.orders]
    for chi in dual.characters():
        M = dual.char_order(chi)
        values = dual.values(chi, M)
        # chi(k_j) as an exponent of exp(2 pi i / exp N), through the discrete log
        phases = [sum(a * c * w for a, c, w in zip(chi, dual.dlog[j], weights)) % dual.exponent for j in range(kernel.order)]
        assert [v * (dual.exponent // M) for v in values] == phases
        assert all(
            values[kernel.mul(a, b)] == (values[a] + values[b]) % M
            for a in range(kernel.order)
            for b in range(kernel.order)
        )


def test_dual_of_trivial_group():
    group = build_group(GL2, RingSpec("unramified", 2, 1, 1))
    triv = SubgroupView(group, [group.identity])
    assert len(list(DualGroup(triv).characters())) == 1


def test_dual_orders_divide_exponent():
    group = build_group(GL2, RingSpec("unramified", 3, 1, 2))
    kernel = congruence_kernel(group, 1)
    dual = DualGroup(kernel)
    assert len(list(dual.characters())) == 81
    assert all(dual.char_order(chi) in (1, 3) for chi in dual.characters())


def test_dual_requires_abelian():
    group = build_group(GL2, RingSpec("unramified", 2, 1, 1))
    with pytest.raises(NotAbelianNormalError):
        DualGroup(SubgroupView(group, range(group.order)))


def test_orbit_stabilizer_identity():
    group = build_group(GL2, RingSpec("unramified", 2, 1, 2))
    kernel = congruence_kernel(group, 1)
    dual = DualGroup(kernel)
    records = orbits_and_stabilizers(group.coset_coordinates(kernel), dual)
    assert sum(r.orbit_size for r in records) == 16
    for rec in records:
        assert rec.orbit_size * rec.stabilizer_order == group.order
    # the trivial character is fixed by everything
    trivial = tuple(0 for _ in dual.orders)
    triv_rec = next(r for r in records if trivial in r.orbit)
    assert triv_rec.orbit_size == 1


@pytest.mark.parametrize(
    "scheme,spec",
    [
        (GL2, RingSpec("unramified", 3, 1, 2)),
        (GroupScheme("SL", 2), RingSpec("unramified", 3, 1, 3)),
        (GroupScheme("B", 2), RingSpec("eqchar", 2, 1, 3)),
    ],
    ids=lambda v: v.label(),
)
def test_dual_action_applies_each_bucket_once_per_orbit(monkeypatch, scheme, spec):
    # one pass over the buckets yields both the orbit and its fixing buckets
    group = coset_group(scheme, spec)
    n_view = default_normal_subgroup(group)
    buckets = []
    apply = clifford._DualAction.apply

    def counted(self, key, chi):
        buckets.append(len(self.buckets))
        return apply(self, key, chi)

    monkeypatch.setattr(clifford._DualAction, "apply", counted)
    records = orbits_and_stabilizers(group.coset_coordinates(n_view), DualGroup(n_view))
    assert len(buckets) == len(records) * buckets[0]


def test_abelian_group_acting_on_own_dual_fixes_everything():
    torus = build_group(GroupScheme("T", 2), RingSpec("unramified", 3, 1, 1))
    # T is abelian of order 4 = 2^2, its own normal p-subgroup
    full = SubgroupView(torus, range(torus.order))
    dual = DualGroup(full)
    records = orbits_and_stabilizers(torus.coset_coordinates(full), dual)
    assert all(r.orbit_size == 1 for r in records)


def test_heisenberg_irr_above_central_characters():
    group, zed = heisenberg(RingSpec("unramified", 3, 1, 1))
    dual = DualGroup(zed)
    orbits = {o.representative: o for o in clifford_dimirr(group, zed).orbits}
    assert sorted(orbits) == sorted(dual.characters())
    for chi, orbit in orbits.items():
        if dual.char_order(chi) == 1:
            assert orbit.dims == ((1, 9),)
        else:
            assert orbit.dims == ((3, 1),) and orbit.orbit_size == 1


def test_clifford_report_structure():
    group = build_group(GL2, RingSpec("unramified", 2, 1, 2))
    kernel = congruence_kernel(group, 1)
    report = clifford_dimirr(group, kernel)
    direct = character_degrees(group)
    assert report.degrees.entries == direct.entries
    assert report.degrees.total_count == sum(o.irr_count for o in report.orbits)
    for orbit in report.orbits:
        # restriction shape: induced dimension = orbit_size * stabilizer-level dim
        for d, _m in orbit.dims:
            assert (d * orbit.orbit_size) in report.degrees.degrees_set()


def test_trivial_n_delegates_to_chardeg():
    group = build_group(GL2, RingSpec("unramified", 3, 1, 1))
    report = clifford_dimirr(group, SubgroupView(group, [group.identity]))
    assert report.degrees.entries == character_degrees(group).entries


def test_trivial_n_of_a_coset_group_reads_it_as_a_finite_group():
    # U1 and SL1 have dimension 0, so G and its N = K^ceil(r/2) are trivial at
    # every level; the report reads the one-element enumerated group, which
    # has no coset coordinates
    for family in ("U", "SL"):
        for r in (2, 3):
            scheme, spec = GroupScheme(family, 1), RingSpec("unramified", 2, 1, r)
            report = harness.compute_clifford_report(scheme, spec)
            assert report.degrees.entries == ((1, 1),)
            assert report.orbits == (OrbitDims((), 1, 1, ((1, 1),), True),)
            with pytest.raises(ValueError):
                coset_group(scheme, spec)


@pytest.mark.parametrize(
    "scheme,spec",
    [
        (GL2, RingSpec("unramified", 2, 1, 2)),
        (GL2, RingSpec("eqchar", 2, 1, 2)),
        (GroupScheme("SL", 2), RingSpec("unramified", 3, 1, 2)),
        (GroupScheme("U", 3), RingSpec("unramified", 2, 1, 1)),
    ],
)
def test_dual_engine_equivalence_small(scheme, spec):
    group = build_group(scheme, spec)
    n_view = default_normal_subgroup(group)
    assert clifford_dimirr(group, n_view).degrees.entries == character_degrees(group).entries


def test_default_normal_subgroup_choices():
    lvl2 = build_group(GL2, RingSpec("unramified", 3, 1, 2))
    assert default_normal_subgroup(lvl2).order == 81
    heis, _ = heisenberg(RingSpec("unramified", 3, 1, 1))
    assert default_normal_subgroup(heis).order == 3
    lvl1 = build_group(GL2, RingSpec("unramified", 3, 1, 1))
    assert default_normal_subgroup(lvl1).order == 1


def test_extension_observable_recorded():
    group = build_group(GL2, RingSpec("unramified", 3, 1, 2))
    report = clifford_dimirr(group, congruence_kernel(group, 1))
    assert all(o.extension_matches is not None for o in report.orbits)
    # for GL2 an extension always exists (twist by a determinant character)
    assert all(o.extension_matches for o in report.orbits)


def test_non_normal_subgroup_is_refused_with_a_witness():
    group = build_group(GL2, RingSpec("unramified", 3, 1, 1))
    ring = group.ring
    unitriangular = [group.ordinal((ring.one, b, ring.zero, ring.one)) for b in range(ring.size)]
    with pytest.raises(NotAbelianNormalError) as info:
        clifford_dimirr(group, SubgroupView(group, unitriangular))
    cause = info.value.__cause__
    assert isinstance(cause, NotNormalError)
    t, b = cause.conjugator, cause.member
    assert b in unitriangular
    assert group.mul(group.inv(t), group.mul(b, t)) not in unitriangular


def test_clifford_multiplications_stay_linear_in_the_order(monkeypatch):
    # one labelling pass over G/N does |G| products; the rest is per coset
    group = build_group(GL2, RingSpec("unramified", 3, 1, 2))
    n_view = default_normal_subgroup(group)
    calls = 0
    mul = FiniteMatrixGroup.mul

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return mul(self, i, j)

    monkeypatch.setattr(FiniteMatrixGroup, "mul", counted)
    clifford_dimirr(group, n_view)
    assert calls <= 4 * group.order, (calls, group.order)


def test_faithful_dims_checks_survive_python_O():
    # python -O strips assert statements; a one-element image of N must still
    # be rejected for a character of order 2
    code = (
        "from repzoo.groups import GroupScheme, build_group; "
        "from repzoo.localring import RingSpec; "
        "from repzoo.clifford import _faithful_dims; "
        "g = build_group(GroupScheme('T', 1), RingSpec('unramified', 3, 1, 1)); "
        "_faithful_dims(g, [g.identity], 2)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


def _extensions(scheme, spec):
    """(psi, S/ker psi, Stab(psi) in G/N) for the first orbit of each Galois
    class with psi != 1 of the Clifford run of scheme over spec, built as the
    run builds them."""
    group = coset_group(scheme, spec) if spec.r >= 2 else build_group(scheme, spec)
    n_view = default_normal_subgroup(group)
    dual, cosets = DualGroup(n_view), group.coset_coordinates(n_view)
    records = orbits_and_stabilizers(cosets, dual)
    out = []
    for c in sorted(set(clifford._galois_classes(dual, records))):
        psi, stab = records[c].representative, records[c].stabilizer
        M = dual.char_order(psi)
        if M > 1:
            s_bar = clifford._CentralExtension(cosets, stab, dual.values(psi, M), M)
            out.append((psi, s_bar, SubgroupView(cosets.quotient, stab)))
    return out


def _splits(s_bar, stab):
    """The split verdict of the section equations, which the fail-fast on
    commuting generators never contradicts."""
    verdict = clifford._has_section(s_bar, stab)
    assert clifford._lifts_commute(s_bar, stab) or not verdict
    return verdict


def _label(value):
    return value.label() if isinstance(value, GroupScheme) else str(value)


@pytest.mark.parametrize(
    "scheme,q,stab_orders",
    [
        (GL2, 2, [6]),
        (GL2, 3, [48]),
        (GL2, 4, [180, 180, 180]),
        (GroupScheme("B", 2), 3, [12, 12, 12, 12]),
        (GroupScheme("B", 3), 2, [8] * 7),
        # proper stabilizers in G/N, of order 60
        (GroupScheme("SL", 2), 4, [6, 10]),
    ],
    ids=_label,
)
def test_split_extensions_have_the_stabilizer_degrees(scheme, q, stab_orders):
    # Gallagher: where the non-abelian S/ker psi of a level-2 run splits over
    # the image of N, the faithful rows of its own table have the degrees of
    # Irr(Stab), and the report reads them
    spec = RingSpec.for_q(q, 2)
    dims_of = {o.representative: o.dims for o in harness.compute_clifford_report(scheme, spec).orbits}
    split = []
    for psi, s_bar, stab in _extensions(scheme, spec):
        if not s_bar.is_abelian() and _splits(s_bar, stab):
            dims, matches = clifford._faithful_dims(s_bar, s_bar.image_of_n, s_bar.M)
            assert character_degrees(stab).entries == dims == dims_of[psi] and matches
            split.append(stab.order)
    assert split == stab_orders


@pytest.mark.parametrize(
    "scheme,level,q,verdicts",
    [
        # the Heisenberg quotient: Stab is abelian and the lifts do not commute
        (GroupScheme("U", 3), 1, 2, [False]),
        (GroupScheme("U", 3), 2, 2, [False, False, False]),
        (GL2, 3, 2, [False, False, False, False, True]),
        (GroupScheme("SL", 2), 2, 4, [False, True, False, True, False, False]),
    ],
    ids=_label,
)
def test_non_split_extensions_keep_the_table_dims(scheme, level, q, verdicts):
    # the split test's verdict on each non-abelian S/ker psi, and the report
    # keeps the faithful rows of the table where there is no section
    spec = RingSpec.for_q(q, level)
    dims_of = {o.representative: o.dims for o in harness.compute_clifford_report(scheme, spec).orbits}
    got = []
    for psi, s_bar, stab in _extensions(scheme, spec):
        if not s_bar.is_abelian():
            got.append(_splits(s_bar, stab))
            if not got[-1]:
                assert dims_of[psi] == clifford._faithful_dims(s_bar, s_bar.image_of_n, s_bar.M)[0]
    assert got == verdicts


@pytest.mark.parametrize(
    "rows,rhs,M,solvable",
    [
        ([], [], 9, True),
        # u = 1 and u = 1 + 3 agree mod 3, not mod 9
        ([[1], [1]], [1, 4], 3, True),
        ([[1], [1]], [1, 4], 9, False),
        # 3u = 3 and u = 0: the same mod 3, inconsistent mod 9
        ([[3], [1]], [3, 0], 3, True),
        ([[3], [1]], [3, 0], 9, False),
        # non-unit pivots: 2u + 4v = 2 has u = 1, 2u + 4v = 1 nothing mod 4
        ([[2, 4]], [2], 4, True),
        ([[2, 4]], [1], 4, False),
        ([[3, 1], [0, 3]], [1, 3], 9, True),
        ([[3, 1], [0, 3]], [1, 4], 9, False),
        # a zero row needs a zero right-hand side
        ([[0, 0], [1, 2]], [5, 1], 25, False),
    ],
)
def test_solvable_mod_on_hand_made_systems(rows, rhs, M, solvable):
    assert clifford._solvable_mod(rows, rhs, M) is solvable


def test_solvable_mod_agrees_with_exhaustive_search():
    rng = random.Random(0)
    for _ in range(300):
        M = rng.choice([2, 4, 8, 3, 9, 27, 5, 25])
        k = rng.randint(1, 3 if M <= 9 else 2)
        n = rng.randint(1, 4)
        # entries of every valuation, units and multiples of p alike
        rows = [[rng.randrange(M) * rng.choice([1, 1, M // prime_power(M)[0]]) % M for _ in range(k)] for _ in range(n)]
        rhs = [rng.randrange(M) for _ in range(n)]
        expected = any(
            all(sum(a * x for a, x in zip(row, u)) % M == b for row, b in zip(rows, rhs))
            for u in itertools.product(range(M), repeat=k)
        )
        assert clifford._solvable_mod(rows, rhs, M) is expected, (rows, rhs, M)


def test_split_test_checks_that_the_image_of_n_is_central_under_python_O():
    # python -O strips assert statements; a product that adds one whenever the
    # left factor lies in the image of N makes that image non-central
    code = textwrap.dedent(
        """
        from repzoo import clifford
        from repzoo.groups import GroupScheme, SubgroupView, coset_group
        from repzoo.localring import RingSpec

        class Skewed(clifford._CentralExtension):
            def mul_right(self, xs, y):
                out = super().mul_right(xs, y)
                return [z - z % self.M + (z + 1) % self.M if x in self.image_of_n else z for x, z in zip(xs, out)]

        group = coset_group(GroupScheme("GL", 2), RingSpec.for_q(2, 2))
        n_view = clifford.default_normal_subgroup(group)
        dual, cosets = clifford.DualGroup(n_view), group.coset_coordinates(n_view)
        rec = next(r for r in clifford.orbits_and_stabilizers(cosets, dual) if len(r.stabilizer) == cosets.quotient.order > 1 and dual.char_order(r.representative) == 2)
        s_bar = Skewed(cosets, rec.stabilizer, dual.values(rec.representative, 2), 2)
        clifford._lifts_commute(s_bar, SubgroupView(cosets.quotient, rec.stabilizer))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AssertionError: image of N is not central" in proc.stderr, proc.stderr


# sha256 of repr((report.degrees, report.orbits)), recorded before a split
# extension read the degrees of Irr(Stab) in place of the S/ker psi table
PINNED_REPORTS = {
    ("GL2", 2, 2): "582189b7913038b87775a2695dc99d45cfe3077a71ec06a582e72b3758438a03",
    ("GL2", 2, 3): "843b208a614aaa64bd00389f854ac43febb0482de4c86dfe9c445df6cfeb43dc",
    ("GL2", 2, 4): "a7b15e59bcb2604b8568aa29f9ba57c92d2aeca9927ba9d23fd4b40ccb5d63e2",
    ("SL2", 2, 2): "38b4ccc9bdbb200f5282c49e16b94fa01836b5ffd081f919182c36780d41fcfd",
    ("SL2", 2, 3): "846653bf916d2bddba7db1e3f85e113627752ec3ad829e5910fe71652cc6bf3b",
    ("SL2", 2, 4): "2691e3623ba8254eab0e79c0bc61120c26a3e5737e8e275d9653e07c8c5bafe6",
    ("SL2", 2, 5): "60915b939d12efd089f7a6df194be324094c7f63e2b1e4b68c9cb48a5a33ecb3",
    ("U2", 3, 2): "097cf3a50e1aeabae3b8762143ce362a379c3d0185f6e3bc39b734e04504cc4b",
    ("U2", 3, 3): "b5e28c0bf17cff0df392a48c3e2bd8b44338d32cb0847fd85a6f5ec908a2bbe5",
    ("U2", 3, 4): "6e8cb334c90a0f3b3eea41f615d2f803ca4b6cedd4d4222e5eb67b70d570e9d0",
    ("U3", 2, 2): "cac980919688803182e39e663318403d26376e4d512a30aa7b91522629aabe60",
    ("U3", 2, 3): "dad9cf9a5355478405b4bd6bf32283cbf5c824d68c2dfd27da67d988a29accac",
    ("B2", 2, 2): "b9de5270acb7768f7b06630aed5f4cae88092995bdd308298b47cee2f1c0b958",
    ("B2", 2, 3): "b6b865b6cb10b3b75992029d9732b37ada2d94028f25b4c44d55cb0f5fe5ead7",
    ("B2", 2, 4): "e7f80b14388438502455a6fd2d990cc6d89b09f8b8d76e1bb60a03797edc3297",
    ("GL2", 3, 2): "9df8acf7b14a4dbe2167292fd537c7955ba509eac69a6d42eacc56409a6be09d",
    ("SL2", 3, 2): "97f95eaa44818569cdec7594da71bddf488386f39c0749fb377f9eaa475e1696",
    ("SL2", 3, 3): "a06cd508d0df6719b4f4f81e5c5d71880059fe7c43a9d58c81141fb74ec600e5",
    ("B3", 2, 2): "f8a6b306a5e5b76b396664d4d542a017c8fd5aebd39df0c346201d3b51f1680c",
    ("U3", 1, 4): "a691aee38a5cceb466709bd8620406d117d92e61f2a942babb316d3d37ce450b",
    ("U3", 1, 5): "edd040058c28a6d7174f81cf149fde7776f07a8789715f19059f09b9c8d9572b",
}


@pytest.mark.parametrize("scheme,level,q", sorted(PINNED_REPORTS), ids=lambda v: str(v))
def test_clifford_reports_are_pinned(scheme, level, q):
    # every orbit's dims and extension observable, on split and non-split
    # stabilizer quotients alike
    report = harness.compute_clifford_report(GroupScheme.parse(scheme), RingSpec.for_q(q, level))
    digest = hashlib.sha256(repr((report.degrees, report.orbits)).encode()).hexdigest()
    assert digest == PINNED_REPORTS[scheme, level, q]


def _small_cases(bound=2000):
    """(scheme, ring) of every family and ring kind, r <= 3, predicted order <= bound."""
    cases = []
    families = ("GL", "SL", "U", "B", "T")
    for fam, n, p, f, r in itertools.product(families, (1, 2, 3), (2, 3, 5), (1, 2), (1, 2, 3)):
        scheme = GroupScheme(fam, n)
        specs = [RingSpec("unramified", p, f, r), RingSpec("eqchar", p, f, r)]
        specs += [RingSpec("eisenstein", p, f, r, e) for e in (2, 3) if e % p]
        cases += [(scheme, spec) for spec in specs if predicted_order(scheme, spec) <= bound]
    return cases


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.sampled_from(_small_cases()))
def test_clifford_agrees_with_direct_engine(case):
    group = build_group(*case)
    report = clifford_dimirr(group, default_normal_subgroup(group))
    assert report.degrees == character_degrees(group)


def _level2_cases(bound=4_000):
    """(scheme, ring) of every family, ring kind, p in {2, 3, 5} and r in {2, 3}
    with predicted order <= bound; n = 2, and U also at n = 3, where it is not
    abelian.  Above the bound, Dixon-Schneider on the stabilizer quotients of
    B2 and U3 takes seconds to minutes a group on either path."""
    cases = []
    schemes = [GroupScheme(fam, 2) for fam in ("GL", "SL", "U", "B", "T")] + [GroupScheme("U", 3)]
    for scheme, p, r in itertools.product(schemes, (2, 3, 5), (2, 3)):
        specs = [RingSpec("unramified", p, 1, r), RingSpec("eqchar", p, 1, r)]
        specs += [RingSpec("eisenstein", p, 1, r, e) for e in (2, 3) if e % p]
        cases += [(scheme, spec) for spec in specs if predicted_order(scheme, spec) <= bound]
    return cases


@pytest.mark.parametrize("scheme,spec", _level2_cases(), ids=lambda v: v.label())
def test_coset_coordinates_report_equals_the_enumerated_report(scheme, spec):
    # G(o_r) in coset coordinates, G/N = G(o_ceil(r/2)) enumerated and each
    # S/ker psi built from the cocycle, against the labelled cosets of the
    # enumerated group
    coset = coset_group(scheme, spec)
    via_cosets = clifford_dimirr(coset, default_normal_subgroup(coset))
    group = build_group(scheme, spec)
    enumerated = clifford_dimirr(group, default_normal_subgroup(group))
    assert dataclasses.asdict(via_cosets) == dataclasses.asdict(enumerated)
    assert via_cosets == enumerated


@pytest.mark.parametrize(
    "scheme,spec",
    [(GL2, RingSpec("eqchar", 5, 1, 2)), (GroupScheme("SL", 2), RingSpec("unramified", 3, 1, 3))],
    ids=lambda v: v.label(),
)
def test_coset_path_never_enumerates_the_full_group(monkeypatch, scheme, spec):
    enumerate_group = groups._enumerate_group
    built = []

    def guarded(scheme_, spec_):
        if spec_.r == spec.r:
            raise AssertionError(f"enumerated {scheme_.label()}({spec_.label()})")
        built.append(spec_.r)
        return enumerate_group(scheme_, spec_)

    monkeypatch.setattr(groups, "_enumerate_group", guarded)
    # fresh memos, so nothing built earlier in the process is reused
    monkeypatch.setattr(groups, "_coset_group", functools.cache(groups._coset_group.__wrapped__))
    monkeypatch.setattr(harness, "_clifford_report", functools.cache(harness._clifford_report.__wrapped__))
    report = harness.compute_clifford_report(scheme, spec)
    assert report.degrees.sum_of_squares == predicted_order(scheme, spec)
    assert harness.compute_degrees(scheme, spec).entries == report.degrees.entries
    assert built == [(spec.r + 1) // 2]


def _union_find_galois_classes(dual, records):
    """The Galois-power classes by union-find over (orbit i, orbit of rep_i^u),
    as clifford computed them before the relation was read as an equivalence."""
    chi_to_orbit = {chi: i for i, r in enumerate(records) for chi in r.orbit}
    units = [u for u in range(1, dual.exponent + 1) if math.gcd(u, dual.exponent) == 1]
    parent = list(range(len(records)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, rec in enumerate(records):
        for u in units:
            ra, rb = find(i), find(chi_to_orbit[dual.power(rec.representative, u)])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [find(i) for i in range(len(records))]


def _naive_power(group, x, e):
    if e < 0:
        x, e = group.inv(x), -e
    acc = group.identity
    for _ in range(e):
        acc = group.mul(acc, x)
    return acc


def _closure_abelian_basis(n_view):
    """(basis, orders, dlog) of an abelian group by its own greedy closure, as
    DualGroup computed them before it read the group's generators; each word
    is built from powers, with no word list shared with clifford."""
    gens, rel_orders, closure = [], [], {n_view.identity}
    for x in range(n_view.order):
        if x in closure:
            continue
        power, rel = x, 1
        while power not in closure:
            power = n_view.mul(power, x)
            rel += 1
        new, acc = set(), n_view.identity
        for _ in range(rel):
            new.update(n_view.mul(h, acc) for h in closure)
            acc = n_view.mul(acc, x)
        gens.append(x)
        rel_orders.append(rel)
        closure = new
        if len(closure) == n_view.order:
            break

    def word(gs, exps):
        acc = n_view.identity
        for g, e in zip(gs, exps):
            acc = n_view.mul(acc, _naive_power(n_view, g, e))
        return acc

    m = len(gens)
    dlog_pc = {}
    for exps in itertools.product(*[range(r) for r in rel_orders]):
        dlog_pc.setdefault(word(gens, exps), exps)
    cols = []
    for i, (g, r) in enumerate(zip(gens, rel_orders)):
        col = [-x for x in dlog_pc[_naive_power(n_view, g, r)]]
        col[i] += r
        cols.append(col)
    basis, orders = [], []
    if m:
        _u, d, uinv = smith_normal_form([[cols[c][rw] for c in range(m)] for rw in range(m)])
        for j in range(m):
            if d[j][j] != 1:
                basis.append(word(gens, [uinv[i][j] for i in range(m)]))
                orders.append(d[j][j])
    dlog = {word(basis, exps): exps for exps in itertools.product(*[range(n) for n in orders])}
    return tuple(basis), tuple(orders), dlog


def _level2_dual(scheme, ring):
    """The dual of N and the orbit records of the level-2 Clifford run."""
    group = coset_group(GroupScheme.parse(scheme), RingSpec.parse(ring))
    n_view = default_normal_subgroup(group)
    dual = DualGroup(n_view)
    return dual, orbits_and_stabilizers(group.coset_coordinates(n_view), dual)


LEVEL2_DUALS = [("GL2", "unram:3,1,2"), ("B2", "eqchar:2,1,3"), ("T2", "unram:3,1,4")]


@pytest.mark.parametrize("scheme,ring", LEVEL2_DUALS)
def test_galois_classes_equal_the_union_find(scheme, ring):
    dual, records = _level2_dual(scheme, ring)
    classes = clifford._galois_classes(dual, records)
    assert classes == _union_find_galois_classes(dual, records)
    if scheme == "T2":
        # N = (1 + 9 Z/81)^2 of exponent 9: T2 is abelian, so every character is
        # an orbit, and (Z/9)^2 falls into 1 + 8/2 + 72/6 classes under the units
        assert (dual.exponent, len(records), len(set(classes))) == (9, 81, 17)


@pytest.mark.parametrize("scheme,ring", [*LEVEL2_DUALS, ("U3", "unram:3,1,1")])
def test_dual_basis_equals_the_greedy_closure(scheme, ring):
    if scheme == "U3":
        # Z(U3(F_3)), the N of the level-1 Clifford run
        group = build_group(GroupScheme("U", 3), RingSpec.parse(ring))
        dual = DualGroup(default_normal_subgroup(group))
        assert dual.order == 3
    else:
        dual, _ = _level2_dual(scheme, ring)
    assert (dual.basis, dual.orders, dual.dlog) == _closure_abelian_basis(dual.group)


def test_coset_group_checks_the_order_of_its_kernel(monkeypatch):
    kernel_matrices = groups._kernel_matrices
    monkeypatch.setattr(groups, "_kernel_matrices", lambda *args: kernel_matrices(*args)[:-1])
    # fresh memos before and after, so no coset group outlives the short kernel
    monkeypatch.setattr(groups, "_coset_group", functools.cache(groups._coset_group.__wrapped__))
    with pytest.raises(AssertionError, match="kernel of order 80, not q"):
        coset_group(GL2, RingSpec.parse("unram:3,1,2"))
