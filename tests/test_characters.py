import ast
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repzoo
from repzoo import characters, clifford
from repzoo.characters import (
    DegreeMultiset,
    _central_blocks,
    _charpoly,
    _class_matrix,
    _inverse_class_matrix,
    _poly_roots,
    _root_of_unity,
    character_degrees,
    character_table_modp,
    choose_ell,
)
from repzoo.clifford import clifford_dimirr, default_normal_subgroup
from repzoo.groups import (
    FiniteMatrixGroup,
    GroupScheme,
    QuotientGroup,
    build_group,
    congruence_kernel,
    conjugacy_classes,
    coset_group,
)
from repzoo.intlinalg import nullspace, rref
from repzoo.localring import RingSpec, fp_mul


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


def _run_optimized(code):
    # python -O strips assert statements; the checks must still raise
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    return subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)


def test_degree_multiset_validate_raises_under_optimize():
    code = "from repzoo.characters import DegreeMultiset; DegreeMultiset(((1, 5),)).validate(6, 2)"
    proc = _run_optimized(code)
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


def test_a_degree_with_no_divisor_of_the_order_raises_under_optimize():
    # with the divisor scan capped at 1, the degree 2 of S3 = GL2(F_2) has no
    # candidate
    code = (
        "from repzoo import characters; characters.isqrt = lambda n: 1\n"
        "from repzoo.groups import GroupScheme, build_group\n"
        "from repzoo.localring import RingSpec\n"
        "characters.character_table_modp(build_group(GroupScheme('GL', 2), RingSpec('unramified', 2, 1, 1)))"
    )
    proc = _run_optimized(code)
    assert proc.returncode != 0
    assert "AssertionError: no divisor of |G| = 6 has square 4 mod 7" in proc.stderr


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in Path(repzoo.__file__).parent.glob("*.py"))
)
def test_module_has_no_assert_statement(module):
    # invariant checks must survive python -O, so they raise explicitly
    path = Path(repzoo.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in Path(repzoo.__file__).parent.glob("*.py"))
)
def test_module_imports_only_the_standard_library(module):
    # the package has no runtime dependency beyond the standard library
    path = Path(repzoo.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [name for name in names if name.split(".")[0] not in sys.stdlib_module_names] == []


def _is_float_use(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "math" and node.attr.startswith(("log", "sqrt", "exp"))
    return False


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in Path(repzoo.__file__).parent.glob("*.py"))
)
def test_module_uses_no_floating_point(module):
    # arithmetic is exact end to end: no float() call, float literal or
    # math.log*/sqrt/exp
    path = Path(repzoo.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _is_float_use(node)]
    assert lines == []


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


def _poly_eval(p, x, ell):
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % ell
    return acc


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


def _brute_roots(poly, ell):
    return [x for x in range(ell) if _poly_eval(poly, x, ell) == 0]


def _from_roots(roots, ell):
    out = (1,)
    for r in roots:
        out = fp_mul(out, (-r % ell, 1), ell)
    return out


def _non_square(ell):
    return next(z for z in range(2, ell) if pow(z, (ell - 1) // 2, ell) == ell - 1)


@pytest.mark.parametrize("ell", [7, 73, 313, 6553])
def test_poly_roots_matches_scan(ell):
    rootless = (-_non_square(ell) % ell, 0, 1)  # x^2 - z, z not a square
    polys = {
        "split": _from_roots([0, 1, 3, ell - 1, 5], ell),
        "repeated": _from_roots([2, 2, 2, 4, 4, 0, 0], ell),
        "rootless": fp_mul(rootless, fp_mul(rootless, rootless, ell), ell),
        "mixed": fp_mul(fp_mul(rootless, (1, 2, 3, 0, 5), ell), _from_roots([6, 6, 1, ell - 2], ell), ell),
        "linear": (3, 5),
        "full": _from_roots(range(ell), ell) if ell < 100 else (0, 1),
    }
    if ell == 7:
        # multiplicities of ell and more: p / gcd(p, p') would lose these
        # roots, as p' vanishes with (x - 1)^ell and (x - 3)^(2 ell)
        polys["power ell"] = _from_roots([1] * ell + [2], ell)
        polys["power 2 ell"] = fp_mul(_from_roots([3] * (2 * ell), ell), rootless, ell)
    for name, poly in polys.items():
        assert _poly_roots(list(poly), ell) == _brute_roots(poly, ell), name


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, 73, 313, 6553]),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=6552), st.integers(min_value=1, max_value=14)),
        max_size=8,
    ),
    st.lists(st.integers(min_value=0, max_value=6552), max_size=5),
    st.integers(min_value=1, max_value=6552),
)
def test_poly_roots_property(ell, roots, cofactor, lead):
    # (prod of (x - r)^m) * a random cofactor with a nonzero leading
    # coefficient; at ell = 7 a root repeats up to 2 ell times, elsewhere twice
    cap = 2 * ell if ell == 7 else 2
    roots = [r % ell for r, m in roots for _ in range(min(m, cap))]
    cofactor = [c % ell for c in cofactor] + [lead % ell or 1]
    poly = fp_mul(_from_roots(roots, ell), tuple(cofactor), ell)
    assert _poly_roots(list(poly), ell) == _brute_roots(poly, ell)


def _orders_and_ell(group, classes):
    """The orders of the class representatives, by single products, and
    choose_ell at their lcm, exp(G)."""
    orders = [group.element_order(rep) for rep in classes.representatives]
    return orders, choose_ell(group.order, math.lcm(*orders))


def _blocks(group, classes):
    """The central blocks that character_table_modp builds for group."""
    return _central_blocks(group, classes, *_orders_and_ell(group, classes))


def _reference_table(group):
    """(ell, degrees, omega) by the dense class matrices and a scan of Z/ell for roots."""
    classes = conjugacy_classes(group)
    k, order = classes.n_classes, group.order
    _, ell = _orders_and_ell(group, classes)
    id_class = classes.class_of[group.identity]
    subspaces = [[[1 if i == j else 0 for i in range(k)] for j in range(k)]]
    for j in range(k):
        if all(len(v) == 1 for v in subspaces):
            break
        if j == id_class:
            continue
        inv_members = [group.inv(x) for x in range(order) if classes.class_of[x] == j]
        mj = [[0] * k for _ in range(k)]
        for t, rep in enumerate(classes.representatives):
            for xi in inv_members:
                mj[classes.class_of[group.mul(xi, rep)]][t] += 1
        new_spaces = []
        for basis in subspaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            bt_rows, pivots = rref(basis, ell)
            d = len(bt_rows)
            a = [[0] * d for _ in range(d)]
            for ci, v in enumerate(bt_rows):
                w = [sum(mj[rr][cc] * v[cc] for cc in range(k)) % ell for rr in range(k)]
                for r, pc in enumerate(pivots):
                    a[r][ci] = w[pc]
            cp = _charpoly(a, ell)
            for lam in _brute_roots(cp, ell):
                shifted = [[(a[r][c] - (lam if r == c else 0)) % ell for c in range(d)] for r in range(d)]
                vecs = [
                    [sum(coef * bt_rows[ci][idx] for ci, coef in enumerate(nv)) % ell for idx in range(k)]
                    for nv in nullspace(shifted, ell)
                ]
                new_spaces.append(rref(vecs, ell)[0])
        subspaces = new_spaces
    omega = [tuple(x * pow(v[0][id_class], -1, ell) % ell for x in v[0]) for v in subspaces]
    degrees = []
    for row in omega:
        total = sum(
            row[j] * row[classes.inverse_class[j]] * pow(classes.sizes[j], -1, ell) for j in range(k)
        )
        d_sq = order * pow(total, -1, ell) % ell
        degrees.append(next(d for d in range(1, ell) if d * d % ell == d_sq))
    rows = sorted(zip(degrees, omega))
    return ell, tuple(d for d, _ in rows), tuple(w for _, w in rows)


def _group(scheme, ring):
    """A builder of scheme(ring), as in the CLI: _group("GL2", "unram:3,1,2")."""
    return lambda: build_group(GroupScheme(scheme[:-1], int(scheme[-1])), RingSpec.parse(ring))


def _stabilizer_quotients(spec):
    """The S/ker psi whose tables the level-2 Clifford run of GL2 over spec reads."""
    seen = []

    def capture(group):
        seen.append(group)
        return character_table_modp(group)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clifford, "character_table_modp", capture)
        group = coset_group(GroupScheme("GL", 2), spec)
        clifford_dimirr(group, default_normal_subgroup(group))
    assert all(isinstance(s_bar, clifford._CentralExtension) for s_bar in seen)
    return seen


def _stabilizer_quotient_of_gl2_z9():
    """The one non-abelian S/ker psi of the level-2 Clifford run of GL2(Z/9)."""
    (s_bar,) = _stabilizer_quotients(RingSpec("unramified", 3, 1, 2))
    return s_bar


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(_group("GL2", "unram:3,1,1"), id="GL-2-3-1"),
        pytest.param(_group("GL2", "unram:5,1,1"), id="GL-2-5-1"),
        pytest.param(_group("SL2", "unram:5,1,1"), id="SL-2-5-1"),
        pytest.param(_group("U3", "unram:3,1,1"), id="U-3-3-1"),
        pytest.param(_group("B2", "unram:5,1,1"), id="B-2-5-1"),
        pytest.param(_group("GL2", "unram:2,1,2"), id="GL-2-2-2"),
        # Z(G) cyclic of order 6
        pytest.param(_group("GL2", "unram:7,1,1"), id="GL2(F_7)"),
        # Z(G) = C2 x C2: one central element does not generate it
        pytest.param(_group("GL2", "unram:2,1,3"), id="GL2(Z/8)"),
        pytest.param(_group("GL2", "eqchar:3,1,2"), id="GL2(F_3[t]/t^2)"),
        pytest.param(_group("GL2", "eis:3,1,2,2"), id="GL2(eis:3,1,2,2)"),
        pytest.param(_stabilizer_quotient_of_gl2_z9, id="S/ker psi of GL2(Z/9)"),
    ],
)
def test_modp_table_matches_dense_reference(make):
    group = make()
    table = character_table_modp(group)
    assert (table.ell, table.degrees, table.omega) == _reference_table(group)


@pytest.mark.parametrize(
    "family,n,q,digest",
    [
        ("GL", 3, 3, "f3649a4601e07f6e1f966c780971095bfcaa5af8c70ffbea554792716f4986aa"),
        ("GL", 2, 13, "694ed961469f075b0c0c644866b5935b1914d7c1ae2749cca897e9b246b57d0e"),
    ],
    ids=["GL3(F_3)", "GL2(F_13)"],
)
def test_modp_table_generators_and_classes_are_pinned(family, n, q, digest):
    """sha256 of (ell, degrees, omega, gens, class_of), recorded before the
    batched fixed-factor products replaced the one-product loops."""
    group = build_group(GroupScheme(family, n), RingSpec.for_q(q, 1))
    table = character_table_modp(group)
    data = (table.ell, table.degrees, table.omega, tuple(group.generators()), table.classes.class_of)
    assert hashlib.sha256(repr(data).encode()).hexdigest() == digest


def _members(classes, c):
    return [x for x, label in enumerate(classes.class_of) if label == c]


def _center_by_scan(group):
    """Z(G) as the elements of G that commute with every generator."""
    gens = group.generators()
    return [z for z in range(group.order) if all(group.mul(z, g) == group.mul(g, z) for g in gens)]


@pytest.mark.parametrize(
    "make,orbits,n_classes",
    [
        (lambda: build_group(GroupScheme("GL", 2), RingSpec("unramified", 5, 1, 1)), 7, 24),
        (lambda: build_group(GroupScheme("GL", 2), RingSpec("unramified", 3, 1, 2)), 14, 78),
        # Z(G) = F_9 is not cyclic: <z> has order 3 and 83 orbits on the
        # classes, where Z(G) has 81
        (lambda: build_group(GroupScheme("U", 3), RingSpec("unramified", 3, 2, 1)), 83, 89),
        (lambda: build_group(GroupScheme("B", 2), RingSpec("eqchar", 3, 1, 2)), 10, 60),
        (_stabilizer_quotient_of_gl2_z9, 5, 24),
        # Z(G) = C2 x C2, so non-central classes are relabelled through <z>,
        # a proper subgroup of the center
        (lambda: build_group(GroupScheme("GL", 2), RingSpec("unramified", 2, 1, 3)), 36, 60),
    ],
    ids=["GL2(F_5)", "GL2(Z/9)", "U3(F_9)", "B2(F_3[t]/t^2)", "S/ker psi of GL2(Z/9)", "GL2(Z/8)"],
)
def test_class_matrix_columns_equal_direct_counts(make, orbits, n_classes):
    group = make()
    classes = conjugacy_classes(group)
    k = classes.n_classes
    blocks = _blocks(group, classes)
    assert (len(blocks.orbits), k) == (orbits, n_classes)
    central = [rep for rep, size in zip(classes.representatives, classes.sizes) if size == 1]
    if isinstance(group, FiniteMatrixGroup):
        assert central == _center_by_scan(group)
    # direct[c][t]: the classes of x rep_t over the members x of class c
    direct = [[Counter() for _ in range(k)] for _ in range(k)]
    for t, rep in enumerate(classes.representatives):
        for x in range(group.order):
            direct[classes.class_of[x]][t][classes.class_of[group.mul(x, rep)]] += 1
    for j in range(k):
        inv_j = classes.inverse_class[j]
        columns = _class_matrix(group, classes, _members(classes, inv_j), blocks)
        assert [dict(column) for column in columns] == direct[inv_j]


def _stabilizer_quotient_of_gl2_gr42():
    """The first S/ker psi, of order 360, of the level-2 Clifford run of
    GL2(GR(4,2)), the q = 4 sample of `fit --scheme GL2 --level 2`."""
    s_bar = _stabilizer_quotients(RingSpec("unramified", 2, 2, 2))[0]
    assert s_bar.order == 360
    return s_bar


def _gl2_f5_mod_minus_one():
    """GL2(F_5)/{1, -1} as a QuotientGroup; unlike PGL2(F_5) it has classes
    that are not their own inverse class."""
    group = build_group(GroupScheme("GL", 2), RingSpec("unramified", 5, 1, 1))
    classes = conjugacy_classes(group)
    center = [rep for rep, size in zip(classes.representatives, classes.sizes) if size == 1]
    minus_one = next(z for z in center if z != group.identity and group.mul(z, z) == group.identity)
    return QuotientGroup(group, [group.identity, minus_one])


@pytest.mark.parametrize(
    "make",
    [
        _group("GL2", "unram:5,1,1"),
        _group("GL2", "unram:3,1,2"),
        _group("U3", "unram:3,2,1"),
        _group("B2", "eqchar:3,1,2"),
        _stabilizer_quotient_of_gl2_z9,
        _gl2_f5_mod_minus_one,
        _stabilizer_quotient_of_gl2_gr42,
    ],
    ids=[
        "GL2(F_5)",
        "GL2(Z/9)",
        "U3(F_9)",
        "B2(F_3[t]/t^2)",
        "S/ker psi of GL2(Z/9)",
        "GL2(F_5)/{1,-1}",
        "S/ker psi of GL2(GR(4,2))",
    ],
)
def test_inverse_class_matrix_equals_direct_counts(make):
    group = make()
    classes = conjugacy_classes(group)
    blocks = _blocks(group, classes)
    counted = [
        _class_matrix(group, classes, _members(classes, classes.inverse_class[j]), blocks)
        for j in range(classes.n_classes)
    ]
    pairs = [(j, inv_j) for j, inv_j in enumerate(classes.inverse_class) if inv_j != j]
    assert pairs
    for j, inv_j in pairs:
        derived = _inverse_class_matrix(counted[j], classes.sizes)
        assert [sorted(column) for column in derived] == [sorted(column) for column in counted[inv_j]]


def test_an_inexact_inverse_class_quotient_raises_under_optimize():
    # classes of sizes 1 and 2: |C_0| M[1][0] = 1 is not a multiple of |C_1| = 2
    code = (
        "from repzoo.characters import _inverse_class_matrix\n"
        "_inverse_class_matrix([[(1, 1)], [(0, 2), (1, 1)]], [1, 2])"
    )
    proc = _run_optimized(code)
    assert proc.returncode != 0
    assert "AssertionError: |C_0| M[1][0] = 1 is not a multiple of |C_1|" in proc.stderr


@pytest.mark.parametrize(
    "family,n,q,counted",
    [("GL", 2, 13, 12), ("U", 3, 9, 15), ("GL", 3, 3, 7)],
    ids=["GL2(F_13)", "U3(F_9)", "GL3(F_3)"],
)
def test_inverse_class_operators_are_derived_not_counted(monkeypatch, family, n, q, counted):
    # each M_j* with j* != j comes from M_j by transposition, no operator of a
    # used <z>-orbit of classes is made, and no operator is counted once every
    # subspace is a line (18, 35 and 9 counted with every operator; 12, 18 and
    # 8 with the used orbits' operators still counted)
    group = build_group(GroupScheme(family, n), RingSpec.for_q(q, 1))
    expected = character_table_modp(group)
    calls = []
    count = characters._class_matrix

    def counting(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(characters, "_class_matrix", counting)
    monkeypatch.setattr(group, "modp_table", None)
    table = character_table_modp(group)
    assert (table.ell, table.degrees, table.omega) == (expected.ell, expected.degrees, expected.omega)
    assert len(calls) == counted


@pytest.mark.parametrize(
    "make", [_group("GL2", "unram:13,1,1"), _group("U3", "unram:3,2,1")], ids=["GL2(F_13)", "U3(F_9)"]
)
def test_operators_of_a_central_orbit_are_multiples_on_each_block(make):
    # M_{z^i C_t} = M_{C_z}^i M_t and M_{C_z} is mu on block mu, so on block e
    # the operator of class perm^i t is mu_e^i times that of t: it has the
    # eigenspaces of M_t, and those of the identity's orbit are scalars
    group = make()
    classes = conjugacy_classes(group)
    central = _blocks(group, classes)
    ell = central.ell
    m = len(central.powers)
    assert m > 1
    for orbit in central.orbits:
        condensed = [
            [central.condense(e, _class_matrix(group, classes, _members(classes, classes.inverse_class[u]), central))
             for e in range(m)]
            for u in orbit
        ]
        for i, by_block in enumerate(condensed):
            for e, op in enumerate(by_block):
                mu_i = central.powers[e * i % m]
                assert [dict(column) for column in op] == [
                    {r: x * mu_i % ell for r, x in column} for column in condensed[0][e]
                ]


def test_class_matrix_multiplies_once_per_center_orbit(monkeypatch):
    # GL2(F_5): Z(G) = <z> has 4 elements and 7 orbits on the 24 classes
    group = build_group(GroupScheme("GL", 2), RingSpec("unramified", 5, 1, 1))
    classes = conjugacy_classes(group)
    blocks = _blocks(group, classes)
    orbit_reps = sorted(classes.representatives[orbit[0]] for orbit in blocks.orbits)
    assert len(orbit_reps) == 7
    batches = []
    batched = FiniteMatrixGroup.mul_right

    def counted(self, xs, b):
        batches.append(b)
        return batched(self, xs, b)

    monkeypatch.setattr(FiniteMatrixGroup, "mul_right", counted)
    for j in range(classes.n_classes):
        batches.clear()
        _class_matrix(group, classes, _members(classes, classes.inverse_class[j]), blocks)
        assert sorted(batches) == orbit_reps


def test_table_products_are_pinned(monkeypatch):
    # a fresh GL2(F_13) with its classes built: P_z is one batch of k = 168
    # products (a permutation for each of the 12 central elements would make
    # 32 616 batched products in all), and the single products are the walks
    # over the powers of the class representatives
    built = build_group(GroupScheme("GL", 2), RingSpec.for_q(13, 1))
    expected = character_table_modp(built)
    group = FiniteMatrixGroup(built.scheme, built.ring, [built.matrix(x) for x in range(built.order)])
    classes = conjugacy_classes(group)
    batched, single, central_batches = [], [], []
    batch, mul, central_blocks = FiniteMatrixGroup.mul_right, FiniteMatrixGroup.mul, characters._central_blocks

    def counted_batch(self, xs, b):
        batched.append(len(xs))
        return batch(self, xs, b)

    def counted_mul(self, i, j):
        single.append(1)
        return mul(self, i, j)

    def counted_blocks(*args):
        before = len(batched)
        blocks = central_blocks(*args)
        central_batches.append(batched[before:])
        return blocks

    monkeypatch.setattr(FiniteMatrixGroup, "mul_right", counted_batch)
    monkeypatch.setattr(FiniteMatrixGroup, "mul", counted_mul)
    monkeypatch.setattr(characters, "_central_blocks", counted_blocks)
    table = character_table_modp(group)
    assert (sum(batched), len(single)) == (30768, 7992)
    assert central_batches == [[classes.n_classes]] == [[168]]
    assert (table.ell, table.degrees, table.omega) == (expected.ell, expected.degrees, expected.omega)


def _orbit(perm, t):
    orbit = {t}
    while perm[t] not in orbit:
        t = perm[t]
        orbit.add(t)
    return orbit


def _apply(columns, v, ell):
    """The full-length sparse operator applied to v, mod ell."""
    image = [0] * len(columns)
    for t, vt in enumerate(v):
        if vt:
            for s, count in columns[t]:
                image[s] += vt * count
    return [x % ell for x in image]


def _block_bases(central):
    """Each block's basis e_O written out at full length, with its pivots."""
    return [
        (
            [central.vector(e, [int(r == c) for c in range(len(block))]) for r in range(len(block))],
            [central.orbits[o][0] for o in block],
        )
        for e, block in enumerate(central.blocks)
    ]


@pytest.mark.parametrize(
    "make,n_blocks",
    [(_group("GL2", "unram:13,1,1"), 12), (_stabilizer_quotient_of_gl2_z9, 6)],
    ids=["GL2(F_13)", "S/ker psi of GL2(Z/9)"],
)
def test_central_blocks_are_reduced_and_kept_by_every_class_operator(make, n_blocks):
    group = make()
    classes = conjugacy_classes(group)
    k = classes.n_classes
    central = _blocks(group, classes)
    ell = central.ell
    # the central z of largest order, least on ties, and C_t -> zC_t
    z = min(
        (rep for rep, size in zip(classes.representatives, classes.sizes) if size == 1),
        key=lambda z: (-group.element_order(z), z),
    )
    perm = [classes.class_of[group.mul(rep, z)] for rep in classes.representatives]
    assert central.perm == perm
    blocks = _block_bases(central)
    assert len(blocks) == n_blocks
    assert sum(len(rows) for rows, _ in blocks) == k
    for rows, pivots in blocks:
        assert rref(rows, ell) == (rows, pivots)
        for row, pivot in zip(rows, pivots):
            orbit = _orbit(perm, pivot)
            assert pivot == min(orbit)
            assert {c for c, x in enumerate(row) if x} == orbit
    # every M_j as sparse columns, which test_class_matrix_columns_equal_direct_counts
    # checks against direct counts, applied to every basis vector of every block
    operators = [
        _class_matrix(group, classes, _members(classes, classes.inverse_class[j]), central)
        for j in range(k)
    ]
    for rows, pivots in blocks:
        supports = [[c for c, x in enumerate(row) if x] for row in rows]
        for v in rows:
            for columns in operators:
                image = _apply(columns, v, ell)
                # in the span of rows exactly when it is the combination of
                # rows given by its pivot coordinates; the supports are disjoint
                combo = [0] * k
                for row, pivot, support in zip(rows, pivots, supports):
                    for c in support:
                        combo[c] = image[pivot] * row[c] % ell
                assert image == combo


def _prime_divisor_root(m, ell):
    """The first zeta = a^((ell-1)/m), a = 2, 3, ..., with zeta^(m/p) != 1 for
    every prime p | m: the rule _root_of_unity used before it returned powers."""
    primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]
    for a in range(2, ell):
        zeta = pow(a, (ell - 1) // m, ell)
        if all(pow(zeta, m // p, ell) != 1 for p in primes):
            return zeta
    raise AssertionError(f"no primitive {m}-th root of unity mod {ell}")


@pytest.mark.parametrize("ell", [13, 37, 61, 97])
def test_root_of_unity_powers_follow_the_prime_divisor_rule(ell):
    for m in (m for m in range(1, ell) if (ell - 1) % m == 0):
        zeta = _prime_divisor_root(m, ell)
        assert _root_of_unity(m, ell) == [pow(zeta, i, ell) for i in range(m)]


@pytest.mark.parametrize(
    "make",
    [
        _group("GL2", "unram:5,1,1"),
        _group("GL2", "unram:2,1,3"),
        _group("U3", "unram:3,2,1"),
        _stabilizer_quotient_of_gl2_z9,
    ],
    ids=["GL2(F_5)", "GL2(Z/8)", "U3(F_9)", "S/ker psi of GL2(Z/9)"],
)
def test_condensed_operator_is_the_class_operator_on_each_block(make):
    group = make()
    classes = conjugacy_classes(group)
    central = _blocks(group, classes)
    ell = central.ell
    bases = _block_bases(central)
    for j in range(classes.n_classes):
        columns = _class_matrix(group, classes, _members(classes, classes.inverse_class[j]), central)
        central.check_commutes(columns)
        for e, (rows, pivots) in enumerate(bases):
            condensed = central.condense(e, columns)
            assert len(condensed) == len(rows)
            for basis_vector, column in zip(rows, condensed):
                image = _apply(columns, basis_vector, ell)
                # the image lies in the block, and its coordinates are its
                # entries at the leaders
                coords = [image[pivot] for pivot in pivots]
                assert central.vector(e, coords) == image
                assert dict(column) == {r: x for r, x in enumerate(coords) if x}


# python -O runs of GL2(F_5) whose class operators are corrupted after they are
# counted; perm is the class permutation of the central z of the blocks
_CORRUPT = """
from repzoo import characters
from repzoo.groups import GroupScheme, build_group
from repzoo.localring import RingSpec
count_columns = characters._class_matrix
calls = []

def corrupted(group, classes, members, blocks):
    columns = count_columns(group, classes, members, blocks)
    calls.append(columns)
    perm = blocks.perm
    t, (s, _) = 0, columns[0][0]
    if blocks.orbits[0][0] != 0 or perm[0] == 0:
        raise SystemExit('column 0 is not a counted column that z moves')
    {corrupt}
    return columns

characters._class_matrix = corrupted
characters.character_table_modp(build_group(GroupScheme("GL", 2), RingSpec("unramified", 5, 1, 1)))
"""


def test_a_class_operator_that_does_not_commute_with_the_center_raises_under_optimize():
    # one more count in counted column 0 of the first operator, not in its
    # relabelled copies
    corrupt = "columns[t] = [(u, c + (u == s)) for u, c in columns[t]]"
    proc = _run_optimized(_CORRUPT.format(corrupt=corrupt))
    assert proc.returncode != 0
    assert (
        "AssertionError: class operator does not commute with the central class permutation"
        in proc.stderr
    )


def test_a_class_operator_that_leaves_a_subspace_raises_under_optimize():
    # the same count added at every (perm^i s, perm^i t) in the second
    # operator, so it still commutes with P_z and keeps every block, but not
    # the subspaces the first operator split them into
    corrupt = """
    while len(calls) == 2:
        columns[t] = [(u, c + (u == s)) for u, c in columns[t]]
        t, s = perm[t], perm[s]
        if (t, s) == (0, columns[0][0][0]):
            break"""
    proc = _run_optimized(_CORRUPT.format(corrupt=corrupt))
    assert proc.returncode != 0
    assert "AssertionError: class operator left the subspace" in proc.stderr


def test_scalar_operators_skip_the_characteristic_polynomial(monkeypatch):
    group = build_group(GroupScheme("GL", 2), RingSpec("unramified", 13, 1, 1))
    expected = character_table_modp(group)
    calls = []
    charpoly = characters._charpoly

    def checked(a, ell):
        d = len(a)
        if all(a[r][c] == (a[0][0] if r == c else 0) for r in range(d) for c in range(d)):
            raise AssertionError("_charpoly called on a scalar matrix")
        calls.append(d)
        return charpoly(a, ell)

    monkeypatch.setattr(characters, "_charpoly", checked)
    monkeypatch.setattr(group, "modp_table", None)
    table = character_table_modp(group)
    assert (table.ell, table.degrees, table.omega) == (expected.ell, expected.degrees, expected.omega)
    assert len(calls) == 114
