import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
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
from repzoo.localring import RingSpec

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
    # multiplicative on all pairs
    for chi in chars:
        for a in range(kernel.order):
            for b in range(kernel.order):
                assert (
                    dual.phase_num(chi, kernel.mul(a, b))
                    == (dual.phase_num(chi, a) + dual.phase_num(chi, b)) % dual.exponent
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
