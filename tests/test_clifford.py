import pytest

from repzoo.characters import character_degrees
from repzoo.clifford import (
    DualGroup,
    NotAbelianNormalError,
    clifford_dimirr,
    default_normal_subgroup,
    orbits_and_stabilizers,
)
from repzoo.groups import (
    GroupScheme,
    SubgroupView,
    build_group,
    center,
    congruence_kernel,
)
from repzoo.localring import RingSpec

GL2 = GroupScheme("GL", 2)


def heisenberg(q_spec):
    group = build_group(GroupScheme("U", 3), q_spec)
    return group, SubgroupView(group, center(group))


def test_dual_of_elementary_abelian():
    group = build_group(GL2, RingSpec("unramified", 2, 1, 2))
    kernel = congruence_kernel(group, 1)
    dual = DualGroup(kernel)
    chars = list(dual.characters())
    assert len(chars) == 16
    assert len(set(chars)) == 16
    # closed under product, multiplicative on all pairs
    for chi in chars[:6]:
        for psi in chars[:6]:
            assert dual.product(chi, psi) in set(chars)
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
    records = orbits_and_stabilizers(group, kernel, dual)
    assert sum(r.orbit_size for r in records) == 16
    for rec in records:
        assert rec.orbit_size * rec.stabilizer_order == group.order
    # the trivial character is fixed by everything
    trivial = tuple(0 for _ in dual.orders)
    triv_rec = next(r for r in records if trivial in r.orbit)
    assert triv_rec.orbit_size == 1


def test_abelian_group_acting_on_own_dual_fixes_everything():
    torus = build_group(GroupScheme("T", 2), RingSpec("unramified", 3, 1, 1))
    # T is abelian of order 4 = 2^2, its own normal p-subgroup
    full = SubgroupView(torus, range(torus.order))
    dual = DualGroup(full)
    records = orbits_and_stabilizers(torus, full, dual)
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
        assert orbit.isotypic == (orbit.orbit_size == 1)
        # restriction shape: induced dimension = orbit_size * stabilizer-level dim
        for d, _m in orbit.dims:
            assert (d * orbit.orbit_size) in report.degrees.degrees_set()
    assert report.isotypic_count == sum(
        o.irr_count for o in report.orbits if o.orbit_size == 1
    )


def test_trivial_n_delegates_to_chardeg():
    group = build_group(GL2, RingSpec("unramified", 3, 1, 1))
    report = clifford_dimirr(group, [group.identity])
    assert report.degrees.entries == character_degrees(group).entries


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
