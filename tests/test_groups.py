import random

import pytest

from repzoo.groups import (
    BudgetExceededError,
    GroupScheme,
    NotNormalError,
    build_group,
    center,
    congruence_kernel,
    conjugacy_classes,
    predicted_order,
    quotient_group,
    scheme_order_poly,
)
from repzoo.localring import RingSpec

GL2 = GroupScheme("GL", 2)
F2 = RingSpec("unramified", 2, 1, 1)
F3 = RingSpec("unramified", 3, 1, 1)
Z4 = RingSpec("unramified", 2, 1, 2)


def test_gl2_f2_order():
    assert build_group(GL2, F2).order == 6


def test_unitriangular_order():
    assert build_group(GroupScheme("U", 3), RingSpec("eqchar", 3, 1, 1)).order == 27


def test_gl2_z4_order_by_fibering():
    assert build_group(GL2, Z4).order == 96


@pytest.mark.parametrize(
    "scheme,spec",
    [
        (GL2, RingSpec("unramified", 3, 1, 2)),
        (GL2, RingSpec("eqchar", 2, 1, 2)),
        (GroupScheme("GL", 2), RingSpec("unramified", 2, 2, 1)),
        (GroupScheme("SL", 2), F3),
        (GroupScheme("B", 2), F3),
        (GroupScheme("T", 2), RingSpec("unramified", 5, 1, 1)),
        (GroupScheme("GL", 3), F2),
    ],
)
def test_order_formula_matches_enumeration(scheme, spec):
    group = build_group(scheme, spec)
    assert group.order == predicted_order(scheme, spec)
    assert group.order == scheme_order_poly(scheme, spec.r)(spec.q)


def test_budget_error_names_predicted_order():
    with pytest.raises(BudgetExceededError) as err:
        build_group(GroupScheme("GL", 3), RingSpec("unramified", 5, 1, 2), budget=10**4)
    assert err.value.predicted == predicted_order(GroupScheme("GL", 3), RingSpec("unramified", 5, 1, 2))


def test_gl2_f2_classes():
    data = conjugacy_classes(build_group(GL2, F2))
    assert sorted(data.sizes) == [1, 2, 3]


def test_gl2_f3_class_count():
    # class count equals the total row multiplicity 2 + 3 + 2 + 1 at q = 3
    assert conjugacy_classes(build_group(GL2, F3)).n_classes == 8


def test_abelian_group_all_singleton_classes():
    torus = build_group(GroupScheme("T", 2), F3)
    data = conjugacy_classes(torus)
    assert data.n_classes == torus.order
    assert set(data.sizes) == {1}


def test_class_equation_and_inverse_involution():
    group = build_group(GL2, Z4)
    data = conjugacy_classes(group)
    assert sum(data.sizes) == group.order
    for size in data.sizes:
        assert group.order % size == 0
    for c in range(data.n_classes):
        assert data.inverse_class[data.inverse_class[c]] == c


def test_congruence_kernel_structure():
    group = build_group(GL2, Z4)
    k1 = congruence_kernel(group, 1)
    assert k1.order == 16
    assert k1.is_abelian()
    assert congruence_kernel(group, 2).order == 1
    with pytest.raises(ValueError):
        congruence_kernel(group, 3)
    # normality under random conjugation
    members = set(k1.ordinals)
    rng = random.Random(3)
    for _ in range(50):
        g = rng.randrange(group.order)
        gi = group.inv(g)
        for x in k1.ordinals:
            assert group.mul(gi, group.mul(x, g)) in members


def test_kernel_isomorphic_to_additive_matrices():
    # K^1 of GL2(F3[t]/t^2) is (M_2(F_3), +) via 1 + tA -> A
    group = build_group(GL2, RingSpec("eqchar", 3, 1, 2))
    k1 = congruence_kernel(group, 1)
    assert k1.order == 81
    ring = group.ring
    # additive coordinates: subtract the identity matrix entrywise
    ident = group.matrix(group.identity)

    def to_additive(ordinal):
        mat = group.matrix(k1.ordinals[ordinal])
        return tuple(ring.sub(a, b) for a, b in zip(mat, ident))

    for a in range(k1.order):
        for b in range(k1.order):
            lhs = to_additive(k1.mul(a, b))
            rhs = tuple(
                ring.add(xa, xb) for xa, xb in zip(to_additive(a), to_additive(b))
            )
            assert lhs == rhs


def test_quotient_by_trivial_and_full():
    group = build_group(GL2, F3)
    q_triv = quotient_group(group, [group.identity])
    assert q_triv.order == group.order
    q_full = quotient_group(group, list(range(group.order)))
    assert q_full.order == 1


def test_gl2_z4_mod_k1_is_gl2_f2():
    group = build_group(GL2, Z4)
    quo = quotient_group(group, congruence_kernel(group, 1))
    assert quo.order == 6
    assert not quo.is_abelian()


def test_quotient_rejects_non_normal_with_witness():
    group = build_group(GL2, F3)
    # a non-normal subgroup: any order-2 cyclic generated by a non-central involution
    for x in range(group.order):
        if x != group.identity and group.mul(x, x) == group.identity:
            if x not in center(group):
                sub = [group.identity, x]
                with pytest.raises(NotNormalError) as err:
                    quotient_group(group, sub)
                assert err.value.conjugator is not None
                return
    raise AssertionError("no witness involution found")


def test_center_of_heisenberg():
    group = build_group(GroupScheme("U", 3), F3)
    assert len(center(group)) == 3


def test_scheme_parse():
    assert GroupScheme.parse("GL2") == GL2
    assert GroupScheme.parse("U4") == GroupScheme("U", 4)
    with pytest.raises(ValueError):
        GroupScheme.parse("E8")


def test_budget_is_checked_after_the_group_is_built():
    assert build_group(GL2, F2).order == 6
    with pytest.raises(BudgetExceededError):
        build_group(GL2, F2, budget=1)
