import itertools
import math
import random

import pytest

from repzoo import clifford, groups
from repzoo.characters import DegreeMultiset, _central_blocks, character_table_modp, choose_ell
from repzoo.clifford import default_normal_subgroup
from repzoo.groups import (
    _PATTERNS,
    BudgetExceededError,
    CosetCoordinates,
    FiniteGroup,
    FiniteMatrixGroup,
    GroupScheme,
    QuotientGroup,
    SubgroupView,
    _identity_matrix,
    _mat_det,
    _mat_mul,
    build_group,
    check_budget,
    clifford_size,
    congruence_kernel,
    conjugacy_classes,
    coset_group,
    predicted_order,
    scheme_order_poly,
)
from repzoo.localring import RingSpec, make_ring

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
    ]
    + [
        (GroupScheme(fam, n), spec)
        for fam, n in (("SL", 2), ("U", 3), ("B", 2), ("T", 2))
        for spec in (
            RingSpec("unramified", 3, 1, 2),
            RingSpec("eqchar", 3, 1, 2),
            RingSpec("eisenstein", 3, 1, 2, 2),
            RingSpec("unramified", 2, 1, 3),
            RingSpec("eqchar", 2, 1, 3),
            RingSpec("eisenstein", 2, 1, 3, 3),
        )
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


@pytest.mark.parametrize(
    "family,n,dim",
    [("GL", n, n * n) for n in (1, 2, 3, 4)]
    + [("SL", n, n * n - 1) for n in (1, 2, 3, 4)]
    + [("U", n, n * (n - 1) // 2) for n in (1, 2, 3, 4)]
    + [("B", n, n * (n + 1) // 2) for n in (1, 2, 3, 4)]
    + [("T", n, n) for n in (1, 2, 3, 4)],
)
def test_scheme_dimension(family, n, dim):
    assert GroupScheme(family, n).dim == dim


@pytest.mark.parametrize("family", ["GL", "SL", "U", "B", "T"])
@pytest.mark.parametrize(
    "spec",
    [
        RingSpec("unramified", 2, 1, 3),
        RingSpec("eqchar", 2, 1, 3),
        RingSpec("eisenstein", 3, 1, 2, 2),
    ],
)
def test_congruence_kernel_order_is_q_to_the_level_times_dim(family, spec):
    # reduction G(o_r) -> G(o_i) of a smooth G is onto, with kernel q^((r-i) dim G)
    scheme = GroupScheme(family, 2)
    group = build_group(scheme, spec)
    for i in range(1, spec.r + 1):
        assert congruence_kernel(group, i).order == spec.q ** ((spec.r - i) * scheme.dim)


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
    q_triv = QuotientGroup(group, [group.identity])
    assert q_triv.order == group.order
    q_full = QuotientGroup(group, range(group.order))
    assert q_full.order == 1


def test_gl2_z4_mod_k1_is_gl2_f2():
    group = build_group(GL2, Z4)
    quo = QuotientGroup(group, congruence_kernel(group, 1).ordinals)
    assert quo.order == 6
    assert not quo.is_abelian()


def test_center_of_heisenberg():
    # Z(G) is the union of the classes of size 1
    classes = conjugacy_classes(build_group(GroupScheme("U", 3), F3))
    assert classes.sizes.count(1) == 3


def test_scheme_parse():
    assert GroupScheme.parse("GL2") == GL2
    assert GroupScheme.parse("U4") == GroupScheme("U", 4)
    # a bad size raises the parser's own error, not int()'s
    for text in ("E8", "GLx", "SL", "U", "GL2x", "B-1"):
        with pytest.raises(ValueError, match="cannot parse scheme"):
            GroupScheme.parse(text)


def test_budget_is_checked_after_the_group_is_built():
    assert build_group(GL2, F2).order == 6
    with pytest.raises(BudgetExceededError):
        build_group(GL2, F2, budget=1)


# one small ring of each kind; the eqchar and Eisenstein rings are of level 2
SMALL_RINGS = [
    RingSpec("unramified", 2, 1, 2),
    RingSpec("eqchar", 2, 1, 2),
    RingSpec("eisenstein", 2, 1, 2, 3),
]


def _matrices(group):
    """The matrices of an enumerated group, in ordinal order."""
    return [group.matrix(x) for x in range(group.order)]


def _fresh(group):
    """The same group with an empty table memo."""
    return FiniteMatrixGroup(group.scheme, group.ring, _matrices(group))


def _assert_batched_products_match(group, rng):
    xs = rng.sample(range(group.order), min(group.order, 64))
    for b in rng.sample(range(group.order), min(group.order, 4)):
        assert group.mul_right(xs, b) == [group.mul(x, b) for x in xs]


@pytest.mark.parametrize(
    "scheme,spec",
    [
        (GroupScheme(family, n), spec)
        for family in sorted(_PATTERNS)
        for n in (1, 2, 3)
        for spec in SMALL_RINGS
        # GL3 and SL3 over the Eisenstein ring would add 129 024 elements
        if not (n == 3 and family in ("GL", "SL") and spec.kind == "eisenstein")
    ],
    ids=lambda v: v.label(),
)
def test_batched_products_equal_the_plain_loop(scheme, spec):
    group = _fresh(build_group(scheme, spec))
    _assert_batched_products_match(group, random.Random(f"{scheme.label()} {spec.label()}"))
    # a table of n |R|^n entries exists exactly when it fits in 2|G|
    assert bool(group._tables) == (scheme.n * spec.size**scheme.n <= 2 * group.order)
    for table in group._tables.values():
        assert len(table) == scheme.n and all(len(shares) == spec.size**scheme.n for shares in table)
        assert len(group._codes) == scheme.n


def test_batched_products_on_subgroups_and_quotients():
    group = build_group(GL2, Z4)
    kernel = congruence_kernel(group, 1)
    rng = random.Random(5)
    _assert_batched_products_match(kernel, rng)
    _assert_batched_products_match(QuotientGroup(group, kernel.ordinals), rng)


def test_subgroup_view_batches_through_its_parent():
    # SL2(Z/4) in a fresh GL2(Z/4), whose products by the first six factors
    # it meets are tables, and all of GL2(Z/4)/K^1, a QuotientGroup, which
    # has none
    parent = _fresh(build_group(GL2, Z4))
    ring = parent.ring
    sl2 = SubgroupView(parent, [x for x in range(parent.order) if _mat_det(ring, 2, parent.matrix(x)) == ring.one])
    quotient = QuotientGroup(parent, congruence_kernel(parent, 1).ordinals)
    for view in (sl2, SubgroupView(quotient, range(quotient.order))):
        xs = list(range(view.order))
        for b in xs:
            assert view.mul_right(xs, b) == [view.mul(x, b) for x in xs]
    assert len(parent._tables) == parent._table_room == 6
    # generators() frees the tables its closure made, in the parent
    sl2.generators()
    assert parent._tables == {}


def test_batched_products_past_the_memo_budget():
    # GL2(F_5): 480 elements and 2 * 25 entries a table, so 19 tables fit; a
    # factor past them takes the plain loop
    group = _fresh(build_group(GL2, RingSpec("unramified", 5, 1, 1)))
    xs = list(range(group.order))
    for b in range(24):
        assert group.mul_right(xs, b) == [group.mul(x, b) for x in xs]
    assert len(group._tables) == group._table_room == 19 and 19 * 50 <= 2 * group.order
    assert set(group._tables) == set(range(19))


def test_no_table_when_vectors_outnumber_the_group():
    group = _fresh(build_group(GroupScheme("U", 2), Z4))
    assert Z4.size**2 > group.order
    xs = list(range(group.order))
    assert group.mul_right(xs, 1) == [group.mul(x, 1) for x in xs]
    assert group._tables == {} and group._table_room == 0


def test_keys_of_two_byte_entries():
    # F_3[t]/t^6 has 729 elements, so an entry takes two bytes of a key, and
    # products take the plain loop
    group = _fresh(build_group(GroupScheme("U", 2), RingSpec("eqchar", 3, 1, 6)))
    ring = group.ring
    assert (ring.size, group.order, group._entry_bytes) == (729, 729, 2)
    mats = _matrices(group)
    assert mats == sorted(mats) and all(group.ordinal(m) == x for x, m in enumerate(mats))
    rng = random.Random(3)
    for _ in range(50):
        x, y = rng.randrange(group.order), rng.randrange(group.order)
        assert mats[group.mul(x, y)] == _mat_mul(ring, 2, mats[x], mats[y])
        assert group.mul(x, group.inv(x)) == group.identity
    _assert_batched_products_match(group, rng)
    assert group._tables == {}


def test_table_memo_never_exceeds_twice_the_group_order(monkeypatch):
    # GL2(F_5): 480 elements and 2 * 25 entries a table, so at most 19 tables;
    # generators and character_table_modp each drop their tables when they
    # store their result, and conjugacy_classes builds none, so the central z
    # of the blocks and the representative of each of the 7 <z>-orbits of its
    # 24 classes get one, and the codes stay with the group
    group = _fresh(build_group(GL2, RingSpec("unramified", 5, 1, 1)))
    assert group._table_room == 19
    held = []
    drop = FiniteMatrixGroup.drop_tables

    def recorded(self):
        assert sum(len(table) * len(table[0]) for table in self._tables.values()) <= 2 * self.order
        held.append(set(self._tables))
        drop(self)

    monkeypatch.setattr(FiniteMatrixGroup, "drop_tables", recorded)
    degrees = DegreeMultiset.from_degrees(character_table_modp(group).degrees)
    assert degrees.entries == ((1, 4), (4, 10), (5, 4), (6, 6))
    assert group._tables == {} and len(group._codes) == 2
    classes = conjugacy_classes(group)
    gens = group.generators()
    orders = [group.element_order(rep) for rep in classes.representatives]
    blocks = _central_blocks(group, classes, orders, choose_ell(group.order, math.lcm(*orders)))
    orbit_reps = [classes.representatives[orbit[0]] for orbit in blocks.orbits]
    assert len(orbit_reps) == 7
    central = [rep for rep, size in zip(classes.representatives, classes.sizes) if size == 1]
    # the central element of largest order, least on ties: a generator of Z(G)
    z = min(central, key=lambda z: (-group.element_order(z), z))
    assert (len(central), group.element_order(z)) == (4, 4)
    # the generators' right products, then the table
    assert held == [set(gens), set(orbit_reps + [z])]


def test_row_codes_are_built_once():
    # the row codes generators builds are the ones the class operators read
    group = _fresh(build_group(GL2, RingSpec("unramified", 5, 1, 1)))
    group.generators()
    codes = group._codes
    character_table_modp(group)
    assert group._codes is codes


@pytest.mark.parametrize(
    "scheme,spec",
    [(GL2, RingSpec("unramified", 13, 1, 1)), (GroupScheme("GL", 3), F3)]
    + [(GroupScheme("SL", 2), RingSpec.for_q(q, 1)) for q in (9, 11)],
    ids=lambda v: v.label(),
)
def test_class_operators_never_take_the_plain_loop(monkeypatch, scheme, spec):
    # every class-operator batch of a fresh group finds room for its table;
    # SL2 has room for about q tables, so the generators' tables must be gone
    group = _fresh(build_group(scheme, spec))
    conjugacy_classes(group)
    plain = []
    mul_right = FiniteGroup.mul_right
    monkeypatch.setattr(FiniteGroup, "mul_right", lambda self, xs, b: plain.append(b) or mul_right(self, xs, b))
    character_table_modp(group)
    assert plain == []


@pytest.mark.parametrize(
    "n,spec",
    [(2, RingSpec("unramified", 3, 1, 2)),
     (2, RingSpec("eqchar", 3, 1, 2)),
     (2, RingSpec("eisenstein", 2, 1, 4, 3)),
     (2, RingSpec("unramified", 2, 1, 3))]
    + [(3, spec) for spec in SMALL_RINGS[:2]],
    ids=lambda v: v.label() if isinstance(v, RingSpec) else f"SL{v}",
)
def test_sl_lifts_solved_from_det_one_equal_the_det_one_filter(n, spec):
    gl = build_group(GroupScheme("GL", n), spec)
    ring = gl.ring
    expected = [m for m in _matrices(gl) if _mat_det(ring, n, m) == ring.one]
    assert _matrices(build_group(GroupScheme("SL", n), spec)) == expected


def _laplace_det(ring, n, a):
    """det a by cofactor expansion along row 0, with the ring's operations."""
    if n == 1:
        return a[0]
    det = ring.zero
    for j in range(n):
        minor = tuple(a[r * n + c] for r in range(1, n) for c in range(n) if c != j)
        term = ring.mul(a[j], _laplace_det(ring, n - 1, minor))
        det = ring.add(det, term) if j % 2 == 0 else ring.sub(det, term)
    return det


@pytest.mark.parametrize("spec,sample", [(F2, None), (F3, None), (Z4, 5000)], ids=["F_2", "F_3", "Z/4"])
def test_three_by_three_determinant_equals_the_laplace_expansion(spec, sample):
    ring = make_ring(spec)
    assert ring.mul_table is not None
    if sample is None:
        mats = itertools.product(range(ring.size), repeat=9)
    else:
        rng = random.Random(0)
        mats = [tuple(rng.randrange(ring.size) for _ in range(9)) for _ in range(sample)]
    assert all(_mat_det(ring, 3, m) == _laplace_det(ring, 3, m) for m in mats)


def _kernel_by_scan(group, i):
    """K^i as the elements of G that reduce to the identity mod p^i."""
    ring = group.ring
    _, red = ring.reduce_to(i)
    id_img = tuple(red[x] for x in _identity_matrix(ring, group.n))
    return [k for k, m in enumerate(_matrices(group)) if tuple(red[x] for x in m) == id_img]


@pytest.mark.parametrize("family", sorted(_PATTERNS))
@pytest.mark.parametrize(
    "spec",
    [
        RingSpec("unramified", 2, 1, 3),
        RingSpec("eqchar", 3, 1, 2),
        RingSpec("eisenstein", 3, 1, 2, 2),
        RingSpec("unramified", 2, 2, 2),
    ],
    ids=lambda v: v.label(),
)
def test_congruence_kernel_from_the_pattern_equals_the_scan(family, spec):
    group = build_group(GroupScheme(family, 2), spec)
    for i in range(1, spec.r + 1):
        assert congruence_kernel(group, i).ordinals == tuple(_kernel_by_scan(group, i))


@pytest.mark.parametrize(
    "scheme,spec",
    [
        (GL2, Z4),
        (GroupScheme("SL", 2), RingSpec("unramified", 3, 1, 2)),
        (GroupScheme("B", 2), RingSpec("eqchar", 2, 1, 3)),
        (GroupScheme("U", 3), RingSpec("eisenstein", 3, 1, 2, 2)),
    ],
    ids=lambda v: v.label(),
)
def test_coset_group_products_are_matrix_products(scheme, spec):
    # coordinates c |N| + j are s(c) k_j; the coordinates the Clifford engine
    # reads agree with matrix arithmetic and with the enumerated group
    coset = coset_group(scheme, spec)
    group = build_group(scheme, spec)
    ring, n, kernel, section = group.ring, scheme.n, coset.kernel, coset.section

    def matrix(x):
        c, j = divmod(x, kernel.order)
        return _mat_mul(ring, n, section[c], kernel.matrix(j))

    assert coset.order == group.order
    assert sorted(map(matrix, range(coset.order))) == _matrices(group)
    assert all(coset.ordinal(matrix(x)) == x for x in range(coset.order))
    assert section[coset.quotient.identity] == group.matrix(group.identity)
    rng = random.Random(7)
    for _ in range(50):
        c, d = rng.randrange(coset.quotient.order), rng.randrange(coset.quotient.order)
        # product(c, d) is s(c) s(d)
        x, y = group.ordinal(section[c]), group.ordinal(section[d])
        assert group.ordinal(matrix(coset.product(c, d))) == group.mul(x, y)
        # conjugate(c, j) is the j' with s(c) k_j' = k_j s(c)
        j = rng.randrange(kernel.order)
        k = coset.conjugate(c, j)
        assert _mat_mul(ring, n, section[c], kernel.matrix(k)) == _mat_mul(ring, n, kernel.matrix(j), section[c])
        # s(c) k_j k_j' = s(c) k_(j j')
        m = rng.randrange(kernel.order)
        x = c * kernel.order + j
        assert coset.ordinal(_mat_mul(ring, n, matrix(x), kernel.matrix(m))) == c * kernel.order + kernel.mul(j, m)


def test_clifford_budget_bounds_what_is_enumerated():
    # GL2(o_2) at q = 9 has 37.8 M elements; the Clifford engine lists
    # G/N = GL2(F_9), N of 9^4 elements and stabilizer quotients of at most
    # |GL2(F_9)| * 3 elements
    spec = RingSpec("unramified", 3, 2, 2)
    assert clifford_size(GL2, spec) == 5760 * 3 < predicted_order(GL2, spec)
    assert clifford_size(GL2, RingSpec("unramified", 2, 1, 4)) == 96 * 4
    assert clifford_size(GL2, RingSpec("eqchar", 2, 1, 4)) == 2 ** 8
    assert clifford_size(GL2, F3) == 48
    # o = Z_3[3^(1/2)] at level 4: N = K^2 has exponent 3, the additive order of 1 in o_2
    assert clifford_size(GL2, RingSpec("eisenstein", 3, 1, 4, 2)) == 11664
    with pytest.raises(BudgetExceededError) as err:
        coset_group(GL2, spec, budget=17_279)
    assert err.value.predicted == 17_280
    # a dimension-0 scheme has one element at every level, and build_group lists it
    for family in ("U", "SL"):
        assert clifford_size(GroupScheme(family, 1), RingSpec("unramified", 2, 1, 2)) == 1


def test_clifford_budget_refuses_a_large_q_without_building_a_ring(monkeypatch):
    # exp N is read off the spec, so a level-2 sample at q = 1 000 003 is
    # refused before any ring of q^(r-m) elements is listed
    def no_ring(spec):
        raise AssertionError(f"built the ring {spec.label()}")

    monkeypatch.setattr(groups, "make_ring", no_ring)
    with pytest.raises(BudgetExceededError):
        check_budget(GL2, RingSpec.for_q(1_000_003, 2), 10**7, clifford=True)


def _two_sided_greedy_generators(group):
    """The greedy generating set as first computed: each new generator's
    closure grown by products with every generator on both sides."""
    gens = []
    closure = {group.identity}
    for i in range(group.order):
        if i in closure:
            continue
        gens.append(i)
        closure.add(i)
        frontier = [i]
        while frontier:
            nxt = []
            for g in gens:
                for x in frontier:
                    for y in (group.mul(x, g), group.mul(g, x)):
                        if y not in closure:
                            closure.add(y)
                            nxt.append(y)
            frontier = nxt
        if len(closure) == group.order:
            break
    return gens


def _classes_by_brute_force(group):
    """(class_of, representatives, sizes, inverse_class): each orbit is
    {g^-1 x g : g in G}, labelled in the order of its least element."""
    class_of = [-1] * group.order
    reps, sizes = [], []
    for x in range(group.order):
        if class_of[x] < 0:
            orbit = {group.mul(group.inv(g), group.mul(x, g)) for g in range(group.order)}
            for y in orbit:
                class_of[y] = len(reps)
            reps.append(x)
            sizes.append(len(orbit))
    inverse_class = [class_of[group.inv(r)] for r in reps]
    return tuple(class_of), tuple(reps), tuple(sizes), tuple(inverse_class)


def _central_extension_of_gl2_z9():
    """A fresh copy of the one non-abelian S/ker psi of the level-2 Clifford run
    of GL2(Z/9), built as the run builds it for its orbit's Galois class."""
    group = coset_group(GL2, RingSpec("unramified", 3, 1, 2))
    n_view = default_normal_subgroup(group)
    dual, cosets = clifford.DualGroup(n_view), group.coset_coordinates(n_view)
    records = clifford.orbits_and_stabilizers(cosets, dual)
    non_abelian = []
    for c in sorted(set(clifford._galois_classes(dual, records))):
        psi = records[c].representative
        M = dual.char_order(psi)
        args = (cosets, records[c].stabilizer, dual.values(psi, M), M)
        if M > 1 and not clifford._CentralExtension(*args).is_abelian():
            non_abelian.append(args)
    (args,) = non_abelian
    return clifford._CentralExtension(*args)


def _sl2_in_gl2_z4():
    group = build_group(GL2, Z4)
    ring = group.ring
    return SubgroupView(group, [x for x in range(group.order) if _mat_det(ring, 2, group.matrix(x)) == ring.one])


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda scheme=GroupScheme(family, n), spec=spec: _fresh(build_group(scheme, spec)),
                     id=f"{family}{n}-{spec.label()}")
        for family in sorted(_PATTERNS)
        for n in (1, 2)
        for spec in SMALL_RINGS
    ]
    + [
        pytest.param(lambda: QuotientGroup(build_group(GL2, Z4), congruence_kernel(build_group(GL2, Z4), 1).ordinals),
                     id="GL2(Z/4)/K^1"),
        pytest.param(lambda: QuotientGroup(build_group(GroupScheme("B", 2), RingSpec("eqchar", 3, 1, 2)),
                                           congruence_kernel(build_group(GroupScheme("B", 2), RingSpec("eqchar", 3, 1, 2)), 1).ordinals),
                     id="B2(F_3[t]/t^2)/K^1"),
        pytest.param(lambda: congruence_kernel(build_group(GL2, Z4), 1), id="K^1 of GL2(Z/4)"),
        pytest.param(_sl2_in_gl2_z4, id="SL2(Z/4) in GL2(Z/4)"),
        pytest.param(_central_extension_of_gl2_z9, id="S/ker psi of GL2(Z/9)"),
    ],
)
def test_generators_and_classes_equal_the_references(make):
    group = make()
    expected = _two_sided_greedy_generators(group)
    assert group.generators() == expected
    assert len(group.right_products) == len(expected)
    for g, products in zip(expected, group.right_products):
        assert list(products) == [group.mul(x, g) for x in range(group.order)]
    # the closure tree: each member after the identity is its parent, reached
    # before it, times one generator
    parent, via, reach = group.tree
    assert reach[0] == group.identity and sorted(reach) == list(range(group.order))
    reached = {group.identity}
    for x in reach[1:]:
        assert parent[x] in reached and group.mul(parent[x], expected[via[x]]) == x
        reached.add(x)
    classes = conjugacy_classes(group)
    assert group.right_products is None and group.tree is None
    got = (classes.class_of, classes.representatives, classes.sizes, classes.inverse_class)
    assert got == _classes_by_brute_force(group)


@pytest.mark.parametrize(
    "make,n_classes",
    [
        pytest.param(lambda: _fresh(build_group(GroupScheme("U", 3), RingSpec.for_q(9, 1))), 89, id="U3(F_9)"),
        pytest.param(_central_extension_of_gl2_z9, None, id="S/ker psi of GL2(Z/9)"),
    ],
)
def test_classes_make_no_group_operation_after_generators(monkeypatch, make, n_classes):
    # conjugacy_classes reads the right products and closure tree of generators
    # only: U3(F_9) has no table room, so a product there would be a single mul
    group = make()
    group.generators()
    calls = []
    for owner, name in [
        (FiniteMatrixGroup, "mul"), (FiniteMatrixGroup, "inv"), (FiniteGroup, "mul_right"),
        (clifford._CentralExtension, "mul_right"), (clifford._CentralExtension, "inv"),
        (CosetCoordinates, "products"),
    ]:
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args, method=method, name=name: calls.append(name) or method(self, *args))
    classes = conjugacy_classes(group)
    monkeypatch.undo()
    assert calls == []
    assert sum(classes.sizes) == group.order and n_classes in (None, classes.n_classes)
