"""Finite matrix groups over quotient rings: enumeration, classes, kernels, quotients.

A matrix is a tuple of n*n ring-element ordinals, so group elements hash and
compare as flat int tuples.  Groups expose a small uniform protocol (order,
mul, inv, generators, and the batched mul_right/mul_left by one fixed factor)
that the character-theory code runs against; subgroups and quotients
implement the same protocol, which keeps Dixon-Schneider and the Clifford
pipeline oblivious to where a group came from.

Each family is one entry pattern (_PATTERNS) of a smooth group scheme, so
G(o_r) -> G(o_i) is onto with a kernel K^i of q^((r-i) dim G) elements: one
enumerator lifts G(F_q) through the kernel fibers, and |G(o_r)| and |K^i| come
from dim G.

Memo policy: value-keyed builders (make_ring, build_group, and the Clifford
report of each built group) are memoized with functools.cache for the life of
the process; data derived from one group lives on that group; and a budget is
checked on every call, before any memo is consulted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import add, itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .localring import QuotientRing, RingSpec, make_ring
from .polynomials import RationalPoly

if TYPE_CHECKING:
    from .characters import CharacterTableModP

DEFAULT_BUDGET = 10**7


class _Pattern(NamedTuple):
    """The kind of entry on, above and below the diagonal, and whether det = 1.
    An "any" or "unit" entry moves: its residue is any element, resp. any unit,
    of F_q and its lifts add any element of the maximal ideal.  A "one" or
    "zero" entry is fixed."""

    diagonal: str
    above: str
    below: str
    det_one: bool = False


_PATTERNS = {
    "GL": _Pattern("any", "any", "any"),
    "SL": _Pattern("any", "any", "any", det_one=True),
    "U": _Pattern("one", "any", "zero"),
    "B": _Pattern("unit", "any", "zero"),
    "T": _Pattern("unit", "zero", "zero"),
}
_MOVING = ("any", "unit")


class BudgetExceededError(ValueError):
    def __init__(self, scheme, spec, predicted, budget):
        self.predicted = predicted
        super().__init__(
            f"|{scheme.family}{scheme.n}({spec.label()})| = {predicted} exceeds budget {budget}"
        )


class NotNormalError(ValueError):
    def __init__(self, conjugator: int, member: int):
        self.conjugator = conjugator
        self.member = member
        super().__init__(
            f"subgroup is not normal: witness conjugator ordinal {conjugator}"
        )


@dataclass(frozen=True)
class GroupScheme:
    """Matrix group scheme from the fixed menu, of size n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in _PATTERNS:
            raise ValueError(f"unknown scheme family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def label(self) -> str:
        return f"{self.family}{self.n}"

    @property
    def det_one(self) -> bool:
        return _PATTERNS[self.family].det_one

    def entries(self) -> list[str]:
        """The entry kind at each of the n*n positions, row by row."""
        diagonal, above, below, _ = _PATTERNS[self.family]
        n = self.n
        return [
            diagonal if i == j else above if i < j else below
            for i in range(n)
            for j in range(n)
        ]

    @property
    def dim(self) -> int:
        """dim G: the number of moving entries, less one for det = 1."""
        return sum(kind in _MOVING for kind in self.entries()) - self.det_one

    @classmethod
    def parse(cls, text: str) -> "GroupScheme":
        for fam in sorted(_PATTERNS, key=len, reverse=True):
            if text.upper().startswith(fam):
                return cls(fam, int(text[len(fam):]))
        raise ValueError(f"cannot parse scheme {text!r}")


def predicted_order(scheme: GroupScheme, spec: RingSpec) -> int:
    return int(scheme_order_poly(scheme, spec.r)(spec.q))


def check_budget(scheme: GroupScheme, spec: RingSpec, budget: int) -> int:
    """The predicted order; raises BudgetExceededError when it exceeds budget."""
    predicted = predicted_order(scheme, spec)
    if predicted > budget:
        raise BudgetExceededError(scheme, spec, predicted, budget)
    return predicted


def scheme_order_poly(scheme: GroupScheme, r: int) -> RationalPoly:
    """|G(o_r)| = |G(F_q)| q^((r-1) dim G) as an exact polynomial in q
    (kind-independent)."""
    x = RationalPoly.x()
    n = scheme.n
    residue = RationalPoly.one()
    if _PATTERNS[scheme.family].below == "any":
        for i in range(n):
            residue = residue * (x**n - x**i)
    else:
        # triangular: every pattern matrix has a unit determinant
        for kind in scheme.entries():
            residue = residue * {"any": x, "unit": x - 1}.get(kind, 1)
    if scheme.det_one:
        residue = residue.exact_div(x - 1)
    return residue * x ** ((r - 1) * scheme.dim)


# -- group protocol -------------------------------------------------------------


class FiniteGroup:
    """Shared machinery over (order, identity, mul, inv)."""

    order: int
    identity: int
    # derived data, filled in on first use by generators(), conjugacy_classes()
    # and character_table_modp()
    gens: list[int] | None = None
    classes: ConjugacyClassData | None = None
    modp_table: CharacterTableModP | None = None

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        raise NotImplementedError

    def mul_right(self, xs, b: int) -> list[int]:
        """[x*b for x in xs]; xs is a sequence of ordinals."""
        mul = self.mul
        return [mul(x, b) for x in xs]

    def mul_left(self, a: int, xs) -> list[int]:
        """[a*x for x in xs]; xs is a sequence of ordinals."""
        mul = self.mul
        return [mul(a, x) for x in xs]

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            n += 1
        return n

    def generators(self) -> list[int]:
        """Greedy generating set: first ordinals that strictly grow the closure."""
        if self.gens is not None:
            return self.gens
        gens: list[int] = []
        closure = bytearray(self.order)  # membership flags
        closure[self.identity] = 1
        size = 1
        for i in range(self.order):
            if closure[i]:
                continue
            gens.append(i)
            closure[i] = 1
            size += 1
            frontier = [i]
            while frontier:
                nxt = []
                for g in gens:
                    for y in self.mul_right(frontier, g) + self.mul_left(g, frontier):
                        if not closure[y]:
                            closure[y] = 1
                            nxt.append(y)
                size += len(nxt)
                frontier = nxt
            if size == self.order:
                break
        self.gens = gens
        return gens

    def is_abelian(self) -> bool:
        gens = self.generators()
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in gens
            for b in gens
        )

    def exponent(self) -> int:
        classes = conjugacy_classes(self)
        return math.lcm(*(self.element_order(r) for r in classes.representatives))


class FiniteMatrixGroup(FiniteGroup):
    """Fully enumerated matrix group over a quotient ring.

    mul_right and mul_left multiply a batch by one fixed factor through a
    table of that factor over the |R|^n vectors: row i of x*b is (row i of
    x)*b = b^T (row i of x), as the ring is commutative, and column j of a*x is
    a (column j of x).  A product is then n table lookups and one index
    lookup.  The tables are memoized here, at most |G| vector entries in all,
    so no table is built when |R|^n > |G|; past that the plain loop runs.
    """

    def __init__(self, scheme: GroupScheme, ring: QuotientRing, matrices):
        self.scheme = scheme
        self.ring = ring
        self.n = scheme.n
        self.elements = sorted(matrices)
        self.order = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.identity = self.index[_identity_matrix(ring, scheme.n)]
        self._inv_cache: dict[int, int] = {}
        n = self.n
        perm = [j * n + i for i in range(n) for j in range(n)]
        # itemgetter of a single index returns the bare entry, not a 1-tuple
        self._transpose = itemgetter(*perm) if n > 1 else tuple
        # fixed-factor tables, keyed by (left, factor): table[c] is the image of
        # the vector of code c, as the shared tuple vectors[code of the image]
        self._tables: dict[tuple[bool, int], list[tuple[int, ...]]] = {}
        self._table_entries = 0
        self._vectors: list[tuple[int, ...]] = []
        self._vector_code: dict[tuple[int, ...], int] = {}
        # left -> for each j, the code of column (left) or row j of every element
        self._codes: dict[bool, list[memoryview]] = {}

    def matrix(self, i: int):
        return self.elements[i]

    def mul(self, i: int, j: int) -> int:
        return self.index[_mat_mul(self.ring, self.n, self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        v = self._inv_cache.get(i)
        if v is None:
            v = self.index[_mat_inv(self.ring, self.n, self.elements[i])]
            self._inv_cache[i] = v
        return v

    def mul_right(self, xs, b: int) -> list[int]:
        out = self._by_table(xs, b, False)
        return super().mul_right(xs, b) if out is None else out

    def mul_left(self, a: int, xs) -> list[int]:
        out = self._by_table(xs, a, True)
        return super().mul_left(a, xs) if out is None else out

    def _by_table(self, xs, factor: int, left: bool) -> list[int] | None:
        """The products of xs by factor on the given side, or None when the
        memo has no room for its table."""
        table = self._table(factor, left)
        if table is None:
            return None
        parts = (map(table.__getitem__, map(codes.__getitem__, xs)) for codes in self._codes[left])
        mats = reduce(partial(map, add), parts)
        if left:
            # the columns of a*x, concatenated, are a*x transposed
            mats = map(self._transpose, mats)
        return list(map(self.index.__getitem__, mats))

    def _table(self, factor: int, left: bool) -> list[tuple[int, ...]] | None:
        """v -> factor v (left) or factor^T v, by the code of v; None when
        adding it would take the memo past |G| entries."""
        key = (left, factor)
        table = self._tables.get(key)
        if table is not None:
            return table
        ring, n = self.ring, self.n
        size = ring.size**n
        if self._table_entries + size > self.order:
            return None
        if not self._vectors:
            self._vectors = list(itertools.product(range(ring.size), repeat=n))
            self._vector_code = {v: c for c, v in enumerate(self._vectors)}
        vectors, code = self._vectors, self._vector_code
        if left not in self._codes:
            codes = [uint_buffer(self.order, size) for _ in range(n)]
            for x, m in enumerate(self.elements):
                for j, buf in enumerate(codes):
                    buf[x] = code[m[j::n] if left else m[j * n : j * n + n]]
            self._codes[left] = codes
        a = self.elements[factor]
        if not left:
            a = self._transpose(a)
        table = [vectors[code[_mat_vec(ring, n, a, v)]] for v in vectors]
        self._tables[key] = table
        self._table_entries += size
        return table


class SubgroupView(FiniteGroup):
    """Subgroup presented by sorted parent ordinals, with the parent's operations."""

    def __init__(self, parent: FiniteGroup, ordinals):
        self.parent = parent
        self.ordinals = tuple(sorted(ordinals))
        self.order = len(self.ordinals)
        self.local = {o: i for i, o in enumerate(self.ordinals)}
        self.identity = self.local[parent.identity]

    def mul(self, i: int, j: int) -> int:
        return self.local[self.parent.mul(self.ordinals[i], self.ordinals[j])]

    def inv(self, i: int) -> int:
        return self.local[self.parent.inv(self.ordinals[i])]


class QuotientGroup(FiniteGroup):
    """Group on the left cosets of a normal subgroup, numbered by least ordinal.

    label[x] is the coset of x and offset[x] the index j in the sorted kernel
    with x = reps[label[x]] * kernel[j].
    """

    offset: list[int] | None = None

    def __init__(self, parent: FiniteGroup, kernel_ordinals):
        kernel = sorted(kernel_ordinals)
        label = [-1] * parent.order
        offset = [-1] * parent.order
        reps: list[int] = []
        for x in range(parent.order):
            if label[x] >= 0:
                continue
            cid = len(reps)
            reps.append(x)
            for j, k in enumerate(kernel):
                y = parent.mul(x, k)
                label[y] = cid
                offset[y] = j
        self._bind(parent, kernel, label, reps)
        self.offset = offset
        if self.order * len(kernel) != parent.order:
            raise AssertionError(
                f"{self.order} cosets of {len(kernel)} elements in a group of order {parent.order}"
            )

    @classmethod
    def from_labels(cls, parent: FiniteGroup, kernel_ordinals, label, reps) -> "QuotientGroup":
        """The quotient of the subgroup {x : label[x] >= 0} by the kernel, its
        cosets already labelled and numbered, reps[c] the least member of c."""
        quo = cls.__new__(cls)
        quo._bind(parent, sorted(kernel_ordinals), label, reps)
        return quo

    def _bind(self, parent: FiniteGroup, kernel, label, reps) -> None:
        self.parent = parent
        self.kernel = tuple(kernel)
        self.label = label
        self.reps = reps
        self.order = len(reps)
        self.identity = label[parent.identity]

    def mul(self, i: int, j: int) -> int:
        return self.label[self.parent.mul(self.reps[i], self.reps[j])]

    def inv(self, i: int) -> int:
        return self.label[self.parent.inv(self.reps[i])]


# -- matrix arithmetic helpers ---------------------------------------------------


def _identity_matrix(ring: QuotientRing, n: int):
    return tuple(ring.one if i == j else ring.zero for i in range(n) for j in range(n))


def _mat_mul(ring: QuotientRing, n: int, a, b):
    if n == 2:
        m, s = ring.mul, ring.add
        return (
            s(m(a[0], b[0]), m(a[1], b[2])),
            s(m(a[0], b[1]), m(a[1], b[3])),
            s(m(a[2], b[0]), m(a[3], b[2])),
            s(m(a[2], b[1]), m(a[3], b[3])),
        )
    m, s = ring.mul, ring.add
    out = []
    for i in range(n):
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = s(acc, m(a[i * n + k], b[k * n + j]))
            out.append(acc)
    return tuple(out)


def uint_buffer(count: int, bound: int) -> memoryview:
    """count zeros in the narrowest unsigned buffer that holds values below
    bound; a list would hold an int object each, and an array import would
    cost every run its memory."""
    width = next(w for w in (1, 2, 4, 8) if bound <= 256**w)
    return memoryview(bytearray(width * count)).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[width])


def _mat_vec(ring: QuotientRing, n: int, a, v):
    m, s = ring.mul, ring.add
    return tuple(
        reduce(s, (m(a[i * n + k], v[k]) for k in range(n))) for i in range(n)
    )


def _mat_det(ring: QuotientRing, n: int, a) -> int:
    if n == 1:
        return a[0]
    if n == 2:
        return ring.sub(ring.mul(a[0], a[3]), ring.mul(a[1], a[2]))
    det = ring.zero
    for j in range(n):
        if a[j] == ring.zero:
            continue
        minor = tuple(
            a[r * n + c] for r in range(1, n) for c in range(n) if c != j
        )
        term = ring.mul(a[j], _mat_det(ring, n - 1, minor))
        det = ring.add(det, term) if j % 2 == 0 else ring.sub(det, term)
    return det


def _row0_cofactor(ring: QuotientRing, n: int, a, j: int) -> int:
    """The cofactor of entry (0, j): det of a with row 0 replaced by e_j."""
    return _mat_det(ring, n, tuple(ring.one if k == j else ring.zero for k in range(n)) + a[n:])


def _solve_det_one(ring: QuotientRing, n: int, a, j: int):
    """a with entry (0, j) replaced by the x that makes det = 1.  det is
    x C + D, with C the cofactor of (0, j), a unit, and D the det with that
    entry zero, so x = (1 - D) C^-1; x is congruent to the entry mod the
    maximal ideal when det a is."""
    rest = _mat_det(ring, n, a[:j] + (ring.zero,) + a[j + 1 :])
    x = ring.mul(ring.sub(ring.one, rest), ring.inv(_row0_cofactor(ring, n, a, j)))
    return a[:j] + (x,) + a[j + 1 :]


def _mat_inv(ring: QuotientRing, n: int, a):
    det = _mat_det(ring, n, a)
    dinv = ring.inv(det)
    if n == 1:
        return (dinv,)
    adj = []
    for i in range(n):
        for j in range(n):
            minor = tuple(
                a[r * n + c]
                for r in range(n)
                if r != j
                for c in range(n)
                if c != i
            )
            cof = _mat_det(ring, n - 1, minor)
            if (i + j) % 2:
                cof = ring.neg(cof)
            adj.append(ring.mul(cof, dinv))
    return tuple(adj)


# -- enumeration -----------------------------------------------------------------


def build_group(
    scheme: GroupScheme, spec: RingSpec, budget: int = DEFAULT_BUDGET
) -> FiniteMatrixGroup:
    """The enumerated group, built once per process; the budget is checked on
    every call, before the memo."""
    predicted = check_budget(scheme, spec, budget)
    group = _enumerate_group(scheme, spec)
    if group.order != predicted:
        raise AssertionError(f"enumerated {group.order} elements, predicted {predicted}")
    return group


@cache
def _enumerate_group(scheme: GroupScheme, spec: RingSpec) -> FiniteMatrixGroup:
    """G(F_q), the pattern's residue matrices with a unit determinant (det = 1
    for SL), each lifted by the coordinate section plus maximal-ideal tails at
    its moving entries; for SL, one moving entry of row 0 with a unit cofactor
    is not lifted but solved for from det = 1."""
    ring = make_ring(spec)
    residue = make_ring(spec.at_level(1))
    n = scheme.n
    entries = scheme.entries()
    units = list(residue.units())
    choices = {
        "any": range(residue.size), "unit": units, "one": [residue.one], "zero": [residue.zero]
    }
    dets = {residue.one} if scheme.det_one else set(units)
    mats = [
        m
        for m in itertools.product(*(choices[kind] for kind in entries))
        if _mat_det(residue, n, m) in dets
    ]
    if ring.r > 1:
        section = [ring.from_coords(coords) for coords in residue.elements]
        ideal = ring.maximal_ideal()
        add = ring.add
        lifts = []
        for m in mats:
            # det m = 1 in F_q, so by Laplace along row 0 some cofactor is a unit
            pivot = -1
            if scheme.det_one:
                pivot = next(
                    j for j in range(n)
                    if entries[j] in _MOVING and residue.is_unit(_row0_cofactor(residue, n, m, j))
                )
            tails = [
                ideal if kind in _MOVING and k != pivot else (ring.zero,)
                for k, kind in enumerate(entries)
            ]
            base = tuple(section[x] for x in m)
            for tail in itertools.product(*tails):
                lift = tuple(add(b, t) for b, t in zip(base, tail))
                lifts.append(lift if pivot < 0 else _solve_det_one(ring, n, lift, pivot))
        mats = lifts
    return FiniteMatrixGroup(scheme, ring, mats)


# -- conjugacy classes -------------------------------------------------------------


@dataclass
class ConjugacyClassData:
    """Conjugation orbits with deterministic ordering by least element ordinal."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.representatives)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassData:
    if group.classes is not None:
        return group.classes
    gens = group.generators()
    gen_invs = [group.inv(g) for g in gens]
    class_of = [-1] * group.order
    reps: list[int] = []
    sizes: list[int] = []
    for seed in range(group.order):
        if class_of[seed] >= 0:
            continue
        cid = len(reps)
        reps.append(seed)
        class_of[seed] = cid
        size = 1
        frontier = [seed]
        while frontier:
            nxt = []
            for g, gi in zip(gens, gen_invs):
                for y in group.mul_left(gi, group.mul_right(frontier, g)):
                    if class_of[y] < 0:
                        class_of[y] = cid
                        nxt.append(y)
            size += len(nxt)
            frontier = nxt
        sizes.append(size)
    inverse_class = tuple(class_of[group.inv(r)] for r in reps)
    data = ConjugacyClassData(tuple(class_of), tuple(reps), tuple(sizes), inverse_class)
    if sum(sizes) != group.order:
        raise AssertionError(f"class sizes sum to {sum(sizes)}, not |G|={group.order}")
    group.classes = data
    return data


def center(group: FiniteGroup) -> list[int]:
    members = list(range(group.order))
    for g in group.generators():
        right, left = group.mul_right(members, g), group.mul_left(g, members)
        members = [x for x, u, v in zip(members, right, left) if u == v]
    return members


def congruence_kernel(group: FiniteMatrixGroup, i: int) -> SubgroupView:
    """K^i = ker(G(o_r) -> G(o_i)), as an enumerated subgroup."""
    ring = group.ring
    if not 1 <= i <= ring.r:
        raise ValueError(f"congruence level must be in 1..{ring.r}")
    target, red = ring.reduce_to(i)
    n = group.n
    id_img = tuple(red[x] for x in _identity_matrix(ring, n))
    members = [
        k
        for k, m in enumerate(group.elements)
        if tuple(red[x] for x in m) == id_img
    ]
    view = SubgroupView(group, members)
    exponent = (ring.r - i) * group.scheme.dim
    if view.order != ring.q**exponent:
        raise AssertionError(f"kernel of order {view.order}, not q^{exponent}")
    return view


def require_normal(group: FiniteGroup, ordinals) -> None:
    """Raise NotNormalError, with a witness conjugator, unless conjugation by
    every generator of G maps the ordinals into themselves."""
    members = set(ordinals)
    for g in group.generators():
        conjugates = group.mul_left(group.inv(g), group.mul_right(ordinals, g))
        for x, y in zip(ordinals, conjugates):
            if y not in members:
                raise NotNormalError(g, x)


def quotient_group(group: FiniteGroup, normal) -> QuotientGroup:
    """Coset group; raises NotNormalError with a witness conjugator if not normal."""
    ordinals = normal.ordinals if isinstance(normal, SubgroupView) else tuple(sorted(normal))
    require_normal(group, ordinals)
    return QuotientGroup(group, ordinals)
