"""Finite matrix groups over quotient rings: enumeration, classes, kernels, quotients.

A matrix is a tuple of n*n ring-element ordinals, so group elements hash and
compare as flat int tuples.  Groups expose a small uniform protocol (order,
mul, inv, generators) that the character-theory code runs against; subgroups
and quotients implement the same protocol, which keeps Dixon-Schneider and
the Clifford pipeline oblivious to where a group came from.

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
from functools import cache
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
        closure = {self.identity}
        for i in range(self.order):
            if i in closure:
                continue
            gens.append(i)
            frontier = [i]
            while frontier:
                nxt = []
                for a in frontier:
                    if a in closure:
                        continue
                    closure.add(a)
                    for g in gens:
                        nxt.append(self.mul(a, g))
                        nxt.append(self.mul(g, a))
                frontier = nxt
            if len(closure) == self.order:
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
    """Fully enumerated matrix group over a quotient ring."""

    def __init__(self, scheme: GroupScheme, ring: QuotientRing, matrices):
        self.scheme = scheme
        self.ring = ring
        self.n = scheme.n
        self.elements = sorted(matrices)
        self.order = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.identity = self.index[_identity_matrix(ring, scheme.n)]
        self._inv_cache: dict[int, int] = {}

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
    its moving entries; SL is then filtered to det = 1 at level r."""
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
        tails = [ring.maximal_ideal() if kind in _MOVING else (ring.zero,) for kind in entries]
        add = ring.add
        lifts = []
        for m in mats:
            base = tuple(section[x] for x in m)
            for tail in itertools.product(*tails):
                lifts.append(tuple(add(b, t) for b, t in zip(base, tail)))
        mats = lifts
        if scheme.det_one:
            mats = [m for m in mats if _mat_det(ring, n, m) == ring.one]
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
        orbit = [seed]
        class_of[seed] = cid
        frontier = [seed]
        while frontier:
            nxt = []
            for x in frontier:
                for g, gi in zip(gens, gen_invs):
                    y = group.mul(gi, group.mul(x, g))
                    if class_of[y] < 0:
                        class_of[y] = cid
                        orbit.append(y)
                        nxt.append(y)
            frontier = nxt
        sizes.append(len(orbit))
    inverse_class = tuple(class_of[group.inv(r)] for r in reps)
    data = ConjugacyClassData(tuple(class_of), tuple(reps), tuple(sizes), inverse_class)
    if sum(sizes) != group.order:
        raise AssertionError(f"class sizes sum to {sum(sizes)}, not |G|={group.order}")
    group.classes = data
    return data


def center(group: FiniteGroup) -> list[int]:
    gens = group.generators()
    return [
        x
        for x in range(group.order)
        if all(group.mul(x, g) == group.mul(g, x) for g in gens)
    ]


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
        gi = group.inv(g)
        for x in ordinals:
            if group.mul(gi, group.mul(x, g)) not in members:
                raise NotNormalError(g, x)


def quotient_group(group: FiniteGroup, normal) -> QuotientGroup:
    """Coset group; raises NotNormalError with a witness conjugator if not normal."""
    ordinals = normal.ordinals if isinstance(normal, SubgroupView) else tuple(sorted(normal))
    require_normal(group, ordinals)
    return QuotientGroup(group, ordinals)
