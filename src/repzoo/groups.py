"""Finite matrix groups over quotient rings: enumeration, classes, kernels, quotients.

A matrix is written by its n*n ring-element ordinals, and an enumerated group
stores each element as one int key made of them (FiniteMatrixGroup).  Groups
expose a small uniform protocol (order,
mul, inv, generators, and the batched mul_right by one fixed factor)
that the character-theory code runs against; subgroups and quotients
implement the same protocol, which keeps Dixon-Schneider and the Clifford
pipeline oblivious to where a group came from.

Each family is one entry pattern (_PATTERNS) of a smooth group scheme, so
G(o_r) -> G(o_i) is onto with a kernel K^i of q^((r-i) dim G) elements: one
lift loop (_lifts) takes G(F_q) through the kernel fibers, and also builds
K^i itself, as the identity lifted through the p^i tails, with no scan of G.

At r >= 2 the Clifford engine never lists G(o_r).  A CosetGroup writes each
element as s(c) k over N = K^m, m = ceil(r/2): c runs over G/N = G(o_m), which
build_group enumerates, s is the coordinate section of the lift loop, and k
runs over N.  What is listed is G/N, N and, per orbit, one stabilizer
quotient of at most |G/N| exp N elements (clifford_size), and coset_group
checks its budget against that, not against |G|.

Memo policy: value-keyed builders (make_ring, build_group, coset_group, and
the Clifford report of each built group) are memoized with functools.cache
for the life of the process; data derived from one group lives on that group;
and a budget is checked on every call, before any memo is consulted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import add, and_, lshift, rshift
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
    def __init__(self, scheme, spec, predicted, budget, clifford=False):
        self.predicted = predicted
        group = f"{scheme.family}{scheme.n}({spec.label()})"
        what = (
            f"the Clifford engine on {group} lists G/N, N and stabilizer quotients of up to {predicted} elements, which"
            if clifford else f"|{group}| = {predicted}"
        )
        super().__init__(f"{what} exceeds budget {budget}")


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
            if text.upper().startswith(fam) and text[len(fam):].isdecimal():
                return cls(fam, int(text[len(fam):]))
        raise ValueError(f"cannot parse scheme {text!r}")


def predicted_order(scheme: GroupScheme, spec: RingSpec) -> int:
    return int(scheme_order_poly(scheme, spec.r)(spec.q))


def check_budget(scheme: GroupScheme, spec: RingSpec, budget: int, clifford: bool = False) -> int:
    """The predicted order; raises BudgetExceededError when it exceeds budget,
    or, for the Clifford engine, when clifford_size does."""
    predicted = predicted_order(scheme, spec)
    if clifford:
        size = clifford_size(scheme, spec)
        if size > budget:
            raise BudgetExceededError(scheme, spec, size, budget, clifford=True)
    elif predicted > budget:
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
    # right_products[t][x] = x gens[t], and tree = (parent, via, reach): each
    # y != identity was first reached as parent[y] gens[via[y]], in reach order
    right_products: list[memoryview] | None = None
    tree: tuple[memoryview, bytearray, memoryview] | None = None
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

    def drop_tables(self) -> None:
        """Free whatever mul_right keeps for its batches."""

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            n += 1
        return n

    def generators(self) -> list[int]:
        """Greedy generating set: the first ordinals that strictly grow the
        closure.

        The closure grows over the right Cayley graph: when g joins, every old
        member times g, then every new member times every generator, until
        nothing new appears.  That closure is <gens>, as a two-sided one is, so
        the list is the same, and x g is made exactly once for each element x
        and generator g.  The products, one buffer per generator, and the
        closure's Schreier tree are kept for conjugacy_classes (a generator at
        least doubles the closure, so via fits in a byte), and the tables they
        were made with are dropped."""
        if self.gens is not None:
            return self.gens
        gens: list[int] = []
        products: list[memoryview] = []
        closure = bytearray(self.order)  # membership flags
        closure[self.identity] = 1
        members = [self.identity]
        parent, via = uint_buffer(self.order, self.order), bytearray(self.order)
        for i in range(self.order):
            if closure[i]:
                continue
            gens.append(i)
            products.append(uint_buffer(self.order, self.order))
            # old members times the new generator, then new members times all
            frontier, steps = members, [len(gens) - 1]
            while frontier:
                nxt = []
                for t in steps:
                    row = products[t]
                    for x, y in zip(frontier, self.mul_right(frontier, gens[t])):
                        row[x] = y
                        if not closure[y]:
                            closure[y] = 1
                            parent[y], via[y] = x, t
                            nxt.append(y)
                members.extend(nxt)
                frontier, steps = nxt, range(len(gens))
            if len(members) == self.order:
                break
        self.gens = gens
        self.right_products = products
        self.tree = parent, via, uint_buffer(self.order, self.order, members)
        self.drop_tables()
        return gens

    def is_abelian(self) -> bool:
        gens = self.generators()
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in gens
            for b in gens
        )

    def coset_coordinates(self, kernel: SubgroupView) -> CosetCoordinates:
        """G over the normal subgroup kernel, a SubgroupView of G."""
        return LabelledCosets(self, kernel)


class FiniteMatrixGroup(FiniteGroup):
    """Fully enumerated matrix group over a quotient ring.

    Each element is stored as one int, its key: the n*n entry ordinals, row by
    row, as the big-endian digits of a number in base 256^w, w the bytes an
    entry needs (one up to 256 ring elements).  Keys sort as the entry tuples
    do, so ordinal i is the i-th matrix in tuple order.  index maps a key to
    its ordinal and matrix(i) decodes one.  With one-byte entries a key is
    encoded and decoded by one int.from_bytes or int.to_bytes call, and mul
    reads the ring's tables directly (_mat_mul), which offsets most of what
    the codec costs a single product.

    mul_right multiplies a batch by one fixed factor through a table of that
    factor over the |R|^n vectors: row i of x*b is (row i of x)*b =
    b^T (row i of x), as the ring is commutative.  Every element carries the
    code of each of its rows, its place in the product order of R^n, and the
    table gives, for each row and each code, the image vector's share of the
    product's key.  A product is then n code reads, n table reads, one
    integer sum and one int-keyed index lookup, with no tuple built.  A table
    has n|R|^n entries and at most 2|G| are held, so at most
    floor(2|G| / (n|R|^n)) tables, and none when an entry needs more than one
    byte; past that the plain loop runs.  generators and character_table_modp
    drop the tables when they store their result, and the codes stay for the
    life of the group.
    """

    def __init__(self, scheme: GroupScheme, ring: QuotientRing, matrices):
        self.scheme = scheme
        self.ring = ring
        self.n = n = scheme.n
        self._entry_bytes = ((ring.size - 1).bit_length() + 7) // 8
        self._key_bytes = self._entry_bytes * n * n
        self.keys = sorted(map(self.key, matrices))
        self.order = len(self.keys)
        self.index = dict(zip(self.keys, range(self.order)))
        self.identity = self.ordinal(_identity_matrix(ring, n))
        self._inv_cache: dict[int, int] = {}
        # fixed-factor tables, keyed by factor: table[j][c] is the share of the
        # key of the product from row j of code c; n |R|^n entries each and at
        # most 2|G| in all
        self._tables: dict[int, list[list[int]]] = {}
        self._table_room = 2 * self.order // (n * ring.size**n) if self._entry_bytes == 1 else 0
        # for each j, the code of row j of every element
        self._codes: list[memoryview] = []

    def key(self, mat) -> int:
        """The key of a matrix given by its n*n entry ordinals."""
        w = self._entry_bytes
        if w == 1:
            return int.from_bytes(mat, "big")
        return int.from_bytes(b"".join(e.to_bytes(w, "big") for e in mat), "big")

    def ordinal(self, mat) -> int:
        return self.index[self.key(mat)]

    def _entries(self, key: int):
        """The n*n entry ordinals of key, as bytes when each fits in one."""
        raw = key.to_bytes(self._key_bytes, "big")
        w = self._entry_bytes
        if w == 1:
            return raw
        return tuple(int.from_bytes(raw[p : p + w], "big") for p in range(0, len(raw), w))

    def matrix(self, i: int) -> tuple[int, ...]:
        return tuple(self._entries(self.keys[i]))

    def mul(self, i: int, j: int) -> int:
        keys, size = self.keys, self._key_bytes
        if self._entry_bytes == 1:
            # key and _entries inlined: a method call costs about what the lookups do
            a, b = keys[i].to_bytes(size, "big"), keys[j].to_bytes(size, "big")
            return self.index[int.from_bytes(_mat_mul(self.ring, self.n, a, b), "big")]
        return self.ordinal(_mat_mul(self.ring, self.n, self._entries(keys[i]), self._entries(keys[j])))

    def inv(self, i: int) -> int:
        v = self._inv_cache.get(i)
        if v is None:
            v = self._inv_cache[i] = self.ordinal(_mat_inv(self.ring, self.n, self._entries(self.keys[i])))
        return v

    def mul_right(self, xs, b: int) -> list[int]:
        table = self._table(b)
        if table is None:
            return super().mul_right(xs, b)
        parts = (
            map(shares.__getitem__, map(codes.__getitem__, xs))
            for shares, codes in zip(table, self._codes)
        )
        return list(map(self.index.__getitem__, reduce(partial(map, add), parts)))

    def drop_tables(self) -> None:
        # the codes stay: the next batch reads the same ones
        self._tables.clear()

    def _table(self, factor: int) -> list[list[int]] | None:
        """For each j, code of v -> the share of the key of factor^T v placed
        as row j; None when the memo is full.  Tables are made only for
        one-byte entries, so the ring has at most _TABLE_LIMIT elements and
        its own tables, which _mat_vecs reads."""
        table = self._tables.get(factor)
        if table is not None or len(self._tables) >= self._table_room:
            return table
        ring, n = self.ring, self.n
        # the pattern of a vector v puts entry t at bit 8 (n - 1 - t); shifted
        # by shifts[j], it is v's share of a key as its row j
        shifts = [8 * n * (n - 1 - j) for j in range(n)]
        weights = [8 * (n - 1 - t) for t in range(n)]
        if not self._codes:
            # the code of row j of x: its vector's place in the product order
            # of R^n, from x's key shifted by shifts[j] and masked to that vector
            vectors = itertools.product(range(ring.size), repeat=n)
            code = {sum(map(lshift, v, weights)): c for c, v in enumerate(vectors)}
            mask = sum(map(lshift, [255] * n, weights))
            self._codes = [
                uint_buffer(self.order, len(code), map(
                    code.__getitem__, map(and_, map(rshift, self.keys, itertools.repeat(s)), itertools.repeat(mask))
                ))
                for s in shifts
            ]
        # the rows of b^T are the columns of b
        a = self._entries(self.keys[factor])
        a = b"".join(a[j::n] for j in range(n))
        entries = _mat_vecs(ring, n, a)
        images = list(map(sum, zip(*([x << w for x in row] for row, w in zip(entries, weights)))))
        table = [[image << s for image in images] for s in shifts]
        self._tables[factor] = table
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

    def mul_right(self, xs, b: int) -> list[int]:
        ordinals = self.ordinals
        products = self.parent.mul_right(list(map(ordinals.__getitem__, xs)), ordinals[b])
        return list(map(self.local.__getitem__, products))

    def drop_tables(self) -> None:
        self.parent.drop_tables()


class QuotientGroup(FiniteGroup):
    """Group on the left cosets of a normal subgroup, numbered by least ordinal.

    label[x] is the coset of x and offset[x] the index j in the sorted kernel
    with x = reps[label[x]] * kernel[j].
    """

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
        self.parent = parent
        self.kernel = tuple(kernel)
        self.label = label
        self.offset = offset
        self.reps = reps
        self.order = len(reps)
        self.identity = label[parent.identity]
        if self.order * len(kernel) != parent.order:
            raise AssertionError(
                f"{self.order} cosets of {len(kernel)} elements in a group of order {parent.order}"
            )

    def mul(self, i: int, j: int) -> int:
        return self.label[self.parent.mul(self.reps[i], self.reps[j])]

    def inv(self, i: int) -> int:
        return self.label[self.parent.inv(self.reps[i])]


# -- coset coordinates -------------------------------------------------------------


class CosetCoordinates:
    """G written over a normal subgroup N as x = s(c) k_j, for c in G/N, a
    section s: G/N -> G and k_j in N; c |N| + j are the coordinates of x.  The
    Clifford engine reads G only through

    quotient         G/N, a FiniteGroup on the coset labels c;
    kernel           N, a FiniteGroup on its own ordinals j;
    order            |G|;
    conjugate(c, j)  the j' with s(c)^-1 k_j s(c) = k_j', raising
                     NotNormalError when that conjugate is not in N;
    product(c, d)    the coordinates cd |N| + j of s(c) s(d) = s(cd) k_j, so
                     k_j is the cocycle n(c, d) = s(cd)^-1 s(c) s(d);
                     memoized per pair; products(keys) is the batch, by the
                     keys c |G/N| + d.
    """

    def __init__(self, quotient: FiniteGroup, kernel: FiniteGroup, order: int):
        self.quotient = quotient
        self.kernel = kernel
        self.order = order
        self._products: dict[int, int] = {}

    def conjugate(self, c: int, j: int) -> int:
        raise NotImplementedError

    def _product(self, c: int, d: int) -> int:
        raise NotImplementedError

    def product(self, c: int, d: int) -> int:
        return self.products([c * self.quotient.order + d])[0]

    def products(self, keys) -> list[int]:
        """product(c, d) for each key c |G/N| + d."""
        memo = self._products
        out = list(map(memo.get, keys))
        if None in out:
            size = self.quotient.order
            for i, key in enumerate(keys):
                if out[i] is None:
                    x = memo.get(key)
                    if x is None:
                        x = memo[key] = self._product(*divmod(key, size))
                    out[i] = x
        return out


class LabelledCosets(CosetCoordinates):
    """The coset coordinates of an enumerated group over a SubgroupView N: its
    QuotientGroup labels the cosets with |G| products, s(c) is the least member
    of coset c, and the offsets read off every kernel part."""

    def __init__(self, group: FiniteGroup, kernel: SubgroupView):
        super().__init__(QuotientGroup(group, kernel.ordinals), kernel, group.order)
        self.group = group

    def conjugate(self, c: int, j: int) -> int:
        g = self.group
        t, b = self.quotient.reps[c], self.kernel.ordinals[j]
        k = self.kernel.local.get(g.mul(g.inv(t), g.mul(b, t)))
        if k is None:
            raise NotNormalError(t, b)
        return k

    def _product(self, c: int, d: int) -> int:
        quotient = self.quotient
        x = self.group.mul(quotient.reps[c], quotient.reps[d])
        return quotient.label[x] * self.kernel.order + quotient.offset[x]


class CosetGroup(CosetCoordinates):
    """The coset coordinates of G(o_r), r >= 2, dim G > 0, over N = K^m,
    m = ceil(r/2), with no element list.

    The coordinates c |N| + j stand for s(c) k_j: c is an element of
    G/N = G(o_m), which build_group enumerates; s is the coordinate section of
    _lifts; and k_j is the j-th matrix of N, lifted from the identity through
    the p^m tails (_kernel_matrices), sorted as in the enumerated group.
    """

    def __init__(self, scheme: GroupScheme, ring: QuotientRing, quotient: FiniteMatrixGroup):
        self.scheme = scheme
        self.ring = ring
        self.n = scheme.n
        self.level = quotient.ring.r
        kernel = FiniteMatrixGroup(scheme, ring, _kernel_matrices(scheme, ring, self.level))
        _check_kernel_order(kernel, scheme, ring, self.level)
        super().__init__(quotient, kernel, quotient.order * kernel.order)
        self.section = list(
            _lifts(scheme, ring, _sections(ring, quotient.ring, map(quotient.matrix, range(quotient.order))), (ring.zero,))
        )
        self._section_inv: list[tuple[int, ...] | None] = [None] * quotient.order
        self._reduce = ring.reduce_to(self.level)[1]

    def coset_coordinates(self, kernel: FiniteGroup) -> CosetCoordinates:
        if kernel is not self.kernel:
            raise ValueError("a coset group has coordinates over its own kernel only")
        return self

    def ordinal(self, mat) -> int:
        """The coordinates of a matrix of G."""
        c = self.quotient.ordinal(map(self._reduce.__getitem__, mat))
        return c * self.kernel.order + self.kernel.ordinal(self._times_inverse(c, mat))

    def _times_inverse(self, c: int, mat):
        """s(c)^-1 mat."""
        inv = self._section_inv[c]
        if inv is None:
            inv = self._section_inv[c] = _mat_inv(self.ring, self.n, self.section[c])
        return _mat_mul(self.ring, self.n, inv, mat)

    def conjugate(self, c: int, j: int) -> int:
        ring, n, kernel = self.ring, self.n, self.kernel
        k = kernel.index.get(kernel.key(self._times_inverse(c, _mat_mul(ring, n, kernel.matrix(j), self.section[c]))))
        if k is None:
            raise NotNormalError(c * kernel.order, self.quotient.identity * kernel.order + j)
        return k

    def _product(self, c: int, d: int) -> int:
        return self.ordinal(_mat_mul(self.ring, self.n, self.section[c], self.section[d]))


# -- matrix arithmetic helpers ---------------------------------------------------


def _identity_matrix(ring: QuotientRing, n: int):
    return tuple(ring.one if i == j else ring.zero for i in range(n) for j in range(n))


def _mat_mul(ring: QuotientRing, n: int, a, b):
    mt, at = ring.mul_table, ring.add_table
    if mt is None:
        m, s = ring.mul, ring.add
        return tuple(
            reduce(s, (m(a[i * n + k], b[k * n + j]) for k in range(n)))
            for i in range(n)
            for j in range(n)
        )
    # the ring's tables, read directly: a method call costs more than the lookup
    if n == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        m0, m1, m2, m3 = mt[a0], mt[a1], mt[a2], mt[a3]
        return (
            at[m0[b0]][m1[b2]],
            at[m0[b1]][m1[b3]],
            at[m2[b0]][m3[b2]],
            at[m2[b1]][m3[b3]],
        )
    out = []
    for i in range(n):
        row = [mt[x] for x in a[i * n : i * n + n]]
        for j in range(n):
            acc = row[0][b[j]]
            for k in range(1, n):
                acc = at[acc][row[k][b[k * n + j]]]
            out.append(acc)
    return tuple(out)


def uint_buffer(count: int, bound: int, values=None) -> memoryview:
    """count zeros, or the count given values, in the narrowest unsigned
    buffer that holds values below bound; a list would hold an int object
    each, and an array import would cost every run its memory."""
    width = next(w for w in (1, 2, 4, 8) if bound <= 256**w)
    if values is not None and width == 1:
        buf = memoryview(bytearray(values))  # filled in C, with no list built
    else:
        buf = memoryview(bytearray(width * count)).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[width])
        for x, value in enumerate(values or ()):
            buf[x] = value
    if len(buf) != count:
        raise ValueError(f"{len(buf)} values, not {count}")
    return buf


def _mat_vecs(ring: QuotientRing, n: int, a) -> list[list[int]]:
    """rows[i][c] = entry i of a v for the c-th v of R^n in the order of
    itertools.product, read off the ring's tables, which every ring of at
    most _TABLE_LIMIT elements has.  Row i is built one coordinate of v at a
    time: its values on the vectors of the first k coordinates, each plus
    a[i][k] times every ring element, give those on the first k + 1."""
    mt, at = ring.mul_table, ring.add_table
    rows = []
    for i in range(0, n * n, n):
        row = mt[a[i]]
        for k in range(i + 1, i + n):
            products = mt[a[k]]
            row = [at[x][y] for x in row for y in products]
        rows.append(row)
    return rows


def _mat_det(ring: QuotientRing, n: int, a) -> int:
    if n == 1:
        return a[0]
    mt, at = ring.mul_table, ring.add_table
    if n == 2:
        if mt is not None:
            return at[mt[a[0]][a[3]]][ring.neg(mt[a[1]][a[2]])]
        return ring.sub(ring.mul(a[0], a[3]), ring.mul(a[1], a[2]))
    if n == 3 and mt is not None:
        # the rule of Sarrus, read off the ring's tables
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        plus = at[at[mt[mt[a0][a4]][a8]][mt[mt[a1][a5]][a6]]][mt[mt[a2][a3]][a7]]
        minus = at[at[mt[mt[a2][a4]][a6]][mt[mt[a0][a5]][a7]]][mt[mt[a1][a3]][a8]]
        return at[plus][ring.neg(minus)]
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
    if n == 2:
        neg, mul = ring.neg, ring.mul
        return (mul(a[3], dinv), mul(neg(a[1]), dinv), mul(neg(a[2]), dinv), mul(a[0], dinv))
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
    for SL), each lifted through maximal-ideal tails (_lifts)."""
    ring = make_ring(spec)
    residue = make_ring(spec.at_level(1))
    n = scheme.n
    units = list(residue.units())
    choices = {
        "any": range(residue.size), "unit": units, "one": [residue.one], "zero": [residue.zero]
    }
    dets = {residue.one} if scheme.det_one else set(units)
    mats = [
        m
        for m in itertools.product(*(choices[kind] for kind in scheme.entries()))
        if _mat_det(residue, n, m) in dets
    ]
    if ring.r > 1:
        mats = list(_lifts(scheme, ring, _sections(ring, residue, mats), ring.maximal_ideal()))
    return FiniteMatrixGroup(scheme, ring, mats)


def _sections(ring: QuotientRing, lower: QuotientRing, mats) -> list[tuple[int, ...]]:
    """Matrices over the lower-level ring lifted to ring entry by entry, each
    entry by its own coordinates (the coordinate section of reduce_to)."""
    lift = [ring.from_coords(coords) for coords in lower.elements]
    return [tuple(map(lift.__getitem__, m)) for m in mats]


def _lifts(scheme: GroupScheme, ring: QuotientRing, bases, tail):
    """Each base matrix plus every choice of tail entries at its moving entries.
    For SL, one moving entry of row 0 with a unit cofactor takes no tail but is
    solved for from det = 1, so every lift of a base with det = 1 mod the tails
    has det 1; with tail (0,) this is the coordinate section s."""
    n = scheme.n
    entries = scheme.entries()
    add = ring.add
    for base in bases:
        # det = 1 mod the maximal ideal, so by Laplace along row 0 some cofactor is a unit
        pivot = -1
        if scheme.det_one:
            pivot = next(
                j for j in range(n)
                if entries[j] in _MOVING and ring.is_unit(_row0_cofactor(ring, n, base, j))
            )
        tails = [
            tail if kind in _MOVING and k != pivot else (ring.zero,)
            for k, kind in enumerate(entries)
        ]
        for t in itertools.product(*tails):
            lift = tuple(map(add, base, t))
            yield lift if pivot < 0 else _solve_det_one(ring, n, lift, pivot)


def _kernel_matrices(scheme: GroupScheme, ring: QuotientRing, i: int) -> list[tuple[int, ...]]:
    """K^i = ker(G(o_r) -> G(o_i)): the identity lifted through the tails in
    the ideal p^i, with no element of G listed."""
    target, red = ring.reduce_to(i)
    tail = [x for x in range(ring.size) if red[x] == target.zero]
    return list(_lifts(scheme, ring, [_identity_matrix(ring, scheme.n)], tail))


def _check_kernel_order(kernel: FiniteGroup, scheme: GroupScheme, ring: QuotientRing, i: int) -> None:
    """|K^i| = q^((r - i) dim G), for K^i as built from _kernel_matrices."""
    exponent = (ring.r - i) * scheme.dim
    if kernel.order != ring.q**exponent:
        raise AssertionError(f"kernel of order {kernel.order}, not q^{exponent}")


def clifford_size(scheme: GroupScheme, spec: RingSpec) -> int:
    """The most elements the Clifford engine lists for G(o_r).  At r >= 2 it
    works over N = K^m, m = ceil(r/2), and lists G/N = G(o_m), N, and each
    S/ker psi, of order |Stab(psi)| M <= |G/N| exp N; at r = 1, and for
    dim G = 0, G itself, which build_group lists."""
    r = spec.r
    if r == 1 or not scheme.dim:
        return predicted_order(scheme, spec)
    m = (r + 1) // 2
    # N = 1 + p^m X is additive in X (2m >= r), so exp N divides the
    # additive order of 1 in o_(r-m), read off the spec with no ring built
    exponent = spec.at_level(r - m).additive_order_of_one()
    return max(predicted_order(scheme, spec.at_level(m)) * exponent, spec.q ** ((r - m) * scheme.dim))


def coset_group(scheme: GroupScheme, spec: RingSpec, budget: int = DEFAULT_BUDGET) -> "CosetGroup":
    """G(o_r), r >= 2, in coset coordinates over K^ceil(r/2), built once per
    process; the budget bounds clifford_size and is checked on every call,
    before the memo.  A scheme of dimension 0 has one element at every level,
    so its N is trivial and it has no coordinates over N to write."""
    if spec.r < 2 or scheme.dim == 0:
        raise ValueError("coset coordinates need level r >= 2 and dim G > 0")
    check_budget(scheme, spec, budget, clifford=True)
    return _coset_group(scheme, spec)


@cache
def _coset_group(scheme: GroupScheme, spec: RingSpec) -> "CosetGroup":
    # |G/N| <= clifford_size, which the caller checked against its budget
    quotient = build_group(scheme, spec.at_level((spec.r + 1) // 2), clifford_size(scheme, spec))
    return CosetGroup(scheme, make_ring(spec), quotient)


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
    """The orbits of conjugation by the generators, each seeded from its least
    ordinal, read off the right products and closure tree of generators(),
    which are then dropped, with no group operation: y = parent[y] s for
    s = gens[via[y]], so a y = (a parent[y]) s is one lookup, in reach order
    from a e = a.  For a = g^-1, the last power of g before e, that gives
    g^-1 y g, and y^-1 = s^-1 parent[y]^-1 gives the inverse classes."""
    if group.classes is not None:
        return group.classes
    group.generators()
    products, (parent, via, reach) = group.right_products, group.tree
    group.right_products = group.tree = None
    order, e = group.order, group.identity
    conjugates = []  # g^-1 y, then g^-1 y g, filled in place
    for xg in products:
        images = uint_buffer(order, order)
        images[e] = e  # walked up to g^-1, the last power of g before e
        while xg[images[e]] != e:
            images[e] = xg[images[e]]
        for y in reach[1:]:
            images[y] = products[via[y]][images[parent[y]]]
        conjugates.append(images)
    inverse = uint_buffer(order, order)
    inverse[e] = e
    for y in reach[1:]:
        inverse[y] = conjugates[via[y]][inverse[parent[y]]]
    for images, xg in zip(conjugates, products):
        for y, ay in enumerate(images):
            images[y] = xg[ay]
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
            for images in conjugates:
                for y in map(images.__getitem__, frontier):
                    if class_of[y] < 0:
                        class_of[y] = cid
                        nxt.append(y)
            size += len(nxt)
            frontier = nxt
        sizes.append(size)
    inverse_class = tuple(class_of[inverse[r]] for r in reps)
    data = ConjugacyClassData(tuple(class_of), tuple(reps), tuple(sizes), inverse_class)
    if sum(sizes) != group.order:
        raise AssertionError(f"class sizes sum to {sum(sizes)}, not |G|={group.order}")
    group.classes = data
    return data


def congruence_kernel(group: FiniteGroup | CosetGroup, i: int) -> FiniteGroup:
    """K^i = ker(G(o_r) -> G(o_i)), built from the pattern (_kernel_matrices)
    with no scan of G: a SubgroupView of an enumerated group, and the kernel
    itself of a coset group over K^i."""
    if isinstance(group, CosetGroup):
        if i != group.level:
            raise ValueError(f"this coset group is over K^{group.level} only")
        return group.kernel
    ring = group.ring
    if not 1 <= i <= ring.r:
        raise ValueError(f"congruence level must be in 1..{ring.r}")
    view = SubgroupView(group, map(group.ordinal, _kernel_matrices(group.scheme, ring, i)))
    _check_kernel_order(view, group.scheme, ring, i)
    return view

