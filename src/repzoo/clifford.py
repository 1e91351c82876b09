"""Character degrees through a normal abelian subgroup: orbits, stabilizers, induction.

Given N normal abelian in G, Irr(G) decomposes over G-orbits of the dual of N;
above an orbit with representative psi and stabilizer S, every irreducible is
induced from Irr(S | psi) and its dimension is [G:S] times the dimension of a
member of Irr(S | psi).  Irr(S | psi) itself is computed honestly (no cocycle
triviality assumed): all its members kill ker psi, so they live in the quotient
S/ker(psi), where the image of N is central and cyclic; they are exactly the
rows of that quotient's character table whose central character on N/ker(psi)
is faithful.

Everything runs through G/N.  The engine reads G only through its coset
coordinates (groups.CosetCoordinates): every element is x = s(c) k for a coset
c of N, a section s and k in N.  For an enumerated group the cosets are
labelled once (QuotientGroup, |G| products) and s(c) is the least member of c;
at r >= 2 the group is a CosetGroup, whose G/N is G(o_ceil(r/2)), so nothing
of size |G| is built.  N is abelian, so the coset s(c) N acts on the dual as
s(c) does: the action conjugates the basis of N by the |G/N| representatives
only.  The same loop proves N normal: if every s^{-1} b s lies in N, then
g = s m with m in N gives g^{-1} b g = m^{-1} (s^{-1} b s) m in N, and the basis
generates N.  A stabilizer is the union of the cosets whose representative
fixes psi, and Irr(G | 1) is Irr(G/N).

S/ker(psi) is the central extension of Stab(psi) < G/N by Z/M, M the order of
psi: its elements are the pairs (c, a), standing for the s(c) k with
psi(k) = a, and

    (c, a)(d, b) = (cd, a + b + psi(n(c, d))),  n(c, d) = s(cd)^{-1} s(c) s(d) in N,

as s(c) k s(d) k' = s(cd) n(c, d) k^{s(d)} k' and d fixes psi.  The cocycle
n(c, d) is read from the coset coordinates, memoized per pair, so no element
of S is listed and no walk over G is made.

A mod-ell character table determines each row only up to a Galois twist, so a
single faithful character cannot be matched against a single row.  Orbits are
therefore grouped into Galois-power classes (psi ~ psi^u, u coprime to exp N):
within a class, stabilizers and dimension data agree, the faithful rows
aggregate Irr(S | psi^u) over all phi(M) kernel-preserving twists, and dividing
the row multiset by phi(M) recovers the per-orbit dimension data exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .characters import DegreeMultiset, character_degrees, character_table_modp
from .groups import (
    CosetCoordinates,
    CosetGroup,
    FiniteGroup,
    NotNormalError,
    QuotientGroup,
    SubgroupView,
    congruence_kernel,
    conjugacy_classes,
)
from .intlinalg import smith_normal_form
from .localring import prime_power


class NotAbelianNormalError(ValueError):
    pass


# -- dual group of a finite abelian group -------------------------------------------


class DualGroup:
    """Characters of an abelian subgroup as exponent vectors over a computed basis.

    The basis realizes N as a direct product of cyclic groups (Smith normal form
    of the relation lattice of a greedy polycyclic generating sequence); the
    decomposition is verified by exhaustive re-enumeration on construction.
    The sequence is N's own greedy generators, which is_abelian has built: N is
    abelian, so <C, x> = C<x>, and a greedy closure of products would pick the
    same list.
    """

    def __init__(self, n_view: FiniteGroup):
        if not n_view.is_abelian():
            raise NotAbelianNormalError("DualGroup requires an abelian group")
        self.group = n_view
        self.order = n_view.order
        self.basis, self.orders = self._abelian_basis(n_view)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        self.dlog = self._build_dlog()
        self._weights = tuple(self.exponent // n for n in self.orders)

    @staticmethod
    def _abelian_basis(n_view: FiniteGroup):
        if n_view.order == 1:
            return (), ()
        # one word list grown over N's greedy generators g_i: the words so far
        # are <g_1, ..., g_(i-1)>, r_i is the first power of g_i among them, and
        # each word times g_i^e, e < r_i, is a new word
        gens = n_view.generators()
        words, rel_orders, powers = [n_view.identity], [], []
        for g in gens:
            members, power, r = set(words), g, 1
            while power not in members:
                power = n_view.mul(power, g)
                r += 1
            rel_orders.append(r)
            powers.append(power)
            words = _words(n_view, [g], [r], words)
        m = len(gens)
        # dlog in the polycyclic normal form (mixed radix over relative orders)
        dlog_pc = dict(zip(words, itertools.product(*[range(r) for r in rel_orders])))
        if len(dlog_pc) != n_view.order:
            raise AssertionError("polycyclic sequence does not reach all of N")
        # relation lattice columns: r_i e_i - dlog(g_i^{r_i})
        cols = []
        for i, (power, r) in enumerate(zip(powers, rel_orders)):
            col = [-x for x in dlog_pc[power]]
            col[i] += r
            cols.append(col)
        relmat = [[cols[c][rw] for c in range(m)] for rw in range(m)]
        _u, d, uinv = smith_normal_form(relmat)
        basis, orders = [], []
        for j in range(m):
            dj = d[j][j]
            if dj == 1:
                continue
            h = n_view.identity
            for i in range(m):
                h = n_view.mul(h, _power(n_view, gens[i], uinv[i][j]))
            basis.append(h)
            orders.append(dj)
        return tuple(basis), tuple(orders)

    def _build_dlog(self) -> dict[int, tuple[int, ...]]:
        dlog: dict[int, tuple[int, ...]] = {}
        exponents = itertools.product(*[range(n) for n in self.orders])
        for elem, exps in zip(_words(self.group, self.basis, self.orders), exponents):
            if elem in dlog:
                raise AssertionError("basis is not a direct decomposition")
            dlog[elem] = exps
        if len(dlog) != self.order:
            raise AssertionError("basis does not generate N")
        return dlog

    # -- characters -----------------------------------------------------------

    def characters(self):
        """All |N| characters as exponent tuples, lexicographic order."""
        return itertools.product(*[range(n) for n in self.orders])

    def phase_num(self, chi: tuple[int, ...], local_elem: int) -> int:
        """Character value as an exponent of exp(2 pi i / exponent)."""
        e = self.dlog[local_elem]
        return sum(a * c * w for a, c, w in zip(chi, e, self._weights)) % self.exponent

    def char_order(self, chi: tuple[int, ...]) -> int:
        return math.lcm(
            *(n // math.gcd(a, n) for a, n in zip(chi, self.orders))
        ) if self.orders else 1

    def power(self, chi: tuple[int, ...], u: int) -> tuple[int, ...]:
        return tuple(a * u % n for a, n in zip(chi, self.orders))


def _words(group: FiniteGroup, gens, orders, words=None) -> list[int]:
    """w g_1^e_1 ... g_m^e_m for every w in words (default: the identity) and
    every exponent vector e below orders, in the order of itertools.product:
    each word is its predecessor times one g_i, so the list takes one product
    per word."""
    words = words or [group.identity]
    for g, r in zip(gens, orders):
        longer = []
        for x in words:
            longer.append(x)
            for _ in range(r - 1):
                x = group.mul(x, g)
                longer.append(x)
        words = longer
    return words


def _power(group: FiniteGroup, x: int, e: int) -> int:
    if e < 0:
        x, e = group.inv(x), -e
    acc = group.identity
    base = x
    while e:
        if e & 1:
            acc = group.mul(acc, base)
        base = group.mul(base, base)
        e >>= 1
    return acc


# -- orbits and stabilizers -----------------------------------------------------------


@dataclass
class OrbitRecord:
    representative: tuple[int, ...]
    orbit: tuple[tuple[int, ...], ...]
    orbit_size: int
    stabilizer: tuple[int, ...]  # labels of the N-cosets in G/N whose union it is
    stabilizer_order: int


class _DualAction:
    """Conjugation action of G on the dual of N, through G/N: cosets bucketed by
    how their representative conjugates the basis of N.  A conjugate outside N
    raises NotNormalError; when there is none, N is normal (module docstring)."""

    def __init__(self, cosets: CosetCoordinates, dual: DualGroup):
        self.dual = dual
        buckets: dict[tuple, list[int]] = {}
        dlog = dual.dlog
        conjugate = cosets.conjugate
        for c in range(cosets.quotient.order):
            key = tuple(dlog[conjugate(c, b)] for b in dual.basis)
            buckets.setdefault(key, []).append(c)
        self.buckets = buckets

    def apply(self, key, chi):
        """(g.chi)(n) = chi(g^{-1} n g) in exponent coordinates."""
        dual = self.dual
        E = dual.exponent
        out = []
        for j, nj in enumerate(dual.orders):
            p = sum(a * c * w for a, c, w in zip(chi, key[j], dual._weights)) % E
            step = E // nj
            if p % step:
                raise AssertionError("dual action left the character lattice")
            out.append((p // step) % nj)
        return tuple(out)


def orbits_and_stabilizers(cosets: CosetCoordinates, dual: DualGroup) -> list[OrbitRecord]:
    """G-orbits on the dual of N with exact stabilizers, G acting through the
    coset coordinates of G over N; raises NotNormalError if N is not normal."""
    if cosets.kernel is not dual.group:
        raise ValueError("the cosets are not of the dual's group")
    action = _DualAction(cosets, dual)
    order = cosets.order
    n_order = dual.order
    identity = cosets.quotient.identity
    seen: set[tuple[int, ...]] = set()
    records = []
    stab_cache: dict[frozenset, tuple[int, ...]] = {}
    # characters() is lexicographic and orbits are disjoint, so the first unseen
    # character is the least member of its orbit: one pass over the buckets gives
    # the orbit and the buckets that fix its representative
    for rep in dual.characters():
        if rep in seen:
            continue
        images = {k: action.apply(k, rep) for k in action.buckets}
        orbit = sorted(set(images.values()))
        if orbit[0] != rep:
            raise AssertionError(f"{orbit[0]} precedes the orbit representative {rep}")
        seen.update(orbit)
        fixing = frozenset(k for k, image in images.items() if image == rep)
        stab = stab_cache.get(fixing)
        if stab is None:
            stab = tuple(sorted(c for k in fixing for c in action.buckets[k]))
            stab_cache[fixing] = stab
            # N is abelian, so it fixes every character of itself
            if identity not in stab:
                raise AssertionError("N does not fix a character of itself")
        rec = OrbitRecord(rep, tuple(orbit), len(orbit), stab, len(stab) * n_order)
        if rec.orbit_size * rec.stabilizer_order != order:
            raise AssertionError(
                f"orbit {rec.orbit_size} * stabilizer {rec.stabilizer_order} != |G| = {order}"
            )
        records.append(rec)
    records.sort(key=lambda r: r.representative)
    return records


# -- the Clifford pipeline ---------------------------------------------------------------


@dataclass
class OrbitDims:
    """Per-orbit slice of the report: dims are of Irr(Stab | psi), pre-induction."""

    representative: tuple[int, ...]
    orbit_size: int
    stabilizer_order: int
    dims: tuple[tuple[int, int], ...]  # (degree, multiplicity) in Irr(Stab | psi)
    extension_matches: bool | None

    @property
    def irr_count(self) -> int:
        return sum(m for _, m in self.dims)


@dataclass
class CliffordReport:
    degrees: DegreeMultiset
    orbits: tuple[OrbitDims, ...]


def _faithful_dims(
    s_bar: FiniteGroup, n_bar_labels: list[int], M: int
) -> tuple[tuple[tuple[int, int], ...], bool | None]:
    """Dims of Irr(S|psi) for one faithful psi on the central cyclic image of N.

    Returns (dims multiset, extension observable) where the observable compares
    the count against #Irr(Stab/N), the count a cocycle-free extension would give.
    """
    p, _ = prime_power(M)  # M divides exp(N), and N is a p-group
    phi_m = M - M // p
    if len(set(n_bar_labels)) != M:
        raise AssertionError(f"image of N has {len(set(n_bar_labels))} elements, not {M}")

    if s_bar.is_abelian():
        count = s_bar.order // M
        dims = ((1, count),)
        return dims, True

    classes = conjugacy_classes(s_bar)
    # the image of N must be central: singleton classes
    for nb in n_bar_labels:
        if classes.sizes[classes.class_of[nb]] != 1:
            raise AssertionError("image of N is not central in Stab/ker(psi)")
    # generator of the cyclic image
    gen = next(
        nb for nb in n_bar_labels if s_bar.element_order(nb) == M
    )
    gen_class = classes.class_of[gen]
    table = character_table_modp(s_bar)
    ell = table.ell

    def has_order_m(v: int) -> bool:
        if pow(v, M, ell) != 1:
            raise AssertionError("central character value of wrong order")
        return pow(v, M // p, ell) != 1

    faithful = [
        t for t in range(len(table.degrees)) if has_order_m(table.omega[t][gen_class])
    ]
    # Frobenius bookkeeping: sum of d^2 over rows above all faithful characters
    ssq = sum(table.degrees[t] ** 2 for t in faithful)
    if ssq != phi_m * (s_bar.order // M):
        raise AssertionError(
            f"faithful rows have sum of squares {ssq}, not {phi_m} * {s_bar.order} / {M}"
        )

    counts = sorted(Counter(table.degrees[t] for t in faithful).items())
    if any(c % phi_m for _, c in counts):
        raise AssertionError("faithful rows not balanced across twists")
    dims = tuple((d, c // phi_m) for d, c in counts)

    # extension observable: does the count match what a cocycle-free
    # extension of psi to the stabilizer would force?
    nq = QuotientGroup(s_bar, n_bar_labels)
    predicted = conjugacy_classes(nq).n_classes
    matches = sum(m for _, m in dims) == predicted
    return dims, matches


def _galois_classes(dual: DualGroup, records: list[OrbitRecord]) -> list[int]:
    """For each orbit, the least orbit index of its Galois-power class.

    G acts on the dual by automorphisms, so (g psi)^u = g (psi^u), and "some
    psi^u of orbit i's representative lies in orbit j" is an equivalence
    already: u = 1 makes it reflexive, u^-1 mod exp N symmetric and uv
    transitive.  The class of orbit i is the set of orbits of its
    representative's powers, with no union-find to close it."""
    chi_to_orbit = {chi: i for i, r in enumerate(records) for chi in r.orbit}
    E = dual.exponent
    units = [u for u in range(1, E + 1) if math.gcd(u, E) == 1]
    return [min(chi_to_orbit[dual.power(rec.representative, u)] for u in units) for rec in records]


class _CentralExtension(FiniteGroup):
    """S/ker(psi), psi of order M, as the central extension of Stab(psi) < G/N
    by Z/M of the module docstring: ordinal i M + a is the pair (c, a) for
    c = stab[i].  A batch of products by one fixed factor reads its cocycles
    from the coset coordinates in one call."""

    def __init__(self, cosets: CosetCoordinates, stab, psi: list[int], M: int):
        self.cosets = cosets
        self.stab = stab
        self.pos = [-1] * cosets.quotient.order
        for i, c in enumerate(stab):
            self.pos[c] = i
        self.psi = psi
        self.M = M
        self.order = len(stab) * M
        e = cosets.quotient.identity
        self.image_of_n = list(range(self.pos[e] * M, self.pos[e] * M + M))
        # (e, z) is the identity when z + psi(n(e, e)) = 0
        self.identity = self.pos[e] * M + -psi[self._cocycle(e, e)] % M

    def _cocycle(self, c: int, d: int) -> int:
        """The ordinal in N of n(c, d)."""
        return self.cosets.product(c, d) % self.cosets.kernel.order

    def mul(self, x: int, y: int) -> int:
        return self.mul_right([x], y)[0]

    def inv(self, x: int) -> int:
        M = self.M
        i, a = divmod(x, M)
        c = self.stab[i]
        ci = self.cosets.quotient.inv(c)
        # (c, a)(ci, b) = (e, a + b + psi(n(c, ci))) is the identity (e, z)
        z = self.identity % M
        return self.pos[ci] * M + (z - a - self.psi[self._cocycle(c, ci)]) % M

    def mul_right(self, xs, y: int) -> list[int]:
        """For each x = (c, a) and the coordinates cd |N| + j of s(c) s(d),
        y = (d, b): (cd, a + b + psi(k_j))."""
        M, stab, pos, psi, size = self.M, self.stab, self.pos, self.psi, self.cosets.kernel.order
        j, b = divmod(y, M)
        d = stab[j]
        products = self.cosets.products([stab[x // M] * self.cosets.quotient.order + d for x in xs])
        # x + b + psi = a + b + psi mod M
        return [pos[p // size] * M + (x + b + psi[p % size]) % M for x, p in zip(xs, products)]


def _dims_above(cosets: CosetCoordinates, dual: DualGroup, rec: OrbitRecord):
    """(dims of Irr(Stab | psi), extension observable) for psi = rec.representative."""
    M = dual.char_order(rec.representative)
    if M == 1:
        # trivial character: Irr(G | 1) = Irr(G/N)
        return character_degrees(cosets.quotient).entries, True
    step = dual.exponent // M
    psi = [dual.phase_num(rec.representative, j) // step for j in range(dual.order)]
    s_bar = _CentralExtension(cosets, rec.stabilizer, psi, M)
    return _faithful_dims(s_bar, s_bar.image_of_n, M)


def clifford_dimirr(group: FiniteGroup | CosetGroup, n_view: FiniteGroup) -> CliffordReport:
    """Assemble dimirr(G) orbit by orbit from the normal abelian p-subgroup N,
    a SubgroupView of G or the kernel of a CosetGroup; DualGroup checks that N
    is abelian, and the dual action that it is normal.  Only an enumerated
    group has a trivial N, which reads G itself."""
    if n_view.order == 1:
        # one orbit, the trivial character, fixed by G: Irr(G | 1) = Irr(G)
        dm = character_degrees(group)
        return CliffordReport(dm, (OrbitDims((), 1, group.order, dm.entries, True),))
    if prime_power(n_view.order) is None:
        raise NotAbelianNormalError("N must be a p-group")
    dual = DualGroup(n_view)
    cosets = group.coset_coordinates(n_view)
    try:
        records = orbits_and_stabilizers(cosets, dual)
    except NotNormalError as exc:
        raise NotAbelianNormalError("N is not normal in G") from exc
    # orbits in one Galois-power class share their dimension data
    class_dims: dict[int, tuple] = {}
    orbit_slices = []
    pairs = []
    for rec, c in zip(records, _galois_classes(dual, records)):
        if c not in class_dims:
            class_dims[c] = _dims_above(cosets, dual, records[c])
        dims, ext = class_dims[c]
        od = OrbitDims(rec.representative, rec.orbit_size, rec.stabilizer_order, dims, ext)
        orbit_slices.append(od)
        pairs.extend((d * od.orbit_size, m) for d, m in od.dims)
    degrees = DegreeMultiset.from_pairs(pairs)
    degrees.validate(group.order)
    if degrees.total_count != sum(od.irr_count for od in orbit_slices):
        raise AssertionError("orbit slices do not add up to the degree multiset")
    return CliffordReport(degrees, tuple(orbit_slices))


def default_normal_subgroup(group: FiniteGroup | CosetGroup) -> FiniteGroup:
    """The pipeline's N: abelian congruence kernel at level ceil(r/2), or the
    center for unipotent-type groups at level 1, or trivial.  group is a
    FiniteMatrixGroup or, at r >= 2 and dim G > 0, a CosetGroup, whose N is
    its kernel."""
    ring = group.ring
    if ring.r >= 2:
        return congruence_kernel(group, (ring.r + 1) // 2)
    split = prime_power(group.order)
    if split is not None and split[0] == ring.p:
        # Z(G) is the union of the classes of size 1
        classes = conjugacy_classes(group)
        return SubgroupView(group, [x for x, size in zip(classes.representatives, classes.sizes) if size == 1])
    return SubgroupView(group, [group.identity])
