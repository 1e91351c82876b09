"""Exact irreducible character degrees via class algebras mod a large prime.

The degree multiset of Irr(G) is computed from the class-multiplication-
coefficient matrices: their simultaneous eigenvectors over Z/ell (ell prime,
ell = 1 mod exp(G), ell > 2 sqrt(|G|)) recover the algebra homomorphisms
omega_t, from which the squared degrees follow mod ell by the column
orthogonality relation; each degree is read from the divisors of |G|.
Following Schneider ("Dixon's character table algorithm revisited", J. Symb.
Comp. 1990), each class matrix is kept sparse, as the nonzero entries of its
columns, and is applied to a subspace basis by summing the columns its
nonzero coordinates select.  The center is read through one class
permutation P_z: C_t -> zC_t for one central element z, from one batch of k
products.  Only the leader column of each <z>-orbit of classes is counted;
the others are that column with its rows relabelled by P_z.  Only one of
each pair of inverse classes j, j* is counted: |C_t| M_j[s][t] =
|C_s| M_j*[t][s], so M_j* is M_j transposed and rescaled by class sizes.
Only one class of each <z>-orbit {z^i C_j} gives an operator, as M_{z^i C_j}
is mu^i M_j, with the eigenspaces of M_j, on the block where z acts as mu.
The split starts from the central-character blocks, the eigenspaces of P_z,
and runs in block coordinates, one per <z>-orbit of classes: each class
matrix is checked to commute with P_z, which makes it keep every block, and
is condensed onto each block from its orbit-leader columns, so vectors have
the length of a block, not of the class count.  The eigenvalues are found by
equal-degree splitting of the squarefree part of the characteristic
polynomial (Cantor-Zassenhaus, Math. Comp. 1981).  Everything is integer
arithmetic; the structural identities (sum of squares, class count,
divisibility) are checked on every output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt, lcm

from .groups import ConjugacyClassData, FiniteGroup, conjugacy_classes, uint_buffer
from .intlinalg import identity_matrix, nullspace, rref
from .localring import fp_div, fp_gcd, fp_powmod, fp_sub, fp_trim, is_prime


class ModulusSearchError(RuntimeError):
    """No usable prime ell below 10^7."""


@dataclass(frozen=True)
class DegreeMultiset:
    """Sorted (degree, multiplicity) pairs for Irr(G)."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_degrees(cls, degrees) -> "DegreeMultiset":
        return cls(tuple(sorted(Counter(degrees).items())))

    @classmethod
    def from_pairs(cls, pairs) -> "DegreeMultiset":
        counts = Counter()
        for d, m in pairs:
            if m:
                counts[d] += m
        return cls(tuple(sorted(counts.items())))

    @property
    def total_count(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def sum_of_squares(self) -> int:
        return sum(m * d * d for d, m in self.entries)

    def degrees_set(self) -> set[int]:
        return {d for d, _ in self.entries}

    def diff(self, other: "DegreeMultiset") -> tuple[tuple[int, int, int], ...]:
        """(degree, mult here, mult in other) for each degree where they differ."""
        mine, theirs = dict(self.entries), dict(other.entries)
        return tuple(
            (d, mine.get(d, 0), theirs.get(d, 0))
            for d in sorted(mine.keys() | theirs.keys())
            if mine.get(d, 0) != theirs.get(d, 0)
        )

    def validate(self, order: int, n_classes: int | None = None) -> None:
        """Regular-representation identity, count identity, degree divisibility."""
        if self.sum_of_squares != order:
            raise AssertionError(f"sum of squares {self.sum_of_squares} != |G|={order}")
        if n_classes is not None and self.total_count != n_classes:
            raise AssertionError(f"{self.total_count} irreducibles != {n_classes} classes")
        for d, _ in self.entries:
            if order % d:
                raise AssertionError(f"degree {d} does not divide |G|={order}")

    def to_json(self) -> list[list[int]]:
        return [[d, m] for d, m in self.entries]

    @classmethod
    def from_json(cls, data) -> "DegreeMultiset":
        return cls(tuple((int(d), int(m)) for d, m in data))


# -- Z/ell linear algebra ----------------------------------------------------------


def _charpoly(a: list[list[int]], ell: int) -> list[int]:
    """Characteristic polynomial det(xI - a) over Z/ell (Hessenberg reduction)."""
    n = len(a)
    h = [[x % ell for x in row] for row in a]
    # reduce to upper Hessenberg by similarity transforms
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if h[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for row in h:
                row[col + 1], row[piv] = row[piv], row[col + 1]
        inv = pow(h[col + 1][col], -1, ell)
        for r in range(col + 2, n):
            if h[r][col]:
                c = h[r][col] * inv % ell
                h[r] = [(x - c * y) % ell for x, y in zip(h[r], h[col + 1])]
                for row in h:
                    row[col + 1] = (row[col + 1] + c * row[r]) % ell
    # p_m(x) = char poly of leading m x m block (Cohen, Alg. 2.2.9)
    polys = [[1]]
    for m in range(1, n + 1):
        # (x - h[m-1][m-1]) * p_{m-1}
        prev = polys[m - 1]
        cur = [0] + prev[:]
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - h[m - 1][m - 1] * c) % ell
        cur = [c % ell for c in cur]
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = prod * h[i][i - 1] % ell
            coef = h[i - 1][m - 1] * prod % ell
            if coef:
                pim1 = polys[i - 1]
                for j, c in enumerate(pim1):
                    cur[j] = (cur[j] - coef * c) % ell
        polys.append(cur)
    return polys[n]


def _poly_roots(poly: list[int], ell: int) -> list[int]:
    """Sorted distinct roots in Z/ell (ell odd) of a nonzero polynomial.

    When deg poly < ell every multiplicity is below ell, so poly' keeps each
    factor of poly to one power less and r = poly / gcd(poly, poly') is the
    squarefree part, with the same roots and often a much smaller degree;
    otherwise r = poly.  As x^ell - x = x (x^h - 1) (x^h + 1), h = (ell-1)/2,
    with coprime factors, gcd(r, x^ell - x) is x when r(0) = 0, times
    gcd(r, t - 1) and gcd(r, t + 1) for t = x^h mod r: the squarefree
    products of (x - root) over the nonzero roots that are squares and that
    are not.  Each is split further by equal-degree splitting
    (Cantor-Zassenhaus) with the deterministic shifts a = 1, 2, ...: t =
    (x + a)^h mod f is 1, -1 or 0 at a root of a factor f as root + a is a
    nonzero square, a non-square or zero, so gcd(f, t - 1) and gcd(f, t + 1)
    split f, and -a is a root of f exactly when their degrees add up to
    deg f - 1.  Shift a = -root isolates the root, so every factor of degree
    at least 2 splits before a reaches ell.
    """
    poly = fp_trim([c % ell for c in poly])
    if len(poly) <= ell:
        derivative = fp_trim([i * c % ell for i, c in enumerate(poly)][1:])
        poly = fp_div(poly, fp_gcd(poly, derivative, ell), ell)
    half = (ell - 1) // 2

    def split(f, t):
        return [fp_gcd(f, fp_sub(t, (1,), ell), ell), fp_gcd(f, fp_sub(t, (ell - 1,), ell), ell)]

    roots = [] if poly[0] else [0]
    factors = split(poly, fp_powmod((0, 1), half, poly, ell))
    for a in range(1, ell):
        pending = []
        for f in factors:
            if len(f) == 2:
                roots.append(-f[0] % ell)
            elif len(f) > 2:
                squares, non_squares = split(f, fp_powmod((a, 1), half, f, ell))
                if len(squares) + len(non_squares) < len(f) + 1:
                    roots.append(-a % ell)
                pending += [squares, non_squares]
        factors = pending
        if not factors:
            break
    return sorted(roots)


# -- the mod-ell table ---------------------------------------------------------------


@dataclass
class CharacterTableModP:
    """Internal Dixon data: omega rows (class-algebra homs) and lifted degrees."""

    ell: int
    degrees: tuple[int, ...]
    omega: tuple[tuple[int, ...], ...]  # omega[t][j] in Z/ell
    classes: ConjugacyClassData


def choose_ell(order: int, exponent: int) -> int:
    """Smallest prime ell = 1 mod exp(G) with ell^2 > 4|G|."""
    ell = exponent + 1
    while ell <= 10**7:
        if ell * ell > 4 * order and is_prime(ell):
            return ell
        ell += exponent
    raise ModulusSearchError(f"no prime = 1 mod {exponent} above 2 sqrt({order}) below 10^7")


def _cycles(perm) -> list[list[int]]:
    """The cycles (t, perm t, perm^2 t, ...) of perm, each from its least point
    t, in the order of those points."""
    cycles: list[list[int]] = []
    seen = [False] * len(perm)
    for t in range(len(perm)):
        if not seen[t]:
            cycles.append([])
            u = t
            while not seen[u]:
                seen[u] = True
                cycles[-1].append(u)
                u = perm[u]
    return cycles


def _root_of_unity(m: int, ell: int) -> list[int]:
    """The powers zeta^0, .., zeta^(m-1) of the first zeta = a^((ell-1)/m),
    a = 2, 3, ..., of order exactly m mod ell: 1 is not among zeta^1, .., zeta^(m-1)."""
    if (ell - 1) % m:
        raise AssertionError(f"no {m}-th root of unity mod {ell}")
    for a in range(2, ell):
        zeta = pow(a, (ell - 1) // m, ell)
        powers = list(accumulate(range(m - 1), lambda x, _: x * zeta % ell, initial=1))
        if 1 not in powers[1:]:
            return powers
    raise AssertionError(f"no primitive {m}-th root of unity mod {ell}")


@dataclass(frozen=True)
class _CentralBlocks:
    """The eigenspaces of P_z: v -> (v[perm[t]])_t, in block coordinates.

    perm is the class permutation of a central z of order m, whose eigenvalues
    are mu = zeta^e for a primitive m-th root of unity zeta.  For each
    <z>-orbit O = (t, perm t, perm^2 t, ...), written from its least class t,
    e_O has entry mu^i at perm^i t, and the e_O with mu^|O| = 1 are a basis of
    the mu-block.  A block vector is kept as its coordinates over them, which
    are its entries at the leaders t, since distinct orbits share no class.
    Every omega row lies in one block: omega(zC_t) = mu omega(C_t) with mu =
    chi(z)/chi(1)."""

    ell: int
    perm: list[int]
    orbits: list[list[int]]
    place: list[tuple[int, int]]  # class s -> (its orbit, the i with s = perm^i t)
    powers: list[int]  # zeta^x for x < m
    blocks: list[list[int]]  # blocks[e]: the orbits O with zeta^(e |O|) = 1

    def vector(self, e: int, coords) -> list[int]:
        """The full-length vector with these coordinates in block e."""
        vec = [0] * len(self.perm)
        for o, c in zip(self.blocks[e], coords):
            for i, u in enumerate(self.orbits[o]):
                vec[u] = c * self.powers[e * i % len(self.powers)] % self.ell
        return vec

    def check_commutes(self, columns) -> None:
        """Raise unless the sparse operator commutes with P_z: column perm t
        is column t with its rows relabelled by perm, for every class t.  Then
        it keeps every block, as P_z does."""
        perm = self.perm
        for t, column in enumerate(columns):
            if dict(columns[perm[t]]) != {perm[s]: count for s, count in column}:
                raise AssertionError("class operator does not commute with the central class permutation")

    def condense(self, e: int, columns) -> list[list[tuple[int, int]]]:
        """The operator on block e in block coordinates, as sparse columns,
        read off the leader columns of an operator that commutes with P_z.
        For mu = zeta^e, its (O', O) entry is the entry of M e_O at the leader
        of O', which by M[perm^i s][perm^i t] = M[s][t] is (|O| / |O'|) times
        the sum of M[s][t_O] mu^(-i) over the classes s = perm^i t_O' of O'."""
        ell, powers, m = self.ell, self.powers, len(self.powers)
        block = self.blocks[e]
        local = {o: r for r, o in enumerate(block)}
        inverse_sizes = [pow(len(self.orbits[o]), -1, ell) for o in block]
        out = []
        for o in block:
            acc: dict[int, int] = {}
            for s, count in columns[self.orbits[o][0]]:
                o2, i = self.place[s]
                r = local.get(o2)
                if r is not None:
                    acc[r] = acc.get(r, 0) + count * powers[-e * i % m]
            size = len(self.orbits[o])
            out.append([(r, y) for r, x in acc.items() if (y := x * size * inverse_sizes[r] % ell)])
        return out


def _central_blocks(group: FiniteGroup, classes: ConjugacyClassData, orders, ell: int) -> _CentralBlocks:
    """The blocks of P_z for z a central element of largest order m, least on
    ties, where orders[t] is the order of rep_t.  Z(G) is the union of the
    classes of size 1, and perm[t], the class of z rep_t, takes one batch of
    k products."""
    reps = classes.representatives
    c = max((t for t, size in enumerate(classes.sizes) if size == 1), key=lambda t: (orders[t], -reps[t]))
    m = orders[c]
    perm = [classes.class_of[y] for y in group.mul_right(reps, reps[c])]
    k = len(perm)
    orbits = _cycles(perm)
    place: list = [None] * k
    for o, orbit in enumerate(orbits):
        for i, u in enumerate(orbit):
            place[u] = (o, i)
    powers = _root_of_unity(m, ell)
    blocks = [[o for o, orbit in enumerate(orbits) if e * len(orbit) % m == 0] for e in range(m)]
    if sum(map(len, blocks)) != k:
        raise AssertionError(f"central blocks of dimensions {list(map(len, blocks))} do not sum to {k}")
    return _CentralBlocks(ell, perm, orbits, place, powers, blocks)


def _class_matrix(group: FiniteGroup, classes: ConjugacyClassData, inverse_members, blocks: _CentralBlocks):
    """M_j[s][t] = #{x in C_j : x^{-1} rep_t in C_s}, as one list per column t of
    its nonzero (s, M_j[s][t]) entries; columns are omega eigenvectors.

    Inversion maps C_j onto C_j*, the inverse class, and only counts are read,
    so the products run over inverse_members, the members of C_j*.  They run
    for the leader t of each <z>-orbit of classes (blocks.orbits): M_j does
    not depend on which member of C_u stands for it, and for the central z of
    blocks.perm the product x^{-1} (z rep_t) = z (x^{-1} rep_t) lies in zC_s
    exactly when x^{-1} rep_t lies in C_s, so M_j[zC_s][zC_t] = M_j[s][t]:
    column perm t is column t with its rows relabelled by perm."""
    class_of = classes.class_of.__getitem__
    perm = blocks.perm
    columns: list = [None] * len(perm)
    for orbit in blocks.orbits:
        products = group.mul_right(inverse_members, classes.representatives[orbit[0]])
        columns[orbit[0]] = list(Counter(map(class_of, products)).items())
        for t, u in zip(orbit, orbit[1:]):
            columns[u] = [(perm[s], count) for s, count in columns[t]]
    return columns


def _inverse_class_matrix(columns, sizes):
    """M_j* from the sparse columns of M_j, with no product.

    Both |C_t| M_j[s][t] and |C_s| M_j*[t][s] count the triples (y, w, z) in
    C_j* x C_t x C_s with y w = z, as (y, w, z) -> (y^{-1}, z, w) maps them
    onto those of C_j x C_s x C_t, so M_j*[t][s] = |C_t| M_j[s][t] / |C_s|;
    a quotient that is not exact raises."""
    derived: list[list[tuple[int, int]]] = [[] for _ in columns]
    for t, column in enumerate(columns):
        for s, count in column:
            entry, rest = divmod(sizes[t] * count, sizes[s])
            if rest:
                raise AssertionError(f"|C_{t}| M[{s}][{t}] = {sizes[t] * count} is not a multiple of |C_{s}|")
            derived[s].append((t, entry))
    return derived


def _class_operators(group: FiniteGroup, classes: ConjugacyClassData, blocks: _CentralBlocks):
    """M_j for the least class j of an unused <z>-orbit, as sparse columns,
    each followed by M_j* derived from it (_inverse_class_matrix) when j* is in
    another unused orbit; the orbit of each operator given is then used.

    z is the central element of blocks.perm, so M_{z^i C_j} = M_{C_z}^i M_j,
    and M_{C_z} is the scalar mu on block mu: on every block M_{z^i C_j} is
    mu^i M_j, with the eigenspaces of M_j, and the operators of the identity's
    orbit, the central classes in <z>, are scalars.  No operator of a used
    orbit is made.  Each operator is made when it is asked for, so a caller
    that stops asking counts no more."""
    order = group.order
    # each class's members in one pass: class c is flat[start[c]:start[c + 1]]
    start = list(accumulate(classes.sizes, initial=0))
    flat = uint_buffer(order, order)
    fill = start[:-1]
    for x, c in enumerate(classes.class_of):
        flat[fill[c]] = x
        fill[c] += 1
    used = [False] * len(blocks.orbits)
    used[blocks.place[classes.class_of[group.identity]][0]] = True
    for j, inv_j in enumerate(classes.inverse_class):
        orbit = blocks.place[j][0]
        if used[orbit]:
            continue
        used[orbit] = True
        columns = _class_matrix(group, classes, flat[start[inv_j]:start[inv_j + 1]], blocks)
        yield columns
        inv_orbit = blocks.place[inv_j][0]
        if not used[inv_orbit]:
            used[inv_orbit] = True
            yield _inverse_class_matrix(columns, classes.sizes)


def character_table_modp(group: FiniteGroup) -> CharacterTableModP:
    """Full Dixon-Schneider eigen-separation for the class algebra of G.

    The central blocks (_CentralBlocks) are split by the class operators in
    the order of _class_operators, M_j for the least class j of each <z>-orbit
    of classes not yet used, each followed by M_j* derived from it by
    transposition when j* lies in another unused orbit, until all are lines,
    each in the coordinates of its block: a vector of length d_mu, not k.  The
    other operators of an orbit are multiples of the one made on every block,
    and those of the identity's orbit are scalars, so they are never made; no
    operator is made once every subspace is a line.
    Each, counted or derived, is kept as sparse columns, checked to commute
    with P_z, so that it keeps every block, and condensed onto each block that
    still holds a subspace of dimension above 1.  The image of a basis vector
    v is the sum of v[c] * column c of the condensed operator over the nonzero
    v[c]; it must lie in the subspace.  A subspace on which the operator is a
    scalar is kept whole; otherwise its eigenvalues there are the roots of its
    characteristic polynomial (_poly_roots, on the squarefree part).  The
    lines are written out at full length at the end and sorted by (degree,
    omega), so the output does not depend on the blocks or the order of the
    splits.
    """
    if group.modp_table is not None:
        return group.modp_table
    classes = conjugacy_classes(group)
    k = classes.n_classes
    order = group.order
    # exp(G) is the lcm of the orders of the class representatives
    orders = [group.element_order(rep) for rep in classes.representatives]
    ell = choose_ell(order, lcm(*orders))

    id_class = classes.class_of[group.identity]
    blocks = _central_blocks(group, classes, orders, ell)
    operators = _class_operators(group, classes, blocks)
    # subspaces of the blocks, split until all are lines, each kept as (e, rref
    # rows, pivot columns) in the coordinates of block e, so coordinates read
    # off the pivots
    subspaces = [(e, identity_matrix(len(b)), list(range(len(b)))) for e, b in enumerate(blocks.blocks)]

    # the next operator is made only while some subspace is not yet a line
    while not all(len(rows) == 1 for _, rows, _ in subspaces):
        columns = next(operators, None)
        if columns is None:
            break
        blocks.check_commutes(columns)
        condensed = {}
        new_spaces = []
        for space in subspaces:
            e, bt_rows, pivots = space
            d = len(bt_rows)
            if d == 1:
                new_spaces.append(space)
                continue
            if e not in condensed:
                condensed[e] = blocks.condense(e, columns)
            op = condensed[e]
            # the subspace holds w exactly when w is the combination of the
            # rows given by its pivot coordinates, which agree at the pivots
            free = [c for c in range(len(op)) if c not in pivots]
            free_rows = [[row[c] for c in free] for row in bt_rows]
            a = [[0] * d for _ in range(d)]
            for ci, v in enumerate(bt_rows):
                w = [0] * len(op)
                for c, vc in enumerate(v):
                    if vc:
                        for s, count in op[c]:
                            w[s] += vc * count
                coords = [w[pc] % ell for pc in pivots]
                residual = [w[c] for c in free]
                for c, row in zip(coords, free_rows):
                    if c:
                        residual = [x - c * y for x, y in zip(residual, row)]
                if any(x % ell for x in residual):
                    raise AssertionError("class operator left the subspace")
                for r in range(d):
                    a[r][ci] = coords[r]
            lam = a[0][0]
            if all(a[r][c] == (lam if r == c else 0) for r in range(d) for c in range(d)):
                # the only eigenspace of lam I is the whole subspace
                new_spaces.append(space)
                continue
            cp = _charpoly(a, ell)
            roots = _poly_roots(cp, ell)
            for lam in roots:
                shifted = [[(a[r][c] - (lam if r == c else 0)) % ell for c in range(d)] for r in range(d)]
                null = nullspace(shifted, ell)
                vecs = []
                for nv in null:
                    vec = [0] * len(op)
                    for ci, coef in enumerate(nv):
                        if coef:
                            vec = [x + coef * y for x, y in zip(vec, bt_rows[ci])]
                    vecs.append([x % ell for x in vec])
                rows, eigen_pivots = rref(vecs, ell)
                if len(rows) != len(vecs):
                    raise AssertionError(f"eigenspace basis of {len(vecs)} vectors has rank {len(rows)}")
                new_spaces.append((e, rows, eigen_pivots))
        subspaces = new_spaces

    if not all(len(rows) == 1 for _, rows, _ in subspaces):
        raise AssertionError("eigenspace separation incomplete")
    if len(subspaces) != k:
        raise AssertionError(f"{len(subspaces)} eigenlines for {k} classes")

    omega_rows = []
    for e, (v,), _ in subspaces:
        vec = blocks.vector(e, v)
        scale = pow(vec[id_class], -1, ell)
        omega_rows.append(tuple(x * scale % ell for x in vec))

    degrees = []
    inv_class = classes.inverse_class
    inv_sizes = [pow(size, -1, ell) for size in classes.sizes]
    # a degree d divides |G| and d^2 <= |G| < ell^2/4, so it is the one divisor
    # of |G| up to isqrt(|G|) with square d^2 mod ell: two would give ell |
    # (d1 - d2)(d1 + d2) with both factors in (0, ell)
    lifts = {d * d % ell: d for d in range(1, isqrt(order) + 1) if order % d == 0}
    for row in omega_rows:
        total = 0
        for j in range(k):
            total = (total + row[j] * row[inv_class[j]] * inv_sizes[j]) % ell
        d_sq = order * pow(total, -1, ell) % ell
        if d_sq not in lifts:
            raise AssertionError(f"no divisor of |G| = {order} has square {d_sq} mod {ell}")
        degrees.append(lifts[d_sq])

    # deterministic row order: by degree, then omega row
    order_idx = sorted(range(k), key=lambda t: (degrees[t], omega_rows[t]))
    table = CharacterTableModP(
        ell,
        tuple(degrees[t] for t in order_idx),
        tuple(omega_rows[t] for t in order_idx),
        classes,
    )
    result = DegreeMultiset.from_degrees(table.degrees)
    result.validate(order, k)
    group.modp_table = table
    group.drop_tables()
    return table


def character_degrees(group: FiniteGroup) -> DegreeMultiset:
    """Exact multiset {dim rho : rho in Irr(G)} with multiplicities."""
    classes = conjugacy_classes(group)
    # G is abelian exactly when every class is a single element
    if classes.n_classes == group.order:
        out = DegreeMultiset(((1, group.order),))
    else:
        out = DegreeMultiset.from_degrees(character_table_modp(group).degrees)
    out.validate(group.order, classes.n_classes)
    return out

