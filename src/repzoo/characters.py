"""Exact irreducible character degrees via class algebras mod a large prime.

The degree multiset of Irr(G) is computed from the class-multiplication-
coefficient matrices: their simultaneous eigenvectors over Z/ell (ell prime,
ell = 1 mod exp(G), ell > 2 sqrt(|G|)) recover the algebra homomorphisms
omega_t, from which the squared degrees follow mod ell by the column
orthogonality relation; each degree is read from the divisors of |G|.
Following Schneider ("Dixon's character table algorithm revisited", J. Symb.
Comp. 1990), each class matrix is kept sparse, as the nonzero entries of its
columns, and is applied to a subspace basis by summing the columns its
nonzero coordinates select.  Only one column per orbit of the center Z(G) on
the classes is counted; the others are that column with its rows permuted.
The split starts from the central-character blocks, the eigenspaces of the
class permutation of one central element, which are written down without
elimination.  The eigenvalues are found by equal-degree splitting of the
characteristic polynomial (Cantor-Zassenhaus, Math. Comp. 1981).  Everything
is integer arithmetic; the structural identities (sum of squares, class
count, divisibility) are checked on every output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import isqrt

from .groups import ConjugacyClassData, FiniteGroup, conjugacy_classes, uint_buffer
from .intlinalg import nullspace, rref
from .localring import fp_gcd, fp_powmod, fp_sub, is_prime


class ModulusSearchError(RuntimeError):
    """No usable prime ell below 10^7."""


@dataclass(frozen=True)
class DegreeMultiset:
    """Sorted (degree, multiplicity) pairs for Irr(G)."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_degrees(cls, degrees) -> "DegreeMultiset":
        counts: dict[int, int] = {}
        for d in degrees:
            counts[d] = counts.get(d, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def from_pairs(cls, pairs) -> "DegreeMultiset":
        counts: dict[int, int] = {}
        for d, m in pairs:
            if m:
                counts[d] = counts.get(d, 0) + m
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

    g = gcd(poly, x^ell - x) is the squarefree product of (x - r) over the
    roots r.  Equal-degree splitting (Cantor-Zassenhaus) with the deterministic
    shifts a = 0, 1, 2, ...: t = (x + a)^((ell-1)/2) mod h is 1, -1 or 0 at a
    root r of a factor h as r + a is a nonzero square, a non-square or zero, so
    gcd(h, t - 1) and gcd(h, t + 1) split h, and -a is a root of h exactly when
    their degrees add up to deg h - 1.  Shift a = -r isolates r, so every
    factor of degree at least 2 splits before a reaches ell.
    """
    x = (0, 1)
    factors = [fp_gcd(poly, fp_sub(fp_powmod(x, ell, poly, ell), x, ell), ell)]
    roots = []
    half = (ell - 1) // 2
    for a in range(ell):
        pending = []
        for h in factors:
            if len(h) == 2:
                roots.append(-h[0] % ell)
            elif len(h) > 2:
                t = fp_powmod((a, 1), half, h, ell)
                squares = fp_gcd(h, fp_sub(t, (1,), ell), ell)
                non_squares = fp_gcd(h, fp_sub(t, (ell - 1,), ell), ell)
                if len(squares) + len(non_squares) < len(h) + 1:
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


def _center_perms(group: FiniteGroup, classes: ConjugacyClassData) -> dict[int, list[int]]:
    """{z: perm} over the central z, where perm[t] is the class of z rep_t.  Z(G)
    is the union of the classes of size 1, and each perm takes k products."""
    class_of = classes.class_of
    return {
        z: [class_of[y] for y in group.mul_right(classes.representatives, z)]
        for z, size in zip(classes.representatives, classes.sizes)
        if size == 1
    }


def _center_moves(perms) -> list[tuple[int, list[int] | None]]:
    """For each class u, (t, perm): t is the least class in the orbit of u
    under Z(G), and perm, one of the central class permutations perms, maps
    C_t to C_u, or is None when u = t."""
    perms = list(perms)
    moves: list[tuple[int, list[int] | None] | None] = [None] * len(perms[0])
    for t, move in enumerate(moves):
        if move is None:
            moves[t] = (t, None)
            for perm in perms:
                if moves[perm[t]] is None:
                    moves[perm[t]] = (t, perm)
    return moves


def _cycle(perm: list[int], t: int) -> list[int]:
    """(t, perm t, perm^2 t, ...) up to the return to t."""
    orbit = [t]
    u = perm[t]
    while u != t:
        orbit.append(u)
        u = perm[u]
    return orbit


def _root_of_unity(m: int, ell: int) -> int:
    """The first a^((ell-1)/m), a = 2, 3, ..., of order exactly m mod ell."""
    if (ell - 1) % m:
        raise AssertionError(f"no {m}-th root of unity mod {ell}")
    primes = [p for p in range(2, m + 1) if m % p == 0 and is_prime(p)]
    for a in range(2, ell):
        zeta = pow(a, (ell - 1) // m, ell)
        if all(pow(zeta, m // p, ell) != 1 for p in primes):
            return zeta
    raise AssertionError(f"no primitive {m}-th root of unity mod {ell}")


def _central_blocks(
    perms: dict[int, list[int]], id_class: int, ell: int
) -> list[tuple[list[list[int]], list[int]]]:
    """The eigenspaces of P_z: v -> (v[perm[t]])_t, as (rref rows, pivot
    columns), for perm = perms[z] and z a central element of largest order m,
    least on ties.  perm[id_class] = C_z, so the orbit of the identity class
    has m classes, and m is the order of perm.

    Every omega row lies in one of them: omega(zC_t) = mu omega(C_t) with mu
    = chi(z)/chi(1), and so M_j, which commutes with P_z, keeps each one.  The
    eigenvalues are mu = zeta^e for a primitive m-th root of unity zeta.  For
    each <z>-orbit O = (t, perm t, perm^2 t, ...) written from its least class
    t, the mu-eigenspace has the vector with entry mu^i at perm^i t when
    mu^|O| = 1; its pivot is t, and distinct orbits share no class, so the
    rows are already reduced."""
    z = max(perms, key=lambda z: (len(_cycle(perms[z], id_class)), -z))
    perm = perms[z]
    m = len(_cycle(perm, id_class))
    k = len(perm)
    orbits = []
    seen = set()
    for t in range(k):
        if t not in seen:
            orbits.append(_cycle(perm, t))
            seen.update(orbits[-1])
    zeta = _root_of_unity(m, ell)
    blocks = []
    for e in range(m):
        mu = pow(zeta, e, ell)
        rows, pivots = [], []
        for orbit in orbits:
            if pow(mu, len(orbit), ell) == 1:
                row = [0] * k
                x = 1
                for u in orbit:
                    row[u] = x
                    x = x * mu % ell
                rows.append(row)
                pivots.append(orbit[0])
        blocks.append((rows, pivots))
    if sum(len(rows) for rows, _ in blocks) != k:
        raise AssertionError(f"central blocks of dimensions {[len(r) for r, _ in blocks]} do not sum to {k}")
    return blocks


def _class_matrix(group: FiniteGroup, classes: ConjugacyClassData, inverse_members, moves):
    """M_j[s][t] = #{x in C_j : x^{-1} rep_t in C_s}, as one list per column t of
    its nonzero (s, M_j[s][t]) entries; columns are omega eigenvectors.

    Inversion maps C_j onto C_j*, the inverse class, and only counts are read,
    so the products run over inverse_members, the members of C_j*.  They run
    for one column t per orbit of Z(G) on the classes (moves, _center_moves):
    M_j does not depend on which member of C_u stands for it, and for central z
    the product x^{-1} (z rep_t) = z (x^{-1} rep_t) lies in zC_s exactly when
    x^{-1} rep_t lies in C_s, so M_j[zC_s][zC_t] = M_j[s][t] and column
    u = zC_t is column t with its rows relabelled by perm."""
    class_of = classes.class_of.__getitem__
    columns = []
    for u, (t, perm) in enumerate(moves):
        if perm is None:
            products = group.mul_right(inverse_members, classes.representatives[u])
            columns.append(list(Counter(map(class_of, products)).items()))
        else:
            columns.append([(perm[s], count) for s, count in columns[t]])
    return columns


def character_table_modp(group: FiniteGroup) -> CharacterTableModP:
    """Full Dixon-Schneider eigen-separation for the class algebra of G.

    The central blocks (_central_blocks) of (Z/ell)^k are split by M_j for
    j = 0, 1, ... (skipping the identity class) until all are lines.  M_j is
    kept as sparse columns, and the image of each basis vector v is the sum of
    v[c] * column c over the nonzero v[c], reduced mod ell once.  A subspace on
    which M_j is a scalar is kept whole; otherwise the eigenvalues of M_j on it
    are the roots of its characteristic polynomial, found by equal-degree
    splitting.  The rows are sorted by (degree, omega) at the end, so the
    output does not depend on the blocks or the order of the splits.
    """
    if group.modp_table is not None:
        return group.modp_table
    classes = conjugacy_classes(group)
    k = classes.n_classes
    order = group.order
    ell = choose_ell(order, group.exponent())

    id_class = classes.class_of[group.identity]
    # each class's members in one pass: class c is flat[start[c]:start[c + 1]]
    start = list(accumulate(classes.sizes, initial=0))
    flat = uint_buffer(order, order)
    fill = start[:-1]
    for x, c in enumerate(classes.class_of):
        flat[fill[c]] = x
        fill[c] += 1
    perms = _center_perms(group, classes)
    moves = _center_moves(perms.values())
    # subspaces of (Z/ell)^k, split until all are lines, each kept as the
    # (rows, pivot columns) of its rref basis, so coordinates read off the pivots
    subspaces = _central_blocks(perms, id_class, ell)

    for j in range(k):
        if all(len(rows) == 1 for rows, _ in subspaces):
            break
        if j == id_class:
            continue
        inv_j = classes.inverse_class[j]
        columns = _class_matrix(group, classes, flat[start[inv_j]:start[inv_j + 1]], moves)
        new_spaces = []
        for space in subspaces:
            bt_rows, pivots = space
            d = len(bt_rows)
            if d == 1:
                new_spaces.append(space)
                continue
            a = [[0] * d for _ in range(d)]
            for ci, v in enumerate(bt_rows):
                w = [0] * k
                for c, vc in enumerate(v):
                    if vc:
                        for s, count in columns[c]:
                            w[s] += vc * count
                w = [x % ell for x in w]
                coords = [w[pc] for pc in pivots]
                residual = w
                for r, c in enumerate(coords):
                    if c:
                        residual = [x - c * y for x, y in zip(residual, bt_rows[r])]
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
                    vec = [0] * k
                    for ci, coef in enumerate(nv):
                        if coef:
                            vec = [x + coef * y for x, y in zip(vec, bt_rows[ci])]
                    vecs.append([x % ell for x in vec])
                rows, eigen_pivots = rref(vecs, ell)
                if len(rows) != len(vecs):
                    raise AssertionError(f"eigenspace basis of {len(vecs)} vectors has rank {len(rows)}")
                new_spaces.append((rows, eigen_pivots))
        subspaces = new_spaces

    if not all(len(rows) == 1 for rows, _ in subspaces):
        raise AssertionError("eigenspace separation incomplete")
    if len(subspaces) != k:
        raise AssertionError(f"{len(subspaces)} eigenlines for {k} classes")

    omega_rows = []
    for (v,), _ in subspaces:
        scale = pow(v[id_class], -1, ell)
        omega_rows.append(tuple(x * scale % ell for x in v))

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

