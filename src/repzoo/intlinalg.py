"""Small exact matrix utilities: row reduction over Q or Z/ell, Smith normal form.

Matrices are lists of lists of Python ints (or Fractions over Q).  Row
reduction serves the mod-ell eigenspace splitting and the fitter's linear
solves.  The SNF inputs are tiny: the relation matrix of the abelian group N in
clifford.DualGroup (one row per generator) and the distinct section equations
of clifford._has_section (one column per generator of a stabilizer), so the
classical elementary-operation SNF is plenty.
"""

from __future__ import annotations

from fractions import Fraction


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (U, D, U^-1) with U @ mat @ V = D diagonal for some unimodular V.

    U^-1 takes the inverse of each row operation on U as a column operation:
    swapping rows i, j swaps columns i, j, adding c * row src to row dst
    subtracts c * column dst from column src, and negating a row negates that
    column.  V itself is not kept.
    """
    a = [row[:] for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = identity_matrix(n)
    u_inv = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for row in u_inv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]

    t = 0
    while t < min(n, m):
        # locate a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            reduced = False
            for i in range(t + 1, n):
                if a[i][t]:
                    qc = a[i][t] // a[t][t]
                    add_row(t, i, -qc)
                    if a[i][t]:
                        swap_rows(t, i)
                    reduced = True
            for j in range(t + 1, m):
                if a[t][j]:
                    qc = a[t][j] // a[t][t]
                    add_col(t, j, -qc)
                    if a[t][j]:
                        swap_cols(t, j)
                    reduced = True
            if not reduced:
                break
        # enforce divisibility d_t | a[i][j] for the rest
        dirty = False
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    add_row(i, t, 1)
                    dirty = True
                    break
            if dirty:
                break
        if dirty:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
            for row in u_inv:
                row[t] = -row[t]
        t += 1
    return u, a, u_inv


def rref(rows, ell=None):
    """Reduced row echelon form over Z/ell (ell prime) or, for ell=None, over Q.

    Returns (nonzero rows, pivot columns).  Each pivot is the first row at or
    below the current rank with a nonzero entry in the column.
    """
    if ell is None:
        rows = [r[:] for r in rows]
    else:
        rows = [[x % ell for x in r] for r in rows]
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        if ell is None:
            inv = 1 / Fraction(prow[col])
            prow = [x * inv for x in prow]
        else:
            inv = pow(prow[col], -1, ell)
            prow = [x * inv % ell for x in prow]
        rows[rank] = prow
        for r, row in enumerate(rows):
            c = row[col]
            if r == rank or not c:
                continue
            if ell is None:
                rows[r] = [x - c * y for x, y in zip(row, prow)]
            else:
                rows[r] = [(x - c * y) % ell for x, y in zip(row, prow)]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def nullspace(rows, ell=None):
    """Basis of the right nullspace over Z/ell or Q: one vector per free column,
    in column order, with a 1 in that column."""
    n = len(rows[0])
    red, pivots = rref(rows, ell)
    zero, one = (Fraction(0), Fraction(1)) if ell is None else (0, 1)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] if ell is None else -red[r][fc] % ell
        basis.append(v)
    return basis

