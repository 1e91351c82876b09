import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repzoo.intlinalg import identity_matrix, nullspace, rref, smith_normal_form


@pytest.mark.parametrize(
    "rows, ell, reduced, pivots, kernel",
    [
        # x + y = 1 and x + y = 2 over Q: the rhs column takes a pivot
        ([[1, 1, 1], [1, 1, 2]], None, [[1, 1, 0], [0, 0, 1]], [0, 2], [[-1, 1, 0]]),
        # x + 2y + 3z = 4 over Q, one equation in three unknowns
        (
            [[2, 4, 6, 8]],
            None,
            [[1, 2, 3, 4]],
            [0],
            [[-2, 1, 0, 0], [-3, 0, 1, 0], [-4, 0, 0, 1]],
        ),
        # A - 2I for A = [[2, 1], [0, 2]] over Z/7: the eigenvalue-2 line
        ([[0, 1], [0, 0]], 7, [[0, 1]], [1], [[1, 0]]),
    ],
)
def test_rref_and_nullspace(rows, ell, reduced, pivots, kernel):
    red, piv = rref(rows, ell)
    assert red == reduced and piv == pivots
    basis = nullspace(rows, ell)
    assert basis == kernel
    for v in basis:
        for row in rows:
            total = sum(a * b for a, b in zip(row, v))
            assert (total if ell is None else total % ell) == 0
    if ell is None:
        assert all(isinstance(x, Fraction) for v in basis for x in v)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(mat):
    if not mat:
        return 1
    return sum(
        (-1) ** j * c * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, c in enumerate(mat[0])
        if c
    )


def _determinantal_divisors(mat):
    """D_k = gcd of the k x k minors of mat, for k = 1 .. min(n, m)."""
    n, m = len(mat), len(mat[0])
    return [
        math.gcd(
            *(
                _det([[mat[i][j] for j in cols] for i in rows])
                for rows in itertools.combinations(range(n), k)
                for cols in itertools.combinations(range(m), k)
            )
        )
        for k in range(1, min(n, m) + 1)
    ]


small_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(derandomize=True, deadline=None)
@given(small_matrices)
def test_smith_normal_form_against_determinantal_divisors(mat):
    u, d, u_inv = smith_normal_form(mat)
    n, m = len(mat), len(mat[0])
    assert _mat_mul(u, u_inv) == identity_matrix(n) == _mat_mul(u_inv, u)
    assert all(d[i][j] == 0 for i in range(n) for j in range(m) if i != j)
    diag = [d[i][i] for i in range(min(n, m))]
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    # d_1 d_2 ... d_k is the gcd of the k x k minors
    assert list(itertools.accumulate(diag, operator.mul)) == _determinantal_divisors(mat)
    # U mat = D V^-1, so row i of U mat is d_i times an integer row, and zero
    # past the diagonal
    for i, row in enumerate(_mat_mul(u, mat)):
        di = diag[i] if i < len(diag) else 0
        assert all(x % di == 0 if di else x == 0 for x in row)
