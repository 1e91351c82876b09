from fractions import Fraction

import pytest

from repzoo.intlinalg import nullspace, rref, unimodular_inverse


def test_unimodular_inverse():
    u = [[2, 1], [1, 1]]
    assert unimodular_inverse(u) == [[1, -1], [-1, 2]]


@pytest.mark.parametrize("u", [[[1, 2], [2, 4]], [[2, 0], [0, 1]]])
def test_unimodular_inverse_rejects_singular_and_non_integral(u):
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse(u)


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

