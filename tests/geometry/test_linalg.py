"""Exact integer and rational linear algebra."""

from fractions import Fraction
from math import gcd

import pytest

from repro.geometry import determinant, gaussian_elimination_rank, solve_integer_system


class TestSolve:
    def test_unique_solution(self):
        assert solve_integer_system([[2, 1], [1, -1]], [3, 0]) == ((1, 1), 1)

    def test_singular_returns_none(self):
        assert solve_integer_system([[1, 1], [2, 2]], [1, 2]) is None

    def test_exactness(self):
        # Reduced over a positive denominator, whatever the pivot signs.
        matrix, rhs = [[0, -3], [7, 13]], [2, -5]
        numerators, denominator = solve_integer_system(matrix, rhs)
        assert denominator > 0
        assert gcd(denominator, *numerators) == 1
        a, b = (Fraction(n, denominator) for n in numerators)
        assert (a, b) == (Fraction(11, 21), Fraction(-2, 3))
        assert 7 * a + 13 * b == -5

    def test_empty_system(self):
        assert solve_integer_system([], []) == ((), 1)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            solve_integer_system([[1]], [1, 2])


class TestDeterminant:
    def test_identity(self):
        assert determinant([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 1

    def test_swap_changes_sign(self):
        m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert determinant(m) == -1

    def test_singular(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert determinant(m) == 0

    def test_3x3(self):
        m = [
            [Fraction(2), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(3), Fraction(0)],
            [Fraction(1), Fraction(1), Fraction(4)],
        ]
        assert determinant(m) == 24


class TestRank:
    def test_full_rank(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert gaussian_elimination_rank(m) == 2

    def test_rank_deficient(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert gaussian_elimination_rank(m) == 1

    def test_wide_matrix(self):
        m = [[Fraction(1), Fraction(0), Fraction(5)]]
        assert gaussian_elimination_rank(m) == 1

    def test_empty(self):
        assert gaussian_elimination_rank([]) == 0
