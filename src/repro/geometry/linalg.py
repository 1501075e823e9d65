"""Exact integer and rational linear algebra helpers for polyhedral geometry."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = ["solve_integer_system", "determinant", "gaussian_elimination_rank"]


def solve_integer_system(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int] | None:
    """Solve ``matrix @ x = rhs`` over the integers, fraction-free.

    Returns ``(numerators, denominator)`` with ``x[i] = numerators[i] /
    denominator``, ``denominator > 0`` and the gcd of all of them 1, so
    equal solutions give equal pairs.  Returns ``None`` if the system is
    singular (no solution or infinitely many).

    Bareiss's fraction-free Gauss-Jordan elimination: after the step on
    column ``k`` every entry is a minor of the augmented matrix, so each
    update divides exactly by the previous pivot, and at the end every
    diagonal entry is the determinant (up to the sign of the row swaps)
    and the last column holds Cramer's numerators.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("square system required")
    if n == 0:
        return (), 1
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    previous = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        top = aug[col]
        pivot = top[col]
        for r in range(n):
            if r == col:
                continue
            row = aug[r]
            factor = row[col]
            for c in range(n + 1):
                row[c] = (pivot * row[c] - factor * top[c]) // previous
        previous = pivot
    denominator = previous
    numerators = [aug[i][n] for i in range(n)]
    divisor = math.gcd(denominator, *numerators)
    if denominator < 0:
        divisor = -divisor
    return tuple(v // divisor for v in numerators), denominator // divisor


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    work = [[Fraction(v) for v in row] for row in matrix]
    sign = 1
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            if work[r][col] == 0:
                continue
            factor = work[r][col] / pivot
            for c in range(col, n):
                work[r][c] -= factor * work[col][c]
    return det * sign


def gaussian_elimination_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix."""
    if not matrix:
        return 0
    rows = [list(map(Fraction, row)) for row in matrix]
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot_row = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(len(rows)):
            if r == rank or rows[r][col] == 0:
                continue
            factor = rows[r][col] / pivot
            for c in range(col, cols):
                rows[r][c] -= factor * rows[rank][c]
        rank += 1
        if rank == len(rows):
            break
    return rank
