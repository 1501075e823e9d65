"""Reference volumes that the union-aware slicing integrator is checked against.

* :func:`inclusion_exclusion_volume` — the alternating sum over all
  2^n - 1 non-empty subsets of cells, each intersection measured as one
  convex polytope.  Exponential in n, so only for small unions.
* :func:`box_union_volume` — coordinate compression over axis-aligned
  boxes; shares no code with ``repro`` at all.

And the references the integer vertex kernel is checked against:

* :func:`fraction_vertices` — vertex enumeration with ``Fraction``
  Gaussian elimination and ``Fraction`` membership tests;
* :func:`fm_coordinate_bounds` / :func:`fm_is_bounded` — a coordinate's
  range, and boundedness, by Fourier-Motzkin projection onto each axis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from repro.geometry import Polyhedron, polytope_volume
from repro.qe.fourier_motzkin import eliminate_variable
from repro.qe.linear import tightest


def inclusion_exclusion_volume(cells: Sequence[Polyhedron]) -> Fraction:
    """Exact volume of a union of convex cells by inclusion-exclusion."""
    total = Fraction(0)
    for size in range(1, len(cells) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in itertools.combinations(cells, size):
            intersection = subset[0]
            for cell in subset[1:]:
                intersection = intersection.intersect(cell)
            if not intersection.is_empty():
                total += sign * polytope_volume(intersection)
    return total


def box_union_volume(
    boxes: Sequence[Sequence[tuple[Fraction, Fraction]]],
) -> Fraction:
    """Exact volume of a union of closed boxes (per-axis ``(low, high)``)."""
    boxes = [box for box in boxes if all(low < high for low, high in box)]
    if not boxes:
        return Fraction(0)
    dims = len(boxes[0])
    axes = [sorted({bound for box in boxes for bound in box[d]}) for d in range(dims)]
    total = Fraction(0)
    for cell in itertools.product(*(zip(axis, axis[1:]) for axis in axes)):
        if any(all(box[d][0] <= low and high <= box[d][1]
                   for d, (low, high) in enumerate(cell)) for box in boxes):
            size = Fraction(1)
            for low, high in cell:
                size *= high - low
            total += size
    return total


def _fraction_solve(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """The unique solution of ``matrix @ x = rhs``, or None if singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col] / pivot
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def fraction_vertices(polyhedron: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Vertices of the closure, in the order of the first row subset
    (over the :func:`tightest` rows) that yields each."""
    d = polyhedron.dimension
    if d == 0:
        return []
    closed = polyhedron.closure()
    rows = tightest(closed.constraints)
    vertices: list[tuple[Fraction, ...]] = []
    for subset in itertools.combinations(rows, d):
        solution = _fraction_solve(
            [[row.coeff(v) for v in polyhedron.variables] for row in subset],
            [-row.constant for row in subset],
        )
        if solution is not None and solution not in vertices \
                and closed.contains(solution):
            vertices.append(solution)
    return vertices


def fm_coordinate_bounds(
    polyhedron: Polyhedron, var: str
) -> tuple[Fraction | None, Fraction | None]:
    """(min, max) of *var* over the closure of a non-empty polyhedron;
    ``None`` where unbounded."""
    shadow = list(polyhedron.constraints)
    for other in polyhedron.variables:
        if other != var:
            shadow = eliminate_variable(other, shadow)
            assert shadow is not None, "empty polyhedron"
    low: Fraction | None = None
    high: Fraction | None = None
    for row in shadow:
        coeff = row.coeff(var)
        if coeff == 0:
            continue
        bound = -row.constant / coeff
        if coeff > 0 or row.op == "=":
            high = bound if high is None else min(high, bound)
        if coeff < 0 or row.op == "=":
            low = bound if low is None else max(low, bound)
    return low, high


def fm_is_bounded(polyhedron: Polyhedron) -> bool:
    """Boundedness by projection onto every axis; empty counts as bounded."""
    if polyhedron.is_empty():
        return True
    return all(None not in fm_coordinate_bounds(polyhedron, var)
               for var in polyhedron.variables)
