"""Variable independence and aggregation closure (Chomicki-Goldin-Kuper).

The paper's introduction discusses [11]: polynomial constraint languages
express *exact* volumes for sets satisfying **variable independence** —
informally, no constraint couples different coordinates — but the
condition "excludes many of the sets that arise most often in spatial
applications".  This module implements the checker and the product-volume
fast path, both to reproduce that prior-work baseline and as an ablation
against the paper's Theorem 3 (which needs no such condition).

A DNF cell is variable-independent when every constraint mentions at most
one variable; the cell is then an axis-aligned box and its volume a
product of interval lengths.  A formula is handled if all its cells are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..logic.formulas import Formula
from .._errors import GeometryError, UnboundedSetError
from .decomposition import formula_to_cells
from .polyhedron import Polyhedron

__all__ = [
    "cell_is_variable_independent",
    "is_variable_independent",
    "variable_independent_volume",
]


def cell_is_variable_independent(cell: Polyhedron) -> bool:
    """True iff every constraint of the cell mentions at most one variable."""
    return all(len(constraint.variables()) <= 1 for constraint in cell.constraints)


def is_variable_independent(formula: Formula, variables: Sequence[str]) -> bool:
    """The [11] condition, checked on the DNF cell decomposition."""
    cells = formula_to_cells(formula, variables)
    return all(cell_is_variable_independent(cell) for cell in cells)


def _box_volume(cell: Polyhedron) -> Fraction:
    """Product of the per-coordinate interval lengths (the fast path).

    *cell* is a non-empty closed box, so each coordinate's interval is
    read off the rows that mention it alone.
    """
    total = Fraction(1)
    for var in cell.variables:
        low: Fraction | None = None
        high: Fraction | None = None
        for constraint in cell.constraints:
            coeff = constraint.coeff(var)
            if coeff == 0:
                continue
            bound = -constraint.constant / coeff
            if coeff > 0 or constraint.op == "=":
                high = bound if high is None else min(high, bound)
            if coeff < 0 or constraint.op == "=":
                low = bound if low is None else max(low, bound)
        if low is None or high is None:
            raise UnboundedSetError(f"cell unbounded in {var!r}")
        length = high - low
        if length <= 0:
            return Fraction(0)
        total *= length
    return total


def variable_independent_volume(
    formula: Formula, variables: Sequence[str]
) -> Fraction:
    """Exact volume of a variable-independent set by the product rule.

    Raises :class:`GeometryError` when the condition fails — the situation
    the paper's Theorem 3 was designed to escape.  Overlapping boxes are
    handled by inclusion-exclusion over their intersections, which are
    again boxes, so the product rule applies to every term.
    """
    cells = formula_to_cells(formula, tuple(variables))
    for cell in cells:
        if not cell_is_variable_independent(cell):
            raise GeometryError(
                "the set is not variable-independent; use the general "
                "Theorem 3 volume (repro.geometry.volume) instead"
            )
    # All cells are boxes; inclusion-exclusion over boxes stays exact and
    # cheap.  Reuse the generic union machinery but with the product rule
    # for each intersection.
    import itertools

    cells = [c for c in cells if not c.is_empty()]
    total = Fraction(0)
    for size in range(1, len(cells) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in itertools.combinations(cells, size):
            intersection = subset[0]
            for cell in subset[1:]:
                intersection = intersection.intersect(cell)
            if intersection.is_empty():
                continue
            total += sign * _box_volume(intersection.closure())
    return total
