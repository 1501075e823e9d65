"""From linear constraint formulas to unions of convex cells, and volumes.

A quantifier-free FO + LIN formula denotes a semi-linear set; its DNF gives
a representation as a finite union of convex cells
(:class:`~repro.geometry.polyhedron.Polyhedron`).  Combined with the exact
union volume this yields the volume of any bounded semi-linear set — the
semantic content of the paper's Theorem 3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..logic.formulas import Formula
from ..logic.metrics import max_degree
from ..logic.normalform import is_quantifier_free
from ..qe.fourier_motzkin import formula_rows, qe_linear
from .. import guard, obs
from .._errors import GeometryError, QEError
from .polyhedron import Polyhedron
from .volume import union_volume

__all__ = [
    "formula_to_cells",
    "clip_cells",
    "formula_volume",
    "formula_volume_unit_cube",
]


def formula_to_cells(
    formula: Formula, variables: Sequence[str]
) -> list[Polyhedron]:
    """Decompose a linear formula into convex cells whose union it denotes.

    Quantifiers are eliminated first (Fourier-Motzkin); ``!=`` atoms are
    split.  Infeasible cells are dropped.
    """
    variables = tuple(variables)
    free = formula.free_variables()
    if not free <= set(variables):
        raise GeometryError(
            f"formula has free variables {sorted(free)} outside {variables}"
        )
    if formula.relation_names():
        raise QEError("expand schema relations before decomposing")
    with obs.span("volume.decompose", variables=len(variables)):
        if not is_quantifier_free(formula):
            if max_degree(formula) > 1:
                raise QEError("quantified nonlinear formulas are not semi-linear")
            formula = qe_linear(formula)
        cells: list[Polyhedron] = []
        for constraints in formula_rows(formula):
            guard.checkpoint()
            cell = Polyhedron.make(variables, constraints)
            if not cell.is_empty():
                cells.append(cell)
        obs.add("volume.cells", len(cells))
        guard.charge("cells", len(cells))
        return cells


def formula_volume(
    formula: Formula,
    variables: Sequence[str],
    box: Sequence[tuple[Fraction, Fraction]] | None = None,
) -> Fraction:
    """Exact volume of the semi-linear set denoted by *formula*.

    ``box`` optionally clips to an axis-aligned box (list of per-variable
    ``(low, high)`` bounds).  Without a box the set must be bounded.
    """
    variables = tuple(variables)
    with obs.span("volume.formula_volume", variables=len(variables)):
        cells = formula_to_cells(formula, variables)
        if box is not None:
            cells = clip_cells(cells, variables, box)
        return union_volume(cells)


def clip_cells(
    cells: Sequence[Polyhedron],
    variables: Sequence[str],
    box: Sequence[tuple[Fraction, Fraction]],
) -> list[Polyhedron]:
    """Intersect every cell with the axis-aligned *box*.

    The box is given as per-variable ``(low, high)`` bounds in the order
    of *variables*.  This is the evaluation-time half of the volume
    pipeline: a compiled cell decomposition (:func:`formula_to_cells`,
    cached by :mod:`repro.engine`) can be clipped to many different
    regions without re-running quantifier elimination.
    """
    variables = tuple(variables)
    if len(box) != len(variables):
        raise GeometryError("box must give bounds for every variable")
    from ..qe.linear import LinConstraint

    clip = []
    for var, (low, high) in zip(variables, box):
        clip.append(LinConstraint.make({var: Fraction(-1)}, Fraction(low), "<="))
        clip.append(LinConstraint.make({var: Fraction(1)}, -Fraction(high), "<="))
    clipper = Polyhedron.make(variables, clip)
    return [cell.intersect(clipper) for cell in cells]


def formula_volume_unit_cube(
    formula: Formula, variables: Sequence[str]
) -> Fraction:
    """The paper's VOL_I: volume of the set intersected with the unit cube."""
    box = [(Fraction(0), Fraction(1))] * len(variables)
    return formula_volume(formula, variables, box=box)
