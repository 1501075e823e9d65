"""Theorem 3: exact volumes of semi-linear sets in FO + POLY + SUM.

Two implementations are provided.

:func:`volume_of_query` is the production path: the FO + LIN query is
evaluated to a quantifier-free constraint representation (closure), which
is decomposed into convex cells and measured by the exact slicing
algorithm of :mod:`repro.geometry.volume` — the very algorithm the paper's
induction describes (slice; the slice measure is piecewise polynomial of
degree d-1 between breakpoints; integrate each piece).

:func:`volume_2d_fo_poly_sum` is a faithful executable transcription of the
paper's proof for d = 2, built from genuine language constructs:

* the inner integral ``g(x) = measure{ y : S(x, y) }`` is the summation
  term ``[sum_{rho1(l,u,x)} (u - l)](x)`` where ``rho1`` selects the
  (lower, upper) endpoint pairs of the maximal intervals of the slice —
  a real :class:`~repro.core.language.RangeRestricted` + SumTerm evaluated
  by :class:`~repro.core.evaluator.SumEvaluator`;
* ``g`` is piecewise linear; between consecutive breakpoints we recover
  ``g(x) = m x + b`` from two interior samples and add
  ``(m u^2 - m l^2)/2 + b (u - l)`` — the paper's deterministic formula
  gamma(w, l, u, m, b) — summed over the pieces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..db.evaluation import output_formula
from ..geometry.decomposition import formula_to_cells, formula_volume
from ..geometry.volume import union_volume
from ..logic.builders import forall
from ..logic.formulas import Formula, conjunction
from ..logic.substitution import substitute
from ..logic.terms import Const, Var
from .. import guard, obs
from .._errors import UnboundedSetError
from .evaluator import SumEvaluator
from .language import DetFormula, RangeRestricted, SumTerm

__all__ = [
    "volume_of_query",
    "volume_of_relation",
    "maximal_interval_range",
    "slice_measure_term",
    "volume_2d_fo_poly_sum",
    "volume_nd_fo_poly_sum",
]


def volume_of_query(
    query: Formula,
    instance,
    variables: Sequence[str],
    box: Sequence[tuple[Fraction, Fraction]] | None = None,
) -> Fraction:
    """Exact volume of the output of an FO + LIN query on a semi-linear
    database (Theorem 3, second bullet).

    ``box`` optionally clips (e.g. the unit cube for VOL_I); without it the
    output set must be bounded.
    """
    with obs.span("core.volume_of_query", variables=len(tuple(variables))):
        output = output_formula(query, instance)
        return formula_volume(output, variables, box=box)


def volume_of_relation(
    instance,
    name: str,
    box: Sequence[tuple[Fraction, Fraction]] | None = None,
) -> Fraction:
    """Exact volume of a schema predicate (Theorem 3, first bullet)."""
    with obs.span("core.volume_of_relation", relation=name):
        parameters, body = instance.definition(name)
        return formula_volume(body, parameters, box=box)


def maximal_interval_range(
    lower: str, upper: str, slice_var: str, body: Formula
) -> RangeRestricted:
    """The paper's ``rho1(l, u, x)``: (l, u) are the lower and upper
    endpoints of a maximal interval of ``{ y : body(y, ...) }``.

    The guard states ``l < u`` and ``forall t (l < t < u -> body(t))``.
    Because l and u are drawn from the END set of *body*, the pairs
    satisfying the guard are exactly the maximal intervals: endpoints of
    maximal intervals are END-points, and a pair of END-points spanning any
    gap fails the guard.  Degenerate point-intervals contribute length 0
    and are irrelevant to the measure.
    """
    t = Var("_t_interior")
    l, u = Var(lower), Var(upper)
    interior = substitute(body, {slice_var: t})
    guard = conjunction(
        l < u,
        forall(t, ((l < t) & (t < u)).implies(interior)),
    )
    return RangeRestricted.make((lower, upper), guard, slice_var, body)


def slice_measure_term(slice_var: str, body: Formula) -> SumTerm:
    """``[sum_{rho1(l,u)} (u - l)]``: the measure of a definable subset of R.

    This is the innermost integral of the paper's Theorem 3 proof as a
    genuine FO + POLY + SUM term.
    """
    rho = maximal_interval_range("_l", "_u", slice_var, body)
    gamma = DetFormula.from_term("_len", ("_l", "_u"), Var("_u") - Var("_l"))
    return SumTerm(gamma, rho)


def volume_2d_fo_poly_sum(
    instance,
    body: Formula,
    x_var: str,
    y_var: str,
) -> Fraction:
    """Exact area of a bounded semi-linear set S(x, y), following the
    paper's Theorem 3 proof for dimension 2 step by step.

    *body* is a formula over the instance's schema with free variables
    ``x_var, y_var``, linear after expansion.
    """
    with obs.span("core.volume_2d_fo_poly_sum"):
        return _volume_2d_fo_poly_sum(instance, body, x_var, y_var)


def _volume_2d_fo_poly_sum(
    instance,
    body: Formula,
    x_var: str,
    y_var: str,
) -> Fraction:
    evaluator = SumEvaluator(instance)

    # The inner integral g(x), as a SumTerm with x free.
    g = slice_measure_term(y_var, body)

    # Breakpoints of non-smoothness of g: the x-coordinates of the cell
    # vertices of the output's constraint representation (a superset of the
    # true non-smoothness points, which is harmless).
    output = output_formula(body, instance)
    cells = formula_to_cells(output, (x_var, y_var))
    if not cells:
        return Fraction(0)
    breaks: set[Fraction] = set()
    for cell in cells:
        if not cell.is_bounded():
            raise UnboundedSetError("volume requires a bounded set")
        for vertex in cell.vertices():
            breaks.add(vertex[0])
    # The union's slice measure can also change slope where the boundary
    # edges of two different cells cross; those crossings are vertices of
    # the pairwise intersections (triple-and-higher kinks reduce to
    # pairwise crossings), so include them among the breakpoints.
    for i, left_cell in enumerate(cells):
        for right_cell in cells[i + 1:]:
            overlap = left_cell.intersect(right_cell)
            if not overlap.is_empty():
                for vertex in overlap.vertices():
                    breaks.add(vertex[0])
    breakpoints = sorted(breaks)

    total = Fraction(0)
    for left, right in zip(breakpoints, breakpoints[1:]):
        guard.checkpoint()
        if right <= left:
            continue
        width = right - left
        # Two interior samples determine the linear piece g(x) = m x + b.
        s1 = left + width / 3
        s2 = left + 2 * width / 3
        g1 = evaluator.term_value(g, {x_var: s1})
        g2 = evaluator.term_value(g, {x_var: s2})
        m = (g2 - g1) / (s2 - s1)
        b = g1 - m * s1
        # The paper's deterministic formula:
        #   w = (m u^2 - m l^2)/2 + b (u - l)
        gamma = DetFormula.from_term(
            "_piece",
            ("_pl", "_pu", "_pm", "_pb"),
            (Var("_pm") * Var("_pu") ** 2 - Var("_pm") * Var("_pl") ** 2)
            * Const(Fraction(1, 2))
            + Var("_pb") * (Var("_pu") - Var("_pl")),
        )
        piece = evaluator.apply_gamma(gamma, (left, right, m, b))
        assert piece is not None
        total += piece
    return total


def volume_nd_fo_poly_sum(
    instance,
    body: Formula,
    variables: Sequence[str],
) -> Fraction:
    """Theorem 3's full induction on dimension, run literally in any d.

    The proof: slice along the first coordinate; by induction the slice
    volume ``g(t)`` is computable, and between breakpoints it is a
    polynomial of degree <= d-1, recovered exactly from d interior samples
    (Lagrange) and integrated in closed form (the paper's deterministic
    piece formula, generalised from the d = 2 case's
    ``(m u^2 - m l^2)/2 + b (u - l)``).

    Breakpoints: the slice-volume of a *union* of cells can change its
    polynomial piece wherever the facial structure above the first
    coordinate changes — at first coordinates of vertices of intersections
    of up to d cells (pairwise crossings generalised).  The base case
    d = 1 is the measure of a finite union of intervals.  The induction is
    the slab integrator behind :func:`repro.geometry.volume.union_volume`,
    run on the cells of the query output.
    """
    variables = tuple(variables)
    if not variables:
        raise UnboundedSetError("volume needs at least one coordinate")
    output = output_formula(body, instance)
    return union_volume(formula_to_cells(output, variables))
