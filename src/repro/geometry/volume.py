"""Exact volume of semi-linear sets — the algorithm behind Theorem 3.

The paper proves FO + POLY + SUM expresses volumes of semi-linear sets by
induction on dimension: slice along the first coordinate, observe that the
(d-1)-dimensional slice volume is piecewise polynomial of degree <= d-1
between breakpoints, and integrate each piece.  This module implements
exactly that computation with rational arithmetic, for one convex cell
and for a union of cells alike:

* the cells are checked bounded once, through their recession cones;
  slices and intersections of bounded cells are bounded;
* each cell's vertices are enumerated once: the least and greatest first
  coordinate give its span along the slicing axis, and all of them are
  breakpoints;
* breakpoints are the first coordinates of the vertices of every cell and
  of every non-empty intersection of 2..d cells — the only places where
  the union's facial structure above the slicing axis can change — so a
  union of n cells costs O(C(n, <=d)) intersections, not 2^n;
* on each open slab between breakpoints the slice-volume function is a
  polynomial of degree <= d-1, recovered exactly by Lagrange interpolation
  through d interior sample slices; a sample slices only the cells whose
  first-coordinate span covers the slab and recurses on those slices;
* each piece is integrated in closed form; in dimension 1 the volume of a
  union of intervals is a sorted merge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..realalg.univariate import UPoly
from .. import guard, obs
from .._errors import GeometryError, UnboundedSetError
from .polyhedron import Polyhedron

__all__ = [
    "polytope_volume",
    "union_volume",
    "lagrange_interpolate",
    "integrate_upoly",
]


def lagrange_interpolate(
    points: Sequence[tuple[Fraction, Fraction]]
) -> UPoly:
    """The unique polynomial of degree < len(points) through *points*."""
    result = UPoly.zero()
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = UPoly.constant(1)
        denominator = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = basis * UPoly([-xj, 1])
            denominator *= xi - xj
        result = result + basis * (yi / denominator)
    return result


def integrate_upoly(poly: UPoly, low: Fraction, high: Fraction) -> Fraction:
    """Definite integral of a rational polynomial over [low, high]."""
    antiderivative = UPoly(
        [Fraction(0)] + [c / (i + 1) for i, c in enumerate(poly.coeffs)]
    )
    return antiderivative(high) - antiderivative(low)


def polytope_volume(polyhedron: Polyhedron) -> Fraction:
    """Exact d-dimensional volume of a bounded convex polyhedron.

    Strict constraints are closed first (equal volume).  Raises
    :class:`UnboundedSetError` for unbounded inputs.
    """
    if polyhedron.dimension == 0:
        raise GeometryError("volume undefined in dimension 0")
    obs.add("volume.polytopes")
    closed = polyhedron.closure()
    if closed.is_empty():
        return Fraction(0)
    _require_bounded(closed)
    return _slab_volume([closed])


def union_volume(cells: Sequence[Polyhedron]) -> Fraction:
    """Exact volume of a union of convex cells by union-aware slicing.

    All cells must share the same variable tuple.  Cells may overlap,
    touch, nest or be lower-dimensional; strict constraints are closed
    (equal volume).  Raises :class:`UnboundedSetError` if the union is
    unbounded.
    """
    cells = [c for c in cells if not c.is_empty()]
    if not cells:
        return Fraction(0)
    variables = cells[0].variables
    for cell in cells:
        if cell.variables != variables:
            raise GeometryError("all cells must share the same variables")
    if not variables:
        raise GeometryError("volume undefined in dimension 0")
    with obs.span("volume.union", cells=len(cells)):
        if len(cells) == 1:
            return polytope_volume(cells[0])
        closed = [c.closure() for c in cells]
        for cell in closed:
            _require_bounded(cell)
        return _slab_volume(closed)


def _require_bounded(cell: Polyhedron) -> None:
    """Raise :class:`UnboundedSetError` unless non-empty *cell* is bounded."""
    if not cell.recession_cone_is_zero():
        raise UnboundedSetError("the set is unbounded; volume is infinite")


def _slab_volume(cells: list[Polyhedron]) -> Fraction:
    """Volume of the union of non-empty, bounded, closed *cells*
    (dimension >= 1)."""
    var = cells[0].variables[0]
    d = cells[0].dimension
    # A non-empty bounded cell is the hull of its vertices, so its span
    # along the slicing axis runs from its least to its greatest vertex.
    breaks: set[Fraction] = set()
    spans = []
    for cell in cells:
        firsts = [vertex[0] for vertex in cell.vertices()]
        breaks.update(firsts)
        spans.append((min(firsts), max(firsts)))
    if d == 1:
        return _interval_union_length(spans)

    # Breakpoints: first coordinates of the vertices of every cell and of
    # every non-empty intersection of up to d cells.  Intersections grow
    # one cell at a time; one whose first-coordinate span is at most a
    # point adds no breakpoint beyond that span's ends, and neither do
    # its supersets, so it is not tested.
    level = [(i, cell, span) for i, (cell, span) in enumerate(zip(cells, spans))]
    for _ in range(1, d):
        grown = []
        for last, region, (low, high) in level:
            guard.checkpoint()
            for j in range(last + 1, len(cells)):
                meet_span = (max(low, spans[j][0]), min(high, spans[j][1]))
                if meet_span[0] >= meet_span[1]:
                    continue
                obs.add("volume.intersections")
                meet = region.intersect(cells[j])
                if not meet.is_empty():
                    breaks.update(vertex[0] for vertex in meet.vertices())
                    grown.append((j, meet, meet_span))
        level = grown

    # Between breakpoints the slice volume is a polynomial of degree
    # <= d-1: d interior samples recover it exactly.  A cell is live in a
    # slab iff its span covers it (span ends are breakpoints).
    breakpoints = sorted(breaks)
    total = Fraction(0)
    for left, right in zip(breakpoints, breakpoints[1:]):
        guard.checkpoint()
        live = [c for c, (low, high) in zip(cells, spans)
                if low <= left and right <= high]
        if not live:
            continue
        samples: list[tuple[Fraction, Fraction]] = []
        for k in range(1, d + 1):
            t = left + (right - left) * Fraction(k, d + 1)
            obs.add("volume.slices")
            slices = [c.fix_variable(var, t) for c in live]
            if len(slices) == 1:
                samples.append((t, polytope_volume(slices[0])))
            else:
                samples.append((t, _slab_volume(slices)))
        total += integrate_upoly(lagrange_interpolate(samples), left, right)
    return total


def _interval_union_length(spans: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Total length of a union of closed intervals (sorted merge)."""
    total = Fraction(0)
    reach: Fraction | None = None
    for low, high in sorted(spans):
        start = low if reach is None else max(low, reach)
        if high > start:
            total += high - start
            reach = high
    return total
