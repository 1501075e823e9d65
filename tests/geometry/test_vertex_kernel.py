"""The integer vertex kernel against its Fraction and Fourier-Motzkin oracles.

``Polyhedron.vertices`` solves each row subset fraction-free and tests
membership with integer dot products; ``Polyhedron.is_bounded`` asks
whether the recession cone, cut to a cube, has only the origin as a
vertex.  Both must agree exactly with the rational-arithmetic oracles in
``oracles.py`` on awkward rows: equalities, strict rows, duplicates,
parallel rows, many rows through one point and constants with large
denominators.  Volumes of full-dimensional cells are checked against
Qhull, and the integrator's work counts on two large unions are pinned.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

from repro import obs
from repro.engine import prepare
from repro.geometry import Polyhedron, polytope_volume, union_volume
from repro.qe.linear import LinConstraint
from repro._errors import UnboundedSetError

from .oracles import fm_coordinate_bounds, fm_is_bounded, fraction_vertices
from .test_union_slicing import NAMES, overlapping_boxes, union_text

coefficients = st.integers(-3, 3)
denominators = st.sampled_from([1, 2, 3, 7, 1024, 999_983, 10**9 + 7])


@st.composite
def rationals(draw, bound=4):
    den = draw(denominators)
    return Fraction(draw(st.integers(-bound * den, bound * den)), den)


@st.composite
def awkward_cells(draw):
    """1-3-D cells of random rows, some through one shared point, with
    duplicates, parallel copies, equalities and strict rows."""
    dims = draw(st.integers(1, 3))
    names = NAMES[:dims]
    anchor = [draw(rationals()) for _ in names]
    rows: list[LinConstraint] = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = {name: draw(coefficients) for name in names}
        op = draw(st.sampled_from(["<=", "<=", "<", "="]))
        if draw(st.booleans()):  # through the shared point
            constant = -sum(c * a for c, a in zip(coeffs.values(), anchor))
        else:
            constant = draw(rationals())
        rows.append(LinConstraint.make(coeffs, constant, op))
        copy = draw(st.sampled_from(["none", "none", "duplicate", "parallel"]))
        if copy == "duplicate":
            rows.append(rows[-1])
        elif copy == "parallel":
            scale = draw(st.integers(1, 3))
            rows.append(LinConstraint.make(
                {n: scale * c for n, c in coeffs.items()},
                draw(rationals()), draw(st.sampled_from(["<=", "<"]))))
    if draw(st.booleans()):  # usually bounded: clip to a box
        half = draw(rationals(bound=3)) + 4
        for name in names:
            rows.append(LinConstraint.make({name: 1}, -half, "<="))
            rows.append(LinConstraint.make({name: -1}, -half, "<="))
    draw(st.randoms()).shuffle(rows)
    return Polyhedron.make(names, rows)


@settings(max_examples=300, deadline=None)
@given(awkward_cells())
def test_vertices_match_the_fraction_oracle_in_value_and_order(cell):
    assert cell.vertices() == fraction_vertices(cell)


@settings(max_examples=300, deadline=None)
@given(awkward_cells())
def test_is_bounded_matches_the_projection_oracle(cell):
    assert cell.is_bounded() == fm_is_bounded(cell)


@settings(max_examples=100, deadline=None)
@given(awkward_cells())
def test_vertex_spans_match_projected_bounds(cell):
    if cell.is_empty() or not cell.is_bounded():
        return
    vertices = cell.vertices()
    for axis, var in enumerate(cell.variables):
        coordinates = [vertex[axis] for vertex in vertices]
        assert (min(coordinates), max(coordinates)) == fm_coordinate_bounds(cell, var)


@st.composite
def solid_cells(draw):
    """Full-dimensional bounded 2-3-D cells: a box cut by rows that all
    keep a margin around an interior point."""
    dims = draw(st.integers(2, 3))
    names = NAMES[:dims]
    inside = [draw(rationals(bound=1)) for _ in names]
    rows = []
    for name, centre in zip(names, inside):
        above = 1 + draw(rationals(bound=1)) ** 2
        below = 1 + draw(rationals(bound=1)) ** 2
        rows.append(LinConstraint.make({name: 1}, -(centre + above), "<="))
        rows.append(LinConstraint.make({name: -1}, centre - below, "<="))
    for _ in range(draw(st.integers(0, 5))):
        coeffs = {name: draw(coefficients) for name in names}
        if not any(coeffs.values()):
            continue
        margin = Fraction(1, 8) + abs(draw(rationals(bound=2)))
        level = sum(c * p for c, p in zip(coeffs.values(), inside))
        op = draw(st.sampled_from(["<=", "<"]))
        rows.append(LinConstraint.make(coeffs, -(level + margin), op))
    return Polyhedron.make(names, rows), inside


@settings(max_examples=100, deadline=None)
@given(solid_cells())
def test_polytope_volume_matches_qhull(case):
    cell, inside = case
    halfspaces = np.array([
        [float(row.coeff(v)) for v in cell.variables] + [float(row.constant)]
        for row in cell.constraints
    ])
    hull = ConvexHull(HalfspaceIntersection(
        halfspaces, np.array([float(c) for c in inside])).intersections)
    assert float(polytope_volume(cell)) == pytest.approx(hull.volume, rel=1e-9)


def test_unbounded_cells_are_refused_with_or_without_vertices():
    def cell(*rows):
        return Polyhedron.make(("x", "y"), [LinConstraint.make(*row) for row in rows])

    ray = cell(({"x": 1}, 0, "="), ({"y": -1}, 0, "<="))  # one vertex
    strip = cell(({"x": -1}, 0, "<="), ({"x": 1}, -1, "<="))  # a line: none
    square = cell(({"x": -1}, 0, "<="), ({"x": 1}, -1, "<="),
                  ({"y": -1}, 0, "<="), ({"y": 1}, -1, "<="))
    assert ray.vertices() == [(0, 0)] and strip.vertices() == []
    for unbounded in (ray, strip):
        assert not unbounded.is_bounded()
        with pytest.raises(UnboundedSetError):
            polytope_volume(unbounded)
        with pytest.raises(UnboundedSetError):
            union_volume([square, unbounded])
    assert union_volume([square, ray.intersect(square)]) == 1


@pytest.mark.parametrize("count,dims,polytopes,slices,intersections", [
    (24, 2, 0, 32, 222),
    (12, 3, 0, 483, 521),
])
def test_integrator_work_on_large_unions_is_pinned(
        count, dims, polytopes, slices, intersections):
    text = union_text(overlapping_boxes(count, count, dims))
    obs.enable_counting()
    prepare(text, NAMES[:dims], cache=None).volume()
    assert obs.REGISTRY.value("volume.polytopes") == polytopes
    assert obs.REGISTRY.value("volume.slices") == slices
    assert obs.REGISTRY.value("volume.intersections") == intersections
