"""Polyhedra: feasibility, bounds, vertices, slicing."""

from fractions import Fraction

import pytest

from repro.logic import variables
from repro.geometry import Polyhedron, formula_to_cells
from repro.qe import compare_to_constraints
from repro._errors import GeometryError

x, y, z = variables("x y z")


def polyhedron_of(formula, names):
    cells = formula_to_cells(formula, names)
    assert len(cells) == 1
    return cells[0]


def vertex_span(polyhedron, axis):
    """(min, max) of coordinate *axis* over a bounded polyhedron's vertices."""
    coordinates = [vertex[axis] for vertex in polyhedron.vertices()]
    return min(coordinates), max(coordinates)


def simplex2d():
    return polyhedron_of((x >= 0) & (y >= 0) & (x + y <= 1), ("x", "y"))


class TestBasics:
    def test_unit_cube(self):
        cube = Polyhedron.unit_cube(("x", "y", "z"))
        assert not cube.is_empty()
        assert cube.contains((Fraction(1, 2),) * 3)
        assert not cube.contains((Fraction(2), Fraction(0), Fraction(0)))

    def test_emptiness(self):
        empty = polyhedron_of((x > 1), ("x",)).intersect(
            polyhedron_of((x < 0), ("x",))
        )
        assert empty.is_empty()

    def test_contains_dimension_checked(self):
        with pytest.raises(GeometryError):
            simplex2d().contains((Fraction(0),))

    def test_unknown_variable_rejected(self):
        (c,) = compare_to_constraints(z < 1)
        with pytest.raises(GeometryError):
            Polyhedron.make(("x", "y"), [c])

    def test_closure_replaces_strict(self):
        p = polyhedron_of((x > 0) & (x < 1), ("x",))
        closed = p.closure()
        assert closed.contains((Fraction(0),))
        assert closed.contains((Fraction(1),))

    def test_intersect_requires_same_variables(self):
        with pytest.raises(GeometryError):
            simplex2d().intersect(Polyhedron.unit_cube(("x",)))


class TestBoundsAndBoundedness:
    def test_coordinate_bounds(self):
        simplex = simplex2d()
        assert vertex_span(simplex, 0) == (0, 1)
        assert vertex_span(simplex, 1) == (0, 1)

    def test_unbounded_detected(self):
        halfplane = polyhedron_of((x >= 0), ("x", "y"))
        assert not halfplane.is_bounded()

    def test_empty_is_bounded(self):
        (c1,) = compare_to_constraints(x > 1)
        (c2,) = compare_to_constraints(x < 0)
        empty = Polyhedron.make(("x", "y"), [c1, c2])
        assert empty.is_empty()
        assert empty.is_bounded()

    def test_bounded_polytope(self):
        assert simplex2d().is_bounded()


class TestVertices:
    def test_simplex_vertices(self):
        vertices = sorted(simplex2d().vertices())
        assert vertices == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        ]

    def test_cube_vertices(self):
        cube = Polyhedron.unit_cube(("x", "y", "z"))
        assert len(cube.vertices()) == 8

    def test_degenerate_segment(self):
        segment = polyhedron_of((y.eq(0)) & (x >= 0) & (x <= 1), ("x", "y"))
        vertices = sorted(segment.vertices())
        assert vertices == [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]

    def test_strict_constraints_use_closure(self):
        open_square = polyhedron_of(
            (x > 0) & (x < 1) & (y > 0) & (y < 1), ("x", "y")
        )
        assert len(open_square.vertices()) == 4


class TestSlicing:
    def test_fix_variable(self):
        simplex = simplex2d()
        slice_at = simplex.fix_variable("x", Fraction(1, 4))
        assert slice_at.variables == ("y",)
        assert vertex_span(slice_at, 0) == (0, Fraction(3, 4))

    def test_fix_unknown_variable(self):
        with pytest.raises(GeometryError):
            simplex2d().fix_variable("w", Fraction(0))


class TestFromVertices2D:
    def test_square_roundtrip(self):
        square = Polyhedron.from_vertices_2d(
            ("x", "y"),
            [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
             (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))],
        )
        assert square.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not square.contains((Fraction(2), Fraction(0)))
        assert sorted(square.vertices()) == [
            (Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
        ]

    def test_needs_three_vertices(self):
        with pytest.raises(GeometryError):
            Polyhedron.from_vertices_2d(("x", "y"), [(Fraction(0), Fraction(0))])
