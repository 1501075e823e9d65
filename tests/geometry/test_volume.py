"""Exact volumes: the Theorem-3 slicing algorithm and unions."""

from fractions import Fraction

import pytest

from repro.logic import between, variables
from repro.geometry import (
    Polyhedron,
    formula_to_cells,
    formula_volume,
    formula_volume_unit_cube,
    polytope_volume,
    union_volume,
)
from repro.geometry.volume import _slab_weights
from repro._errors import GeometryError, UnboundedSetError

x, y, z, w, v = variables("x y z w v")


def cell(formula, names):
    (only,) = formula_to_cells(formula, names)
    return only


class TestSlabWeights:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_exact_for_every_degree_below_d(self, d):
        # The d weights integrate t^j over [0, 1] exactly for each j < d.
        weights = _slab_weights(d)
        assert len(weights) == d
        for j in range(d):
            nodes = (Fraction(k, d + 1) ** j for k in range(1, d + 1))
            assert sum(w * t for w, t in zip(weights, nodes)) == Fraction(1, j + 1)


class TestPolytopeVolume:
    def test_interval(self):
        assert polytope_volume(cell(between(0, x, Fraction(1, 3)), ("x",))) == Fraction(1, 3)

    def test_square(self):
        assert polytope_volume(Polyhedron.unit_cube(("x", "y"))) == 1

    def test_2d_simplex(self):
        simplex = cell((x >= 0) & (y >= 0) & (x + y <= 1), ("x", "y"))
        assert polytope_volume(simplex) == Fraction(1, 2)

    def test_3d_simplex(self):
        simplex = cell(
            (x >= 0) & (y >= 0) & (z >= 0) & (x + y + z <= 1), ("x", "y", "z")
        )
        assert polytope_volume(simplex) == Fraction(1, 6)

    def test_4d_simplex(self):
        simplex = cell(
            (x >= 0) & (y >= 0) & (z >= 0) & (w >= 0) & (x + y + z + w <= 1),
            ("x", "y", "z", "w"),
        )
        assert polytope_volume(simplex) == Fraction(1, 24)

    def test_5d_simplex(self):
        simplex = cell(
            (x >= 0) & (y >= 0) & (z >= 0) & (w >= 0) & (v >= 0)
            & (x + y + z + w + v <= 1),
            ("x", "y", "z", "w", "v"),
        )
        assert polytope_volume(simplex) == Fraction(1, 120)

    def test_scaled_cube(self):
        box = cell(
            between(0, x, 2) & between(Fraction(-1, 2), y, Fraction(1, 2)),
            ("x", "y"),
        )
        assert polytope_volume(box) == 2

    def test_strict_constraints_same_volume(self):
        open_square = cell((x > 0) & (x < 1) & (y > 0) & (y < 1), ("x", "y"))
        assert polytope_volume(open_square) == 1

    def test_lower_dimensional_is_zero(self):
        segment = cell(x.eq(y) & between(0, x, 1) & between(0, y, 1), ("x", "y"))
        assert polytope_volume(segment) == 0

    def test_empty_is_zero(self):
        from repro.qe import compare_to_constraints

        (c1,) = compare_to_constraints(x > 1)
        (c2,) = compare_to_constraints(x < 0)
        empty = Polyhedron.make(("x", "y"), [c1, c2])
        assert polytope_volume(empty) == 0

    def test_unbounded_raises(self):
        halfplane = cell(x >= 0, ("x", "y"))
        with pytest.raises(UnboundedSetError):
            polytope_volume(halfplane)

    def test_octahedron(self):
        # |x| + |y| + |z| <= 1 has volume 4/3; build one orthant and scale.
        octant = cell(
            (x >= 0) & (y >= 0) & (z >= 0) & (x + y + z <= 1), ("x", "y", "z")
        )
        assert 8 * polytope_volume(octant) == Fraction(4, 3)

    def test_matches_qhull(self):
        from repro.geometry import convex_hull_volume_float

        p = cell(
            (x >= 0) & (y >= 0) & (y <= 2 * x + 1) & (x + y <= 3), ("x", "y")
        )
        exact = polytope_volume(p)
        hull = convex_hull_volume_float([[float(a), float(b)] for a, b in p.vertices()])
        assert abs(float(exact) - hull) < 1e-9


class TestUnionVolume:
    def test_disjoint(self):
        a = cell(between(0, x, 1) & between(0, y, 1), ("x", "y"))
        b = cell(between(2, x, 3) & between(0, y, 1), ("x", "y"))
        assert union_volume([a, b]) == 2

    def test_overlapping(self):
        a = cell(between(0, x, 2) & between(0, y, 1), ("x", "y"))
        b = cell(between(1, x, 3) & between(0, y, 1), ("x", "y"))
        assert union_volume([a, b]) == 3

    def test_nested(self):
        outer = cell(between(0, x, 2) & between(0, y, 2), ("x", "y"))
        inner = cell(between(0, x, 1) & between(0, y, 1), ("x", "y"))
        assert union_volume([outer, inner]) == 4

    def test_empty_union(self):
        assert union_volume([]) == 0

    def test_triple_overlap(self):
        a = cell(between(0, x, 2), ("x",))
        b = cell(between(1, x, 3), ("x",))
        c = cell(between(2, x, 4), ("x",))
        assert union_volume([a, b, c]) == 4

    @pytest.mark.parametrize("d,expected", [
        (4, Fraction(31, 256)),
        (5, Fraction(63, 1024)),
    ])
    def test_overlapping_half_boxes_in_high_dimension(self, d, expected):
        # [0, 1/2]^d and [1/4, 3/4]^d overlap in [1/4, 1/2]^d.
        coords = (x, y, z, w, v)[:d]
        names = ("x", "y", "z", "w", "v")[:d]

        def box(low, high):
            formula = between(low, coords[0], high)
            for c in coords[1:]:
                formula = formula & between(low, c, high)
            return cell(formula, names)

        low = box(0, Fraction(1, 2))
        high = box(Fraction(1, 4), Fraction(3, 4))
        assert union_volume([low, high]) == expected

    def test_variable_mismatch_rejected(self):
        a = cell(between(0, x, 1), ("x",))
        b = cell(between(0, x, 1) & between(0, y, 1), ("x", "y"))
        with pytest.raises(GeometryError):
            union_volume([a, b])


class TestFormulaVolume:
    def test_union_formula(self):
        f = (between(0, x, 1) & between(0, y, 1)) | (
            between(Fraction(1, 2), x, Fraction(3, 2)) & between(0, y, 1)
        )
        assert formula_volume(f, ("x", "y")) == Fraction(3, 2)

    def test_neq_measure_zero(self):
        f = between(0, x, 1) & x.ne(Fraction(1, 2))
        assert formula_volume(f, ("x",)) == 1

    def test_quantified_query(self):
        from repro.logic import exists

        f = exists(z, between(0, z, 1) & x.eq(z) & between(0, y, x))
        # region: 0<=x<=1, 0<=y<=x -> area 1/2
        assert formula_volume(f, ("x", "y")) == Fraction(1, 2)

    def test_unit_cube_clip(self):
        f = (x + y >= 0)  # unbounded halfplane
        assert formula_volume_unit_cube(f, ("x", "y")) == 1

    def test_clip_partial(self):
        f = x + y <= 1
        assert formula_volume_unit_cube(f, ("x", "y")) == Fraction(1, 2)

    def test_arctan_style_epigraph_clipped(self):
        # VOL_I of { (x,y) : 0 <= y <= x } = 1/2 (paper's running shape)
        f = (0 <= y) & (y <= x)
        assert formula_volume_unit_cube(f, ("x", "y")) == Fraction(1, 2)

    def test_box_argument_validated(self):
        with pytest.raises(GeometryError):
            formula_volume(between(0, x, 1), ("x",), box=[(0, 1), (0, 1)])
