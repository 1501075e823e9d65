"""Approximation operators: trivial, Monte Carlo, KM cost model, convex."""

import math
from fractions import Fraction

import pytest

from repro.approx import (
    convex_relative_approximation,
    epsilon_band_to_relative,
    is_valid_absolute_approximation,
    is_valid_relative_approximation,
    john_band,
    km_cost,
    km_cost_for_query,
    trivial_vol_approximation,
)
from repro.db import FiniteInstance, Schema
from repro.geometry import formula_to_cells, formula_volume_unit_cube
from repro.geometry.sampling import hoeffding_volume
from repro.logic import Relation, between, variables
from repro._errors import ApproximationError

x, y = variables("x y")


class TestOperatorChecks:
    def test_absolute(self):
        assert is_valid_absolute_approximation(0.45, 0.5, 0.1)
        assert not is_valid_absolute_approximation(0.3, 0.5, 0.1)
        with pytest.raises(ApproximationError):
            is_valid_absolute_approximation(0.5, 0.5, 0)

    def test_relative(self):
        assert is_valid_relative_approximation(0.9, 1.0, 0.5, 1.5)
        assert not is_valid_relative_approximation(2.0, 1.0, 0.5, 1.5)
        with pytest.raises(ApproximationError):
            is_valid_relative_approximation(1.0, 0.0, 0.5, 1.5)

    def test_band_conversion(self):
        assert epsilon_band_to_relative(0.25) == (0.75, 1.25)
        with pytest.raises(ApproximationError):
            epsilon_band_to_relative(1.0)


class TestTrivialApproximation:
    def test_middle_returns_half(self):
        f = between(0, x, Fraction(1, 3))
        assert trivial_vol_approximation(f, ("x",)) == Fraction(1, 2)

    def test_empty_returns_zero(self):
        f = (x > 2) & (x < 3)  # outside the unit cube
        assert trivial_vol_approximation(f, ("x",)) == 0

    def test_full_returns_one(self):
        f = x > -1
        assert trivial_vol_approximation(f, ("x",)) == 1

    def test_is_a_valid_half_approximation(self):
        for f in [between(0, x, Fraction(1, 3)), x > Fraction(9, 10), x > 2]:
            estimate = trivial_vol_approximation(f, ("x",))
            truth = formula_volume_unit_cube(f, ("x",))
            assert abs(estimate - truth) <= Fraction(1, 2)

    def test_epsilon_below_half_rejected(self):
        with pytest.raises(ApproximationError):
            trivial_vol_approximation(x > 0, ("x",), epsilon=0.4)


class TestMonteCarlo:
    def test_epsilon_delta_contract(self, rng):
        f = x**2 + y**2 < 1
        estimate = hoeffding_volume(f, ("x", "y"), 0.05, 0.05, rng)
        assert abs(estimate.estimate - math.pi / 4) < 0.05


class TestKMCostModel:
    def test_paper_example_floors(self):
        """The Section 3 example: eps = 1/10, n = 100 -> >= 1e9 atoms and
        >= 1e11 quantifiers."""
        schema = Schema.make({"U": 1})
        U = Relation("U", 1)
        x1, x2, y1, y2 = variables("x1 x2 y1 y2")
        phi = U(x1) & U(x2) & (x1 < y1) & (y1 < x2) & (0 <= y2) & (y2 <= y1)
        D = FiniteInstance.make(
            schema, {"U": [Fraction(i, 101) for i in range(1, 101)]}
        )
        cost = km_cost_for_query(phi, D, param_vars=2, point_vars=2, epsilon=0.1)
        assert cost.plugged_atoms > 2 * 100  # "> 2n atomic subformulae"
        assert cost.atoms >= 10**9
        assert cost.quantifiers >= 10**11

    def test_cost_grows_as_epsilon_shrinks(self):
        small = km_cost(0.5, plugged_atoms=100, point_arity=2, param_arity=2,
                        database_size=50)
        large = km_cost(0.01, plugged_atoms=100, point_arity=2, param_arity=2,
                        database_size=50)
        assert large.atoms > small.atoms
        assert large.quantifiers > small.quantifiers

    def test_cost_grows_with_database(self):
        small = km_cost(0.1, plugged_atoms=24, point_arity=2, param_arity=2,
                        database_size=10)
        large = km_cost(0.1, plugged_atoms=204, point_arity=2, param_arity=2,
                        database_size=100)
        assert large.atoms > small.atoms

    def test_validation(self):
        with pytest.raises(ApproximationError):
            km_cost(1.5, 10, 1, 1, 10)
        with pytest.raises(ApproximationError):
            km_cost(0.1, 0, 1, 1, 10)

    def test_summary_renders(self):
        cost = km_cost(0.25, 10, 1, 1, 10)
        assert "eps=0.25" in cost.summary()


class TestConvexApproximation:
    def test_john_band_values(self):
        c1, c2 = john_band(2)
        assert c1 == pytest.approx(5 / 8)
        assert c2 == pytest.approx(5 / 2)
        c1_3, c2_3 = john_band(3)
        assert c1_3 == pytest.approx(28 / 54)
        assert c2_3 == pytest.approx(14.0)

    def test_estimate_within_band_square(self):
        (square,) = formula_to_cells(
            between(0, x, 1) & between(0, y, 1), ("x", "y")
        )
        estimate, (c1, c2) = convex_relative_approximation(square)
        ratio = estimate / 1.0
        assert c1 - 1e-6 < ratio < c2 + 1e-6

    def test_estimate_within_band_triangle(self):
        (tri,) = formula_to_cells(
            (x >= 0) & (y >= 0) & (x + y <= 1), ("x", "y")
        )
        estimate, (c1, c2) = convex_relative_approximation(tri)
        ratio = estimate / 0.5
        assert c1 - 1e-6 < ratio < c2 + 1e-6

    def test_band_requires_positive_dimension(self):
        with pytest.raises(ApproximationError):
            john_band(0)
