"""The exact -> approximate degradation ladder (``robust_volume``)."""

from fractions import Fraction

import numpy as np
import pytest

from repro import ApproximationError, guard, obs
from repro.guard import (
    Budget,
    BudgetExceeded,
    DeadlineExceeded,
    RobustResult,
    robust_volume,
    testing,
)
from repro.logic import exists, variables

x, y, z = variables("x y z")

TRIANGLE = (0 <= y) & (y <= x) & (x <= 1)


def rng():
    return np.random.default_rng(0)


def find_spans(trace, name):
    found = []

    def walk(record):
        if record.name == name:
            found.append(record)
        for child in record.children:
            walk(child)

    for root in trace.roots:
        walk(root)
    return found


class TestExactRung:
    def test_no_budget_stays_exact(self):
        result = robust_volume(TRIANGLE, ("x", "y"))
        assert result.mode == "exact"
        assert result.value == Fraction(1, 2)
        assert isinstance(result.value, Fraction)
        assert result.confidence_radius is None
        assert result.attempts == []

    def test_ample_budget_stays_exact(self):
        result = robust_volume(
            TRIANGLE, ("x", "y"), budget=Budget(deadline_s=60, max_cells=10**6)
        )
        assert result.mode == "exact"
        assert result.value == Fraction(1, 2)

    def test_uses_contextually_active_budget(self):
        with guard.activate(Budget(deadline_s=0)):
            with pytest.raises(DeadlineExceeded):
                robust_volume(TRIANGLE, ("x", "y"), policy="off")

    def test_float_protocol(self):
        assert float(robust_volume(TRIANGLE, ("x", "y"))) == 0.5

    def test_variables_default_to_sorted_free_variables(self):
        result = robust_volume(TRIANGLE)
        assert result.value == Fraction(1, 2)

    def test_custom_box(self):
        box = [(Fraction(0), Fraction(2)), (Fraction(0), Fraction(2))]
        result = robust_volume(TRIANGLE, ("x", "y"), box=box)
        # The triangle is unchanged; only the integration box grew.
        assert result.value == Fraction(1, 2)


class TestDegradation:
    def test_one_trip_degrades_to_exact_coarse(self):
        # Kill exactly the first rung; the prune-free retry still succeeds.
        with testing.trip_after(1, resource="cells", times=1):
            result = robust_volume(TRIANGLE, ("x", "y"), policy="auto")
        assert result.mode == "exact-coarse"
        assert result.value == Fraction(1, 2)
        assert [mode for mode, _ in result.attempts] == ["exact"]

    @pytest.mark.parametrize("cap, mode, attempts", [
        (25, "exact-coarse", [("exact", "constraints")]),
        (28, "exact", []),
    ])
    def test_coarse_rung_rescues_a_constraint_cap(self, cap, mode, attempts):
        # The feasibility prune charges the Fourier-Motzkin rows of its own
        # tests; the unpruned compile does not, so it fits a tighter cap.
        # Evaluating the volume charges only its feasibility tests: caps
        # 23-27 end exact-coarse, 28 and up exact.
        result = robust_volume(
            "EXISTS a . (0 <= a AND a <= 1 AND x <= a AND y <= 1 - a"
            " AND 0 <= x AND 0 <= y)",
            ("x", "y"), budget=Budget(max_constraints=cap), policy="auto",
        )
        assert result.mode == mode
        assert result.value == Fraction(1, 2)
        assert [(m, e.resource) for m, e in result.attempts] == attempts

    def test_deadline_degrades_to_approximate(self):
        result = robust_volume(
            TRIANGLE, ("x", "y"), budget=Budget(deadline_s=0), policy="auto",
            epsilon=0.1, delta=0.05, rng=rng(),
        )
        assert result.mode == "approximate"
        assert [mode for mode, _ in result.attempts] == ["exact", "exact-coarse"]
        assert all(isinstance(e, DeadlineExceeded) for _, e in result.attempts)
        assert abs(result.value - 0.5) < 0.1
        assert result.confidence_radius is not None
        assert result.samples >= 1
        assert result.epsilon == 0.1

    def test_policy_off_propagates_first_exhaustion(self):
        with pytest.raises(DeadlineExceeded):
            robust_volume(
                TRIANGLE, ("x", "y"), budget=Budget(deadline_s=0), policy="off"
            )

    def test_approx_only_skips_exact_rungs(self):
        result = robust_volume(
            TRIANGLE, ("x", "y"), policy="approx-only", epsilon=0.1, rng=rng()
        )
        assert result.mode == "approximate"
        assert result.attempts == []
        assert abs(result.value - 0.5) < 0.1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ApproximationError):
            robust_volume(TRIANGLE, ("x", "y"), policy="yolo")

    def test_countable_consumption_reset_between_rungs(self):
        # A cell budget the exact rungs each exceed on their own still lets
        # both rungs *start* from zero: the first injected trip consumes the
        # injector, then the coarse rung finishes within the real cap.
        budget = Budget(max_cells=10)
        with testing.trip_after(1, resource="cells", times=1):
            result = robust_volume(
                TRIANGLE, ("x", "y"), budget=budget, policy="auto"
            )
        assert result.mode == "exact-coarse"
        assert budget.cells <= 10

    def test_quantified_formula_falls_back_through_qe(self):
        # The approximate rung must eliminate quantifiers before sampling.
        formula = exists(z, (0 <= z) & (z <= y) & (y <= x) & (x <= 1))
        result = robust_volume(
            formula, ("x", "y"), policy="approx-only", epsilon=0.1, rng=rng()
        )
        assert result.mode == "approximate"
        assert abs(result.value - 0.5) < 0.1


class TestObsIntegration:
    def test_fallback_transitions_counted_and_span_annotated(self):
        trace = obs.enable("fallback-test")
        try:
            robust_volume(
                TRIANGLE, ("x", "y"), budget=Budget(deadline_s=0),
                policy="auto", rng=rng(),
            )
            assert obs.REGISTRY.value("guard.fallback_transitions") == 2
            assert obs.REGISTRY.value("guard.trips.deadline") == 2
            (span,) = find_spans(trace, "guard.robust_volume")
            assert span.attrs["policy"] == "auto"
            assert span.attrs["deadline_s"] == 0
            assert span.attrs["mode"] == "approximate"
        finally:
            obs.disable()

    def test_exact_span_mode(self):
        trace = obs.enable("fallback-test")
        try:
            robust_volume(TRIANGLE, ("x", "y"))
            (span,) = find_spans(trace, "guard.robust_volume")
            assert span.attrs["mode"] == "exact"
        finally:
            obs.disable()


class TestRobustResult:
    def test_is_importable_from_guard(self):
        assert RobustResult is not None
        assert isinstance(robust_volume(TRIANGLE, ("x", "y")), RobustResult)

    def test_attempt_errors_are_budget_exceeded(self):
        result = robust_volume(
            TRIANGLE, ("x", "y"), budget=Budget(deadline_s=0), policy="auto",
            rng=rng(),
        )
        for _, error in result.attempts:
            assert isinstance(error, BudgetExceeded)
