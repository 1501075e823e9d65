"""Budgets, checkpoints, and every exhaustion path of the resource governor."""

from fractions import Fraction

import pytest

from repro import QEError, ReproError, guard, obs
from repro.guard import (
    Budget,
    BudgetExceeded,
    CellBudgetExceeded,
    ConstraintBudgetExceeded,
    DeadlineExceeded,
    DepthBudgetExceeded,
    RetryBudgetExceeded,
    SizeBudgetExceeded,
    testing,
)
from repro.geometry import formula_volume_unit_cube
from repro.logic import conjunction, exists, forall, qf_to_dnf, variables
from repro.qe import qe_linear
from repro.qe.cad import decide

x, y, z = variables("x y z")

#: A 2-cell semi-linear query: enough checkpoints/cells to trip tiny budgets.
TRIANGLE = (0 <= y) & (y <= x) & (x <= 1)
UNION = (x < Fraction(1, 4)) | (x > Fraction(3, 4))


class TestBudgetObject:
    def test_caps_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=-1)
        with pytest.raises(ValueError):
            Budget(max_cells=-5)

    def test_unknown_charge_resource_rejected(self):
        with pytest.raises(ValueError):
            Budget().charge("polynomials")

    def test_clock_starts_once(self):
        budget = Budget(deadline_s=100)
        budget.start()
        first = budget.started_s
        budget.start()
        assert budget.started_s == first

    def test_reset_consumed_keeps_clock_and_checkpoints(self):
        budget = Budget()
        budget.start()
        budget.charge("cells", 3)
        budget.charge("constraints", 2)
        budget.check_size(7)
        budget.check_depth(4)
        budget.checkpoint()
        budget.reset_consumed()
        assert budget.cells == 0
        assert budget.constraints == 0
        assert budget.peak_size == 0
        assert budget.peak_depth == 0
        assert budget.checkpoints == 1
        assert budget.started_s is not None

    def test_repr_names_configured_caps(self):
        assert "max_cells=5" in repr(Budget(max_cells=5))
        assert repr(Budget()) == "Budget(unlimited)"

    def test_remaining_s_none_without_deadline(self):
        assert Budget().remaining_s() is None
        assert Budget(max_cells=10).remaining_s() is None

    def test_remaining_s_full_allowance_before_start(self):
        assert Budget(deadline_s=7.5).remaining_s() == 7.5

    def test_remaining_s_decreases_after_start(self):
        import time

        budget = Budget(deadline_s=60)
        budget.start()
        first = budget.remaining_s()
        assert first <= 60
        time.sleep(0.01)
        assert budget.remaining_s() < first

    def test_remaining_s_clamps_at_zero(self):
        import time

        budget = Budget(deadline_s=0.001)
        budget.start()
        time.sleep(0.01)
        assert budget.remaining_s() == 0.0


class TestExhaustionPaths:
    """One real (non-injected) trip per budgeted resource."""

    def test_deadline(self):
        with pytest.raises(DeadlineExceeded) as info:
            with guard.activate(Budget(deadline_s=0)):
                formula_volume_unit_cube(TRIANGLE, ("x", "y"))
        error = info.value
        assert error.resource == "deadline"
        assert error.limit == 0
        assert error.elapsed_s >= 0
        assert error.progress["checkpoints"] >= 1

    def test_cells_via_decomposition(self):
        with pytest.raises(CellBudgetExceeded) as info:
            with guard.activate(Budget(max_cells=1)):
                formula_volume_unit_cube(UNION, ("x",))
        assert info.value.consumed > info.value.limit == 1

    def test_cells_via_cad_lifting(self):
        with pytest.raises(CellBudgetExceeded):
            with guard.activate(Budget(max_cells=2)):
                decide(exists(x, (x * x).eq(2)))

    def test_constraints_via_fourier_motzkin(self):
        body = (0 <= z) & (z <= x) & (z <= y) & (x <= 1) & (y <= 1)
        with pytest.raises(ConstraintBudgetExceeded):
            with guard.activate(Budget(max_constraints=1)):
                qe_linear(exists(z, body))

    def test_size_via_dnf_expansion(self):
        # ((a or b) and (c or d) and ...) explodes to 2^k DNF conjuncts.
        clauses = [(x <= Fraction(i)) | (y <= Fraction(i)) for i in range(4)]
        formula = clauses[0]
        for clause in clauses[1:]:
            formula = formula & clause
        with pytest.raises(SizeBudgetExceeded) as info:
            with guard.activate(Budget(max_size=3)):
                qe_linear(exists(z, (z <= x) & formula))
        assert info.value.consumed > 3

    def test_size_trips_before_the_dnf_product_is_built(self):
        # 16 two-way ORs make 65,536 conjuncts; the cap trips up front.
        formula = conjunction(
            *((x <= Fraction(i)) | (y <= Fraction(i)) for i in range(16))
        )
        with pytest.raises(SizeBudgetExceeded) as info:
            with guard.activate(Budget(max_size=1000)):
                qf_to_dnf(formula)
        assert info.value.consumed == 2 ** 16
        assert info.value.progress["checkpoints"] < 1000

    def test_size_trips_before_the_negation_product_is_built(self):
        # Under EXISTS w the FORALL z result is negated: 16 two-row
        # conjuncts make 65,536 picks.
        w = variables("w")[0]
        matrix = conjunction(
            *((x <= Fraction(i)) | (y <= w + Fraction(i)) for i in range(16)),
            (z <= x) | (z >= x),
        )
        with pytest.raises(SizeBudgetExceeded) as info:
            with guard.activate(Budget(max_size=1000)):
                qe_linear(exists(w, forall(z, matrix)))
        assert info.value.consumed == 2 ** 16
        assert info.value.progress["checkpoints"] < 1000

    def test_depth_via_cad_recursion(self):
        with pytest.raises(DepthBudgetExceeded):
            with guard.activate(Budget(max_depth=1)):
                decide(exists(x, exists(y, (x * x + y * y) < 1)))

    def test_depth_cap_allows_shallow_queries(self):
        with guard.activate(Budget(max_depth=5)):
            assert decide(exists(x, (x * x).eq(2))) is True


class TestRetryBudget:
    """The retry budget the batch executor spends on transient failures."""

    def test_charges_then_trips(self):
        budget = Budget(max_retries=2)
        budget.charge("retries")
        budget.charge("retries")
        with pytest.raises(RetryBudgetExceeded) as info:
            budget.charge("retries")
        assert info.value.resource == "retries"
        assert budget.retries == 3
        assert budget.snapshot()["retries"] == 3
        assert budget.limits()["max_retries"] == 2

    def test_unlimited_without_cap(self):
        budget = Budget()
        for _ in range(10):
            budget.charge("retries")
        assert budget.retries == 10

    def test_reset_consumed_keeps_retry_history(self):
        # A per-attempt reset must never erase how many attempts there
        # were — that history is what quarantine decisions hang on.
        budget = Budget(max_retries=1)
        budget.charge("retries")
        budget.reset_consumed()
        assert budget.retries == 1
        with pytest.raises(RetryBudgetExceeded):
            budget.charge("retries")

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_retries=-1)

    def test_is_a_budget_exceeded(self):
        assert issubclass(RetryBudgetExceeded, BudgetExceeded)

    def test_injectable_via_trip_after(self):
        with testing.trip_after(1, resource="retries"):
            with pytest.raises(RetryBudgetExceeded):
                guard.checkpoint()


class TestErrorTaxonomy:
    def test_all_trips_are_repro_errors(self):
        assert issubclass(BudgetExceeded, ReproError)
        for cls in (DeadlineExceeded, CellBudgetExceeded,
                    ConstraintBudgetExceeded, SizeBudgetExceeded,
                    DepthBudgetExceeded):
            assert issubclass(cls, BudgetExceeded)

    def test_depth_exhaustion_is_also_a_qe_error(self):
        # Callers wrapping decide()/find_sample() in `except QEError` keep
        # working when the recursion budget trips.
        assert issubclass(DepthBudgetExceeded, QEError)

    def test_recursion_error_becomes_depth_budget_exceeded(self, monkeypatch):
        from repro.qe import cad

        def boom(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cad, "_stack_samples", boom)
        with pytest.raises(DepthBudgetExceeded) as info:
            decide(exists(x, (x * x).eq(2)))
        message = str(info.value)
        assert "variable order" in message
        assert "x" in message
        assert info.value.resource == "depth"

    def test_message_reports_consumption_and_progress(self):
        with pytest.raises(BudgetExceeded) as info:
            with guard.activate(Budget(max_cells=0)):
                formula_volume_unit_cube(TRIANGLE, ("x", "y"))
        assert "cells budget exceeded" in str(info.value)
        assert "progress:" in str(info.value)


class TestFaultInjection:
    def test_trips_exact_checkpoint(self):
        with testing.trip_after(2, resource="deadline") as spec:
            with pytest.raises(DeadlineExceeded):
                guard.checkpoint()
                guard.checkpoint()
        assert spec["count"] == 2

    def test_resource_picks_exception_class(self):
        for resource, cls in (
            ("cells", CellBudgetExceeded),
            ("constraints", ConstraintBudgetExceeded),
            ("size", SizeBudgetExceeded),
            ("depth", DepthBudgetExceeded),
        ):
            with testing.trip_after(1, resource=resource):
                with pytest.raises(cls):
                    guard.checkpoint()

    def test_times_bounds_the_trips(self):
        with testing.trip_after(1, resource="cells", times=2):
            for _ in range(2):
                with pytest.raises(CellBudgetExceeded):
                    guard.checkpoint()
            guard.checkpoint()  # injector is inert after two trips

    def test_injection_works_without_a_budget(self):
        # The injector rides the checkpoint hook even when ungoverned.
        with testing.trip_after(1):
            with pytest.raises(DeadlineExceeded):
                formula_volume_unit_cube(TRIANGLE, ("x", "y"))

    def test_validation(self):
        with pytest.raises(ValueError):
            with testing.trip_after(0):
                pass
        with pytest.raises(ValueError):
            with testing.trip_after(1, resource="entropy"):
                pass

    def test_injector_uninstalled_on_exit(self):
        with testing.trip_after(1, times=1):
            with pytest.raises(DeadlineExceeded):
                guard.checkpoint()
        guard.checkpoint()  # no spec left behind


class TestContextManagement:
    def test_checkpoint_is_noop_when_ungoverned(self):
        assert guard.active() is None
        guard.checkpoint()
        guard.charge("cells", 10)
        guard.check_size(10**9)
        guard.check_depth(10**9)

    def test_govern_none_is_noop(self):
        with guard.govern(None):
            assert guard.active() is None

    def test_activate_installs_and_restores(self):
        budget = Budget(max_cells=100)
        with guard.activate(budget) as installed:
            assert installed is budget
            assert guard.active() is budget
        assert guard.active() is None

    def test_nested_activation_restores_outer(self):
        outer, inner = Budget(), Budget()
        with guard.activate(outer):
            with guard.activate(inner):
                assert guard.active() is inner
            assert guard.active() is outer

    def test_suspend_pauses_budget_and_injection(self):
        budget = Budget(deadline_s=0)
        with guard.activate(budget):
            with testing.trip_after(1):
                with guard.suspend():
                    assert guard.active() is None
                    guard.checkpoint()  # neither deadline nor injection fires
                with pytest.raises(BudgetExceeded):
                    guard.checkpoint()


class TestObsIntegration:
    def test_trip_counters(self):
        obs.enable("guard-test")
        try:
            with pytest.raises(CellBudgetExceeded):
                with guard.activate(Budget(max_cells=0)):
                    formula_volume_unit_cube(TRIANGLE, ("x", "y"))
            assert obs.REGISTRY.value("guard.trips") == 1
            assert obs.REGISTRY.value("guard.trips.cells") == 1
        finally:
            obs.disable()

    def test_checkpoints_flushed_on_deactivation(self):
        obs.enable("guard-test")
        try:
            budget = Budget(deadline_s=60)
            with guard.activate(budget):
                for _ in range(5):
                    guard.checkpoint()
                assert obs.REGISTRY.value("guard.checkpoints") == 0
            assert obs.REGISTRY.value("guard.checkpoints") == 5
            with guard.activate(budget):
                guard.checkpoint()
            # Re-activation flushes only the fresh delta.
            assert obs.REGISTRY.value("guard.checkpoints") == 6
        finally:
            obs.disable()

    def test_guard_metrics_are_catalogued(self):
        for name in ("guard.checkpoints", "guard.trips", "guard.trips.deadline",
                     "guard.trips.cells", "guard.trips.constraints",
                     "guard.trips.size", "guard.trips.depth",
                     "guard.fallback_transitions"):
            kind, description = obs.CATALOGUE[name]
            assert kind == "counter"
            assert description
