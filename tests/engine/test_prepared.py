"""Prepared queries: compile once, evaluate many, agree with cold paths."""

from fractions import Fraction

import numpy as np
import pytest

from repro import obs
from repro._errors import EvaluationError, QEError, ReproError
from repro.engine import PlanCache, PreparedQuery, prepare
from repro.geometry import formula_volume_unit_cube
from repro.geometry.sampling import hit_or_miss_volume, hoeffding_sample_size
from repro.guard import Budget, BudgetExceeded, robust_volume
from repro.logic import evaluate, parse
from repro.qe import qe_linear

TRIANGLE = "0 <= y AND y <= x AND x <= 1"
BAND = "EXISTS z . (y <= z AND z <= x AND 0 <= z AND z <= 1)"


class TestVolume:
    def test_triangle(self):
        plan = prepare(TRIANGLE, cache=None)
        assert plan.volume() == Fraction(1, 2)
        assert plan.variables == ("x", "y")
        assert plan.cell_count() >= 1

    def test_matches_cold_path(self):
        for text in (TRIANGLE, "x < 1/4 OR x > 3/4", BAND):
            plan = prepare(text, cache=None)
            cold = formula_volume_unit_cube(parse(text), plan.variables)
            assert plan.volume() == cold

    def test_box_clipping(self):
        plan = prepare(TRIANGLE, cache=None)
        half = [(Fraction(0), Fraction(1, 2))] * 2
        assert plan.volume(half) == Fraction(1, 8)
        # Memoized per box: both boxes stay resolvable afterwards.
        assert plan.volume() == Fraction(1, 2)
        assert plan.volume(half) == Fraction(1, 8)

    def test_memo_hit_counter(self):
        plan = prepare(TRIANGLE, cache=None)
        obs.enable_counting()
        plan.volume()
        plan.volume()
        plan.volume()
        counts = obs.REGISTRY.as_dict()
        assert counts["engine.eval.volume"] == 1
        assert counts["engine.eval.memo_hit"] == 2

    def test_bad_box_rejected(self):
        plan = prepare(TRIANGLE, cache=None)
        with pytest.raises(EvaluationError, match="bounds for all"):
            plan.volume([(Fraction(0), Fraction(1))])


class TestTruth:
    def test_membership(self):
        plan = prepare(TRIANGLE, cache=None)
        assert plan.truth({"x": Fraction(1, 2), "y": Fraction(1, 4)})
        assert not plan.truth({"x": Fraction(1, 4), "y": Fraction(1, 2)})

    def test_agrees_with_evaluate(self):
        formula = parse(TRIANGLE)
        plan = prepare(formula, cache=None)
        grid = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        for a in grid:
            for b in grid:
                env = {"x": a, "y": b}
                assert plan.truth(env) == evaluate(formula, env)


class TestApprox:
    def test_bitwise_identical_to_cold_run(self):
        """The ladder's Monte Carlo rung samples the QE'd query, no plan."""
        epsilon = delta = 0.2
        estimate = robust_volume(
            BAND, epsilon=epsilon, delta=delta, policy="approx-only",
            rng=np.random.default_rng(7),
        )
        samples = hoeffding_sample_size(epsilon, delta)
        cold = hit_or_miss_volume(
            qe_linear(parse(BAND)), ("x", "y"), samples,
            np.random.default_rng(7), box=[(0.0, 1.0)] * 2, delta=delta,
        )
        assert estimate.value == cold.estimate
        assert estimate.samples == cold.samples
        assert estimate.confidence_radius == cold.confidence_radius
        assert estimate.plan is None


class TestRobust:
    """The guard ladder's exact rung reuses a plan warmed by prepare."""

    @staticmethod
    def _warm_cache():
        cache = PlanCache()
        prepare(TRIANGLE, cache=cache)
        return cache

    def test_exact_mode(self):
        cache = self._warm_cache()
        result = robust_volume(TRIANGLE, cache=cache)
        assert result.mode == "exact"
        assert result.value == Fraction(1, 2)
        assert result.plan is prepare(TRIANGLE, cache=cache)

    def test_fallback_to_approximate(self):
        result = robust_volume(
            TRIANGLE,
            cache=self._warm_cache(),
            epsilon=0.2, delta=0.2,
            budget=Budget(deadline_s=0.0),
            policy="auto",
            rng=np.random.default_rng(3),
        )
        assert result.mode == "approximate"
        assert result.attempts and result.attempts[0][0] == "exact"
        assert 0.0 <= result.value <= 1.0

    def test_policy_off_raises(self):
        with pytest.raises(BudgetExceeded):
            robust_volume(
                TRIANGLE, cache=self._warm_cache(),
                budget=Budget(deadline_s=0.0), policy="off",
            )


class TestDecide:
    def test_sentence_decided_at_compile_time(self):
        plan = prepare(
            "EXISTS x . (x*x = 2 AND 0 < x AND x < 2)", kind="decide", cache=None
        )
        assert plan.decide() is True
        assert prepare(
            "EXISTS x . (x*x = -1)", kind="decide", cache=None
        ).decide() is False

    def test_free_variables_rejected(self):
        with pytest.raises(QEError, match="sentence"):
            prepare("x*x < 2", kind="decide", cache=None)

    def test_kind_mismatch_guards(self):
        decide_plan = prepare("EXISTS x . x*x = 2", kind="decide", cache=None)
        volume_plan = prepare(TRIANGLE, cache=None)
        with pytest.raises(EvaluationError, match="kind='volume'"):
            decide_plan.volume()
        with pytest.raises(EvaluationError, match="kind='decide'"):
            volume_plan.decide()

    def test_unknown_kind(self):
        with pytest.raises(EvaluationError, match="unknown plan kind"):
            prepare(TRIANGLE, kind="integrate", cache=None)


class TestCompile:
    def test_quantified_queries_run_qe(self):
        plan = prepare(BAND, cache=None)
        stage_names = [name for name, _ in plan.provenance.stages]
        assert "qe" in stage_names
        assert "decompose" in stage_names
        assert plan.volume() == Fraction(1, 2)

    def test_provenance_records_stages(self):
        plan = prepare(TRIANGLE, cache=None)
        stage_names = [name for name, _ in plan.provenance.stages]
        assert stage_names[:2] == ["parse", "canonicalize"]
        assert plan.provenance.source == "compiled"
        assert plan.provenance.compile_s >= 0.0

    def test_quantified_nonlinear_rejected(self):
        with pytest.raises(QEError, match="not semi-linear"):
            prepare("EXISTS y . (y*y < x)", cache=None)

    def test_compile_budget_is_enforced(self):
        with pytest.raises(BudgetExceeded):
            prepare(BAND, cache=None, budget=Budget(deadline_s=0.0))

    def test_cache_hit_skips_compilation(self):
        cache = PlanCache()
        obs.enable_counting()
        prepare(TRIANGLE, cache=cache)
        plan = prepare(TRIANGLE, cache=cache)
        counts = obs.REGISTRY.as_dict()
        assert counts["engine.compile"] == 1
        assert counts["engine.cache.hit"] == 1
        assert plan.volume() == Fraction(1, 2)


class TestCacheIntegration:
    def test_semantic_variants_share_a_plan(self):
        cache = PlanCache()
        first = prepare("0 <= y AND y <= x AND x <= 1", cache=cache)
        second = prepare("x <= 1 AND y <= x AND 0 <= y", cache=cache)
        assert second is first
        assert cache.stats.hits == 1

    def test_comma_in_variable_cannot_reach_a_warm_plan(self):
        # ("x,y",) and ("x", "y") joined to the same key payload, so a
        # warm cache answered a query a cold run rejects.
        cache = PlanCache()
        prepare(TRIANGLE, ("x", "y"), cache=cache)
        with pytest.raises(EvaluationError):
            prepare(TRIANGLE, ("x,y",), cache=cache)
        with pytest.raises(EvaluationError):
            prepare(TRIANGLE, ("x", "x"), cache=cache)
        assert cache.stats.hits == 0

    def test_cache_none_always_compiles(self):
        first = prepare(TRIANGLE, cache=None)
        second = prepare(TRIANGLE, cache=None)
        assert second is not first


class TestPersistence:
    def test_record_roundtrip_volume(self):
        plan = prepare(BAND, cache=None)
        clone = PreparedQuery.from_record(plan.to_record())
        assert clone.key == plan.key
        assert clone.kind == plan.kind
        assert clone.variables == plan.variables
        assert clone.volume() == plan.volume()
        assert clone.provenance.source == "store"

    def test_v1_record_with_a_witness_decodes(self):
        """Older writers stored a CAD witness point; readers ignore it."""
        record = prepare(TRIANGLE, cache=None).to_record()
        assert "witness" not in record
        record["witness"] = {"x": "1/2", "y": "1/4"}
        clone = PreparedQuery.from_record(record)
        assert clone.key == record["key"]
        assert clone.volume() == Fraction(1, 2)

    def test_record_roundtrip_decide(self):
        plan = prepare("EXISTS x . x*x = 2", kind="decide", cache=None)
        clone = PreparedQuery.from_record(plan.to_record())
        assert clone.decide() == plan.decide()

    def test_record_with_unknown_schema_is_rejected(self):
        record = prepare(TRIANGLE, cache=None).to_record()
        assert record["schema"] == "repro.engine.plan/v1"
        record["schema"] = "repro.engine.plan/v999"
        with pytest.raises(ReproError, match="unknown schema"):
            PreparedQuery.from_record(record)

    def test_v1_record_with_fractional_rows_decodes_normalized(self):
        """Records written before rows were primitive integers still load."""
        text = "0 <= y AND 2*y <= x AND x <= 1"
        fresh = prepare(text, cache=None)
        record = {
            "schema": "repro.engine.plan/v1", "kind": "volume",
            "key": fresh.key, "text": fresh.text, "variables": ["x", "y"],
            "qf": fresh.text,
            "cells": [[
                {"coeffs": {"x": "-1/2", "y": "1"}, "constant": "0", "op": "<="},
                {"coeffs": {"y": "-1/3"}, "constant": "0", "op": "<="},
                {"coeffs": {"x": "2"}, "constant": "-2", "op": "<="},
            ]],
            "decision": None, "witness": None, "provenance": {},
        }
        plan = PreparedQuery.from_record(record)
        (cell,) = plan.cells
        assert [(c.coeffs, c.constant) for c in cell.constraints] == [
            ((("x", -1), ("y", 2)), 0), ((("y", -1),), 0), ((("x", 1),), -1),
        ]
        assert plan.volume() == fresh.volume() == Fraction(1, 4)

    def test_record_is_jsonable(self):
        import json

        plan = prepare(TRIANGLE, cache=None)
        text = json.dumps(plan.to_record())
        clone = PreparedQuery.from_record(json.loads(text))
        assert clone.volume() == plan.volume()
