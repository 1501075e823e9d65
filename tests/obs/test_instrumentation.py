"""Regression pins: the instrumented pipeline emits deterministic counts.

Two small fixed queries — one through the CAD decision procedure, one
through Fourier-Motzkin elimination — must produce exactly the counter
values recorded here.  A change in these numbers means the algorithms
explored a different search space; update the pins only with an
explanation of the algorithmic change.
"""

from fractions import Fraction

import pytest

from repro import obs
from repro.core import SumEvaluator, endpoints_range
from repro.db import FiniteInstance, Schema
from repro.engine import prepare
from repro.logic import Relation, Var, exists, variables
from repro.qe import qe_linear
from repro.qe.cad import decide

x, y = variables("x y")


class TestCadPins:
    def test_sqrt2_membership_counts(self):
        """exists x. x^2 = 2 and 0 < x < 2 — a one-variable CAD."""
        sentence = exists(x, (x * x).eq(2) & (0 < x) & (x < 2))
        obs.enable_counting()
        obs.reset()
        assert decide(sentence) is True
        counts = obs.REGISTRY.as_dict()
        assert counts["cad.decisions"] == 1
        assert counts["cad.cells"] == 9
        assert counts["cad.section_roots"] == 4
        assert counts["sturm.evaluations"] == 12
        assert counts["sturm.sign_changes"] == 11

    def test_cad_spans_nest(self):
        sentence = exists(x, (x * x).eq(2) & (0 < x) & (x < 2))
        with obs.observe("cad") as trace:
            decide(sentence)
        names = {r.name for r in trace.roots}
        assert "qe.cad.decide" in names
        root = next(r for r in trace.roots if r.name == "qe.cad.decide")
        child_names = {c.name for c in root.children}
        assert {"qe.cad.project", "qe.cad.lift"} <= child_names


class TestFourierMotzkinPins:
    def test_triangle_projection_counts(self):
        """exists y. 0 <= y <= x <= 1 — one linear elimination."""
        formula = exists(y, (0 <= y) & (y <= x) & (x <= 1))
        obs.enable_counting()
        obs.reset()
        qe_linear(formula)
        counts = obs.REGISTRY.as_dict()
        assert counts["fm.eliminations"] == 2
        assert counts["fm.constraints_pruned"] == 1
        assert counts["fm.disjuncts"] == 1

    def test_parallel_rows_counts(self):
        """exists y. 0 <= y, 2y <= x, y <= x, x <= 1 — the two lower bounds
        on x that y's elimination yields are the same normalized row."""
        formula = exists(y, (0 <= y) & (2 * y <= x) & (y <= x) & (x <= 1))
        obs.enable_counting()
        obs.reset()
        result = qe_linear(formula)
        counts = obs.REGISTRY.as_dict()
        assert str(result) == "x + (-1) <= 0 AND (-1) * x <= 0"
        assert counts["fm.eliminations"] == 2
        assert counts["fm.constraints_pruned"] == 2
        assert counts["fm.disjuncts"] == 1


class TestForallShapePins:
    """FORALL compiles: the answer cannot see a change in the DNF shape
    that dualisation hands to each block, these counts can."""

    @pytest.mark.parametrize("query, volume, cells, fm_counts", [
        (
            "FORALL u . (u < 0 OR u > 1 OR x + u <= 1 + y) AND EXISTS v . "
            "FORALL w . (w < 0 OR w > y OR (x <= v AND v + w <= 1))",
            Fraction(1, 4), 4,
            {"fm.eliminations": 36, "fm.disjuncts": 10,
             "fm.constraints_pruned": 2},
        ),
        (
            "FORALL u . FORALL w . "
            "(u < 0 OR u > x OR w < 0 OR w > y OR u + w <= 1)",
            Fraction(1, 2), 3,
            {"fm.eliminations": 10, "fm.disjuncts": 2},
        ),
        (
            "EXISTS u . FORALL v . "
            "((v < 0 OR v > 1) OR (x + v <= u + 1 AND u <= y AND 0 <= u))",
            Fraction(1, 2), 1,
            {"fm.eliminations": 11, "fm.disjuncts": 4,
             "fm.constraints_pruned": 3},
        ),
    ])
    def test_forall_compile_counts(self, query, volume, cells, fm_counts):
        obs.enable_counting()
        obs.reset()
        plan = prepare(query, cache=None)
        counts = obs.REGISTRY.as_dict()
        assert {k: v for k, v in counts.items() if k.startswith("fm.")} == fm_counts
        assert counts["volume.cells"] == cells
        assert plan.cell_count() == cells
        assert plan.volume() == volume


class TestEvaluatorCounts:
    def test_range_set_candidates(self):
        U = Relation("U", 1)
        schema = Schema.make({"U": 1})
        instance = FiniteInstance.make(
            schema, {"U": [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]}
        )
        rho = endpoints_range("w", U(Var("w")))
        obs.enable_counting()
        obs.reset()
        with obs.collect("eval") as trace:
            selected = SumEvaluator(instance).range_set(rho)
        counts = obs.REGISTRY.as_dict()
        assert len(selected) == 3
        assert counts["evaluator.range_selected"] == 3
        assert counts["evaluator.range_candidates"] >= 3
        assert trace.roots[0].name == "evaluator.range_set"

    def test_disabled_pipeline_emits_nothing(self):
        U = Relation("U", 1)
        schema = Schema.make({"U": 1})
        instance = FiniteInstance.make(schema, {"U": [1, 2]})
        rho = endpoints_range("w", U(Var("w")))
        obs.disable_counting()
        obs.reset()
        SumEvaluator(instance).range_set(rho)
        assert obs.REGISTRY.as_dict() == {}
