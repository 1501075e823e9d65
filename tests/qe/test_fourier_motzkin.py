"""Fourier-Motzkin quantifier elimination for FO + LIN."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    Relation,
    conjunction,
    evaluate,
    exists,
    exists_adom,
    forall,
    variables,
)
from repro.qe import (
    LinConstraint,
    decide_linear,
    eliminate_variable,
    formula_rows,
    is_feasible,
    qe_linear,
)
from repro._errors import QEError

x, y, z = variables("x y z")


def equivalent_on_grid(f, g, names, grid=None):
    """Exact semantic comparison of two quantifier-free formulas on a grid."""
    if grid is None:
        grid = [Fraction(n, 2) for n in range(-4, 5)]
    import itertools

    for point in itertools.product(grid, repeat=len(names)):
        env = dict(zip(names, point))
        if evaluate(f, env) != evaluate(g, env):
            return False, env
    return True, None


class TestEliminateVariable:
    def test_transitivity(self):
        (constraints,) = formula_rows(conjunction(x < y, y < z))
        result = eliminate_variable("y", constraints)
        assert result is not None
        assert len(result) == 1
        assert result[0].op == "<"

    def test_equality_substitution(self):
        (constraints,) = formula_rows(conjunction(y.eq(x + 1), y < 3))
        result = eliminate_variable("y", constraints)
        assert result is not None
        # x + 1 < 3  i.e.  x < 2
        assert result[0].evaluate({"x": Fraction(1)}) is True
        assert result[0].evaluate({"x": Fraction(2)}) is False

    def test_no_bounds_is_vacuous(self):
        (constraints,) = formula_rows(conjunction(y > x))  # only a lower bound
        result = eliminate_variable("y", constraints)
        assert result == []

    def test_infeasible_detected(self):
        (constraints,) = formula_rows(conjunction(y < x, y > x))
        result = eliminate_variable("y", constraints)
        # Combining the bounds gives x - x < 0, a constant-false
        # constraint, so the whole conjunct is reported infeasible.
        assert result is None

    def test_strictness_propagates(self):
        (constraints,) = formula_rows(conjunction(x <= y, y <= z))
        result = eliminate_variable("y", constraints)
        assert result[0].op == "<="


class TestQELinear:
    def test_transitive_closure(self):
        f = exists(y, (x < y) & (y < z))
        g = qe_linear(f)
        ok, witness = equivalent_on_grid(g, x < z, ["x", "z"])
        assert ok, witness

    def test_forall(self):
        f = forall(y, (y > x) | (y < z))
        g = qe_linear(f)
        # holds iff x < z
        ok, witness = equivalent_on_grid(g, x < z, ["x", "z"])
        assert ok, witness

    def test_neq_handled(self):
        f = exists(y, y.ne(0) & (y < x) & (y > -x))
        g = qe_linear(f)
        # exists y != 0 in (-x, x): true iff x > 0
        ok, witness = equivalent_on_grid(g, x > 0, ["x"])
        assert ok, witness

    def test_free_variables_preserved(self):
        f = exists(y, (x < y) & (y < z))
        assert qe_linear(f).free_variables() <= {"x", "z"}

    def test_rejects_relations(self):
        R = Relation("R", 1)
        with pytest.raises(QEError):
            qe_linear(exists(y, R(y)))

    def test_rejects_adom_quantifiers(self):
        with pytest.raises(QEError):
            qe_linear(exists_adom(y, y < x))

    def test_nested_quantifiers(self):
        f = exists(y, (x < y) & exists(z, (y < z) & (z < 1)))
        g = qe_linear(f)
        ok, witness = equivalent_on_grid(g, x < 1, ["x"])
        assert ok, witness

    def test_rational_coefficients(self):
        f = exists(y, (3 * y).eq(x) & (y > Fraction(1, 3)))
        g = qe_linear(f)
        ok, witness = equivalent_on_grid(g, x > 1, ["x"])
        assert ok, witness


class TestDecide:
    def test_density(self):
        assert decide_linear(forall(x, forall(y, (x < y).implies(
            exists(z, (x < z) & (z < y)))))) is True

    def test_unboundedness(self):
        assert decide_linear(forall(x, exists(y, y > x))) is True

    def test_false_sentence(self):
        assert decide_linear(exists(x, (x < 0) & (x > 0))) is False

    def test_rejects_free_variables(self):
        with pytest.raises(QEError):
            decide_linear(x < 1)


class TestFeasibility:
    def test_feasible(self):
        (constraints,) = formula_rows(conjunction(x > 0, x < 1, y > x))
        assert is_feasible(constraints) is True

    def test_infeasible(self):
        (constraints,) = formula_rows(conjunction(x > y, y > z, z > x))
        assert is_feasible(constraints) is False

    def test_tight_equality_feasible(self):
        (constraints,) = formula_rows(conjunction(x.eq(1), x >= 1, x <= 1))
        assert is_feasible(constraints) is True

    def test_empty_is_feasible(self):
        assert is_feasible([]) is True

    def test_scaled_equality_elimination(self):
        # 2x - 4y = 2 fixes y = (x - 1)/2, a pivot coefficient of -2 on y:
        # x + y < 0 becomes 3x - 1 < 0 and y >= -1 becomes x >= -1.
        (constraints,) = formula_rows(
            conjunction((2 * x - 4 * y).eq(2), x + y < 0, y >= -1)
        )
        assert eliminate_variable("y", constraints) == [
            LinConstraint.make({"x": -1}, -1, "<="),
            LinConstraint.make({"x": 3}, -1, "<"),
        ]
        assert is_feasible(constraints) is True
        assert is_feasible(constraints + formula_rows(conjunction(y >= 0))[0]) is False

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_systems_holding_at_a_point_are_feasible(self, data):
        """Rows built to hold at a rational point: feasible; adding the
        opposite parallel of one of them with a gap: infeasible."""
        names = ("x", "y", "z")
        point = {n: data.draw(st.fractions(-3, 3, max_denominator=4)) for n in names}
        mode = data.draw(st.sampled_from(["mixed", "strict", "flat"]))
        ops = {"mixed": ["<", "<=", "="], "strict": ["<"], "flat": ["=", "<="]}[mode]
        rows = []
        for _ in range(data.draw(st.integers(1, 5))):
            coeffs = {n: data.draw(st.integers(-3, 3)) for n in names}
            if not any(coeffs.values()):
                coeffs["x"] = 1
            op = data.draw(st.sampled_from(ops))
            slack = 0 if op == "=" else data.draw(
                st.sampled_from([Fraction(1, 2), 1] if op == "<" else [0, 0, Fraction(1, 3)])
            )
            at_point = sum(c * point[n] for n, c in coeffs.items())
            rows.append(LinConstraint.make(coeffs, -at_point - slack, op))
        assert all(row.evaluate(point) for row in rows)
        assert is_feasible(rows) is True
        # row: a.v + c OP 0 caps a.v at -c; the opposite row demands more.
        row = data.draw(st.sampled_from(rows))
        gap = data.draw(st.sampled_from([Fraction(1, 5), 1]))
        opposite = LinConstraint.make(
            {n: -c for n, c in row.coeffs}, -row.constant + gap,
            data.draw(st.sampled_from(["<", "<="])),
        )
        assert is_feasible(rows + [opposite]) is False
