"""Linear constraint normalisation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Polyhedron
from repro.logic import variables
from repro.qe import LinConstraint, compare_to_constraints, linear_parts
from repro.qe.linear import tightest
from repro.realalg import term_to_polynomial
from repro._errors import SignatureError

x, y = variables("x y")


class TestLinearParts:
    def test_splits_coeffs_and_constant(self):
        coeffs, constant = linear_parts(term_to_polynomial(2 * x - y + 3))
        assert coeffs == {"x": 2, "y": -1}
        assert constant == 3

    def test_rejects_nonlinear(self):
        with pytest.raises(SignatureError):
            linear_parts(term_to_polynomial(x * y))


class TestNormalisation:
    def test_less_than(self):
        (c,) = compare_to_constraints(x + 1 < y)
        assert c.op == "<"
        assert c.coeff("x") == 1 and c.coeff("y") == -1 and c.constant == 1

    def test_greater_flipped(self):
        (c,) = compare_to_constraints(x > 3)
        assert c.op == "<"
        assert c.coeff("x") == -1 and c.constant == 3

    def test_ge_flipped(self):
        (c,) = compare_to_constraints(x >= 0)
        assert c.op == "<="

    def test_equality(self):
        (c,) = compare_to_constraints(x.eq(y))
        assert c.op == "="

    def test_neq_rejected(self):
        with pytest.raises(ValueError):
            compare_to_constraints(x.ne(y))

    def test_cancellation_gives_constant_constraint(self):
        (c,) = compare_to_constraints(x < x + 1)
        assert c.is_constant()
        assert c.constant_truth() is True


class TestConstraintOperations:
    def test_evaluate(self):
        c = LinConstraint.make({"x": Fraction(1)}, Fraction(-1), "<")  # x - 1 < 0
        assert c.evaluate({"x": Fraction(0)}) is True
        assert c.evaluate({"x": Fraction(1)}) is False

    def test_negation_of_strict(self):
        c = LinConstraint.make({"x": Fraction(1)}, 0, "<")
        (negated,) = c.negated_formulas()
        assert negated.op == "<="
        assert negated.coeff("x") == -1

    def test_negation_of_equality_splits(self):
        c = LinConstraint.make({"x": Fraction(1)}, 0, "=")
        branches = c.negated_formulas()
        assert len(branches) == 2
        assert all(b.op == "<" for b in branches)

    def test_to_formula_roundtrip(self):
        (c,) = compare_to_constraints(2 * x - y < 3)
        (c2,) = compare_to_constraints(c.to_formula())
        assert c == c2

    def test_constant_truth_requires_constant(self):
        c = LinConstraint.make({"x": Fraction(1)}, 0, "<")
        with pytest.raises(ValueError):
            c.constant_truth()

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            LinConstraint.make({}, 0, ">")


NAMES = ("x", "y", "z")
OPS = ("<", "<=", "=")
rationals = st.fractions(-6, 6, max_denominator=6)
nonzero = rationals.filter(bool)
positive = st.fractions(Fraction(1, 6), 6, max_denominator=6)
points = st.fixed_dictionaries(
    {name: st.fractions(-3, 3, max_denominator=4) for name in NAMES}
)


@st.composite
def raw_rows(draw):
    """``(coeffs, constant, op)`` with at least one nonzero coefficient."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    coeffs = {name: draw(nonzero) for name in names}
    return coeffs, draw(rationals), draw(st.sampled_from(OPS))


def raw_truth(coeffs, constant, op, point):
    value = constant + sum(c * point[name] for name, c in coeffs.items())
    return {"<": value < 0, "<=": value <= 0, "=": value == 0}[op]


def assert_primitive(row):
    values = [c for _, c in row.coeffs]
    assert all(type(c) is int for c in values), row.coeffs
    assert math.gcd(*values) == 1, row.coeffs
    assert type(row.constant) is Fraction


class TestRowInvariant:
    """``make`` picks each row's scale: primitive integers, sense kept."""

    def test_scalar_multiples_are_equal_rows(self):
        half = LinConstraint.make({"x": Fraction(1, 2), "y": Fraction(1, 3)}, 1, "<=")
        assert half.coeffs == (("x", 3), ("y", 2)) and half.constant == 6
        assert LinConstraint.make({"x": 6, "y": 4}, 12, "<=") == half

    def test_equality_sign_fixed(self):
        row = LinConstraint.make({"x": -2, "y": 4}, 2, "=")
        assert row.coeffs == (("x", 1), ("y", -2)) and row.constant == -1

    def test_inequality_sense_kept(self):
        row = LinConstraint.make({"x": -2}, 2, "<")
        assert row.coeffs == (("x", -1),) and row.constant == 1

    @settings(max_examples=200, deadline=None)
    @given(raw_rows())
    def test_make_is_idempotent(self, raw):
        row = LinConstraint.make(*raw)
        again = LinConstraint.make(dict(row.coeffs), row.constant, row.op)
        assert again == row
        assert [type(c) for _, c in again.coeffs] == [int] * len(row.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(raw_rows(), positive, st.booleans())
    def test_invariant_under_multiples(self, raw, factor, flip):
        coeffs, constant, op = raw
        if op == "=" and flip:
            factor = -factor
        scaled = LinConstraint.make(
            {name: factor * c for name, c in coeffs.items()}, factor * constant, op
        )
        assert scaled == LinConstraint.make(coeffs, constant, op)

    @settings(max_examples=200, deadline=None)
    @given(raw_rows(), points)
    def test_make_preserves_truth(self, raw, point):
        assert LinConstraint.make(*raw).evaluate(point) == raw_truth(*raw, point)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(raw_rows(), min_size=1, max_size=5))
    def test_every_returned_row_is_primitive(self, raws):
        rows = [LinConstraint.make(*raw) for raw in raws]
        closed = Polyhedron.make(NAMES, rows).closure().constraints
        negated = [branch for row in rows for branch in row.negated_formulas()]
        for row in rows + list(closed) + negated:
            assert_primitive(row)


#: Directions with several scalings each, so rows are often parallel.
DIRECTIONS = ({"x": 1}, {"y": 1}, {"x": 1, "y": 1}, {"x": 1, "y": -2})
halves = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
GRID = [{"x": Fraction(i, 2), "y": Fraction(j, 2)}
        for i in range(-7, 8) for j in range(-7, 8)]


@st.composite
def parallel_rows(draw):
    direction = draw(st.sampled_from(DIRECTIONS))
    factor = draw(st.sampled_from([1, 2, Fraction(1, 2), 3, -1, -2]))
    coeffs = {name: factor * c for name, c in direction.items()}
    op = draw(st.sampled_from(["<", "<=", "<", "<=", "="]))
    return LinConstraint.make(coeffs, factor * draw(halves), op)


class TestTightest:
    def test_tighter_parallel_wins(self):
        loose = LinConstraint.make({"x": 1}, -2, "<=")      # x <= 2
        tight = LinConstraint.make({"x": 2}, -2, "<=")      # x <= 1
        strict = LinConstraint.make({"x": 3}, -3, "<")      # x < 1
        assert tightest([loose, tight]) == [tight]
        assert tightest([strict, tight, loose]) == [strict]

    def test_equalities_lose_only_duplicates(self):
        eq = LinConstraint.make({"x": 1}, -1, "=")
        bound = LinConstraint.make({"x": 1}, -2, "<=")
        assert tightest([eq, bound, LinConstraint.make({"x": -2}, 2, "=")]) == [eq, bound]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(parallel_rows(), max_size=6))
    def test_same_truth_one_inequality_per_direction(self, rows):
        kept = tightest(rows)
        for point in GRID:
            assert all(r.evaluate(point) for r in kept) == all(
                r.evaluate(point) for r in rows
            ), point
        directions = [r.coeffs for r in kept if r.op != "="]
        assert len(directions) == len(set(directions))
        assert len(kept) == len(set(kept))
        remaining = iter(rows)
        assert all(any(r is k for r in remaining) for k in kept)  # order kept
