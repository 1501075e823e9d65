"""Parser and printer: round-trips and error handling."""

from fractions import Fraction

import pytest

from repro.logic import (
    Const,
    ParseError,
    Relation,
    conjunction,
    exists,
    forall,
    parse,
    parse_term,
    variables,
)

x, y, z = variables("x y z")
R = Relation("R", 2)


class TestTermParsing:
    def test_number(self):
        assert parse_term("3") == Const(Fraction(3))

    def test_fraction_literal(self):
        assert parse_term("3/4") == Const(Fraction(3, 4))

    def test_arithmetic_precedence(self):
        t = parse_term("1 + 2 * x")
        assert t.evaluate({"x": Fraction(10)}) == 21

    def test_power(self):
        t = parse_term("x^3")
        assert t.evaluate({"x": Fraction(2)}) == 8

    def test_unary_minus(self):
        t = parse_term("-x + 5")
        assert t.evaluate({"x": Fraction(2)}) == 3

    def test_parenthesised_term(self):
        t = parse_term("(x + 1) * 2")
        assert t.evaluate({"x": Fraction(3)}) == 8

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_term("x + 1 )")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_term("x^(1/2)")


class TestFormulaParsing:
    def test_comparison(self):
        assert parse("x < 1") == (x < 1)

    def test_chained_comparison(self):
        f = parse("0 <= x < y <= 1")
        # Note Const(0) <= x, not the reflected x >= 0 Python builds.
        assert f == conjunction(Const(Fraction(0)) <= x, x < y, y <= 1)

    def test_boolean_connectives(self):
        f = parse("x < 1 AND y < 1 OR x > 2")
        # AND binds tighter than OR
        assert f == ((x < 1) & (y < 1)) | (x > 2)

    def test_not(self):
        f = parse("NOT x < 1")
        assert f == ~(x < 1)

    def test_quantifiers(self):
        f = parse("EXISTS y. x < y")
        assert f == exists(y, x < y)

    def test_multi_variable_quantifier(self):
        # Quantifier scope is minimal; parenthesise to extend it.
        f = parse("FORALL x y. (x < y OR y <= x)")
        assert f == forall([x, y], (x < y) | (y <= x))

    def test_quantifier_scope_is_minimal(self):
        f = parse("FORALL x. x < y OR y <= x")
        assert f == forall(x, x < y) | (y <= x)

    def test_relation_atom(self):
        f = parse("R(x, y + 1)")
        assert f == R(x, y + 1)

    def test_true_false(self):
        from repro.logic import TRUE, FALSE

        assert parse("TRUE") == TRUE
        assert parse("FALSE") == FALSE

    def test_parenthesised_formula(self):
        f = parse("(x < 1 OR y < 1) AND x > 0")
        assert f == ((x < 1) | (y < 1)) & (x > 0)

    def test_parenthesised_term_in_comparison(self):
        f = parse("(x + 1) < 2")
        assert f == (x + 1 < 2)

    def test_keywords_case_insensitive(self):
        assert parse("exists y. x < y") == exists(y, x < y)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("x <")
        with pytest.raises(ParseError):
            parse("AND x < 1")

    def test_deep_nesting_is_a_parse_error(self):
        """Input nested past the recursion limit fails with a ParseError,
        not a RecursionError (the CLI's own depths are in test_cli)."""
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 200 + "x < 1" + ")" * 200)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("NOT " * 1100 + "x < 1")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_term("(" * 1000 + "x" + ")" * 1000)
        assert parse("(" * 150 + "x < 1" + ")" * 150) == (x < 1)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "formula",
        [
            x < 1,
            (x < 1) & (y < 1),
            (x < 1) | ((y < 1) & (z < 1)),
            ~R(x, y),
            exists(y, (x < y) & (y**2 < x + 2)),
            forall(x, exists(y, x + y * Fraction(1, 3) < 1)),
            x.eq(y),
            x.ne(y),
        ],
    )
    def test_print_then_parse(self, formula):
        assert parse(str(formula)) == formula

    def test_negative_constant_roundtrip(self):
        f = x < Const(Fraction(-3, 7))
        assert parse(str(f)) == f
