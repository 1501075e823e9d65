"""Canonical normal form: invariance, semantics preservation, hashing."""

import hashlib
from fractions import Fraction

from repro.engine import canonical_formula, content_hash
from repro.engine.canon import canonical_term
from repro.engine.prepared import plan_identity
from repro.logic import (
    Const,
    Exists,
    ExistsAdom,
    FALSE,
    Forall,
    TRUE,
    Var,
    formula_to_str,
    parse,
    variables,
)

x, y, z = variables("x y z")


def text_of(formula) -> str:
    return formula_to_str(canonical_formula(formula))


class TestAtoms:
    def test_polynomial_spelling_coincides(self):
        assert canonical_formula(x * x < 1) == canonical_formula(x**2 < 1)

    def test_moved_to_one_side(self):
        assert canonical_formula(x < y) == canonical_formula(x - y < 0)

    def test_positive_rational_scaling(self):
        half = Const(Fraction(1, 2))
        assert canonical_formula(half * x < y) == canonical_formula(x < 2 * y)

    def test_inequalities_not_scaled_by_negatives(self):
        # x < y and y < x are different atoms and must stay different.
        assert canonical_formula(x < y) != canonical_formula(y < x)

    def test_gt_flips_to_lt(self):
        assert canonical_formula(x > y) == canonical_formula(y < x)
        assert canonical_formula(x >= y) == canonical_formula(y <= x)

    def test_equation_leading_sign_fixed(self):
        assert canonical_formula(x.eq(y)) == canonical_formula(y.eq(x))
        assert canonical_formula((x - y).eq(0)) == canonical_formula((y - x).eq(0))

    def test_constant_atoms_fold(self):
        one, two = Const(1), Const(2)
        assert canonical_formula(one < two) == TRUE
        assert canonical_formula(two < one) == FALSE
        assert canonical_formula(one.eq(1)) == TRUE

    def test_canonical_term_flattens_and_sorts(self):
        assert canonical_term(x + y) == canonical_term(y + x)
        assert canonical_term((x + 1) * (x - 1)) == canonical_term(x**2 - 1)


class TestConnectives:
    def test_commutative_reorder(self):
        assert canonical_formula((x < 1) & (y < 1)) == canonical_formula(
            (y < 1) & (x < 1)
        )
        assert canonical_formula((x < 1) | (y < 1)) == canonical_formula(
            (y < 1) | (x < 1)
        )

    def test_duplicates_dropped(self):
        assert canonical_formula((x < 1) & (x < 1)) == canonical_formula(x < 1)

    def test_nested_flattening(self):
        left = ((x < 1) & (y < 1)) & (z < 1)
        right = (x < 1) & ((y < 1) & (z < 1))
        assert canonical_formula(left) == canonical_formula(right)

    def test_nnf_pushes_negation(self):
        assert canonical_formula(~(x < y)) == canonical_formula(y <= x)


class TestQuantifiers:
    def test_alpha_variants_coincide(self):
        a = parse("EXISTS z . (z < x AND y < z)")
        b = parse("EXISTS w . (w < x AND y < w)")
        assert canonical_formula(a) == canonical_formula(b)
        assert plan_identity(a, None, "volume") == plan_identity(b, None, "volume")

    def test_nested_alpha_variants(self):
        a = parse("EXISTS u . EXISTS v . (u < v AND v < x)")
        b = parse("EXISTS p . EXISTS q . (p < q AND q < x)")
        assert canonical_formula(a) == canonical_formula(b)

    def test_capture_avoided_against_free_q_names(self):
        # A free variable spelled like a canonical bound name must survive.
        q0 = Var("_q0")
        formula = Exists("t", (Var("t") < q0))
        canon = canonical_formula(formula)
        assert canon.free_variables() == {"_q0"}

    def test_bound_names_count_nesting_depth(self):
        canon = canonical_formula(parse("EXISTS u . EXISTS v . (u < v AND v < x)"))
        assert text_of(canon) == (
            "EXISTS _q0. (EXISTS _q1. (_q0 + (-1) * _q1 < 0 AND _q1 + (-1) * x < 0))"
        )

    def test_shadowed_variable_takes_the_inner_name(self):
        canon = canonical_formula(parse("EXISTS x . (x < 1 AND EXISTS x . 0 < x)"))
        assert text_of(canon) == (
            "EXISTS _q0. (_q0 + (-1) < 0 AND (EXISTS _q1. (-1) * _q1 < 0))"
        )

    def test_free_bound_name_skipped_then_released_when_folded(self):
        kept = canonical_formula(parse("(EXISTS u . u < x) AND _q0 < 1"))
        assert text_of(kept) == "_q0 + (-1) < 0 AND (EXISTS _q1. _q1 + (-1) * x < 0)"
        # _q0 folds away, so the quantifier need not avoid its name.
        folded = canonical_formula(parse("(EXISTS u . u < x) AND _q0 < _q0 + 1"))
        assert folded == canonical_formula(parse("EXISTS u . u < x"))
        assert canonical_formula(folded) == folded

    def test_quantifier_vacuous_after_folding_leaves_no_level(self):
        formula = parse("EXISTS a . EXISTS b . (a < a + 1 AND b < x)")
        canon = canonical_formula(formula)
        assert canon == canonical_formula(parse("EXISTS b . b < x"))
        assert text_of(canon) == "EXISTS _q0. _q0 + (-1) * x < 0"
        assert canonical_formula(canon) == canon

    def test_vacuous_natural_quantifier_dropped(self):
        assert canonical_formula(Exists("t", x < 1)) == canonical_formula(x < 1)
        assert canonical_formula(Forall("t", x < 1)) == canonical_formula(x < 1)

    def test_vacuous_adom_quantifier_kept(self):
        # Over an empty active domain EXISTSADOM t . phi is false even for
        # valid phi, so the quantifier is semantically load-bearing.
        canon = canonical_formula(ExistsAdom("t", x < 1))
        assert isinstance(canon, ExistsAdom)


class TestStability:
    def test_idempotent(self):
        for text in (
            "EXISTS z . (z < x AND y < z)",
            "0 <= y AND y <= x AND x <= 1",
            "x < 1/4 OR x > 3/4",
            "FORALL u . (u < x OR x <= u)",
        ):
            once = canonical_formula(parse(text))
            assert canonical_formula(once) == once

    def test_text_reparses_to_same_canonical(self):
        formula = parse("EXISTS z . (z < x AND y < z AND 2*z < x + y)")
        assert canonical_formula(parse(text_of(formula))) == canonical_formula(formula)


class TestContentHash:
    def test_hash_is_hex_sha256(self):
        digest = content_hash(text_of(x < 1), ("x",), "volume")
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_hash_is_sha256_of_kind_variables_text(self):
        # The text is hashed as given: nothing is re-canonicalized.
        text = "x + y - 1 < 0"
        expected = hashlib.sha256(b"volume\x00x,y\x00x + y - 1 < 0").hexdigest()
        assert content_hash(text, ("x", "y"), "volume") == expected

    def test_kind_and_variables_distinguish(self):
        text = text_of((x < 1) & (y < 1))
        base = content_hash(text, ("x", "y"), "volume")
        assert content_hash(text, ("x", "y"), "decide") != base
        assert content_hash(text, ("y", "x"), "volume") != base
        assert content_hash(text, ("x", "y"), "volume") == base

    def test_semantic_variants_share_hash(self):
        a = content_hash(text_of((x < 1) & (y < 1)), ("x", "y"), "volume")
        b = content_hash(text_of((y < 1) & (x < 1)), ("x", "y"), "volume")
        assert a == b
