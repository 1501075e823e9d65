"""Canonical structural normal form and content hashes for formula ASTs.

Two queries that differ only in bound-variable names, operand order of
commutative connectives, or the surface spelling of their polynomial
atoms describe the *same query shape* — and QE/CAD compilation, the
exponential part of the pipeline, depends only on that shape.  This
module computes a canonical representative so shapes can share one cache
entry:

* **atoms** are rewritten to ``p OP 0`` with ``p`` a polynomial in
  graded-lex monomial order and primitive integer coefficients
  (inequalities are scaled by positive rationals only; equations also fix
  the sign of the leading coefficient), constant atoms fold to
  ``TRUE``/``FALSE``;
* **connectives** are brought to negation normal form, flattened,
  deduplicated, and their operands sorted by the printed form of the
  (already canonical) operands;
* **bound variables** are alpha-renamed bottom-up to ``_q0, _q1, ...``
  so alpha-variants coincide; renaming is capture-avoiding against free
  variables.

Every step preserves semantics exactly, so a canonical form may be
compiled *in place of* the original formula.  :func:`content_hash`
derives the plan-cache key from the canonical printed form (the printer
round-trips through the parser, so the same string also serves as the
plan record's formula text — see :mod:`repro.engine.prepared`).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Sequence

from ..logic.formulas import (
    And,
    Compare,
    Exists,
    ExistsAdom,
    FALSE,
    FalseFormula,
    Forall,
    ForallAdom,
    Formula,
    Not,
    Or,
    RelAtom,
    TRUE,
    TrueFormula,
    conjunction,
    disjunction,
    walk_ast,
)
from ..logic.normalform import to_nnf
from ..logic.printer import formula_to_str
from ..logic.substitution import substitute
from ..logic.terms import Add, Const, Mul, Neg, Pow, Term, Var, ZERO
from ..realalg.polynomial import Polynomial, term_to_polynomial
from .. import guard

__all__ = [
    "BOUND_PREFIX",
    "canonical_term",
    "canonical_formula",
    "canonical_text",
    "content_hash",
]

#: Prefix of canonical bound-variable names (parseable identifiers).
BOUND_PREFIX = "_q"

_QUANTIFIERS = (Exists, Forall, ExistsAdom, ForallAdom)


def _monomial_key(mono: tuple[int, ...]) -> tuple:
    """Graded-lex order: higher total degree first, then lex on exponents."""
    return (-sum(mono), tuple(-e for e in mono))


def _polynomial_to_term(poly: Polynomial) -> Term:
    """Rebuild a term from *poly* with monomials in graded-lex order."""
    variables = poly.variables
    parts: list[Term] = []
    for mono in sorted(poly.coeffs, key=_monomial_key):
        coeff = poly.coeffs[mono]
        factors: list[Term] = []
        for var, exponent in zip(variables, mono):
            if exponent == 1:
                factors.append(Var(var))
            elif exponent > 1:
                factors.append(Pow(Var(var), exponent))
        if not factors:
            parts.append(Const(coeff))
        elif coeff == 1 and len(factors) == 1:
            parts.append(factors[0])
        elif coeff == 1:
            parts.append(Mul(tuple(factors)))
        else:
            parts.append(Mul((Const(coeff), *factors)))
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Add(tuple(parts))


def canonical_term(term: Term) -> Term:
    """The polynomial normal form of *term*.

    Flattens and sorts sums/products, folds constants, and expands powers
    of compound bases, so e.g. ``x*x`` and ``x^2`` coincide.
    """
    poly = term_to_polynomial(term)
    used = tuple(sorted(poly.used_variables()))
    return _polynomial_to_term(poly.with_variables(used))


def _scale_primitive(poly: Polynomial) -> Polynomial:
    """Scale by the positive rational making all coefficients primitive ints."""
    denominators = [c.denominator for c in poly.coeffs.values()]
    numerators = [abs(c.numerator) for c in poly.coeffs.values()]
    denom_lcm = reduce(lambda a, b: a * b // gcd(a, b), denominators, 1)
    num_gcd = reduce(gcd, numerators, 0)
    if num_gcd == 0:
        return poly
    return poly * Fraction(denom_lcm, num_gcd)


def _canonical_compare(atom: Compare) -> Formula:
    """Normalise ``lhs OP rhs`` to ``p OP 0`` (or fold it to TRUE/FALSE)."""
    diff = term_to_polynomial(Add((atom.lhs, Neg(atom.rhs))))
    op = atom.op
    if op in (">", ">="):
        diff = -diff
        op = "<" if op == ">" else "<="
    if diff.is_constant():
        value = diff.constant_value()
        holds = {
            "<": value < 0, "<=": value <= 0,
            "=": value == 0, "!=": value != 0,
        }[op]
        return TRUE if holds else FALSE
    used = tuple(sorted(diff.used_variables()))
    diff = _scale_primitive(diff.with_variables(used))
    if op in ("=", "!="):
        leading = diff.coeffs[min(diff.coeffs, key=_monomial_key)]
        if leading < 0:
            diff = -diff
    return Compare(op, _polynomial_to_term(diff), ZERO)


def _sort_key(formula: Formula) -> tuple[str, str]:
    """Deterministic operand order: atoms before connectives, then text.

    Operands are already canonical (bound variables included), so the
    printed form is a faithful, alpha-invariant structural key.
    """
    return (type(formula).__name__, formula_to_str(formula))


def _bound_names(formula: Formula) -> set[str]:
    return {
        node.var for node in walk_ast(formula)
        if isinstance(node, _QUANTIFIERS)
    }


def _canon(formula: Formula) -> Formula:
    guard.checkpoint()
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Compare):
        return _canonical_compare(formula)
    if isinstance(formula, RelAtom):
        return RelAtom(formula.name, tuple(canonical_term(a) for a in formula.args))
    if isinstance(formula, Not):
        # NNF leaves Not only over relation atoms.
        return Not(_canon(formula.arg))
    if isinstance(formula, (And, Or)):
        args = [_canon(a) for a in formula.args]
        combine = conjunction if isinstance(formula, And) else disjunction
        combined = combine(*args)
        if not isinstance(combined, (And, Or)):
            return combined
        unique = sorted(set(combined.args), key=_sort_key)
        if len(unique) == 1:
            return unique[0]
        return type(combined)(tuple(unique))
    if isinstance(formula, _QUANTIFIERS):
        body = _canon(formula.body)
        if (isinstance(formula, (Exists, Forall))
                and formula.var not in body.free_variables()):
            # Vacuous *natural* quantifier: the reals are non-empty, so it
            # is a no-op.  (Vacuous active-domain quantifiers are kept:
            # over an empty active domain they are not.)
            return body
        bound = _bound_names(body)
        avoid = (body.free_variables() - {formula.var}) | bound
        index = len(bound)
        name = f"{BOUND_PREFIX}{index}"
        while name in avoid:
            index += 1
            name = f"{BOUND_PREFIX}{index}"
        if name != formula.var:
            # Renaming changes monomial and operand orderings that were
            # computed with the old name, so re-canonicalize the body.
            # Idempotent for already-canonical inner structure (the inner
            # name choices are deterministic), so this converges.
            body = _canon(substitute(body, {formula.var: Var(name)}))
        return type(formula)(name, body)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def canonical_formula(formula: Formula) -> Formula:
    """A canonical, semantically equivalent representative of *formula*.

    Alpha-variants, commutative reorderings, and polynomially equal atom
    spellings all map to the same AST (and therefore the same
    :func:`content_hash`).
    """
    return _canon(to_nnf(formula))


def canonical_text(formula: Formula) -> str:
    """The printed canonical form — a stable, re-parseable serialization."""
    return formula_to_str(canonical_formula(formula))


def content_hash(
    formula: Formula,
    variables: Sequence[str] = (),
    kind: str = "volume",
) -> str:
    """Content-addressed cache key for a query shape.

    The key covers the canonical formula text, the evaluation variable
    order (it fixes the dimension order of compiled cells), and the plan
    *kind* (a volume plan and a decision plan for the same formula are
    different artifacts).
    """
    payload = "\x00".join((kind, ",".join(variables), canonical_text(formula)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
