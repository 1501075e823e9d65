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
* **bound variables** are alpha-renamed by nesting depth — ``_q0`` for
  the outermost kept quantifier, ``_q1`` inside it, ... — skipping names
  free in the input, so alpha-variants coincide without capture.  Vacuous
  natural quantifiers are dropped, also when their atoms fold away.

This is one pass: each atom becomes a polynomial once, already under its
canonical names.  Every step preserves semantics exactly, so a canonical
form may be compiled *in place of* the original formula.
:func:`content_hash` hashes the canonical printed form as given (the
printer round-trips through the parser, so the same string also serves
as the plan record's formula text — see :mod:`repro.engine.prepared`).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import reduce
from itertools import count, islice
from math import gcd
from typing import Mapping, Sequence

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
)
from ..logic.normalform import to_nnf
from ..logic.printer import formula_to_str
from ..logic.terms import Add, Const, Mul, Neg, Pow, Term, Var, ZERO
from ..realalg.polynomial import Polynomial, term_to_polynomial
from .. import guard

__all__ = [
    "BOUND_PREFIX",
    "canonical_term",
    "canonical_formula",
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


def _polynomial(term: Term, rename: Mapping[str, str]) -> Polynomial:
    """*term* as a polynomial over its used variables, renamed and sorted."""
    poly = term_to_polynomial(term)
    if rename:
        names = tuple(rename.get(var, var) for var in poly.variables)
        poly = Polynomial(names, poly.coeffs)
    return poly.with_variables(tuple(sorted(poly.used_variables())))


def canonical_term(term: Term) -> Term:
    """The polynomial normal form of *term*.

    Flattens and sorts sums/products, folds constants, and expands powers
    of compound bases, so e.g. ``x*x`` and ``x^2`` coincide.
    """
    return _polynomial_to_term(_polynomial(term, {}))


def _scale_primitive(poly: Polynomial) -> Polynomial:
    """Scale by the positive rational making all coefficients primitive ints."""
    denominators = [c.denominator for c in poly.coeffs.values()]
    numerators = [abs(c.numerator) for c in poly.coeffs.values()]
    denom_lcm = reduce(lambda a, b: a * b // gcd(a, b), denominators, 1)
    num_gcd = reduce(gcd, numerators, 0)
    if num_gcd == 0:
        return poly
    return poly * Fraction(denom_lcm, num_gcd)


def _canonical_compare(atom: Compare, rename: Mapping[str, str]) -> Formula:
    """Normalise ``lhs OP rhs`` to ``p OP 0`` (or fold it to TRUE/FALSE)."""
    diff = _polynomial(Add((atom.lhs, Neg(atom.rhs))), rename)
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
    diff = _scale_primitive(diff)
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


def _canon(formula: Formula, rename: Mapping[str, str], depth: int, free: frozenset) -> Formula:
    """Canonicalize NNF *formula* in one pass.

    *rename* maps the bound variables in scope to canonical names, *depth*
    counts the kept quantifiers above, and no quantifier takes a name in
    *free*.
    """
    guard.checkpoint()
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Compare):
        return _canonical_compare(formula, rename)
    if isinstance(formula, RelAtom):
        args = (_polynomial_to_term(_polynomial(a, rename)) for a in formula.args)
        return RelAtom(formula.name, tuple(args))
    if isinstance(formula, Not):
        # NNF leaves Not only over relation atoms.
        return Not(_canon(formula.arg, rename, depth, free))
    if isinstance(formula, (And, Or)):
        args = [_canon(a, rename, depth, free) for a in formula.args]
        combine = conjunction if isinstance(formula, And) else disjunction
        combined = combine(*args)
        if not isinstance(combined, (And, Or)):
            return combined
        unique = sorted(set(combined.args), key=_sort_key)
        if len(unique) == 1:
            return unique[0]
        return type(combined)(tuple(unique))
    if isinstance(formula, _QUANTIFIERS):
        # The name at this depth: the depth-th _qN not free in the input.
        spelled = (f"{BOUND_PREFIX}{i}" for i in count())
        name = next(islice((n for n in spelled if n not in free), depth, None))
        body = _canon(formula.body, {**rename, formula.var: name}, depth + 1, free)
        if (isinstance(formula, (Exists, Forall))
                and name not in body.free_variables()):
            # Vacuous *natural* quantifier: the reals are non-empty, so it
            # is a no-op.  (Vacuous active-domain quantifiers are kept:
            # over an empty active domain they are not.)  Folded atoms hide
            # vacuity until now, so name the body again without this level.
            return _canon(body, {}, depth, free)
        return type(formula)(name, body)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def canonical_formula(formula: Formula) -> Formula:
    """A canonical, semantically equivalent representative of *formula*.

    Alpha-variants, commutative reorderings, and polynomially equal atom
    spellings all map to the same AST (and therefore the same
    :func:`content_hash`).
    """
    nnf = to_nnf(formula)
    free = nnf.free_variables()
    canonical = _canon(nnf, {}, 0, free)
    if canonical.free_variables() != free:
        # A free variable folded away; if it was spelled like a bound name,
        # the quantifiers skipped that name for nothing: name them again.
        canonical = _canon(canonical, {}, 0, canonical.free_variables())
    return canonical


def content_hash(text: str, variables: Sequence[str], kind: str) -> str:
    """Content-addressed cache key for a query shape.

    The key covers the canonical formula *text* (hashed as given), the
    evaluation variable order (it fixes the dimension order of compiled
    cells), and the plan *kind* (a volume plan and a decision plan for the
    same formula are different artifacts).
    """
    payload = "\x00".join((kind, ",".join(variables), text))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
