"""Normal forms: negation normal form, prenex normal form, and DNF.

Negation of comparison atoms is resolved using the total order on the reals
(``not (s < t)`` becomes ``t <= s``), so NNF of a relational-atom-free
formula contains no ``Not`` nodes at all.  Negated relation atoms remain as
literals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formulas import (
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
from .substitution import rename_bound
from .. import guard
from .._errors import NotQuantifierFree

__all__ = [
    "to_nnf",
    "to_prenex",
    "PrenexForm",
    "qf_to_dnf",
    "is_quantifier_free",
]

_QUANTIFIERS = (Exists, Forall, ExistsAdom, ForallAdom)
_DUAL = {Exists: Forall, Forall: Exists, ExistsAdom: ForallAdom, ForallAdom: ExistsAdom}


def is_quantifier_free(formula: Formula) -> bool:
    """Return True iff *formula* contains no quantifier of either kind."""
    if isinstance(formula, _QUANTIFIERS):
        return False
    if isinstance(formula, (And, Or)):
        return all(is_quantifier_free(a) for a in formula.args)
    if isinstance(formula, Not):
        return is_quantifier_free(formula.arg)
    return True


def to_nnf(formula: Formula) -> Formula:
    """Convert to negation normal form.

    Negations are pushed to atoms; negated comparisons are replaced by the
    complementary comparison (valid over a total order), so only relation
    atoms can remain under a ``Not``.
    """
    return _nnf(formula, negate=False)


def _nnf(formula: Formula, negate: bool) -> Formula:
    if isinstance(formula, TrueFormula):
        return FALSE if negate else TRUE
    if isinstance(formula, FalseFormula):
        return TRUE if negate else FALSE
    if isinstance(formula, Compare):
        return formula.negated() if negate else formula
    if isinstance(formula, RelAtom):
        return Not(formula) if negate else formula
    if isinstance(formula, Not):
        return _nnf(formula.arg, not negate)
    if isinstance(formula, And):
        parts = tuple(_nnf(a, negate) for a in formula.args)
        return disjunction(*parts) if negate else conjunction(*parts)
    if isinstance(formula, Or):
        parts = tuple(_nnf(a, negate) for a in formula.args)
        return conjunction(*parts) if negate else disjunction(*parts)
    if isinstance(formula, _QUANTIFIERS):
        node_type = _DUAL[type(formula)] if negate else type(formula)
        return node_type(formula.var, _nnf(formula.body, negate))
    raise TypeError(f"unknown formula node {type(formula).__name__}")


@dataclass(frozen=True)
class PrenexForm:
    """A prenex normal form: a quantifier prefix over a quantifier-free matrix.

    ``prefix`` is a tuple of ``(kind, var)`` pairs where ``kind`` is one of
    the four quantifier classes, outermost first.
    """

    prefix: tuple[tuple[type, str], ...]
    matrix: Formula

    def to_formula(self) -> Formula:
        result = self.matrix
        for kind, var in reversed(self.prefix):
            result = kind(var, result)
        return result


def to_prenex(formula: Formula) -> PrenexForm:
    """Convert a formula to prenex normal form.

    The formula is first put in NNF with all bound variables renamed apart,
    after which quantifiers can be pulled out front in syntactic order.
    """
    nnf = to_nnf(rename_bound(formula))
    prefix: list[tuple[type, str]] = []
    matrix = _pull_quantifiers(nnf, prefix)
    return PrenexForm(tuple(prefix), matrix)


def _pull_quantifiers(formula: Formula, prefix: list[tuple[type, str]]) -> Formula:
    if isinstance(formula, _QUANTIFIERS):
        prefix.append((type(formula), formula.var))
        return _pull_quantifiers(formula.body, prefix)
    if isinstance(formula, And):
        return conjunction(*(_pull_quantifiers(a, prefix) for a in formula.args))
    if isinstance(formula, Or):
        return disjunction(*(_pull_quantifiers(a, prefix) for a in formula.args))
    # NNF guarantees Not only wraps relation atoms.
    return formula


def qf_to_dnf(formula: Formula) -> list[list[Formula]]:
    """Convert a quantifier-free formula to disjunctive normal form.

    Returns a list of conjuncts, each a list of literals (``Compare``,
    ``RelAtom`` or ``Not(RelAtom)``).  An empty list means ``FALSE``;
    a conjunct that is an empty list means ``TRUE``.
    """
    if not is_quantifier_free(formula):
        raise NotQuantifierFree("DNF conversion requires a quantifier-free formula")
    return _dnf(to_nnf(formula))


def _dnf(formula: Formula) -> list[list[Formula]]:
    if isinstance(formula, TrueFormula):
        return [[]]
    if isinstance(formula, FalseFormula):
        return []
    if isinstance(formula, (Compare, RelAtom)):
        return [[formula]]
    if isinstance(formula, Not):
        # NNF: Not only wraps relation atoms.
        return [[formula]]
    if isinstance(formula, Or):
        result: list[list[Formula]] = []
        for arg in formula.args:
            result.extend(_dnf(arg))
        guard.check_size(len(result))
        return result
    if isinstance(formula, And):
        parts = [_dnf(a) for a in formula.args]
        result = []
        for combo in itertools.product(*parts):
            guard.checkpoint()
            conjunct: list[Formula] = []
            for chunk in combo:
                conjunct.extend(chunk)
            result.append(conjunct)
        guard.check_size(len(result))
        return result
    raise TypeError(f"unexpected node in quantifier-free NNF: {type(formula).__name__}")
