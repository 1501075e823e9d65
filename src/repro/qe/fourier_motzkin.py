"""Fourier-Motzkin quantifier elimination for FO + LIN.

This gives the closure property of linear constraint databases used
throughout the paper: applying an FO + LIN query to a semi-linear set
yields another semi-linear set.  The eliminator reads the prenex matrix
into DNF constraint rows once (:func:`formula_rows`), eliminates each
variable from every conjunction by combining lower and upper bounds (or
by substituting an equality), and prints the result once.  ``Forall`` is
dualised lazily: the rows carry a polarity bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from ..logic.formulas import (
    Compare,
    ExistsAdom,
    Forall,
    ForallAdom,
    Formula,
    conjunction,
    disjunction,
)
from ..logic.metrics import max_degree
from ..logic.normalform import qf_to_dnf, to_nnf, to_prenex
from .. import guard, obs
from .._errors import QEError
from .linear import LinConstraint, compare_to_constraints, tightest

__all__ = [
    "eliminate_variable",
    "qe_linear",
    "decide_linear",
    "formula_rows",
    "constraints_to_formula",
    "is_feasible",
]


def formula_rows(formula: Formula) -> list[list[LinConstraint]]:
    """The constraint rows of a quantifier-free linear formula's DNF.

    One row list per conjunct of :func:`qf_to_dnf`, in its order, split
    once more per ``<``/``>`` choice for each ``!=`` atom; ``[]`` is FALSE
    and ``[[]]`` TRUE.  Relation atoms are rejected — substitute database
    definitions first.
    """
    dnf: list[list[LinConstraint]] = []
    for conjunct in qf_to_dnf(formula):
        alternatives: list[list[LinConstraint]] = [[]]
        for literal in conjunct:
            if not isinstance(literal, Compare):
                raise QEError(
                    f"non-comparison literal in linear QE: {literal} "
                    "(substitute relation definitions before eliminating)"
                )
            sides = [literal] if literal.op != "!=" else [
                Compare("<", literal.lhs, literal.rhs),
                Compare(">", literal.lhs, literal.rhs),
            ]
            branches = [compare_to_constraints(side) for side in sides]
            alternatives = [
                existing + branch for existing in alternatives for branch in branches
            ]
        dnf.extend(alternatives)
    return dnf


def eliminate_variable(
    var: str, constraints: Sequence[LinConstraint]
) -> list[LinConstraint] | None:
    """Eliminate ``exists var`` from a conjunction of constraints.

    Returns the resulting conjunction, or ``None`` if the conjunction is
    detected to be infeasible (a constant constraint evaluated false).
    """
    obs.add("fm.eliminations")
    guard.checkpoint()
    equalities: list[LinConstraint] = []
    lowers: list[LinConstraint] = []   # coeff of var < 0: var >= bound
    uppers: list[LinConstraint] = []   # coeff of var > 0: var <= bound
    rest: list[LinConstraint] = []
    for constraint in constraints:
        coeff = constraint.coeff(var)
        if coeff == 0:
            rest.append(constraint)
        elif constraint.op == "=":
            equalities.append(constraint)
        elif coeff > 0:
            uppers.append(constraint)
        else:
            lowers.append(constraint)

    if equalities:
        # Cancel var against the first equality in every other row.
        pivot = equalities[0]
        substituted = [
            _cancel(var, row, pivot) for row in equalities[1:] + lowers + uppers
        ] + rest
        guard.charge("constraints", len(substituted))
        return _clean(substituted)

    combined: list[LinConstraint] = list(rest)
    for lower in lowers:
        for upper in uppers:
            combined.append(_cancel(var, upper, lower))
    guard.charge("constraints", len(combined))
    return _clean(combined)


def _cancel(var: str, row: LinConstraint, pivot: LinConstraint) -> LinConstraint:
    """The integer combination of *row* and *pivot* in which *var* cancels.

    With ``a``, ``b`` the coefficients of *var* in *row* and *pivot*, this
    is ``|b| * row - sign(b) * a * pivot``.  *row* is scaled by a positive
    factor, so its sense is kept.  For an upper bound against a lower one
    *pivot*'s factor is positive too; only an equality *pivot* can get a
    negative one.  The result is as strict as the stricter of the rows.
    """
    a, b = row.coeff(var), pivot.coeff(var)
    p, q = abs(b), (-a if b > 0 else a)
    coeffs = {name: p * c for name, c in row.coeffs}
    for name, c in pivot.coeffs:
        coeffs[name] = coeffs.get(name, 0) + q * c
    op = max(row.op, pivot.op, key=("=", "<=", "<").index)
    return LinConstraint.make(coeffs, p * row.constant + q * pivot.constant, op)


def _clean(constraints: Iterable[LinConstraint]) -> list[LinConstraint] | None:
    """Drop constant-true rows, then keep the :func:`tightest` of the rest;
    None if a constant row is false."""
    rows: list[LinConstraint] = []
    dropped = 0
    for constraint in constraints:
        if constraint.is_constant():
            if not constraint.constant_truth():
                return None
            dropped += 1
        else:
            rows.append(constraint)
    result = tightest(rows)
    dropped += len(rows) - len(result)
    if dropped:
        obs.add("fm.constraints_pruned", dropped)
    return result


def is_feasible(constraints: Sequence[LinConstraint]) -> bool:
    """Exact feasibility of a conjunction of linear constraints over R.

    Decided by eliminating every variable with Fourier-Motzkin.
    """
    current = _clean(constraints)
    if current is None:
        return False
    while current:
        guard.checkpoint()
        remaining_vars = sorted(set().union(*(c.variables() for c in current)))
        if not remaining_vars:
            break
        current = eliminate_variable(remaining_vars[0], current)
        if current is None:
            return False
    return True


def constraints_to_formula(constraints: Sequence[LinConstraint]) -> Formula:
    """Conjunction formula of a constraint list (TRUE when empty)."""
    return conjunction(*(c.to_formula() for c in constraints))


def _negate(dnf: list[list[LinConstraint]]) -> list[list[LinConstraint]]:
    """Rows of the negation of *dnf*: what :func:`formula_rows` reads off
    the NNF negation of the printed *dnf*, in the same order.

    The result's size is checked before it is built."""
    parts = [[row.negated_formulas() for row in conjunct] for conjunct in dnf]
    guard.check_size(math.prod(sum(map(len, part)) for part in parts))
    result: list[list[LinConstraint]] = []
    for pick in itertools.product(*parts):
        guard.checkpoint()
        result.extend(list(rows) for rows in itertools.product(*pick))
    return result


def _eliminate_exists(var: str, dnf: list[list[LinConstraint]], prune: bool):
    """Rows of ``exists var . dnf``; ``[[]]`` once a conjunct is TRUE."""
    result: list[list[LinConstraint]] = []
    with obs.span("qe.fm.eliminate", var=var):
        for constraints in dnf:
            obs.add("fm.disjuncts")
            guard.checkpoint()
            rows = eliminate_variable(var, constraints)
            if rows is None:
                continue
            if prune and not is_feasible(rows):
                obs.add("fm.disjuncts_pruned")
                continue
            result.append(rows)
    return [[]] if [] in result else result


def qe_linear(formula: Formula, prune: bool = True) -> Formula:
    """Eliminate all (natural) quantifiers from an FO + LIN formula.

    The result is a quantifier-free formula with the same free variables,
    equivalent over the reals.  Relation atoms are not allowed — substitute
    the database's constraint definitions first
    (:func:`repro.db.evaluation.expand_relations`).

    ``prune`` additionally removes infeasible disjuncts from intermediate
    results, which combats the DNF blow-up at some extra cost.
    """
    if formula.relation_names():
        raise QEError(
            "formula mentions schema relations "
            f"{sorted(formula.relation_names())}; expand them first"
        )
    prenex = to_prenex(formula)
    for kind, _ in prenex.prefix:
        if kind in (ExistsAdom, ForallAdom):
            raise QEError("active-domain quantifiers have no meaning over R; "
                          "evaluate them against a finite instance instead")
    if prenex.prefix and max_degree(prenex.matrix) > 1:
        raise QEError("quantified nonlinear formulas are not semi-linear")
    with obs.span("qe.fm.qe_linear", quantifiers=len(prenex.prefix)):
        if not prenex.prefix:
            return prenex.matrix
        # ``dnf`` holds the rows of the matrix, or of its negation when
        # ``negated`` is set: FORALL eliminates EXISTS on the negation.
        negated = prenex.prefix[-1][0] is Forall
        dnf = formula_rows(to_nnf(~prenex.matrix) if negated else prenex.matrix)
        for kind, var in reversed(prenex.prefix):
            if negated != (kind is Forall):
                dnf = _negate(dnf)
            dnf = _eliminate_exists(var, dnf, prune)
            negated = kind is Forall
        result = disjunction(*(constraints_to_formula(rows) for rows in dnf))
        return to_nnf(~result) if negated else result


def decide_linear(sentence: Formula) -> bool:
    """Decide a closed FO + LIN sentence over the reals."""
    if sentence.free_variables():
        raise QEError(
            f"sentence has free variables {sorted(sentence.free_variables())}"
        )
    # A closed quantifier-free formula: every atom is a constant comparison.
    for constraints in formula_rows(qe_linear(sentence)):
        cleaned = _clean(constraints)
        if cleaned == []:
            return True
        # Non-constant constraints cannot appear in a closed formula.
        if cleaned:
            raise QEError("internal error: free variables after QE")
    return False
