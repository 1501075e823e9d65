"""Canonical linear constraints over the ordered group of the reals.

A :class:`LinConstraint` is ``sum_i coeff_i * x_i + constant OP 0`` with
``OP`` one of ``<``, ``<=``, ``=``.  Comparison atoms of FO + LIN formulas
are normalised to this form (``>``/``>=`` are flipped, ``!=`` is split into
a disjunction by :func:`repro.qe.fourier_motzkin.formula_rows`, the one
reader from formulas to rows).  These constraints are shared between the
Fourier-Motzkin eliminator and the polyhedral geometry code.

Row invariant: :meth:`LinConstraint.make` is the only place that decides
a row's scale.  The variable coefficients are ``int`` with gcd 1; the
constant is an exact ``Fraction`` scaled by the same factor.  ``<`` and
``<=`` rows are scaled by a positive factor only; an ``=`` row is also
sign-fixed so that its first coefficient is positive.  Parallel
half-spaces therefore have identical ``coeffs`` and scalar multiples are
equal rows, which is what lets :func:`tightest` decide dominance by
comparing constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from ..logic.formulas import Compare, Formula
from ..logic.terms import Add, Const, Term, Var
from ..realalg.polynomial import Polynomial, term_to_polynomial
from .._errors import SignatureError

__all__ = ["LinConstraint", "compare_to_constraints", "linear_parts", "tightest"]



@dataclass(frozen=True)
class LinConstraint:
    """A normalised linear constraint ``sum coeffs[v]*v + constant OP 0``.

    ``coeffs`` holds only nonzero coefficients, sorted by variable name.
    ``op`` is ``<``, ``<=`` or ``=``.  Build rows with :meth:`make`, which
    establishes the module's row invariant.
    """

    coeffs: tuple[tuple[str, int], ...]
    constant: Fraction
    op: str

    @staticmethod
    def make(
        coeffs: Mapping[str, Fraction | int], constant: Fraction | int, op: str
    ) -> "LinConstraint":
        if op not in ("<", "<=", "="):
            raise ValueError(f"unsupported constraint operator {op!r}")
        items = sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0)
        constant = Fraction(constant)
        if not items:
            return LinConstraint((), constant, op)
        denominator = math.lcm(*(c.denominator for _, c in items))
        numerators = [c.numerator * (denominator // c.denominator) for _, c in items]
        divisor = math.gcd(*numerators)
        if op == "=" and numerators[0] < 0:
            divisor = -divisor
        return LinConstraint(
            tuple((v, n // divisor) for (v, _), n in zip(items, numerators)),
            Fraction(constant.numerator * denominator,
                     constant.denominator * divisor),
            op,
        )

    # -- queries ---------------------------------------------------------------
    def coeff(self, var: str) -> int:
        for name, value in self.coeffs:
            if name == var:
                return value
        return 0

    def variables(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_truth(self) -> bool:
        """Truth value of a constraint with no variables."""
        if self.coeffs:
            raise ValueError("constraint is not constant")
        if self.op == "<":
            return self.constant < 0
        if self.op == "<=":
            return self.constant <= 0
        return self.constant == 0

    def evaluate(self, env: Mapping[str, Fraction]) -> bool:
        value = self.constant
        for name, coeff in self.coeffs:
            value += coeff * Fraction(env[name])
        if self.op == "<":
            return value < 0
        if self.op == "<=":
            return value <= 0
        return value == 0

    # -- transformations ---------------------------------------------------
    def negated_formulas(self) -> list["LinConstraint"]:
        """Constraints whose disjunction is the negation of this constraint.

        ``< -> >=`` gives one constraint; ``= -> !=`` gives two.
        """
        flipped = tuple((v, -c) for v, c in self.coeffs)
        if self.op == "<":
            return [LinConstraint(flipped, -self.constant, "<=")]
        if self.op == "<=":
            return [LinConstraint(flipped, -self.constant, "<")]
        return [
            LinConstraint(self.coeffs, self.constant, "<"),
            LinConstraint(flipped, -self.constant, "<"),
        ]

    def to_formula(self) -> Formula:
        """Rebuild a :class:`~repro.logic.formulas.Compare` atom."""
        parts: list[Term] = []
        for name, coeff in self.coeffs:
            if coeff == 1:
                parts.append(Var(name))
            else:
                parts.append(Const(coeff) * Var(name))
        if self.constant != 0 or not parts:
            parts.append(Const(self.constant))
        lhs = parts[0] if len(parts) == 1 else Add(tuple(parts))
        return Compare(self.op, lhs, Const(Fraction(0)))

    def __str__(self) -> str:
        return str(self.to_formula())


def tightest(rows: Iterable[LinConstraint]) -> list[LinConstraint]:
    """*rows* without duplicates and without each inequality implied by a
    parallel, tighter one; survivors keep their order.

    Parallel inequalities share ``coeffs`` (the row invariant), and of
    ``coeffs . x + c OP 0`` the one with the largest ``c`` is tightest;
    on equal constants ``<`` beats ``<=``.  Equalities only lose their
    duplicates.  Of equal rows the first stays.
    """
    rows = list(rows)
    best: dict[object, int] = {}
    for index, row in enumerate(rows):
        key = row if row.op == "=" else row.coeffs
        held = best.get(key)
        if held is None or (row.constant, row.op == "<") > (
                rows[held].constant, rows[held].op == "<"):
            best[key] = index
    return [rows[index] for index in sorted(best.values())]


def linear_parts(polynomial: Polynomial) -> tuple[dict[str, Fraction], Fraction]:
    """Split a degree-<=1 polynomial into (coefficients, constant).

    Raises :class:`SignatureError` if the polynomial has degree > 1.
    """
    coeffs: dict[str, Fraction] = {}
    constant = Fraction(0)
    for mono, coeff in polynomial.coeffs.items():
        degree = sum(mono)
        if degree == 0:
            constant += coeff
        elif degree == 1:
            index = next(i for i, e in enumerate(mono) if e == 1)
            name = polynomial.variables[index]
            coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
        else:
            raise SignatureError(
                f"nonlinear monomial in a linear context: {polynomial}"
            )
    return coeffs, constant


def compare_to_constraints(atom: Compare) -> list[LinConstraint]:
    """Normalise a comparison atom into constraints whose *conjunction* is
    equivalent to the atom.

    ``<, <=, =`` produce a single constraint; ``>=, >`` are flipped;
    ``!=`` raises: read whole formulas with
    :func:`repro.qe.fourier_motzkin.formula_rows`, which splits it into
    ``<`` OR ``>``.
    """
    if atom.op == "!=":
        raise ValueError("'!=' atoms must be split into < OR > before normalising")
    diff = term_to_polynomial(atom.lhs) - term_to_polynomial(atom.rhs)
    coeffs, constant = linear_parts(diff)
    op = atom.op
    if op in (">", ">="):
        coeffs = {v: -c for v, c in coeffs.items()}
        constant = -constant
        op = "<" if op == ">" else "<="
    return [LinConstraint.make(coeffs, constant, op)]
