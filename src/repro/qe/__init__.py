"""Quantifier elimination: the engine behind constraint-database closure.

* Fourier-Motzkin elimination gives full QE for FO + LIN (and the
  dense-order fragment).
* One-variable solving (:func:`solve_univariate`) computes the exact
  solution set — a finite union of points and intervals — of any
  one-variable polynomial formula; this realises o-minimality computationally
  and powers the paper's END operator.
* Cylindrical algebraic decomposition decides FO + POLY sentences and finds
  sample points of quantifier-free polynomial formulas.
"""

from .linear import LinConstraint, compare_to_constraints, linear_parts
from .fourier_motzkin import (
    constraints_to_formula,
    decide_linear,
    eliminate_variable,
    formula_rows,
    is_feasible,
    qe_linear,
)
from .dense_order import check_dense_order, decide_dense_order, qe_dense_order
from .intervals import Endpoint, Interval, IntervalUnion, rational_between
from .onevar import atom_polynomials, formula_truth_at, solve_univariate
from .cad import decide, find_sample, projection_set, satisfiable
from .simplify import simplify_qf

__all__ = [
    "LinConstraint",
    "compare_to_constraints",
    "linear_parts",
    "qe_linear",
    "decide_linear",
    "eliminate_variable",
    "formula_rows",
    "constraints_to_formula",
    "is_feasible",
    "check_dense_order",
    "qe_dense_order",
    "decide_dense_order",
    "Endpoint",
    "Interval",
    "IntervalUnion",
    "rational_between",
    "solve_univariate",
    "formula_truth_at",
    "atom_polynomials",
    "decide",
    "satisfiable",
    "find_sample",
    "projection_set",
    "simplify_qf",
]
