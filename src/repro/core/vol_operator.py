"""The VOL term-former of Section 2, with the paper's taxonomy of
evaluation strategies.

Section 2 defines ``[VOL y. phi(x, y)](x, z)`` — z equals the volume of
``phi(a, D)`` — and the bounded variant VOL_I (volume inside the unit
cube).  The paper then studies *which* languages can evaluate it:

* exactly, for semi-linear sets — Theorem 3 (this module's
  ``strategy="exact"``),
* not at all within FO + POLY — Theorem 2 — so for semi-algebraic sets
  only probabilistic evaluation remains: per-query Monte Carlo
  (``strategy="montecarlo"``) or Theorem 4's uniform witness sampling
  (:class:`repro.core.witness.UniformVolumeApproximator`),
* trivially within 1/2 — Proposition 4 (``strategy="trivial"``).

:class:`VolTerm` is the syntax node; :func:`evaluate_vol` dispatches on
strategy.  Nesting VOL inside further constraints is intentionally not
closed — that is the paper's central negative result — so :class:`VolTerm`
is a *top-level* aggregation, mirroring the remark after Theorem 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from ..db.evaluation import expand_relations, resolve_adom_quantifiers
from ..db.instance import FiniteInstance
from ..geometry.decomposition import formula_volume, formula_volume_unit_cube
from ..geometry.sampling import hoeffding_volume
from ..logic.formulas import Formula
from ..logic.metrics import max_degree
from ..logic.normalform import is_quantifier_free
from ..logic.substitution import substitute
from ..logic.terms import Const
from ..qe.fourier_motzkin import qe_linear
from .._errors import ApproximationError, EvaluationError

__all__ = ["VolTerm", "evaluate_vol"]


@dataclass(frozen=True)
class VolTerm:
    """``[VOL y. body](x, z)``: the volume of ``{ y : D |= body(x, y) }``.

    ``point_vars`` are the y (the measured coordinates); the remaining
    free variables of ``body`` are the parameters x.  ``bounded`` selects
    VOL_I (restriction to the unit cube), the variant under which the
    paper's approximation theory lives.
    """

    point_vars: tuple[str, ...]
    body: Formula
    bounded: bool = True

    def parameters(self) -> frozenset[str]:
        return self.body.free_variables() - set(self.point_vars)


def _prepared(term: VolTerm, instance, env: Mapping[str, Fraction]) -> Formula:
    bound = term.body
    missing = term.parameters() - set(env or {})
    if missing:
        raise EvaluationError(f"unbound VOL parameters {sorted(missing)}")
    if env:
        bound = substitute(
            bound,
            {k: Const(Fraction(v)) for k, v in env.items() if k in term.parameters()},
        )
    if isinstance(instance, FiniteInstance):
        bound = resolve_adom_quantifiers(bound, instance)
    return expand_relations(bound, instance)


def evaluate_vol(
    term: VolTerm,
    instance,
    env: Mapping[str, Fraction] | None = None,
    strategy: str = "exact",
    epsilon: float = 0.05,
    delta: float = 0.05,
    rng: np.random.Generator | None = None,
) -> Fraction | float:
    """Evaluate a VOL term under the chosen strategy.

    ``exact``      — Theorem 3; requires a linear (semi-linear) body.
    ``trivial``    — Proposition 4; requires VOL_I and eps >= 1/2 semantics:
                     returns 0, 1 or 1/2 (linear bodies only).
    ``montecarlo`` — hit-or-miss sampling with the Hoeffding sample size
                     for (epsilon, delta); works for any body, VOL_I only.
    """
    env = dict(env or {})
    expanded = _prepared(term, instance, env)
    if strategy == "exact":
        if max_degree(expanded) > 1:
            raise EvaluationError(
                "exact VOL is available for semi-linear sets only "
                "(Theorem 2: no language in the paper's class evaluates "
                "polynomial volumes); use strategy='montecarlo'"
            )
        if term.bounded:
            return formula_volume_unit_cube(expanded, term.point_vars)
        return formula_volume(expanded, term.point_vars)
    if strategy == "trivial":
        if not term.bounded:
            raise ApproximationError("the trivial approximation needs VOL_I")
        from ..approx.trivial import trivial_vol_approximation

        return trivial_vol_approximation(expanded, term.point_vars)
    if strategy == "montecarlo":
        if not term.bounded:
            raise ApproximationError("Monte Carlo sampling needs VOL_I")
        if rng is None:
            raise ApproximationError("supply an rng for randomised strategies")
        if not is_quantifier_free(expanded):
            expanded = qe_linear(expanded)
        return hoeffding_volume(
            expanded, term.point_vars, epsilon, delta, rng
        ).estimate
    raise ApproximationError(f"unknown VOL strategy {strategy!r}")
