"""The exact -> approximate degradation ladder for volume queries.

The paper's Section 3 lesson is that exact aggregation can be astronomically
expensive while approximation stays cheap; this module operationalises it.
:func:`robust_volume` is the one ladder every front-end runs for exact and
approximate volume alike (``repro volume``, ``repro approx``, batch and
serve ``volume`` and ``approx`` rows, the batch quarantine fallback); an
approximate answer is its last rung run with ``policy="approx-only"``.  It
tries, in order:

1. **exact** — compile the query with :func:`repro.engine.prepare` (QE with
   feasibility pruning, convex decomposition; through the caller's plan
   cache, if any) and take the plan's exact union volume over the box;
2. **exact-coarse** — recompile afresh with the Fourier-Motzkin
   feasibility prune disabled.  Still exact, and it rescues a caller-set
   ``max_constraints`` cap: the prune charges the Fourier-Motzkin rows
   of its own feasibility tests, the unpruned compile does not;
3. **approximate** — Monte Carlo hit-or-miss sampling sized from
   ``(epsilon, delta)`` by the Hoeffding bound, with a reported confidence
   radius.  It samples the cells of a plan an exact rung compiled (the
   set that rung was measuring), or else eliminates quantifiers itself
   (under the budget).

Every rung runs under the given :class:`~repro.guard.budget.Budget`
(countable consumption is reset between rungs; the wall-clock deadline is
absolute), so an approximate answer asked for directly trips ``deadline``
like any other query.  Only sampling *after* an exact rung exhausted the
budget runs with it suspended: its cost is fixed by ``(epsilon, delta)``,
and it must not be killed by the deadline that forced the fallback.  The
result carries ``mode`` in ``{"exact", "exact-coarse", "approximate"}``,
the exhaustion errors of the rungs that failed, and the first plan a rung
compiled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .. import obs
from .._errors import ApproximationError
from .budget import Budget, active, govern, suspend
from .errors import BudgetExceeded

if TYPE_CHECKING:
    from ..engine.prepared import PreparedQuery
    from ..logic.formulas import Formula

__all__ = ["POLICIES", "RobustResult", "robust_volume"]

#: Degradation policies: ``off`` = exact only (exhaustion propagates),
#: ``auto`` = full ladder, ``approx-only`` = skip the exact rungs.
POLICIES = ("off", "auto", "approx-only")


@dataclass
class RobustResult:
    """Outcome of :func:`robust_volume`.

    ``value`` is an exact :class:`~fractions.Fraction` when ``mode`` is
    ``exact`` or ``exact-coarse`` and a float estimate when ``mode`` is
    ``approximate``; ``confidence_radius`` is ``None`` for exact modes.
    ``attempts`` lists ``(mode, error)`` for every rung that exhausted its
    budget before the returned one succeeded.  ``plan`` is the first
    :class:`~repro.engine.PreparedQuery` a rung compiled (``None`` when
    none got that far).
    """

    value: "Fraction | float"
    mode: str
    confidence_radius: float | None = None
    samples: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    attempts: list[tuple[str, BudgetExceeded]] = field(default_factory=list)
    plan: PreparedQuery | None = None

    def __float__(self) -> float:
        return float(self.value)


def robust_volume(
    query: Formula | str,
    variables: Sequence[str] | None = None,
    *,
    epsilon: float = 0.05,
    delta: float = 0.05,
    budget: Budget | None = None,
    policy: str = "auto",
    box: Sequence[tuple[Fraction, Fraction]] | None = None,
    rng=None,
    cache=None,
) -> RobustResult:
    """VOL of *query* (a formula or its text) over *box* (default: the unit
    cube, i.e. VOL_I), degrading from exact to approximate as the budget
    allows.

    ``variables`` fixes the dimension order (default: sorted free
    variables).  ``cache`` is the plan cache the exact rung compiles
    through (a :class:`~repro.engine.PlanCache` or store-backed cache);
    ``None`` compiles afresh.  ``budget=None`` uses the budget already
    active in this context, if any; with no budget at all the exact rung
    runs ungoverned (and the ladder only matters for
    ``policy="approx-only"``).
    """
    if policy not in POLICIES:
        raise ApproximationError(
            f"unknown fallback policy {policy!r}; one of {POLICIES}"
        )
    budget = budget if budget is not None else active()
    attempts: list[tuple[str, BudgetExceeded]] = []
    plan = None

    with obs.span(
        "guard.robust_volume", policy=policy,
        **(budget.limits() if budget is not None else {}),
    ) as span:
        if policy != "approx-only":
            from ..engine.prepared import prepare

            rungs = (("exact", cache, True), ("exact-coarse", None, False))
            for mode, rung_cache, prune in rungs:
                if budget is not None:
                    budget.reset_consumed()
                try:
                    # prepare() governs its own cache lookup and compile.
                    compiled = prepare(
                        query, variables, cache=rung_cache, budget=budget,
                        prune=prune,
                    )
                    plan = plan or compiled
                    with govern(budget):
                        value = compiled.volume(box)
                except BudgetExceeded as error:
                    attempts.append((mode, error))
                    if policy == "off":
                        raise
                    obs.add("guard.fallback_transitions")
                    continue
                span.set(mode=mode)
                obs.observe_value("guard.fallback.attempts", len(attempts))
                return RobustResult(value, mode, attempts=attempts, plan=plan)

        result = _sample_volume(
            query, variables, box, budget, epsilon, delta, rng, plan,
            suspended=bool(attempts),
        )
        result.attempts = attempts
        span.set(mode="approximate")
        obs.observe_value("guard.fallback.attempts", len(attempts))
        return result


def _sample_volume(
    query, variables, box, budget, epsilon, delta, rng, plan, suspended
) -> RobustResult:
    """The Monte Carlo rung; *suspended* once an exact rung spent the budget."""
    from ..geometry.sampling import hoeffding_volume

    if plan is not None:
        # The cells an exact rung compiled: the set it was measuring.
        from ..logic.formulas import disjunction
        from ..qe.fourier_motzkin import constraints_to_formula

        formula = disjunction(
            *(constraints_to_formula(cell.constraints) for cell in plan.cells)
        )
        variables = plan.variables
    else:
        from ..logic.normalform import is_quantifier_free
        from ..logic.parser import parse

        formula = parse(query) if isinstance(query, str) else query
        if variables is None:
            variables = sorted(formula.free_variables())
        # The sampler needs a quantifier-free formula.  Quantifier
        # elimination is exact work, so it stays *under* the budget (a
        # query whose QE alone exhausts the budget cannot be approximated
        # by this ladder either).
        if not is_quantifier_free(formula):
            from ..qe.fourier_motzkin import qe_linear

            if budget is not None:
                budget.reset_consumed()
            with govern(budget):
                formula = qe_linear(formula)

    start = time.perf_counter()
    with suspend() if suspended else govern(budget):
        estimate = hoeffding_volume(formula, variables, epsilon, delta, rng, box)
    obs.observe_value("engine.query.mc_s", time.perf_counter() - start)
    return RobustResult(
        estimate.estimate,
        "approximate",
        confidence_radius=estimate.confidence_radius,
        samples=estimate.samples,
        epsilon=epsilon,
        delta=delta,
        plan=plan,
    )
