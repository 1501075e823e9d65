"""Monte Carlo volume estimation and fast membership testing.

Hit-or-miss sampling in the unit cube (or an arbitrary box) estimates
VOL_I of any definable set.  Error control comes from the Hoeffding bound;
the VC-based *uniform* error control of the paper's Theorem 4 lives in
:mod:`repro.core.witness`, which builds on the sampling primitives here.

Formulas are compiled to vectorised NumPy predicates for speed; an exact
rational membership test is also provided.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ..logic.evaluate import evaluate
from ..logic.formulas import (
    And,
    Compare,
    FalseFormula,
    Formula,
    Not,
    Or,
    TrueFormula,
)
from ..logic.terms import Add, Const, Mul, Neg, Pow, Term, Var
from .. import guard, obs
from .._errors import ApproximationError

__all__ = [
    "compile_term_numpy",
    "compile_formula_numpy",
    "exact_membership",
    "hit_or_miss_volume",
    "hoeffding_sample_size",
    "hoeffding_volume",
    "MonteCarloEstimate",
]


def compile_term_numpy(
    term: Term, variables: Sequence[str]
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a term to a function of an ``(m, n)`` array of points."""
    index = {name: i for i, name in enumerate(variables)}

    def build(node: Term) -> Callable[[np.ndarray], np.ndarray]:
        if isinstance(node, Var):
            column = index[node.name]
            return lambda pts: pts[:, column]
        if isinstance(node, Const):
            value = float(node.value)
            return lambda pts: np.full(pts.shape[0], value)
        if isinstance(node, Add):
            parts = [build(a) for a in node.args]
            return lambda pts: sum(p(pts) for p in parts)
        if isinstance(node, Mul):
            parts = [build(a) for a in node.args]

            def product(pts: np.ndarray) -> np.ndarray:
                out = parts[0](pts)
                for p in parts[1:]:
                    out = out * p(pts)
                return out

            return product
        if isinstance(node, Neg):
            inner = build(node.arg)
            return lambda pts: -inner(pts)
        if isinstance(node, Pow):
            inner = build(node.base)
            exponent = node.exponent
            return lambda pts: inner(pts) ** exponent
        raise TypeError(f"unknown term node {type(node).__name__}")

    return build(term)


def compile_formula_numpy(
    formula: Formula, variables: Sequence[str]
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a quantifier-free formula to a vectorised boolean predicate.

    Floating-point evaluation: adequate for Monte Carlo estimation, not for
    exact decisions on boundary points.
    """
    if formula.relation_names():
        raise ApproximationError(
            "expand schema relations before compiling for sampling"
        )

    def build(node: Formula) -> Callable[[np.ndarray], np.ndarray]:
        if isinstance(node, TrueFormula):
            return lambda pts: np.ones(pts.shape[0], dtype=bool)
        if isinstance(node, FalseFormula):
            return lambda pts: np.zeros(pts.shape[0], dtype=bool)
        if isinstance(node, Compare):
            lhs = compile_term_numpy(node.lhs, variables)
            rhs = compile_term_numpy(node.rhs, variables)
            op = node.op
            if op == "<":
                return lambda pts: lhs(pts) < rhs(pts)
            if op == "<=":
                return lambda pts: lhs(pts) <= rhs(pts)
            if op == "=":
                return lambda pts: lhs(pts) == rhs(pts)
            if op == "!=":
                return lambda pts: lhs(pts) != rhs(pts)
            if op == ">=":
                return lambda pts: lhs(pts) >= rhs(pts)
            return lambda pts: lhs(pts) > rhs(pts)
        if isinstance(node, And):
            parts = [build(a) for a in node.args]

            def conj(pts: np.ndarray) -> np.ndarray:
                out = parts[0](pts)
                for p in parts[1:]:
                    out = out & p(pts)
                return out

            return conj
        if isinstance(node, Or):
            parts = [build(a) for a in node.args]

            def disj(pts: np.ndarray) -> np.ndarray:
                out = parts[0](pts)
                for p in parts[1:]:
                    out = out | p(pts)
                return out

            return disj
        if isinstance(node, Not):
            inner = build(node.arg)
            return lambda pts: ~inner(pts)
        raise ApproximationError(
            f"cannot compile node {type(node).__name__}; formulas must be "
            "quantifier-free (eliminate quantifiers first)"
        )

    return build(formula)


def exact_membership(
    formula: Formula, variables: Sequence[str]
) -> Callable[[Sequence[Fraction]], bool]:
    """An exact rational membership test for a quantifier-free formula."""

    def member(point: Sequence[Fraction]) -> bool:
        env = {v: Fraction(c) for v, c in zip(variables, point)}
        return evaluate(formula, env)

    return member


class MonteCarloEstimate:
    """Result of a hit-or-miss volume estimation."""

    __slots__ = ("estimate", "hits", "samples", "confidence_radius")

    def __init__(self, estimate: float, hits: int, samples: int, confidence_radius: float):
        self.estimate = estimate
        self.hits = hits
        self.samples = samples
        #: Hoeffding radius: |estimate - truth| < radius w.p. >= the
        #: confidence the radius was computed for.
        self.confidence_radius = confidence_radius

    def __repr__(self) -> str:
        return (
            f"MonteCarloEstimate({self.estimate:.6f} +- "
            f"{self.confidence_radius:.6f}, {self.hits}/{self.samples})"
        )


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Samples needed so a single mean estimate errs < epsilon w.p. >= 1-delta."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise ApproximationError("epsilon and delta must lie in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def hoeffding_volume(
    formula: Formula,
    variables: Sequence[str],
    epsilon: float,
    delta: float,
    rng: np.random.Generator | None = None,
    box: Sequence[tuple[Fraction | float, Fraction | float]] | None = None,
) -> MonteCarloEstimate:
    """The (epsilon, delta) hit-or-miss estimate of ``formula`` in ``box``.

    Draws :func:`hoeffding_sample_size` points, so the estimate errs by
    less than epsilon (times the box volume) with probability >= 1-delta.
    Every Monte Carlo volume estimate in the package goes through here.
    ``rng=None`` samples from ``default_rng(0)``; ``box=None`` is I^n.
    """
    samples = hoeffding_sample_size(epsilon, delta)
    obs.set_gauge("mc.hoeffding_sample_size", samples)
    if rng is None:
        rng = np.random.default_rng(0)
    if box is not None:
        box = [(float(low), float(high)) for low, high in box]
    return hit_or_miss_volume(formula, variables, samples, rng, box=box, delta=delta)


#: Points drawn per batch between budget checkpoints.
_SAMPLE_CHUNK = 65_536


def hit_or_miss_volume(
    formula: Formula,
    variables: Sequence[str],
    samples: int,
    rng: np.random.Generator,
    box: Sequence[tuple[float, float]] | None = None,
    delta: float = 0.05,
) -> MonteCarloEstimate:
    """Estimate the volume of ``formula`` inside ``box`` (default I^n).

    The estimate is the hit fraction scaled by the box volume; the reported
    confidence radius is the Hoeffding bound at confidence ``1 - delta``.
    """
    if samples <= 0:
        raise ApproximationError("samples must be positive")
    dims = len(variables)
    if box is None:
        box = [(0.0, 1.0)] * dims
    elif len(box) != dims:
        raise ApproximationError(
            f"box must give bounds for all of {tuple(variables)}"
        )
    with obs.span("mc.hit_or_miss", samples=samples, dims=dims):
        lows = np.array([b[0] for b in box])
        highs = np.array([b[1] for b in box])
        box_volume = float(np.prod(highs - lows))
        predicate = compile_formula_numpy(formula, variables)
        # Sampling is chunked so a wall-clock budget can cancel mid-run;
        # sequential chunked draws consume the generator's stream exactly
        # like one big draw, so results are unchanged.
        hits = 0
        remaining = samples
        while remaining:
            guard.checkpoint()
            chunk = min(remaining, _SAMPLE_CHUNK)
            points = rng.random((chunk, dims)) * (highs - lows) + lows
            hits += int(np.count_nonzero(predicate(points)))
            remaining -= chunk
    obs.add("mc.samples", samples)
    obs.add("mc.hits", hits)
    fraction = hits / samples
    radius = math.sqrt(math.log(2.0 / delta) / (2.0 * samples)) * box_volume
    return MonteCarloEstimate(fraction * box_volume, hits, samples, radius)
