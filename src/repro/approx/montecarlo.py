"""(epsilon, delta) Monte Carlo volume approximation.

A thin layer over :func:`repro.geometry.sampling.hoeffding_volume` (the
hit-or-miss sampler sized by the Hoeffding bound), giving a *per-query*
(not uniform-in-parameters) probabilistic epsilon-approximation of VOL_I.
The uniform-over-parameters version (Theorem 4) is
:class:`repro.core.witness.UniformVolumeApproximator`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geometry.sampling import MonteCarloEstimate, hoeffding_volume
from ..logic.formulas import Formula
from .. import obs

__all__ = ["approximate_vol_unit_cube"]


def approximate_vol_unit_cube(
    formula: Formula,
    variables: Sequence[str],
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> MonteCarloEstimate:
    """Estimate VOL_I(formula) within *epsilon* with probability >= 1-delta."""
    with obs.span("approx.mc", epsilon=epsilon, delta=delta):
        return hoeffding_volume(formula, variables, epsilon, delta, rng)
