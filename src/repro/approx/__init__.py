"""Approximate aggregation operators and the KM construction cost model."""

from .operators import (
    epsilon_band_to_relative,
    is_valid_absolute_approximation,
    is_valid_relative_approximation,
)
from .trivial import trivial_vol_approximation
from .km_cost import DERANDOMISATION_DELTA, KMCost, km_cost, km_cost_for_query
from .convex import convex_relative_approximation, john_band
from .sampled_aggregates import AggregateEstimate, sample_avg, sample_sum

__all__ = [
    "is_valid_absolute_approximation",
    "is_valid_relative_approximation",
    "epsilon_band_to_relative",
    "trivial_vol_approximation",
    "KMCost",
    "km_cost",
    "km_cost_for_query",
    "DERANDOMISATION_DELTA",
    "convex_relative_approximation",
    "john_band",
    "AggregateEstimate",
    "sample_avg",
    "sample_sum",
]
