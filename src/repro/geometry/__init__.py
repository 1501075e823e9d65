"""Polyhedral geometry: semi-linear sets, exact volumes, sampling, ellipsoids.

The exact pipeline (all rational arithmetic):
formula -> DNF cells -> convex polyhedra -> Theorem-3 slicing volume.
Floating-point enters only in the Monte Carlo estimators and the
Loewner-John / Qhull baselines.
"""

from .polyhedron import Point, Polyhedron
from .linalg import determinant, gaussian_elimination_rank, solve_integer_system
from .volume import polytope_volume, union_volume
from .decomposition import formula_to_cells, formula_volume, formula_volume_unit_cube
from .sampling import (
    MonteCarloEstimate,
    compile_formula_numpy,
    compile_term_numpy,
    exact_membership,
    hit_or_miss_volume,
    hoeffding_sample_size,
    hoeffding_volume,
)
from .triangulate import (
    convex_hull_volume_float,
    fan_triangulation_area,
    shoelace_area,
    simplex_volume,
    sort_ccw,
    triangle_area,
)
from .ellipsoid import Ellipsoid, john_volume_estimate, mvee, unit_ball_volume
from .variable_independence import (
    cell_is_variable_independent,
    is_variable_independent,
    variable_independent_volume,
)

__all__ = [
    "Polyhedron",
    "Point",
    "solve_integer_system",
    "determinant",
    "gaussian_elimination_rank",
    "polytope_volume",
    "union_volume",
    "formula_to_cells",
    "formula_volume",
    "formula_volume_unit_cube",
    "compile_formula_numpy",
    "compile_term_numpy",
    "exact_membership",
    "hit_or_miss_volume",
    "hoeffding_sample_size",
    "hoeffding_volume",
    "MonteCarloEstimate",
    "triangle_area",
    "simplex_volume",
    "fan_triangulation_area",
    "shoelace_area",
    "convex_hull_volume_float",
    "sort_ccw",
    "Ellipsoid",
    "mvee",
    "unit_ball_volume",
    "john_volume_estimate",
    "cell_is_variable_independent",
    "is_variable_independent",
    "variable_independent_volume",
]
