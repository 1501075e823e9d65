"""E9 — Theorem 3: exact volumes of semi-linear sets.

Paper claim: FO + POLY + SUM computes the exact volume of (a) every
schema predicate of a semi-linear database and (b) every FO + LIN query
output, by the slice-interpolate-integrate induction on dimension.

Reproduction: random semi-linear sets (unions of polytopes) in dimensions
1-3 and FO + LIN query outputs over them.  Three computations must agree:
the production slicing path, the dimension-2 literal transcription of the
paper's proof, and floating-point Qhull on the convex cases.  Ablation A2:
the slicing axis does not change the result (Fubini).  E9d: union volume
costs intersections of at most d cells, polynomial in the number of
cells, where inclusion-exclusion needs all 2^n - n - 1.
"""

import time
from fractions import Fraction

import pytest

from repro import obs
from repro.core import volume_2d_fo_poly_sum, volume_of_query, volume_of_relation
from repro.db import FRInstance, Schema
from repro.geometry import (
    convex_hull_volume_float,
    formula_to_cells,
    formula_volume,
    polytope_volume,
)
from repro.logic import Relation, between, disjunction, exists, variables

from conftest import print_table
from obs_report import emit

x, y, z = variables("x y z")


def random_union_2d(rng):
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        x0, x1 = sorted(Fraction(int(v), 8) for v in rng.integers(0, 17, 2))
        y0, y1 = sorted(Fraction(int(v), 8) for v in rng.integers(0, 17, 2))
        if x0 < x1 and y0 < y1:
            parts.append(between(x0, x, x1) & between(y0, y, y1))
    if not parts:
        parts = [between(0, x, 1) & between(0, y, 1)]
    return disjunction(*parts)


def test_e9_agreement_2d(rng, benchmark):
    schema = Schema.make({"P": 2})
    P = Relation("P", 2)
    bodies = [random_union_2d(rng) for _ in range(6)]

    def run():
        out = []
        for body in bodies:
            instance = FRInstance.make(schema, {"P": ((x, y), body)})
            production = volume_of_relation(instance, "P")
            transcription = volume_2d_fo_poly_sum(instance, P(x, y), "x", "y")
            out.append((production, transcription))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [i, str(a), str(b), "yes" if a == b else "NO"]
        for i, (a, b) in enumerate(results)
    ]
    header = ["case", "slicing volume", "proof-path volume", "equal"]
    print_table(
        "E9a: Theorem 3 — production slicing vs literal proof transcription",
        header,
        rows,
    )
    emit("E9a", header, rows)
    for a, b in results:
        assert a == b


def test_e9_query_outputs_and_qhull(rng, benchmark):
    schema = Schema.make({"P": 3})
    P = Relation("P", 3)
    body = (
        between(0, x, 2) & between(0, y, 2) & between(0, z, 2)
        & (x + y + z <= 3)
    )
    instance = FRInstance.make(schema, {"P": ((x, y, z), body)})
    query = P(x, y, z) & (z <= 1)

    def run():
        return volume_of_query(query, instance, ("x", "y", "z"))

    exact = benchmark(run)

    (cell,) = formula_to_cells(
        body & (z <= 1), ("x", "y", "z")
    )
    hull = convex_hull_volume_float(
        [[float(c) for c in v] for v in cell.vertices()]
    )
    rows = [[str(exact), f"{hull:.6f}", f"{abs(float(exact) - hull):.2e}"]]
    header = ["exact (Theorem 3)", "Qhull float", "|difference|"]
    print_table(
        "E9b: FO + LIN query output volume vs Qhull baseline",
        header,
        rows,
    )
    emit("E9b", header, rows)
    assert abs(float(exact) - hull) < 1e-9


def test_e9_axis_ablation(rng, benchmark):
    """A2: the slicing axis is irrelevant (Fubini)."""
    body = (
        between(0, x, 1) & between(0, y, 2) & (y <= 2 - 2 * x + Fraction(1, 2))
    )
    (cell_xy,) = formula_to_cells(body, ("x", "y"))
    (cell_yx,) = formula_to_cells(body, ("y", "x"))

    def run():
        return polytope_volume(cell_xy), polytope_volume(cell_yx)

    volume_xy, volume_yx = benchmark(run)
    header = ["slice along x first", "slice along y first", "equal"]
    rows = [[str(volume_xy), str(volume_yx), "yes" if volume_xy == volume_yx else "NO"]]
    print_table("E9c: slicing-axis ablation (Fubini)", header, rows)
    emit("E9c", header, rows)
    assert volume_xy == volume_yx


def staircase(n):
    """Boxes [0, n-i] x [i, i+2], i < n: every pair overlaps in x, and
    neighbours overlap in area.  The union's area is n + n(n+1)/2."""
    return disjunction(*(
        between(0, x, n - i) & between(i, y, i + 2) for i in range(n)
    ))


def test_e9_union_size_sweep():
    """E9d: exact union volume is polynomial, not exponential, in n."""
    rows = []
    for n in (4, 8, 16, 24):
        before = obs.REGISTRY.value("volume.intersections") or 0
        start = time.perf_counter()
        area = formula_volume(staircase(n), ("x", "y"))
        seconds = time.perf_counter() - start
        tested = obs.REGISTRY.value("volume.intersections") - before
        assert area == n + Fraction(n * (n + 1), 2)
        assert tested <= n * (n - 1) // 2
        rows.append([n, f"{seconds:.3f}", tested, 2 ** n - n - 1])
    header = ["cells", "seconds", "volume.intersections",
              "inclusion-exclusion intersections"]
    print_table("E9d: union size sweep (2-D boxes)", header, rows)
    emit("E9d", header, rows)
