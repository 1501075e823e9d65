"""Union-aware slicing: the one exact-volume integrator, against its oracles.

``union_volume`` slices along the first coordinate with breakpoints from
intersections of at most d cells.  It is checked against
inclusion-exclusion (small random unions of every awkward kind), against
coordinate compression (unions larger than inclusion-exclusion can
afford), and for cooperative cancellation inside both of its loops.
"""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.geometry.volume as volume_module
from repro import guard
from repro.engine import prepare, run_batch
from repro.geometry import Polyhedron, union_volume
from repro.guard import BudgetExceeded, testing
from repro.qe.linear import LinConstraint

from .oracles import box_union_volume, inclusion_exclusion_volume

NAMES = ("x", "y", "z")

grid = st.integers(0, 8).map(lambda k: Fraction(k, 2))
strictness = st.sampled_from(["<", "<="])


@st.composite
def bounds(draw, dims):
    """Per-axis ``(low, high)`` with low <= high on the half-integer grid."""
    return [tuple(sorted((draw(grid), draw(grid)))) for _ in range(dims)]


@st.composite
def box_constraints(draw, box):
    names = NAMES[:len(box)]
    constraints = []
    for name, (low, high) in zip(names, box):
        if low == high:  # a lower-dimensional cell
            constraints.append(LinConstraint.make({name: 1}, -low, "="))
            continue
        constraints.append(LinConstraint.make({name: -1}, low, draw(strictness)))
        constraints.append(LinConstraint.make({name: 1}, -high, draw(strictness)))
    return constraints


@st.composite
def cell_lists(draw):
    """1-6 cells in 1-3-D: boxes, skewed cuts, nested, vertex-touching, flat."""
    dims = draw(st.integers(1, 3))
    names = NAMES[:dims]
    boxes: list[list[tuple[Fraction, Fraction]]] = []
    cells: list[Polyhedron] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["box", "skew", "nested", "corner"]))
        box = draw(bounds(dims))
        if kind == "corner" and boxes:
            # Starts at the far corner of an earlier box: the two touch in
            # a single vertex (or share facets where that box is flat).
            corner = [high for _, high in draw(st.sampled_from(boxes))]
            box = [(c, c + draw(grid) / 2) for c in corner]
        constraints = draw(box_constraints(box))
        if kind == "skew":
            coeffs = {n: draw(st.integers(-2, 2)) for n in names}
            offset = draw(st.integers(-4, 8)) / Fraction(2)
            constraints.append(LinConstraint.make(coeffs, -offset, draw(strictness)))
        if kind == "nested" and cells:
            constraints = list(draw(st.sampled_from(cells)).constraints) + constraints
        boxes.append(box)
        cells.append(Polyhedron.make(names, constraints))
    return cells


@settings(max_examples=150, deadline=None)
@given(cell_lists())
def test_union_volume_matches_inclusion_exclusion(cells):
    assert union_volume(cells) == inclusion_exclusion_volume(cells)


def test_shared_facets_and_single_vertex_contact():
    def box(*bounds_):
        return Polyhedron.make(NAMES[:len(bounds_)], [
            c for name, (low, high) in zip(NAMES, bounds_)
            for c in (LinConstraint.make({name: -1}, low, "<="),
                      LinConstraint.make({name: 1}, -high, "<="))
        ])

    half = Fraction(1, 2)
    cells = [box((0, 1), (0, 1)), box((1, 2), (0, 1)),  # shared facet
             box((2, 3), (1, 2)),                       # single vertex
             box((half, 1), (half, 1))]                 # nested
    assert union_volume(cells) == inclusion_exclusion_volume(cells) == 3


# -- unions beyond the reach of inclusion-exclusion --------------------------

def overlapping_boxes(seed: int, count: int, dims: int):
    rng = random.Random(seed)
    boxes = []
    for _ in range(count):
        box = []
        for _ in range(dims):
            width = rng.randint(3, 8)
            low = rng.randint(0, 16 - width)
            box.append((Fraction(low, 16), Fraction(low + width, 16)))
        boxes.append(box)
    return boxes


def union_text(boxes) -> str:
    return " OR ".join(
        "(" + " AND ".join(f"{low} <= {name} AND {name} <= {high}"
                           for name, (low, high) in zip(NAMES, box)) + ")"
        for box in boxes
    )


@pytest.mark.parametrize("count,dims", [(24, 2), (12, 3)])
def test_large_unions_are_exact(count, dims):
    boxes = overlapping_boxes(count, count, dims)
    text, names = union_text(boxes), NAMES[:dims]
    expected = box_union_volume(boxes)

    plan = prepare(text, names, cache=None)
    assert plan.cell_count() == count
    assert plan.volume() == expected

    (row,) = run_batch([{"id": "big", "op": "volume", "formula": text,
                         "variables": list(names)}])
    assert row["status"] == "ok" and row["mode"] == "exact"
    assert Fraction(row["exact"]) == expected


# -- cooperative cancellation inside the integrator ---------------------------

SKEWED = union_text(overlapping_boxes(5, 6, 2)) + " OR (x + y <= 1/2 AND 0 <= x AND 0 <= y)"


def integrator_checkpoints(monkeypatch, run) -> dict[int, list[int]]:
    """Checkpoint ordinals (as trip_after counts them) per call-site line
    of ``repro.geometry.volume``, observed during ``run()``."""
    sites: dict[int, list[int]] = {}
    with testing.trip_after(10**9) as spec:
        def spy():
            guard.checkpoint()
            sites.setdefault(sys._getframe(1).f_lineno, []).append(spec["count"])

        monkeypatch.setattr(volume_module, "guard", SimpleNamespace(checkpoint=spy))
        run()
    monkeypatch.undo()
    return sites


def test_budget_trips_in_breakpoint_and_slab_loops(monkeypatch):
    def evaluate():
        return prepare(SKEWED, ("x", "y"), cache=None).volume()

    expected = evaluate()
    sites = integrator_checkpoints(monkeypatch, evaluate)
    assert len(sites) == 2  # the breakpoint loop and the slab loop
    for ordinals in sites.values():
        for ordinal in (ordinals[0], ordinals[-1]):
            with testing.trip_after(ordinal):
                with pytest.raises(BudgetExceeded):
                    evaluate()
    assert evaluate() == expected


def test_budget_trip_in_batch_is_a_structured_record(monkeypatch):
    task = {"id": "skewed", "op": "volume", "formula": SKEWED,
            "variables": ["x", "y"]}

    def batch():
        # collect_obs compiles privately: no memo carries across runs.
        return run_batch([task], collect_obs=True)

    sites = integrator_checkpoints(monkeypatch, batch)
    assert len(sites) == 2
    for ordinals in sites.values():
        with testing.trip_after(ordinals[0]):
            (row,) = batch()
        assert row["status"] == "budget-exceeded"
        assert row["resource"] == "deadline"
        assert "value" not in row and "exact" not in row
