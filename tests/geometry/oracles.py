"""Reference volumes that the union-aware slicing integrator is checked against.

* :func:`inclusion_exclusion_volume` — the alternating sum over all
  2^n - 1 non-empty subsets of cells, each intersection measured as one
  convex polytope.  Exponential in n, so only for small unions.
* :func:`box_union_volume` — coordinate compression over axis-aligned
  boxes; shares no code with ``repro`` at all.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from repro.geometry import Polyhedron, polytope_volume


def inclusion_exclusion_volume(cells: Sequence[Polyhedron]) -> Fraction:
    """Exact volume of a union of convex cells by inclusion-exclusion."""
    total = Fraction(0)
    for size in range(1, len(cells) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in itertools.combinations(cells, size):
            intersection = subset[0]
            for cell in subset[1:]:
                intersection = intersection.intersect(cell)
            if not intersection.is_empty():
                total += sign * polytope_volume(intersection)
    return total


def box_union_volume(
    boxes: Sequence[Sequence[tuple[Fraction, Fraction]]],
) -> Fraction:
    """Exact volume of a union of closed boxes (per-axis ``(low, high)``)."""
    boxes = [box for box in boxes if all(low < high for low, high in box)]
    if not boxes:
        return Fraction(0)
    dims = len(boxes[0])
    axes = [sorted({bound for box in boxes for bound in box[d]}) for d in range(dims)]
    total = Fraction(0)
    for cell in itertools.product(*(zip(axis, axis[1:]) for axis in axes)):
        if any(all(box[d][0] <= low and high <= box[d][1]
                   for d, (low, high) in enumerate(cell)) for box in boxes):
            size = Fraction(1)
            for low, high in cell:
                size *= high - low
            total += size
    return total
