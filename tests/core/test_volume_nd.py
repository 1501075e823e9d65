"""The dimension-general Theorem 3 induction (volume_nd_fo_poly_sum)."""

from fractions import Fraction

import pytest

from repro.core import volume_nd_fo_poly_sum
from repro.db import FRInstance, Schema
from repro.db.evaluation import output_formula
from repro.geometry import formula_to_cells
from repro.logic import Relation, between, variables
from repro._errors import UnboundedSetError

from ..geometry.oracles import inclusion_exclusion_volume

x, y, z, w = variables("x y z w")


def instance_of(body, names, name="P"):
    schema = Schema.make({name: len(names)})
    vars_ = variables(" ".join(names))
    return FRInstance.make(schema, {name: (vars_, body)})


class TestBaseCases:
    def test_1d_interval(self):
        inst = instance_of(between(0, x, Fraction(1, 3)), ("x",))
        P = Relation("P", 1)
        assert volume_nd_fo_poly_sum(inst, P(x), ("x",)) == Fraction(1, 3)

    def test_1d_union(self):
        body = between(0, x, 1) | between(2, x, Fraction(5, 2))
        inst = instance_of(body, ("x",))
        P = Relation("P", 1)
        assert volume_nd_fo_poly_sum(inst, P(x), ("x",)) == Fraction(3, 2)

    def test_1d_unbounded_raises(self):
        inst = instance_of(x > 0, ("x",))
        P = Relation("P", 1)
        with pytest.raises(UnboundedSetError):
            volume_nd_fo_poly_sum(inst, P(x), ("x",))


def oracle_volume(query, instance, names):
    """Inclusion-exclusion over the cells of the query output."""
    cells = formula_to_cells(output_formula(query, instance), names)
    return inclusion_exclusion_volume(cells)


class TestAgainstProduction:
    @pytest.mark.parametrize(
        "body,names",
        [
            ((0 <= y) & (y <= x) & (x <= 1), ("x", "y")),
            (
                between(0, x, 1) & between(0, y, 1) & between(0, z, 1)
                & (x + y + z <= 1),
                ("x", "y", "z"),
            ),
            (
                between(0, x, 2) & between(0, y, 2) & between(0, z, 2)
                & (x + y + z <= 3),
                ("x", "y", "z"),
            ),
        ],
    )
    def test_convex_cases(self, body, names):
        inst = instance_of(body, names)
        P = Relation("P", len(names))
        args = variables(" ".join(names))
        query = P(*args)
        assert volume_nd_fo_poly_sum(inst, query, names) == oracle_volume(
            query, inst, names
        )

    def test_skew_union_2d(self):
        body = (
            between(0, x, 2) & (0 <= y) & (y <= x)
        ) | (
            between(0, x, Fraction(3, 2)) & (y >= 1 - x) & (0 <= y) & (y <= 1)
        )
        inst = instance_of(body, ("x", "y"))
        P = Relation("P", 2)
        assert volume_nd_fo_poly_sum(inst, P(x, y), ("x", "y")) == oracle_volume(
            P(x, y), inst, ("x", "y")
        )

    def test_union_3d(self):
        body = (
            between(0, x, 1) & between(0, y, 1) & between(0, z, 1)
        ) | (
            between(Fraction(1, 2), x, Fraction(3, 2))
            & between(0, y, 1)
            & between(0, z, Fraction(1, 2))
        )
        inst = instance_of(body, ("x", "y", "z"))
        P = Relation("P", 3)
        assert volume_nd_fo_poly_sum(
            inst, P(x, y, z), ("x", "y", "z")
        ) == oracle_volume(P(x, y, z), inst, ("x", "y", "z"))

    def test_agrees_with_2d_transcription(self):
        from repro.core import volume_2d_fo_poly_sum

        body = (0 <= y) & (y <= x) & (x <= 1) & (y <= Fraction(1, 2))
        inst = instance_of(body, ("x", "y"))
        P = Relation("P", 2)
        assert volume_nd_fo_poly_sum(
            inst, P(x, y), ("x", "y")
        ) == volume_2d_fo_poly_sum(inst, P(x, y), "x", "y")
