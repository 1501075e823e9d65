"""Convex polyhedra in H-representation with exact rational arithmetic.

A :class:`Polyhedron` is the solution set of a conjunction of linear
constraints over an ordered tuple of variables.  These are the *cells* of
semi-linear sets: every semi-linear set is a finite union of such cells
(via DNF).  All predicates — emptiness, boundedness, membership — and the
vertex enumeration are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..qe.fourier_motzkin import eliminate_variable, is_feasible
from ..qe.linear import LinConstraint, tightest
from .._errors import GeometryError
from .linalg import solve_linear_system

__all__ = ["Polyhedron", "Point"]

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Polyhedron:
    """The set of points satisfying ``constraints`` in ``R^len(variables)``.

    Constraints may be strict; most volume computations work with the
    closure (see :meth:`closure`), which differs only on a measure-zero set.
    """

    variables: tuple[str, ...]
    constraints: tuple[LinConstraint, ...]

    @staticmethod
    def make(
        variables: Sequence[str], constraints: Iterable[LinConstraint]
    ) -> "Polyhedron":
        variables = tuple(variables)
        allowed = set(variables)
        constraints = tuple(constraints)
        for constraint in constraints:
            extra = constraint.variables() - allowed
            if extra:
                raise GeometryError(
                    f"constraint {constraint} uses unknown variables {sorted(extra)}"
                )
        return Polyhedron(variables, constraints)

    @staticmethod
    def unit_cube(variables: Sequence[str]) -> "Polyhedron":
        """The unit cube I^n = [0,1]^n (the paper's bounding set)."""
        constraints = []
        for var in variables:
            constraints.append(LinConstraint.make({var: Fraction(-1)}, 0, "<="))
            constraints.append(LinConstraint.make({var: Fraction(1)}, -1, "<="))
        return Polyhedron.make(variables, constraints)

    @staticmethod
    def from_vertices_2d(
        variables: Sequence[str], vertices: Sequence[Point]
    ) -> "Polyhedron":
        """Convex polygon in R^2 from vertices in counter-clockwise order."""
        if len(variables) != 2:
            raise GeometryError("from_vertices_2d requires exactly two variables")
        if len(vertices) < 3:
            raise GeometryError("a polygon needs at least three vertices")
        x_name, y_name = variables
        constraints = []
        count = len(vertices)
        for i in range(count):
            (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % count]
            # Inward side of the directed edge (CCW): cross product >= 0.
            a = -(y2 - y1)
            b = x2 - x1
            c = -(a * x1 + b * y1)
            # a*x + b*y + c >= 0  ->  -a*x - b*y - c <= 0
            constraints.append(
                LinConstraint.make({x_name: -a, y_name: -b}, -c, "<=")
            )
        return Polyhedron.make(variables, constraints)

    # -- basic predicates -----------------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.variables)

    def is_empty(self) -> bool:
        return not is_feasible(list(self.constraints))

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != len(self.variables):
            raise GeometryError("point dimension mismatch")
        env = {v: Fraction(c) for v, c in zip(self.variables, point)}
        return all(c.evaluate(env) for c in self.constraints)

    def closure(self) -> "Polyhedron":
        """Replace strict inequalities by non-strict ones.

        The closure of the *set* can be smaller than this polyhedron only
        in degenerate (lower-dimensional) situations; for volume purposes
        the two always agree.
        """
        closed = tuple(
            LinConstraint(c.coeffs, c.constant, "<=") if c.op == "<" else c
            for c in self.constraints
        )
        return Polyhedron(self.variables, closed)

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if other.variables != self.variables:
            raise GeometryError("cannot intersect polyhedra over different variables")
        return Polyhedron(self.variables, self.constraints + other.constraints)

    # -- projections and bounds ------------------------------------------------
    def project_to(self, var: str) -> list[LinConstraint]:
        """Fourier-Motzkin projection onto a single coordinate."""
        if var not in self.variables:
            raise GeometryError(f"unknown variable {var!r}")
        current: list[LinConstraint] | None = list(self.constraints)
        for other in self.variables:
            if other == var:
                continue
            current = eliminate_variable(other, current)
            if current is None:
                return [LinConstraint.make({}, 1, "<")]  # infeasible marker
        return current or []

    def coordinate_bounds(
        self, var: str
    ) -> tuple[Fraction | None, Fraction | None]:
        """(min, max) of coordinate *var* over the closure; ``None`` = unbounded.

        Raises :class:`GeometryError` on an empty polyhedron.
        """
        shadow = self.project_to(var)
        low: Fraction | None = None
        high: Fraction | None = None
        feasible = True
        for constraint in shadow:
            if constraint.is_constant():
                if not constraint.constant_truth():
                    feasible = False
                continue
            coeff = constraint.coeff(var)
            bound = -constraint.constant / coeff
            if constraint.op == "=":
                low = bound if low is None else max(low, bound)
                high = bound if high is None else min(high, bound)
            elif coeff > 0:  # var <= bound
                high = bound if high is None else min(high, bound)
            else:  # var >= bound
                low = bound if low is None else max(low, bound)
        if not feasible:
            raise GeometryError("empty polyhedron has no coordinate bounds")
        return low, high

    def is_bounded(self) -> bool:
        """Exact boundedness test (empty polyhedra count as bounded)."""
        if self.is_empty():
            return True
        for var in self.variables:
            low, high = self.coordinate_bounds(var)
            if low is None or high is None:
                return False
        return True

    # -- substitution ----------------------------------------------------------
    def fix_variable(self, var: str, value: Fraction) -> "Polyhedron":
        """The slice obtained by fixing one coordinate (drops the variable)."""
        if var not in self.variables:
            raise GeometryError(f"unknown variable {var!r}")
        value = Fraction(value)
        remaining = tuple(v for v in self.variables if v != var)
        new_constraints = []
        for constraint in self.constraints:
            coeff = constraint.coeff(var)
            if coeff == 0:
                new_constraints.append(constraint)
                continue
            coeffs = {n: c for n, c in constraint.coeffs if n != var}
            new_constraints.append(
                LinConstraint.make(
                    coeffs, constraint.constant + coeff * value, constraint.op
                )
            )
        return Polyhedron(remaining, tuple(new_constraints))

    # -- vertex enumeration ------------------------------------------------------
    def vertices(self) -> list[Point]:
        """All vertices of the *closure*, exactly.

        Combinatorial enumeration: every vertex is the unique solution of
        some ``d`` constraints taken as equalities that also satisfies all
        remaining (closed) constraints.  Exponential in ``d`` but exact;
        intended for the small dimensions of the paper's examples.
        """
        d = len(self.variables)
        if d == 0:
            return []
        closed = self.closure()
        vertices: list[Point] = []
        seen: set[Point] = set()
        # A looser parallel half-space is never tight at a point of the
        # polyhedron, so it defines no vertex.
        constraints = tightest(closed.constraints)
        for subset in itertools.combinations(range(len(constraints)), d):
            matrix = []
            rhs = []
            for index in subset:
                constraint = constraints[index]
                matrix.append([constraint.coeff(v) for v in self.variables])
                rhs.append(-constraint.constant)
            solution = solve_linear_system(matrix, rhs)
            if solution is None:
                continue
            if solution in seen:
                continue
            if closed.contains(solution):
                seen.add(solution)
                vertices.append(solution)
        return vertices

    def __str__(self) -> str:
        if not self.constraints:
            return f"R^{len(self.variables)}"
        return " AND ".join(str(c) for c in self.constraints)

