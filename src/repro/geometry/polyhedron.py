"""Convex polyhedra in H-representation with exact rational arithmetic.

A :class:`Polyhedron` is the solution set of a conjunction of linear
constraints over an ordered tuple of variables.  These are the *cells* of
semi-linear sets: every semi-linear set is a finite union of such cells
(via DNF).  All predicates — emptiness, boundedness, membership — and the
vertex enumeration are exact.

:meth:`Polyhedron.vertices` is the exact kernel of the volume integrator:
it runs in integer arithmetic, and the integrator takes each cell's span
along the slicing axis from its vertices.  Boundedness is a separate
check through the recession cone (:meth:`Polyhedron.recession_cone_is_zero`),
which runs the same kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..qe.fourier_motzkin import is_feasible
from ..qe.linear import LinConstraint, tightest
from .._errors import GeometryError
from .linalg import solve_integer_system

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

    # -- boundedness -------------------------------------------------------------
    def is_bounded(self) -> bool:
        """Exact boundedness test (empty polyhedra count as bounded)."""
        return self.is_empty() or self.recession_cone_is_zero()

    def recession_cone_is_zero(self) -> bool:
        """True iff no direction ``y != 0`` satisfies every row with its
        constant dropped; for a non-empty polyhedron, iff it is bounded.

        A polyhedron can have vertices and still be unbounded, and one that
        contains a line has none, so boundedness is its own check.  When
        every variable has a one-variable upper row and a one-variable
        lower row (every clipped cell and every slice of one has) the
        answer is read off the rows.  Otherwise the cone, cut to
        ``[-1, 1]^d``, is a polytope whose only vertex is the origin
        exactly when the cone is ``{0}``.
        """
        uppers: set[str] = set()
        lowers: set[str] = set()
        for constraint in self.constraints:
            if len(constraint.coeffs) == 1:
                ((name, coeff),) = constraint.coeffs
                if coeff > 0 or constraint.op == "=":
                    uppers.add(name)
                if coeff < 0 or constraint.op == "=":
                    lowers.add(name)
        if all(v in uppers and v in lowers for v in self.variables):
            return True
        cone = [
            LinConstraint(c.coeffs, Fraction(0), "=" if c.op == "=" else "<=")
            for c in self.constraints if c.coeffs
        ]
        for var in self.variables:
            cone.append(LinConstraint.make({var: 1}, -1, "<="))
            cone.append(LinConstraint.make({var: -1}, -1, "<="))
        origin = (Fraction(0),) * self.dimension
        return Polyhedron(self.variables, tuple(cone)).vertices() == [origin]

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

        The arithmetic is fraction-free: each row is scaled by its
        constant's denominator to all-integer, each ``d``-subset is solved
        to integer numerators over a positive common denominator, and
        membership is an integer dot product.  Only accepted vertices
        become ``Fraction`` points; they come in the order of the first
        subset that yields each.
        """
        d = len(self.variables)
        if d == 0:
            return []
        # A looser parallel half-space is never tight at a point of the
        # polyhedron, so it defines no vertex.  The scale is positive, so
        # each row keeps its sense.
        rows = [
            ([c.coeff(v) * c.constant.denominator for v in self.variables],
             c.constant.numerator, c.op == "=")
            for c in tightest(self.closure().constraints)
        ]
        vertices: list[Point] = []
        seen: set[tuple[tuple[int, ...], int]] = set()
        for subset in itertools.combinations(rows, d):
            solution = solve_integer_system(
                [coeffs for coeffs, _, _ in subset],
                [-constant for _, constant, _ in subset],
            )
            if solution is None or solution in seen:
                continue
            seen.add(solution)
            numerators, denominator = solution
            for coeffs, constant, equality in rows:
                value = constant * denominator
                for a, n in zip(coeffs, numerators):
                    value += a * n
                if value > 0 or (equality and value):
                    break
            else:
                vertices.append(
                    tuple(Fraction(n, denominator) for n in numerators)
                )
        return vertices

    def __str__(self) -> str:
        if not self.constraints:
            return f"R^{len(self.variables)}"
        return " AND ".join(str(c) for c in self.constraints)

