"""Property-based tests: quantifier elimination is semantics-preserving."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.logic import (
    Compare, Const, Exists, Forall, Var, conjunction, evaluate, qf_to_dnf,
)
from repro.qe import decide_linear, qe_linear, solve_univariate
from repro.qe.cad import decide
from repro.qe.fourier_motzkin import formula_rows, is_feasible

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)

VARS = ("x", "y", "z")


@st.composite
def linear_atoms(draw, variables=VARS):
    names = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2, unique=True))
    term = Const(draw(rationals))
    for name in names:
        coeff = draw(rationals.filter(lambda r: r != 0))
        term = term + Const(coeff) * Var(name)
    op = draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
    return Compare(op, term, Const(draw(rationals)))


@st.composite
def qf_linear_formulas(draw, variables=VARS, depth=2):
    if depth == 0:
        return draw(linear_atoms(variables))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(linear_atoms(variables))
    if choice == 1:
        return draw(qf_linear_formulas(variables, depth - 1)) & draw(
            qf_linear_formulas(variables, depth - 1)
        )
    if choice == 2:
        return draw(qf_linear_formulas(variables, depth - 1)) | draw(
            qf_linear_formulas(variables, depth - 1)
        )
    return ~draw(qf_linear_formulas(variables, depth - 1))


GRID = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]


@settings(max_examples=40, deadline=None)
@given(qf_linear_formulas())
def test_exists_elimination_preserves_semantics(matrix):
    quantified = Exists("x", matrix)
    eliminated = qe_linear(quantified)
    free = sorted(quantified.free_variables())
    for point in itertools.product(GRID, repeat=len(free)):
        env = dict(zip(free, point))
        expected = any(
            evaluate(matrix, {**env, "x": value}) for value in GRID
        )
        got = evaluate(eliminated, env)
        # QE ranges over all of R; the finite grid only witnesses the
        # existential direction.
        if expected:
            assert got, (matrix, env)


@settings(max_examples=40, deadline=None)
@given(qf_linear_formulas())
def test_forall_dual_of_exists(matrix):
    forall_form = qe_linear(Forall("x", matrix))
    negated_exists = qe_linear(~Exists("x", ~matrix))
    free = sorted(
        Forall("x", matrix).free_variables()
    )
    for point in itertools.product(GRID, repeat=min(len(free), 2)):
        env = dict(zip(free, point))
        for name in free[len(point):]:
            env[name] = Fraction(0)
        assert evaluate(forall_form, env) == evaluate(negated_exists, env)


@settings(max_examples=40, deadline=None)
@given(qf_linear_formulas(variables=("x",)))
def test_solve_univariate_matches_pointwise(formula):
    solution = solve_univariate(formula, "x")
    for value in GRID:
        assert solution.contains(value) == evaluate(formula, {"x": value}), (
            formula,
            value,
        )


@settings(max_examples=60, deadline=None)
@given(
    qf_linear_formulas(),
    st.permutations(VARS),
    st.lists(st.sampled_from([Exists, Forall]), min_size=3, max_size=3),
)
def test_alternating_blocks_agree_with_cad(matrix, order, kinds):
    """x, y and z bound by three random EXISTS/FORALL blocks: Fourier-Motzkin
    (FORALL by dualisation) decides the sentence as CAD does."""
    sentence = matrix
    for kind, name in zip(kinds, order):
        sentence = kind(name, sentence)
    assert decide_linear(sentence) == decide(sentence), sentence


@settings(max_examples=40, deadline=None)
@given(st.lists(linear_atoms(("x", "y")), min_size=1, max_size=4))
def test_feasibility_agrees_with_witness_search(atoms):
    alternatives = formula_rows(conjunction(*atoms))
    feasible = any(is_feasible(alt) for alt in alternatives)
    witnessed = any(
        all(evaluate(a, {"x": px, "y": py}) for a in atoms)
        for px in GRID
        for py in GRID
    )
    # A grid witness implies feasibility (not conversely).
    if witnessed:
        assert feasible


@settings(max_examples=30, deadline=None)
@given(qf_linear_formulas(variables=("x", "y"), depth=2))
def test_dnf_preserves_semantics(formula):
    dnf = qf_to_dnf(formula)
    for px in GRID[:4]:
        for py in GRID[:4]:
            env = {"x": px, "y": py}
            expected = evaluate(formula, env)
            got = any(
                all(evaluate(lit, env) for lit in conjunct) for conjunct in dnf
            )
            assert got == expected
