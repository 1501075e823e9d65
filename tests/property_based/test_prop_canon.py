"""Property-based tests: the canonical form is a faithful cache key.

Random FO + LIN formulas with nested and shadowed quantifiers, free
variables spelled like canonical bound names (``_q0``, ``_q2``), and atoms
that fold to constants.  Rewrites that keep the query shape —
alpha-renaming, operand reordering, duplication, positive atom scaling —
must keep the plan key; canonicalizing must be idempotent, re-parse to
itself, keep no variable that was not free, and preserve truth.
"""

import itertools
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro import guard
from repro.engine.canon import canonical_formula
from repro.engine.prepared import plan_identity
from repro.guard import Budget, BudgetExceeded
from repro.logic import (
    And,
    Compare,
    Const,
    Exists,
    Forall,
    Not,
    Or,
    Var,
    evaluate,
    formula_to_str,
    parse,
)
from repro.logic.substitution import substitute_term
from repro.qe import qe_linear

FREE = ("x", "y", "_q0", "_q2")
BOUND = ("u", "v", "x", "_q0", "_q1")

small = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3
)
nonzero = small.filter(lambda r: r != 0)
ops = st.sampled_from(["<", "<=", ">", ">=", "="])


@st.composite
def atoms(draw, scope):
    if draw(st.integers(0, 4)) == 0:
        # Folds: the variable cancels, leaving a constant comparison.
        var = Var(draw(st.sampled_from(scope)))
        return Compare(draw(ops), var + Const(draw(small)), var + Const(draw(small)))
    names = draw(st.lists(st.sampled_from(scope), min_size=1, max_size=2, unique=True))
    term = Const(draw(small))
    for name in names:
        term = term + Const(draw(nonzero)) * Var(name)
    return Compare(draw(ops), term, Const(draw(small)))


@st.composite
def formulas(draw, scope=FREE, depth=3):
    choice = draw(st.integers(0, 4)) if depth else 0
    if choice == 0:
        return draw(atoms(list(scope)))
    if choice == 1:
        return Not(draw(formulas(scope, depth - 1)))
    if choice == 2:
        var = draw(st.sampled_from(BOUND))
        quantifier = draw(st.sampled_from([Exists, Forall]))
        return quantifier(var, draw(formulas(scope + (var,), depth - 1)))
    connective = And if choice == 3 else Or
    args = draw(st.lists(formulas(scope, depth - 1), min_size=2, max_size=3))
    return connective(tuple(args))


def rewrite(formula, scale, env=None, fresh=None):
    """An alpha-variant with reversed, duplicated and scaled operands."""
    env = {} if env is None else env
    fresh = itertools.count() if fresh is None else fresh
    if isinstance(formula, Compare):
        lhs = substitute_term(formula.lhs, env)
        rhs = substitute_term(formula.rhs, env)
        return Compare(formula.op, Const(scale) * lhs, rhs * Const(scale))
    if isinstance(formula, Not):
        return Not(rewrite(formula.arg, scale, env, fresh))
    if isinstance(formula, (And, Or)):
        args = [rewrite(a, scale, env, fresh) for a in reversed(formula.args)]
        return type(formula)(tuple(args + args[:1]))
    name = f"w{next(fresh)}"
    inner = {**env, formula.var: Var(name)}
    return type(formula)(name, rewrite(formula.body, scale, inner, fresh))


def key(formula):
    return plan_identity(formula, None, "volume")[-1]


@settings(max_examples=150, deadline=None)
@given(formulas(), st.fractions(min_value=Fraction(1, 3), max_value=5,
                                max_denominator=3))
def test_shape_preserving_rewrites_keep_the_key(formula, scale):
    assert key(rewrite(formula, scale)) == key(formula)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_idempotent_reparseable_and_closed(formula):
    canonical = canonical_formula(formula)
    assert canonical_formula(canonical) == canonical
    assert canonical_formula(parse(formula_to_str(canonical))) == canonical
    assert canonical.free_variables() <= formula.free_variables()


points = st.fixed_dictionaries({
    name: st.fractions(min_value=-2, max_value=2, max_denominator=4)
    for name in FREE
})


@settings(max_examples=60, deadline=None)
@given(formulas(depth=2), st.lists(points, min_size=1, max_size=4))
def test_truth_preserved_at_rational_points(formula, envs):
    try:
        with guard.govern(Budget(deadline_s=5.0)):
            before = qe_linear(formula)
            after = qe_linear(canonical_formula(formula))
    except BudgetExceeded:
        assume(False)
    for env in envs:
        assert evaluate(after, env) == evaluate(before, env)
