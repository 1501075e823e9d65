"""Property-based tests: prepared/cached evaluation equals cold evaluation.

The engine's whole contract is that preparing, caching, storing and
reloading a plan are *transparent*: every evaluation agrees with the
cold single-shot pipeline — exactly for volume and truth, bit-for-bit
for Monte Carlo estimates, and in the reported mode tag under fallback.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.engine import (
    PlanCache,
    PreparedQuery,
    execute_task,
    normalize_task,
    prepare,
)
from repro.engine.canon import canonical_formula
from repro.geometry import formula_volume_unit_cube
from repro.geometry.sampling import hit_or_miss_volume, hoeffding_sample_size
from repro.guard import Budget, robust_volume
from repro.logic import (
    Compare,
    Const,
    Exists,
    Var,
    evaluate,
    formula_to_str,
    is_quantifier_free,
    parse,
)
from repro.qe import qe_linear

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)

VARS = ("x", "y")


@st.composite
def linear_atoms(draw, variables=VARS + ("z",)):
    names = draw(
        st.lists(st.sampled_from(variables), min_size=1, max_size=2, unique=True)
    )
    term = Const(draw(rationals))
    for name in names:
        coeff = draw(rationals.filter(lambda r: r != 0))
        term = term + Const(coeff) * Var(name)
    op = draw(st.sampled_from(["<", "<=", ">=", ">"]))
    return Compare(op, term, Const(draw(rationals)))


@st.composite
def qf_formulas(draw, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(linear_atoms())
    if draw(st.booleans()):
        return draw(qf_formulas(depth=depth - 1)) & draw(
            qf_formulas(depth=depth - 1)
        )
    return draw(qf_formulas(depth=depth - 1)) | draw(qf_formulas(depth=depth - 1))


@st.composite
def volume_queries(draw):
    """A formula with free variables exactly {x, y}, optionally quantified."""
    matrix = draw(qf_formulas())
    if "z" in matrix.free_variables():
        formula = Exists("z", matrix)
    else:
        formula = matrix
    # Pin the dimension: conjoin unit-interval bounds on both variables.
    bounds = (Var("x") >= 0) & (Var("x") <= 1) & (Var("y") >= 0) & (Var("y") <= 1)
    return formula & bounds


GRID = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@settings(max_examples=20, deadline=None)
@given(volume_queries())
def test_prepared_volume_equals_cold_volume(formula):
    plan = prepare(formula, VARS, cache=None)
    assert plan.volume() == formula_volume_unit_cube(formula, VARS)


@settings(max_examples=20, deadline=None)
@given(volume_queries())
def test_prepared_truth_equals_cold_evaluate(formula):
    plan = prepare(formula, VARS, cache=None)
    # evaluate() has no semantics for natural quantifiers over R, so the
    # cold reference runs QE first (exact, semantics-preserving).
    reference = formula if is_quantifier_free(formula) else qe_linear(formula)
    for point in itertools.product(GRID, repeat=2):
        env = dict(zip(VARS, point))
        assert plan.truth(env) == evaluate(reference, env)


@settings(max_examples=15, deadline=None)
@given(volume_queries(), st.integers(0, 2**31 - 1))
def test_prepared_estimate_is_bitwise_cold(formula, seed):
    """The ladder's Monte Carlo rung is the cold sampler, bit for bit."""
    epsilon = delta = 0.5  # few samples; the property is stream identity
    ladder = robust_volume(
        formula, VARS, epsilon=epsilon, delta=delta, policy="approx-only",
        rng=np.random.default_rng(seed),
    )
    matrix = formula if is_quantifier_free(formula) else qe_linear(formula)
    cold = hit_or_miss_volume(
        matrix, VARS, hoeffding_sample_size(epsilon, delta),
        np.random.default_rng(seed), box=[(0.0, 1.0)] * 2, delta=delta,
    )
    assert ladder.value == cold.estimate
    assert ladder.samples == cold.samples
    assert ladder.plan is None


@settings(max_examples=15, deadline=None)
@given(volume_queries(), st.integers(0, 2**31 - 1))
@example(parse("x*x + y*y < 1"), 0)
def test_approx_row_equals_approx_only_volume_row(formula, seed):
    """Both front-end spellings of an approximate volume are one path."""
    text = formula_to_str(formula)
    rows = [
        execute_task(
            normalize_task({"op": op, "formula": text, "epsilon": 0.3}, 0),
            seed=seed, fallback=fallback,
        )
        for op, fallback in (("approx", "off"), ("volume", "approx-only"))
    ]
    fields = ("status", "value", "samples", "confidence_radius")
    approx, volume = ({k: row.get(k) for k in fields} for row in rows)
    assert approx == volume
    assert approx["status"] == "ok"


@settings(max_examples=15, deadline=None)
@given(volume_queries())
def test_cached_and_stored_plans_agree(formula):
    cache = PlanCache()
    first = prepare(formula, VARS, cache=cache)
    # A canonical variant must hit the same entry, not recompile.
    again = prepare(canonical_formula(formula), VARS, cache=cache)
    assert again is first

    clone = PreparedQuery.from_record(first.to_record())
    assert clone.key == first.key
    assert clone.volume() == first.volume()
    for point in itertools.product((Fraction(1, 4), Fraction(3, 4)), repeat=2):
        env = dict(zip(VARS, point))
        assert clone.truth(env) == first.truth(env)


@settings(max_examples=10, deadline=None)
@given(volume_queries())
def test_robust_mode_tag_matches_cold_ladder(formula):
    cache = PlanCache()
    prepare(formula, VARS, cache=cache)
    # Generous budget: the warm and the fresh ladder stop at the exact
    # rung, with the reference pipeline's volume.
    roomy = robust_volume(
        formula, VARS, budget=Budget(deadline_s=60.0), cache=cache
    )
    cold = robust_volume(formula, VARS, budget=Budget(deadline_s=60.0))
    assert roomy.mode == "exact" == cold.mode
    assert roomy.value == cold.value == formula_volume_unit_cube(formula, VARS)
    # No budget at all, approx-only policy: reports approximate.
    seed = 5
    warm = robust_volume(
        formula, VARS, policy="approx-only", epsilon=0.5, delta=0.5,
        rng=np.random.default_rng(seed), cache=cache,
    )
    assert warm.mode == "approximate"
