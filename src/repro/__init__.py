"""repro: a reproduction of Benedikt & Libkin, "Exact and Approximate
Aggregation in Constraint Query Languages" (PODS 1999).

Subpackages
-----------
``repro.logic``
    First-order logic over real signatures (FO + LIN, FO + POLY): terms,
    formulas, normal forms, parser/printer, metrics.
``repro.realalg``
    Exact real algebra: rational polynomials, Sturm sequences, root
    isolation, real algebraic numbers, resultants.
``repro.qe``
    Quantifier elimination: Fourier-Motzkin (linear), one-variable exact
    solving (the END engine), CAD decision for FO + POLY.
``repro.geometry``
    Semi-linear sets as unions of convex cells; exact volumes by the
    Theorem-3 slicing algorithm; Monte Carlo sampling; Loewner-John
    ellipsoids.
``repro.db``
    Constraint databases: finite and finitely representable instances,
    active/natural query semantics, the FO + LIN closure property.
``repro.core``
    **The paper's contribution**: FO + POLY + SUM — deterministic
    formulae, the END operator, range-restricted expressions, summation
    terms, classical aggregates, exact semi-linear volumes (Theorem 3),
    the polygon-area worked example, and the witness extension with
    Theorem 4's uniform probabilistic volume approximation.
``repro.vc``
    VC dimension: exact shattering, definable families, the Blumer and
    Goldberg-Jerrum bounds, the Proposition 5 construction.
``repro.approx``
    Approximate volume operators: the trivial 1/2-approximation
    (Proposition 4), Monte Carlo, relative/convex approximations, and the
    Karpinski-Macintyre blow-up cost model (Section 3's example).
``repro.inexpressibility``
    Executable Section 4: separating sentences, EF games, the AVG and
    good-instance reductions, FO_act-to-AC0 circuit compilation.
``repro.obs``
    Observability: nested spans, counter/gauge registries, and JSON-lines
    trace export across the evaluator / QE / volume pipeline.  Disabled
    by default with a sub-microsecond fast path.
``repro.guard``
    Resource governance: cooperative budgets (deadline, cells,
    constraints, size, depth), the structured ``BudgetExceeded`` family,
    and the exact -> approximate degradation ladder (``robust_volume``).
``repro.engine``
    The query engine: canonical formula hashing, prepared queries
    (compile once, evaluate many times), a content-addressed LRU plan
    cache, a cross-process SQLite plan store, and a process-pool batch
    executor (``python -m repro batch``).
"""

__version__ = "0.1.0"

from . import obs, guard, logic, realalg, qe, geometry, db, core, vc, approx, inexpressibility
from . import engine
from .guard.errors import BudgetExceeded
from ._errors import (
    ApproximationError,
    EvaluationError,
    GeometryError,
    NotDeterministicError,
    NotQuantifierFree,
    QEError,
    ReproError,
    SafetyError,
    SignatureError,
    UnboundedSetError,
)

__all__ = [
    "obs",
    "guard",
    "logic",
    "realalg",
    "qe",
    "geometry",
    "db",
    "core",
    "vc",
    "approx",
    "inexpressibility",
    "engine",
    "ReproError",
    "BudgetExceeded",
    "SignatureError",
    "NotQuantifierFree",
    "UnboundedSetError",
    "NotDeterministicError",
    "SafetyError",
    "EvaluationError",
    "QEError",
    "GeometryError",
    "ApproximationError",
    "__version__",
]
