"""Prepared queries: compile a query shape once, evaluate it many times.

The exponential work of the pipeline — quantifier elimination and
cell decomposition (and, for decision plans, CAD) — depends only on the
*shape* of a query, not on the region or instance it is evaluated
against.  :func:`prepare` pays that cost once and returns a
:class:`PreparedQuery` whose evaluations (exact volume over a clip box,
point membership) reuse the compiled artifacts; budget-governed
degradation, Monte Carlo estimation included, is
:func:`repro.guard.robust_volume`, whose exact rung compiles through
:func:`prepare`.

Plans carry provenance: the compile stages that ran with their
durations, the resource consumption charged against the compile-time
budget, and whether the plan was compiled in this process or fetched
from the shared plan store (:mod:`repro.engine.store`), whose rows are
this module's ``repro.engine.plan/v1`` records.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .. import guard, obs
from .._errors import EvaluationError, QEError, ReproError
from ..geometry.decomposition import clip_cells, formula_to_cells
from ..geometry.polyhedron import Polyhedron
from ..geometry.volume import union_volume
from ..guard.budget import Budget
from ..logic.formulas import Formula
from ..logic.metrics import max_degree
from ..logic.normalform import is_quantifier_free
from ..logic.parser import parse
from ..logic.printer import formula_to_str
from ..qe.linear import LinConstraint
from .canon import canonical_formula, content_hash
from .cache import DEFAULT_CACHE, PlanCache

__all__ = ["PLAN_SCHEMA", "PlanProvenance", "PreparedQuery", "plan_identity", "prepare"]

#: Schema tag of a serialized plan record; bump on incompatible changes.
PLAN_SCHEMA = "repro.engine.plan/v1"

#: Plan kinds: ``volume`` (semi-linear volume plan: QE + cells) and
#: ``decide`` (FO + POLY sentence decided by CAD at compile time).
KINDS = ("volume", "decide")

#: Sentinel distinguishing "use the shared cache" from "no cache".
_SHARED = object()


@dataclass(frozen=True)
class PlanProvenance:
    """Where a plan came from and what compiling it cost."""

    stages: tuple[tuple[str, float], ...]
    compile_s: float
    budget: dict[str, Any] | None = None
    source: str = "compiled"

    def as_dict(self) -> dict[str, Any]:
        return {
            "stages": [[name, round(seconds, 6)] for name, seconds in self.stages],
            "compile_s": round(self.compile_s, 6),
            "budget": self.budget,
            "source": self.source,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "PlanProvenance":
        return PlanProvenance(
            stages=tuple((str(n), float(s)) for n, s in data.get("stages", [])),
            compile_s=float(data.get("compile_s", 0.0)),
            budget=data.get("budget"),
            source=str(data.get("source", "compiled")),
        )


class PreparedQuery:
    """A compiled query plan; immutable apart from its evaluation memo."""

    __slots__ = (
        "kind", "key", "formula", "text", "variables", "cells", "qf",
        "decision", "provenance", "_volumes", "_lock",
    )

    def __init__(
        self,
        *,
        kind: str,
        key: str,
        formula: Formula,
        text: str,
        variables: tuple[str, ...],
        cells: tuple[Polyhedron, ...] | None,
        qf: Formula | None,
        decision: bool | None,
        provenance: PlanProvenance,
    ):
        self.kind = kind
        self.key = key
        self.formula = formula
        self.text = text
        self.variables = variables
        self.cells = cells
        self.qf = qf
        self.decision = decision
        self.provenance = provenance
        self._volumes: dict[Any, Fraction] = {}
        self._lock = threading.Lock()

    # -- introspection -----------------------------------------------------
    def cell_count(self) -> int:
        return 0 if self.cells is None else len(self.cells)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(kind={self.kind!r}, key={self.key[:12]}..., "
            f"variables={self.variables}, cells={self.cell_count()})"
        )

    # -- evaluation --------------------------------------------------------
    def volume(
        self, box: Sequence[tuple[Fraction, Fraction]] | None = None
    ) -> Fraction:
        """Exact volume of the compiled cells clipped to *box*.

        ``box=None`` means the unit cube (the paper's VOL_I).  Results are
        memoized per box, so repeated evaluation of the same region is a
        dictionary lookup.
        """
        self._require("volume")
        box = self._box(box)
        memo_key = tuple(box)
        with self._lock:
            cached = self._volumes.get(memo_key)
        if cached is not None:
            obs.add("engine.eval.memo_hit")
            return cached
        start = time.perf_counter()
        with obs.span("engine.evaluate", kind="volume", cells=self.cell_count()):
            clipped = clip_cells(list(self.cells), self.variables, box)
            value = union_volume(clipped)
        obs.observe_value("engine.query.volume_s", time.perf_counter() - start)
        with self._lock:
            self._volumes[memo_key] = value
        obs.add("engine.eval.volume")
        return value

    def truth(self, assignment: Mapping[str, "Fraction | int"]) -> bool:
        """Exact membership of a rational point in the compiled set."""
        self._require("truth")
        point = tuple(Fraction(assignment[v]) for v in self.variables)
        obs.add("engine.eval.truth")
        return any(cell.contains(point) for cell in self.cells)

    def decide(self) -> bool:
        """The compile-time CAD decision of a ``decide`` plan."""
        if self.kind != "decide":
            raise EvaluationError("decide() needs a plan prepared with kind='decide'")
        obs.add("engine.eval.decide")
        return bool(self.decision)

    def _require(self, method: str) -> None:
        if self.kind != "volume":
            raise EvaluationError(
                f"{method}() needs a plan prepared with kind='volume', "
                f"not {self.kind!r}"
            )

    def _box(
        self, box: Sequence[tuple[Fraction, Fraction]] | None
    ) -> list[tuple[Fraction, Fraction]]:
        if box is None:
            return [(Fraction(0), Fraction(1))] * len(self.variables)
        if len(box) != len(self.variables):
            raise EvaluationError(
                f"box must give bounds for all of {self.variables}"
            )
        return [(Fraction(low), Fraction(high)) for low, high in box]

    # -- persistence -------------------------------------------------------
    def to_record(self) -> dict[str, Any]:
        """A JSON-able ``PLAN_SCHEMA`` snapshot of the compiled artifacts.

        Compiled artifacts (canonical formula text, cell constraint
        systems, decision bits) rather than a pickle, so the
        format is stable, diffable, and independent of the Python
        version — see docs/ENGINE.md for the schema.
        """
        return {
            "schema": PLAN_SCHEMA,
            "kind": self.kind,
            "key": self.key,
            "text": self.text,
            "variables": list(self.variables),
            "qf": None if self.qf is None else formula_to_str(self.qf),
            "cells": None if self.cells is None else [
                [
                    {
                        "coeffs": {v: str(c) for v, c in constraint.coeffs},
                        "constant": str(constraint.constant),
                        "op": constraint.op,
                    }
                    for constraint in cell.constraints
                ]
                for cell in self.cells
            ],
            "decision": self.decision,
            "provenance": self.provenance.as_dict(),
        }

    @staticmethod
    def from_record(record: Mapping[str, Any]) -> "PreparedQuery":
        """Rebuild a plan from :meth:`to_record` output (the store's read path).

        Unknown fields are ignored, such as the ``witness`` field older
        writers put in ``repro.engine.plan/v1`` records.
        """
        if record.get("schema") != PLAN_SCHEMA:
            raise ReproError(
                f"plan record with unknown schema {record.get('schema')!r} "
                f"(expected {PLAN_SCHEMA!r})"
            )
        variables = tuple(record["variables"])
        cells = None
        if record.get("cells") is not None:
            cells = tuple(
                Polyhedron.make(
                    variables,
                    [
                        LinConstraint.make(
                            {v: Fraction(c) for v, c in entry["coeffs"].items()},
                            Fraction(entry["constant"]),
                            entry["op"],
                        )
                        for entry in cell
                    ],
                )
                for cell in record["cells"]
            )
        provenance = replace(
            PlanProvenance.from_dict(record.get("provenance", {})), source="store"
        )
        return PreparedQuery(
            kind=record["kind"],
            key=record["key"],
            formula=parse(record["text"]),
            text=record["text"],
            variables=variables,
            cells=cells,
            qf=None if record.get("qf") is None else parse(record["qf"]),
            decision=record.get("decision"),
            provenance=provenance,
        )


class _StageClock:
    """Collects (stage, seconds) pairs during compilation."""

    def __init__(self) -> None:
        self.stages: list[tuple[str, float]] = []
        self.started = time.perf_counter()

    def stage(self, name: str, start: float) -> None:
        self.stages.append((name, time.perf_counter() - start))

    def total(self) -> float:
        return time.perf_counter() - self.started


def plan_identity(
    formula: Formula, variables: Sequence[str] | None, kind: str
) -> tuple[Formula, tuple[str, ...], str, str]:
    """``(canonical formula, variables, canonical text, content hash)``.

    The one keying rule: :func:`prepare` files plans under this hash, and
    :func:`repro.engine.executor.task_key` predicts it without compiling.
    ``variables=None`` means the sorted free variables of the canonical
    formula (none for a ``decide`` sentence).  Variables must be distinct
    parser identifiers, so their comma-joined order in the key is unambiguous.
    """
    canonical = canonical_formula(formula)
    if variables is None:
        free = () if kind == "decide" else canonical.free_variables()
        variables = sorted(free)
    variables = tuple(variables)
    if len(set(variables)) < len(variables) or not all(
            v.isascii() and v.isidentifier() for v in variables):
        raise EvaluationError(f"variables must be distinct identifiers: {variables}")
    text = formula_to_str(canonical)
    return canonical, variables, text, content_hash(text, variables, kind)


def prepare(
    query: "Formula | str",
    variables: Sequence[str] | None = None,
    *,
    kind: str = "volume",
    cache: "PlanCache | None | object" = _SHARED,
    budget: Budget | None = None,
    prune: bool = True,
) -> PreparedQuery:
    """Compile *query* once (or fetch its cached plan) for repeated evaluation.

    ``query`` may be a formula AST or parseable text.  ``variables`` fixes
    the evaluation dimension order (default: sorted free variables).
    ``kind='volume'`` compiles parse -> canonicalize -> QE -> cell
    decomposition for a linear query; ``kind='decide'`` decides an
    FO + POLY sentence by CAD and caches the bit.  ``prune=False`` skips
    the feasibility pruning of Fourier-Motzkin's intermediate results
    (the degradation ladder's ``exact-coarse`` rung).

    ``cache`` defaults to the shared process-wide
    :data:`~repro.engine.cache.DEFAULT_CACHE`; pass ``cache=None`` to
    compile without caching, a private :class:`PlanCache`, or a
    :class:`~repro.engine.store.StoreBackedCache` (in-memory misses then
    fall through to a cross-process shared store before compiling).
    Compilation runs under *budget* (or the ambient governed budget), and
    the plan's provenance records the consumption it charged.
    """
    if kind not in KINDS:
        raise EvaluationError(f"unknown plan kind {kind!r}; one of {KINDS}")
    clock = _StageClock()

    if isinstance(query, str):
        start = time.perf_counter()
        formula = parse(query)
        clock.stage("parse", start)
    else:
        formula = query

    start = time.perf_counter()
    canonical, variables, text, key = plan_identity(formula, variables, kind)
    clock.stage("canonicalize", start)

    plan_cache: PlanCache | None
    plan_cache = DEFAULT_CACHE if cache is _SHARED else cache  # type: ignore[assignment]

    def factory() -> PreparedQuery:
        obs.add("engine.compile")
        with obs.span("engine.compile", kind=kind, variables=len(variables)):
            plan = _compile(
                kind, key, canonical, text, variables, clock, budget, prune,
            )
        obs.observe_value("engine.plan.compile_s", plan.provenance.compile_s)
        return plan

    # One govern() covers the whole cache interaction, not just _compile:
    # a store-backed cache (repro.engine.store) does budgeted I/O — and can
    # *wait* on another process's compile — on the lookup path itself.
    with guard.govern(budget):
        if plan_cache is None:
            return factory()
        return plan_cache.get_or_compile(key, factory)


def _compile(
    kind: str,
    key: str,
    canonical: Formula,
    text: str,
    variables: tuple[str, ...],
    clock: _StageClock,
    budget: Budget | None,
    prune: bool,
) -> PreparedQuery:
    cells: tuple[Polyhedron, ...] | None = None
    qf: Formula | None = None
    decision: bool | None = None

    if kind == "decide":
        from ..qe.cad import decide as cad_decide

        free = canonical.free_variables()
        if free:
            raise QEError(
                f"a 'decide' plan needs a sentence; free variables {sorted(free)}"
            )
        start = time.perf_counter()
        decision = cad_decide(canonical)
        clock.stage("cad", start)
    else:
        qf = canonical
        if not is_quantifier_free(qf):
            if max_degree(qf) > 1:
                raise QEError("quantified nonlinear formulas are not semi-linear")
            from ..qe.fourier_motzkin import qe_linear

            start = time.perf_counter()
            qf = qe_linear(qf, prune=prune)
            clock.stage("qe", start)
        start = time.perf_counter()
        cells = tuple(formula_to_cells(qf, variables))
        clock.stage("decompose", start)

    provenance = PlanProvenance(
        stages=tuple(clock.stages),
        compile_s=clock.total(),
        budget=budget.snapshot() if budget is not None else None,
    )
    return PreparedQuery(
        kind=kind,
        key=key,
        formula=canonical,
        text=text,
        variables=variables,
        cells=cells,
        qf=qf,
        decision=decision,
        provenance=provenance,
    )
