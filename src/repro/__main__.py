"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``demo``        run a compact end-to-end demonstration (default)
``volume``      exact VOL_I of a formula given on the command line
``approx``      Monte Carlo (epsilon, delta)-approximation of VOL_I
                (``volume`` with the policy forced to ``approx-only``)
``batch``       run a JSONL manifest of queries through the engine's
                batch executor (``--workers N`` process workers, per-task
                budgets, JSONL results out; ``--trace-out PATH`` harvests
                per-task telemetry into a merged trace file;
                ``--plan-store PATH`` shares compiled plans across
                processes and runs, ``--compile-only`` prewarms it, and
                ``--shard I/N`` splits a manifest across machines; see
                docs/ENGINE.md)
``metrics``     render Prometheus text-format metrics from a
                ``--trace-out`` file (offline replay), from a manifest
                (runs it with telemetry harvesting on), or from ``-``
                (either format on stdin)
``serve``       run the async HTTP query service: ``POST /v1/query`` /
                ``/v1/batch`` against a worker pool with admission
                control, compile coalescing, live ``GET /metrics``, and
                graceful drain on SIGTERM (see docs/SERVING.md)
``experiments`` list the paper-reproduction experiments and how to run them
``trace``       run any subcommand with observability on (= ``--stats``)

Global options
--------------
``--stats``     print the span tree and counter table after the command
``--json PATH`` append one JSON-lines observability record to PATH
``--seed N``    seed for the explicit ``numpy`` generator threaded into
                every sampling path (default 0), making traced runs
                reproducible
``--timeout S`` wall-clock budget in seconds (see docs/ROBUSTNESS.md)
``--max-cells N`` CAD / decomposition cell budget
``--fallback {off,auto,approx-only}``
                degradation policy for ``volume``: ``auto`` falls back to
                a coarser exact strategy and then to Monte Carlo when the
                budget trips; ``off`` (default) propagates the exhaustion.
                For ``batch``, the policy (and ``--timeout``/``--max-cells``)
                applies per task.  ``approx`` always samples: it accepts
                only ``approx-only`` and exits 2 on ``off`` or ``auto``

Exit codes
----------
``0`` success · ``2`` query error (:class:`~repro.ReproError`) ·
``3`` budget exhausted (:class:`~repro.guard.BudgetExceeded`)
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from repro import ReproError, guard
from repro.guard import BudgetExceeded


def _rng(seed: int):
    import numpy as np

    return np.random.default_rng(seed)


def _demo(args: argparse.Namespace) -> None:
    from repro.core import sum_of_endpoints, volume_of_query
    from repro.db import FRInstance, FiniteInstance, Schema, output_formula
    from repro.guard import robust_volume
    from repro.logic import Relation, exists, exists_adom, variables
    from repro.qe.cad import decide

    x, y = variables("x y")
    S = Relation("S", 2)
    db = FRInstance.make(
        Schema.make({"S": 2}), {"S": ((x, y), (0 <= y) & (y <= x) & (x <= 1))}
    )
    print("repro: Benedikt & Libkin, PODS 1999 — FO + POLY + SUM")
    print()
    print("database   S(x, y) :=", db.definition("S")[1])
    query = S(x, y) & (y <= Fraction(1, 4))
    print("query      S(x, y) AND y <= 1/4")
    print("closure    ->", output_formula(query, db))
    print("volume     ->", volume_of_query(query, db, ("x", "y")), "(exact, Theorem 3)")
    # The same query with S expanded by hand: quantifier-free, samplable.
    expanded = (y <= Fraction(1, 4)) & (0 <= y) & (y <= x) & (x <= 1)
    estimate = robust_volume(
        expanded, ("x", "y"), epsilon=0.05, delta=0.05, policy="approx-only",
        rng=_rng(args.seed),
    )
    print(f"MC approx  -> {estimate.value:.4f} +- "
          f"{estimate.confidence_radius:.4f} "
          f"({estimate.samples} samples, seed {args.seed})")
    points = FiniteInstance.make(Schema.make({"P": 1}), {"P": [1, 2, 3]})
    P = Relation("P", 1)
    body = exists_adom(y, P(y) & (0 < x) & (x < y))
    print("END sum    ->", sum_of_endpoints(points, x, body),
          "(sum of interval endpoints, Section 5 example)")
    sqrt2 = exists(x, (x * x).eq(2) & (0 < x) & (x < 2))
    print("CAD        -> exists x (x^2 = 2 AND 0 < x < 2) is",
          decide(sqrt2), "(FO + POLY decision)")
    print()
    print("more: examples/*.py, DESIGN.md, EXPERIMENTS.md, docs/OBSERVABILITY.md")


def _volume(args: argparse.Namespace) -> None:
    from repro.guard import robust_volume
    from repro.logic import parse

    formula = parse(args.formula)
    names = sorted(formula.free_variables())
    joined = ", ".join(names)
    result = robust_volume(
        formula, names, epsilon=args.epsilon, delta=args.delta,
        budget=args.budget, policy=args.fallback, rng=_rng(args.seed),
    )
    if result.mode == "approximate":
        print(
            f"VOL_I({args.formula}) over {joined} ~= {result.value:.6f} "
            f"+- {result.confidence_radius:.6f} "
            f"(mode={result.mode}, {result.samples} samples, "
            f"eps={result.epsilon:g}, delta={result.delta:g}, seed={args.seed})"
        )
    else:
        tag = "" if args.fallback == "off" else f" (mode={result.mode})"
        print(
            f"VOL_I({args.formula}) over {joined} = {result.value} "
            f"= {float(result.value)}{tag}"
        )
    for mode, error in result.attempts:
        print(f"  [{mode} abandoned: {error.resource} budget exceeded]",
              file=sys.stderr)


def _read_input_lines(path: str) -> tuple[list[str], str]:
    """Slurp a JSONL input (``-`` = stdin) into ``(lines, display name)``.

    Stdin is read exactly once here, so callers can both sniff the
    format and parse from the same lines.
    """
    if path == "-":
        return sys.stdin.readlines(), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.readlines(), path
    except OSError as error:
        raise ReproError(f"cannot read {path}: {error}") from error


def _parse_manifest_lines(lines: list[str], where: str) -> list[dict]:
    """Parse JSONL manifest lines into normalized tasks.

    Blank lines and ``#`` comments are skipped; a malformed line is a
    :class:`ReproError` naming the source and line number.
    """
    import json

    from repro.engine import normalize_task

    tasks = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as error:
            raise ReproError(f"{where}:{lineno}: not valid JSON: {error}") from error
        tasks.append(normalize_task(raw, len(tasks)))
    return tasks


def _read_manifest(path: str) -> list[dict]:
    """Read a JSONL task manifest (``-`` = stdin) into normalized tasks."""
    lines, where = _read_input_lines(path)
    return _parse_manifest_lines(lines, where)


def _parse_shard(spec: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` into ``(index, count)``; raises ReproError."""
    import re

    match = re.fullmatch(r"(\d+)/(\d+)", spec.strip())
    if not match:
        raise ReproError(f"--shard must look like I/N (e.g. 0/4), got {spec!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or index >= count:
        raise ReproError(f"--shard index must satisfy 0 <= I < N, got {spec}")
    return index, count


def _shard_slice(
    tasks: list[dict], index: int, count: int
) -> tuple[list[dict], list[dict]]:
    """Shard *index* of *count*: ``(skipped prefix, contiguous slice)``.

    Tasks keep their *global* manifest indices, so per-task seeds — and
    therefore results — match the unsharded run exactly, and the shard
    outputs concatenate (in shard order) to the unsharded output.  The
    prefix is returned so its content hashes can seed cache provenance
    (a plan first compiled by an earlier shard is a "hit" here, exactly
    as it would be mid-way through the unsharded run).
    """
    total = len(tasks)
    start, end = index * total // count, (index + 1) * total // count
    return tasks[:start], tasks[start:end]


def _batch(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.engine import run_batch

    if args.compile_only and not args.plan_store:
        raise ReproError(
            "--compile-only needs --plan-store: "
            "prewarmed plans must land somewhere that outlives the run"
        )
    if args.resume and not args.journal:
        raise ReproError("--resume needs --journal PATH (nothing to replay)")

    tasks = _read_manifest(args.manifest)
    seen_keys: list[str] = []
    if args.shard is not None:
        from repro.engine import task_key

        index, count = _parse_shard(args.shard)
        total = len(tasks)
        prefix, tasks = _shard_slice(tasks, index, count)
        seen_keys = [k for k in map(task_key, prefix) if k is not None]
        print(f"batch: shard {index}/{count}: tasks "
              f"{tasks[0]['index'] if tasks else '-'}.."
              f"{tasks[-1]['index'] if tasks else '-'} "
              f"({len(tasks)} of {total})", file=sys.stderr)
    collect_obs = args.trace_out is not None
    if collect_obs and args.plan_store:
        print("batch: note: --trace-out tasks compile privately, bypassing "
              "--plan-store (telemetry must not depend on scheduling)",
              file=sys.stderr)

    if args.plan_store:
        from repro.engine import PlanStore, store_traffic
        from repro.engine.store import STAT_COUNTERS

        with PlanStore(args.plan_store) as store:
            traffic_before = store.traffic_mark()

    import time

    start = time.perf_counter()
    if args.resume and os.path.exists(args.journal):
        print(f"batch: resuming from journal {args.journal}", file=sys.stderr)
    results = run_batch(
        tasks, workers=args.workers, seed=args.seed, timeout=args.timeout,
        max_cells=args.max_cells, fallback=args.fallback,
        epsilon=args.epsilon, delta=args.delta, collect_obs=collect_obs,
        plan_store=args.plan_store, compile_only=args.compile_only,
        seen_keys=seen_keys, max_retries=args.max_retries,
        hang_timeout_s=args.hang_timeout, chaos=args.chaos,
        journal=args.journal, resume=args.resume,
    )
    wall = time.perf_counter() - start

    store_metrics = None
    if args.plan_store:
        with PlanStore(args.plan_store) as store:
            store_metrics, _ = store_traffic(store, traffic_before)
        plans = store_metrics["gauges"]["engine.store.plans"]
        delta = {
            name: store_metrics["counters"].get(metric, 0)
            for name, metric in STAT_COUNTERS.items()
        }
        # Surfaced in the --json summary row too (not just this stderr
        # line), so store traffic survives into machine-readable output.
        args.batch_store_delta = {
            "path": args.plan_store, "plans": plans, **delta,
        }
        print(
            f"batch: plan store {args.plan_store}: {plans} plans "
            f"({plans - traffic_before['plans']:+d}), "
            f"store-hits={delta['hits']}, misses={delta['misses']}, "
            f"compiles={delta['compiles']}, races={delta['races']}, "
            f"stale-claims={delta['stale_claims']}",
            file=sys.stderr,
        )

    if args.trace_out is not None:
        from repro.obs.aggregate import summary_record, task_record

        try:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                for task, record in zip(tasks, results):
                    handle.write(
                        json.dumps(
                            task_record(record, task["index"]), sort_keys=True
                        )
                        + "\n"
                    )
                handle.write(
                    json.dumps(
                        summary_record(
                            results,
                            extra={"workers": args.workers, "wall_s": wall},
                            extra_metrics=store_metrics,
                        ),
                        sort_keys=True,
                    )
                    + "\n"
                )
        except OSError as error:
            raise ReproError(f"cannot write {args.trace_out}: {error}") from error
        print(f"batch: wrote {len(results) + 1} telemetry records to "
              f"{args.trace_out}", file=sys.stderr)
        # The harvested snapshots are telemetry, not query results.
        for record in results:
            record.pop("obs", None)

    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        for record in results:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()

    tally = {"ok": 0, "budget-exceeded": 0, "error": 0}
    for record in results:
        tally[record.get("status", "error")] = (
            tally.get(record.get("status", "error"), 0) + 1
        )
    quarantined = (
        f", quarantined={tally['quarantined']}" if tally.get("quarantined")
        else ""
    )
    print(
        f"batch: {len(results)} tasks in {wall:.3f}s "
        f"({args.workers} worker{'s' if args.workers != 1 else ''}): "
        f"ok={tally['ok']}, budget-exceeded={tally['budget-exceeded']}, "
        f"error={tally['error']}{quarantined}",
        file=sys.stderr,
    )


def _metrics(args: argparse.Namespace) -> None:
    """Render Prometheus text-format metrics from a trace file or manifest.

    The input is sniffed: JSONL whose first record carries a
    ``repro.obs/*`` schema is replayed offline (no queries run); anything
    else is treated as a task manifest and executed with telemetry
    harvesting on, then the merged registry is rendered.  ``-`` reads
    either format from stdin — the pipe-friendly form, e.g.
    ``repro batch m.jsonl --trace-out /dev/stdout | repro metrics -``.
    """
    from repro import obs
    from repro.obs.aggregate import merged_registry

    lines, where = _read_input_lines(args.input)
    if _sniff_trace_lines(lines):
        records = obs.read_jsonl_lines(lines, where)
        if records.skipped:
            print(f"metrics: skipped {records.skipped} unreadable record"
                  f"{'s' if records.skipped != 1 else ''} in {where}",
                  file=sys.stderr)
        registry = obs.registry_from_records(records)
    else:
        from repro.engine import run_batch

        tasks = _parse_manifest_lines(lines, where)
        results = run_batch(
            tasks, workers=args.workers, seed=args.seed,
            timeout=args.timeout, max_cells=args.max_cells,
            fallback=args.fallback, collect_obs=True,
        )
        registry = merged_registry(results)

    text = obs.render_prometheus(registry, exemplars=args.exemplars)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as error:
            raise ReproError(f"cannot write {args.out}: {error}") from error


def _sniff_trace_lines(lines: list[str]) -> bool:
    """True when JSONL *lines* look like an observability trace file.

    Decided from the first non-blank, non-comment line: a JSON object
    whose ``schema`` is a ``repro.obs/*`` string.  Manifests (task dicts
    without a schema key) fall through to False.
    """
    import json

    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return False
        return (
            isinstance(record, dict)
            and isinstance(record.get("schema"), str)
            and record["schema"].startswith("repro.obs/")
        )
    return False


def _serve_cmd(args: argparse.Namespace) -> None:
    """Run the async HTTP query service until a drain signal lands."""
    from repro import obs
    from repro.serve import ServeConfig, run_server

    # /metrics is a first-class route, so counting is on for the
    # server's lifetime regardless of --stats.
    obs.enable_counting()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        seed=args.seed,
        plan_store=args.plan_store,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        request_timeout=(
            args.request_timeout if args.request_timeout > 0 else None
        ),
        drain_timeout=args.drain_timeout,
        max_body=args.max_body,
        max_cells=args.max_cells,
        fallback=args.fallback,
        epsilon=args.epsilon,
        delta=args.delta,
        access_log=not args.no_access_log,
        slow_query_s=args.slow_query_s,
        slow_query_log=args.slow_query_log,
        exemplars=not args.no_exemplars,
    )
    run_server(config)


def _top_cmd(args: argparse.Namespace) -> int:
    """Poll a live /metrics endpoint and render the one-screen view."""
    from repro.obs.top import run_top

    return run_top(args.url, interval=args.interval, once=args.once)


def _trace_perfetto(args: argparse.Namespace) -> int:
    """Convert a JSONL trace / slow-query file to Chrome trace-event JSON."""
    from repro import obs

    rest = [part for part in args.rest if part != "--"]
    if len(rest) != 1:
        print("usage: repro trace --perfetto OUT INPUT.jsonl",
              file=sys.stderr)
        return 2
    try:
        records = obs.read_jsonl(rest[0])
    except OSError as error:
        print(f"repro: cannot read {rest[0]}: {error}", file=sys.stderr)
        return 2
    if records.skipped:
        print(f"trace: skipped {records.skipped} unreadable record"
              f"{'s' if records.skipped != 1 else ''} in {rest[0]}",
              file=sys.stderr)
    document = obs.render_perfetto(records)
    try:
        with open(args.perfetto, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    except OSError as error:
        print(f"repro: cannot write {args.perfetto}: {error}",
              file=sys.stderr)
        return 2
    lanes = sum(
        1 for event in obs.perfetto_json(records)["traceEvents"]
        if event.get("ph") == "M"
    )
    print(f"trace: wrote {lanes} timeline lane"
          f"{'s' if lanes != 1 else ''} to {args.perfetto} "
          f"(open at https://ui.perfetto.dev)", file=sys.stderr)
    return 0


def _experiments() -> None:
    rows = [
        ("E1", "Section 3 blow-up example", "bench_e1_km_blowup.py"),
        ("E2", "VC sample bound", "bench_e2_sample_bounds.py"),
        ("E3", "separating sentences / AVG reduction", "bench_e3_separating.py"),
        ("E4", "trivial 1/2-approximation (Prop 4)", "bench_e4_trivial.py"),
        ("E5", "good instances + AC0 failure (Thm 2)", "bench_e5_good_instances.py"),
        ("E6", "VCdim >= log |D| (Prop 5)", "bench_e6_vcdim_growth.py"),
        ("E7", "Loewner-John convex band", "bench_e7_lowner_john.py"),
        ("E8", "polygon area SUM term (Sec 5)", "bench_e8_polygon_area.py"),
        ("E9", "exact semi-linear volumes (Thm 3)", "bench_e9_semilinear_volume.py"),
        ("E10", "uniform witness sampling (Thm 4)", "bench_e10_witness_volume.py"),
        ("A1", "ablation: FM pruning", "bench_a1_fm_prune.py"),
    ]
    print("experiments (run: pytest benchmarks/ --benchmark-only -s):")
    for key, title, module in rows:
        print(f"  {key:<4} {title:<42} benchmarks/{module}")


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults: absent flags leave no attribute behind, so a
    # subcommand's parse cannot clobber a value given before the
    # subcommand (argparse copies the subparser namespace wholesale).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--stats", action="store_true", default=argparse.SUPPRESS,
        help="print the span tree and counter table after the command",
    )
    common.add_argument(
        "--json", metavar="PATH", default=argparse.SUPPRESS,
        help="append one JSON-lines observability record to PATH",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="seed for the numpy generator used by sampling paths (default 0)",
    )
    common.add_argument(
        "--timeout", type=float, metavar="SECONDS", default=argparse.SUPPRESS,
        help="wall-clock budget; exhaustion exits 3 (or degrades, see --fallback)",
    )
    common.add_argument(
        "--max-cells", type=int, metavar="N", default=argparse.SUPPRESS,
        help="budget for CAD stack cells / convex decomposition cells",
    )
    common.add_argument(
        "--fallback", choices=("off", "auto", "approx-only"),
        default=argparse.SUPPRESS,
        help="degradation policy for volume: off (default) propagates budget "
        "exhaustion; auto retries a coarser exact strategy then Monte Carlo; "
        "approx-only skips the exact attempts",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        parents=[common],
        description="Reproduction of 'Exact and Approximate Aggregation in "
        "Constraint Query Languages' (PODS 1999)",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser(
        "demo", parents=[common], help="compact end-to-end demonstration"
    )
    volume = sub.add_parser(
        "volume", parents=[common], help="exact VOL_I of a linear formula"
    )
    volume.add_argument("formula", help='e.g. "0 <= y AND y <= x AND x <= 1"')
    volume.add_argument(
        "--epsilon", type=float, default=0.05,
        help="accuracy target sizing the Monte Carlo fallback (default 0.05)",
    )
    volume.add_argument(
        "--delta", type=float, default=0.05,
        help="failure probability of the Monte Carlo fallback (default 0.05)",
    )
    approx = sub.add_parser(
        "approx", parents=[common],
        help="Monte Carlo (epsilon, delta)-approximation of VOL_I",
    )
    approx.add_argument("formula", help='e.g. "0 <= y AND y <= x AND x <= 1"')
    approx.add_argument("--epsilon", type=float, default=0.05)
    approx.add_argument("--delta", type=float, default=0.05)
    batch = sub.add_parser(
        "batch", parents=[common],
        help="run a JSONL manifest of queries through the batch executor",
    )
    batch.add_argument(
        "manifest",
        help="JSONL manifest path, or '-' for stdin; one task per line, "
        'e.g. {"id": "q1", "op": "volume", "formula": "x <= 1 AND 0 <= x"}',
    )
    batch.add_argument(
        "--out", metavar="PATH", default=None,
        help="write JSONL results here instead of stdout",
    )
    batch.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process workers for CPU-bound compilation (default 1 = serial, "
        "in-process, shared plan cache)",
    )
    batch.add_argument(
        "--plan-store", metavar="PATH", default=None,
        help="cross-process shared plan store (SQLite, created on first "
        "use): every worker compiles through it, so each distinct query "
        "shape is compiled at most once batch-wide — and prewarmed stores "
        "skip compilation entirely",
    )
    batch.add_argument(
        "--compile-only", action="store_true", default=False,
        help="prepare (and publish to --plan-store) every task's plan "
        "without evaluating anything: the prewarming mode",
    )
    batch.add_argument(
        "--shard", metavar="I/N", default=None,
        help="run only the I-th of N contiguous manifest shards (0-based); "
        "per-task seeds use global manifest indices, so shard outputs "
        "concatenate to the unsharded run",
    )
    batch.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="harvest per-task telemetry (counters, histograms, spans) and "
        "write one merged JSONL record per task plus a run summary here",
    )
    batch.add_argument(
        "--journal", metavar="PATH", default=None,
        help="append every completed task to this repro.engine.journal/v1 "
        "JSONL file (fsynced per record), so an interrupted run can be "
        "resumed with --resume; use one journal per shard",
    )
    batch.add_argument(
        "--resume", action="store_true", default=False,
        help="replay --journal and run only the unfinished tasks; the "
        "combined output is byte-identical to an uninterrupted run "
        "(same manifest, seed, and flags required)",
    )
    batch.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="transient-failure retries (worker death) per task before it "
        "is quarantined and the batch moves on (default 2)",
    )
    batch.add_argument(
        "--hang-timeout", type=float, default=None, metavar="SECONDS",
        help="SIGKILL a worker whose task has been in flight this long "
        "(off by default; arm only above the worst-case task runtime)",
    )
    batch.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="deterministic fault injection for testing: kill:IDX[*TIMES] "
        "(SIGKILL the worker at task IDX), hang:IDX[*TIMES], abort:N "
        "(crash this run after N completions; resume via --journal), "
        "comma-separated",
    )
    batch.add_argument(
        "--epsilon", type=float, default=0.05,
        help="default accuracy target for approx/fallback tasks (default 0.05)",
    )
    batch.add_argument(
        "--delta", type=float, default=0.05,
        help="default failure probability for approx/fallback tasks "
        "(default 0.05)",
    )
    metrics = sub.add_parser(
        "metrics", parents=[common],
        help="render Prometheus text-format metrics from a trace file "
        "or a task manifest",
    )
    metrics.add_argument(
        "input",
        help="a batch --trace-out JSONL file (replayed offline) or a task "
        "manifest (run with telemetry harvesting on)",
    )
    metrics.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the exposition text here instead of stdout",
    )
    metrics.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="process workers when the input is a manifest (default 1)",
    )
    metrics.add_argument(
        "--exemplars", action="store_true", default=False,
        help="append OpenMetrics exemplars (trace ids) to histogram "
        "bucket lines when the input recorded them",
    )
    serve = sub.add_parser(
        "serve", parents=[common],
        help="serve queries over HTTP with admission control and live "
        "metrics (see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="TCP port to bind; 0 picks an ephemeral port, printed on "
        "the 'serve: listening' stderr line (default 8080)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="process workers for CPU-bound query execution (default 2)",
    )
    serve.add_argument(
        "--plan-store", metavar="PATH", default=None,
        help="cross-process shared plan store; concurrent compiles of one "
        "content hash are coalesced in front of it",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4, metavar="N",
        help="tasks dispatched to the pool at once (default 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="requests allowed to wait for a slot before new arrivals "
        "are shed with 429 (default 16)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline cap: each request's budget is "
        "min(its own 'timeout' field, this), charged from admission "
        "(0 = uncapped; default 30)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="seconds SIGTERM/SIGINT waits for in-flight work before "
        "exiting anyway (default 10)",
    )
    serve.add_argument(
        "--max-body", type=int, default=1 << 20, metavar="BYTES",
        help="largest accepted request body (default 1 MiB)",
    )
    serve.add_argument(
        "--epsilon", type=float, default=0.05,
        help="default accuracy target for approx/fallback tasks (default 0.05)",
    )
    serve.add_argument(
        "--delta", type=float, default=0.05,
        help="default failure probability for approx/fallback tasks "
        "(default 0.05)",
    )
    serve.add_argument(
        "--no-access-log", action="store_true", default=False,
        help="suppress the per-request JSON access-log lines on stderr",
    )
    serve.add_argument(
        "--slow-query-s", type=float, default=None, metavar="SECONDS",
        help="emit a repro.slowquery/v1 JSONL record (full span tree, "
        "budget charges, cache provenance) for every request at least "
        "this slow (default: disabled)",
    )
    serve.add_argument(
        "--slow-query-log", metavar="PATH", default=None,
        help="append slow-query records here instead of stderr",
    )
    serve.add_argument(
        "--no-exemplars", action="store_true", default=False,
        help="render /metrics without OpenMetrics exemplars (plain "
        "Prometheus text format)",
    )
    sub.add_parser(
        "experiments", parents=[common],
        help="list the reproduction experiments",
    )
    top = sub.add_parser(
        "top", parents=[common],
        help="live one-screen view of a serving process, polled from "
        "its /metrics endpoint",
    )
    top.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8080/metrics",
        help="the /metrics URL to poll "
        "(default http://127.0.0.1:8080/metrics)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between scrapes (default 2)",
    )
    top.add_argument(
        "--once", action="store_true", default=False,
        help="render a single frame from a single scrape and exit",
    )
    trace = sub.add_parser(
        "trace", parents=[common],
        help="run a subcommand with observability on (= --stats), or "
        "convert a trace file with --perfetto",
    )
    trace.add_argument(
        "--perfetto", metavar="OUT", default=None,
        help="instead of running a subcommand, convert a JSONL trace "
        "file (batch --trace-out or a slow-query log, given as the "
        "positional argument) into Chrome trace-event JSON loadable at "
        "ui.perfetto.dev, written to OUT",
    )
    trace.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="subcommand and its arguments, e.g. 'trace demo' (with "
        "--perfetto: the input JSONL file)",
    )
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.command in ("volume", "approx"):
        # volume manages the budget itself: the fallback ladder needs to
        # catch exhaustion between rungs, not have it unwind past it.
        # approx is the ladder's last rung alone.
        if args.command == "approx":
            args.fallback = "approx-only"
        _volume(args)
        return
    if args.command == "batch":
        # batch builds one fresh budget per task from the timeout/max-cells
        # caps, so a single runaway query cannot starve the whole batch.
        _batch(args)
        return
    if args.command == "metrics":
        # metrics manages budgets per task like batch (when its input is a
        # manifest); a trace-file replay runs no queries at all.
        _metrics(args)
        return
    if args.command == "serve":
        # serve derives a fresh budget per request from --request-timeout
        # and the request's own deadline; no process-wide budget applies.
        _serve_cmd(args)
        return
    if args.command == "top":
        # top runs no queries; it only scrapes a remote /metrics.
        sys.exit(_top_cmd(args))
    with guard.govern(args.budget):
        if args.command in (None, "demo"):
            _demo(args)
        elif args.command == "experiments":
            _experiments()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "trace" and getattr(args, "perfetto", None):
        # `trace --perfetto OUT INPUT` is offline conversion, not a
        # traced subcommand run.
        return _trace_perfetto(args)
    if args.command == "trace":
        # `trace <sub> ...` == `--stats <sub> ...`; global flags given
        # alongside `trace` are preserved.
        rest = list(args.rest)
        if not rest:
            print("usage: repro trace <subcommand> [args...]", file=sys.stderr)
            return 2
        outer = args
        args = parser.parse_args(rest)
        if args.command == "trace":
            print("usage: repro trace <subcommand> [args...]", file=sys.stderr)
            return 2
        args.stats = True
        for name in ("json", "seed", "timeout", "max_cells", "fallback"):
            if not hasattr(args, name) and hasattr(outer, name):
                setattr(args, name, getattr(outer, name))

    if args.command == "approx" and getattr(args, "fallback", "approx-only") != "approx-only":
        # Read before the default below erases whether the flag was given.
        print(f"repro: error: approx always samples; --fallback {args.fallback} "
              "does not apply (use volume --fallback)", file=sys.stderr)
        return 2

    args.stats = getattr(args, "stats", False)
    args.json = getattr(args, "json", None)
    args.seed = getattr(args, "seed", 0)
    args.timeout = getattr(args, "timeout", None)
    args.max_cells = getattr(args, "max_cells", None)
    args.fallback = getattr(args, "fallback", "off")
    args.budget = (
        guard.Budget(deadline_s=args.timeout, max_cells=args.max_cells)
        if args.timeout is not None or args.max_cells is not None
        else None
    )

    try:
        return _run(args, argv)
    except BudgetExceeded as error:
        print(f"repro: budget exceeded: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, argv: list[str] | None) -> int:
    if not (args.stats or args.json):
        _dispatch(args)
        return 0

    from repro import obs

    command = args.command or "demo"
    with obs.observe(f"repro.{command}") as trace_record:
        with obs.span(f"cli.{command}", seed=args.seed):
            _dispatch(args)
    if args.stats:
        print()
        print(obs.format_span_tree(trace_record))
        print(obs.format_counters(obs.REGISTRY))
    if args.json:
        row = {"argv": " ".join(argv or sys.argv[1:]), "seed": args.seed}
        if getattr(args, "batch_store_delta", None) is not None:
            row["plan_store"] = args.batch_store_delta
        record = obs.make_record(
            f"repro.{command}",
            row=row,
            registry=obs.REGISTRY,
            trace=trace_record,
        )
        try:
            obs.JsonlSink(args.json).write(record)
        except OSError as error:
            print(f"repro: cannot write {args.json}: {error}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
