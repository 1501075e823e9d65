"""The ``python -m repro`` command-line interface."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import repro
from repro.__main__ import main
from repro.obs import SCHEMA, read_jsonl


def run_cli(*argv: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0
    return buffer.getvalue()


def run_cli_raw(*argv: str) -> tuple[int, str, str]:
    """Like :func:`run_cli` but returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCLI:
    def test_default_demo(self):
        output = run_cli()
        assert "PODS 1999" in output
        assert "7/32" in output

    def test_demo_subcommand(self):
        assert "Theorem 3" in run_cli("demo")

    def test_volume(self):
        output = run_cli("volume", "0 <= y AND y <= x AND x <= 1")
        assert "= 1/2 =" in output

    def test_volume_union(self):
        output = run_cli("volume", "x < 1/4 OR x > 3/4")
        assert "= 1/2 =" in output

    def test_experiments_listing(self):
        output = run_cli("experiments")
        assert "bench_e1_km_blowup.py" in output
        assert "E10" in output


class TestCLIObservability:
    def test_demo_stats_prints_span_tree_and_counters(self):
        output = run_cli("demo", "--stats")
        assert "trace 'repro.demo'" in output
        # At least three levels of nesting render as increasing indents.
        assert "\n  - cli.demo" in output
        assert "\n    - " in output
        assert "\n      - " in output
        # The counter table names the headline metrics.
        assert "=== counters ===" in output
        assert "cad.cells" in output
        assert "evaluator.range_candidates" in output
        assert "mc.samples" in output

    def test_stats_before_subcommand_also_works(self):
        output = run_cli("--stats", "demo")
        assert "trace 'repro.demo'" in output

    def test_volume_stats(self):
        output = run_cli("volume", "--stats", "0 <= y AND y <= x AND x <= 1")
        assert "= 1/2 =" in output
        assert "fm.eliminations" in output
        assert "volume.polytopes" in output

    def test_trace_subcommand_forces_stats(self):
        output = run_cli("trace", "volume", "x < 1/4 OR x > 3/4")
        assert "= 1/2 =" in output
        assert "trace 'repro.volume'" in output

    def test_json_export(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        run_cli("demo", "--json", path)
        (record,) = read_jsonl(path)
        assert record["schema"] == SCHEMA
        assert record["experiment"] == "repro.demo"
        assert record["counters"]["cad.cells"] > 0
        assert record["spans"][0]["name"] == "cli.demo"

    def test_seed_reproducibility(self):
        first = run_cli("approx", "--seed", "7", "x*x + y*y < 1")
        second = run_cli("approx", "--seed", "7", "x*x + y*y < 1")
        third = run_cli("approx", "--seed", "8", "x*x + y*y < 1")
        assert first == second
        assert first != third

    def test_approx_prints_the_approx_only_volume_line(self):
        formula = "EXISTS z . (0 <= z AND z <= y AND y <= x AND x <= 1)"
        approx = run_cli("approx", "--seed", "3", formula)
        volume = run_cli(
            "volume", "--fallback", "approx-only", "--seed", "3", formula
        )
        assert approx == volume
        assert "mode=approximate" in approx

    def test_approx_rejects_an_exact_fallback_policy(self):
        for argv in (("approx", "--fallback", "off", FORMULA),
                     ("--fallback", "auto", "approx", FORMULA),
                     ("trace", "approx", "--fallback", "off", FORMULA)):
            code, out, err = run_cli_raw(*argv)
            assert code == 2
            assert out == ""
            assert err.startswith("repro: error: approx always samples")
            assert err.count("\n") == 1
        run_cli("approx", "--fallback", "approx-only", "--seed", "3", FORMULA)

    def test_approx_stops_at_the_deadline(self):
        # epsilon 0.0001 asks for ~184 million samples.
        code, out, err = run_cli_raw(
            "approx", "--epsilon", "0.0001", "--timeout", "0.05", FORMULA
        )
        assert code == 3
        assert out == ""
        assert err.startswith("repro: budget exceeded: deadline")


FORMULA = "0 <= y AND y <= x AND x <= 1"


class TestCLIGovernance:
    """``--timeout`` / ``--max-cells`` / ``--fallback`` and exit codes 2/3."""

    def test_timeout_without_fallback_exits_3(self):
        code, out, err = run_cli_raw("volume", "--timeout", "0", FORMULA)
        assert code == 3
        assert out == ""
        assert err.startswith("repro: budget exceeded: deadline budget exceeded")
        assert err.count("\n") == 1  # one-line diagnostic

    def test_max_cells_without_fallback_exits_3(self):
        code, _, err = run_cli_raw("volume", "--max-cells", "0", FORMULA)
        assert code == 3
        assert "cells budget exceeded" in err

    def test_timeout_with_auto_fallback_degrades_to_approximate(self):
        code, out, err = run_cli_raw(
            "volume", "--timeout", "0", "--fallback", "auto",
            "--epsilon", "0.1", FORMULA,
        )
        assert code == 0
        assert "mode=approximate" in out
        assert "+-" in out
        assert "[exact abandoned: deadline budget exceeded]" in err
        assert "[exact-coarse abandoned: deadline budget exceeded]" in err

    def test_auto_fallback_with_ample_budget_stays_exact(self):
        code, out, err = run_cli_raw(
            "volume", "--timeout", "60", "--fallback", "auto", FORMULA
        )
        assert code == 0
        assert "= 1/2 = 0.5 (mode=exact)" in out
        assert err == ""

    def test_approx_only_policy_skips_exact(self):
        code, out, _ = run_cli_raw(
            "volume", "--fallback", "approx-only", "--epsilon", "0.1", FORMULA
        )
        assert code == 0
        assert "mode=approximate" in out

    def test_fallback_seed_reproducibility(self):
        runs = {
            run_cli_raw("volume", "--timeout", "0", "--fallback", "auto",
                        "--seed", "7", FORMULA)[1]
            for _ in range(2)
        }
        assert len(runs) == 1

    def test_query_error_exits_2(self):
        code, _, err = run_cli_raw("volume", "S(x, y)")
        assert code == 2
        assert err.startswith("repro: error:")

    def test_parse_error_exits_2(self):
        code, _, err = run_cli_raw("volume", "x <<< y")
        assert code == 2
        assert err == "repro: error: expected a term, got '<'\n"

    def test_deeply_nested_formula_exits_2(self):
        nested = "(" * 200 + "0 <= x AND x <= 1" + ")" * 200
        code, _, err = run_cli_raw("volume", "--fallback", "off", nested)
        assert code == 2
        assert err == "repro: error: formula nested too deeply\n"

    def test_nesting_below_the_limit_still_answers(self):
        """A fresh ``python -m repro`` (the CLI's own stack depth) still
        answers 150 nested parentheses and 950 NOTs."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for formula in ("(" * 150 + "0 <= x AND x <= 1" + ")" * 150,
                        "NOT " * 950 + "(0 <= x AND x <= 1)"):
            run = subprocess.run(
                [sys.executable, "-m", "repro", "volume", "--fallback", "off",
                 formula],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            assert run.stdout.endswith(" = 1 = 1.0\n")

    def test_demo_under_exhausted_budget_exits_3(self):
        code, _, err = run_cli_raw("demo", "--timeout", "0")
        assert code == 3
        assert "budget exceeded" in err

    def test_trace_passes_governance_flags_through(self):
        code, out, _ = run_cli_raw(
            "--timeout", "0", "--fallback", "auto", "trace", "volume", FORMULA
        )
        assert code == 0
        assert "mode=approximate" in out
        assert "guard.robust_volume" in out
        assert "guard.trips.deadline" in out
