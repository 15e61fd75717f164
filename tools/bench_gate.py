#!/usr/bin/env python3
"""bench_gate — perf-regression gate for the bench-smoke CI job.

Compares a fresh bench JSON report against its committed baseline and fails
(exit 1) if any gated metric dropped more than the threshold (default 25%)
on any shape. Which metrics are gated is part of the report itself: a
top-level "gated_metrics" array names per-shape keys (all higher-is-better);
reports without the field get the historical bench_k1_kernels defaults
(blocked_gflops / parallel_gflops), so existing baselines keep working. A
shape row may carry its own "gated" array instead (bench_k1_kernels' GELU
row gates its speedup_vs_libm ratio, not GFLOP/s).

Gated benches and their committed baselines:

    bench_k1_kernels --smoke --json  ->  bench/BENCH_K1_baseline.json
    bench_i1_index   --smoke --json  ->  bench/BENCH_I1_baseline.json
    bench_k2_plan    --smoke --json  ->  bench/BENCH_K2_baseline.json

A gated metric that is present on one side but missing from the other (a
stale baseline, or a bench that stopped emitting a metric it is supposed to
defend) is a gate FAILURE with an expected-vs-found message, never a silent
skip.

Exactness flags are not speeds. A report's "exact_metrics" array (read from
the baseline and the current report alike) names them, e.g. bench_k2_plan's
equivalence_exact: 1.0 iff the compiled plan is bit-identical to the
dynamic path. A gated exact metric must EQUAL its baseline (no threshold),
and --derate leaves exact metrics untouched, so a committed baseline holds
them at 1.0. tools/test_bench_gate.py checks that a non-exact report fails.

The baseline is recorded on a reference run and then derated (speed
metrics multiplied by 0.8) before committing, so the gate tolerates
runner-to-runner variance on top of the explicit threshold; it exists to catch order-of-magnitude
regressions (a dropped fast path, an accidental de-vectorization, a pool that
stopped parallelizing, an index scanning everything), not single-digit noise.
Refresh with e.g.:

    build/bench/bench_k1_kernels --json /tmp/k1.json
    python3 tools/bench_gate.py --derate 0.8 /tmp/k1.json \
        > bench/BENCH_K1_baseline.json

A markdown comparison table is printed, and appended to the CI job summary
when $GITHUB_STEP_SUMMARY is set.

Usage:
    bench_gate.py CURRENT.json BASELINE.json [--threshold 0.25]
    bench_gate.py --derate 0.8 CURRENT.json     (emit derated baseline JSON)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_GATED_METRICS = ("blocked_gflops", "parallel_gflops")


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def gated_metrics(report: dict) -> tuple[str, ...]:
    return tuple(report.get("gated_metrics", DEFAULT_GATED_METRICS))


def row_gated(row: dict, report: dict) -> tuple[str, ...]:
    """The row's own "gated" keys, else the report's gated metrics."""
    return tuple(row.get("gated", gated_metrics(report)))


def exact_metrics(*reports: dict) -> set[str]:
    """Metrics compared for equality and never derated (any report's list)."""
    return {m for r in reports for m in r.get("exact_metrics", ())}


def derate(report: dict, factor: float) -> dict:
    out = dict(report)
    out["derated_by"] = factor
    out["shapes"] = []
    exact = exact_metrics(report)
    for shape in report["shapes"]:
        row = dict(shape)
        # scalar_gflops is ungated context in the K1 report but derated
        # alongside so the baseline file reads consistently.
        for key in ("scalar_gflops",) + row_gated(shape, report):
            if key in row and key not in exact:
                row[key] = round(row[key] * factor, 4)
        out["shapes"].append(row)
    if "summary" in out:
        out["summary"] = {
            k: (round(v * factor, 4) if isinstance(v, float) and k not in exact
                else v)
            for k, v in report["summary"].items()
        }
    return out


def compare(current: dict, baseline: dict, threshold: float) -> tuple[str, list[str]]:
    """Return (markdown table, list of failure strings)."""
    base_by_name = {s["name"]: s for s in baseline["shapes"]}
    exact = exact_metrics(current, baseline)
    failures: list[str] = []
    lines = [
        "| shape | metric | baseline | current | ratio | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for shape in current["shapes"]:
        name = shape["name"]
        base = base_by_name.get(name)
        if base is None:
            lines.append(f"| {name} | — | — | — | — | no baseline (new shape) |")
            continue
        for metric in row_gated(shape, current):
            cur_v, base_v = shape.get(metric), base.get(metric)
            # A gated metric absent from either side is a gate failure, not a
            # skip: a silently-missing metric is exactly how a regression
            # hides (a stale baseline file, or a bench that stopped emitting
            # the metric it is supposed to defend).
            if cur_v is None or base_v is None:
                present = sorted(k for k in (base if cur_v is not None
                                             else shape) if k != "name")
                side = "baseline" if cur_v is not None else "current report"
                failures.append(
                    f"{name}/{metric}: gated metric missing from {side} "
                    f"(expected '{metric}', found only: {', '.join(present)})")
                lines.append(f"| {name} | {metric} | — | — | — "
                             f"| **FAIL** (missing from {side}) |")
                continue
            if base_v <= 0:
                failures.append(
                    f"{name}/{metric}: baseline value {base_v} is not a "
                    f"positive number — regenerate the baseline "
                    f"(tools/bench_gate.py --derate)")
                lines.append(f"| {name} | {metric} | {base_v} | {cur_v:.2f} "
                             f"| — | **FAIL** (bad baseline) |")
                continue
            ratio = cur_v / base_v
            if metric in exact:
                ok = cur_v == base_v
                if not ok:
                    failures.append(
                        f"{name}/{metric}: {cur_v} vs baseline {base_v} "
                        f"(exact metric, must be equal)")
                lines.append(
                    f"| {name} | {metric} | {base_v} | {cur_v} | {ratio:.2f}x "
                    f"| {'ok' if ok else '**FAIL** (must equal baseline)'} |")
                continue
            ok = ratio >= 1.0 - threshold
            status = "ok" if ok else f"**FAIL** (>{threshold:.0%} drop)"
            if not ok:
                failures.append(
                    f"{name}/{metric}: {cur_v:.2f} vs baseline "
                    f"{base_v:.2f} ({ratio:.2f}x, floor {1.0 - threshold:.2f}x)")
            lines.append(
                f"| {name} | {metric} | {base_v:.2f} "
                f"| {cur_v:.2f} | {ratio:.2f}x | {status} |")
    missing = set(base_by_name) - {s["name"] for s in current["shapes"]}
    for name in sorted(missing):
        failures.append(f"{name}: present in baseline but missing from current run")
        lines.append(f"| {name} | — | — | — | — | **FAIL** (missing) |")
    return "\n".join(lines), failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh bench JSON report")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline JSON to gate against")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional drop (default 0.25)")
    parser.add_argument("--derate", type=float, default=None, metavar="FACTOR",
                        help="emit CURRENT with its speed metrics scaled by "
                             "FACTOR (exact metrics kept) as a new baseline "
                             "and exit (no gating)")
    args = parser.parse_args()

    current = load(args.current)
    if args.derate is not None:
        json.dump(derate(current, args.derate), sys.stdout, indent=2)
        print()
        return 0
    if args.baseline is None:
        parser.error("BASELINE is required unless --derate is given")

    baseline = load(args.baseline)
    for label, report in (("current", current), ("baseline", baseline)):
        if not isinstance(report.get("shapes"), list):
            print(f"bench_gate: {label} report has no 'shapes' array "
                  f"(top-level keys: {', '.join(sorted(report))})",
                  file=sys.stderr)
            return 2
    table, failures = compare(current, baseline, args.threshold)

    bench_name = current.get("bench", "bench")
    header = f"## bench-smoke: {bench_name} vs baseline\n"
    verdict = ("\n**Gate: FAIL**\n" + "\n".join(f"- {f}" for f in failures)
               if failures else "\n**Gate: pass** — no metric dropped more "
                                f"than {args.threshold:.0%}; exact metrics "
                                "equal.")
    report = f"{header}\n{table}\n{verdict}\n"
    print(report)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(report + "\n")

    if failures:
        print(f"bench_gate: {len(failures)} gated metric(s) regressed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
