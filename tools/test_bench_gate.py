#!/usr/bin/env python3
"""test_bench_gate — seeded-failure checks for bench_gate.py.

Feeds tools/bench_gate.py reports built from the committed
bench/BENCH_K2_baseline.json and checks the exact-metric verdicts:

  * every speed metric at its reference value and every exact metric at 1.0
    passes;
  * equivalence_exact 0 on one batch size fails;
  * equivalence_exact 0.7 fails too (a derated 0.8 baseline with the 25%
    threshold used to accept it);
  * --derate scales the speed metrics but leaves the exact metrics at 1.0.

The seeded reports carry no "exact_metrics" list of their own, so the
baseline's list alone must arm the equality check.

Then it does the same from bench/BENCH_K1_baseline.json for the GELU row,
which gates its own key (speedup_vs_libm): the reference report passes, a
report whose GELU kernel is no faster than the std::tanh loop (ratio 1.0,
what a reintroduced libm call gives) fails, and --derate scales the row's
ratio.

Usage: test_bench_gate.py [repo_root]      (exit 0 = pass, 1 = fail)
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run_gate(gate: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(gate), *args],
                          capture_output=True, text=True, check=False)


def check_k1_gelu_row(root: Path, gate: Path) -> list[str]:
    """Seeded reports for the K1 GELU row, which carries its own gated key."""
    baseline_path = root / "bench" / "BENCH_K1_baseline.json"
    baseline = json.loads(baseline_path.read_text())
    factor = baseline.get("derated_by", 1.0)
    reference = copy.deepcopy(baseline)
    reference.pop("derated_by", None)
    gelu = None
    for shape in reference["shapes"]:
        keys = shape.get("gated", ("blocked_gflops", "parallel_gflops"))
        for key in keys:
            shape[key] = round(shape[key] / factor, 4)
        if "speedup_vs_libm" in keys:
            gelu = shape
    if gelu is None:
        return ["BENCH_K1_baseline.json has no row gating speedup_vs_libm"]

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "current.json"

        def gate_exit(report: dict) -> int:
            path.write_text(json.dumps(report))
            return run_gate(gate, [str(path), str(baseline_path)]).returncode

        libm = copy.deepcopy(reference)
        for shape in libm["shapes"]:
            if shape["name"] == gelu["name"]:
                shape["speedup_vs_libm"] = 1.0
        for label, report, want in (("K1 reference report", reference, 0),
                                    ("K1 GELU ratio 1.0", libm, 1)):
            got = gate_exit(report)
            if got != want:
                failures.append(f"{label}: gate exited {got}, expected {want}")

        path.write_text(json.dumps(reference))
        proc = run_gate(gate, ["--derate", "0.8", str(path)])
        if proc.returncode != 0:
            return failures + [f"K1 --derate exited {proc.returncode}"]
        derated = {s["name"]: s for s in json.loads(proc.stdout)["shapes"]}
        got = derated[gelu["name"]]["speedup_vs_libm"]
        want = round(gelu["speedup_vs_libm"] * 0.8, 4)
        if got != want:
            failures.append(f"K1 --derate GELU ratio {got}, expected {want}")
    return failures


def main() -> int:
    root = (Path(sys.argv[1]).resolve() if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent)
    gate = root / "tools" / "bench_gate.py"
    baseline_path = root / "bench" / "BENCH_K2_baseline.json"
    baseline = json.loads(baseline_path.read_text())
    factor = baseline.get("derated_by", 1.0)

    # A reference-run report: speeds undone from the derate, exact at 1.0.
    reference = copy.deepcopy(baseline)
    reference.pop("derated_by", None)
    reference.pop("exact_metrics", None)
    for shape in reference["shapes"]:
        shape["speedup_vs_dynamic"] = round(
            shape["speedup_vs_dynamic"] / factor, 4)
        shape["equivalence_exact"] = 1.0

    def seeded(value: float) -> dict:
        report = copy.deepcopy(reference)
        report["shapes"][1]["equivalence_exact"] = value
        return report

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        def gate_exit(report: dict) -> int:
            path = Path(tmp) / "current.json"
            path.write_text(json.dumps(report))
            return run_gate(gate, [str(path), str(baseline_path)]).returncode

        for label, report, want in (("exact report", reference, 0),
                                    ("equivalence_exact 0", seeded(0.0), 1),
                                    ("equivalence_exact 0.7", seeded(0.7), 1)):
            got = gate_exit(report)
            if got != want:
                failures.append(f"{label}: gate exited {got}, expected {want}")

        exact_report = copy.deepcopy(reference)
        exact_report["exact_metrics"] = baseline.get("exact_metrics", [])
        path = Path(tmp) / "reference.json"
        path.write_text(json.dumps(exact_report))
        proc = run_gate(gate, ["--derate", "0.8", str(path)])
        derated = json.loads(proc.stdout) if proc.returncode == 0 else None
        if derated is None:
            failures.append(f"--derate exited {proc.returncode}")
        else:
            for shape in derated["shapes"]:
                if shape["equivalence_exact"] != 1.0:
                    failures.append(f"--derate changed {shape['name']}/"
                                    "equivalence_exact")
            if derated["summary"]["equivalence_min"] != 1.0:
                failures.append("--derate changed summary/equivalence_min")
            first = derated["shapes"][0]["speedup_vs_dynamic"]
            want = round(reference["shapes"][0]["speedup_vs_dynamic"] * 0.8, 4)
            if first != want:
                failures.append(f"--derate speedup {first}, expected {want}")

    failures += check_k1_gelu_row(root, gate)
    for f in failures:
        print(f"test_bench_gate: FAIL: {f}")
    if failures:
        return 1
    print("test_bench_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
