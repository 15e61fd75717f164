#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--inject flip_bit|wrong_label|drop]

Run from the repository root. It builds the tsdx libraries and the
benchmark driver from source (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build/, runs one workload, and prints the driver's human-readable
report followed, as the last line of standard output, by one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are exactly the "end_to_end" set of
BENCHMARK.json; with --trace 1 they are exactly the "per_layer" set. A
per-layer metric of a layer the workload never calls reads 0 (the layer was
idle). Traced runs also write their spans to .bench_out/.

Exit status: 0 when every output check passed, 1 when a check failed or
the run was invalid, 2 when the checkout is incomplete or usage is wrong.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_light", "serve_saturated", "search_ingest")
# Longest one driver run may take; the build has its own, longer limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    start = time.monotonic()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            sys.stderr.write(log.read_text()[-4000:])
            fail("configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", str(out), "--target", "perfbench",
                     "-j", jobs], log,
                    BUILD_TIMEOUT_S - (time.monotonic() - start))
    if rc != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail("build failed", 1)
    return out / "perfbench"


def source_id():
    """Git SHA when the checkout is a repository, else a content hash."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + \
            sorted((HERE / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--inject", choices=("flip_bit", "wrong_label", "drop"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no tsdx sources under {ROOT / 'src'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace, "--out-dir", str(out_dir), "--source-id", source_id()]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s", 1)

    lines = stdout.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail(f"{args.workload} printed no result (exit {proc.returncode})", 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]

    unknown = sorted(set(metrics) - set(wanted))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}", 1)
    for name, unit in wanted.items():
        if name in metrics:
            if metrics[name]["unit"] != unit:
                fail(f"{name}: unit {metrics[name]['unit']!r}, "
                     f"BENCHMARK.json says {unit!r}", 1)
        elif args.trace == "1":
            metrics[name] = {"value": 0, "unit": unit}
            print(f"idle: {name} (layer not called by {args.workload})")
        else:
            fail(f"end-to-end metric {name} missing", 1)

    result["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
