#!/usr/bin/env python3
"""Shows that the benchmark's output checks can fail.

    python3 perfbench/test_checks.py

For serve_saturated and search_ingest, a short clean run must report
"correct": true and exit 0. The same run with a flipped confidence or score
bit, a wrong label or document, or a dropped request must report
"correct": false and exit 1.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run(workload, inject=None, seconds="5"):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class OutputChecksCanFail(unittest.TestCase):
    def check_workload(self, workload):
        code, result = run(workload)
        self.assertEqual(code, 0, "clean run must pass")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for inject in ("flip_bit", "wrong_label", "drop"):
            with self.subTest(inject=inject):
                code, result = run(workload, inject)
                self.assertEqual(code, 1)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_serve_saturated(self):
        self.check_workload("serve_saturated")

    def test_search_ingest(self):
        self.check_workload("search_ingest")


if __name__ == "__main__":
    unittest.main()
