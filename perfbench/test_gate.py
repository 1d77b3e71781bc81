#!/usr/bin/env python3
"""Negative control for the benchmark's correctness gate.

    python3 perfbench/test_gate.py

Runs ug2d-1k (one served version) and ag3d-publish (a new version every
few hundred milliseconds) for a couple of seconds each. A clean run
must pass with zero failed frames; a run in which the driver flips one
bit of one wire answer must exit non-zero and report correct=false with
exactly that one frame failed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GATES = ("ug2d-1k", "ag3d-publish")


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().split("\n")[-1]
    return proc.returncode, json.loads(last)


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        for workload in GATES:
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_one_corrupted_answer_fails_the_run(self):
        for workload in GATES:
            with self.subTest(workload=workload):
                code, result = run(workload, "--inject-corrupt-answer")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
