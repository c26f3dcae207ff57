#!/usr/bin/env python3
"""Self-test: the benchmark's reference checks catch wrong answers.

Each case copies the committed golden files, changes one fingerprint, runs
the built benchmark against the copy and expects the run to report the
mismatch: a nonzero exit, "correct": false and a failure naming the check
that caught it. A final case runs against the unchanged files and expects a
clean pass, so the checks are shown to reject wrong answers and accept
right ones. Every run's metrics must also match, by name and unit, the
list BENCHMARK.json declares for its trace mode. Run it through `python3 lpabench/run.py --selftest`, which
builds the benchmark first.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (lpabench/run.py: build_dir)

GOLDEN = os.path.join(os.path.dirname(HERE), "golden")
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BINARY = os.path.join(run.build_dir(), "lpabench")
SCRATCH = os.path.join(run.build_dir(), "selftest")


def mutate(case, kind, program, old, new):
    """Copies the golden files to a scratch dir, replacing `old` by `new`
    in the first line of `program` in <kind>.txt that contains `old`."""
    out = os.path.join(SCRATCH, case)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(GOLDEN, out)
    path = os.path.join(out, kind + ".txt")
    with open(path) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if line.startswith(program + "\t") and old in line:
            lines[i] = line.replace(old, new, 1)
            break
    else:
        raise AssertionError("no %s line of %s contains %r" % (kind, program, old))
    with open(path, "w") as f:
        f.writelines(lines)
    return out


def bench(workload, golden_dir, trace=0):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--golden-dir", golden_dir],
        capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in declared}:
        raise AssertionError("metrics differ from BENCHMARK.json: %s" % got)
    return proc.returncode, result, proc.stdout


class ReferenceCheckTest(unittest.TestCase):
    def assertCaught(self, workload, golden_dir, needle, trace=0):
        code, result, out = bench(workload, golden_dir, trace)
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0, out)
        self.assertIn(needle, out)

    def test_per_op_groundness_check(self):
        # Call patterns are not part of the GAIA oracle's output, so only the
        # per-analysis golden comparison can catch this one.
        d = mutate("calls", "groundness", "press1", "calls={(f", "calls={(t")
        self.assertCaught("prop-serial", d, "# FAIL groundness press1")

    def test_gaia_oracle_check(self):
        d = mutate("success", "groundness", "qsort", "success={(f", "success={(t")
        self.assertCaught("prop-serial", d, "# FAIL gaia qsort")

    def test_depthk_check(self):
        # Depth-k is analysed in prop-serial's traced run.
        d = mutate("depthk", "depthk", "queens", "ground=", "ground=g")
        self.assertCaught("prop-serial", d, "# FAIL depthk queens", trace=1)

    def test_strictness_check(self):
        d = mutate("strictness", "strictness", "nq", "(", "((")
        self.assertCaught("fleet-par", d, "# FAIL strictness nq")

    def test_service_answer_check(self):
        # The service compares every query's solutions with the golden
        # success sets; a changed press2 line fails the warm-up queries.
        d = mutate("service", "groundness", "press2", "success={(f", "success={(t")
        self.assertCaught("service-edit", d, ": answers ")

    def test_unchanged_golden_passes(self):
        code, result, out = bench("service-edit", GOLDEN, trace=1)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
