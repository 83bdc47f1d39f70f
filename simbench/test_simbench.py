#!/usr/bin/env python3
"""Tests of the simulator-speed benchmark itself.

Run from the repository root:  python3 simbench/test_simbench.py

Shortened runs (--scale, --rounds) check that the seed is the only
input: the same seed gives the same simulation fingerprint in two
processes, a different seed gives a different one, and rack_kv gives
the same fingerprint at 1 and 4 scheduler threads. They also check the
output contract: every metric BENCHMARK.json names is printed with its
unit, traced and untraced rounds simulate the same thing, and the
benchmark fails without a result when the simulator sources are absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["eci_stream", "serving_net", "rack_kv"]
# Short runs: a small share of a round's operations, one or two rounds.
SCALE = {"eci_stream": 0.05, "serving_net": 0.5, "rack_kv": 0.05}


def run(workload, seed, trace=0, rounds=1, threads=None, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--rounds", str(rounds),
           "--scale", str(SCALE[workload])]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def fingerprint(proc):
    m = re.search(r"^# fingerprint (end_us=\S+ events=\d+ registry=[0-9a-f]+)",
                  proc.stdout, re.M)
    if not m:
        raise AssertionError("no fingerprint in output:\n" + proc.stdout +
                             proc.stderr)
    return m.group(1)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Fingerprint(unittest.TestCase):
    def test_same_seed_same_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 11), run(w, 11)
                self.assertEqual(a.returncode, 0, a.stderr)
                self.assertEqual(fingerprint(a), fingerprint(b))

    def test_other_seed_other_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(fingerprint(run(w, 11)),
                                    fingerprint(run(w, 12)))

    def test_rack_kv_thread_count_invariant(self):
        one = run("rack_kv", 5, threads=1)
        four = run("rack_kv", 5, threads=4)
        self.assertEqual(one.returncode, 0, one.stderr)
        self.assertEqual(fingerprint(one), fingerprint(four))


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = result(proc)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        return out["metrics"]

    def test_untraced_prints_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                got = self.check(run(w, 3), self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(got[m["name"]]["value"], 0)

    def test_traced_prints_per_layer(self):
        # Two rounds: one untraced, one traced; both must simulate the
        # same thing, or "correct" is false.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                got = self.check(run(w, 3, trace=1, rounds=2),
                                 self.spec["per_layer"])
                self.assertGreater(got["sim.events"]["value"], 0)
                self.assertGreater(got["self.sim_s"]["value"], 0)
                self.assertEqual(got["ops_failed_frac"]["value"], 0)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in self.spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "simbench", "run.py"),
             "--workload", "eci_stream", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
