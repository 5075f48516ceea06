#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the repository root)

Checks BENCHMARK.json against the benchmark's naming and size rules,
smoke-runs every workload traced and untraced with --seconds 0 (the
minimum of three full rounds; every named metric present with its unit,
every correctness check passing), and checks determinism: two runs of
one seed print the same digest, and rack-kv-par's digest equals
rack-kv's.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d failed:\n%s%s"
                             % (workload, seed, trace, proc.stdout, proc.stderr))
    lines = proc.stdout.splitlines()
    digest = next(l.split(": ")[-1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest, proc.stdout


class Spec(unittest.TestCase):
    def test_keys_and_sizes(self):
        b = bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_units_bounds(self):
        b = bench()
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"] + b["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))


class Smoke(unittest.TestCase):
    def check(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload(self):
        b = bench()
        for w in b["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _, out = run(w["name"], 5, 0)
                self.check(result, b["end_to_end"])
                for m in b["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                self.assertNotIn("CHECK FAILED", out)
                result, _, out = run(w["name"], 5, 1)
                self.check(result, b["per_layer"])
                self.assertNotIn("CHECK FAILED", out)
                self.assertEqual(result["metrics"]["accel.kv.corruptions"]["value"], 0)
                # The layers each workload exists to exercise report work.
                busy = (["noc.flits_routed"] if w["name"] == "noc-saturate"
                        else ["accel.kv.gets", "net.switch.frames_forwarded"])
                if w["name"] == "rack-ops":
                    busy += ["obs.agent.sent_batches", "obs.span.count"]
                for name in busy:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)


class Determinism(unittest.TestCase):
    def test_same_seed_same_digest(self):
        _, d1, _ = run("rack-kv", 9, 0)
        _, d2, _ = run("rack-kv", 9, 0)
        self.assertEqual(d1, d2)
        _, d3, _ = run("rack-kv", 10, 0)
        self.assertNotEqual(d1, d3)

    def test_par_matches_seq(self):
        _, seq, _ = run("rack-kv", 9, 0)
        _, par, _ = run("rack-kv-par", 9, 0)
        self.assertEqual(seq, par)


if __name__ == "__main__":
    unittest.main()
