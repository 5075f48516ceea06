#!/usr/bin/env python3
"""Build and run the Apiary simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/apiarybench.exe with dune
from the sources in the checkout, runs the named workload and prints, as
the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice for half the time each: untraced, then with the benchmark's span
recorder and the engine's ticker profile on. It reports the per-layer
metrics of the traced run plus the tracing overhead between the two,
and writes the traced run's spans to .perfbench/.

The executable prints each metric by name only; the units come from
BENCHMARK.json, and a metric it does not list fails the run. A
per-layer metric of a layer the workload does not run reads 0.
host.raw_cycles_per_s, the uncalibrated rate, is per-layer and taken
from the untraced run.

Exits non-zero without printing a result when the sources, the build or
a run fail.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "apiarybench.exe")
OUT_DIR = ".perfbench"
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("not a checkout of the repository: %s is missing" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/apiarybench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        timeout=840,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
                {m["name"]: m["unit"] for m in bench["per_layer"]})
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the metric list in BENCHMARK.json: %s" % e)


def with_units(values, units, listed, fill_zero):
    """The metrics of [units] with their units. Fails on a name missing
    from [listed] (every metric BENCHMARK.json names), and on a name of
    [units] that was not reported unless [fill_zero]."""
    unknown = sorted(set(values) - listed)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    missing = [n for n in units if n not in values]
    if missing and not fill_zero:
        fail("metrics not reported: " + ", ".join(missing))
    if missing:
        print("not run on this workload, reported as 0: " + ", ".join(missing))
    return {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()}


def run_child(args, trace, seconds, spans_out=None):
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd))
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    digest = [l.split(": ")[-1] for l in lines if l.startswith("digest ")]
    return result, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = load_spec()
    listed = set(end_to_end) | set(per_layer)
    build()
    if args.trace == 0:
        result, _ = run_child(args, 0, args.seconds)
        result["metrics"] = with_units(result["metrics"], end_to_end, listed, False)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "%s-seed%d-spans.json" % (args.workload, args.seed))
        plain, plain_digest = run_child(args, 0, args.seconds / 2)
        traced, traced_digest = run_child(args, 1, args.seconds / 2, spans_out=spans)
        # Tracing must not perturb the simulation.
        same = plain_digest == traced_digest
        if not same:
            print("CHECK FAILED: trace.digest_unperturbed")
        untraced_cps = plain["metrics"]["sim_cycles_per_s"]
        traced_cps = traced["metrics"]["trace.traced_cycles_per_s"]
        metrics = dict(traced["metrics"])
        metrics["host.raw_cycles_per_s"] = plain["metrics"]["host.raw_cycles_per_s"]
        metrics["trace.untraced_cycles_per_s"] = untraced_cps
        metrics["trace.overhead_frac"] = 1.0 - traced_cps / untraced_cps
        print("tracing overhead: %.4f (untraced %.6g, traced %.6g cycles/s)"
              % (metrics["trace.overhead_frac"], untraced_cps, traced_cps))
        metrics = with_units(metrics, per_layer, listed, True)
        result = {
            "correct": plain["correct"] and traced["correct"] and same,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": (plain["failed"] + traced["failed"] if same
                       else plain["attempted"] + traced["attempted"]),
            "metrics": metrics,
        }
    for name, m in result["metrics"].items():
        print("metric %s = %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
