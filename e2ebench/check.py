#!/usr/bin/env python3
"""Correctness and determinism checks for the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/check.py

For every workload, with a fixed op count instead of a timed window:
  * two traced runs with one seed pass every check and report identical
    per-op counts (pairings, final exponentiations, cache hit ratios,
    multi-exp points, bisections, wire bytes, attempts, pool tasks);
  * a traced run with a second seed passes every check;
  * an untraced run passes every check;
  * the untraced run reports exactly the end-to-end metrics BENCHMARK.json
    names, and the traced runs exactly its per-layer metrics;
  * honest traffic shows zero batch bisections.
The benchmark binary itself fails a run on any failed op, any client.rejected.*
count or any bisection, and a traced serve run whose daemon thread is not
busier than every generator thread. Exits 1 if any check here fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Enough ops to cross an epoch boundary (release), a pass boundary
# (catchup: 72 pages per pass) and several rounds (beacon).
OPS = {"release": 24, "catchup": 80, "beacon": 6, "serve": 3000}
DETERMINISTIC = (
    "bls12.pairings_per_op", "bls12.finalexp_per_op", "bls12.lines_hit_ratio",
    "core.tags_hit_ratio", "ec.multiexp_points_per_op",
    "core.key_checks_hit_ratio", "core.pair_bases_hit_ratio",
    "core.combs_hit_ratio", "core.batch_bisections_per_op",
    "client.wire_bytes_per_op", "client.attempts_per_op",
    "common.pool_tasks_per_op",
)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--ops", str(OPS[workload])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result, out.stdout + out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in OPS:
        runs = {
            "seed 1": run(workload, 1, 1),
            "seed 1 again": run(workload, 1, 1),
            "seed 2": run(workload, 2, 1),
            "untraced seed 3": run(workload, 3, 0),
        }
        for label, (code, res, log) in runs.items():
            passed = (code == 0 and res is not None and res["correct"] is True
                      and res["failed"] == 0 and res["attempted"] > 0)
            expect(passed, f"{workload} {label}: every op checked and correct")
            if not passed:
                print(log[-2000:])
        a, b = runs["seed 1"][1], runs["seed 1 again"][1]
        d = runs["untraced seed 3"][1]
        if a is None or b is None or d is None:
            continue
        expect(set(d["metrics"]) == e2e_names,
               f"{workload}: untraced metrics are the end-to-end set")
        expect(set(a["metrics"]) == layer_names,
               f"{workload}: traced metrics are the per-layer set")
        expect(a["attempted"] == b["attempted"],
               f"{workload}: same seed, same attempted count")
        for name in DETERMINISTIC:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            expect(va == vb, f"{workload}: same seed, same {name} ({va} vs {vb})")
        for label in ("seed 1", "seed 2"):
            res = runs[label][1]
            if res is not None:
                expect(res["metrics"]["core.batch_bisections_per_op"]["value"] == 0,
                       f"{workload} {label}: zero bisections")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
