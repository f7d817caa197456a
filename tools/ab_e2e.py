#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a base revision against the current tree.

Run from the root of a checkout:

    python3 tools/ab_e2e.py --base REV --seeds 101-110 [--workdir DIR]

Both sides run the same harness: REV is exported with `git archive` into
WORKDIR/base, the working tree's tracked and unignored files into
WORKDIR/change, and the current e2ebench/ and BENCHMARK.json are copied
over both. Each tree is built by one one-op e2ebench/run.py run, which is
not measured. Then, for every workload BENCHMARK.json declares, each seed
is one pair of timed runs (`--trace 0`, the file's run_seconds), base
first on even pairs and change first on odd ones, so drift in the host's
speed falls on both sides alike.

For each workload and gated metric it prints both sides' median and
quartiles, the pairs the change won, and the change median's offset from
the base median against the metric's bound. A side whose interquartile
range exceeds the bound is flagged as too noisy to tell.

After the timed pairs, one more pair per workload runs with `--trace 1`
on the first seed, base first for the first workload and change first
for the next, alternating as the timed pairs do. For every per_layer
metric BENCHMARK.json names it prints the base value, the change value
and their difference: which layer an end-to-end move came from. One
traced pair is one sample per side, so read shares and large moves, not
small offsets.

Nothing is written inside the checkout. Exits 1 if any run fails, traced
runs included: a nonzero exit, no JSON result, a result that is not
correct, or any failed op.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = ("e2ebench", "BENCHMARK.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, **kw)


def export_rev(rev, dest):
    archive = git("archive", "--format=tar", rev, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_worktree(dest):
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):  # deleted but still in the index
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def overlay_harness(tree):
    for name in HARNESS:
        src, dst = os.path.join(ROOT, name), os.path.join(tree, name)
        if os.path.isdir(dst):
            shutil.rmtree(dst)
        if os.path.isdir(src):
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst)


def run(tree, workload, seed, seconds, ops=0, trace=0):
    """One e2ebench run; returns (result dict or None, diagnostic text)."""
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if out.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is not None and (not result.get("correct") or result.get("failed", 1)):
        result = None
    return result, (out.stdout + out.stderr)[-2000:]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="one pair per seed: a list like 101,102 or a range 101-110")
    ap.add_argument("--workdir", help="where both trees are exported and built "
                    "(default: a fresh temporary directory)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    gated = spec["end_to_end"]

    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_e2e-")
    trees = {"base": os.path.join(workdir, "base"),
             "change": os.path.join(workdir, "change")}
    for side, tree in trees.items():
        if os.path.isdir(tree):
            shutil.rmtree(tree)
        os.makedirs(tree)
        if side == "base":
            export_rev(args.base, tree)
        else:
            export_worktree(tree)
        overlay_harness(tree)
        print(f"ab_e2e: building {side} in {tree}", file=sys.stderr, flush=True)
        result, log = run(tree, workloads[0], 0, 1, ops=1)
        if result is None:
            print(f"ab_e2e: {side} smoke run failed:\n{log}", file=sys.stderr)
            return 1

    runs = {w: {"base": [], "change": []} for w in workloads}
    failed = {"base": 0, "change": 0}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            for side in order:
                result, log = run(trees[side], w, seed, seconds)
                if result is None:
                    failed[side] += 1
                    print(f"ab_e2e: {side} {w} seed {seed} FAILED:\n{log}",
                          file=sys.stderr, flush=True)
                    runs[w][side].append(None)
                    continue
                metrics = {m["name"]: result["metrics"][m["name"]]["value"]
                           for m in gated}
                runs[w][side].append(metrics)
                print(f"ab_e2e: pair {i + 1}/{len(args.seeds)} {w} {side} seed {seed}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)

    print(f"base {args.base} vs change (working tree): "
          f"{len(args.seeds)} pairs per workload, {seconds} s runs, --trace 0")
    print(f"{'workload':<9} {'metric':<15} {'base median [q1, q3]':<26} "
          f"{'change median [q1, q3]':<26} {'wins':>6} {'offset':>8}  verdict")
    for w in workloads:
        for m in gated:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(b[name], c[name]) for b, c in zip(runs[w]["base"], runs[w]["change"])
                     if b is not None and c is not None]
            if not pairs:
                print(f"{w:<9} {name:<15} no complete pair")
                continue
            base = quartiles([b for b, _ in pairs])
            change = quartiles([c for _, c in pairs])
            wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
            offset = (change[1] - base[1]) / base[1] if base[1] else 0.0
            worse = offset if lower else -offset
            spread = max((s[2] - s[0]) / s[1] if s[1] else 0.0 for s in (base, change))
            verdict = "within bound" if worse <= m["bound"] else "WORSE than bound"
            if spread > m["bound"]:
                verdict += f"; spread {spread:.0%} > bound: unresolved"
            b = f"{base[1]:.4g} [{base[0]:.4g}, {base[2]:.4g}]"
            c = f"{change[1]:.4g} [{change[0]:.4g}, {change[2]:.4g}]"
            print(f"{w:<9} {name:<15} {b:<26} {c:<26} {wins:>3}/{len(pairs):<2} "
                  f"{offset:>+8.1%}  {verdict}")
    seed = args.seeds[0]
    layers = [m["name"] for m in spec["per_layer"]]
    print(f"traced pair per workload: seed {seed}, {seconds} s runs, --trace 1")
    print(f"{'workload':<9} {'metric':<28} {'base':>11} {'change':>11} "
          f"{'delta':>11} {'delta %':>8}")
    for k, w in enumerate(workloads):
        traced = {}
        for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
            result, log = run(trees[side], w, seed, seconds, trace=1)
            if result is None:
                failed[side] += 1
                print(f"ab_e2e: traced {side} {w} seed {seed} FAILED:\n{log}",
                      file=sys.stderr, flush=True)
                continue
            traced[side] = result["metrics"]
        if len(traced) < 2:
            print(f"{w:<9} traced pair incomplete")
            continue
        for name in layers:
            b = traced["base"].get(name, {}).get("value")
            c = traced["change"].get(name, {}).get("value")
            if b is None or c is None:
                print(f"{w:<9} {name:<28} missing")
                continue
            rel = f"{(c - b) / b:+8.1%}" if b else f"{'':>8}"
            print(f"{w:<9} {name:<28} {b:>11.4g} {c:>11.4g} {c - b:>+11.4g} {rel}")
    print(f"failed runs: base {failed['base']}, change {failed['change']}")
    return 1 if failed["base"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
