#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload release|catchup|beacon|serve \
        --seed N --seconds S --trace 0|1 [--ops N]

The e2e_bench binary and the src/ libraries it links are compiled with CMake into
.bench_build/ at the checkout root; the first run builds, later runs only
confirm the build is current. Build output goes to stderr. The binary's
report goes to stdout and its last line is the JSON result. The work pool
is pinned (TRE_POOL_THREADS) so that client, daemon and pool threads stay
within nproc. A traced run (--trace 1) also writes its spans to
.bench_build/spans-<workload>-<seed>.tsv.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("release", "catchup", "beacon", "serve")
# No pool workers: parallel_for runs on the calling thread, so a workload's
# threads are exactly its client/generator and daemon threads.
POOL_THREADS = "0"
RUN_TIMEOUT_S = 170


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def source_rev():
    """The git revision when ROOT is a git work tree, else a digest of src/."""
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) == \
                os.path.realpath(ROOT):
            return git("rev-parse", "--short=12", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--ops", type=int, default=0,
                    help="fixed op count instead of a timed window")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0 or args.ops < 0:
        ap.error("--seconds must be >= 1; --seed and --ops must be >= 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev()]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.tsv")]
    env = dict(os.environ, TRE_POOL_THREADS=POOL_THREADS)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: e2e_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
