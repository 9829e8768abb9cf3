#!/usr/bin/env python3
"""Builds and runs bench_suite, the repository's layered benchmark.

Run from the repository root:

    python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_suite/run.py --smoke

The first run configures and builds the library, the three CLI tools and
bench_suite (Release) under $CARGO_TARGET_DIR/bench_suite, or
.bench_build/bench_suite when that variable is unset; later runs rebuild
incrementally. Build output goes to build.log there. Run outputs (configs,
dumps, checkpoints, reports, traces) go to the sibling directory "run".

The last line of standard output is the run's result:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("step_large", "cloud_job", "cluster_weak", "serve_queue")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Content hash of the sources the benchmark builds (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "bench_suite"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else ""


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"'{' '.join(cmd)}' failed; see {log_path}", 1)
    return os.path.join(build_dir, "bench_suite")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads and probes at toy size, every gate")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    benchmark_json = os.path.join(ROOT, "BENCHMARK.json")
    for need in (os.path.join(ROOT, "src", "CMakeLists.txt"),
                 os.path.join(ROOT, "tools", "mpcf-sim", "CMakeLists.txt"),
                 benchmark_json):
        if not os.path.isfile(need):
            fail(f"{need} not found: run from a full checkout of the repository")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(target, "bench_suite"))
    out = os.path.join(target, "run")
    if args.smoke:
        cmd = [binary, "--smoke", "--out", os.path.join(out, "smoke"),
               "--benchmark-json", benchmark_json]
        sys.exit(subprocess.run(cmd).returncode)

    # bench_suite checks its outputs and its metric names against
    # BENCHMARK.json, prints the result line last, and exits non-zero when a
    # check fails.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--benchmark-json", benchmark_json,
           "--source-id", source_id(), "--git-sha", git_sha()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
