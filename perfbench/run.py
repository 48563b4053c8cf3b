#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Build output
goes to stderr; the benchmark's stdout passes through unchanged, so its
last line is the result object. Exits non-zero, printing no result, if
either build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The `wcc` binary that serve_live runs as a separate process.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "wcc-bench", "--bin", "wcc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    wcc = os.path.join(release, "wcc")
    work = os.path.join(target, "perfbench-work")
    cmd = [bench, *sys.argv[1:], "--wcc", wcc, "--work", work]
    return subprocess.run(cmd, env=env, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
