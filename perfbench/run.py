#!/usr/bin/env python3
"""Build and run the ChainNet benchmark.

    python3 perfbench/run.py --workload pipeline|serve-gnn|serve-pool \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. Builds `chainnet-serve` from the root
workspace and the benchmark from `perfbench/` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary with the same arguments. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits 2 without a
result when the repository sources are not there to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODEL = os.path.join(ROOT, "results", "model_default_chainnet.json")


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "chainnet-serve", "--bin", "chainnet-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    needed = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "crates", "serve"), MODEL]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: repository sources missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(target_dir):
        return 2
    release = os.path.join(target_dir, "release")
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "chainnet-serve"),
        "--model", MODEL,
        "--work-dir", work_dir,
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
