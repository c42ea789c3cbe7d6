#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload uts-32 --seed 19 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the runtime crates by path. This script builds it in release mode
(into $CARGO_TARGET_DIR, or perfbench/target when unset), then runs the binary
with the given arguments. Cargo's output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the binary's, or 1
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
