#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <serve_durable|serve_volatile|design_sweep> \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (and, from
inside it, the rts_adaptd daemon) in release mode into CARGO_TARGET_DIR
(default .bench_build), then runs it with the given arguments. The last
line of standard output is the JSON result; the exit code is the
benchmark's (0 ok, 1 a correctness check failed, 2 a build, usage or
environment error).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
