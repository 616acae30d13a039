#!/usr/bin/env python3
"""Builds and runs the Fmeter end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: daemon-pipeline, store-churn, dashboard-query, syndrome-batch.
The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates from source, into $CARGO_TARGET_DIR
(default: .bench_build). Its last line of output is one JSON object with
the keys correct, attempted, failed and metrics. Scratch files (the
durable store's directory while it runs, span dumps of traced runs) go
to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The crates the benchmark builds against; without them there is
# nothing to measure.
REQUIRED = [
    "Cargo.toml",
    "crates/bench/Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/ir/Cargo.toml",
    "crates/kernel-sim/Cargo.toml",
    "crates/ml/Cargo.toml",
    "crates/trace/Cargo.toml",
    "crates/workloads/Cargo.toml",
]


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(
            "perfbench: the repository's sources are missing (%s); "
            "run from the root of a full checkout" % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "fmeter-perfbench")
    sys.stdout.flush()
    run = subprocess.run(
        [exe] + sys.argv[1:] + ["--out", os.path.join(HERE, "out")],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
