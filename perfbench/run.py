#!/usr/bin/env python3
"""Builds the cLSM benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <ingest|serve-read|net-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds `perfbench/` (its own
Cargo package) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload with its store under `.bench_data/`,
and passes the benchmark's output through: report lines starting with
`#`, then one JSON result line. Exit status: 0 on success, 1 on a wrong
answer, 2 on a build or set-up failure, 3 on a timeout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve-read", "net-mixed")
# The benchmark itself must end well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    # Turn SIGTERM into an exception, so that the `finally` blocks below
    # stop the build or the benchmark.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be within 1..60", 2)

    # The store is built from source: without the repository's crates
    # there is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "crates", "clsm", "Cargo.toml")):
        fail(f"no cLSM sources under {ROOT}/crates; run from a repository checkout", 2)

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo runs in its own process group, so that stopping this script
    # also stops the compilers it started.
    build = subprocess.Popen(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        built = build.wait() == 0
    finally:
        if build.poll() is None:
            os.killpg(build.pid, signal.SIGKILL)
            build.wait()
    if not built:
        fail("build failed", 2)

    data = os.path.join(ROOT, ".bench_data")
    os.makedirs(data, exist_ok=True)
    store = os.path.join(data, f"{a.workload}-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--dir", store,
    ]
    if a.trace:
        cmd += ["--trace-file", os.path.join(data, f"trace-{a.workload}.json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    code = 3
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        # Also reached when a signal ends this script: never leave the
        # benchmark or its store behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(store, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
