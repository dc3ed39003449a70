#!/usr/bin/env python3
"""HiDaP benchmark entry point.

    python3 hidap_bench/run.py --workload suite-place|serve-small \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark driver
(hidap_bench/hbench.exe) and the daemon it drives (bin/hidap_cli.exe)
with dune in the `bench` profile (the only one in which the driver
exists), then runs one workload in its own process, so peak RSS
belongs to that workload. The driver's last stdout line is the JSON
result; the exit code is non-zero when a correctness check failed.

HIDAP_* variables (HIDAP_JOBS, HIDAP_FAULT, HIDAP_BUDGET) are removed
from the environment, so they cannot change a workload.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("suite-place", "serve-small")
WORK = ".bench_work"  # relative, so daemon socket paths stay short
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"hidap_bench: {need} missing under {ROOT}: not a source checkout",
                  file=sys.stderr)
            return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("HIDAP_")}
    env["DUNE_CACHE"] = "disabled"  # keep build products inside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "bench",
         "./hidap_bench/hbench.exe", "./bin/hidap_cli.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("hidap_bench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join("_build", "default", "hidap_bench", "hbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join("_build", "default", "bin", "hidap_cli.exe"),
           "--work", WORK]
    sys.stdout.flush()
    # Own process group, so a timeout also takes down a daemon it started.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"hidap_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
