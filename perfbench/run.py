"""Run one workload of the smoothncp benchmark and print its result.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads: suite, large_n, analysis (see perfbench/README.md).  Each run
starts perfbench/workload.py in fresh processes: SETUP_SAMPLES - 1 times to
time set-up alone, half of them before and half after the measured run,
which times set-up once more.  setup_s is the median of those samples.
With --trace 1 the run reports the per-layer metrics of one traced pass
instead.

The last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it holds the details: environment, sample
counts, failures and every end-to-end figure.  The exit code is not 0, and
no result is printed, when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKER = Path(__file__).resolve().parent / "workload.py"
WORKLOADS = ("suite", "large_n", "analysis")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0
# One BLAS thread for every worker.  With OpenBLAS's default of two threads
# on a two-core machine, the 22 monotone:100/rational solves of the bench
# suite were bimodal: 1.1-1.3 s in some identical runs and 0.1-0.3 s in the
# rest (README.md has the counts); with one thread they never took the slow
# mode.  The pin keeps runs comparable; the default-thread behaviour itself
# is left to be studied separately.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def run_worker(args: list, started: float) -> list:
    """Run workload.py to completion; return its stdout lines."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env={**os.environ, **WORKER_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=DEADLINE_S - (perf_counter() - started),
        check=True,
    )
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    started = perf_counter()
    try:
        setup_samples = []

        def sample_setup(count):
            for _ in range(count):
                lines = run_worker([*common, "--setup-only"], started)
                setup_samples.append(json.loads(lines[-1])["setup_s"])

        if not args.trace:
            # around the measured run, so that the median spans its window
            sample_setup((SETUP_SAMPLES - 1) // 2)
        lines = run_worker([*common, "--trace", str(args.trace)], started)
        if not args.trace:
            sample_setup(SETUP_SAMPLES - 1 - (SETUP_SAMPLES - 1) // 2)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    if not args.trace:
        setup_samples.append(details["end_to_end"]["setup_s"]["value"])
        setup_s = statistics.median(setup_samples)
        details["setup_samples_s"] = setup_samples
        details["end_to_end"]["setup_s"]["value"] = setup_s
        result["metrics"]["setup_s"]["value"] = setup_s
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
