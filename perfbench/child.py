"""Fresh-process probes started by run.py; not a user entry point.

    python3 perfbench/child.py setup --workload W --seed N --size full --workdir D
        Time importing bift plus generating the workload's inputs, as a
        fresh process pays it; print the seconds and the speed factor
        measured right after (see calibrate.py).

    python3 perfbench/child.py traced --workload W --seed N --size full --workdir D
        A traced warm-up pass, then one traced pass; print one JSON
        object with the per-layer metrics, the per-op report digests and
        the gate counts.  run.py starts this one with
        OPENBLAS_NUM_THREADS=1 for the single-threaded BLAS baseline.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["setup", "traced"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    workdir = Path(args.workdir)

    start = time.perf_counter()
    import runner                          # imports numpy
    cli = runner.import_bift()
    from workloads import generate
    ops, _ = generate(args.workload, args.seed, str(workdir), args.size)
    if args.role == "setup":
        seconds = time.perf_counter() - start
        from calibrate import speed_factor
        json.dump({"seconds": seconds, "speed_factor": speed_factor()}, sys.stdout)
        return 0

    from tracing import layer_metrics, traced_passes
    from envinfo import blas_threads
    run = runner.Runner(cli, workdir)
    cold, cold_passes = traced_passes(run, ops, 0.0)
    hot, hot_passes = traced_passes(run, ops, 0.0)
    metrics = layer_metrics(hot, hot_passes.factor(), cold, cold_passes.factor())
    json.dump({"metrics": metrics, "digests": run.digests,
               "attempted": run.attempted, "failures": run.failures,
               "blas_threads": blas_threads()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
