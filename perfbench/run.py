#!/usr/bin/env python3
"""bift benchmark: end-to-end verify/run cost on three workloads, and
per-layer costs from a separate traced run.

    python3 perfbench/run.py --workload dense-verify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; bift is imported from its ``src``.
Load is a closed loop from one process and one client.  A run generates
the workload's ops from ``--seed``, runs one warm-up pass that is not
timed, then whole timed passes until ``--seconds`` have elapsed, and
last runs the two negative controls.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics: it
traces the warm-up pass, follows the untraced timed passes with traced
passes of the same length, and adds a traced child process with
single-threaded BLAS.  The last line of stdout is the result object;
the line before it holds the environment record, sample counts, output
digests and any failures, which are also written under perfbench/out/.
See perfbench/NOTES.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import runner
from envinfo import environment
from tracing import layer_metrics, traced_passes
from workloads import WORKLOADS, generate

SETUP_PROBES = 7
# Per-layer metrics of the single-threaded-BLAS child that are reported.
BLAS1_KEYS = ("trace.op_s", "tables.spectra_self_s", "tables.spectra_cold_self_s",
              "linalg.self_s", "tables.dense_build_s", "theorems.evaluate_self_s",
              "functionals.average_s", "cli.invariant_checks_s", "reportio.dumps_s")
E2E_UNITS = {"setup_s": "s", "systems_per_s": "1/s", "latency_ms_p50": "ms",
             "latency_ms_p90": "ms", "peak_rss_mib": "MiB", "passed_frac": "ratio"}
LAYER_UNITS = {"_s": "s", "_frac": "ratio", "_mib_computed": "MiB", "calls": "count",
               "_entries": "count", "bytes_out": "byte"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def child(role: str, args, workdir: Path, env_extra=None) -> str:
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), role,
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--workdir", str(workdir)]
    proc = subprocess.run(cmd, cwd=runner.ROOT, env=runner.bift_env(env_extra),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} child failed:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(args, workdir: Path) -> list[float]:
    """Import + input generation in fresh processes, at reference speed;
    the first probe fills the bytecode and page caches and is not
    counted."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        got = json.loads(child("setup", args, probe_dir))
        samples.append(got["seconds"] * got["speed_factor"])
        shutil.rmtree(probe_dir)
    return samples[1:]


def latency_summary(latencies: list[float]) -> dict:
    # Inclusive deciles: with dense-verify's 18 samples the exclusive
    # method would interpolate between the two largest.
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {"latency_ms_p50": statistics.median(latencies) * 1e3,
            "latency_ms_p90": p90 * 1e3,
            "samples": len(latencies),
            "samples_beyond_p90": sum(x > p90 for x in latencies)}


def main() -> int:
    ap = argparse.ArgumentParser(description="bift benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the smoke test's inputs")
    args = ap.parse_args()

    cli = runner.import_bift()
    runner.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=runner.OUT))
    try:
        detail, metrics, run = measure(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["environment"] = environment(runner.ROOT, runner.SRC, args.seed)
    detail["failures"] = run.failures
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runner.OUT / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def measure(cli, args, workdir: Path):
    setup = setup_seconds(args, workdir) if args.trace == 0 else []
    ops, negatives = generate(args.workload, args.seed, str(workdir), args.size)
    run = runner.Runner(cli, workdir)
    if args.trace == 0:
        run.run_passes(ops, 0.0)                           # warm-up, untimed
        timed = run.run_passes(ops, args.seconds)
    else:
        cold, cold_passes = traced_passes(run, ops, 0.0)
        timed = run.run_passes(ops, args.seconds / 2)
    summary = latency_summary(timed.scaled)
    raw = latency_summary(timed.raw)
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "ops_per_pass": len(ops), "timed_passes": timed.count,
              "latency_samples": summary["samples"],
              "samples_beyond_p90": summary["samples_beyond_p90"],
              "speed_probes": len(run.gauge.times),
              "raw_latency_ms_p50": raw["latency_ms_p50"],
              "raw_latency_ms_p90": raw["latency_ms_p90"],
              "raw_systems_per_s": timed.systems_per_s(scaled=False),
              "outputs_sha256": run.outputs_digest(ops)}

    if args.trace == 0:
        metrics = {"setup_s": statistics.median(setup),
                   "systems_per_s": timed.systems_per_s(),
                   "latency_ms_p50": summary["latency_ms_p50"],
                   "latency_ms_p90": summary["latency_ms_p90"],
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        detail["setup_samples_s"] = setup
    else:
        tracer, traced = traced_passes(run, ops, args.seconds / 2)
        tracer.write(str(runner.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, traced.factor(), cold, cold_passes.factor())
        metrics["trace.overhead_frac"] = timed.systems_per_s() / traced.systems_per_s() - 1.0
        metrics.update(blas1_metrics(run, args, workdir, detail))

    for neg in negatives:
        run.attempted += 1
        reason = runner.negative_control(neg, workdir)
        if reason:
            run.failures.append((neg.label, reason))
    detail["negative_controls"] = [n.label for n in negatives]
    if args.trace == 0:
        metrics["passed_frac"] = 1.0 - len(run.failures) / run.attempted
    return detail, metrics, run


def blas1_metrics(run, args, workdir: Path, detail: dict) -> dict:
    """One traced pass in a fresh process with OPENBLAS_NUM_THREADS=1."""
    blas1_dir = workdir / "blas1"
    blas1_dir.mkdir()
    got = json.loads(child("traced", args, blas1_dir, {"OPENBLAS_NUM_THREADS": "1"}))
    run.attempted += got["attempted"]
    run.failures += [tuple(f) for f in got["failures"]]
    detail["blas1_threads"] = got["blas_threads"]
    # Bytes are compared across thread counts but not gated on: the
    # byte-identity promise is for one configuration and environment.
    detail["blas1_digest_mismatches"] = sorted(
        label for label, d in got["digests"].items() if run.digests.get(label) != d)
    return {f"blas1.{key}": got["metrics"][key] for key in BLAS1_KEYS}


if __name__ == "__main__":
    sys.exit(main())
