"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload with and without tracing, and checks that every
metric BENCHMARK.json names is printed with its unit, that the negative
controls are run and counted, that the seed changes the inputs, and that
the benchmark refuses to run without the bift sources.  Temporary files
go under perfbench/out/, like the benchmark's own.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import runner  # noqa: E402
from workloads import WORKLOADS, Op, generate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_tiny(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture
def scratch():
    runner.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=runner.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    detail, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in declared)
        # warm-up pass + timed ops + the two negative controls
        assert result["attempted"] == (detail["ops_per_pass"] + detail["latency_samples"]
                                       + len(detail["negative_controls"]))
    assert len(detail["negative_controls"]) == 2


def test_negative_control_counts_a_clean_exit_as_failed(scratch):
    _, negatives = generate("dense-verify", 1, str(scratch), "tiny")
    assert runner.negative_control(negatives[0], scratch) == ""
    clean = negatives[0].argv[:-1]
    assert clean[-1] != "--corrupt-reverse"
    reason = runner.negative_control(Op("clean", clean, "verify"), scratch)
    assert "exited 0" in reason


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload, scratch):
    def inputs(seed, sub):
        workdir = scratch / sub
        workdir.mkdir()
        ops, negatives = generate(workload, seed, str(workdir), "tiny")
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        argv = [tuple(a.replace(str(workdir), "") for a in op.argv) for op in ops + negatives]
        return argv, files

    assert inputs(1, "a") == inputs(1, "b")
    assert inputs(1, "c") != inputs(2, "d")


def test_seed_changes_outputs():
    first, _ = run_tiny("many-small", 0, seed=1)
    second, _ = run_tiny("many-small", 0, seed=2)
    assert first["outputs_sha256"] != second["outputs_sha256"]


def test_refuses_to_run_without_sources(scratch):
    (scratch / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    for path in HERE.glob("*.py"):
        shutil.copy(path, scratch / "perfbench")
    proc = bench("--workload", "many-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
