"""Closed-loop op runner with the per-op correctness gate.

One client in one process: the next op starts when the previous one
returns.  An op is one ``bift.cli.main(argv)`` call, from argv to report
written to a file; the clock covers exactly that call.  The gate (read
the report back, hash it, check it) runs after the clock stops.

An op fails when its exit status is not 0, when a repeat of it in the
same run writes different bytes, or when its first report does not hold
up (a failed check, a reference residual above tolerance, missing dense
tables on an emit op).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibrate import SpeedGauge
from workloads import REFERENCE_TOL, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_bift():
    """Import bift from the checkout's own ``src``, never from an
    installed copy; exit without a result when it is not there."""
    if not (SRC / "bift" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no bift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bift.cli
    if Path(bift.cli.__file__).resolve().parent != SRC / "bift":
        raise SystemExit(f"perfbench: imported bift from {bift.cli.__file__}, not {SRC}")
    return bift.cli


def bift_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


@dataclass
class Passes:
    """Timed passes: raw op wall times, the same at reference speed
    (see calibrate.py), ops that passed the gate, whole passes run."""

    raw: list[float]
    scaled: list[float]
    passed: int
    count: int

    def systems_per_s(self, scaled: bool = True) -> float:
        return self.passed / sum(self.scaled if scaled else self.raw)

    def factor(self) -> float:
        """Median reference-speed factor over the ops."""
        return statistics.median(s / r for s, r in zip(self.scaled, self.raw))


class Runner:
    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.gauge = SpeedGauge()
        self.out = workdir / "report.out"
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def op(self, op: Op) -> tuple[float, float, bool]:
        """Run one op; (start, wall seconds, passed the gate)."""
        argv = list(op.argv) + ["--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            # Looked up per call so that installed trace wrappers apply.
            status = self.cli.main(argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed op
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        reason = self._gate(op, status)
        if reason:
            self.failures.append((op.label, reason))
        return t0, elapsed, not reason

    def _gate(self, op: Op, status) -> str:
        if status != 0:
            return f"exit status {status!r}"
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(op.label)
        if first is None:
            self.digests[op.label] = digest
            return content_problem(op, data)
        return "" if first == digest else "report bytes differ from the first run of this op"

    def run_passes(self, ops: list[Op], seconds: float) -> Passes:
        """Whole passes over ``ops`` until ``seconds`` have elapsed (at
        least one), with a speed probe between ops."""
        starts, raw, passed, count = [], [], 0, 0
        begin = time.perf_counter()
        while count == 0 or time.perf_counter() - begin < seconds:
            for op in ops:
                self.gauge.maybe_sample()
                t0, elapsed, ok = self.op(op)
                starts.append(t0)
                raw.append(elapsed)
                passed += ok
            count += 1
        self.gauge.maybe_sample()
        return Passes(raw, self.gauge.rescale(raw, starts), passed, count)

    def outputs_digest(self, ops: list[Op]) -> str:
        h = hashlib.sha256()
        for op in ops:
            h.update(f"{op.label}={self.digests.get(op.label)}\n".encode())
        return h.hexdigest()


def content_problem(op: Op, data: bytes) -> str:
    """Checks on the first report of an op; later repeats must match it
    byte for byte."""
    if op.kind == "verify":
        last = data.decode().rstrip("\n").rsplit("\n", 1)[-1]
        return "" if last.startswith("PASS overall") else f"verify summary: {last!r}"
    doc = json.loads(data)
    if doc.get("passed") is not True:
        return "report says passed != true"
    bad = {k: v for k, v in doc.get("reference_residuals", {}).items()
           if not v <= REFERENCE_TOL}
    if bad:
        return f"reference residuals above {REFERENCE_TOL}: {bad}"
    if op.emit_dims is not None:
        d_a, d_b, d_r = op.emit_dims
        d_m = d_a * d_b
        want = (d_m, d_a, d_b, d_m, d_a, d_b, d_r, d_r)
        tables = doc.get("tables") or {}
        for key in ("forward", "reverse"):
            if np.shape(tables.get(key)) != want:
                return f"emitted {key} table does not have shape {want}"
    return ""


def negative_control(op: Op, workdir: Path) -> str:
    """Run a ``--corrupt-reverse`` verify through the command-line entry
    point in a fresh process; '' when it exits 1 with the detailed check
    failing, else the reason it counts as a failed op."""
    out = workdir / "negative.out"
    proc = subprocess.run([sys.executable, "-m", "bift.cli", *op.argv, "--out", str(out)],
                          cwd=ROOT, env=bift_env(), capture_output=True, timeout=120)
    if proc.returncode != 1:
        return f"negative control exited {proc.returncode}, expected 1"
    text = out.read_text() if out.exists() else ""
    if "FAIL detailed_ft" not in text:
        return "negative control did not fail the detailed check"
    return ""
