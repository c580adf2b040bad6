#!/usr/bin/env python3
"""Mutation checks: break the package on purpose, one hand-made mutant at
a time, and require the tier-1 tests named for it to fail.

    python scripts/mutants.py           # every mutant, on HEAD
    python scripts/mutants.py --list    # the mutants and their tests

Each mutant replaces one piece of text, found exactly once, in one file
of a fresh ``git archive`` export of HEAD (committed files only), then
runs only its named tests there.  The unmutated export must pass
those tests first.  A mutant is killed when its tests fail; one that
survives is a finding, printed as SURVIVED.  Exit 0 when every mutant
is killed, 1 when one survives, 2 when a mutant no longer applies, its
tests fail unmutated, or pytest cannot run them.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                  # relative to the repository root
    old: str                   # must occur exactly once in ``path``
    new: str
    tests: tuple[str, ...]     # pytest node ids, at least one of which must fail


GAUGE_TESTS = (
    "tests/test_linalg.py::TestSpectralDecompose::test_gauge_passes_match_loop_oracle",
    "tests/test_linalg.py::TestSpectralDecompose::test_matches_per_block_oracle",
    "tests/test_linalg.py::TestSpectralDecompose::test_zero_first_component_matches_oracle",
)

MUTANTS = (
    Mutant("hypot-to-abs", "src/bift/linalg.py",
           "phases = peaks / np.hypot(peaks.real, peaks.imag)",
           "phases = peaks / np.abs(peaks)",
           GAUGE_TESTS),
    Mutant("drop-plus-zero", "src/bift/linalg.py",
           "cand = rows * np.conj(rows[:, :1]) + 0.0",
           "cand = rows * np.conj(rows[:, :1])",
           GAUGE_TESTS),
    Mutant("vecdot-to-gemv", "src/bift/linalg.py",
           "rest -= u * np.vecdot(u, rest)[:, None]",
           "rest -= u * (np.conj(u) @ rest.T)[:, None]",
           GAUGE_TESTS),
    Mutant("skip-right-looking-update", "src/bift/linalg.py",
           "rest -= u * np.vecdot(u, rest)[:, None]",
           "pass",
           GAUGE_TESTS),
    Mutant("unit-skip-any-scalar", "src/bift/tables.py",
           "return isinstance(factor, float) and factor == 1.0",
           "return isinstance(factor, float)",
           ("tests/test_theorems.py::TestExpectationBits",)),
    Mutant("transposed-reverse-kernel", "src/bift/tables.py",
           "reverse_kernel=kernel,",
           "reverse_kernel=kernel.transpose(2, 3, 0, 1),",
           ("tests/test_theorems.py::TestDetailedFT",
            "tests/test_theorems.py::TestIntegralFT")),
    Mutant("gamma-unrestricted", "src/bift/tables.py",
           "return self.expectation(self.restricted(self.reverse))",
           "return self.expectation(self.reverse)",
           ("tests/test_tables.py::TestReverseTable",
            "tests/test_theorems.py::TestIntegralFT")),
    Mutant("within-strict", "src/bift/cli.py",
           "return cls(name, value, value <= limit, detail)",
           "return cls(name, value, value < limit, detail)",
           ("tests/test_cli.py::TestVerify::test_residual_at_the_limit_passes",)),
)


def export(dest: Path) -> None:
    """The committed files of HEAD under ``dest``, with no bytecode."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
                             capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def apply(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.name}: {mutant.path} holds its text {count} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True,
                          timeout=1800).returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = ap.parse_args()
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:28s} {m.path}  {' '.join(m.tests)}")
        return 0

    status = 0
    with tempfile.TemporaryDirectory(prefix="bift-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        export(base)
        if run_tests(base, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))) != 0:
            print("error: the named tests fail on unmutated HEAD", file=sys.stderr)
            return 2
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            export(tree)
            try:
                apply(mutant, tree)
            except LookupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 2
                continue
            code = run_tests(tree, mutant.tests)
            if code == 1:
                print(f"killed   {mutant.name}")
            elif code == 0:
                print(f"SURVIVED {mutant.name}")
                status = max(status, 1)
            else:
                print(f"error: {mutant.name}: pytest exited {code}", file=sys.stderr)
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
