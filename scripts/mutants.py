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
)

MUTANTS = (
    Mutant("gauge-fix-singletons", "src/bift/linalg.py",
           "if j > i + 1:",
           "if j > i:",
           GAUGE_TESTS),
    Mutant("block-basis-skipped", "src/bift/linalg.py",
           "vecs[:, i:j] = _canonical_block_basis(vecs[:, i:j])",
           "pass",
           GAUGE_TESTS),
    Mutant("vecdot-to-gemv", "src/bift/linalg.py",
           "rest -= u * np.vecdot(u, rest)[:, None]",
           "rest -= u * (np.conj(u) @ rest.T)[:, None]",
           GAUGE_TESTS),
    Mutant("skip-right-looking-update", "src/bift/linalg.py",
           "rest -= u * np.vecdot(u, rest)[:, None]",
           "pass",
           GAUGE_TESTS),
    Mutant("transposed-reverse-kernel", "src/bift/tables.py",
           "reverse_kernel=kernel,",
           "reverse_kernel=kernel.transpose(1, 0, 3, 2),",
           ("tests/test_theorems.py::TestDetailedFT",
            "tests/test_theorems.py::TestIntegralFT")),
    Mutant("support-cut-relative", "src/bift/tables.py",
           "(p_m > 0.0)[:, None, None]",
           "(p_m > 1e-12 * p_m.max())[:, None, None]",
           ("tests/test_cli.py::TestVerify::test_werner_near_pure_passes",)),
    Mutant("final-level-unrestricted", "src/bift/tables.py",
           " & (p_mf > 0.0)[None, :, None]",
           "",
           ("tests/test_theorems.py::TestIntegralFT::"
            "test_forward_weight_on_an_empty_final_level_leaves_the_support",
            "tests/test_theorems.py::TestClassicalReduction::test_steep_reservoir_classical_ft")),
    Mutant("noise-floor-dropped", "src/bift/tables.py",
           "return np.where(p > rounding_floor(p, dim), p, 0.0)",
           "return p",
           ("tests/test_theorems.py::TestIntegralFT::"
            "test_noise_eigenvalue_stays_out_of_the_support",)),
    Mutant("degeneracy-cut-absolute", "src/bift/linalg.py",
           "n, floor = len(arr), rounding_floor(arr, len(arr))",
           "n, floor = len(arr), 1e-10",
           ("tests/test_theorems.py::TestFullRankDraws::test_every_check_passes",)),
    Mutant("degeneracy-cut-exact", "src/bift/linalg.py",
           "n, floor = len(arr), rounding_floor(arr, len(arr))",
           "n, floor = len(arr), 0.0",
           ("tests/test_linalg.py::TestSpectralDecompose::test_gauge_passes_match_loop_oracle",)),
    Mutant("final-state-blocks-r-swapped", "src/bift/tables.py",
           "u.reshape(d_m, d_r, d_m, d_r).transpose(1, 3, 0, 2)",
           "u.reshape(d_m, d_r, d_m, d_r).transpose(3, 1, 0, 2)",
           ("tests/test_tables.py::TestOperatorOracle::test_tables_and_final_state",
            "tests/test_tables.py::TestOperatorOracle::test_tables_at_50_digits")),
    Mutant("kernel-blocks-r-swapped", "src/bift/tables.py",
           "return k.transpose(3, 0, 2, 1)",
           "return k.transpose(3, 0, 1, 2)",
           ("tests/test_tables.py::TestOperatorOracle::test_tables_and_final_state",
            "tests/test_tables.py::TestOperatorOracle::test_tables_at_50_digits")),
    Mutant("gamma-unrestricted", "src/bift/theorems.py",
           "gamma = spectra.expectation(reverse)",
           "gamma = spectra.expectation(spectra.block_sums(reverse=True))",
           ("tests/test_tables.py::TestReverseTable",
            "tests/test_theorems.py::TestIntegralFT")),
    Mutant("integral-unrestricted", "src/bift/theorems.py",
           "int_lhs = spectra.expectation(forward, *ft_factors(spectra))",
           "int_lhs = spectra.expectation(spectra.block_sums(pair=spectra.exp_beta_q), "
           "*ft_factors(spectra))",
           ("tests/test_theorems.py::TestIntegralFT",)),
    Mutant("integral-weight-on-table", "src/bift/theorems.py",
           "forward = spectra.block_sums(pair=spectra.exp_beta_q, restricted=True)",
           "forward = spectra.block_sums()._replace(initial=1.0, sums=np.where("
           "spectra.support, spectra.two_point() * spectra.exp_beta_q, 0.0).sum(axis=(2, 3)))",
           ("tests/test_theorems.py::TestFullRankDraws::test_every_check_passes",)),
    Mutant("reverse-rhs-unrestricted", "src/bift/theorems.py",
           "rev_rhs = spectra.expectation(reverse, *info)",
           "rev_rhs = spectra.expectation(spectra.block_sums(reverse=True), *info)",
           ("tests/test_theorems.py::TestReverseAveragedFT",)),
    Mutant("reverse-lhs-unrestricted", "src/bift/theorems.py",
           "rev_lhs = spectra.expectation(forward, *local_factors(spectra))",
           "rev_lhs = spectra.expectation(spectra.block_sums(pair=spectra.exp_beta_q), "
           "*local_factors(spectra))",
           ("tests/test_theorems.py::TestIntegralFT::"
            "test_forward_weight_on_an_empty_final_level_leaves_the_support",)),
    Mutant("classical-unrestricted", "src/bift/theorems.py",
           "classical_lhs = spectra.expectation(forward, *classical_factors(spectra))",
           "classical_lhs = spectra.expectation(spectra.block_sums(pair=spectra.exp_beta_q), "
           "*classical_factors(spectra))",
           ("tests/test_theorems.py::TestClassicalReduction",)),
    Mutant("corrupt-reverse-axes", "src/bift/theorems.py",
           "kernel[m, n, r, s] *= 1.5",
           "kernel[m, r, n, s] *= 1.5",
           ("tests/test_theorems.py::TestEdgesAndControls::"
            "test_random_corruption_scales_one_reverse_kernel_entry",)),
    Mutant("within-strict", "src/bift/theorems.py",
           "return cls(name, value, value <= limit, detail)",
           "return cls(name, value, value < limit, detail)",
           ("tests/test_cli.py::TestVerify::test_residual_at_the_limit_passes",
            "tests/test_cli.py::TestVerify::test_largest_deviation_of_an_array_pair_decides",
            "tests/test_theorems.py::TestClassicalReduction::test_held_to_equality_tolerance")),
    Mutant("bound-judge-strict", "src/bift/theorems.py",
           "rec.slack >= -tol.bound",
           "rec.slack > -tol.bound",
           ("tests/test_theorems.py::TestBounds::test_upper_held_to_bound_tolerance",)),
    Mutant("drop-two-product-error", "src/bift/reportio.py",
           "    err -= t\n",
           "",
           ("tests/test_cli.py::TestReportIO::test_format_floats_is_format_float",)),
    Mutant("skip-slow-fallback", "src/bift/reportio.py",
           "if slow.size:",
           "if False:",
           ("tests/test_cli.py::TestReportIO::test_array_emits_like_its_list",)),
    Mutant("drop-rounding-guard", "src/bift/reportio.py",
           " & (np.abs(frac - 0.5) > 1e-6)",
           "",
           ("tests/test_cli.py::TestReportIO::test_format_floats_is_format_float",)),
    Mutant("carry-bound-at-1e15", "src/bift/reportio.py",
           "(whole < 1e15 - 1)",
           "(whole < 1e15)",
           ("tests/test_cli.py::TestReportIO::test_format_floats_is_format_float",)),
    Mutant("bool-written-as-int", "src/bift/reportio.py",
           'bool: {True: "true", False: "false"}.__getitem__,',
           "bool: int.__repr__,",
           ("tests/test_cli.py::test_golden_bytes",
            "tests/test_cli.py::TestReportIO::test_dump_matches_oracle")),
    Mutant("record-plan-sorted", "src/bift/reportio.py",
           "names = [f.name for f in dataclasses.fields(obj)]",
           "names = sorted(f.name for f in dataclasses.fields(obj))",
           ("tests/test_cli.py::TestReportIO::test_record_emits_like_asdict",
            "tests/test_cli.py::test_golden_bytes")),
    Mutant("float-text-keeps-negative-zero", "src/bift/reportio.py",
           '"%.15g" % (x + 0.0)',
           '"%.15g" % x',
           ("tests/test_cli.py::TestReportIO::test_dump_matches_oracle",
            "tests/test_cli.py::TestReportIO::test_float_format")),
    Mutant("any-dtype-to-float-writer", "src/bift/reportio.py",
           "obj.dtype == np.float64 and ",
           "",
           ("tests/test_cli.py::TestReportIO::test_other_values_raise_type_error",)),
    Mutant("chunk-offset-dropped", "src/bift/reportio.py",
           "ends[(block - 1 - start) % block::block]",
           "ends[(block - 1) % block::block]",
           ("tests/test_cli.py::TestReportIO::test_array_emits_like_its_list_in_chunks",)),
    Mutant("grid-count-bound", "src/bift/cli.py",
           "if not 1 <= count <= MAX_GRID_POINTS:",
           "if not 1 <= count < MAX_GRID_POINTS:",
           ("tests/test_cli.py::TestReportIO::test_parse_grid",)),
    Mutant("size-guard-unsquared", "src/bift/cli.py",
           "n = math.prod((d_a * d_b, d_a, d_b, d_r)) ** 2",
           "n = math.prod((d_a * d_b, d_a, d_b, d_r))",
           ("tests/test_tables.py::TestGuardsAndOverrides::test_size_guard",)),
    Mutant("system-unknown-keys-pass", "src/bift/cli.py",
           'raise BiftError(f"{where}: unknown keys {sorted(unknown)}")',
           "pass",
           ("tests/test_cli.py::TestExitCodes::test_error_line_names_the_input",)),
    Mutant("scenario-name-not-read", "src/bift/cli.py",
           'builder_keys(SCENARIOS[name]) | {"scenario"}',
           "builder_keys(SCENARIOS[name])",
           ("tests/test_cli.py::test_scenario_table_names_every_system",)),
    Mutant("scenario-before-system", "src/bift/cli.py",
           'if "system" in cfg:\n        return "an explicit system"',
           'if "system" in cfg and "scenario" not in cfg:\n        return "an explicit system"',
           ("tests/test_cli.py::TestExitCodes::test_error_line_names_the_input",)),
    Mutant("explicit-state-at-default-tol", "src/bift/cli.py",
           "density_operator(rho, tol)",
           "density_operator(rho)",
           ("tests/test_cli.py::TestConfigs::test_trace_tolerance_reaches_state_check",)),
    Mutant("scenario-list-restated", "src/bift/cli.py",
           "expected {', '.join(SCENARIOS)}, or an explicit system",
           "expected werner, counterexample, random, or an explicit system",
           ("tests/test_cli.py::test_scenario_table_names_every_system",)),
    Mutant("sweepable-ignores-p", "src/bift/cli.py",
           'for name, b in SCENARIOS.items() if "p" in builder_keys(b)]',
           "for name, b in SCENARIOS.items()]",
           ("tests/test_cli.py::TestExitCodes::test_sweep_needs_p",
            "tests/test_cli.py::test_scenario_table_names_every_system")),
    Mutant("emit-not-contiguous", "src/bift/cli.py",
           "return (np.ascontiguousarray(table)[:, None, None, :, None, None, :, :]",
           "return (table[:, None, None, :, None, None, :, :]",
           ("tests/test_tables.py::TestForwardTable::"
            "test_dense_is_c_contiguous_broadcast_product",)),
    Mutant("ln-column-not-logged", "src/bift/scenarios.py",
           'return ln_or_neg_inf(report_value(report, key[len("ln_"):]))',
           'return report_value(report, key[len("ln_"):])',
           ("tests/test_scenarios.py::TestWernerScenario::test_report_value_keys",
            "tests/test_cli.py::TestSweep::test_single_point_matches_run")),
    Mutant("unset-flags-override-config", "src/bift/cli.py",
           "if key in CONFIG_KEYS and value is not None}",
           "if key in CONFIG_KEYS}",
           ("tests/test_cli.py::TestSweep::test_p_forms_agree",)),
    Mutant("tolerance-flag-replaces", "src/bift/cli.py",
           'flags["tolerance"] = {**cfg["tolerance"], "equality": tol, "bound": tol}',
           'flags["tolerance"] = tol',
           ("tests/test_cli.py::TestConfigs::test_tolerance_flag",)),
    Mutant("tolerance-flag-unchecked", "src/bift/cli.py",
           '        _number(tol, "tolerance", positive=False)   # named as the flag, not as a field\n',
           "",
           ("tests/test_cli.py::TestExitCodes::test_error_line_names_the_input",)),
    Mutant("worst-order-unreversed", "src/bift/theorems.py",
           "first = np.lexsort(order[::-1])[0]",
           "first = np.lexsort(order)[0]",
           ("tests/test_theorems.py::TestFactoredExtremes::test_detailed_matches_brute_force",)),
    Mutant("local-from-p_a-twice", "src/bift/tables.py",
           "or_one(self.p_a)[:, None] * or_one(self.p_b)[None, :]",
           "or_one(self.p_a)[:, None] * or_one(self.p_a)[None, :]",
           ("tests/test_functionals.py::TestTupleFunctionals::test_exponent_composition",)),
    Mutant("heat-exponent-unchecked", "src/bift/tables.py",
           "if not np.all(np.abs(beta_q) <= MAX_HEAT_EXPONENT):",
           "if False:",
           ("tests/test_tables.py::TestGuardsAndOverrides::"
            "test_unitary_route_refuses_overflowing_heat_exponents",
            "tests/test_cli.py::TestExitCodes::"
            "test_error_line_names_the_input[heat-exponent-past-limit]",
            "tests/test_cli.py::TestExitCodes::"
            "test_error_line_names_the_input[heat-exponent-difference-overflows]")),
    Mutant("analytic-sums-exact", "src/bift/tables.py",
           "if axes is None and abs(total - 1.0) > DEFAULT_TOL.equality:",
           "if axes is None and abs(total - 1.0) > 0.0:",
           ("tests/test_cli.py::TestExitCodes::test_werner_grid_at_zero_tolerance_runs",)),
    Mutant("derived-state-validated", "src/bift/tables.py",
           "fin = spectral_decompose(rho_ab_final)",
           "from .linalg import density_operator; "
           "fin = density_operator(rho_ab_final, tol).decomposition",
           ("tests/test_cli.py::TestExitCodes::test_only_the_input_state_is_judged",)),
    Mutant("hermiticity-check-skipped", "src/bift/linalg.py",
           "if dev > tol.hermiticity:",
           "if False:",
           ("tests/test_linalg.py::TestDensityOperator::test_rejects_non_hermitian",)),
    Mutant("counterexample-propagator-transposed", "src/bift/scenarios.py",
           "u = bell_basis().astype(complex)",
           "u = bell_basis().T.astype(complex)",
           ("tests/test_scenarios.py::TestCounterexampleScenario::test_routes_agree",
            "tests/test_scenarios.py::TestCounterexampleScenario::test_closed_forms_via_engine")),
)


def export(dest: Path, rev: str = "HEAD") -> None:
    """The committed files of revision ``rev`` under ``dest``, with no bytecode."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
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
