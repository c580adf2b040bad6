import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bift.cli
import bift.scenarios
import bift.tables
from bift import reportio
from bift.cli import core_checks, invariant_checks, main
from bift.errors import BiftError
from bift.linalg import DEFAULT_TOL, MAX_HEAT_EXPONENT
from bift.scenarios import (
    Scenario,
    bell_adiabatic_counterexample,
    random_instance,
    werner_isothermal,
)
from bift.tables import OutcomeTuple, spectra_from_unitary
from bift.theorems import BoundRecord, FTReport, corrupt_reverse, evaluate

from conftest import (
    dense_tables,
    encode_complex_matrix,
    evaluate_scenario,
    oracle_counterexample_spectra,
    oracle_dump,
    oracle_loop_tables,
    python_command,
    replace_endpoint,
    report_text,
)

LN2 = math.log(2.0)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    assert out.exists(), f"exit status {code}, and no --out file written"
    return code, out.read_text()


class TestRun:
    def test_werner_pure(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner",
                             "--p", "1", "--beta", "1")
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["gamma_restricted"] == pytest.approx(0.25, abs=1e-10)
        assert doc["report"]["integral_ft_lhs"] == pytest.approx(0.25, abs=1e-10)
        assert doc["passed"] is True

    def test_werner_uncorrelated(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0")
        assert code == 0
        doc = json.loads(text)
        avg = doc["report"]["averages"]
        assert avg["delta_i"] == pytest.approx(0.0, abs=1e-12)
        assert avg["delta_j"] == pytest.approx(0.0, abs=1e-12)
        assert doc["report"]["bound_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_random_instance(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "random",
                             "--seed", "7", "--dims", "2,2,2")
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["integral_ft_lhs"] == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_bytes(self, tmp_path):
        _, first = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.37")
        _, second = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.37")
        assert first == second

    def test_emit_tuples(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner",
                             "--p", "0.5", "--emit-tuples")
        assert code == 0
        doc = json.loads(text)
        table = np.asarray(doc["tables"]["forward"])
        assert table.shape == (4, 2, 2, 4, 2, 2, 1, 1)
        assert table.sum() == pytest.approx(1.0, abs=1e-10)

    def test_emit_tuples_both_tables(self, tmp_path):
        """R > 1 and d_A != d_B: each emitted table has the eight axes in
        order and holds the loop oracle's table."""
        code, text = run_cli(tmp_path, "run", "--scenario", "random", "--dims", "2,3,2",
                             "--seed", "7", "--emit-tuples")
        assert code == 0
        tables = json.loads(text)["tables"]
        spectra = spectra_from_unitary(random_instance(2, 3, 2, 7), tol=DEFAULT_TOL)
        for key, want in zip(("forward", "reverse"), oracle_loop_tables(spectra)):
            table = np.asarray(tables[key])
            assert table.shape == (6, 2, 3, 6, 2, 3, 2, 2)
            assert table.sum() == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(table, want, rtol=1e-14, atol=0)

    def test_emit_tuples_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "werner", "p": 0.5, "emit_tuples": True}))
        code, text = run_cli(tmp_path, "run", "--config", str(path))
        assert code == 0
        assert json.loads(text)["tables"]["dims"] == [4, 2, 2, 4, 2, 2, 1, 1]

    def test_counterexample(self, tmp_path):
        code, text = run_cli(tmp_path, "run", "--scenario", "counterexample",
                             "--p", "0.5")
        assert code == 0
        doc = json.loads(text)
        assert doc["report"]["reverse_avg_exp_di"] == pytest.approx(10 / 9, abs=1e-10)


# sha256 of the output bytes; none of these cases draws a Haar sample.
# werner-p0, werner-p1 and sweep-werner are the seed implementation's
# bytes, the run reports in report schema 2: each bound record without its
# slack and verdict, the schema key and every tolerance added, and the
# support and degeneracy tolerances, no longer fields, taken out again.  The
# other three carry rounding noise that the factored engine sums in
# another order; test_golden_values holds their numbers to the seed's.
GOLDEN = {
    "werner-p0": (("run", "--scenario", "werner", "--p", "0"),
                  "f38188a1689290a58523380561d277887506a6587e527c02c5f9f6945fe31127"),
    "werner-p0.37": (("run", "--scenario", "werner", "--p", "0.37"),
                     "cc5ce9f9d96f00e13079c86abb27c157f8dfa88b097dcf86727068f37bb280a5"),
    "werner-p1": (("run", "--scenario", "werner", "--p", "1"),
                  "ff54dd55e9becb6bae372be5d467eb82601246624569e8c261d2849e5f4602c6"),
    "counterexample-unitary": (
        ("run", "--scenario", "counterexample", "--p", "0.5"),
        "13d9b36d2a9d8729891840321973ccd8ce9acd365f48c634eb5c7ead8a4b83be"),
    "sweep-werner": (("sweep", "--scenario", "werner", "--p", "0:1:11"),
                     "dc8b80773a5af83de32b7c95baaf7d51153ae4f94e9070005f641a1f91aebc28"),
    # the dense eight-index tables, built only for emission
    "emit-werner-p0.37": (("run", "--scenario", "werner", "--p", "0.37", "--emit-tuples"),
                          "35e1e781079d0e00ea6a0d7566c1870ad435caf51dc0ca4249a608737f28b066"),
    "emit-counterexample": (
        ("run", "--scenario", "counterexample", "--p", "0.5", "--emit-tuples"),
        "c369da3835c869db9eb88ee18bd1848cd5c2c76af575ab44f1d71e2eb84b0310"),
    # the check lines of verify, rounding-noise residuals included
    "verify-werner-p0.37": (("verify", "--scenario", "werner", "--p", "0.37"),
                            "825d7d12e97918897f330f302843b577dce6b29afd0f18fb639ace8e73080932"),
    "verify-counterexample": (
        ("verify", "--scenario", "counterexample", "--p", "0.5"),
        "6ab5023b0d43dca75579adbaae6c5811cc79101240554408551dee14acfe6342"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_bytes(tmp_path, case):
    argv, digest = GOLDEN[case]
    code, text = run_cli(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("run", "--scenario", "werner", "--p", "0.37"),
    ("run", "--scenario", "random", "--dims", "2,3,2", "--seed", "7", "--emit-tuples"),
    ("verify", "--scenario", "werner", "--p", "0.37"),
    ("sweep", "--scenario", "werner", "--p", "0:1:3"),
    ("run", "--scenario", "random", "--dims", "3,3,4", "--seed", "1", "--emit-tuples"),
], ids=["run", "run-emit-tuples", "verify", "sweep", "run-emit-tuples-3,3,4"])
def test_stdout_holds_the_out_bytes(tmp_path, argv):
    # the console route writes to stdout the bytes it writes to --out
    cmd, env = python_command("-m", "bift.cli", *argv)
    out = tmp_path / "out"
    to_file = subprocess.run([*cmd, "--out", str(out)], env=env, capture_output=True,
                             timeout=120)
    to_stdout = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
    assert to_file.stdout == b"" and to_stdout.stdout
    assert to_stdout.stdout == out.read_bytes()


# Reports whose bytes carry rounding noise: a detailed residual of order
# 1e-16 and the trajectory attaining it.  The stored documents
# (tests/golden/) are the seed implementation's output; every other
# number must match them to 1e-14.  counterexample-analytic is the
# injected-kernel reference, which no command runs: its report alone is
# held to the stored document's.
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SPECTRA = {
    "werner-p0.37": lambda: werner_isothermal(0.37).spectra,
    "counterexample-unitary": lambda: bell_adiabatic_counterexample(0.5).spectra,
    "counterexample-analytic": lambda: oracle_counterexample_spectra(0.5),
}


def _assert_close(got, want, where=""):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        # exact zeros serialize as "0" and load as int
        if math.isnan(want) or math.isinf(want):
            assert got == want or (math.isnan(got) and math.isnan(want)), where
        else:
            assert abs(got - want) <= 1e-14, where
    else:
        assert got == want, where


def _detailed_fields(doc):
    """Remove and return (residual, worst tuple) from a report document,
    and the same two from its detailed_ft check when it holds checks."""
    resid = doc["report"].pop("detailed_max_residual")
    worst = doc["report"].pop("detailed_worst")
    if "checks" in doc:
        (check,) = [c for c in doc["checks"] if c["name"] == "detailed_ft"]
        assert check.pop("value") == resid
        check.pop("detail")
    return resid, worst


@pytest.mark.parametrize("case", sorted(GOLDEN_SPECTRA))
def test_golden_values(tmp_path, case):
    want = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    if case in GOLDEN:
        code, text = run_cli(tmp_path, *GOLDEN[case][0])
        assert code == 0
        got = json.loads(text)
    else:
        got = {"report": json.loads(report_text(evaluate(GOLDEN_SPECTRA[case]()).report))}
        want = {"report": want["report"]}
    resid, worst = _detailed_fields(got)
    _detailed_fields(want)
    assert resid <= 1e-14
    table = dense_tables(GOLDEN_SPECTRA[case]())[0]
    assert table[tuple(worst)] > 1e-12 * table.max()     # a real weight, not kernel noise
    _assert_close(got, want)


class TestSweep:
    def test_werner_grid_monotone_gap(self, tmp_path):
        code, text = run_cli(tmp_path, "sweep", "--scenario", "werner",
                             "--p", "0:1:101")
        assert code == 0
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "p" and "bound_gap" in header
        assert len(lines) == 102
        col = header.index("bound_gap")
        gaps = [float(row.split(",")[col]) for row in lines[1:]]
        assert all(g >= -1e-12 for g in gaps)
        assert all(b - a >= -1e-10 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(2 * LN2, abs=1e-10)

    def test_counterexample_ordering_column(self, tmp_path):
        # the second grid is the README's
        for grid, count in (("0.05:0.95:19", 19), ("0.045:0.955:21", 21)):
            code, text = run_cli(tmp_path, "sweep", "--scenario", "counterexample",
                                 "--p", grid)
            assert code == 0
            lines = text.strip().splitlines()
            assert len(lines) == count + 1
            col = lines[0].split(",").index("bound_gap")
            gaps = [float(row.split(",")[col]) for row in lines[1:]]
            # the reverse-averaged bound is strictly weaker here
            assert all(g < 0.0 for g in gaps)

    def test_single_point_matches_run(self, tmp_path):
        # every column, at points where ln gamma and ln <e^{-dI}>_rev are nonzero too
        for scenario, p in (("werner", "0.6"), ("werner", "1"), ("counterexample", "0.3")):
            code, text = run_cli(tmp_path, "sweep", "--scenario", scenario, "--p", p)
            assert code == 0
            header, row = text.strip().splitlines()
            values = dict(zip(header.split(","), (float(x) for x in row.split(","))))
            _, run_text = run_cli(tmp_path, "run", "--scenario", scenario, "--p", p)
            doc = json.loads(run_text)
            rep = doc["report"]
            slack = {c["name"].removeprefix("bound:"): c["value"] for c in doc["checks"]}
            assert values == pytest.approx({
                "p": float(p), "delta_i_avg": rep["averages"]["delta_i"],
                "ln_gamma": rep["ln_gamma"],
                "ln_reverse_avg_exp_di": math.log(rep["reverse_avg_exp_di"]),
                "bound_gap": rep["bound_gap"],
                "heat_bound_info_gamma_slack": slack["heat_bound_info_gamma"],
                "heat_bound_reverse_info_slack": slack["heat_bound_reverse_info"],
            }, abs=1e-12), (scenario, p)

    def test_needs_grid(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "werner"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_p_forms_agree(self, tmp_path, monkeypatch):
        # a config list, a comma list and a start:stop:count grid
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps({"scenario": "werner", "p": [0, 0.5, 1]}))
        texts = {run_cli(tmp_path, "sweep", *argv)[1]
                 for argv in (("--config", "p.json"),
                              ("--scenario", "werner", "--p", "0,0.5,1"),
                              ("--scenario", "werner", "--p", "0:1:3"))}
        assert len(texts) == 1

    def test_run_takes_one_p(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps({"scenario": "werner", "p": [0.37]}))
        _, from_list = run_cli(tmp_path, "run", "--config", "p.json")
        _, from_flag = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.37")
        assert json.loads(from_list)["report"] == json.loads(from_flag)["report"]
        assert main(["run", "--scenario", "werner", "--p", "0.2,0.4"]) == 2
        assert "single value" in capsys.readouterr().err


class TestVerify:
    def test_residual_at_the_limit_passes(self):
        # a check passes when its residual is at most the tolerance, the
        # tolerance itself included
        assert bift.cli.Check.close("x", 1e-10, 0.0, 1e-10).passed
        assert not bift.cli.Check.close("x", math.nextafter(1e-10, 1.0), 0.0, 1e-10).passed

    def test_largest_deviation_of_an_array_pair_decides(self):
        # the value is the largest |got - want| over the entries, whatever
        # its sign, and that entry alone fails the check
        want = np.array([[0.5, 1.0], [2.0, -3.0]])
        got = want + np.array([[1e-11, -2e-11], [0.0, 5e-11]])
        check = bift.cli.Check.close("x", got, want, 4e-11)
        assert check.value == float(np.max(np.abs(got - want)))
        assert abs(check.value - 5e-11) < 1e-15
        assert not check.passed
        assert bift.cli.Check.close("x", got, want, check.value).passed
        got[1, 1] = want[1, 1]
        assert bift.cli.Check.close("x", got, want, 4e-11).passed

    def test_werner_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--scenario", "werner", "--p", "0.7")
        assert code == 0
        assert "FAIL" not in text
        assert "forward_factorization" in text
        assert "info_avg_is_mutual_information" in text

    @pytest.mark.parametrize("p", ["0.999999999997", "0.999999999999", "0.9999999999999999"])
    def test_werner_near_pure_passes(self, tmp_path, p):
        # the three small eigenvalues (1 - p)/4, down to 2.8e-17, are exact
        # analytic weights: they stay in the support, and gamma and the
        # integral relation read 1
        code, text = run_cli(tmp_path, "verify", "--scenario", "werner", "--p", p)
        assert code == 0, text

    def test_corrupted_reverse_fails_named(self, tmp_path):
        out = tmp_path / "v.txt"
        code = main(["verify", "--scenario", "werner", "--p", "1",
                     "--corrupt-reverse", "--out", str(out)])
        text = out.read_text()
        assert code == 1
        assert "FAIL detailed_ft" in text
        assert "worst trajectory (0, 0, 0, 0, 0, 0, 0, 0)" in text

    def test_corrupted_werner_keeps_work_bounds(self, tmp_path):
        out = tmp_path / "v.txt"
        code = main(["verify", "--scenario", "werner", "--p", "1",
                     "--corrupt-reverse", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert code == 1
        assert any(line.startswith("FAIL detailed_ft") for line in lines)
        for name in ("work_bound_info_gamma", "work_bound_reverse_info"):
            (line,) = [ln for ln in lines if f"bound:{name} " in ln]
            assert "kind=upper" in line

    @pytest.mark.parametrize("route", ["unitary", "analytic"])
    def test_corrupted_counterexample_fails_named(self, tmp_path, route):
        # the propagator through verify, the injected-kernel reference
        # through the checks verify judges
        if route == "unitary":
            code, text = run_cli(tmp_path, "verify", "--scenario", "counterexample",
                                 "--p", "0.5", "--corrupt-reverse")
            assert code == 1
            assert "FAIL detailed_ft" in text
        else:
            spectra = oracle_counterexample_spectra(0.5)
            checks = core_checks(Scenario("counterexample", {"p": 0.5}, spectra, {}),
                                 evaluate(corrupt_reverse(spectra)), DEFAULT_TOL)
            (check,) = [c for c in checks if c.name == "detailed_ft"]
            assert not check.passed

    @pytest.mark.parametrize("dims", ["2,2,2", "4,4,4"])
    @pytest.mark.parametrize("seed", ["0", "11"])
    def test_corrupted_random_fails_named(self, tmp_path, dims, seed):
        code, text = run_cli(tmp_path, "verify", "--scenario", "random", "--seed", seed,
                             "--dims", dims, "--corrupt-reverse")
        assert code == 1
        assert "FAIL detailed_ft" in text

    def test_factorization_threshold_is_trace_tolerance(self):
        # conditional rows summing to 1 + 1e-10: G times that excess
        # exceeds the default 1e-12, not an overridden 1e-9
        analysis = evaluate_scenario(werner_isothermal(0.5))
        spectra = replace_endpoint(analysis.spectra, "initial",
                                   cond=analysis.spectra.initial.cond * (1 + 1e-10))
        bent = dataclasses.replace(analysis, spectra=spectra)

        def passed(tol):
            (check,) = [c for c in invariant_checks(bent, tol) if c.name == "forward_factorization"]
            return check.passed

        assert not passed(DEFAULT_TOL)
        assert passed(dataclasses.replace(DEFAULT_TOL, trace=1e-9))

    def test_random_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "verify", "--scenario", "random",
                             "--seed", "3", "--dims", "2,3,2")
        assert code == 0
        assert "FAIL" not in text


class TestDenseTables:
    """``run``, ``verify`` and ``sweep`` work on the factored tables; the
    eight-index tables are built only for ``--emit-tuples``, once each."""

    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    @pytest.mark.parametrize("scenario", [
        ("--scenario", "werner", "--p", "0.5"),
        ("--scenario", "counterexample", "--p", "0.5"),
        ("--scenario", "random", "--dims", "2,2,2"),
    ])
    def test_commands_never_build_them(self, tmp_path, monkeypatch, command, scenario):
        def refuse(*args):
            raise AssertionError("an eight-index table was built")

        monkeypatch.setattr(bift.cli, "dense_table", refuse)
        # a random system has no p, so there is nothing to sweep
        want = 2 if command == "sweep" and "random" in scenario else 0
        assert main([command, *scenario, "--out", str(tmp_path / "out.txt")]) == want

    def test_emit_tuples_builds_each_once(self, tmp_path, monkeypatch):
        built = []
        dense = bift.cli.dense_table

        def counted(spectra, table):
            built.append(table.shape)
            return dense(spectra, table)

        monkeypatch.setattr(bift.cli, "dense_table", counted)
        code, _ = run_cli(tmp_path, "run", "--scenario", "random", "--dims", "2,2,2",
                          "--emit-tuples")
        assert code == 0
        assert len(built) == 2      # forward and reverse


class TestConfigs:
    def _explicit_config(self, tmp_path, rho_scale=1.0, tolerance=None, energies=None,
                         dims=(2, 2, 2), seed=13, rank_deficient=False):
        system = random_instance(*dims, seed=seed, rank_deficient=rank_deficient)
        cfg = {
            "system": {
                "dims": list(dims),
                "rho_ab": encode_complex_matrix(system.rho_ab.matrix * rho_scale),
                "unitary": encode_complex_matrix(system.unitary),
                "reservoir": {"energies": energies or list(system.reservoir.energies),
                              "beta": system.reservoir.beta},
            }
        }
        if tolerance is not None:
            cfg["tolerance"] = tolerance
        path = tmp_path / "system.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_explicit_system_verifies(self, tmp_path):
        path = self._explicit_config(tmp_path)
        code, text = run_cli(tmp_path, "verify", "--config", str(path))
        assert code == 0
        assert "FAIL" not in text

    def test_explicit_system_corrupted_fails_named(self, tmp_path):
        path = self._explicit_config(tmp_path)
        code, text = run_cli(tmp_path, "verify", "--config", str(path), "--corrupt-reverse")
        assert code == 1
        assert "FAIL detailed_ft" in text

    def test_explicit_system_run(self, tmp_path):
        path = self._explicit_config(tmp_path)
        code, text = run_cli(tmp_path, "run", "--config", str(path))
        assert code == 0
        doc = json.loads(text)
        assert doc["scenario"]["name"] == "explicit"
        assert doc["report"]["gamma_restricted"] == pytest.approx(1.0, abs=1e-10)

    def test_heat_exponent_at_limit_overflows_nothing(self, tmp_path):
        # beta * (max E - min E) just under the limit: e^{beta Q} nears
        # the float maximum on the pairs out of the upper level, whose Gibbs
        # weight stays in the support, and no product with it may overflow
        # (warnings are errors)
        path = self._explicit_config(tmp_path, energies=[0.0, MAX_HEAT_EXPONENT])
        code, text = run_cli(tmp_path, "verify", "--config", str(path))
        assert code in (0, 1)
        assert "PASS detailed_ft" in text

    def test_steep_reservoir_passes_integral_relations(self, tmp_path):
        # at beta * dE = 29 the upper level's Gibbs weight is 2.5e-13 of the
        # lower one's, a real weight that stays in the support: gamma is 1
        # and both integral relations average over the same support
        path = self._explicit_config(tmp_path, energies=[0.0, 29.0])
        code, text = run_cli(tmp_path, "verify", "--config", str(path))
        assert code == 0
        assert "PASS integral_ft_vs_gamma" in text
        assert "PASS reverse_averaged_ft" in text

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # An explicit system's report is the same at any BLAS thread count
        # (seen with OpenBLAS at 1 and 2 threads); only the random
        # scenario's Haar draw depends on it, from M * R = 100 up.  So the
        # random scenario runs as itself at (4, 4, 4), M * R = 64, and the
        # larger systems are drawn once here and written out: (4, 4, 8),
        # M * R = 128, full rank and rank-deficient, whose zero block of 10
        # levels the Gram-Schmidt pass fixes through BLAS dot products, and
        # (3, 3, 30), M * R = 270, whose final state sums 900 reservoir blocks.
        assert np.sum(random_instance(4, 4, 8, seed=1, rank_deficient=True)
                      .rho_ab.decomposition.probabilities <= 1e-12) >= 8

        def systems():
            yield "--scenario", "random", "--dims", "4,4,4"
            for dims, rank_deficient in (((4, 4, 8), False), ((4, 4, 8), True),
                                         ((3, 3, 30), False)):
                yield "--config", str(self._explicit_config(tmp_path, dims=dims, seed=1,
                                                            rank_deficient=rank_deficient))

        for system in systems():
            for command in ("run", "verify"):
                outputs = []
                for threads in ("1", "2"):
                    cmd, env = python_command("-m", "bift.cli", command, *system,
                                              OPENBLAS_NUM_THREADS=threads,
                                              OMP_NUM_THREADS=threads)
                    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                          timeout=120)
                    assert proc.returncode == 0, proc.stderr
                    outputs.append(proc.stdout)
                assert outputs[0] == outputs[1], (command, system)

    def test_every_tolerance_is_reported(self, tmp_path):
        # a field beside equality and bound shows in the report,
        # not only in its config hash
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "werner", "p": 0.5,
                                      "tolerance": {"psd": 1e-9}}))
        code, text = run_cli(tmp_path, "run", "--config", str(config))
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == 2
        assert doc["tolerances"] == {**dataclasses.asdict(DEFAULT_TOL), "psd": 1e-9}

    def test_trace_tolerance_reaches_state_check(self, tmp_path, capsys):
        path = self._explicit_config(tmp_path, rho_scale=1 + 1e-9)
        assert main(["run", "--config", str(path)]) == 2
        assert "trace deviates from 1 by 1.000e-09" in capsys.readouterr().err
        path = self._explicit_config(tmp_path, rho_scale=1 + 1e-9,
                                     tolerance={"trace": 1e-6})
        code, _ = run_cli(tmp_path, "run", "--config", str(path))
        assert code == 0

    def test_missing_field_reports_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"system": {"dims": [2, 2, 2]}}))
        assert main(["run", "--config", str(path)]) == 2
        assert "system.rho_ab" in capsys.readouterr().err

    def test_invalid_state_rejected(self, tmp_path, capsys):
        cfg = {
            "system": {
                "dims": [2, 1, 1],
                "rho_ab": encode_complex_matrix(np.eye(2)),  # trace 2
                "unitary": encode_complex_matrix(np.eye(2)),
                "reservoir": {"energies": [0.0], "beta": 1.0},
            }
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert "system" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "random", "--dims", "2,2"]) == 2
        assert "dims" in capsys.readouterr().err

    def test_tolerance_flag(self, tmp_path, capsys):
        code, text = run_cli(tmp_path, "run", "--scenario", "werner", "--p", "0.5",
                             "--tolerance", "1e-6")
        assert code == 0
        doc = json.loads(text)
        assert doc["tolerances"]["equality"] == pytest.approx(1e-6)
        # alone, the flag is the config's bare number, as it always was
        assert doc["config_hash"] == reportio.config_hash(
            {"scenario": "werner", "p": "0.5", "tolerance": 1e-6})

        # over a tolerance object, the flag sets equality and bound and keeps
        # every other field
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "random", "tolerance": {"trace": 1e-9}}))
        flag = ("--tolerance", "1e-10")
        code, text = run_cli(tmp_path, "run", "--config", str(config), *flag)
        assert code == 0
        assert json.loads(text)["tolerances"] == {
            "hermiticity": 1e-10, "unitarity": 1e-10, "orthonormality": 1e-10, "trace": 1e-9,
            "psd": 1e-12, "equality": 1e-10, "bound": 1e-10}

        # and the object is still validated as a whole
        config.write_text(json.dumps({"scenario": "werner", "p": 0.5,
                                      "tolerance": {"equalty": 1e-6}}))
        assert main(["run", "--config", str(config), *flag]) == 2
        assert capsys.readouterr().err == "error: tolerance: unknown fields ['equalty']\n"


ONE_LEVEL_SYSTEM = {"dims": [1, 1, 1], "rho_ab": [[[1, 0]]], "unitary": [[[1, 0]]],
                    "reservoir": {"energies": [0.0], "beta": 1.0}}
TWO_QUBIT_SYSTEM = {"dims": [2, 2, 2], "rho_ab": encode_complex_matrix(np.eye(4) / 4),
                    "unitary": encode_complex_matrix(np.eye(8)),
                    "reservoir": {"energies": [0.0, 1.0], "beta": 1.0}}


def test_scenario_table_names_every_system(tmp_path, monkeypatch, capsys):
    # a builder added to SCENARIOS is accepted, listed and read by its
    # keyword parameters with no other change
    calls = []

    def toy(p, seed=0, tol=DEFAULT_TOL):
        calls.append((p, seed))
        return werner_isothermal(p, tol=tol)

    monkeypatch.setitem(bift.scenarios.SCENARIOS, "toy", toy)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "toy", "--p", "0.5", "--out", "out.json"]) == 0
    for argv, config, line in [
        (("run",), {"scenario": "bogus"},
         "scenario: unknown or missing (got 'bogus'); "
         "expected werner, counterexample, random, toy, or an explicit system"),
        (("sweep", "--scenario", "random"), {},
         "sweep: only the werner, counterexample and toy scenarios can be swept, "
         "not the random scenario"),
        (("run", "--scenario", "toy", "--p", "0.5"), {"beta": 2.0},
         "config keys ['beta'] do not apply to the toy scenario"),
    ]:
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main([*argv, "--config", "config.json"]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
    calls.clear()
    cfg = {"scenario": "toy", "p": "0.1,0.9", "seed": 3}
    tol, points = bift.cli.validate_config(cfg, "sweep")
    assert bift.cli.build_analysis(cfg, tol, points[1])[0].name == "werner"
    assert calls == [(0.9, 3)]


def system_block(system, rho) -> dict:
    """The explicit-config ``system`` block of ``system`` with state ``rho``."""
    return {"dims": [system.dim_a, system.dim_b, system.reservoir.dim],
            "rho_ab": encode_complex_matrix(rho),
            "unitary": encode_complex_matrix(system.unitary),
            "reservoir": {"energies": list(system.reservoir.energies),
                          "beta": system.reservoir.beta}}


# Usage and config errors: each argv, with the config it reads as
# config.json (None for none; a str is the file's text).  Each exits 2
# with one error line; scripts/bytes_diff.py runs them too, so a moved
# error line shows there.
CONFIG_ERRORS = [
    (("run", "--config", "missing.json"), None),
    (("run", "--scenario", "random", "--dims", "2,x"), None),
    (("run", "--scenario", "random", "--dims", "0,2,2"), None),
    (("run", "--scenario", "random", "--beta", "nan"), None),
    (("run", "--scenario", "random", "--beta", "inf"), None),
    (("run", "--config", "config.json"), {"system": 5}),
    (("run", "--config", "config.json"), {"scenario": "random", "seed": "x"}),
    (("run", "--config", "config.json"), {"scenario": "random", "dims": [2, 2.5, 2]}),
    (("run", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                          "tolerance": {"equality": -1e-10}}),
    (("run", "--config", "config.json"),
     {"system": {"dims": [1, 1, 1], "rho_ab": [[[1, 0]]], "unitary": [[[1, 0]]],
                 "reservoir": {"energies": ["x"], "beta": 1.0}}}),
    (("run", "--scenario", "werner", "--p", "0.5", "--beta", "nan"), None),
    (("verify", "--scenario", "werner", "--p", "0.5", "--tolerance", "nan"), None),
    (("sweep", "--scenario", "werner", "--p", "0:1:3", "--tolerance", "-1"), None),
    (("run", "--scenario", "werner", "--p", "0.5", "--out", "missing/out.json"), None),
    (("run", "--scenario", "random", "--seed", "-1"), None),
    (("run", "--scenario", "random", "--dims", "100000,100000,1"), None),
    (("run", "--scenario", "random", "--beta", "1e-310"), None),
    (("run", "--config", "config.json"), {"scenario": "random", "rank_deficient": "no"}),
    (("sweep", "--config", "config.json"), {"scenario": "werner", "p": ["x"]}),
    (("sweep", "--config", "config.json"), {"scenario": "werner", "grid": 5}),
    (("sweep", "--config", "config.json"), {"scenario": "werner", "grid": {"p": ["x"]}}),
    (("run", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                          "tolerance": {"equalty": 1e-6}}),
    (("run", "--config", "config.json"),
     {"system": {"dims": [1, 1, 1], "rho_ab": [[[float("nan"), 0]]],
                 "unitary": [[[1, 0]]], "reservoir": {"energies": [0.0], "beta": 1.0}}}),
    # a grid too long to run, and parameters the scenario does not read
    (("sweep", "--scenario", "werner", "--p", "0:1:1000000000000000"), None),
    (("sweep", "--scenario", "random", "--dims", "2,2,2", "--p", "0:1:3"), None),
    (("verify", "--scenario", "counterexample", "--p", "0.5", "--beta", "7"), None),
    (("run", "--scenario", "werner", "--p", "0.5", "--seed", "1"), None),
    (("run", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                          "route": "analytic"}),
    (("run", "--config", "config.json"), {"scenario": "counterexample", "p": 0.5,
                                          "dims": [2, 2, 2]}),
    (("run", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                          "rank_deficient": False}),
    (("run", "--config", "config.json"), {"system": ONE_LEVEL_SYSTEM, "scenario": "random"}),
    (("run", "--config", "config.json"), {"system": ONE_LEVEL_SYSTEM, "p": 0.5}),
    (("run", "--config", "config.json"), {"system": ONE_LEVEL_SYSTEM, "beta": 2.0}),
    (("run", "--scenario", "random", "--dims", "1,1,2", "--config", "config.json"),
     {"rank_deficient": True}),
    # finite inputs whose Gibbs weights or matrix products overflow
    (("run", "--config", "config.json"),
     {"system": {**ONE_LEVEL_SYSTEM, "dims": [1, 1, 2],
                 "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                 "reservoir": {"energies": [0.0, 1e308], "beta": 1e308}}}),
    (("run", "--config", "config.json"),
     {"system": {**ONE_LEVEL_SYSTEM, "dims": [1, 1, 2],
                 "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                 "reservoir": {"energies": [0.0, 710.0], "beta": 1.0}}}),
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "unitary": [[[1e308, 0]]]}}),
    (("run", "--scenario", "werner", "--p", "0.5", "--beta", "1e-310"), None),
    # the emit_tuples key outside run, whatever its value
    (("verify", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                             "emit_tuples": True}),
    (("sweep", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                            "emit_tuples": False}),
    # a config file that is not JSON (a str row is the file's text) or
    # not an object
    (("run", "--config", "config.json"), '{"scenario": "werner",'),
    (("run", "--config", "config.json"), [{"scenario": "werner", "p": 0.5}]),
    # matrices that are not rows x cols x [re, im] numbers
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "rho_ab": [[["x", 0]]]}}),
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "rho_ab": [[[1, 0, 0]]]}}),
    # grids without a point or with a bad bound
    (("sweep", "--scenario", "werner", "--p", ","), None),
    (("sweep", "--scenario", "werner", "--p", "0:x:3"), None),
    # reservoirs that are not an object or do not match d_R
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "reservoir": [0.0, 1.0]}}),
    (("run", "--config", "config.json"),
     {"system": {**ONE_LEVEL_SYSTEM, "reservoir": {"energies": [0.0, 1.0], "beta": 1.0}}}),
    # keys an explicit system does not read
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "rho_ba": [[[1, 0]]]}}),
    (("run", "--config", "config.json"),
     {"system": {**ONE_LEVEL_SYSTEM, "reservoir": {"energies": [0.0], "beta": 1.0,
                                                   "temperature": 1.0}}}),
    # a valid state and propagator whose entries are not JSON numbers,
    # and an integer beyond the float range
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "rho_ab": [[["1", 0]]]}}),
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "unitary": [[[True, False]]]}}),
    (("run", "--config", "config.json"), {"system": {**ONE_LEVEL_SYSTEM,
                                                     "rho_ab": [[[10 ** 400, 0]]]}}),
    (("run", "--config", "config.json"), {"scenario": "random", "beta": 10 ** 400}),
    (("sweep", "--scenario", "werner", "--p", "0.1,x"), None),
    # a support or degeneracy cutoff, neither of which is a field
    (("verify", "--config", "config.json"), {"scenario": "random",
                                             "tolerance": {"support": 0.1}}),
    (("verify", "--config", "config.json"), {"scenario": "random",
                                             "tolerance": {"degeneracy": 1.0}}),
    # explicit systems whose state or propagator does not fit dims
    # [2, 2, 2]: a 3x3 state, a 4x4 propagator, a 2x3 propagator and a
    # 2x3 state
    (("run", "--config", "config.json"),
     {"system": {**TWO_QUBIT_SYSTEM, "rho_ab": encode_complex_matrix(np.eye(3) / 3)}}),
    (("run", "--config", "config.json"),
     {"system": {**TWO_QUBIT_SYSTEM, "unitary": encode_complex_matrix(np.eye(4))}}),
    (("run", "--config", "config.json"),
     {"system": {**TWO_QUBIT_SYSTEM, "unitary": encode_complex_matrix(np.eye(2, 3))}}),
    (("run", "--config", "config.json"),
     {"system": {**TWO_QUBIT_SYSTEM, "rho_ab": encode_complex_matrix(np.eye(2, 3) / 2)}}),
    # grids whose ends are not finite, or too far apart to step between
    (("sweep", "--scenario", "werner", "--p", "0:inf:3"), None),
    (("sweep", "--scenario", "werner", "--p", "1e308:-1e308:3"), None),
    (("sweep", "--config", "config.json"), {"scenario": "werner", "p": "-inf:0:2"}),
    # an empty config path names no file to read, as an empty --out does
    (("verify", "--scenario", "werner", "--p", "0.5", "--config", ""), None),
]


class TestExitCodes:
    """Usage and config errors exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("argv, config", CONFIG_ERRORS)
    def test_config_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "config.json").write_text(
                config if isinstance(config, str) else json.dumps(config))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, config, message", [
        (("sweep", "--scenario", "werner", "--p", "0:inf:3"), None, "error: grid"),
        (("run", "--config", "config.json"),
         {"system": {**ONE_LEVEL_SYSTEM, "rho_ba": [[[1, 0]]]}},
         "error: system: unknown keys ['rho_ba']"),
        # library errors raised while an explicit system is built
        (("run", "--config", "config.json"),
         {"system": {**TWO_QUBIT_SYSTEM, "unitary": encode_complex_matrix(np.eye(4))}},
         "error: system: propagator dim 4 != 4 x 2"),
        (("run", "--config", "config.json"),
         {"system": {**TWO_QUBIT_SYSTEM,
                     "unitary": encode_complex_matrix(np.diag([2.0] + [1.0] * 7))}},
         "error: system: operator deviates from unitary"),
        # a system block is the config's system even beside a scenario name
        (("run", "--config", "config.json"), {"system": ONE_LEVEL_SYSTEM, "scenario": "random"},
         "error: config keys ['scenario'] do not apply to an explicit system"),
        # a bad --tolerance over a config's tolerance object is named as the flag
        (("run", "--config", "config.json", "--tolerance", "-1"),
         {"scenario": "random", "tolerance": {"trace": 1e-12}},
         "error: tolerance: expected a finite non-negative number, got -1.0"),
        (("run", "--config", "config.json", "--tolerance", "nan"),
         {"scenario": "random", "tolerance": {"trace": 1e-12}},
         "error: tolerance: expected a finite non-negative number, got nan"),
        # the support cutoff is gone: every positive weight counts
        (("run", "--config", "config.json"), {"scenario": "random", "tolerance": {"support": 0.1}},
         "error: tolerance: unknown fields ['support']"),
        # and so is the degeneracy cutoff: rounding_floor decides the blocks
        (("verify", "--config", "config.json"),
         {"scenario": "random", "tolerance": {"degeneracy": 0.1}},
         "error: tolerance: unknown fields ['degeneracy']"),
        # a key no system reads
        (("run", "--config", "config.json"), {"scenario": "counterexample", "p": 0.5,
                                              "route": "analytic"},
         "error: unknown config keys ['route']"),
        (("run", "--config", "config.json"), {"scenario": "werner", "p": 0.5,
                                              "route": "analytic"},
         "error: unknown config keys ['route']"),
        # heat exponents whose exp overflows, one past the limit and one
        # whose energy difference overflows (warnings are errors)
        (("run", "--config", "config.json"),
         {"system": {**ONE_LEVEL_SYSTEM, "dims": [1, 1, 2],
                     "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                     "reservoir": {"energies": [0.0, 709.79], "beta": 1.0}}},
         "error: system: heat exponents beta * (E_r - E_r') must be finite"),
        (("run", "--config", "config.json"),
         {"system": {**ONE_LEVEL_SYSTEM, "dims": [1, 1, 2],
                     "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                     "reservoir": {"energies": [-1e308, 1e308], "beta": 1.0}}},
         "error: system: heat exponents beta * (E_r - E_r') must be finite"),
    ], ids=["grid-not-finite", "system-unknown-key", "system-propagator-dims",
            "system-not-unitary", "system-beside-scenario", "tolerance-flag-negative",
            "tolerance-flag-nan", "tolerance-support-gone", "tolerance-degeneracy-gone",
            "counterexample-route", "werner-route",
            "heat-exponent-past-limit", "heat-exponent-difference-overflows"])
    def test_error_line_names_the_input(self, tmp_path, monkeypatch, capsys, argv, config,
                                        message):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, config", [
        (("sweep", "--scenario", "random"), None),
        (("sweep", "--config", "config.json"), {"system": ONE_LEVEL_SYSTEM}),
    ])
    def test_sweep_needs_p(self, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(list(argv)) == 2
        assert "only the werner and counterexample scenarios can be swept" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (("sweep",), None),
        (("sweep", "--config", "config.json"), {"scenario": "bogus"}),
    ])
    def test_sweep_needs_scenario(self, tmp_path, monkeypatch, capsys, argv, config):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario: unknown or missing")
        assert err.count("\n") == 1

    def test_size_guard_before_drawing(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("random_instance drew an oversized system")

        monkeypatch.setattr(bift.scenarios, "random_instance", refuse)
        assert main(["run", "--scenario", "random", "--dims", "7,7,2"]) == 2
        assert "dense tuple table" in capsys.readouterr().err

    def test_size_guard_before_decoding(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("decode_complex_matrix ran on an oversized system")

        monkeypatch.setattr(bift.cli, "decode_complex_matrix", refuse)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"system": {
            **ONE_LEVEL_SYSTEM, "dims": [7, 7, 2],
            "reservoir": {"energies": [0.0, 1.0], "beta": 1.0}}}))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: dense tuple table would hold 23059204 > 10000000 entries\n"

    @pytest.mark.parametrize("text", [b'{"scenario": "werner", "p": "\xff"}',
                                      b"[" * 100_000 + b"]" * 100_000,
                                      # integers past Python's int-to-string limit
                                      b'{"scenario": "random", "beta": 1' + b"0" * 5000 + b"}",
                                      b'{"scenario": "random", "tolerance": 1' + b"0" * 5000
                                      + b"}"],
                             ids=["not-utf8", "nested-100000-deep", "beta-5001-digits",
                                  "tolerance-5001-digits"])
    def test_unreadable_config_text_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_tolerance_reaches_random_state(self, tmp_path):
        # the random scenario validates its state at the run's tolerances,
        # as the same system written out as an explicit config does
        system = random_instance(2, 2, 2, 3, rank_deficient=True)
        tolerance = {"psd": 0, "trace": 0}
        configs = [
            {"scenario": "random", "dims": [2, 2, 2], "seed": 3, "rank_deficient": True},
            {"system": system_block(system, system.rho_ab.matrix)},
        ]
        codes = []
        for cfg in configs:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**cfg, "tolerance": tolerance}))
            codes.append(main(["run", "--config", str(path), "--out", str(tmp_path / "out")]))
        assert codes == [2, 2]

    @pytest.mark.parametrize("source, tolerance", [
        ("random", {"hermiticity": 0}),
        ("explicit", {"hermiticity": 0}),
        ("explicit-off-hermitian", {"hermiticity": 1e-3}),
    ])
    def test_only_the_input_state_is_judged(self, tmp_path, capsys, source, tolerance):
        # the final state and the partial traces are computed from the
        # input, so they carry rounding that the input's tolerances do not
        # judge: this system's state is exactly Hermitian, its final state
        # off by 2.6e-17 and the final partial traces by up to 4.0e-17.  The
        # off-Hermitian state, admitted at 1e-3, is off by 1e-6, its final
        # state by 3.4e-7.
        system = random_instance(2, 2, 2, 3)
        rho = system.rho_ab.matrix.copy()
        if source == "explicit-off-hermitian":
            rho[0, 1] += 1e-6
        cfg = ({"scenario": "random", "dims": [2, 2, 2], "seed": 3} if source == "random"
               else {"system": system_block(system, rho)})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cfg, "tolerance": tolerance}))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("target", ["/dev/full", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, target):
        # The report streams into the file, so a disk that fills up
        # half-way through is met inside the writer, not before it.
        if target == "/dev/full" and not Path(target).exists():
            pytest.skip("no /dev/full here")
        out = str(tmp_path) if target == "directory" else target
        cmd, env = python_command("-m", "bift.cli", "run", "--scenario", "werner",
                                  "--p", "0.5", "--emit-tuples", "--out", out)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: out {out}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("stdout, argv", [
        ("/dev/full", ("run", "--scenario", "werner", "--p", "0.5", "--emit-tuples")),
        ("/dev/full", ("verify", "--scenario", "werner", "--p", "0.5")),
        ("/dev/full", ("sweep", "--scenario", "werner", "--p", "0:1:3")),
        ("closed-pipe", ("run", "--scenario", "random", "--dims", "3,3,4", "--seed", "1",
                         "--emit-tuples")),
    ], ids=["run-full", "verify-full", "sweep-full", "run-closed-pipe"])
    def test_unwritable_stdout_exits_2(self, stdout, argv):
        # A full disk is met by the flush at the end of a short report; a
        # reader that stops after 10 bytes, half-way through a long one.
        if stdout == "/dev/full" and not Path(stdout).exists():
            pytest.skip("no /dev/full here")
        cmd, env = python_command("-m", "bift.cli", *argv)
        if stdout == "/dev/full":
            with open(stdout, "w") as full:
                proc = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE,
                                      text=True, timeout=120)
            status, err = proc.returncode, proc.stderr
        else:
            with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) as proc:
                assert len(proc.stdout.read(10)) == 10
                proc.stdout.close()
                err = proc.stderr.read()
                status = proc.wait(timeout=120)
        assert status == 2
        assert err.startswith("error: stdout: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--scenario", "werner", "--p", "0.5"),
        ("run", "--scenario", "werner", "--p", "0.5"),
        ("sweep", "--scenario", "werner", "--p", "0:1:3"),
    ], ids=["verify", "run", "sweep"])
    def test_text_only_stdout_exits_2(self, capsys, argv):
        # a stdout with no binary buffer under it takes no report
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(list(argv)) == 2
        assert text.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("error: stdout: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("verify", "--scenario", "werner", "--p", "0.5"),
        ("sweep", "--scenario", "werner", "--p", "0:1:3"),
    ])
    def test_emit_tuples_only_on_run(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--emit-tuples"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --emit-tuples" in err
        assert "Traceback" not in err


# Floats where the report format has a special case: non-finite tokens,
# signed zeros, subnormals, and the magnitudes near 1e-5 and 1e15 where
# 15-digit ``g`` formatting switches to exponent notation.
REPORT_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                     1e-5, 9.99999999999999e-5, 1e-4, 1e15, 999999999999999.0, 1e16]),
    *(st.floats(min_value=lo, max_value=hi) | st.floats(min_value=-hi, max_value=-lo)
      for lo, hi in ((1e-6, 1e-4), (1e14, 1e16))),
    st.floats(allow_nan=True, allow_infinity=True),
)


def powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])


def integers_near_1e15() -> np.ndarray:
    # and their scalings by 1e-10, and into [0.1, 1) where rounding to 15
    # digits carries to 1
    near = 1e15 + np.arange(-2000.0, 2001.0)
    return np.concatenate([near, near / 1e10, near / 1e15, near / 1e16])


def fifteen_digit_ties() -> np.ndarray:
    """Every i / 2**(15 + m) with i odd in the decade [10**-m, 10**(1-m)),
    m < 8: its exact decimal has 16 significant digits ending in 5, a tie
    for 15 (no double below about 2e-7 is one); with their negatives and
    their neighbours."""
    ties = []
    for m in range(8):
        j = 15 + m
        lo, hi = -(-2 ** j // 10 ** m), 10 * 2 ** j // 10 ** m
        ties.append(np.arange(lo | 1, hi, 2) / 2.0 ** j)
    ties = np.concatenate(ties)
    return np.concatenate([ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, math.inf)])


def notation_switch() -> np.ndarray:
    # where %.15g switches between 0.0000ddd and d.ddde-05
    return np.concatenate([
        np.linspace(0.99e-4, 1.01e-4, 20001), np.linspace(0.99e-5, 1.01e-5, 20001),
        [9.9999999999999e-5, 9.99999999999999e-5, 9.999999999999995e-5, 9.9999999999999995e-6],
        10.0 ** np.random.default_rng(23).uniform(-6, -3, 20000)])


def short_decimals() -> np.ndarray:
    """Decimals of 1 to 15 significant digits, the last one nonzero, in
    every decade of [1e-8, 10) and at exponents of magnitude 100 and
    above, with their negatives: 0 to 14 trailing zeros of the 15 digits,
    so 0 to 4 whole 000 groups, in every printed form."""
    rng = np.random.default_rng(31)
    texts = []
    for digits in range(1, 16):
        for decade in [*range(-8, 1), -280, -200, -123, -100, 100, 200, 300]:
            for m in rng.integers(10 ** (digits - 1), 10 ** digits, 20).tolist():
                m += m % 10 == 0        # the last digit nonzero
                texts.append(f"{m}e{decade - digits + 1}")
    values = np.array([float(t) for t in texts])
    return np.concatenate([values, -values])


def special_values() -> np.ndarray:
    rng = np.random.default_rng(29)
    tiny = rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64)   # subnormals
    probs = rng.random(1000) * 10.0 ** rng.uniform(-20, 1, 1000)
    return np.concatenate([
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-280, 9.999999999999999, 10.0, 12.5,
         1e15, 1e300, sys.float_info.max, math.nan, -math.nan, math.inf, -math.inf],
        np.nextafter(1e-280, [0.0, 1.0]), tiny, -tiny, probs, -probs, probs * 1e3])


# Batches on which the array writer must give format_float's text entry
# by entry: what its fast path takes, that path's edges, and what it
# leaves to format_float.
FLOAT_BATCHES = {
    "random-bit-patterns": lambda: np.random.default_rng(19).integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64),
    "powers-of-ten-and-neighbours": powers_of_ten_and_neighbours,
    "integers-near-1e15": integers_near_1e15,
    "15-digit-ties": fifteen_digit_ties,
    "notation-switch": notation_switch,
    "short-decimals": short_decimals,
    "special-values": special_values,
}


def emit_tuples_document(dims: list[int], seed: int, rank_deficient: bool = False) -> dict:
    """The document ``bift run --emit-tuples`` writes for a random system."""
    cfg = {"scenario": "random", "dims": dims, "seed": seed, "emit_tuples": True}
    if rank_deficient:
        cfg["rank_deficient"] = True
    scenario, analysis = bift.cli.build_analysis(cfg, DEFAULT_TOL)
    checks = bift.cli.core_checks(scenario, analysis, DEFAULT_TOL)
    return bift.cli.report_document("run", cfg, scenario, analysis, checks, DEFAULT_TOL)


# Arrays for the writer: the non-empty float64 ones a report holds, of up
# to 3**8 entries; and the lists and dicts to nest them in.
EMITTED_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=8, min_side=1, max_side=3),
    elements=REPORT_FLOATS)
NESTINGS = st.lists(st.sampled_from(["list", "dict"]), max_size=3)


def assert_emits_like_its_list(arr: np.ndarray, nesting: list[str]) -> None:
    # Each wrapper puts the array one level deeper, where the writer's
    # indentation must still match the list branch's.
    def nest(value):
        for kind in nesting:
            value = [0.5, value] if kind == "list" else {"k": value, "z": None}
        return value

    assert report_text({"t": nest(arr)}) == report_text({"t": nest(arr.tolist())})


# An FTReport with every kind of member: averages, bound records, a
# worst trajectory.
WERNER_REPORT = evaluate_scenario(werner_isothermal(0.5)).report


# Records of fewer members than a report's.
@dataclasses.dataclass(frozen=True)
class OneMember:
    value: object


@dataclasses.dataclass(frozen=True)
class NoMembers:
    pass


class TextSubclass(str):
    pass


def assert_report_kinds(node) -> None:
    """Every node under ``node`` is of a kind the report writer accepts,
    and every array is a table it writes with no copy."""
    kind = type(node)
    if dataclasses.is_dataclass(kind):
        children = [getattr(node, f.name) for f in dataclasses.fields(node)]
    elif kind is dict:
        assert all(type(key) is str for key in node), list(node)
        children = node.values()
    elif kind in (list, tuple, OutcomeTuple):
        children = node
    elif kind is np.ndarray:
        assert node.dtype == np.float64 and node.ndim and node.size, node.shape
        assert node.flags.c_contiguous
        children = ()
    else:
        assert kind in (type(None), bool, int, float, str), kind
        children = ()
    for child in children:
        assert_report_kinds(child)


# Documents for the whole writer: every scalar kind a report holds,
# integers past 64 bits and strings that need escapes among them, and
# small arrays whose chunks are pieces of their own, in the containers
# and records a report is made of, under a top-level dict as a report's.
REPORT_INTS = st.one_of(st.integers(), st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 30]))
REPORT_TEXTS = st.text(st.one_of(
    st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
    max_size=6)
REPORT_LEAVES = st.one_of(
    st.none(), st.booleans(), REPORT_INTS, REPORT_FLOATS, REPORT_TEXTS,
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3),
               elements=REPORT_FLOATS))


def report_containers(inner):
    def record(cls):
        return st.builds(cls, **{f.name: inner for f in dataclasses.fields(cls)})
    return st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(REPORT_TEXTS, inner, max_size=4),
        st.lists(inner, min_size=8, max_size=8).map(lambda v: OutcomeTuple(*v)),
        record(bift.cli.Check), record(BoundRecord), record(FTReport))


REPORT_DOCUMENTS = st.recursive(REPORT_LEAVES, report_containers, max_leaves=40).map(
    lambda doc: {"doc": doc})


class TestReportIO:
    def test_float_format(self):
        assert reportio.format_float(0.25) == "0.25"
        assert reportio.format_float(float("-inf")) == "-Infinity"
        assert reportio.format_float(1 / 3) == "0.333333333333333"
        assert reportio.format_float(-0.0) == "0"
        assert reportio.format_float(100.0) == "100"
        assert reportio.format_float(1e15) == "1e+15"
        assert reportio.format_float(1e-5) == "1e-05"
        assert reportio.format_float(5e-324) == "4.94065645841247e-324"
        assert reportio.format_float(math.nan) == "NaN"
        assert reportio.format_float(math.inf) == "Infinity"
        assert reportio.format_float(np.float64(-math.inf)) == "-Infinity"
        assert reportio.format_float(np.float64(-0.1)) == "-0.1"

    def test_dumps_round_trips(self):
        doc = {"a": [1.5, float("-inf")], "b": {"c": None, "d": True}}
        parsed = json.loads(report_text(doc))
        assert parsed["a"][0] == 1.5
        assert parsed["a"][1] == float("-inf")
        assert parsed["b"] == {"c": None, "d": True}

    def test_parse_grid(self):
        def grid(text):
            return bift.cli.p_values({"p": text})

        assert grid("0.5") == [0.5]
        assert grid("0.1,0.9") == [0.1, 0.9]
        assert grid("0:1:5") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(BiftError, match="expected start:stop:count"):
            grid("0:1")
        assert len(grid(f"0:1:{bift.cli.MAX_GRID_POINTS}")) == bift.cli.MAX_GRID_POINTS
        with pytest.raises(BiftError, match="count must lie in"):
            grid(f"0:1:{bift.cli.MAX_GRID_POINTS + 1}")
        for text in ("0:inf:3", "1e308:-1e308:3", "-inf:0:2", "0:nan:2"):
            with pytest.raises(BiftError, match="stop - start must be finite"):
                grid(text)

    @given(arr=EMITTED_ARRAYS, nesting=NESTINGS)
    @example(arr=np.array([[-0.0, 5e-324], [1e-5, 1e15]]), nesting=[])
    @example(arr=np.array([[[1.0, -2.5], [math.nan, 0.0]]] * 3), nesting=["list", "dict"])
    # the extremes of the derived layout: eight axes three wrappers deep,
    # and one axis at the top level
    @example(arr=np.arange(256.0).reshape((2,) * 8) / 255, nesting=["list", "dict", "list"])
    @example(arr=np.array([0.25, 1e-7, 3.0]), nesting=[])
    @settings(max_examples=200, deadline=None)
    def test_array_emits_like_its_list(self, arr, nesting):
        assert_emits_like_its_list(arr, nesting)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @given(arr=EMITTED_ARRAYS, nesting=NESTINGS)
    @example(arr=np.arange(-40.0, 41.0).reshape(3, 3, 3, 3) / 7, nesting=["dict"])
    @settings(max_examples=100, deadline=None)
    def test_array_emits_like_its_list_in_chunks(self, chunk, arr, nesting):
        # chunk edges inside rows and at every depth of the axes they end
        with mock.patch.object(reportio, "_CHUNK", chunk):
            assert_emits_like_its_list(arr, nesting)

    def test_writer_pieces_join_to_dumps(self):
        # The pieces of an array and a record join to the text of their
        # nested lists and dicts.
        doc = {"a": [1.5, float("-inf"), "x\u00e9"], "b": {}, "c": [],
               "t": np.arange(24.0).reshape(2, 3, 4) / 7, "r": bift.cli.Check("n", 0.5, True)}
        pieces = []
        reportio.dump(doc, pieces.append)
        plain = {**doc, "t": doc["t"].tolist(), "r": dataclasses.asdict(doc["r"])}
        assert b"".join(pieces).decode("ascii") == report_text(plain)

    def test_writer_pieces_are_ascii_bytes(self):
        # a document with no float array arrives as one piece; every piece,
        # the emitted tables' chunks among them, is ASCII bytes
        report, emitted = [], []
        reportio.dump(WERNER_REPORT, report.append)
        reportio.dump(emit_tuples_document([2, 3, 2], 7), emitted.append)
        assert len(report) == 1 and len(emitted) > 1
        assert all(type(piece) is bytes and piece.isascii() for piece in report + emitted)

    def test_emitted_table_streams_one_chunk_per_piece(self):
        # a table longer than many chunks: no piece holds more than _CHUNK
        # numbers, and the pieces join to the text of its nested list
        table = emit_tuples_document([3, 3, 4], 1)["tables"]["forward"]
        pieces = []
        with mock.patch.object(reportio, "_CHUNK", 1000):
            reportio.dump(table, pieces.append)
        counts = [len(re.findall(rb"[0-9][0-9.e+-]*", piece)) for piece in pieces]
        assert max(counts) == 1000 and sum(counts) == table.size
        assert b"".join(pieces).decode("ascii") == report_text(table.tolist())

    @pytest.mark.parametrize("dims, seed, rank_deficient",
                             [([3, 3, 4], 1, False), ([2, 3, 2], 7, False), ([3, 3, 4], 1, True),
                              ([1, 1, 100], 1, False)],
                             ids=["3,3,4-seed1", "2,3,2-seed7", "3,3,4-seed1-rank-deficient",
                                  "1,1,100-seed1"])
    def test_emitted_tables_match_their_lists(self, dims, seed, rank_deficient):
        # the tables as the array writer writes them, against their nested
        # lists, whose floats go one by one through format_float; the
        # rank-deficient forward table is 11% exact zeros, and the (1,1,100)
        # tables are one leading-axis row of 10,000 entries, two chunks
        doc = emit_tuples_document(dims, seed, rank_deficient)
        tables = doc["tables"]
        listed = {**doc, "tables": {**tables, "forward": tables["forward"].tolist(),
                                    "reverse": tables["reverse"].tolist()}}
        text, want = report_text(doc), report_text(listed)
        if text != want:
            pytest.fail(f"the texts differ from byte {len(os.path.commonprefix([text, want]))}")

    @pytest.mark.parametrize("batch", FLOAT_BATCHES)
    def test_format_floats_is_format_float(self, batch):
        # the entries of the batch written as a 1-d array, against
        # format_float of each of its floats
        values = FLOAT_BATCHES[batch]()
        text = report_text(values)
        assert text.startswith("[\n  ") and text.endswith("\n]\n")
        got = text[4:-3].split(",\n  ")
        want = [reportio.format_float(v) for v in values.tolist()]
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
            pytest.fail(f"{len(got)} texts for {len(want)} values, {len(bad)} differ: {bad[:10]}")

    @given(doc=REPORT_DOCUMENTS)
    @example(doc=WERNER_REPORT)
    @example(doc={"a": [np.arange(6.0).reshape(2, 3) / 7, -0.0, math.inf, 2 ** 64],
                  "c": np.arange(3.0), "d": ("x\\\"\u00e9", -7)})
    @settings(max_examples=150, deadline=None)
    def test_dump_matches_oracle(self, doc):
        # the text between two arrays and each array's chunks are pieces
        # of their own; they join to the walker oracle's text
        pieces = []
        reportio.dump(doc, pieces.append)
        assert all(type(piece) is bytes for piece in pieces)
        assert b"".join(pieces) == oracle_dump(doc).encode("ascii")

    @pytest.mark.parametrize("value", [
        object(), {1}, 1j, np.bool_(True), b"x", np.array([1j]), bift.cli.Check,
        np.int64(-7), np.int32(5), np.float64(math.inf), TextSubclass("x"),
        np.arange(4).reshape(2, 2), np.array([[1.5, -0.0], [math.inf, 3e-45]], dtype=np.float32),
        np.array(-0.0), np.array(7, dtype=np.int64), np.zeros((2, 0)), np.zeros((2, 0, 3)),
    ], ids=["object", "set", "complex", "numpy-bool", "bytes", "complex-array", "record-class",
            "numpy-int64", "numpy-int32", "numpy-float64", "str-subclass", "int64-array",
            "float32-array", "0-d-array", "0-d-int64-array", "empty-array", "empty-3-axis-array"])
    def test_other_values_raise_type_error(self, value):
        # a report holds only records, str-keyed dicts, lists, tuples,
        # non-empty float64 arrays and builtin scalars
        with pytest.raises(TypeError, match="cannot serialize"):
            reportio.dump({"k": [0.5, value]}, [].append)

    @pytest.mark.parametrize("argv", [
        ("--scenario", "werner", "--p", "0.37"),
        ("--scenario", "counterexample", "--p", "0.5"),
        ("--scenario", "random", "--dims", "3,3,2", "--seed", "7"),
        ("--config", "rank-deficient.json"),
        ("--config", "explicit.json"),
        ("--scenario", "random", "--dims", "2,3,2", "--seed", "7", "--emit-tuples"),
    ], ids=["werner", "counterexample-unitary", "random",
            "random-rank-deficient", "explicit", "random-emit-tuples"])
    def test_run_documents_hold_only_report_kinds(self, tmp_path, monkeypatch, argv):
        # what the writer takes is closed: a numpy scalar that reached a
        # report would be a TypeError, which exits 1 as a failed check would
        monkeypatch.chdir(tmp_path)
        configs = {"rank-deficient.json": {"scenario": "random", "dims": [3, 3, 2], "seed": 7,
                                           "rank_deficient": True},
                   "explicit.json": {"system": VALID_SYSTEM}}
        for name, cfg in configs.items():
            (tmp_path / name).write_text(json.dumps(cfg))
        docs = []
        with mock.patch.object(reportio, "dump", lambda doc, write: docs.append(doc)):
            assert main(["run", *argv, "--out", "report.json"]) == 0
        assert_report_kinds(docs[0])
        assert ("tables" in docs[0]) == ("--emit-tuples" in argv)

    @pytest.mark.parametrize("record", [
        dataclasses.replace(WERNER_REPORT, detailed_worst=None),
        dataclasses.replace(WERNER_REPORT, detailed_worst=OutcomeTuple(3, 1, 0, 2, 1, 1, 0, 0)),
        bift.cli.Check("detailed_ft", 1e-17, True, "worst trajectory (0, 0, 0, 0, 0, 0, 0, 0)"),
        bift.cli.Check("bound:x", math.nan, True),
        OneMember(bift.cli.Check("x", 0.5, False)),
        NoMembers(),
    ], ids=["report-no-worst", "report-worst", "check", "check-nan", "one-member", "no-members"])
    def test_record_emits_like_asdict(self, record):
        assert report_text({"r": record}) == report_text({"r": dataclasses.asdict(record)})


# Config fuzz: values of every JSON kind under the keys the front-end reads.
# Every accepted system is at most (3,3,3): dims entries are at most 3 or
# 10**6 (which the size guard rejects), and the explicit system is (2,1,2).
SCALARS = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, 10**6]),
    st.sampled_from([0.0, 0.37, 1.0, -0.5, 1e-12, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "x", "0.5", "0:1:3", "0.2,0.8", "1:0:0", "werner", "random",
                     "counterexample"]),
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["p", "dims", "equality", "x"]), inner, max_size=2)),
    max_leaves=6)
VALID_SYSTEM = {
    "dims": [2, 1, 2],
    "rho_ab": encode_complex_matrix(np.diag([0.75, 0.25])),
    "unitary": encode_complex_matrix(np.eye(4)[[1, 0, 3, 2]]),
    "reservoir": {"energies": [0.0, 1.0], "beta": 1.0},
}


def _either(valid, *more):
    return st.one_of(st.sampled_from(valid), VALUES, *more)


def _optional(fields):
    return st.fixed_dictionaries({}, optional=fields)


FUZZ_VALUES = {
    "scenario": _either(["werner", "counterexample", "random"]),
    "p": _either([0.5, "0.1:0.9:3", [0.2, 1.0]]),
    "beta": _either([0.5, 2.0]),
    "seed": _either([0, 7, 2**40]),
    "dims": _either([[2, 2, 2], [3, 3, 3], [1, 2, 3]], st.lists(SCALARS, min_size=3, max_size=3)),
    "tolerance": _either([0.0, 1e-6, 1e-3, 0.1], st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(DEFAULT_TOL)] + ["equalty"]),
        st.one_of(st.sampled_from([1e-3, 0.1]), SCALARS), max_size=2)),
    "rank_deficient": VALUES,
    "emit_tuples": VALUES,
    "system": _either([VALID_SYSTEM], _optional({
        key: st.one_of(st.just(value), VALUES) for key, value in VALID_SYSTEM.items()}),
        # reservoirs at and beyond the largest beta * (max E - min E)
        st.sampled_from([{**VALID_SYSTEM, "reservoir": {"energies": [0.0, e], "beta": 1.0}}
                         for e in (700.0, 709.78, 709.79, 1e308)])),
}
# Valid configs with up to two keys replaced, so that accepted systems
# and failed checks (exit 1) are drawn as often as rejected configs.
VALID_CONFIGS = [
    {"scenario": "werner", "p": 0.37},
    {"scenario": "werner", "p": "0:1:3", "beta": 2.0, "tolerance": 0.0},
    {"scenario": "counterexample", "p": 0.5},
    {"scenario": "random", "seed": 7, "dims": [3, 3, 3], "rank_deficient": True},
    {"scenario": "random", "dims": [1, 2, 3], "tolerance": {"equality": 0.0}},
    {"system": VALID_SYSTEM, "emit_tuples": True},
]
FUZZ_CONFIGS = st.one_of(
    _optional(FUZZ_VALUES),
    st.builds(lambda base, changes: {**base, **dict(changes)},
              st.sampled_from(VALID_CONFIGS),
              st.lists(st.sampled_from(sorted(FUZZ_VALUES)).flatmap(
                  lambda key: st.tuples(st.just(key), FUZZ_VALUES[key])), max_size=2)),
)


# Flags drawn beside the config: valid values, malformed ones, grid
# strings, and the two bare flags on every command.  No valid grid is
# long enough to take more than a moment.
FUZZ_FLAG_VALUES = {
    "--scenario": ["werner", "counterexample", "random", "bogus"],
    "--p": ["0.5", "1", "0:1:3", "0.1,0.9", "1:0:0", "0:1:-2", "0:1", "0:1:2.5", "x", "",
            "nan", "1e400", "0:1:1000000000000000", "0:inf:3"],
    "--beta": ["1", "0.5", "0", "-1", "nan", "inf", "1e308", "1e-310", "x"],
    "--seed": ["0", "7", "-1", "x", str(2**70)],
    "--dims": ["2,2,2", "1,1,2", "1,2,3", "3,3,3", "0,2,2", "2,2", "x", "100000,100000,1"],
    "--tolerance": ["0", "1e-6", "1e-3", "0.1", "-1", "nan", "1e308"],
}
FUZZ_FLAGS = st.lists(st.one_of(
    st.sampled_from(sorted(FUZZ_FLAG_VALUES)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(FUZZ_FLAG_VALUES[flag]))),
    st.sampled_from([("--emit-tuples",), ("--corrupt-reverse",)])), max_size=4)


def test_fuzz_draws_every_config_key():
    assert set(FUZZ_VALUES) == bift.cli.CONFIG_KEYS


@given(command=st.sampled_from(["run", "verify", "sweep"]), config=FUZZ_CONFIGS,
       flags=FUZZ_FLAGS)
@example(command="sweep", config={},
         flags=[("--scenario", "werner"), ("--p", "0:1:1000000000000000")])
@example(command="run", flags=[], config={"system": {
    **VALID_SYSTEM, "reservoir": {"energies": [0.0, 1e308], "beta": 1e308}}})
# forward_factorization reads 1.17e-16 here, which a zero trace tolerance fails
@example(command="verify", flags=[],
         config={"scenario": "counterexample", "p": 0.37, "tolerance": {"trace": 0.0}})
@settings(max_examples=150, deadline=None)
def test_config_fuzz_exit_contract(tmp_path_factory, command, config, flags):
    """0, 1 or 2 and nothing raised; 2 carries one ``error:`` line (after
    the usage line when argparse rejects the flags), 1 a failed check: a
    ``FAIL`` line (verify), ``"passed": false`` (run), or a complete table
    (sweep, whose CSV has no pass column).  A valid system exits 1 only
    on the user's own demand: an equality, bound or trace tolerance below
    1e-15, an orthonormality tolerance above its default, or
    ``--corrupt-reverse``."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.json").write_text(json.dumps(config))
    out = work / "out.txt"
    argv = [command, *(tok for flag in flags for tok in flag),
            "--config", str(work / "config.json"), "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: usage, then one error line
            assert exc.code == 2
            lines = err.getvalue().splitlines()
            assert [ln for ln in lines if "error:" in ln] == lines[-1:]
            assert "Traceback" not in err.getvalue()
            return
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert code in (0, 1) and err.getvalue() == ""
    if code == 1:
        tol, _ = bift.cli.validate_config(
            bift.cli.merge_config(bift.cli.build_parser().parse_args(argv)), command)
        assert (min(tol.equality, tol.bound, tol.trace) < 1e-15
                or tol.orthonormality > DEFAULT_TOL.orthonormality
                or ("--corrupt-reverse",) in flags), tol
    text = out.read_text()
    if command == "run":
        assert json.loads(text)["passed"] is (code == 0)
    elif command == "verify":
        assert ("FAIL" in text) is (code == 1)
    else:
        assert text.startswith(",".join(bift.cli.SWEEP_COLUMNS) + "\n")
