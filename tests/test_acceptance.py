"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured residuals (run pytest with -s to see them on success).

Tolerances are pinned here, not configurable: equalities and slacks at
1e-10 absolute, per-trajectory info-content agreement at 1e-12.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from bift.cli import main
from bift.functionals import shannon_entropy
from bift.scenarios import (
    bell_adiabatic_counterexample,
    counterexample_delta_i_avg,
    counterexample_reverse_avg,
    random_instance,
    werner_delta_i_avg,
    werner_isothermal,
)
from bift.tables import spectra_from_unitary
from bift.theorems import evaluate

from conftest import (
    dense_classical_reduction_check,
    dense_view,
    evaluate_scenario,
    random_classical_instance,
    remix_derived_decompositions,
    remix_initial,
)

LN2 = math.log(2.0)
TOL = 1e-10


def report_line(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_werner_pure_quarter():
    start = time.perf_counter()
    rep = evaluate_scenario(werner_isothermal(1.0, beta=1.0)).report
    elapsed = time.perf_counter() - start
    assert abs(rep.gamma_restricted - 0.25) < TOL
    assert abs(rep.integral_ft_lhs - 0.25) < TOL
    assert elapsed < 1.0
    report_line(1, f"gamma={rep.gamma_restricted:.12f} integral={rep.integral_ft_lhs:.12f} "
                   f"in {elapsed * 1e3:.1f} ms")


def test_criterion_2_werner_mixed_unity():
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        rep = evaluate_scenario(werner_isothermal(float(p))).report
        worst = max(worst, abs(rep.gamma_restricted - 1.0),
                    abs(rep.integral_ft_lhs - 1.0))
    assert worst < TOL
    report_line(2, f"max |gamma - 1|, |integral - 1| over p grid = {worst:.3e}")


def test_criterion_3_reverse_average_unity():
    worst_avg, worst_eq = 0.0, 0.0
    for p in np.linspace(0.0, 1.0, 21):
        rep = evaluate_scenario(werner_isothermal(float(p))).report
        worst_avg = max(worst_avg, abs(rep.reverse_avg_exp_di - 1.0))
        worst_eq = max(worst_eq, abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di))
    assert worst_avg < TOL
    assert worst_eq < TOL
    report_line(3, f"max |<exp(-dI)>_rev - 1| = {worst_avg:.3e}, "
                   f"max reverse-relation residual = {worst_eq:.3e}")


def test_criterion_4_entropy_balance_and_bounds():
    worst = {"balance": 0.0, "bq": 0.0, "ds": 0.0, "sat": 0.0, "slack7": 0.0}
    for p in np.linspace(0.0, 1.0, 21):
        rep = evaluate_scenario(werner_isothermal(float(p))).report
        avg = rep.averages
        worst["balance"] = max(worst["balance"],
                               abs(avg.delta_s_a + avg.delta_s_b - avg.beta_q))
        worst["bq"] = max(worst["bq"], abs(avg.beta_q + 2 * LN2))
        worst["ds"] = max(worst["ds"], abs(avg.delta_s_a + LN2), abs(avg.delta_s_b + LN2))
        worst["sat"] = max(worst["sat"], abs(rep.bound("heat_bound_reverse_info").slack))
        want_slack = -werner_delta_i_avg(float(p)) + rep.ln_gamma
        got_slack = rep.bound("heat_bound_info_gamma").slack
        assert got_slack >= -TOL
        worst["slack7"] = max(worst["slack7"], abs(got_slack - want_slack))
    assert worst["balance"] < TOL
    assert worst["bq"] < TOL
    assert worst["ds"] < TOL
    assert worst["sat"] < TOL
    assert worst["slack7"] < TOL
    report_line(4, "entropy balance, heat, saturation and slack residuals all "
                   f"< {max(worst.values()):.3e}")


def test_criterion_5_bound_gap_curve():
    grid = np.linspace(0.0, 1.0, 101)
    gaps = [evaluate_scenario(werner_isothermal(float(p))).report.bound_gap for p in grid]
    assert all(g >= -TOL for g in gaps)
    assert all(b - a >= -TOL for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[-1] - 2 * LN2) < TOL
    report_line(5, f"101-point gap curve nonnegative, nondecreasing, "
                   f"gap(1) = {gaps[-1]:.12f} (2 ln 2)")


def test_criterion_6_counterexample_grid():
    worst_di, worst_rev = 0.0, 0.0
    for p in np.linspace(0.045, 0.955, 21):
        rep = evaluate_scenario(bell_adiabatic_counterexample(float(p))).report
        worst_di = max(worst_di, abs(rep.averages.delta_i
                                     - counterexample_delta_i_avg(float(p))))
        worst_rev = max(worst_rev, abs(rep.reverse_avg_exp_di
                                       - counterexample_reverse_avg(float(p))))
        assert -math.log(rep.reverse_avg_exp_di) < rep.averages.delta_i
    assert worst_di < TOL
    assert worst_rev < TOL
    report_line(6, f"21-point closed-form residuals: dI {worst_di:.3e}, "
                   f"reverse avg {worst_rev:.3e}, ordering strict")


def test_criterion_7_random_instance_battery():
    start = time.perf_counter()
    dims_cycle = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 3),
                  (2, 3, 3), (3, 3, 2), (2, 2, 4), (3, 3, 4)]
    worst = {"detailed": 0.0, "integral": 0.0, "reverse": 0.0, "norm": 0.0,
             "marginal": 0.0, "info": 0.0}
    min_slack = math.inf
    gammas = []
    count = 0
    for seed in range(25):
        for i, dims in enumerate(dims_cycle):
            rank_deficient = (len(dims_cycle) * seed + i) % 5 == 0   # every fifth system
            system = random_instance(*dims, seed=1000 * seed + i,
                                     rank_deficient=rank_deficient)
            spectra = spectra_from_unitary(system)
            analysis = evaluate(spectra)
            rep = analysis.report
            forward, reverse = (dense_view(spectra, spectra.two_point(reverse))
                                for reverse in (False, True))
            gammas.append(rep.gamma_restricted)
            worst["detailed"] = max(worst["detailed"], rep.detailed_max_residual)
            worst["integral"] = max(worst["integral"],
                                    abs(rep.integral_ft_lhs - rep.gamma_restricted))
            worst["reverse"] = max(worst["reverse"],
                                   abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di))
            worst["norm"] = max(worst["norm"], abs(forward.sum() - 1.0),
                                abs(reverse.sum() - 1.0))
            min_slack = min(min_slack, rep.bound("heat_bound_info_gamma").slack,
                            rep.bound("heat_bound_reverse_info").slack)
            # marginal identities
            got = forward.sum(axis=(3, 4, 5, 7))
            init = spectra.initial
            want = (init.cond[:, :, :, None]
                    * init.p_m[:, None, None, None] * spectra.p_r[None, None, None, :])
            worst["marginal"] = max(
                worst["marginal"], float(np.max(np.abs(got - want))),
                float(np.max(np.abs(forward.sum(axis=(0, 2, 3, 4, 5, 6, 7))
                                    - init.p_a))))
            # <I> equals the quantum mutual information
            info_i = analysis.functionals.initial.info
            avg_info = float(np.sum(np.where(
                forward > 0,
                forward * info_i[:, :, :, None, None, None, None, None], 0.0)))
            qmi = (shannon_entropy(init.p_a) + shannon_entropy(init.p_b)
                   - shannon_entropy(init.p_m))
            worst["info"] = max(worst["info"], abs(avg_info - qmi))
            count += 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert worst["detailed"] < TOL
    assert worst["integral"] < TOL
    assert worst["reverse"] < TOL
    assert worst["norm"] < TOL
    assert worst["marginal"] < TOL
    assert worst["info"] < TOL
    assert min_slack >= -TOL
    assert elapsed < 60.0
    report_line(7, f"{count} instances in {elapsed:.1f} s; worst residuals "
                   + ", ".join(f"{k}={v:.3e}" for k, v in worst.items())
                   + f", min slack {min_slack:.3e}; gamma in [{min(gammas):.6f}, "
                   f"{max(gammas):.6f}], {sum(g < 1 - TOL for g in gammas)} below 1")


def test_criterion_8_classical_reduction():
    worst_ft, worst_gap = 0.0, 0.0
    for seed in range(50):
        dims = [(2, 2, 2), (2, 3, 2), (3, 2, 2)][seed % 3]
        system = random_classical_instance(*dims, seed=seed)
        spectra = spectra_from_unitary(system)
        residual, max_gap = dense_classical_reduction_check(spectra)
        worst_ft = max(worst_ft, residual)
        worst_gap = max(worst_gap, max_gap)
    assert worst_ft < TOL
    assert worst_gap < 1e-12
    report_line(8, f"50 diagonal instances: classical-relation residual "
                   f"{worst_ft:.3e}, max per-trajectory |dI - dJ| {worst_gap:.3e}")


def test_criterion_9_gauge_robustness(monkeypatch):
    # The initial eigenbasis is re-gauged on the state; the final and
    # local ones as spectra_from_unitary derives them: every degenerate
    # block is rotated and every other eigenvector takes a random phase.
    # A phase moves no output.  A rotation inside a degenerate block moves
    # the two reverse averages, which weigh |<a,b|m>|^2 |<m',r'|U|m,r>|^2
    # per basis vector m, so they are compared on the non-degenerate
    # systems only, where the re-gauging is phases alone.
    worst = 0.0
    rng = np.random.default_rng(10_000)
    remix_derived_decompositions(monkeypatch, rng)
    for seed in range(40):
        dims = [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 2)][seed % 4]
        degenerate = seed < 20
        system = random_instance(*dims, seed=seed, degenerate=degenerate)
        values = []
        for _ in range(5):
            spectra = spectra_from_unitary(remix_initial(system, rng))
            rep = evaluate(spectra).report
            reverse = () if degenerate else (rep.reverse_ft_lhs, rep.reverse_avg_exp_di)
            values.append((rep.integral_ft_lhs, rep.gamma_restricted,
                           *dataclasses.astuple(rep.averages), *reverse))
        worst = max(worst, float(np.ptp(np.array(values), axis=0).max()))
    assert worst < TOL
    report_line(9, f"20 degenerate and 20 non-degenerate systems x 5 remixings: "
                   f"max spread {worst:.3e}")


def test_criterion_10_negative_control(tmp_path):
    out = tmp_path / "verify.txt"
    code = main(["verify", "--scenario", "werner", "--p", "0.8",
                 "--corrupt-reverse", "--out", str(out)])
    text = out.read_text()
    assert code != 0
    assert "FAIL detailed_ft" in text
    clean = main(["verify", "--scenario", "werner", "--p", "0.8",
                  "--out", str(tmp_path / "clean.txt")])
    assert clean == 0
    report_line(10, f"corrupted reverse table exits {code} and names the "
                    "detailed check; clean run exits 0")
