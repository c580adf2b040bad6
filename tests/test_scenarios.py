import dataclasses
import math

import numpy as np
import pytest

from bift.errors import BiftError
from bift.scenarios import (
    bell_adiabatic_counterexample,
    bell_basis,
    counterexample_delta_i_avg,
    counterexample_reverse_avg,
    random_instance,
    report_value,
    werner_delta_i_avg,
    werner_isothermal,
)
from bift.tables import spectra_from_unitary
from bift.theorems import Averages, evaluate, ln_or_neg_inf

from conftest import (
    dense_tables,
    evaluate_scenario,
    oracle_counterexample_spectra,
    random_classical_instance,
    werner_state,
)

LN2 = math.log(2.0)


class TestWernerScenario:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_forward_table_matches_listing(self, p):
        fwd = dense_tables(werner_isothermal(p).spectra)[0]
        top = (1 + 3 * p) / 8
        rest = (1 - p) / 8
        want = {
            (0, 0, 0): top, (0, 1, 1): top,
            (1, 0, 0): rest, (1, 1, 1): rest,
            (2, 0, 1): rest, (2, 1, 0): rest,
            (3, 0, 1): rest, (3, 1, 0): rest,
        }
        for (m, a, b), value in want.items():
            assert fwd[m, a, b, 0, 0, 0, 0, 0] == pytest.approx(value, abs=1e-15)
        assert fwd.sum() == pytest.approx(1.0, abs=1e-12)
        # nothing anywhere else
        mask = np.ones(fwd.shape, dtype=bool)
        for (m, a, b) in want:
            mask[m, a, b, 0, 0, 0, 0, 0] = False
        assert np.max(fwd[mask]) == 0.0

    def test_reverse_table_eight_eighths(self):
        spectra = werner_isothermal(0.4).spectra
        rev = dense_tables(spectra)[1]
        nz = np.argwhere(rev > 0.0)
        assert len(nz) == 8
        assert np.max(np.abs(rev[rev > 0.0] - 0.125)) < 1e-15

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_reference_values_reproduced(self, p):
        scenario = werner_isothermal(p)
        report = evaluate_scenario(scenario).report
        for key, want in scenario.reference.items():
            assert report_value(report, key) == pytest.approx(want, abs=1e-10), key

    def test_report_value_keys(self):
        rep = evaluate_scenario(werner_isothermal(0.5)).report
        assert report_value(rep, "ln_gamma") == rep.ln_gamma
        assert report_value(rep, "ln_reverse_avg_exp_di") == \
            ln_or_neg_inf(rep.reverse_avg_exp_di)
        assert report_value(rep, "delta_j_avg") == rep.averages.delta_j
        assert report_value(rep, "work_bound_info_gamma_slack") == \
            rep.bound("work_bound_info_gamma").slack
        for key in ("nope", "nope_avg", "nope_slack", "averages", "bounds", "bound", "ln_nope"):
            with pytest.raises(KeyError):
                report_value(rep, key)

    def test_closed_form_delta_i(self):
        # same closed form written through the eigenvalues of the state
        for p in (0.2, 0.6, 0.95):
            top, rest = (1 + 3 * p) / 4, (1 - p) / 4
            eq_form = (-2 * LN2 - top * math.log(top) - 3 * rest * math.log(rest))
            assert werner_delta_i_avg(p) == pytest.approx(eq_form, abs=1e-12)

    def test_state_helper_matches_spectrum(self):
        dec = np.sort(np.linalg.eigvalsh(werner_state(0.8)))[::-1]
        assert dec == pytest.approx([0.85, 0.05, 0.05, 0.05])

    def test_bell_basis_orthonormal(self):
        b = bell_basis()
        assert np.max(np.abs(b.T @ b - np.eye(4))) < 1e-15

    def test_domain_errors(self):
        with pytest.raises(BiftError, match=r"werner fraction must lie in \[0, 1\], got -0.1"):
            werner_isothermal(-0.1)
        with pytest.raises(BiftError, match=r"werner fraction must lie in \[0, 1\], got 1.1"):
            werner_isothermal(1.1)
        with pytest.raises(BiftError, match="beta must be positive with ln2/beta finite, got 0.0"):
            werner_isothermal(0.5, beta=0.0)

    def test_beta_scales_work_bounds_only(self):
        r1 = evaluate_scenario(werner_isothermal(0.5, beta=1.0)).report
        r2 = evaluate_scenario(werner_isothermal(0.5, beta=2.0)).report
        assert r1.averages.beta_q == pytest.approx(r2.averages.beta_q)
        assert r1.bound("work_bound_reverse_info").slack == pytest.approx(0.0, abs=1e-12)
        assert r2.bound("work_bound_reverse_info").slack == pytest.approx(0.0, abs=1e-12)


class TestCounterexampleScenario:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_forms_via_engine(self, p):
        rep = evaluate_scenario(bell_adiabatic_counterexample(p)).report
        assert rep.averages.delta_i == pytest.approx(
            counterexample_delta_i_avg(p), abs=1e-10)
        assert rep.reverse_avg_exp_di == pytest.approx(
            counterexample_reverse_avg(p), abs=1e-10)
        assert rep.gamma_restricted == pytest.approx(1.0, abs=1e-10)

    def test_frozen_midpoint_values(self):
        rep = evaluate_scenario(bell_adiabatic_counterexample(0.5)).report
        # 1.5 ln 1.5 + 0.5 ln 0.5 and 1.25/1.125, evaluated once and frozen
        assert rep.averages.delta_i == pytest.approx(0.26162407188227393, abs=1e-12)
        assert rep.reverse_avg_exp_di == pytest.approx(10.0 / 9.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.35, 0.65, 0.95])
    def test_routes_agree(self, p):
        # every float of the propagator's report against the injected-kernel
        # reference but the worst trajectory, which ties at rounding noise
        unitary = evaluate_scenario(bell_adiabatic_counterexample(p)).report
        analytic = evaluate(oracle_counterexample_spectra(p)).report
        pairs = [(name, getattr(unitary, name), getattr(analytic, name)) for name in (
            "integral_ft_lhs", "gamma_restricted", "ln_gamma", "reverse_ft_lhs",
            "reverse_avg_exp_di", "reverse_avg_exp_di_full", "bound_gap")]
        pairs += [(f.name, getattr(unitary.averages, f.name), getattr(analytic.averages, f.name))
                  for f in dataclasses.fields(Averages)]
        for name, got, want in pairs:
            assert got == pytest.approx(want, abs=1e-10), name
        assert [rec.name for rec in unitary.bounds] == [rec.name for rec in analytic.bounds]
        for got, want in zip(unitary.bounds, analytic.bounds):
            assert (got.lhs, got.rhs) == pytest.approx((want.lhs, want.rhs), abs=1e-10,
                                                       nan_ok=True), got.name
            assert got.applicable == want.applicable, got.name

    def test_ordering_strict_inside_interval(self):
        for p in np.linspace(0.05, 0.95, 19):
            rep = evaluate_scenario(bell_adiabatic_counterexample(float(p))).report
            assert -math.log(rep.reverse_avg_exp_di) < rep.averages.delta_i

    def test_limits_vanish(self):
        assert counterexample_delta_i_avg(1e-9) == pytest.approx(0.0, abs=1e-8)
        assert counterexample_reverse_avg(1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BiftError, match=r"counterexample fraction must lie in \(0, 1\)"):
                bell_adiabatic_counterexample(bad)


class TestSweepShape:
    def test_bound_gap_monotone_on_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        gaps = [evaluate_scenario(werner_isothermal(float(p))).report.bound_gap for p in grid]
        assert gaps[0] == pytest.approx(0.0, abs=1e-12)
        assert all(g >= -1e-12 for g in gaps)
        assert all(b - a >= -1e-10 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(2 * LN2, abs=1e-10)


class TestRandomInstances:
    def test_deterministic_per_seed(self):
        a = random_instance(2, 3, 2, seed=77)
        b = random_instance(2, 3, 2, seed=77)
        assert np.array_equal(a.rho_ab.matrix, b.rho_ab.matrix)
        assert np.array_equal(a.unitary, b.unitary)
        assert a.reservoir.energies == b.reservoir.energies
        ra = evaluate(spectra_from_unitary(a)).report
        rb = evaluate(spectra_from_unitary(b)).report
        assert ra.integral_ft_lhs == rb.integral_ft_lhs

    def test_full_rank_unity(self):
        rep = evaluate(spectra_from_unitary(random_instance(3, 2, 3, seed=5))).report
        assert rep.gamma_restricted == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficiency_produces_irreversibility(self):
        gammas = []
        for seed in range(8):
            system = random_instance(2, 2, 2, seed, rank_deficient=True)
            gammas.append(evaluate(spectra_from_unitary(system)).report.gamma_restricted)
        assert any(g < 0.999 for g in gammas)
        assert all(0.0 <= g <= 1.0 + 1e-12 for g in gammas)

    def test_spectrum_floor(self):
        # the Dirichlet draw mixed 10% toward uniform keeps every level at
        # 0.1/dim or above, up to the rounding of the decomposition
        system = random_instance(3, 3, 2, seed=101)
        probs = system.rho_ab.decomposition.probabilities
        assert probs.min() >= 0.1 / 9 * (1 - 1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_flag_duplicates_levels(self):
        system = random_instance(2, 2, 1, seed=8, degenerate=True)
        p = np.sort(system.rho_ab.decomposition.probabilities)
        gaps = np.diff(p)
        assert np.min(np.abs(gaps)) < 1e-12

    def test_classical_instances_are_diagonal(self):
        system = random_classical_instance(2, 2, 2, seed=3)
        off = system.rho_ab.matrix - np.diag(np.diag(system.rho_ab.matrix))
        assert np.max(np.abs(off)) == 0.0

    def test_beta_domain(self):
        with pytest.raises(BiftError, match="beta must be positive with 5/beta finite, got -1.0"):
            random_instance(2, 2, 2, seed=0, beta=-1.0)
