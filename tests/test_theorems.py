import dataclasses
import math

import numpy as np
import pytest

from bift.errors import NotApplicable
from bift.functionals import HeatPartition, average, tuple_functionals
from bift.linalg import (
    ReservoirSpec,
    density_operator,
    haar_unitary,
    remix_degenerate_blocks,
)
from bift.scenarios import (
    bell_adiabatic_counterexample,
    random_classical_instance,
    random_instance,
    werner_isothermal,
    werner_state,
)
from bift.tables import (
    UnitarySystem,
    augmented_forward,
    reverse_joint,
    spectra_from_analytic,
    spectra_from_unitary,
)
from bift.theorems import (
    classical_reduction_check,
    corrupt_reverse,
    detailed_ft_check,
    evaluate,
    integral_ft,
    reverse_averaged_ft,
)

LN2 = math.log(2.0)


def analyze(system, **kwargs):
    return evaluate(spectra_from_unitary(system), **kwargs)


def ar_permutation_unitary(d_a, d_b, d_r, rng):
    """Permutation of the (A, R) register that leaves B untouched."""
    perm = rng.permutation(d_a * d_r)
    u = np.zeros((d_a * d_b * d_r,) * 2)
    for a in range(d_a):
        for r in range(d_r):
            src = a * d_r + r
            dst = int(perm[src])
            a2, r2 = divmod(dst, d_r)
            for b in range(d_b):
                u[(a2 * d_b + b) * d_r + r2, (a * d_b + b) * d_r + r] = 1.0
    return u.astype(complex)


class TestDetailedFT:
    def test_werner_pure_trajectory_ratio(self):
        analysis = werner_isothermal(1.0).analysis
        idx = (0, 0, 0, 0, 0, 0, 0, 0)
        p_fwd = analysis.forward.table[idx]
        p_rev = analysis.reverse.table[idx]
        assert p_fwd == pytest.approx(0.5)
        assert p_rev == pytest.approx(0.125)
        expo = np.broadcast_to(analysis.functionals.ft_exponent(),
                               analysis.forward.table.shape)[idx]
        assert expo == pytest.approx(-2 * LN2)
        assert p_rev / p_fwd == pytest.approx(math.exp(expo), abs=1e-12)
        assert analysis.report.detailed_max_residual < 1e-10

    def test_identity_on_product_full_rank(self):
        rho = density_operator(np.diag([0.28, 0.22, 0.3, 0.2]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0, 1.0), 1.0),
                               np.eye(8, dtype=complex))
        analysis = analyze(system)
        f, r = analysis.forward.table, analysis.reverse.table
        mask = f > 1e-12 * f.max()
        ratios = r[mask] / f[mask]
        expo = np.broadcast_to(np.exp(analysis.functionals.ft_exponent()), f.shape)[mask]
        assert np.max(np.abs(ratios - expo)) < 1e-12
        assert analysis.report.detailed_max_residual < 1e-12

    @pytest.mark.parametrize("seed", [3, 19, 42])
    def test_random_instances(self, seed):
        analysis = analyze(random_instance(2, 2, 2, seed))
        assert analysis.report.detailed_max_residual < 1e-10

    def test_reports_worst_trajectory(self):
        analysis = analyze(random_instance(2, 2, 2, 7))
        resid, worst = detailed_ft_check(analysis.forward, analysis.reverse,
                                         analysis.functionals)
        assert worst is not None
        assert all(isinstance(i, int) for i in worst)


class TestIntegralFT:
    def test_werner_values(self):
        assert werner_isothermal(1.0).report.integral_ft_lhs == pytest.approx(0.25, abs=1e-12)
        assert werner_isothermal(0.5).report.integral_ft_lhs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 5, 12])
    def test_full_rank_gives_unity(self, seed):
        analysis = analyze(random_instance(2, 3, 3, seed))
        assert analysis.report.integral_ft_lhs == pytest.approx(1.0, abs=1e-10)
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 4, 8])
    def test_matches_restricted_mass_when_rank_deficient(self, seed):
        analysis = analyze(random_instance(2, 2, 2, seed, rank_deficient=True))
        rep = analysis.report
        assert abs(rep.integral_ft_lhs - rep.gamma_restricted) < 1e-10

    def test_rank_deficiency_can_break_unity(self):
        gammas = [analyze(random_instance(2, 2, 2, s, rank_deficient=True))
                  .report.gamma_restricted for s in range(6)]
        assert any(g < 1.0 - 1e-6 for g in gammas)


class TestReverseAveragedFT:
    def test_werner_pure_expansion(self):
        analysis = werner_isothermal(1.0).analysis
        lhs, rhs = reverse_averaged_ft(analysis.forward, analysis.reverse,
                                       analysis.functionals)
        # two restricted reverse trajectories of mass 1/8, each with
        # exp(-dI) = exp(2 ln 2) = 4
        assert rhs == pytest.approx(2 * 0.125 * 4.0, abs=1e-12)
        assert lhs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_werner_mixed_unity(self, p):
        rep = werner_isothermal(p).report
        assert rep.reverse_avg_exp_di == pytest.approx(1.0, abs=1e-12)
        assert rep.reverse_ft_lhs == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_identity_process(self):
        rho = density_operator(np.diag([0.42, 0.28, 0.18, 0.12]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0,), 1.0),
                               np.eye(4, dtype=complex))
        analysis = analyze(system)
        assert analysis.report.reverse_ft_lhs == pytest.approx(1.0, abs=1e-12)
        assert analysis.report.reverse_avg_exp_di == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [6, 14, 33])
    def test_equality_on_random_instances(self, seed):
        rep = analyze(random_instance(3, 2, 2, seed)).report
        assert abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di) < 1e-10


class TestBounds:
    def test_werner_pure_saturates_both(self):
        rep = werner_isothermal(1.0).report
        avg = rep.averages
        assert avg.delta_s_a + avg.delta_s_b - avg.beta_q == pytest.approx(0.0, abs=1e-12)
        assert rep.bound("heat_bound_info_gamma").slack == pytest.approx(0.0, abs=1e-10)
        assert rep.bound("heat_bound_reverse_info").slack == pytest.approx(0.0, abs=1e-10)

    def test_werner_mixed_reverse_tighter(self):
        rep = werner_isothermal(0.5).report
        assert rep.bound("heat_bound_reverse_info").slack == pytest.approx(0.0, abs=1e-10)
        assert rep.bound("heat_bound_info_gamma").slack == pytest.approx(
            -rep.averages.delta_i, abs=1e-10)
        assert rep.bound_gap > 0.0

    def test_counterexample_reverses_ordering(self):
        rep = bell_adiabatic_counterexample(0.5).report
        # here the reverse-averaged bound is weaker than the plain one
        assert rep.bound_gap < 0.0
        assert -math.log(rep.reverse_avg_exp_di) < rep.averages.delta_i

    def test_plain_bound_implied_by_gamma_form(self):
        for p in (0.3, 1.0):
            rep = werner_isothermal(p).report
            plain = rep.bound("heat_bound_info_plain")
            gamma_form = rep.bound("heat_bound_info_gamma")
            assert plain.applicable and plain.satisfied
            assert plain.slack >= gamma_form.slack - 1e-12

    def test_jensen_never_violated_randomly(self):
        for seed in range(8):
            rep = analyze(random_instance(2, 2, 2, seed)).report
            assert rep.bound("heat_bound_info_gamma").slack >= -1e-10
            assert rep.bound("heat_bound_reverse_info").slack >= -1e-10

    def test_work_bounds_on_werner(self):
        rep = werner_isothermal(1.0).report
        wa = rep.bound("work_bound_info_gamma")
        wb = rep.bound("work_bound_reverse_info")
        assert wa.applicable and wb.applicable
        assert wa.slack == pytest.approx(0.0, abs=1e-10)
        assert wb.slack == pytest.approx(0.0, abs=1e-10)

    def test_work_bounds_absent_without_inputs(self):
        rep = bell_adiabatic_counterexample(0.5).report
        assert rep.bound("work_bound_info_gamma").applicable is False
        assert rep.bound("work_bound_info_gamma").satisfied is None

    def test_erasure_bounds_marked_inapplicable_on_werner(self):
        rep = werner_isothermal(0.5).report
        for name in ("erasure_bound_classical", "erasure_bound_info_gamma",
                     "erasure_bound_reverse_info"):
            rec = rep.bound(name)
            assert rec.applicable is False
            assert rec.note != ""

    def test_erasure_bounds_on_static_observer(self, rng):
        # a permutation coupling A with R only: B untouched, state diagonal,
        # so the classical reduction applies and <ds_B> = 0
        d_a, d_b, d_r = 2, 2, 3
        probs = np.array([0.35, 0.3, 0.2, 0.15])
        rho = density_operator(np.diag(probs).astype(complex))
        system = UnitarySystem(d_a, d_b, rho,
                               ReservoirSpec((0.0, 0.8, 1.7), 1.0),
                               ar_permutation_unitary(d_a, d_b, d_r, rng))
        rep = analyze(system).report
        assert abs(rep.averages.delta_s_b) < 1e-12
        for name in ("erasure_bound_classical", "erasure_bound_info_gamma",
                     "erasure_bound_reverse_info"):
            rec = rep.bound(name)
            assert rec.applicable, name
            assert rec.satisfied, name

    def test_saturation_when_exponent_constant(self, rng):
        # the isothermal Werner process has ds_A + ds_B - beta Q == 0 on
        # every trajectory while dI genuinely fluctuates between
        # -ln(1+3p) and -ln(1-p); the reverse-info bound must saturate
        analysis = werner_isothermal(0.5).analysis
        traj = analysis.functionals
        shape = analysis.forward.table.shape
        exponent = np.broadcast_to(traj.delta_s_a + traj.delta_s_b - traj.beta_q, shape)
        weighted = exponent[analysis.forward.table > 1e-12]
        assert float(np.var(weighted)) < 1e-20
        d_i = np.broadcast_to(traj.delta_i, shape)[analysis.forward.table > 1e-12]
        assert float(np.ptp(d_i)) > 0.1
        assert analysis.report.bound("heat_bound_reverse_info").slack < 1e-10

    def test_saturation_under_local_rotations(self, rng):
        # local rotations of a Bell-diagonal state also keep the exponent
        # constant (everything is spectrum-preserving), another saturation case
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rho = density_operator(werner_state(0.6).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0,), 1.0), u)
        rep = analyze(system).report
        assert abs(rep.bound("heat_bound_reverse_info").slack) < 1e-10


class TestClassicalReduction:
    @pytest.mark.parametrize("seed", [0, 9, 27])
    def test_holds_on_diagonal_instances(self, seed):
        spectra = spectra_from_unitary(random_classical_instance(2, 3, 2, seed))
        fwd = augmented_forward(spectra)
        rev = reverse_joint(spectra, fwd)
        traj = tuple_functionals(spectra)
        residual, max_gap = classical_reduction_check(spectra, fwd, rev, traj)
        assert residual < 1e-10
        assert max_gap < 1e-12

    def test_not_applicable_for_entangled_eigenbasis(self):
        analysis = werner_isothermal(0.5).analysis
        with pytest.raises(NotApplicable):
            classical_reduction_check(analysis.spectra, analysis.forward,
                                      analysis.reverse, analysis.functionals)
        rec = analysis.report.bound("classical_ft")
        assert rec.applicable is False

    def test_not_applicable_for_counterexample_final_basis(self):
        analysis = bell_adiabatic_counterexample(0.5, route="analytic").analysis
        with pytest.raises(NotApplicable):
            classical_reduction_check(analysis.spectra, analysis.forward,
                                      analysis.reverse, analysis.functionals)

    def test_report_record_when_applicable(self):
        rep = analyze(random_classical_instance(2, 2, 2, 4)).report
        rec = rep.bound("classical_ft")
        assert rec.applicable and rec.satisfied
        assert rec.rhs == pytest.approx(rep.gamma_restricted)

    def test_pure_product_identity_process(self):
        # everything static: all exponents vanish and the restricted mass is 1
        rho = density_operator(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0,), 1.0),
                               np.eye(4, dtype=complex))
        analysis = analyze(system)
        residual, max_gap = classical_reduction_check(
            analysis.spectra, analysis.forward, analysis.reverse, analysis.functionals)
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-12)
        assert residual < 1e-12
        assert max_gap < 1e-12
        shape = analysis.forward.table.shape
        expo = np.broadcast_to(analysis.functionals.ft_exponent(), shape)
        assert np.max(np.abs(expo[analysis.forward.table > 0.5])) < 1e-12


class TestHeatPartitionForm:
    def test_rewritten_exponent_reproduces_restricted_mass(self):
        # with sigma_X = ds_X - beta Q_X and dGamma = dI + beta Q', the
        # average of exp(-sigma_A - sigma_B + dGamma) must equal the
        # restricted reverse mass for ANY partition of the heat
        for p, q_a in ((1.0, -0.4), (0.5, 0.11)):
            spectra = werner_isothermal(p).analysis.spectra
            partition = HeatPartition(q_a=q_a, q_b=-0.9 - q_a, beta=1.0)
            analysis = evaluate(spectra, heat_partition=partition)
            traj = analysis.functionals
            rewritten = average(
                analysis.forward,
                np.exp(-traj.sigma_a - traj.sigma_b + traj.delta_gamma))
            assert rewritten == pytest.approx(analysis.report.gamma_restricted,
                                              abs=1e-12)
            sig = analysis.report.sigma
            avg = analysis.report.averages
            assert sig is not None
            assert (-sig.sigma_a - sig.sigma_b + sig.delta_gamma) == pytest.approx(
                -avg.delta_s_a - avg.delta_s_b + avg.delta_i + avg.beta_q, abs=1e-12)

    def test_sigma_absent_without_partition(self):
        assert werner_isothermal(0.5).report.sigma is None

    def test_full_reverse_average_is_diagnostic_only(self):
        # under absolute irreversibility the full-space reverse average
        # differs from the support-restricted one used in the relations:
        # the six trajectories outside the support each contribute
        # (1/8) exp(0) on top of the restricted 2 x (1/8) exp(2 ln 2)
        rep = werner_isothermal(1.0).report
        assert rep.reverse_avg_exp_di == pytest.approx(1.0, abs=1e-12)
        assert rep.reverse_avg_exp_di_full == pytest.approx(1.75, abs=1e-12)


class TestGaugeRobustness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_remixing_leaves_invariants(self, seed):
        system = random_instance(2, 2, 1, seed, degenerate=True)
        rng = np.random.default_rng(1000 + seed)
        base = None
        for _ in range(4):
            spectra = spectra_from_unitary(
                system,
                initial_decomposition=remix_degenerate_blocks(
                    system.rho_ab.decomposition, rng))
            rep = evaluate(spectra).report
            if base is None:
                base = (rep.gamma_restricted, rep.integral_ft_lhs)
            assert abs(rep.gamma_restricted - base[0]) < 1e-10
            assert abs(rep.integral_ft_lhs - base[1]) < 1e-10
            assert rep.detailed_max_residual < 1e-10


class TestEdgesAndControls:
    def test_corrupted_reverse_breaks_detailed(self):
        analysis = werner_isothermal(0.8).analysis
        bad = corrupt_reverse(analysis.reverse)
        resid, worst = detailed_ft_check(analysis.forward, bad, analysis.functionals)
        assert resid > 1e-3
        assert worst is not None

    def test_corruption_flag_threads_through_evaluate(self):
        clean = werner_isothermal(0.8).analysis
        bad = evaluate(clean.spectra, _reverse_corruption=1.5)
        assert bad.report.detailed_max_residual > 1e-3

    def test_empty_support_overlap_reports_sentinel(self):
        # artificial kernels whose reversed flow never returns to the
        # forward support: the factor is 0, its log the -inf sentinel,
        # and the log-based bounds are flagged vacuous
        base = werner_isothermal(1.0).analysis.spectra   # p_m = p_m_final = (1, 0, 0, 0)
        rkernel = np.zeros((4, 1, 4, 1))
        rkernel[3, 0, :, 0] = 1.0     # reverse flow lands on the empty level
        system = dataclasses.replace(
            base,
            p_a_final=np.array([0.5, 0.5]), p_b_final=np.array([0.5, 0.5]),
            cond_final=base.cond_initial,
            reverse_kernel=rkernel, beta_q=np.array([[0.0]]))
        rep = evaluate(spectra_from_analytic(system)).report
        assert rep.gamma_restricted == 0.0
        assert rep.ln_gamma == float("-inf")
        rec = rep.bound("heat_bound_info_gamma")
        assert rec.applicable is False
        assert "vacuous" in rec.note
