import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bift.cli import core_checks, invariant_checks
from bift.functionals import EndpointFunctionals, EndpointTables, endpoint_functionals
from bift.linalg import (
    DEFAULT_TOL,
    ReservoirSpec,
    Tolerances,
    density_operator,
    haar_unitary,
)
from bift.scenarios import (
    Scenario,
    bell_adiabatic_counterexample,
    random_instance,
    random_scenario,
    werner_isothermal,
)
from bift.tables import (
    Endpoint,
    SystemSpectra,
    UnitarySystem,
    spectra_from_analytic,
    spectra_from_unitary,
)
from bift.theorems import (
    BoundRecord,
    Check,
    corrupt_reverse,
    detailed_ft_check,
    evaluate,
    inequality_suite,
    ln_or_neg_inf,
)

from conftest import (
    dense_classical_reduction_check,
    dense_detailed_ft_check,
    dense_evaluate,
    dense_invariant_values,
    dense_support,
    dense_tables,
    dense_tuple_functionals,
    dense_view,
    evaluate_scenario,
    log_uniform_spectrum,
    oracle_counterexample_spectra,
    pinned_energies,
    random_classical_instance,
    remix_derived_decompositions,
    remix_initial,
    respectrum,
    werner_state,
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
        analysis = evaluate_scenario(werner_isothermal(1.0))
        idx = (0, 0, 0, 0, 0, 0, 0, 0)
        forward, reverse = dense_tables(analysis.spectra)
        p_fwd = forward[idx]
        p_rev = reverse[idx]
        assert p_fwd == pytest.approx(0.5)
        assert p_rev == pytest.approx(0.125)
        expo = np.broadcast_to(dense_tuple_functionals(analysis.spectra).ft_exponent(),
                               forward.shape)[idx]
        assert expo == pytest.approx(-2 * LN2)
        assert p_rev / p_fwd == pytest.approx(math.exp(expo), abs=1e-12)
        e_i, e_f = analysis.functionals.ft_factors()
        pair = analysis.functionals.exp_beta_q
        assert e_i[0, 0, 0] * e_f[0, 0, 0] * pair[0, 0] == pytest.approx(math.exp(expo))
        assert analysis.report.detailed_max_residual < 1e-10

    def test_identity_on_product_full_rank(self):
        rho = density_operator(np.diag([0.28, 0.22, 0.3, 0.2]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0, 1.0), 1.0),
                               np.eye(8, dtype=complex))
        analysis = analyze(system)
        f, r = dense_tables(analysis.spectra)
        mask = f > 1e-12 * f.max()
        ratios = r[mask] / f[mask]
        traj = dense_tuple_functionals(analysis.spectra)
        expo = np.broadcast_to(np.exp(traj.ft_exponent()), f.shape)[mask]
        assert np.max(np.abs(ratios - expo)) < 1e-12
        assert analysis.report.detailed_max_residual < 1e-12

    @pytest.mark.parametrize("seed", [3, 19, 42])
    def test_random_instances(self, seed):
        analysis = analyze(random_instance(2, 2, 2, seed))
        assert analysis.report.detailed_max_residual < 1e-10

    def test_reports_worst_trajectory(self):
        analysis = analyze(random_instance(2, 2, 2, 7))
        resid, worst = detailed_ft_check(analysis.spectra, analysis.functionals)
        assert resid == analysis.report.detailed_max_residual
        assert worst is not None
        assert all(isinstance(i, int) for i in worst)


class TestIntegralFT:
    def test_werner_values(self):
        for p, want in ((1.0, 0.25), (0.5, 1.0)):
            rep = evaluate_scenario(werner_isothermal(p)).report
            assert rep.integral_ft_lhs == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 5, 12])
    def test_full_rank_gives_unity(self, seed):
        analysis = analyze(random_instance(2, 3, 3, seed))
        assert analysis.report.integral_ft_lhs == pytest.approx(1.0, abs=1e-10)
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tiny_eigenvalue_beside_small_gibbs_weight_gives_unity(self, seed):
        # a 1e-11 eigenvalue beside a Gibbs weight of e^-3 is a real weight,
        # however small their product: every block stays in the support
        system = random_instance(2, 2, 2, seed)
        v = system.rho_ab.decomposition.vectors
        lam = np.array([1.0, 0.5, 0.3, 1e-11])     # in the instance's eigenbasis order
        lam /= lam.sum()
        analysis = analyze(dataclasses.replace(
            system, rho_ab=density_operator((v * lam) @ v.conj().T),
            reservoir=ReservoirSpec((0.0, 3.0), 1.0)))
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-10)
        assert analysis.report.integral_ft_lhs == pytest.approx(1.0, abs=1e-10)
        assert analysis.spectra.support.all()

    @pytest.mark.parametrize("seed", [0, 1, 4, 8])
    def test_matches_restricted_mass_when_rank_deficient(self, seed):
        analysis = analyze(random_instance(2, 2, 2, seed, rank_deficient=True))
        rep = analysis.report
        assert abs(rep.integral_ft_lhs - rep.gamma_restricted) < 1e-10

    @given(seed=st.integers(0, 10_000), gap=st.floats(0.0, 709.0))
    @example(seed=0, gap=707.0)
    @settings(max_examples=40, deadline=None)
    def test_steep_reservoir_averages_over_forward_support(self, seed, gap):
        # beta * dE up to the overflow limit: the upper level's Gibbs weight
        # falls to e^-709, a real weight that stays in the support, where
        # e^{beta Q} nears the float maximum (warnings are errors)
        spectra = spectra_from_unitary(dataclasses.replace(
            random_instance(2, 2, 2, seed), reservoir=ReservoirSpec((0.0, gap), 1.0)))
        rep = evaluate(spectra).report
        assert abs(rep.integral_ft_lhs - rep.gamma_restricted) <= DEFAULT_TOL.equality
        assert abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di) <= DEFAULT_TOL.equality
        dense = dense_evaluate(spectra)
        for name in ("integral_ft_lhs", "gamma_restricted", "reverse_ft_lhs",
                     "reverse_avg_exp_di"):
            assert getattr(rep, name) == pytest.approx(getattr(dense, name), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gap", [300.0, 707.0])
    def test_forward_weight_on_an_empty_final_level_leaves_the_support(self, gap):
        # the permutation carries weight from the upper reservoir level onto
        # a final level of weight ~e^-gap, below the noise floor and zeroed
        # with it; e^{beta Q} = e^gap lifts that forward weight back to
        # 2.5e-2, so both integral relations must drop it, as gamma does
        spectra = spectra_from_unitary(dataclasses.replace(
            random_classical_instance(2, 2, 2, 0), reservoir=ReservoirSpec((0.0, gap), 1.0)))
        empty = spectra.final.p_m == 0.0
        assert empty.any() and spectra.two_point()[:, empty].sum() > 0.0
        rep = evaluate(spectra).report
        assert abs(rep.integral_ft_lhs - rep.gamma_restricted) <= DEFAULT_TOL.equality
        assert abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di) <= DEFAULT_TOL.equality

    def test_rank_deficiency_can_break_unity(self):
        gammas = [analyze(random_instance(2, 2, 2, s, rank_deficient=True))
                  .report.gamma_restricted for s in range(6)]
        assert any(g < 1.0 - 1e-6 for g in gammas)

    def test_noise_eigenvalue_stays_out_of_the_support(self):
        # the zeroed tail of this state decomposes to a noise eigenvalue of
        # 9.1e-17, not to 0: counted as support, it would lift gamma to 1
        system = random_instance(2, 2, 2, seed=5, rank_deficient=True)
        assert 0.0 < system.rho_ab.decomposition.probabilities[-1] < 1e-16
        gamma = analyze(system).report.gamma_restricted
        assert gamma == pytest.approx(0.76169607280965, rel=0.0, abs=1e-12)


class TestFullRankDraws:
    """Full-rank systems where rounding and range are hardest: Haar
    systems whose eigenvalues span twelve decades, the same with a
    reservoir that spans beta dE = 700, and permutation systems, whose
    kernels hold exact zeros, at beta dE in [300, 700].  On each, every
    check of ``verify`` passes and gamma = 1."""

    @staticmethod
    def draw(kind, dims, seed):
        rng = np.random.default_rng([seed, 1])
        d_m, d_r = dims[0] * dims[1], dims[2]
        if kind == "classical":
            system = random_classical_instance(*dims, seed)
            lam, top = log_uniform_spectrum(rng, d_m, -6.0), rng.uniform(300.0, 700.0)
        else:
            system = random_instance(*dims, seed)
            lam = log_uniform_spectrum(rng, d_m, -12.0)
            top = 700.0 if kind == "steep" else 5.0
        system = respectrum(system, lam)
        return dataclasses.replace(
            system, reservoir=ReservoirSpec(pinned_energies(rng, d_r, top), 1.0))

    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 2, 4)]),
           kind=st.sampled_from(["spread", "steep", "classical"]))
    @example(seed=181, dims=(2, 3, 2), kind="spread")
    @example(seed=2, dims=(2, 3, 3), kind="steep")
    @settings(max_examples=60, deadline=None)
    def test_every_check_passes(self, seed, dims, kind):
        spectra = spectra_from_unitary(self.draw(kind, dims, seed))
        analysis = evaluate(spectra)
        scenario = Scenario("random", {}, spectra,
                            {"gamma_restricted": 1.0, "integral_ft_lhs": 1.0})
        checks = (core_checks(scenario, analysis, DEFAULT_TOL)
                  + invariant_checks(analysis, DEFAULT_TOL))
        assert [(c.name, c.value) for c in checks if not c.passed] == []
        assert abs(analysis.report.gamma_restricted - 1.0) <= 1e-10


class TestReverseAveragedFT:
    def test_werner_pure_expansion(self):
        rep = evaluate_scenario(werner_isothermal(1.0)).report
        # two restricted reverse trajectories of mass 1/8, each with
        # exp(-dI) = exp(2 ln 2) = 4
        assert rep.reverse_avg_exp_di == pytest.approx(2 * 0.125 * 4.0, abs=1e-12)
        assert rep.reverse_ft_lhs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_werner_mixed_unity(self, p):
        rep = evaluate_scenario(werner_isothermal(p)).report
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
        rep = evaluate_scenario(werner_isothermal(1.0)).report
        avg = rep.averages
        assert avg.delta_s_a + avg.delta_s_b - avg.beta_q == pytest.approx(0.0, abs=1e-12)
        assert rep.bound("heat_bound_info_gamma").slack == pytest.approx(0.0, abs=1e-10)
        assert rep.bound("heat_bound_reverse_info").slack == pytest.approx(0.0, abs=1e-10)

    def test_werner_mixed_reverse_tighter(self):
        rep = evaluate_scenario(werner_isothermal(0.5)).report
        assert rep.bound("heat_bound_reverse_info").slack == pytest.approx(0.0, abs=1e-10)
        assert rep.bound("heat_bound_info_gamma").slack == pytest.approx(
            -rep.averages.delta_i, abs=1e-10)
        assert rep.bound_gap > 0.0

    def test_counterexample_reverses_ordering(self):
        rep = evaluate_scenario(bell_adiabatic_counterexample(0.5)).report
        # here the reverse-averaged bound is weaker than the plain one
        assert rep.bound_gap < 0.0
        assert -math.log(rep.reverse_avg_exp_di) < rep.averages.delta_i

    def test_plain_bound_implied_by_gamma_form(self):
        for p in (0.3, 1.0):
            rep = evaluate_scenario(werner_isothermal(p)).report
            plain = rep.bound("heat_bound_info_plain")
            gamma_form = rep.bound("heat_bound_info_gamma")
            assert plain.applicable and Check.bound(plain, DEFAULT_TOL).passed
            assert plain.slack >= gamma_form.slack - 1e-12

    def test_jensen_never_violated_randomly(self):
        for seed in range(8):
            rep = analyze(random_instance(2, 2, 2, seed)).report
            assert rep.bound("heat_bound_info_gamma").slack >= -1e-10
            assert rep.bound("heat_bound_reverse_info").slack >= -1e-10

    def test_work_bounds_on_werner(self):
        rep = evaluate_scenario(werner_isothermal(1.0)).report
        wa = rep.bound("work_bound_info_gamma")
        wb = rep.bound("work_bound_reverse_info")
        assert wa.applicable and wb.applicable
        assert wa.slack == pytest.approx(0.0, abs=1e-10)
        assert wb.slack == pytest.approx(0.0, abs=1e-10)

    def test_upper_held_to_bound_tolerance(self):
        # an upper bound passes at slack -tol.bound exactly and fails one
        # float below it, at bound tolerance or slack; equality plays no part
        at = BoundRecord("b", "upper", 0.0, -1e-10, True)
        below = BoundRecord("b", "upper", 0.0, math.nextafter(-1e-10, -math.inf), True)
        assert at.slack == -1e-10
        for rec, tol, passed in ((at, Tolerances(bound=1e-10, equality=0.0), True),
                                 (at, Tolerances(bound=math.nextafter(1e-10, 0.0)), False),
                                 (below, Tolerances(bound=1e-10), False)):
            check = Check.bound(rec, tol)
            assert check.passed is passed and check.value == rec.slack
            assert (check.name, check.detail) == ("bound:b", "kind=upper")

    def test_work_bounds_absent_without_inputs(self):
        rep = evaluate_scenario(bell_adiabatic_counterexample(0.5)).report
        assert rep.bound("work_bound_info_gamma").applicable is False
        check = Check.bound(rep.bound("work_bound_info_gamma"), DEFAULT_TOL)
        assert check.passed and math.isnan(check.value)
        assert check.detail == "not applicable: no work/free-energy inputs supplied"

    def test_erasure_bounds_marked_inapplicable_on_werner(self):
        rep = evaluate_scenario(werner_isothermal(0.5)).report
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
            assert Check.bound(rec, DEFAULT_TOL).passed, name

    def test_saturation_when_exponent_constant(self, rng):
        # the isothermal Werner process has ds_A + ds_B - beta Q == 0 on
        # every trajectory while dI genuinely fluctuates between
        # -ln(1+3p) and -ln(1-p); the reverse-info bound must saturate
        analysis = evaluate_scenario(werner_isothermal(0.5))
        traj = dense_tuple_functionals(analysis.spectra)
        forward = dense_view(analysis.spectra, analysis.spectra.two_point())
        shape = forward.shape
        exponent = np.broadcast_to(traj.delta_s_a + traj.delta_s_b - traj.beta_q, shape)
        weighted = exponent[forward > 1e-12]
        assert float(np.var(weighted)) < 1e-20
        d_i = np.broadcast_to(traj.delta_i, shape)[forward > 1e-12]
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
    """The classical reduction on the dense oracle
    (``conftest.dense_classical_reduction_check``) and the report's
    ``classical_ft`` record."""

    @pytest.mark.parametrize("seed", [0, 9, 27])
    def test_holds_on_diagonal_instances(self, seed):
        spectra = spectra_from_unitary(random_classical_instance(2, 3, 2, seed))
        residual, max_gap = dense_classical_reduction_check(spectra)
        assert residual < 1e-10
        assert max_gap < 1e-12
        rec = evaluate(spectra).report.bound("classical_ft")
        assert rec.slack == pytest.approx(-residual, abs=1e-13)

    @given(seed=st.integers(0, 10_000), gap=st.floats(0.0, 709.0))
    @example(seed=0, gap=707.0)
    @settings(max_examples=20, deadline=None)
    def test_steep_reservoir_classical_ft(self, seed, gap):
        # the classical reduction of the integral relation is held to
        # gamma too, so it must drop the rows gamma drops
        spectra = spectra_from_unitary(dataclasses.replace(
            random_classical_instance(2, 2, 2, seed), reservoir=ReservoirSpec((0.0, gap), 1.0)))
        rec = evaluate(spectra).report.bound("classical_ft")
        assert Check.bound(rec, DEFAULT_TOL).passed
        want = dense_evaluate(spectra).bound("classical_ft")
        assert rec.applicable == want.applicable
        if rec.applicable:
            assert rec.lhs == pytest.approx(want.lhs, rel=1e-13, abs=0.0)

    def test_not_applicable_for_entangled_eigenbasis(self):
        scenario = werner_isothermal(0.5)
        assert dense_classical_reduction_check(scenario.spectra) is None
        rec = evaluate_scenario(scenario).report.bound("classical_ft")
        assert rec.applicable is False

    def test_not_applicable_for_counterexample_final_basis(self):
        spectra = oracle_counterexample_spectra(0.5)
        assert dense_classical_reduction_check(spectra) is None
        assert evaluate(spectra).report.bound("classical_ft").applicable is False

    def test_held_to_equality_tolerance(self):
        # classical_ft is an equality: a rounding residual passes at
        # bound = 0, as integral_ft_vs_gamma does, and fails at equality = 0
        rep = analyze(random_classical_instance(2, 2, 2, 1), tol=Tolerances(bound=0.0)).report
        assert Check.bound(rep.bound("classical_ft"), Tolerances(bound=0.0)).passed
        gamma = rep.gamma_restricted
        lhs = math.nextafter(gamma, math.inf)
        # the residual is one ulp of gamma, d, which passes at equality = d
        # exactly and fails one float below it
        d = lhs - gamma
        for tol, passed in ((Tolerances(bound=0.0), True), (Tolerances(equality=0.0), False),
                            (Tolerances(equality=d), True),
                            (Tolerances(equality=math.nextafter(d, 0.0)), False)):
            records = inequality_suite(rep.averages, gamma, rep.ln_gamma,
                                       ln_or_neg_inf(rep.reverse_avg_exp_di), lhs, tol=tol)
            rec = next(r for r in records if r.name == "classical_ft")
            assert Check.bound(rec, tol).passed is passed and rec.slack == -d

    def test_report_record_when_applicable(self):
        rep = analyze(random_classical_instance(2, 2, 2, 4)).report
        rec = rep.bound("classical_ft")
        assert rec.applicable and Check.bound(rec, DEFAULT_TOL).passed
        assert rec.rhs == pytest.approx(rep.gamma_restricted)

    def test_pure_product_identity_process(self):
        # everything static: all exponents vanish and the restricted mass is 1
        rho = density_operator(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0,), 1.0),
                               np.eye(4, dtype=complex))
        analysis = analyze(system)
        residual, max_gap = dense_classical_reduction_check(analysis.spectra)
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-12)
        assert residual < 1e-12
        assert max_gap < 1e-12
        forward = dense_view(analysis.spectra, analysis.spectra.two_point())
        expo = np.broadcast_to(dense_tuple_functionals(analysis.spectra).ft_exponent(),
                               forward.shape)
        assert np.max(np.abs(expo[forward > 0.5])) < 1e-12


class TestGaugeRobustness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_remixing_leaves_invariants(self, seed, monkeypatch):
        # d_R = 1: both endpoints carry the degenerate spectrum
        system = random_instance(2, 2, 1, seed, degenerate=True)
        rng = np.random.default_rng(1000 + seed)
        remix_derived_decompositions(monkeypatch, rng)
        base = None
        for _ in range(4):
            spectra = spectra_from_unitary(remix_initial(system, rng))
            rep = evaluate(spectra).report
            if base is None:
                base = (rep.gamma_restricted, rep.integral_ft_lhs)
            assert abs(rep.gamma_restricted - base[0]) < 1e-10
            assert abs(rep.integral_ft_lhs - base[1]) < 1e-10
            assert rep.detailed_max_residual < 1e-10


class TestEdgesAndControls:
    def test_full_reverse_average_is_diagnostic_only(self):
        # under absolute irreversibility the full-space reverse average
        # differs from the support-restricted one used in the relations:
        # the six trajectories outside the support each contribute
        # (1/8) exp(0) on top of the restricted 2 x (1/8) exp(2 ln 2)
        rep = evaluate_scenario(werner_isothermal(1.0)).report
        assert rep.reverse_avg_exp_di == pytest.approx(1.0, abs=1e-12)
        assert rep.reverse_avg_exp_di_full == pytest.approx(1.75, abs=1e-12)

    def test_corrupted_reverse_breaks_detailed(self):
        # the reverse kernel times 1.5 at one supported block: the ratio of
        # the relation's two sides reads 1.5 there
        for spectra in (werner_isothermal(0.8).spectra,
                        spectra_from_unitary(random_instance(2, 3, 2, seed=3))):
            bad = corrupt_reverse(spectra)
            resid, worst = detailed_ft_check(bad, endpoint_functionals(bad))
            assert resid == pytest.approx(0.5, rel=1e-14)
            assert worst is not None

    def test_zero_reverse_weight_reads_one(self):
        # a supported block whose reverse kernel entry is 0: no reverse
        # trajectory answers the forward one, the ratio reads 0
        spectra = werner_isothermal(0.8).spectra
        rkernel = spectra.reverse_kernel.copy()
        rkernel[2, 0, 0, 0] = 0.0
        bad = dataclasses.replace(spectra, reverse_kernel=rkernel)
        resid, worst = detailed_ft_check(bad, endpoint_functionals(bad))
        assert resid == 1.0 and worst.m == 2

    def test_werner_pure_corruption_lands_in_support(self):
        # the (0, 0, 0, 0) block is the only forward block at p = 1, and the
        # largest reverse entry (the first in C order) is that block: its
        # reverse kernel entry, and so its reverse weight, is scaled
        spectra = werner_isothermal(1.0).spectra
        assert np.argwhere(spectra.two_point() > 0.0).tolist() == [[0, 0, 0, 0]]
        bad = corrupt_reverse(spectra)
        assert np.argwhere(bad.reverse_kernel != spectra.reverse_kernel).tolist() == [[0, 0, 0, 0]]
        assert bad.reverse_kernel[0, 0, 0, 0] == 1.5 * spectra.reverse_kernel[0, 0, 0, 0]
        assert (np.argwhere(bad.two_point(reverse=True) != spectra.two_point(reverse=True))
                .tolist() == [[0, 0, 0, 0]])
        assert spectra.support[0, 0, 0, 0]
        rep = evaluate(bad).report
        assert rep.gamma_restricted == pytest.approx(0.375)
        assert rep.detailed_max_residual == pytest.approx(0.5, rel=1e-14)

    def test_random_corruption_scales_one_reverse_kernel_entry(self):
        # at R = 2 the largest reverse entry sits at (m, m', r, r') = (2, 0, 1, 0),
        # where swapping the m' and r axes names another entry
        spectra = random_scenario(1, (2, 2, 2)).spectra
        reverse = spectra.two_point(reverse=True)
        assert np.unravel_index(np.argmax(reverse), reverse.shape) == (2, 0, 1, 0)
        bad = corrupt_reverse(spectra)
        assert np.argwhere(bad.reverse_kernel != spectra.reverse_kernel).tolist() == [[2, 0, 1, 0]]
        assert bad.reverse_kernel[2, 0, 1, 0] == 1.5 * spectra.reverse_kernel[2, 0, 1, 0]

    def test_evaluate_forms_no_two_point_table(self, monkeypatch):
        # every relation and average is read from the kernels' block sums
        def refuse(*args, **kwargs):
            raise AssertionError("a two-point table was formed")

        monkeypatch.setattr(SystemSpectra, "two_point", refuse)
        for spectra in (werner_isothermal(0.5).spectra,
                        spectra_from_unitary(random_instance(2, 3, 2, seed=3))):
            assert evaluate(spectra).report.detailed_max_residual < 1e-10

    def test_empty_support_overlap_reports_sentinel(self):
        # artificial kernels whose reversed flow never returns to the
        # forward support: the factor is 0, its log the -inf sentinel,
        # and the log-based bounds are flagged vacuous
        base = werner_isothermal(1.0).spectra   # both endpoints' p_m = (1, 0, 0, 0)
        rkernel = np.zeros((4, 4, 1, 1))
        rkernel[3, :, 0, 0] = 1.0     # reverse flow lands on the empty level
        system = dataclasses.replace(
            base,
            final=dataclasses.replace(base.final, p_a=np.array([0.5, 0.5]),
                                      p_b=np.array([0.5, 0.5]), cond=base.initial.cond),
            reverse_kernel=rkernel, beta_q=np.array([[0.0]]))
        rep = evaluate(spectra_from_analytic(system)).report
        assert rep.gamma_restricted == 0.0
        assert rep.ln_gamma == float("-inf")
        rec = rep.bound("heat_bound_info_gamma")
        assert rec.applicable is False
        assert "vacuous" in rec.note


def report_numbers(rep) -> dict:
    """Every number of an FTReport, by name."""
    out = {name: getattr(rep, name) for name in (
        "integral_ft_lhs", "gamma_restricted", "ln_gamma", "reverse_ft_lhs",
        "reverse_avg_exp_di", "reverse_avg_exp_di_full", "detailed_max_residual", "bound_gap")}
    out.update({f"averages.{k}": v for k, v in dataclasses.asdict(rep.averages).items()})
    for rec in rep.bounds:
        out.update({f"{rec.name}.lhs": rec.lhs, f"{rec.name}.rhs": rec.rhs,
                    f"{rec.name}.slack": rec.slack})
    return out


def assert_matches_dense_oracle(spectra, corruption=False, **kwargs):
    """The factored report and verify invariants agree with the dense
    engine to 1e-13 (relative for numbers above 1, e.g. a reverse
    average of 75).

    The detailed residual is each engine's own rounding noise on a clean
    system (up to ~1e-12 for the dense one at (3, 3, 3)), so it is held
    to the check's tolerance, 1e-10, instead."""
    analysis = evaluate(corrupt_reverse(spectra) if corruption else spectra, **kwargs)
    reverse_global = analysis.spectra.two_point(reverse=True) if corruption else None
    got = report_numbers(analysis.report)
    want = report_numbers(dense_evaluate(spectra, reverse_global=reverse_global, **kwargs))
    assert got.keys() == want.keys()
    for key, value in want.items():
        if math.isnan(value) or math.isinf(value):
            assert got[key] == value or (math.isnan(got[key]) and math.isnan(value)), key
        else:
            bound = 1e-10 if key == "detailed_max_residual" else 1e-13 * max(1.0, abs(value))
            assert abs(got[key] - value) <= bound, (key, got[key], value)

    forward, reverse = dense_tables(spectra, reverse_global)
    checks = invariant_checks(analysis, DEFAULT_TOL)
    dense = dense_invariant_values(spectra, forward, reverse)
    assert [c.name for c in checks] == list(dense)
    for check in checks:
        assert abs(check.value - dense[check.name]) <= 1e-13, check.name
    return analysis


def detailed_support(spectra) -> np.ndarray:
    """The trajectories the detailed check takes, over the eight axes: a
    block in the support with a positive kernel entry, and positive
    conditional weights at both ends."""
    block = spectra.support & (spectra.kernel > 0.0)
    return (block[:, None, None, :, None, None, :, :]
            & (spectra.initial.cond > 0.0)[:, :, :, None, None, None, None, None]
            & (spectra.final.cond > 0.0)[None, None, None, :, :, :, None, None])


class TestDenseOracle:
    """The factored engine against the dense eight-index engine of the
    test oracle (``conftest.dense_evaluate``)."""

    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3),
                                 (3, 3, 1), (3, 3, 2), (2, 3, 3), (3, 3, 3)]),
           kind=st.sampled_from(["full_rank", "rank_deficient", "degenerate", "classical"]))
    @settings(max_examples=60, deadline=None)
    def test_random_systems(self, seed, dims, kind):
        if kind == "classical":
            system = random_classical_instance(*dims, seed=seed)
        else:
            system = random_instance(*dims, seed=seed, rank_deficient=kind == "rank_deficient",
                                     degenerate=kind == "degenerate")
        analysis = assert_matches_dense_oracle(spectra_from_unitary(system))
        assert analysis.report.detailed_max_residual < 1e-10
        fwd, rev = dense_tables(analysis.spectra)
        traj = dense_tuple_functionals(analysis.spectra)
        dense_resid, _ = dense_detailed_ft_check(analysis.spectra, fwd, rev, traj)
        assert dense_resid < 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_werner(self, p):
        analysis = assert_matches_dense_oracle(werner_isothermal(p).spectra)
        forward = dense_view(analysis.spectra, analysis.spectra.two_point())
        assert np.array_equal(detailed_support(analysis.spectra),
                              dense_support(analysis.spectra) & (forward > 0.0))

    def test_small_products_stay_in_the_support(self):
        # This trajectory's block is 1.0e-5 of the largest block and its
        # conditional weights are 2.5e-5 and 2.0e-3, so its weight is 6.2e-13
        # of the largest dense entry: a real weight, which both engines
        # keep, and the detailed relation holds there to rounding.
        spectra = spectra_from_unitary(random_instance(2, 2, 3, seed=54))
        analysis = assert_matches_dense_oracle(spectra)
        forward, reverse = dense_tables(spectra)
        idx = (3, 0, 0, 3, 0, 0, 2, 0)
        assert forward[idx] < 1e-12 * forward.max()
        assert np.array_equal(detailed_support(spectra),
                              dense_support(spectra) & (forward > 0.0))
        expo = np.broadcast_to(dense_tuple_functionals(spectra).ft_exponent(),
                               forward.shape)[idx]
        assert abs(reverse[idx] / forward[idx] / math.exp(expo) - 1.0) < 1e-10
        assert analysis.report.detailed_max_residual < 1e-10

    @pytest.mark.parametrize("route", ["unitary", "analytic"])
    def test_counterexample(self, route):
        spectra = (bell_adiabatic_counterexample(0.5).spectra if route == "unitary"
                   else oracle_counterexample_spectra(0.5))
        assert_matches_dense_oracle(spectra)

    def test_rank_deficient_gamma_below_one(self):
        spectra = spectra_from_unitary(random_instance(2, 2, 2, 1, rank_deficient=True))
        analysis = assert_matches_dense_oracle(spectra)
        assert analysis.report.gamma_restricted < 1.0 - 1e-6

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3)])
    def test_corrupted_reverse(self, dims):
        spectra = spectra_from_unitary(random_instance(*dims, seed=8))
        analysis = assert_matches_dense_oracle(spectra, corruption=True)
        assert analysis.report.detailed_max_residual > 1e-3


def full_product_expectation(spectra, table, initial=1.0, final=1.0, pair=1.0) -> float:
    """The tuple-space sum of the global ``table`` times every factor,
    each multiplied into the [m, m', r, r'] table."""
    u = (spectra.initial.cond * initial).sum(axis=(1, 2))
    v = (spectra.final.cond * final).sum(axis=(1, 2))
    return float((table * u[:, None, None, None] * v[None, :, None, None] * pair).sum())


class TestExpectationBits:
    """u B v against the full product with G or G_rev, restricted to the
    support where the block sums are.  The two agree to rounding, not bit
    for bit: B sums the kernels at the reservoir's start weight, G holds
    p_m p_r."""

    @pytest.mark.parametrize("case", ["random", "rank-deficient", "classical", "werner",
                                      "counterexample-analytic"])
    def test_every_call_matches_full_product(self, case, monkeypatch):
        spectra = {
            "random": lambda: spectra_from_unitary(random_instance(3, 3, 2, seed=6)),
            "rank-deficient": lambda: spectra_from_unitary(
                random_instance(4, 4, 3, seed=1, rank_deficient=True)),
            "classical": lambda: spectra_from_unitary(random_classical_instance(2, 3, 2, 4)),
            "werner": lambda: werner_isothermal(0.37).spectra,
            "counterexample-analytic": lambda: oracle_counterexample_spectra(0.5),
        }[case]()
        made, calls = {}, []
        block_sums, expectation = SystemSpectra.block_sums, SystemSpectra.expectation

        def recorded_sums(spectra, reverse=False, pair=1.0, restricted=False):
            block = block_sums(spectra, reverse, pair, restricted)
            table = spectra.two_point(reverse)
            made[id(block.sums)] = (block, np.where(spectra.support, table, 0.0)
                                    if restricted else table, pair)
            return block

        def recorded(spectra, block, initial=1.0, final=1.0):
            got = expectation(spectra, block, initial, final)
            calls.append((spectra, *made[id(block.sums)][1:], initial, final, got))
            return got

        monkeypatch.setattr(SystemSpectra, "block_sums", recorded_sums)
        monkeypatch.setattr(SystemSpectra, "expectation", recorded)
        invariant_checks(evaluate(spectra), DEFAULT_TOL)
        assert len(calls) >= 17
        for spectra, table, pair, initial, final, got in calls:
            want = full_product_expectation(spectra, table, initial, final, pair)
            assert abs(got - want) <= 1e-14 * abs(want), (got, want)

    def test_scalar_factors_multiply_in(self):
        spectra = spectra_from_unitary(random_instance(2, 3, 2, seed=4))
        for initial, final, pair in ((2.0, 1.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 3.0),
                                     (2.0, 0.5, 3.0)):
            got = spectra.expectation(spectra.block_sums(pair=pair), initial, final)
            want = full_product_expectation(spectra, spectra.two_point(), initial, final, pair)
            assert abs(got - want) <= 1e-14 * abs(want)
            assert got == pytest.approx(initial * final * pair, rel=1e-12)


class TestFactoredExtremes:
    """The block-extremes shortcut of the detailed check against a
    brute-force pass over all eight axes, on arbitrary factored inputs
    whose factors depend on the local labels (the physical ones cancel
    them up to rounding), that tie often, and whose weights are often 0."""

    @staticmethod
    def pieces(seed, d_m=4, d_a=2, d_b=2, d_r=2):
        rng = np.random.default_rng(seed)

        def coarse(shape, zeros=0.0):
            # few distinct values, so residual ties are common
            x = rng.integers(1, 4, size=shape) / 2.0
            return np.where(rng.random(shape) < zeros, 0.0, x)

        def endpoint():
            # the weights p_m and the conditional weights enter the check
            cond = coarse((d_m, d_a, d_b), zeros=0.4)
            cond[:, 0, 0] += 1.0        # no empty rows
            return Endpoint(p_m=coarse(d_m, zeros=0.2), p_a=np.full(d_a, 1.0 / d_a),
                            p_b=np.full(d_b, 1.0 / d_b), cond=cond)

        def kernel(zeros):
            # drawn as [m, r, m', r'], then put on the kernel axes: the draws
            # that the examples below were picked for
            return coarse((d_m, d_r, d_m, d_r), zeros).transpose(0, 2, 1, 3)

        spectra = SystemSpectra(initial=endpoint(), final=endpoint(), p_r=coarse(d_r, zeros=0.2),
                                kernel=kernel(zeros=0.3), reverse_kernel=kernel(zeros=0.1),
                                beta_q=np.log(coarse((d_r, d_r))))
        info = coarse((d_m, d_a, d_b)), coarse((d_m, d_a, d_b))
        classical = coarse((d_a, d_b)), coarse((d_a, d_b))
        local = coarse((d_a, d_b)), coarse((d_a, d_b))
        info_ratio = coarse((d_m, d_a, d_b)), coarse((d_m, d_a, d_b))
        initial, final = (EndpointTables(l_pa=np.zeros(d_a), l_pb=np.zeros(d_b), info=info[k],
                                         classical=classical[k], local=local[k],
                                         info_ratio=info_ratio[k],
                                         classical_ratio=np.ones((d_a, d_b)))
                          for k in (0, 1))
        funcs = EndpointFunctionals(initial=initial, final=final, beta_q=spectra.beta_q)
        return spectra, funcs

    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(4, 2, 2, 2), (6, 2, 3, 1), (6, 3, 2, 3), (3, 1, 3, 2),
                                 (8, 4, 2, 2)]))
    @example(seed=15, dims=(4, 2, 2, 2))
    @example(seed=21, dims=(8, 4, 2, 2))
    @settings(max_examples=60, deadline=None)
    def test_detailed_matches_brute_force(self, seed, dims):
        # (d_m, d_a, d_b, d_r); d_a != d_b catches a swapped local label; each
        # example holds attaining tuples whose first in C order is not first
        # when the axes after (m, a, b) are compared from the last one
        spectra, funcs = self.pieces(seed, *dims)
        (e_i, e_f), pair = funcs.ft_factors(), funcs.exp_beta_q
        resid, worst = detailed_ft_check(spectra, funcs)
        mask = detailed_support(spectra)
        if not mask.any():
            assert (resid, worst) == (0.0, None)
            return
        kernel = spectra.kernel
        p_m, p_mf, p_r = (np.where(p > 0.0, p, 1.0)
                          for p in (spectra.initial.p_m, spectra.final.p_m, spectra.p_r))
        ratio = (spectra.reverse_kernel / np.where(kernel > 0.0, kernel, 1.0)
                 * (spectra.p_r[None, :] / (p_r[:, None] * pair)))
        x_i, y_f = 1.0 / (p_m[:, None, None] * e_i), p_mf[:, None, None] / e_f
        every = np.abs(ratio[:, None, None, :, None, None, :, :]
                       * (x_i[:, :, :, None, None, None, None, None]
                          * y_f[None, None, None, :, :, :, None, None]) - 1.0)
        every = np.where(mask, every, -1.0)
        assert resid == every.max()
        assert worst == tuple(int(i) for i in np.unravel_index(np.argmax(every), every.shape))
