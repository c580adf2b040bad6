import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bift.cli import invariant_checks
from bift.functionals import EndpointFunctionals, EndpointTables
from bift.linalg import (
    DEFAULT_TOL,
    ReservoirSpec,
    Tolerances,
    density_operator,
    haar_unitary,
)
from bift.scenarios import (
    bell_adiabatic_counterexample,
    random_instance,
    werner_isothermal,
)
from bift.tables import (
    Endpoint,
    FactoredJoint,
    UnitarySystem,
    factored_joint,
    spectra_from_analytic,
    spectra_from_unitary,
)
from bift.theorems import (
    _supports,
    corrupt_reverse,
    detailed_ft_check,
    evaluate,
    inequality_suite,
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
    random_classical_instance,
    remix_derived_decompositions,
    remix_initial,
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
        e_i, e_f, pair = analysis.functionals.ft_factors()
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
        resid, worst = detailed_ft_check(analysis.joint, analysis.functionals.ft_factors())
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

    @pytest.mark.parametrize("seed", [0, 1, 4, 8])
    def test_matches_restricted_mass_when_rank_deficient(self, seed):
        analysis = analyze(random_instance(2, 2, 2, seed, rank_deficient=True))
        rep = analysis.report
        assert abs(rep.integral_ft_lhs - rep.gamma_restricted) < 1e-10

    @given(seed=st.integers(0, 10_000), gap=st.floats(0.0, 709.0))
    @example(seed=0, gap=707.0)
    @settings(max_examples=40, deadline=None)
    def test_steep_reservoir_averages_over_forward_support(self, seed, gap):
        # beta * dE up to the overflow limit: from about 27.6 on, the
        # upper level's Gibbs weight falls below the support cutoff and
        # its rows leave the forward support that gamma is summed over
        spectra = spectra_from_unitary(dataclasses.replace(
            random_instance(2, 2, 2, seed), reservoir=ReservoirSpec((0.0, gap), 1.0)))
        rep = evaluate(spectra).report
        assert abs(rep.integral_ft_lhs - rep.gamma_restricted) <= DEFAULT_TOL.equality
        assert abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di) <= DEFAULT_TOL.equality
        dense = dense_evaluate(spectra)
        for name in ("integral_ft_lhs", "gamma_restricted", "reverse_ft_lhs",
                     "reverse_avg_exp_di"):
            assert getattr(rep, name) == pytest.approx(getattr(dense, name), rel=1e-13, abs=0.0)

    def test_rank_deficiency_can_break_unity(self):
        gammas = [analyze(random_instance(2, 2, 2, s, rank_deficient=True))
                  .report.gamma_restricted for s in range(6)]
        assert any(g < 1.0 - 1e-6 for g in gammas)


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
            assert plain.applicable and plain.satisfied
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

    def test_work_bounds_absent_without_inputs(self):
        rep = evaluate_scenario(bell_adiabatic_counterexample(0.5)).report
        assert rep.bound("work_bound_info_gamma").applicable is False
        assert rep.bound("work_bound_info_gamma").satisfied is None

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
            assert rec.satisfied, name

    def test_saturation_when_exponent_constant(self, rng):
        # the isothermal Werner process has ds_A + ds_B - beta Q == 0 on
        # every trajectory while dI genuinely fluctuates between
        # -ln(1+3p) and -ln(1-p); the reverse-info bound must saturate
        analysis = evaluate_scenario(werner_isothermal(0.5))
        traj = dense_tuple_functionals(analysis.spectra)
        forward = dense_view(analysis.joint, analysis.joint.forward)
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
        assert rec.satisfied is not False
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
        scenario = bell_adiabatic_counterexample(0.5, route="analytic")
        assert dense_classical_reduction_check(scenario.spectra) is None
        assert evaluate_scenario(scenario).report.bound("classical_ft").applicable is False

    def test_held_to_equality_tolerance(self):
        # classical_ft is an equality: a rounding residual passes at
        # bound = 0, as integral_ft_vs_gamma does, and fails at equality = 0
        rep = analyze(random_classical_instance(2, 2, 2, 1), tol=Tolerances(bound=0.0)).report
        assert rep.bound("classical_ft").satisfied
        gamma = rep.gamma_restricted
        lhs = math.nextafter(gamma, math.inf)
        # the residual is one ulp of gamma, d, which passes at equality = d
        # exactly and fails one float below it
        d = lhs - gamma
        for tol, passed in ((Tolerances(bound=0.0), True), (Tolerances(equality=0.0), False),
                            (Tolerances(equality=d), True),
                            (Tolerances(equality=math.nextafter(d, 0.0)), False)):
            records = inequality_suite(rep.averages, gamma, rep.reverse_avg_exp_di, lhs, tol=tol)
            rec = next(r for r in records if r.name == "classical_ft")
            assert rec.satisfied is passed and rec.slack == -d

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
        residual, max_gap = dense_classical_reduction_check(analysis.spectra)
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-12)
        assert residual < 1e-12
        assert max_gap < 1e-12
        forward = dense_view(analysis.joint, analysis.joint.forward)
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
        analysis = evaluate_scenario(werner_isothermal(0.8))
        bad = corrupt_reverse(analysis.joint)
        resid, worst = detailed_ft_check(bad, analysis.functionals.ft_factors())
        assert resid > 1e-3
        assert worst is not None

    def test_werner_pure_corruption_lands_in_support(self):
        # the (0, 0, 0, 0) block is the only forward block at p = 1, and the
        # largest reverse entry (the first in C order) is that block
        joint = factored_joint(werner_isothermal(1.0).spectra)
        assert np.argwhere(joint.forward > 0.0).tolist() == [[0, 0, 0, 0]]
        bad = corrupt_reverse(joint)
        assert np.argwhere(bad.reverse != joint.reverse).tolist() == [[0, 0, 0, 0]]
        assert bad.reverse[0, 0, 0, 0] == 1.5 * joint.reverse[0, 0, 0, 0]
        assert joint.forward_support[0, 0]
        rep = evaluate(werner_isothermal(1.0).spectra, _reverse_corruption=True).report
        assert rep.gamma_restricted == pytest.approx(0.375)

    def test_corruption_flag_threads_through_evaluate(self):
        bad = evaluate(werner_isothermal(0.8).spectra, _reverse_corruption=True)
        assert bad.report.detailed_max_residual > 1e-3

    def test_empty_support_overlap_reports_sentinel(self):
        # artificial kernels whose reversed flow never returns to the
        # forward support: the factor is 0, its log the -inf sentinel,
        # and the log-based bounds are flagged vacuous
        base = werner_isothermal(1.0).spectra   # both endpoints' p_m = (1, 0, 0, 0)
        rkernel = np.zeros((4, 1, 4, 1))
        rkernel[3, 0, :, 0] = 1.0     # reverse flow lands on the empty level
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
    analysis = evaluate(spectra, _reverse_corruption=corruption, **kwargs)
    reverse_global = analysis.joint.reverse if corruption else None
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


def per_factor_support(joint, tol=DEFAULT_TOL) -> np.ndarray:
    """The detailed check's support rule, broadcast over the eight axes."""
    block, sup_i, sup_f = _supports(joint, tol)
    return (block[:, None, None, :, None, None, :, :]
            & sup_i[:, :, :, None, None, None, None, None]
            & sup_f[None, None, None, :, :, :, None, None])


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
        dense_resid, _ = dense_detailed_ft_check(fwd, rev, traj)
        assert dense_resid < 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_werner(self, p):
        analysis = assert_matches_dense_oracle(werner_isothermal(p).spectra)
        forward = dense_view(analysis.joint, analysis.joint.forward)
        assert np.array_equal(per_factor_support(analysis.joint), dense_support(forward))

    def test_support_rules_differ_on_small_products(self):
        # Each factor of this trajectory is well above its own cutoff (the
        # block is 1.0e-5 of the largest block, the conditional weights
        # are 2.5e-5 and 2.0e-3) but the product is 6.2e-13 of the largest
        # dense entry: only the per-factor rule keeps it, and the detailed
        # relation holds there to rounding.
        spectra = spectra_from_unitary(random_instance(2, 2, 3, seed=54))
        analysis = assert_matches_dense_oracle(spectra)
        forward, reverse = dense_tables(spectra)
        extra = per_factor_support(analysis.joint) & ~dense_support(forward)
        assert [tuple(int(i) for i in idx) for idx in np.argwhere(extra)] == [
            (3, 0, 0, 3, 0, 0, 2, 0)]
        assert not (dense_support(forward) & ~per_factor_support(analysis.joint)).any()
        idx = (3, 0, 0, 3, 0, 0, 2, 0)
        expo = np.broadcast_to(dense_tuple_functionals(spectra).ft_exponent(),
                               forward.shape)[idx]
        assert abs(reverse[idx] / forward[idx] - math.exp(expo)) < 1e-10
        assert analysis.report.detailed_max_residual < 1e-10

    def test_coarse_cutoff_leaves_blocks_without_tuples(self):
        # At support 0.5 some supported blocks have an endpoint with no
        # supported (a, b); the worst trajectory is still taken over the
        # supported tuples only.
        tol = dataclasses.replace(DEFAULT_TOL, support=0.5)
        analysis = evaluate(spectra_from_unitary(random_instance(3, 3, 3, seed=7), tol=tol),
                            tol=tol)
        forward, reverse = dense_tables(analysis.spectra)
        expo = dense_tuple_functionals(analysis.spectra).ft_exponent()
        mask = per_factor_support(analysis.joint, tol)
        resid = np.where(mask, np.abs(reverse / np.where(mask, forward, 1.0)
                                      - np.exp(expo)), -1.0)
        worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(resid)), resid.shape))
        assert tuple(analysis.report.detailed_worst) == worst
        assert analysis.report.detailed_max_residual == pytest.approx(resid.max(), abs=1e-15)

    @pytest.mark.parametrize("route", ["unitary", "analytic"])
    def test_counterexample(self, route):
        assert_matches_dense_oracle(bell_adiabatic_counterexample(0.5, route).spectra)

    def test_rank_deficient_gamma_below_one(self):
        spectra = spectra_from_unitary(random_instance(2, 2, 2, 1, rank_deficient=True))
        analysis = assert_matches_dense_oracle(spectra)
        assert analysis.report.gamma_restricted < 1.0 - 1e-6

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3)])
    def test_corrupted_reverse(self, dims):
        spectra = spectra_from_unitary(random_instance(*dims, seed=8))
        analysis = assert_matches_dense_oracle(spectra, corruption=True)
        assert analysis.report.detailed_max_residual > 1e-3


def full_product_expectation(joint, table, initial=1.0, final=1.0, pair=1.0) -> float:
    """``FactoredJoint.expectation`` with every factor multiplied in, a
    unit one too."""
    u = (joint.initial.cond * initial).sum(axis=(1, 2))
    v = (joint.final.cond * final).sum(axis=(1, 2))
    return float((table * u[:, None, None, None] * v[None, :, None, None] * pair).sum())


class TestExpectationBits:
    @pytest.mark.parametrize("case", ["random", "rank-deficient", "classical", "werner",
                                      "counterexample-analytic"])
    def test_every_call_matches_full_product(self, case, monkeypatch):
        spectra = {
            "random": lambda: spectra_from_unitary(random_instance(3, 3, 2, seed=6)),
            "rank-deficient": lambda: spectra_from_unitary(
                random_instance(4, 4, 3, seed=1, rank_deficient=True)),
            "classical": lambda: spectra_from_unitary(random_classical_instance(2, 3, 2, 4)),
            "werner": lambda: werner_isothermal(0.37).spectra,
            "counterexample-analytic":
                lambda: bell_adiabatic_counterexample(0.5, route="analytic").spectra,
        }[case]()
        calls = []
        expectation = FactoredJoint.expectation

        def recorded(joint, table, *factors, **named):
            got = expectation(joint, table, *factors, **named)
            calls.append((joint, table, factors, named, got))
            return got

        monkeypatch.setattr(FactoredJoint, "expectation", recorded)
        invariant_checks(evaluate(spectra), DEFAULT_TOL)
        assert len(calls) >= 17
        for joint, table, factors, named, got in calls:
            assert got.hex() == full_product_expectation(joint, table, *factors, **named).hex()

    def test_scalar_factors_multiply_in(self):
        joint = factored_joint(spectra_from_unitary(random_instance(2, 3, 2, seed=4)))
        for factors in ((2.0, 1.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 3.0), (2.0, 0.5, 3.0)):
            got = joint.expectation(joint.forward, *factors)
            assert got.hex() == full_product_expectation(joint, joint.forward, *factors).hex()
            assert got == pytest.approx(math.prod(factors), rel=1e-12)


class TestFactoredExtremes:
    """The block-extremes shortcut of the detailed check against a
    brute-force pass over all eight axes, on arbitrary factored inputs
    whose factors depend on the local labels (the physical ones cancel
    them up to rounding) and that tie often."""

    @staticmethod
    def pieces(seed, d_m=4, d_a=2, d_b=2, d_r=2):
        rng = np.random.default_rng(seed)

        def coarse(shape, zeros=0.0):
            # few distinct values, so residual ties are common
            x = rng.integers(1, 4, size=shape) / 2.0
            return np.where(rng.random(shape) < zeros, 0.0, x)

        cond_i = coarse((d_m, d_a, d_b), zeros=0.4)
        cond_f = coarse((d_m, d_a, d_b), zeros=0.4)
        cond_i[:, 0, 0] += 1.0        # no empty rows
        cond_f[:, 0, 0] += 1.0

        def endpoint(cond):
            # only the conditional weights enter the contractions
            return Endpoint(p_m=np.full(d_m, 1.0 / d_m), p_a=np.full(d_a, 1.0 / d_a),
                            p_b=np.full(d_b, 1.0 / d_b), cond=cond)
        joint = FactoredJoint(forward=coarse((d_m, d_m, d_r, d_r), zeros=0.3),
                              reverse=coarse((d_m, d_m, d_r, d_r)),
                              initial=endpoint(cond_i), final=endpoint(cond_f),
                              forward_support=np.ones((d_m, d_r), dtype=bool))
        info = coarse((d_m, d_a, d_b)), coarse((d_m, d_a, d_b))
        classical = coarse((d_a, d_b)), coarse((d_a, d_b))
        beta_q = np.log(coarse((d_r, d_r)))
        local = coarse((d_a, d_b)), coarse((d_a, d_b))
        info_ratio = coarse((d_m, d_a, d_b)), coarse((d_m, d_a, d_b))
        initial, final = (EndpointTables(l_pa=np.zeros(d_a), l_pb=np.zeros(d_b), info=info[k],
                                         classical=classical[k], local=local[k],
                                         info_ratio=info_ratio[k],
                                         classical_ratio=np.ones((d_a, d_b)))
                          for k in (0, 1))
        return joint, EndpointFunctionals(initial=initial, final=final, beta_q=beta_q)

    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(4, 2, 2, 2), (6, 2, 3, 1), (6, 3, 2, 3), (3, 1, 3, 2),
                                 (8, 4, 2, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_detailed_matches_brute_force(self, seed, dims):
        # (d_m, d_a, d_b, d_r); d_a != d_b catches a swapped local label
        joint, funcs = self.pieces(seed, *dims)
        e_i, e_f, pair = funcs.ft_factors()
        resid, worst = detailed_ft_check(joint, (e_i, e_f, pair))
        block = joint.forward > DEFAULT_TOL.support * joint.forward.max()
        ratio = np.where(block, joint.reverse / np.where(block, joint.forward, 1.0), 0.0)
        every = np.abs(ratio[:, None, None, :, None, None, :, :]
                       - pair * (e_i[:, :, :, None, None, None, None, None]
                                 * e_f[None, None, None, :, :, :, None, None]))
        every = np.where(per_factor_support(joint), every, -1.0)
        assert resid == every.max()
        assert worst == tuple(int(i) for i in np.unravel_index(np.argmax(every), every.shape))
