import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bift.cli import _guard_size, build_analysis, dense_table, validate_config
from bift.errors import BiftError
from bift.linalg import (
    DEFAULT_TOL,
    MAX_HEAT_EXPONENT,
    ReservoirSpec,
    Tolerances,
    density_operator,
    haar_unitary,
    spectral_decompose,
)
from bift.scenarios import (
    bell_adiabatic_counterexample,
    bell_basis,
    random_instance,
    random_scenario,
)
from bift.tables import (
    UnitarySystem,
    conditional_table,
    spectra_from_analytic,
    spectra_from_unitary,
)

from bift.theorems import evaluate

from conftest import (
    dense_tables,
    oracle_counterexample_spectra,
    oracle_final_state,
    oracle_loop_tables,
    oracle_two_point_tables,
    oracle_two_point_tables_50_digits,
    remix_derived_decompositions,
    remix_initial,
    replace_endpoint,
    werner_spectra,
)


class TestConditionalLocal:
    """The conditional weights |<m|a,b>|^2 (``conditional_table``)."""

    def test_bell_half(self):
        cond = conditional_table(bell_basis(), np.eye(2), np.eye(2))
        assert cond[0, 0, 0] == pytest.approx(0.5)
        assert cond[0, 1, 1] == pytest.approx(0.5)

    def test_bell_zero(self):
        cond = conditional_table(bell_basis(), np.eye(2), np.eye(2))
        assert cond[0, 0, 1] == 0.0
        assert cond[0, 1, 0] == 0.0

    def test_product_vector(self, rng):
        u_a = haar_unitary(2, rng)
        u_b = haar_unitary(3, rng)
        m = np.kron(u_a[:, 0], u_b[:, 0])[:, None]
        assert conditional_table(m, u_a, u_b)[0, 0, 0] == pytest.approx(1.0)

    def test_completeness(self, rng):
        cond = conditional_table(haar_unitary(6, rng), np.eye(2), np.eye(3))
        assert np.max(np.abs(cond.sum(axis=(1, 2)) - 1.0)) < 1e-12

    def test_dimension_mismatch(self):
        # an injected conditional table whose global dimension is not A x B,
        # on either endpoint
        s = werner_spectra()
        for side in ("initial", "final"):
            with pytest.raises(BiftError, match=rf"{side}\.cond must have shape \(4, 2, 2\), "
                                                r"got \(3, 2, 2\)"):
                spectra_from_analytic(
                    replace_endpoint(s, side, cond=getattr(s, side).cond[:3]))


class TestGlobalTmpJoint:
    """The global two-point table p_{m,m';r,r'} (``SystemSpectra.two_point``)."""

    def test_identity_propagator_delta_structure(self, rng):
        system = random_instance(2, 2, 2, seed=5)
        system = dataclasses.replace(system, unitary=np.eye(8, dtype=complex))
        table = spectra_from_unitary(system).two_point()
        # with U = I the endpoint bases coincide, so the kernel part is
        # the identity permutation on (m, r)
        for m in range(4):
            for mf in range(4):
                for r in range(2):
                    for rf in range(2):
                        if (m, r) != (mf, rf):
                            assert table[m, mf, r, rf] < 1e-20

    def test_swap_two_equal_qubits_oracle(self):
        # diagonal two-qubit state, no reservoir levels to speak of
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        rho = density_operator(np.diag(probs).astype(complex))
        swap = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                swap[2 * b + a, 2 * a + b] = 1.0
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0,), 1.0), swap.astype(complex))
        got = spectra_from_unitary(system).two_point()
        # oracle: explicit enumeration over the 4x4 outcome pairs;
        # eigenvalues sort descending so eigenvector k is computational
        # state order[k]
        order = np.argsort(probs)[::-1]
        final = spectral_decompose(swap @ np.diag(probs) @ swap.T)
        forder = [int(np.argmax(np.abs(final.vectors[:, k]))) for k in range(4)]
        oracle = np.zeros((4, 4, 1, 1))
        for m in range(4):
            for mf in range(4):
                src = order[m]
                dst = forder[mf]
                a, b = divmod(src, 2)
                swapped = 2 * b + a
                oracle[m, mf, 0, 0] = probs[src] * (1.0 if dst == swapped else 0.0)
        assert np.max(np.abs(got - oracle)) < 1e-14

    def test_sums_to_one(self, rng):
        table = spectra_from_unitary(random_instance(2, 3, 2, seed=9)).two_point()
        assert table.sum() == pytest.approx(1.0, abs=1e-12)


def reservoir_only(system):
    """``system`` with a Haar propagator on the reservoir alone, so that the
    final AB state is the initial one, degenerate blocks included."""
    d_m, rng = system.dim_a * system.dim_b, np.random.default_rng(0)
    return dataclasses.replace(
        system, unitary=np.kron(np.eye(d_m), haar_unitary(system.reservoir.dim, rng)))


# Every system has M * R <= 16, where the operator formulas stay cheap.
ORACLE_SYSTEMS = {
    "(2,2,1)": lambda: random_instance(2, 2, 1, seed=5),
    "(3,3,1)-rank-deficient": lambda: random_instance(3, 3, 1, seed=5, rank_deficient=True),
    "(2,1,3)": lambda: random_instance(2, 1, 3, seed=5),
    "(2,2,2)": lambda: random_instance(2, 2, 2, seed=5),
    "(2,3,2)-rank-deficient": lambda: random_instance(2, 3, 2, seed=5, rank_deficient=True),
    "(2,2,4)": lambda: random_instance(2, 2, 4, seed=5),
    "(2,2,4)-rank-deficient": lambda: random_instance(2, 2, 4, seed=5, rank_deficient=True),
    "(1,2,8)": lambda: random_instance(1, 2, 8, seed=5),
    "(2,2,2)-degenerate": lambda: random_instance(2, 2, 2, seed=5, degenerate=True),
    "(2,3,2)-degenerate-rank-deficient": lambda: random_instance(
        2, 3, 2, seed=5, degenerate=True, rank_deficient=True),
    "(2,2,4)-degenerate-final": lambda: reservoir_only(random_instance(
        2, 2, 4, seed=5, degenerate=True, rank_deficient=True)),
}


class TestOperatorOracle:
    @pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
    def test_tables_and_final_state(self, name):
        # the propagator route against projector traces that read
        # neither the kernel nor ``transition_kernel``
        system = ORACLE_SYSTEMS[name]()
        spectra = spectra_from_unitary(system)
        forward, reverse = oracle_two_point_tables(system)
        for got, want in ((spectra.two_point(), forward),
                          (spectra.two_point(reverse=True), reverse)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the final state, through its spectrum and those of its two marginals
        d_a, d_b = system.dim_a, system.dim_b
        final = oracle_final_state(system).reshape(d_a, d_b, d_a, d_b)
        for got, state in ((spectra.final.p_m, final.reshape(d_a * d_b, -1)),
                           (spectra.final.p_a, np.einsum("ajbj->ab", final)),
                           (spectra.final.p_b, np.einsum("jajb->ab", final))):
            assert np.max(np.abs(got - np.linalg.eigvalsh(state)[::-1])) <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 4)])
    def test_tables_at_50_digits(self, dims, seed):
        # an oracle that calls no bift code, on spectra without degenerate
        # levels: every entry of both tables to 1e-12 of its own size
        system = random_instance(*dims, seed=seed)
        spectra = spectra_from_unitary(system)
        forward, reverse = oracle_two_point_tables_50_digits(system)
        for got, want in ((spectra.two_point(), forward),
                          (spectra.two_point(reverse=True), reverse)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestForwardTable:
    def test_matches_loop_oracle(self):
        system = random_instance(2, 2, 2, seed=11)
        spectra = spectra_from_unitary(system)
        fwd = dense_tables(spectra)[0]
        assert np.max(np.abs(fwd - oracle_loop_tables(spectra)[0])) < 1e-15

    def test_marginal_over_primed_indices(self):
        system = random_instance(2, 2, 2, seed=12)
        spectra = spectra_from_unitary(system)
        fwd = dense_tables(spectra)[0]
        got = fwd.sum(axis=(3, 4, 5, 7))
        want = (spectra.initial.cond[:, :, :, None]
                * spectra.initial.p_m[:, None, None, None]
                * spectra.p_r[None, None, None, :])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_werner_pure_support(self):
        fwd = dense_tables(werner_spectra(1.0))[0]
        nz = np.argwhere(fwd > 1e-12)
        assert len(nz) == 2
        entries = {tuple(int(i) for i in idx): fwd[tuple(idx)] for idx in nz}
        assert entries[(0, 0, 0, 0, 0, 0, 0, 0)] == pytest.approx(0.5)
        assert entries[(0, 1, 1, 0, 0, 0, 0, 0)] == pytest.approx(0.5)

    def test_product_state_identity_propagator(self, rng):
        # independent local spectra, no dynamics: the joint table is the
        # product of the endpoint local distributions
        pa = np.array([0.7, 0.3])
        pb = np.array([0.6, 0.4])
        rho = density_operator(np.diag(np.kron(pa, pb)).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0,), 1.0),
                               np.eye(4, dtype=complex))
        spectra = spectra_from_unitary(system)
        fwd = dense_tables(spectra)[0]
        joint_ab = fwd.sum(axis=(0, 3, 4, 5, 6, 7))
        assert np.max(np.abs(joint_ab - np.outer(pa, pb))) < 1e-12

    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(2, 2, 2), (2, 3, 3), (3, 3, 4)]))
    @settings(max_examples=20, deadline=None)
    def test_normalization(self, seed, dims):
        system = random_instance(*dims, seed=seed)
        spectra = spectra_from_unitary(system)
        fwd, rev = dense_tables(spectra)
        assert fwd.sum() == pytest.approx(1.0, abs=1e-10)
        assert rev.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(fwd >= 0.0)
        assert np.all(rev >= 0.0)

    @pytest.mark.parametrize("dims", [(2, 3, 3), (3, 3, 4)])
    def test_dense_is_c_contiguous_broadcast_product(self, dims):
        # the report writer reads the emitted table flat, with no copy;
        # its entries are the bits of the broadcast product
        spectra = spectra_from_unitary(random_instance(*dims, seed=3))
        for reverse in (False, True):
            table = spectra.two_point(reverse)
            dense = dense_table(spectra, table)
            assert dense.flags.c_contiguous
            assert np.array_equal(dense, table[:, None, None, :, None, None, :, :]
                                  * spectra.initial.cond[:, :, :, None, None, None, None, None]
                                  * spectra.final.cond[None, None, None, :, :, :, None, None])


class TestReverseTable:
    def test_matches_loop_oracle(self):
        system = random_instance(2, 2, 2, seed=13)
        spectra = spectra_from_unitary(system)
        rev = dense_tables(spectra)[1]
        assert np.max(np.abs(rev - oracle_loop_tables(spectra)[1])) < 1e-15

    def test_werner_pure_restricted_quarter(self):
        rep = evaluate(werner_spectra(1.0)).report
        assert rep.gamma_restricted == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_werner_mixed_no_irreversibility(self, p):
        rep = evaluate(werner_spectra(p)).report
        assert rep.gamma_restricted == pytest.approx(1.0, abs=1e-12)

    def test_werner_reverse_entries(self):
        rev = dense_tables(werner_spectra(0.7))[1]
        nz = np.argwhere(rev > 1e-12)
        assert len(nz) == 8
        for idx in nz:
            assert rev[tuple(idx)] == pytest.approx(0.125)
            # the reversed process always starts from the final ground state
            assert tuple(int(i) for i in idx[3:6]) == (0, 0, 0)

    def test_identity_full_rank_support(self, rng):
        rho = density_operator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0, 1.0), 1.0),
                               np.eye(8, dtype=complex))
        rep = evaluate(spectra_from_unitary(system)).report
        assert rep.gamma_restricted == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_support_monotonicity_full_rank(self, seed):
        system = random_instance(2, 2, 2, seed=seed)
        analysis = evaluate(spectra_from_unitary(system))
        assert analysis.spectra.support.all()
        assert analysis.report.gamma_restricted == pytest.approx(1.0, abs=1e-10)


class TestMarginal:
    def test_everything_dropped(self):
        fwd = dense_tables(werner_spectra(0.3))[0]
        assert fwd.sum() == pytest.approx(1.0, abs=1e-12)

    def test_local_marginal_matches_state(self):
        system = random_instance(2, 3, 2, seed=21)
        spectra = spectra_from_unitary(system)
        fwd = dense_tables(spectra)[0]
        end = spectra.initial
        assert np.max(np.abs(fwd.sum(axis=(0, 2, 3, 4, 5, 6, 7)) - end.p_a)) < 1e-12
        assert np.max(np.abs(fwd.sum(axis=(0, 1, 3, 4, 5, 6, 7)) - end.p_b)) < 1e-12

    def test_werner_global_marginal(self):
        fwd = dense_tables(werner_spectra(0.5))[0]
        p_m = fwd.sum(axis=(1, 2, 3, 4, 5, 6, 7))
        assert p_m[0] == pytest.approx(5 / 8)   # (1 + 3p)/4 at p = 1/2
        assert p_m[1:] == pytest.approx([1 / 8] * 3)


# Every array a caller injects into ``spectra_from_analytic``: (endpoint
# or None for the bundle itself, field name).
INJECTED_ARRAYS = [(side, name) for side in ("initial", "final")
                   for name in ("p_m", "p_a", "p_b", "cond")] + \
                  [(None, "p_r"), (None, "kernel"), (None, "reverse_kernel"), (None, "beta_q")]
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# No probability, conditional weight or kernel entry can be negative
# beyond the PSD tolerance.
IMPOSSIBLE_WEIGHTS = NON_FINITE | st.floats(max_value=-2 * DEFAULT_TOL.psd,
                                            allow_infinity=False)
# A heat exponent may be negative, but e^{beta Q} must stay finite:
# |beta Q| <= MAX_HEAT_EXPONENT = ln(largest double).
_HUGE = st.floats(min_value=MAX_HEAT_EXPONENT, exclude_min=True, allow_infinity=False)
HEAT_EXPONENTS_OUT_OF_RANGE = NON_FINITE | _HUGE | _HUGE.map(lambda x: -x)


def row_bundles():
    """Valid bundles for the kernels' row checks, each accepted with its
    arrays unchanged: Werner, where R = 1 and the two r axes have size 1,
    and a propagator's bundle at R = 3, which only the rows over (m', r')
    forward and (m, r) reverse accept."""
    bundles = [werner_spectra(), random_scenario(0, (2, 2, 3)).spectra]
    for s in bundles:
        accepted = spectra_from_analytic(s)
        for name in ("kernel", "reverse_kernel"):
            assert np.array_equal(getattr(accepted, name), getattr(s, name))
    return bundles


class TestAnalyticValidation:
    """``spectra_from_analytic`` on an injected-kernel ``SystemSpectra``."""

    def test_kernel_image_must_match_final(self):
        bad = replace_endpoint(werner_spectra(), "final",
                               p_m=np.array([0.0, 1.0, 0.0, 0.0]))  # wrong target
        with pytest.raises(BiftError, match="forward kernel image disagrees with final spectrum"):
            spectra_from_analytic(bad)

    def test_kernel_rows_must_be_stochastic(self):
        for s in row_bundles():
            bad_kernel = s.kernel.copy()
            bad_kernel[0, 0, 0, 0] = 0.5
            with pytest.raises(BiftError, match="forward kernel rows do not sum to 1"):
                spectra_from_analytic(dataclasses.replace(s, kernel=bad_kernel))

    def test_reverse_kernel_rows_must_be_stochastic(self):
        # the reversed process from (m', r') = (0, 0) lands with a mass that is not 1
        for s in row_bundles():
            bad_kernel = s.reverse_kernel.copy()
            bad_kernel[0, 0, 0, 0] = 0.5
            with pytest.raises(BiftError, match="reverse kernel rows do not sum to 1"):
                spectra_from_analytic(dataclasses.replace(s, reverse_kernel=bad_kernel))

    @pytest.mark.parametrize("name", ["kernel", "reverse_kernel"])
    def test_kernel_shape(self, name):
        s = werner_spectra()
        with pytest.raises(BiftError, match=rf"{name.replace('_', ' ')} must have shape "
                                            r"\(4, 4, 1, 1\), got \(3, 4, 1, 1\)"):
            spectra_from_analytic(dataclasses.replace(s, **{name: getattr(s, name)[:3]}))

    def test_heat_exponent_shape(self):
        with pytest.raises(BiftError, match=r"beta_q must have shape \(1,1\)"):
            spectra_from_analytic(werner_spectra(beta_q=np.zeros((2, 2))))

    @pytest.mark.parametrize("side", ["initial", "final"])
    def test_global_spectrum_length(self, side):
        s = werner_spectra()
        with pytest.raises(BiftError, match=rf"{side}\.p_m must have shape \(4,\), got \(3,\)"):
            spectra_from_analytic(replace_endpoint(s, side, p_m=np.array([0.5, 0.25, 0.25])))

    def test_equality_tolerance_reaches_kernel_checks(self):
        s = werner_spectra()
        off = s.kernel.copy()
        off[0, 0, 0, 0] += 1e-11
        near = dataclasses.replace(s, kernel=off)
        spectra_from_analytic(near)
        with pytest.raises(BiftError, match="forward kernel rows do not sum to 1"):
            spectra_from_analytic(near, Tolerances(equality=1e-12))

    @pytest.mark.parametrize("side", ["initial", "final"])
    @pytest.mark.parametrize("name", ["p_m", "p_a", "p_b"])
    def test_probabilities_must_sum_to_one(self, side, name):
        s = werner_spectra()
        bad = replace_endpoint(s, side, **{name: getattr(getattr(s, side), name) * 1.01})
        with pytest.raises(BiftError, match=rf"{side}\.{name} sums to 1\.01"):
            spectra_from_analytic(bad)

    @pytest.mark.parametrize("side", ["initial", "final"])
    @pytest.mark.parametrize("name", ["p_m", "p_a", "p_b"])
    def test_probabilities_must_be_nonnegative(self, side, name):
        # same sum, the second entry moved to -0.25
        s = werner_spectra()
        p = getattr(getattr(s, side), name).copy()
        p[0], p[1] = p[0] + p[1] + 0.25, -0.25
        bad = replace_endpoint(s, side, **{name: p})
        with pytest.raises(BiftError, match=rf"{side}\.{name} has negative entries"):
            spectra_from_analytic(bad)

    @pytest.mark.parametrize("side", ["initial", "final"])
    def test_conditional_rows_must_sum_to_one(self, side):
        s = werner_spectra()
        bad = replace_endpoint(s, side, cond=getattr(s, side).cond * 1.01)
        with pytest.raises(BiftError, match=rf"{side}\.cond rows do not sum to 1"):
            spectra_from_analytic(bad)

    @pytest.mark.parametrize("side", ["initial", "final"])
    def test_conditional_shape(self, side):
        s = werner_spectra()
        cond = getattr(s, side).cond
        with pytest.raises(BiftError, match=rf"{side}\.cond must have shape \(4, 2, 2\), "
                                            r"got \(4, 2, 1\)"):
            spectra_from_analytic(replace_endpoint(s, side, cond=cond[:, :, :1]))

    @pytest.mark.parametrize("side, name", [("initial", "p_a"), ("initial", "p_b"),
                                            (None, "p_r")])
    def test_sizes_come_from_vectors(self, side, name):
        # the sizes are read off initial.p_a, initial.p_b and p_r, which
        # must be vectors
        s = werner_spectra()
        owner = getattr(s, side) if side else s
        column = np.asarray(getattr(owner, name))[:, None]
        bad = (replace_endpoint(s, side, **{name: column}) if side
               else dataclasses.replace(s, **{name: column}))
        with pytest.raises(BiftError, match="initial.p_a, initial.p_b and p_r must be "
                                            "one-dimensional"):
            spectra_from_analytic(bad)

    @given(scenario=st.sampled_from(["werner", "counterexample"]),
           where=st.sampled_from(INJECTED_ARRAYS), index=st.integers(min_value=0),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_impossible_entry_rejected(self, scenario, where, index, data):
        side, name = where
        value = data.draw(HEAT_EXPONENTS_OUT_OF_RANGE if name == "beta_q"
                          else IMPOSSIBLE_WEIGHTS)
        spectra = (werner_spectra() if scenario == "werner"
                   else oracle_counterexample_spectra(0.3))
        owner = getattr(spectra, side) if side else spectra
        arr = np.array(getattr(owner, name), dtype=float)
        arr.flat[index % arr.size] = value
        bad = (replace_endpoint(spectra, side, **{name: arr}) if side
               else dataclasses.replace(spectra, **{name: arr}))
        with pytest.raises(BiftError):
            spectra_from_analytic(bad)


class TestGuardsAndOverrides:
    def test_size_guard(self):
        # the guard refuses the config before its matrices are decoded; the
        # library route builds the system
        explicit = {"system": {"dims": [6, 6, 8], "rho_ab": [], "unitary": [],
                               "reservoir": {"energies": list(range(8)), "beta": 1.0}}}
        tol, points = validate_config(explicit, "run")
        with pytest.raises(BiftError,
                           match="dense tuple table would hold 107495424 > 10000000 entries"):
            build_analysis(explicit, tol, *points)
        rho = density_operator(np.eye(36, dtype=complex) / 36)
        system = UnitarySystem(6, 6, rho,
                               ReservoirSpec(tuple(range(8)), 1.0),
                               np.eye(36 * 8, dtype=complex))
        assert spectra_from_unitary(system).kernel.shape == (36, 36, 8, 8)

    def test_size_guard_counts_exactly(self):
        # (M·A·B·R)² = 2**128 entries: a fixed-width product wraps to 0
        with pytest.raises(BiftError, match=f"dense tuple table would hold {2 ** 128} > "):
            _guard_size(65536, 65536, 1)
        _guard_size(3, 3, 3)

    def test_unitary_route_refuses_overflowing_heat_exponents(self):
        # at beta Q = 710, e^{beta Q} overflows and the averages read NaN
        system = dataclasses.replace(random_instance(2, 2, 2, seed=1),
                                     reservoir=ReservoirSpec((0.0, 710.0), 1.0))
        with pytest.raises(BiftError, match=r"heat exponents beta \* \(E_r - E_r'\)"):
            spectra_from_unitary(system)

    def test_unitary_route_evaluates_the_largest_heat_exponent(self):
        system = dataclasses.replace(random_instance(2, 2, 2, seed=1),
                                     reservoir=ReservoirSpec((0.0, MAX_HEAT_EXPONENT), 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(spectra_from_unitary(system)).report
        assert math.isfinite(report.integral_ft_lhs)
        assert math.isfinite(report.reverse_ft_lhs)

    def test_degenerate_remix_is_valid_override(self, rng, monkeypatch):
        # d_R = 1: the final state keeps the initial's degenerate spectrum,
        # so both sides are re-gauged
        system = random_instance(2, 2, 1, seed=32, degenerate=True)
        canonical = spectra_from_unitary(system)
        remix_derived_decompositions(monkeypatch, rng)
        spectra = spectra_from_unitary(remix_initial(system, rng))
        for side in ("initial", "final"):
            assert not np.allclose(getattr(spectra, side).cond, getattr(canonical, side).cond)
        fwd = dense_tables(spectra)[0]
        assert fwd.sum() == pytest.approx(1.0, abs=1e-10)


class TestCounterexampleTables:
    def test_routes_share_global_marginals(self):
        a, b = (dense_tables(spectra)[0] for spectra in (
            bell_adiabatic_counterexample(0.4).spectra, oracle_counterexample_spectra(0.4)))
        # per-tuple tables differ by the degenerate-block gauge, but the
        # endpoint marginals must agree
        for drop in ((1, 2, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7), (0, 1, 2, 3, 6, 7)):
            ga = a.sum(axis=drop)
            gb = b.sum(axis=drop)
            assert np.max(np.abs(np.sort(ga.ravel()) - np.sort(gb.ravel()))) < 1e-10

    def test_unitary_route_uses_bell_image(self):
        a = bell_adiabatic_counterexample(0.4)
        # final local states are maximally mixed
        assert np.max(np.abs(a.spectra.final.p_a - 0.5)) < 1e-12
        assert np.max(np.abs(a.spectra.final.p_b - 0.5)) < 1e-12
