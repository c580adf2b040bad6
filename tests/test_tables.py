import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bift.errors import ConsistencyError, DimensionError, SizeError
from bift.linalg import (
    ReservoirSpec,
    Tolerances,
    density_operator,
    haar_unitary,
    remix_degenerate_blocks,
    spectral_decompose,
)
from bift.scenarios import (
    bell_adiabatic_counterexample,
    bell_basis,
    random_instance,
    werner_isothermal,
)
from bift.tables import (
    UnitarySystem,
    augmented_forward,
    conditional_table,
    global_table,
    marginal,
    reverse_joint,
    spectra_from_analytic,
    spectra_from_unitary,
)

from conftest import oracle_forward_table, oracle_reverse_table, werner_spectra


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
        # an injected conditional table whose global dimension is not A x B
        s = werner_spectra()
        with pytest.raises(DimensionError):
            spectra_from_analytic(dataclasses.replace(s, cond_initial=s.cond_initial[:3]))


class TestGlobalTmpJoint:
    """The global two-point table p_{m,m';r,r'} (``global_table``)."""

    def test_identity_propagator_delta_structure(self, rng):
        system = random_instance(2, 2, 2, seed=5)
        system = dataclasses.replace(system, unitary=np.eye(8, dtype=complex))
        table = global_table(spectra_from_unitary(system))
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
        got = global_table(spectra_from_unitary(system))
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
        table = global_table(spectra_from_unitary(random_instance(2, 3, 2, seed=9)))
        assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_inconsistent_final(self, rng):
        system = random_instance(2, 2, 2, seed=3)
        wrong = spectral_decompose(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ConsistencyError):
            spectra_from_unitary(system, final_decomposition=wrong)


class TestForwardTable:
    def test_matches_loop_oracle(self):
        system = random_instance(2, 2, 2, seed=11)
        spectra = spectra_from_unitary(system)
        fwd = augmented_forward(spectra)
        assert np.max(np.abs(fwd.table - oracle_forward_table(spectra))) < 1e-15

    def test_marginal_over_primed_indices(self):
        system = random_instance(2, 2, 2, seed=12)
        spectra = spectra_from_unitary(system)
        fwd = augmented_forward(spectra)
        got = marginal(fwd, ("m", "a", "b", "r"))
        want = (spectra.cond_initial[:, :, :, None]
                * spectra.p_m[:, None, None, None]
                * spectra.p_r[None, None, None, :])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_werner_pure_support(self):
        fwd = werner_isothermal(1.0).analysis.forward
        nz = np.argwhere(fwd.table > 1e-12)
        assert len(nz) == 2
        entries = {tuple(int(i) for i in idx): fwd.table[tuple(idx)] for idx in nz}
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
        fwd = augmented_forward(spectra)
        joint_ab = marginal(fwd, ("a", "b"))
        assert np.max(np.abs(joint_ab - np.outer(pa, pb))) < 1e-12

    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(2, 2, 2), (2, 3, 3), (3, 3, 4)]))
    @settings(max_examples=20, deadline=None)
    def test_normalization(self, seed, dims):
        system = random_instance(*dims, seed=seed)
        spectra = spectra_from_unitary(system)
        fwd = augmented_forward(spectra)
        rev = reverse_joint(spectra, fwd)
        assert fwd.total() == pytest.approx(1.0, abs=1e-10)
        assert rev.total() == pytest.approx(1.0, abs=1e-10)
        assert np.all(fwd.table >= 0.0)
        assert np.all(rev.table >= 0.0)


class TestReverseTable:
    def test_matches_loop_oracle(self):
        system = random_instance(2, 2, 2, seed=13)
        spectra = spectra_from_unitary(system)
        rev = reverse_joint(spectra, augmented_forward(spectra))
        assert np.max(np.abs(rev.table - oracle_reverse_table(spectra))) < 1e-15

    def test_werner_pure_restricted_quarter(self):
        rev = werner_isothermal(1.0).analysis.reverse
        assert rev.restricted_mass == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_werner_mixed_no_irreversibility(self, p):
        rev = werner_isothermal(p).analysis.reverse
        assert rev.restricted_mass == pytest.approx(1.0, abs=1e-12)

    def test_werner_reverse_entries(self):
        rev = werner_isothermal(0.7).analysis.reverse
        nz = np.argwhere(rev.table > 1e-12)
        assert len(nz) == 8
        for idx in nz:
            assert rev.table[tuple(idx)] == pytest.approx(0.125)
            # the reversed process always starts from the final ground state
            assert tuple(int(i) for i in idx[3:6]) == (0, 0, 0)

    def test_identity_full_rank_support(self, rng):
        rho = density_operator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        system = UnitarySystem(2, 2, rho, ReservoirSpec((0.0, 1.0), 1.0),
                               np.eye(8, dtype=complex))
        spectra = spectra_from_unitary(system)
        rev = reverse_joint(spectra, augmented_forward(spectra))
        assert rev.restricted_mass == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_support_monotonicity_full_rank(self, seed):
        system = random_instance(2, 2, 2, seed=seed)
        spectra = spectra_from_unitary(system)
        fwd = augmented_forward(spectra)
        assert fwd.forward_support.all()
        rev = reverse_joint(spectra, fwd)
        assert rev.restricted_mass == pytest.approx(1.0, abs=1e-10)


class TestMarginal:
    def test_everything_dropped(self):
        fwd = werner_isothermal(0.3).analysis.forward
        assert marginal(fwd, ()) == pytest.approx(1.0, abs=1e-12)

    def test_local_marginal_matches_state(self):
        system = random_instance(2, 3, 2, seed=21)
        spectra = spectra_from_unitary(system)
        fwd = augmented_forward(spectra)
        assert np.max(np.abs(marginal(fwd, ("a",)) - spectra.p_a)) < 1e-12
        assert np.max(np.abs(marginal(fwd, ("b",)) - spectra.p_b)) < 1e-12

    def test_werner_global_marginal(self):
        fwd = werner_isothermal(0.5).analysis.forward
        p_m = marginal(fwd, ("m",))
        assert p_m[0] == pytest.approx(5 / 8)   # (1 + 3p)/4 at p = 1/2
        assert p_m[1:] == pytest.approx([1 / 8] * 3)

    def test_axis_order_respected(self):
        fwd = werner_isothermal(0.5).analysis.forward
        ab = marginal(fwd, ("a", "b"))
        ba = marginal(fwd, ("b", "a"))
        assert np.max(np.abs(ab - ba.T)) == 0.0

    def test_rejects_bad_axis(self):
        fwd = werner_isothermal(0.5).analysis.forward
        with pytest.raises(DimensionError):
            marginal(fwd, ("q",))


class TestAnalyticValidation:
    """``spectra_from_analytic`` on an injected-kernel ``SystemSpectra``."""

    def test_kernel_image_must_match_final(self):
        bad = dataclasses.replace(werner_spectra(),
                                  p_m_final=np.array([0.0, 1.0, 0.0, 0.0]))  # wrong target
        with pytest.raises(ConsistencyError):
            spectra_from_analytic(bad)

    def test_kernel_rows_must_be_stochastic(self):
        s = werner_spectra()
        bad_kernel = s.kernel.copy()
        bad_kernel[0, 0, 0, 0] = 0.5
        with pytest.raises(ConsistencyError):
            spectra_from_analytic(dataclasses.replace(s, kernel=bad_kernel))

    def test_equality_tolerance_reaches_kernel_checks(self):
        s = werner_spectra()
        off = s.kernel.copy()
        off[0, 0, 0, 0] += 1e-11
        near = dataclasses.replace(s, kernel=off)
        spectra_from_analytic(near)
        with pytest.raises(ConsistencyError):
            spectra_from_analytic(near, Tolerances(equality=1e-12))

    def test_dim_r_must_match_p_r(self):
        with pytest.raises(DimensionError):
            spectra_from_analytic(dataclasses.replace(werner_spectra(), dim_r=2))


class TestGuardsAndOverrides:
    def test_size_guard(self, rng):
        rho = density_operator(np.eye(36, dtype=complex) / 36)
        system = UnitarySystem(6, 6, rho,
                               ReservoirSpec(tuple(range(8)), 1.0),
                               np.eye(36 * 8, dtype=complex))
        with pytest.raises(SizeError):
            spectra_from_unitary(system)

    def test_override_must_reconstruct(self, rng):
        system = random_instance(2, 2, 2, seed=31)
        wrong = spectral_decompose(np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(ConsistencyError):
            spectra_from_unitary(system, initial_decomposition=wrong)

    def test_degenerate_remix_is_valid_override(self, rng):
        system = random_instance(2, 2, 2, seed=32, degenerate=True)
        dec = system.rho_ab.decomposition
        remixed = remix_degenerate_blocks(dec, rng)
        spectra = spectra_from_unitary(system, initial_decomposition=remixed)
        fwd = augmented_forward(spectra)
        assert fwd.total() == pytest.approx(1.0, abs=1e-10)


class TestCounterexampleTables:
    def test_routes_share_global_marginals(self):
        a = bell_adiabatic_counterexample(0.4, route="unitary").analysis
        b = bell_adiabatic_counterexample(0.4, route="analytic").analysis
        # per-tuple tables differ by the degenerate-block gauge, but the
        # endpoint marginals must agree
        for keep in (("m",), ("a", "b"), ("a_final", "b_final")):
            ga = marginal(a.forward, keep)
            gb = marginal(b.forward, keep)
            assert np.max(np.abs(np.sort(ga.ravel()) - np.sort(gb.ravel()))) < 1e-10

    def test_unitary_route_uses_bell_image(self):
        a = bell_adiabatic_counterexample(0.4, route="unitary").analysis
        # final local states are maximally mixed
        assert np.max(np.abs(a.spectra.p_a_final - 0.5)) < 1e-12
        assert np.max(np.abs(a.spectra.p_b_final - 0.5)) < 1e-12
