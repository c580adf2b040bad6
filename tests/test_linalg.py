import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bift.errors import BiftError
from bift.functionals import shannon_entropy
from bift.linalg import (
    ReservoirSpec,
    _canonical_block_basis,
    check_unitary,
    dagger,
    degenerate_blocks,
    density_operator,
    haar_unitary,
    partial_trace,
    spectral_decompose,
)

from conftest import (
    bell_ket,
    oracle_canonical_block_basis,
    oracle_spectral_decompose,
    random_density,
    random_hermitian,
    reconstruct,
    remix_degenerate_blocks,
    time_reverse,
    werner_state,
)

LN2 = math.log(2.0)


class TestPartialTrace:
    def test_bell_reduces_to_mixed(self):
        rho = np.outer(bell_ket(0), bell_ket(0).conj())
        got = partial_trace(rho, (2, 2), keep=0)
        assert np.max(np.abs(got - 0.5 * np.eye(2))) < 1e-14

    def test_product_state(self, rng):
        sa = random_density(2, rng)
        sb = random_density(3, rng)
        got = partial_trace(np.kron(sa, sb), (2, 3), keep=0)
        assert np.max(np.abs(got - sa)) < 1e-12
        got_b = partial_trace(np.kron(sa, sb), (2, 3), keep=1)
        assert np.max(np.abs(got_b - sb)) < 1e-12

    def test_werner_half_explicit_sum(self):
        # oracle: sum the 2x2 diagonal blocks of the explicit 4x4 matrix
        rho = werner_state(0.5)
        oracle = np.zeros((2, 2), dtype=complex)
        for a1 in range(2):
            for a2 in range(2):
                oracle[a1, a2] = sum(rho[2 * a1 + b, 2 * a2 + b] for b in range(2))
        got = partial_trace(rho, (2, 2), keep=0)
        assert np.max(np.abs(got - oracle)) < 1e-15
        assert np.max(np.abs(got - 0.5 * np.eye(2))) < 1e-15

    def test_dimension_mismatch(self, rng):
        with pytest.raises(BiftError, match=r"state of shape \(6, 6\) does not factor as 2x2"):
            partial_trace(random_density(6, rng), (2, 2), keep=0)
        with pytest.raises(BiftError, match="keep must be 0 or 1, got 2"):
            partial_trace(random_density(4, rng), (2, 2), keep=2)


class TestSpectralDecompose:
    def test_maximally_mixed_tie_break(self):
        dec = spectral_decompose(0.5 * np.eye(2))
        assert dec.probabilities == pytest.approx([0.5, 0.5])
        # canonical gauge inside the degenerate block: computational basis
        assert np.max(np.abs(dec.vectors - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_werner_spectrum(self, p):
        dec = spectral_decompose(werner_state(p))
        want = sorted([(1 + 3 * p) / 4] + 3 * [(1 - p) / 4], reverse=True)
        assert dec.probabilities == pytest.approx(want, abs=1e-12)
        # the top eigenvector is the first maximally entangled state
        assert abs(np.vdot(dec.vectors[:, 0], bell_ket(0))) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, seed, dim):
        h = random_hermitian(dim, np.random.default_rng(seed))
        dec = spectral_decompose(h)
        assert np.max(np.abs(reconstruct(dec) - h)) < 1e-10
        assert np.all(np.diff(dec.probabilities) <= 1e-12)

    def test_orthonormal(self, rng):
        dec = spectral_decompose(random_hermitian(5, rng))
        gram = dagger(dec.vectors) @ dec.vectors
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_deterministic_in_degenerate_block(self, rng):
        # two different Hermitian perturbations of size 0 share the block
        rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
        u = haar_unitary(3, rng)
        dec1 = spectral_decompose(u @ rho @ dagger(u))
        dec2 = spectral_decompose((u @ rho @ dagger(u)).copy())
        assert np.max(np.abs(dec1.vectors - dec2.vectors)) == 0.0

    @pytest.mark.parametrize("seed", range(50))
    def test_close_small_eigenvalues_stay_apart(self, seed):
        # distinct eigenvalues 1e-11 to 1e-10 apart, far above rounding:
        # each is a block of its own, and the basis is an eigenbasis
        lam = np.array([0.6, 0.4 - 5.7e-10, 3.25e-10, 2.25e-10, 2.0e-11, 0.0])
        n = len(lam)
        u = haar_unitary(n, np.random.default_rng(seed))
        rho = (u * lam) @ dagger(u)
        dec = spectral_decompose(rho)
        assert degenerate_blocks(dec.probabilities) == [(k, k + 1) for k in range(n)]
        residual = np.max(np.abs(rho @ dec.vectors - dec.vectors * dec.probabilities))
        assert residual <= 8 * n * np.finfo(float).eps

    @staticmethod
    def assert_same_bits(got, want):
        # Signed zeros and memory layout too: reports print -0, and the
        # layout picks the BLAS path of every product downstream.
        for a, b in ((got.probabilities, want.probabilities), (got.vectors, want.vectors)):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()
            assert a.strides == b.strides

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           spectrum=st.sampled_from(["full-rank", "zero-tail", "paired"]))
    @settings(max_examples=60, deadline=None)
    @example(seed=0, n=1, spectrum="full-rank")
    def test_matches_per_block_oracle(self, seed, n, spectrum):
        # At n = 1 the vectors are a copy, not eigh's reversed view.
        rng = np.random.default_rng(seed)
        lam = rng.random(n)
        if spectrum == "zero-tail":
            lam[rng.integers(0, n):] = 0.0
        elif spectrum == "paired":
            lam = np.repeat(lam[: (n + 1) // 2], 2)[:n]
        u = haar_unitary(n, rng)
        h = (u * lam) @ dagger(u)
        self.assert_same_bits(spectral_decompose(h), oracle_spectral_decompose(h))

    @pytest.mark.parametrize("state", ["permuted-diagonal", "product-basis", "bell-diagonal"])
    def test_zero_first_component_matches_oracle(self, state, rng):
        # Non-degenerate eigenvectors whose first component is zero (or,
        # for the product basis, eigh's dust): every block has one vector,
        # so eigh's columns are kept as they are, F-ordered.
        if state == "permuted-diagonal":
            h = np.diag(rng.permutation([0.4, 0.3, 0.2, 0.1, 0.0])).astype(complex)
        elif state == "product-basis":
            u = haar_unitary(2, rng)
            h = np.kron((u * [0.7, 0.3]) @ dagger(u), np.diag([0.5, 0.3, 0.2]))
        else:
            h = sum(w * np.outer(bell_ket(k), bell_ket(k).conj())
                    for k, w in enumerate([0.4, 0.3, 0.2, 0.1]))
        dec = spectral_decompose(h)
        assert len(set(dec.probabilities)) == len(dec.probabilities)
        assert np.any(np.abs(dec.vectors[0]) <= 1e-8)
        self.assert_same_bits(dec, oracle_spectral_decompose(h))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), k=st.integers(1, 30),
           level=st.sampled_from(["degenerate", "zero"]), first_zero=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_gauge_passes_match_loop_oracle(self, seed, n, k, level, first_zero):
        # A k-fold block at the bottom of the spectrum: a degenerate level
        # or the zero block of a rank-deficient state.  With
        # ``first_zero`` the first basis vector is an eigenvector of its
        # own, so the block pass rejects its first candidate.
        rng = np.random.default_rng(seed)
        first_zero = first_zero and n > 1
        m = n - 1 if first_zero else n
        k = min(k, m)
        lam = rng.random(m) + 0.5
        lam[:k] = 0.25 if level == "degenerate" else 0.0
        u = haar_unitary(m, rng)
        h = (u * lam) @ dagger(u)
        if first_zero:
            h = np.block([[np.full((1, 1), 2.0), np.zeros((1, m))], [np.zeros((m, 1)), h]])
        vals, vecs = np.linalg.eigh(h)
        vals, vecs = vals[::-1].copy(), vecs[:, ::-1]
        assert (n - k, n) in degenerate_blocks(vals)
        block = vecs[:, n - k:]
        got, want = _canonical_block_basis(block), oracle_canonical_block_basis(block)
        assert got.tobytes() == want.tobytes()


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(BiftError, match="matrix deviates from Hermitian by 1.000e[+]00"):
            density_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square_first(self):
        # a 2x3 matrix has no Hermiticity to judge: its shape is refused first
        with pytest.raises(BiftError, match=r"expected a square matrix, got shape \(2, 3\)"):
            density_operator(np.eye(2, 3))

    def test_validates_trace(self):
        with pytest.raises(BiftError, match="trace deviates from 1 by 1.000e[+]00"):
            density_operator(np.eye(2))

    def test_validates_psd(self):
        with pytest.raises(BiftError, match="negative eigenvalue -5.000e-01 below PSD tolerance"):
            density_operator(np.diag([1.5, -0.5]))

    def test_clips_dust(self):
        rho = density_operator(np.diag([1.0 + 5e-13, -5e-13]))
        assert rho.decomposition.probabilities.min() == 0.0


class TestGibbs:
    def test_large_gap_limit(self):
        spec = ReservoirSpec(energies=(0.0, 1e4), beta=1.0)
        p = spec.gibbs_probabilities()
        assert p[0] == pytest.approx(1.0, abs=1e-15)
        assert p[1] == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_levels(self):
        spec = ReservoirSpec(energies=(0.0, 0.0), beta=1.0)
        assert spec.gibbs_probabilities() == pytest.approx([0.5, 0.5])

    def test_ln2_gap(self):
        # e^0 / (e^0 + e^-ln2) = 1 / (1 + 1/2) = 2/3
        spec = ReservoirSpec(energies=(0.0, LN2), beta=1.0)
        assert spec.gibbs_probabilities() == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_positive_normalized(self):
        spec = ReservoirSpec(energies=(0.0, 1.3, 2.6, 4.1), beta=0.7)
        p = spec.gibbs_probabilities()
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_beta_must_be_positive(self):
        with pytest.raises(BiftError, match="beta must be positive, got 0.0"):
            ReservoirSpec(energies=(0.0,), beta=0.0)

    def test_needs_a_level(self):
        with pytest.raises(BiftError, match="reservoir needs at least one level"):
            ReservoirSpec(energies=(), beta=1.0)


class TestCheckUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(BiftError, match="operator deviates from unitary by 3.000e[+]00"):
            check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestTimeReverse:
    def test_real_vectors_fixed(self):
        dec = spectral_decompose(np.diag([0.6, 0.4]))
        rev = time_reverse(dec)
        assert np.max(np.abs(rev.vectors - dec.vectors)) == 0.0

    def test_conjugates(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        rho = np.outer(v, v.conj())
        dec = spectral_decompose(rho)
        rev = time_reverse(dec)
        top = rev.vectors[:, 0]
        want = np.array([1.0, -1.0j]) / math.sqrt(2)
        assert abs(abs(np.vdot(top, want)) - 1.0) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        dec = spectral_decompose(random_density(4, np.random.default_rng(seed)))
        twice = time_reverse(time_reverse(dec))
        assert np.max(np.abs(twice.vectors - dec.vectors)) < 1e-14
        assert np.array_equal(twice.probabilities, dec.probabilities)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_overlap_moduli_preserved(self, seed):
        rng = np.random.default_rng(seed)
        dec = spectral_decompose(random_density(4, rng))
        other = spectral_decompose(random_density(4, rng))
        rev_a, rev_b = time_reverse(dec), time_reverse(other)
        before = np.abs(dagger(dec.vectors) @ other.vectors)
        after = np.abs(dagger(rev_a.vectors) @ rev_b.vectors)
        assert np.max(np.abs(before - after)) < 1e-12


def entropy(rho) -> float:
    """Von Neumann entropy as the front end computes it (the mutual
    information check of ``verify``): the Shannon entropy of the spectrum."""
    return shannon_entropy(spectral_decompose(rho).probabilities)


class TestEntropy:
    def test_pure_state(self):
        v = np.array([1.0, 0.0])
        assert entropy(np.outer(v, v)) == 0.0

    def test_maximally_mixed(self):
        assert entropy(0.5 * np.eye(2)) == pytest.approx(LN2, abs=1e-14)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_werner(self, p):
        top = (1 + 3 * p) / 4
        rest = (1 - p) / 4
        want = -top * math.log(top) - 3 * rest * math.log(rest)
        assert entropy(werner_state(p)) == pytest.approx(want, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_subadditivity(self, seed):
        rho = random_density(4, np.random.default_rng(seed))
        s_ab = entropy(rho)
        s_a = entropy(partial_trace(rho, (2, 2), 0))
        s_b = entropy(partial_trace(rho, (2, 2), 1))
        assert s_ab <= s_a + s_b + 1e-10

    def test_bounded_by_log_dim(self, rng):
        rho = random_density(5, rng)
        assert 0.0 <= entropy(rho) <= math.log(5) + 1e-12


class TestEvolveReduceInvariant:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_unit_trace_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        rho_ab = random_density(4, rng)
        spec = ReservoirSpec(energies=tuple(np.sort(rng.uniform(0, 3, 2))), beta=1.0)
        rho_abr = np.kron(rho_ab, np.diag(spec.gibbs_probabilities()))
        u = haar_unitary(8, rng)
        final = u @ rho_abr @ dagger(u)
        reduced = partial_trace(final, (4, 2), keep=0)
        assert abs(np.trace(reduced).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(reduced).min() > -1e-10


class TestRemix:
    def test_reconstructs_same_operator(self, rng):
        rho = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
        u = haar_unitary(4, rng)
        dec = spectral_decompose(u @ rho @ dagger(u))
        mixed = remix_degenerate_blocks(dec, rng)
        assert np.max(np.abs(reconstruct(mixed) - reconstruct(dec))) < 1e-12
        gram = dagger(mixed.vectors) @ mixed.vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        # the degenerate block really moved
        assert np.max(np.abs(mixed.vectors - dec.vectors)) > 1e-3
