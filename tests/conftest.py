"""Shared helpers: small reference states and brute-force oracles.

Oracles here are deliberately naive (nested loops, direct sums) and
independent of the broadcast/einsum paths they check.
"""

import dataclasses

import numpy as np
import pytest

from bift.scenarios import bell_basis, werner_isothermal


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def bell_ket(k: int) -> np.ndarray:
    return bell_basis()[:, k].astype(complex)


def werner_spectra(p: float = 0.5, **fields):
    """The Werner scenario's spectra with ``fields`` swapped in (not
    re-validated)."""
    return dataclasses.replace(werner_isothermal(p).analysis.spectra, **fields)


def oracle_forward_table(spectra) -> np.ndarray:
    """Eight nested loops: kernel * p_m * p_r * both conditionals."""
    d_m, d_a, d_b, d_r = spectra.dim_m, spectra.dim_a, spectra.dim_b, spectra.dim_r
    out = np.zeros(spectra.dims)
    for m in range(d_m):
        for a in range(d_a):
            for b in range(d_b):
                for mf in range(d_m):
                    for af in range(d_a):
                        for bf in range(d_b):
                            for r in range(d_r):
                                for rf in range(d_r):
                                    out[m, a, b, mf, af, bf, r, rf] = (
                                        spectra.kernel[m, r, mf, rf]
                                        * spectra.p_m[m] * spectra.p_r[r]
                                        * spectra.cond_initial[m, a, b]
                                        * spectra.cond_final[mf, af, bf])
    return out


def oracle_reverse_table(spectra) -> np.ndarray:
    d_m, d_a, d_b, d_r = spectra.dim_m, spectra.dim_a, spectra.dim_b, spectra.dim_r
    out = np.zeros(spectra.dims)
    for m in range(d_m):
        for a in range(d_a):
            for b in range(d_b):
                for mf in range(d_m):
                    for af in range(d_a):
                        for bf in range(d_b):
                            for r in range(d_r):
                                for rf in range(d_r):
                                    out[m, a, b, mf, af, bf, r, rf] = (
                                        spectra.reverse_kernel[m, r, mf, rf]
                                        * spectra.p_m_final[mf]
                                        * spectra.p_r_reverse[rf]
                                        * spectra.cond_initial[m, a, b]
                                        * spectra.cond_final[mf, af, bf])
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
