"""Forward and time-reversed joint outcome tables for the two-point
measurement of an open bipartite system.

The protocol measures only the global AB eigenbasis and the reservoir
energy basis at both endpoints; local A/B outcome labels are attached
through conditional weights |<m|a,b>|^2 without any local measurement.
Dense tables live on the full eight-index space with axis order

    (m, a, b, m', a', b', r, r')

where primes label the final measurement point.  The time-reversed table
is stored on the *same* axes (entry [m,a,b,m',a',b',r,r'] holds the
reverse weight for the trajectory that runs m' -> m), so forward and
reverse entries for one trajectory sit at the same position and
per-trajectory ratios are elementwise.

Only the global states are measured, so every eight-index entry is a
global two-point entry times the two conditional weights,

    p[m,a,b,m',a',b',r,r'] = G[m,m',r,r'] |<m|a,b>|^2 |<m'|a',b'>|^2.

``FactoredJoint`` keeps the tables in this form (four-index ``G`` and
``G_rev`` plus the (M, A, B) conditional tables), and its
``expectation`` sums a functional that factors across the endpoints over
the whole tuple space without building the eight-index tables.  The
dense tables (``augmented_forward``, ``reverse_joint``) are built only
for emission.

Every table is built from one bundle of ingredients (``SystemSpectra``),
which comes from one of two routes:

* ``spectra_from_unitary`` -- an explicit global propagator on AB (x) R
  (``UnitarySystem``); the final-state decomposition is always derived
  from the evolved state, never user-supplied (a caller may only
  re-gauge degenerate blocks).
* ``spectra_from_analytic`` -- a ``SystemSpectra`` with transition
  kernels injected directly, for processes (quasi-static limits) that
  have no finite-dimensional propagator.  Kernels must be row-stochastic
  and consistent with the attached final spectrum.

Summations use a fixed lexicographic (C-order) reduction, so identical
inputs give identical bytes on the same numpy/BLAS build at the same
BLAS thread count; at (4,4,8) the bytes change with the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionError, SizeError
from .linalg import (
    DEFAULT_TOL,
    MAX_HEAT_EXPONENT,
    DensityOperator,
    ReservoirSpec,
    SpectralDecomposition,
    Tolerances,
    assert_same_operator,
    check_unitary,
    dagger,
    partial_trace,
    spectral_decompose,
)

TABLE_SIZE_GUARD = 10_000_000  # max number of dense tuple-table entries


class OutcomeTuple(NamedTuple):
    """One trajectory label (initial and final outcomes of every register)."""

    m: int
    a: int
    b: int
    m_final: int
    a_final: int
    b_final: int
    r: int
    r_final: int


@dataclass(frozen=True)
class DenseJoint:
    """A joint distribution on the full eight-index space, built only
    for emission."""

    dims: tuple[int, ...]            # (M, A, B, M, A, B, R, R)
    table: np.ndarray


@dataclass(frozen=True)
class Endpoint:
    """One measurement point: the global AB spectrum, both local spectra
    and the conditional weights that attach the local labels to the
    global outcomes."""

    p_m: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    cond: np.ndarray              # [m, a, b] = |<m|a,b>|^2

    def classical_joint(self) -> np.ndarray:
        """p_{a,b} = <a,b| rho_AB |a,b> = sum_m p_m |<m|a,b>|^2."""
        return np.einsum("m,mab->ab", self.p_m, self.cond)


@dataclass(frozen=True)
class SystemSpectra:
    """Everything the tuple-space machinery needs, route-independent:
    built by :func:`spectra_from_unitary`, or injected directly and
    checked by :func:`spectra_from_analytic`.

    Kernels are *conditional* transition probabilities.  ``kernel`` has
    axes [m, r, m', r'] with rows (m, r) summing to 1;
    ``reverse_kernel`` is aligned to the same axes, i.e. entry
    [m, r, m', r'] is the probability that the reversed process starting
    from (m', r') lands on (m, r).  ``beta_q`` holds the dimensionless
    heat exponent per (r, r') pair.
    """

    dim_a: int
    dim_b: int
    dim_r: int
    initial: Endpoint
    final: Endpoint               # its cond is indexed [m', a', b']
    p_r: np.ndarray               # reservoir Gibbs state, initial for both processes
    kernel: np.ndarray
    reverse_kernel: np.ndarray
    beta_q: np.ndarray            # [r, r']

    @property
    def dim_m(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def dims(self) -> tuple[int, ...]:
        m, a, b, r = self.dim_m, self.dim_a, self.dim_b, self.dim_r
        return (m, a, b, m, a, b, r, r)


@dataclass(frozen=True)
class UnitarySystem:
    """Explicit-propagator route: initial AB state, thermal reservoir,
    and a unitary on AB (x) R (reservoir factor last)."""

    dim_a: int
    dim_b: int
    rho_ab: DensityOperator
    reservoir: ReservoirSpec
    unitary: np.ndarray


def conditional_table(global_vectors: np.ndarray, a_vectors: np.ndarray,
                      b_vectors: np.ndarray) -> np.ndarray:
    """All |<m|a,b>|^2 at once; shape (M, A, B)."""
    d_a = a_vectors.shape[1]
    d_b = b_vectors.shape[1]
    ov = dagger(global_vectors) @ np.kron(a_vectors, b_vectors)
    return (np.abs(ov) ** 2).reshape(global_vectors.shape[1], d_a, d_b)


def _endpoint(rho_ab: np.ndarray, dec: SpectralDecomposition, d_a: int, d_b: int,
              tol: Tolerances) -> Endpoint:
    """The measurement point of the AB state ``rho_ab`` in the global
    eigenbasis ``dec``, with its local spectra and conditional weights."""
    dec_a = spectral_decompose(partial_trace(rho_ab, (d_a, d_b), 0), tol)
    dec_b = spectral_decompose(partial_trace(rho_ab, (d_a, d_b), 1), tol)
    return Endpoint(p_m=np.clip(dec.probabilities, 0.0, None),
                    p_a=np.clip(dec_a.probabilities, 0.0, None),
                    p_b=np.clip(dec_b.probabilities, 0.0, None),
                    cond=conditional_table(dec.vectors, dec_a.vectors, dec_b.vectors))


def _guard_size(d_a: int, d_b: int, d_r: int) -> None:
    """Refuse dense tuple tables over the guard, counting in exact integers."""
    d_a, d_b, d_r = int(d_a), int(d_b), int(d_r)
    n = math.prod((d_a * d_b, d_a, d_b, d_r)) ** 2
    if n > TABLE_SIZE_GUARD:
        raise SizeError(f"dense tuple table would hold {n} > {TABLE_SIZE_GUARD} entries")


def transition_kernel(initial_vectors: np.ndarray, final_vectors: np.ndarray,
                      dim_r: int, unitary: np.ndarray) -> np.ndarray:
    """|<m',r'| U |m,r>|^2 as an array [m, r, m', r'].

    Reservoir kets are computational-basis vectors at both endpoints.
    Because overlap moduli are invariant under the antiunitary time
    reversal, the same array also gives |<m,r| U^dag |m',r'>|^2, i.e. the
    reversed-process kernel aligned to forward axes.
    """
    m_in = np.kron(initial_vectors, np.eye(dim_r))
    m_out = np.kron(final_vectors, np.eye(dim_r))
    amp = dagger(m_out) @ unitary @ m_in        # [(m',r'), (m,r)]
    d_mf = final_vectors.shape[1]
    d_mi = initial_vectors.shape[1]
    k = (np.abs(amp) ** 2).reshape(d_mf, dim_r, d_mi, dim_r)
    return k.transpose(2, 3, 0, 1)


def spectra_from_unitary(system: UnitarySystem,
                         initial_decomposition: SpectralDecomposition | None = None,
                         final_decomposition: SpectralDecomposition | None = None,
                         tol: Tolerances = DEFAULT_TOL) -> SystemSpectra:
    """Assemble the full ingredient bundle from an explicit propagator.

    Local and final decompositions are derived internally.  The optional
    decomposition arguments exist solely to re-gauge degenerate blocks;
    each must reconstruct the same operator as the derived one.
    """
    d_a, d_b = system.dim_a, system.dim_b
    d_m = d_a * d_b
    d_r = system.reservoir.dim
    if system.rho_ab.dim != d_m:
        raise DimensionError(f"rho_AB dim {system.rho_ab.dim} != {d_a} x {d_b}")
    _guard_size(d_a, d_b, d_r)
    u = check_unitary(system.unitary, tol)
    if u.shape[0] != d_m * d_r:
        raise DimensionError(f"propagator dim {u.shape[0]} != {d_m} x {d_r}")

    init = initial_decomposition or system.rho_ab.decomposition
    if initial_decomposition is not None:
        assert_same_operator(initial_decomposition, system.rho_ab.matrix, tol)

    p_r = system.reservoir.gibbs_probabilities()
    rho_abr = np.kron(system.rho_ab.matrix, np.diag(p_r).astype(complex))
    rho_abr_final = u @ rho_abr @ dagger(u)
    rho_ab_final = partial_trace(rho_abr_final, (d_m, d_r), keep=0)

    fin = final_decomposition or spectral_decompose(rho_ab_final, tol)
    if final_decomposition is not None:
        assert_same_operator(final_decomposition, rho_ab_final, tol)

    kernel = transition_kernel(init.vectors, fin.vectors, d_r, u)
    energies = np.asarray(system.reservoir.energies)
    return SystemSpectra(
        dim_a=d_a, dim_b=d_b, dim_r=d_r,
        initial=_endpoint(system.rho_ab.matrix, init, d_a, d_b, tol),
        final=_endpoint(rho_ab_final, fin, d_a, d_b, tol),
        p_r=p_r,
        kernel=kernel,
        reverse_kernel=kernel,
        beta_q=system.reservoir.beta * (energies[:, None] - energies[None, :]),
    )


def spectra_from_analytic(spectra: SystemSpectra,
                          tol: Tolerances = DEFAULT_TOL) -> SystemSpectra:
    """Validate an injected-kernel bundle and return it with float arrays
    and clipped probabilities.

    Checks: array shapes match ``dim_a``, ``dim_b`` and ``dim_r``
    (DimensionError); every probability, conditional weight and kernel
    entry finite and not below ``-tol.psd``, every heat exponent finite
    with ``|beta_q| <= MAX_HEAT_EXPONENT``; probability vectors
    normalized, conditional tables complete, kernels row-stochastic, and
    the forward kernel's image marginal equal to the attached final
    spectrum (ConsistencyError, each to ``tol.equality``).
    """
    d_a, d_b, d_r = spectra.dim_a, spectra.dim_b, spectra.dim_r
    d_m = d_a * d_b
    _guard_size(d_a, d_b, d_r)

    def weights(arr, name):
        # NaN fails every comparison, so finiteness is checked on its own.
        if not np.isfinite(arr).all():
            raise ConsistencyError(f"{name} has non-finite entries")
        if np.any(arr < -tol.psd):
            raise ConsistencyError(f"{name} has negative entries")

    def vec(x, n, name):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (n,):
            raise DimensionError(f"{name} must have shape ({n},), got {arr.shape}")
        weights(arr, name)
        if abs(arr.sum() - 1.0) > tol.equality:
            raise ConsistencyError(f"{name} sums to {arr.sum():.12f}, not 1")
        return np.clip(arr, 0.0, None)

    def endpoint(end: Endpoint, side: str) -> Endpoint:
        cond = np.asarray(end.cond, dtype=float)
        if cond.shape != (d_m, d_a, d_b):
            raise DimensionError(f"{side}.cond must have shape ({d_m},{d_a},{d_b})")
        weights(cond, f"{side}.cond")
        if np.max(np.abs(cond.sum(axis=(1, 2)) - 1.0)) > tol.equality:
            raise ConsistencyError(f"{side}.cond rows do not sum to 1")
        return Endpoint(p_m=vec(end.p_m, d_m, f"{side}.p_m"), p_a=vec(end.p_a, d_a, f"{side}.p_a"),
                        p_b=vec(end.p_b, d_b, f"{side}.p_b"), cond=cond)

    initial, final = endpoint(spectra.initial, "initial"), endpoint(spectra.final, "final")
    p_r = vec(spectra.p_r, d_r, "p_r")

    kernel = np.asarray(spectra.kernel, dtype=float)
    rkernel = np.asarray(spectra.reverse_kernel, dtype=float)
    shape = (d_m, d_r, d_m, d_r)
    if kernel.shape != shape or rkernel.shape != shape:
        raise DimensionError(f"kernels must have shape {shape}")
    weights(kernel, "forward kernel")
    weights(rkernel, "reverse kernel")
    if np.max(np.abs(kernel.sum(axis=(2, 3)) - 1.0)) > tol.equality:
        raise ConsistencyError("forward kernel rows do not sum to 1")
    if np.max(np.abs(rkernel.sum(axis=(0, 1)) - 1.0)) > tol.equality:
        raise ConsistencyError("reverse kernel rows do not sum to 1")

    # Final-state consistency: the forward process must land on the
    # attached final spectrum (there is no propagator to guarantee it).
    image = np.einsum("m,r,mrns->n", initial.p_m, p_r, kernel)
    if np.max(np.abs(image - final.p_m)) > tol.equality:
        raise ConsistencyError("forward kernel image disagrees with final spectrum")

    beta_q = np.asarray(spectra.beta_q, dtype=float)
    if beta_q.shape != (d_r, d_r):
        raise DimensionError(f"beta_q must have shape ({d_r},{d_r})")
    if not np.all(np.abs(beta_q) <= MAX_HEAT_EXPONENT):
        raise ConsistencyError(f"beta_q entries must be finite and at most "
                               f"{MAX_HEAT_EXPONENT:.6g} in modulus, where exp overflows")

    return SystemSpectra(
        dim_a=d_a, dim_b=d_b, dim_r=d_r, initial=initial, final=final, p_r=p_r,
        kernel=kernel, reverse_kernel=rkernel, beta_q=beta_q,
    )


def _above_cutoff(p: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Entries above the support cutoff, ``tol.support`` times the largest
    entry (or 0 when no entry is positive): the one support rule of the
    package."""
    return p > tol.support * max(float(np.max(p)), 0.0)


def forward_support_mask(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Initial (m, r) pairs carrying nonzero two-point weight:
    p_m p_r sum_{m',r'} K above the support cutoff."""
    w = (spectra.initial.p_m[:, None] * spectra.p_r[None, :]) * spectra.kernel.sum(axis=(2, 3))
    return _above_cutoff(w, tol)


def global_table(spectra: SystemSpectra) -> np.ndarray:
    """Forward two-point table p_{m,m';r,r'} = K p_m p_r as [m, m', r, r']."""
    return (spectra.kernel.transpose(0, 2, 1, 3)
            * spectra.initial.p_m[:, None, None, None]
            * spectra.p_r[None, None, :, None])


def reverse_global_table(spectra: SystemSpectra) -> np.ndarray:
    """Reversed two-point table on forward-aligned axes [m, m', r, r']:
    the reversed process starts from the final AB spectrum and the same
    reservoir Gibbs state ``p_r``."""
    return (spectra.reverse_kernel.transpose(0, 2, 1, 3)
            * spectra.final.p_m[None, :, None, None]
            * spectra.p_r[None, None, None, :])


def _attach_conditionals(g: np.ndarray, spectra: SystemSpectra) -> np.ndarray:
    return (g[:, None, None, :, None, None, :, :]
            * spectra.initial.cond[:, :, :, None, None, None, None, None]
            * spectra.final.cond[None, None, None, :, :, :, None, None])


def augmented_forward(spectra: SystemSpectra) -> DenseJoint:
    """Multiply the global two-point table by both conditional weights:

        p[m,a,b,m',a',b';r,r'] = p_{m,m';r,r'} |<m|a,b>|^2 |<m'|a',b'>|^2.

    Marginalizing over the primed indices recovers |<m|a,b>|^2 p_m p_r.
    """
    return DenseJoint(dims=spectra.dims,
                      table=_attach_conditionals(global_table(spectra), spectra))


def reverse_joint(spectra: SystemSpectra) -> DenseJoint:
    """Time-reversed joint table, aligned to forward axes.

    The reversed process starts from the final state (re-thermalized
    reservoir) and uses the reversed kernel; its full-space mass is 1.
    """
    return DenseJoint(dims=spectra.dims,
                      table=_attach_conditionals(reverse_global_table(spectra), spectra))


@dataclass(frozen=True)
class FactoredJoint:
    """Forward and time-reversed joint distributions in factored form:
    the eight-index entry of either table is its four-index global entry
    times ``cond_initial[m,a,b] * cond_final[m',a',b']``."""

    forward: np.ndarray              # G [m, m', r, r']
    reverse: np.ndarray              # G_rev on forward-aligned axes
    cond_initial: np.ndarray         # [m, a, b]
    cond_final: np.ndarray           # [m', a', b']
    forward_support: np.ndarray      # bool, shape (M, R)

    def expectation(self, table: np.ndarray, initial=1.0, final=1.0, pair=1.0) -> float:
        """Sum over the tuple space of the eight-index table built from
        the global ``table`` times initial[m,a,b] final[m',a',b'] pair[r,r'];
        each factor is a scalar or broadcasts against its endpoint's
        (M, A, B) or (R, R) table.  Costs O(M^2 R^2 + M A B)."""
        u = (self.cond_initial * initial).sum(axis=(1, 2))
        v = (self.cond_final * final).sum(axis=(1, 2))
        return float((table * u[:, None, None, None] * v[None, :, None, None] * pair).sum())

    def restricted(self, table: np.ndarray) -> np.ndarray:
        """``table`` with the blocks whose initial (m, r) lies outside the
        forward support set to zero."""
        return np.where(self.forward_support[:, None, :, None], table, 0.0)

    def restricted_mass(self) -> float:
        """Support-restricted reverse mass (the absolute-irreversibility
        factor gamma)."""
        return self.expectation(self.restricted(self.reverse))


def factored_joint(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL) -> FactoredJoint:
    """Both joint distributions of ``spectra`` in factored form."""
    return FactoredJoint(forward=global_table(spectra),
                         reverse=reverse_global_table(spectra),
                         cond_initial=spectra.initial.cond,
                         cond_final=spectra.final.cond,
                         forward_support=forward_support_mask(spectra, tol))

