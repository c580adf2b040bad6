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

Summations use a fixed lexicographic (C-order) reduction so results are
bit-reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionError, SizeError
from .linalg import (
    DEFAULT_TOL,
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
class ForwardJointDistribution:
    """Joint probability of the time-forward protocol on the full
    eight-index space, plus the initial (m, r) support set."""

    dims: tuple[int, ...]            # (M, A, B, M, A, B, R, R)
    table: np.ndarray
    forward_support: np.ndarray      # bool, shape (M, R)

    def total(self) -> float:
        return float(self.table.sum())


@dataclass(frozen=True)
class ReverseJointDistribution:
    """Time-reversed joint probability on the same axes, the forward
    support it is checked against, and the support-restricted mass
    (the absolute-irreversibility factor)."""

    dims: tuple[int, ...]
    table: np.ndarray
    forward_support: np.ndarray
    restricted_mass: float

    def total(self) -> float:
        return float(self.table.sum())


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
    p_m: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    p_m_final: np.ndarray
    p_a_final: np.ndarray
    p_b_final: np.ndarray
    cond_initial: np.ndarray      # [m, a, b] = |<m|a,b>|^2
    cond_final: np.ndarray        # [m', a', b']
    p_r: np.ndarray
    p_r_reverse: np.ndarray
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

    def classical_joint_initial(self) -> np.ndarray:
        """p_{a,b} = <a,b| rho_AB |a,b> = sum_m p_m |<m|a,b>|^2."""
        return np.einsum("m,mab->ab", self.p_m, self.cond_initial)

    def classical_joint_final(self) -> np.ndarray:
        return np.einsum("m,mab->ab", self.p_m_final, self.cond_final)


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


def _guard_size(dims: tuple[int, ...]) -> None:
    n = int(np.prod(dims))
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
    _guard_size((d_m, d_a, d_b, d_m, d_a, d_b, d_r, d_r))
    u = check_unitary(system.unitary, tol)
    if u.shape[0] != d_m * d_r:
        raise DimensionError(f"propagator dim {u.shape[0]} != {d_m} x {d_r}")

    init = initial_decomposition or system.rho_ab.decomposition
    if initial_decomposition is not None:
        assert_same_operator(initial_decomposition, system.rho_ab.matrix)

    p_r = system.reservoir.gibbs_probabilities()
    rho_abr = np.kron(system.rho_ab.matrix, np.diag(p_r).astype(complex))
    rho_abr_final = u @ rho_abr @ dagger(u)
    rho_ab_final = partial_trace(rho_abr_final, (d_m, d_r), keep=0)

    fin = final_decomposition or spectral_decompose(rho_ab_final, tol)
    if final_decomposition is not None:
        assert_same_operator(final_decomposition, rho_ab_final)

    dec_a = spectral_decompose(partial_trace(system.rho_ab.matrix, (d_a, d_b), 0), tol)
    dec_b = spectral_decompose(partial_trace(system.rho_ab.matrix, (d_a, d_b), 1), tol)
    dec_a_f = spectral_decompose(partial_trace(rho_ab_final, (d_a, d_b), 0), tol)
    dec_b_f = spectral_decompose(partial_trace(rho_ab_final, (d_a, d_b), 1), tol)

    kernel = transition_kernel(init.vectors, fin.vectors, d_r, u)
    energies = np.asarray(system.reservoir.energies)
    return SystemSpectra(
        dim_a=d_a, dim_b=d_b, dim_r=d_r,
        p_m=np.clip(init.probabilities, 0.0, None),
        p_a=np.clip(dec_a.probabilities, 0.0, None),
        p_b=np.clip(dec_b.probabilities, 0.0, None),
        p_m_final=np.clip(fin.probabilities, 0.0, None),
        p_a_final=np.clip(dec_a_f.probabilities, 0.0, None),
        p_b_final=np.clip(dec_b_f.probabilities, 0.0, None),
        cond_initial=conditional_table(init.vectors, dec_a.vectors, dec_b.vectors),
        cond_final=conditional_table(fin.vectors, dec_a_f.vectors, dec_b_f.vectors),
        p_r=p_r,
        p_r_reverse=p_r,
        kernel=kernel,
        reverse_kernel=kernel,
        beta_q=system.reservoir.beta * (energies[:, None] - energies[None, :]),
    )


def spectra_from_analytic(spectra: SystemSpectra,
                          tol: Tolerances = DEFAULT_TOL) -> SystemSpectra:
    """Validate an injected-kernel bundle and return it with float arrays
    and clipped probabilities.

    Checks: array shapes match ``dim_a``, ``dim_b`` and ``dim_r``
    (DimensionError); probability vectors normalized, conditional tables
    complete, kernels row-stochastic, and the forward kernel's image
    marginal equal to the attached final spectrum (ConsistencyError, each
    to ``tol.equality``).
    """
    d_a, d_b, d_r = spectra.dim_a, spectra.dim_b, spectra.dim_r
    d_m = d_a * d_b
    _guard_size((d_m, d_a, d_b, d_m, d_a, d_b, d_r, d_r))

    def vec(x, n, name):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (n,):
            raise DimensionError(f"{name} must have shape ({n},), got {arr.shape}")
        if np.any(arr < -tol.psd):
            raise ConsistencyError(f"{name} has negative entries")
        if abs(arr.sum() - 1.0) > tol.equality:
            raise ConsistencyError(f"{name} sums to {arr.sum():.12f}, not 1")
        return np.clip(arr, 0.0, None)

    p_m = vec(spectra.p_m, d_m, "p_m")
    p_a = vec(spectra.p_a, d_a, "p_a")
    p_b = vec(spectra.p_b, d_b, "p_b")
    p_mf = vec(spectra.p_m_final, d_m, "p_m_final")
    p_af = vec(spectra.p_a_final, d_a, "p_a_final")
    p_bf = vec(spectra.p_b_final, d_b, "p_b_final")
    p_r = vec(spectra.p_r, d_r, "p_r")
    p_rr = vec(spectra.p_r_reverse, d_r, "p_r_reverse")

    cond_i = np.asarray(spectra.cond_initial, dtype=float)
    cond_f = np.asarray(spectra.cond_final, dtype=float)
    for name, c in (("cond_initial", cond_i), ("cond_final", cond_f)):
        if c.shape != (d_m, d_a, d_b):
            raise DimensionError(f"{name} must have shape ({d_m},{d_a},{d_b})")
        if np.max(np.abs(c.sum(axis=(1, 2)) - 1.0)) > tol.equality:
            raise ConsistencyError(f"{name} rows do not sum to 1")

    kernel = np.asarray(spectra.kernel, dtype=float)
    rkernel = np.asarray(spectra.reverse_kernel, dtype=float)
    shape = (d_m, d_r, d_m, d_r)
    if kernel.shape != shape or rkernel.shape != shape:
        raise DimensionError(f"kernels must have shape {shape}")
    if np.max(np.abs(kernel.sum(axis=(2, 3)) - 1.0)) > tol.equality:
        raise ConsistencyError("forward kernel rows do not sum to 1")
    if np.max(np.abs(rkernel.sum(axis=(0, 1)) - 1.0)) > tol.equality:
        raise ConsistencyError("reverse kernel rows do not sum to 1")

    # Final-state consistency: the forward process must land on the
    # attached final spectrum (there is no propagator to guarantee it).
    image = np.einsum("m,r,mrns->n", p_m, p_r, kernel)
    if np.max(np.abs(image - p_mf)) > tol.equality:
        raise ConsistencyError("forward kernel image disagrees with final spectrum")

    beta_q = np.asarray(spectra.beta_q, dtype=float)
    if beta_q.shape != (d_r, d_r):
        raise DimensionError(f"beta_q must have shape ({d_r},{d_r})")

    return SystemSpectra(
        dim_a=d_a, dim_b=d_b, dim_r=d_r,
        p_m=p_m, p_a=p_a, p_b=p_b,
        p_m_final=p_mf, p_a_final=p_af, p_b_final=p_bf,
        cond_initial=cond_i, cond_final=cond_f,
        p_r=p_r, p_r_reverse=p_rr,
        kernel=kernel, reverse_kernel=rkernel, beta_q=beta_q,
    )


def forward_support_mask(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Initial (m, r) pairs carrying nonzero two-point weight:
    p_m p_r sum_{m',r'} K > support cutoff (relative to the largest weight)."""
    w = (spectra.p_m[:, None] * spectra.p_r[None, :]) * spectra.kernel.sum(axis=(2, 3))
    top = float(w.max())
    if top <= 0.0:
        return np.zeros_like(w, dtype=bool)
    return w > tol.support * top


def global_table(spectra: SystemSpectra) -> np.ndarray:
    """Forward two-point table p_{m,m';r,r'} = K p_m p_r as [m, m', r, r']."""
    return (spectra.kernel.transpose(0, 2, 1, 3)
            * spectra.p_m[:, None, None, None]
            * spectra.p_r[None, None, :, None])


def reverse_global_table(spectra: SystemSpectra) -> np.ndarray:
    """Reversed two-point table on forward-aligned axes [m, m', r, r']."""
    return (spectra.reverse_kernel.transpose(0, 2, 1, 3)
            * spectra.p_m_final[None, :, None, None]
            * spectra.p_r_reverse[None, None, None, :])


def _attach_conditionals(g: np.ndarray, spectra: SystemSpectra) -> np.ndarray:
    return (g[:, None, None, :, None, None, :, :]
            * spectra.cond_initial[:, :, :, None, None, None, None, None]
            * spectra.cond_final[None, None, None, :, :, :, None, None])


def augmented_forward(spectra: SystemSpectra,
                      tol: Tolerances = DEFAULT_TOL) -> ForwardJointDistribution:
    """Multiply the global two-point table by both conditional weights:

        p[m,a,b,m',a',b';r,r'] = p_{m,m';r,r'} |<m|a,b>|^2 |<m'|a',b'>|^2.

    Marginalizing over the primed indices recovers |<m|a,b>|^2 p_m p_r.
    """
    table = _attach_conditionals(global_table(spectra), spectra)
    return ForwardJointDistribution(
        dims=spectra.dims, table=table,
        forward_support=forward_support_mask(spectra, tol))


def reverse_joint(spectra: SystemSpectra, forward: ForwardJointDistribution,
                  tol: Tolerances = DEFAULT_TOL) -> ReverseJointDistribution:
    """Time-reversed joint table, aligned to forward axes.

    The reversed process starts from the final state (re-thermalized
    reservoir) and uses the reversed kernel; its full-space mass is 1.
    ``restricted_mass`` sums only trajectories whose initial (m, r) lies
    in the forward support -- below 1 exactly when the process is
    absolutely irreversible.
    """
    table = _attach_conditionals(reverse_global_table(spectra), spectra)
    return _reverse_distribution(spectra.dims, table, forward.forward_support)


def _initial_support(forward_support: np.ndarray) -> np.ndarray:
    """The (m, r) forward-support mask broadcast over the eight axes."""
    return forward_support[:, None, None, None, None, None, :, None]


def _reverse_distribution(dims: tuple[int, ...], table: np.ndarray,
                          forward_support: np.ndarray) -> ReverseJointDistribution:
    """Wrap a reverse table with its support-restricted mass."""
    restricted = float(np.sum(np.where(_initial_support(forward_support), table, 0.0)))
    return ReverseJointDistribution(
        dims=dims, table=table,
        forward_support=forward_support.copy(),
        restricted_mass=restricted)


def _above_cutoff(table: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Entries above the support cutoff relative to the largest entry."""
    return table > tol.support * float(table.max())


_AXIS_NAMES = ("m", "a", "b", "m_final", "a_final", "b_final", "r", "r_final")


def marginal(dist, keep) -> np.ndarray:
    """Sum a joint table over all axes not in ``keep``.

    ``keep`` is an iterable of axis names from
    ``('m','a','b','m_final','a_final','b_final','r','r_final')`` or of
    axis indices.  ``keep=()`` returns the scalar total mass.
    """
    table = dist.table if hasattr(dist, "table") else np.asarray(dist)
    idx = []
    for k in keep:
        if isinstance(k, str):
            if k not in _AXIS_NAMES:
                raise DimensionError(f"unknown axis {k!r}")
            idx.append(_AXIS_NAMES.index(k))
        else:
            if not 0 <= int(k) < table.ndim:
                raise DimensionError(f"axis index {k} out of range")
            idx.append(int(k))
    if len(set(idx)) != len(idx):
        raise DimensionError("duplicate axes in keep")
    drop = tuple(ax for ax in range(table.ndim) if ax not in idx)
    out = table.sum(axis=drop) if drop else table.copy()
    # summing leaves kept axes in ascending order; restore the caller's order
    kept_sorted = sorted(idx)
    perm = [kept_sorted.index(i) for i in idx]
    return np.transpose(out, perm) if out.ndim > 1 else out
