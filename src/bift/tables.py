"""The record of an open bipartite system under the two-point
measurement, and the forward and time-reversed tables read from it.

The protocol measures only the global AB eigenbasis and the reservoir
energy basis at both endpoints; local A/B outcome labels are attached
through conditional weights |<m|a,b>|^2 without any local measurement.
So the trajectory (m, a, b, m', a', b', r, r'), primes labelling the
final measurement point, has the weight

    p[m,a,b,m',a',b',r,r'] = G[m,m',r,r'] |<m|a,b>|^2 |<m'|a',b'>|^2,

with G = K p_m p_r the two-point table of the forward kernel K.
``SystemSpectra`` is the one record of a system: both kernels on the
axes [m, m', r, r'] (the reverse kernel's entry [m, m', r, r'] belongs to
the reversed trajectory m' -> m), p_r and the two endpoints.  Every
average over the tuple space is u B v (``SystemSpectra.expectation``),
with B[m, m'] a kernel summed over the reservoir pair.
``SystemSpectra.two_point`` forms G or G_rev when a caller asks; this
module never forms an eight-index table, ``bift.cli.dense_table`` does,
for ``--emit-tuples``.

A ``SystemSpectra`` comes from one of two routes:

* ``spectra_from_unitary`` -- an explicit global propagator on AB (x) R
  (``UnitarySystem``); the initial decomposition is the one attached to
  the state, and the final and local decompositions are derived from
  the states, never user-supplied.
* ``spectra_from_analytic`` -- a ``SystemSpectra`` with transition
  kernels injected directly, for processes (quasi-static limits) that
  have no finite-dimensional propagator.  Kernels must be row-stochastic
  and consistent with the attached final spectrum.

Neither route refuses a system for its size; the size guard sits where
a config enters (``bift.cli``).

Sums reduce in the memory order numpy's iterator gives their operands,
which is fixed for fixed inputs, so identical inputs give identical bytes.
They do not depend on the BLAS thread count either: every product that
feeds a table or the final state sums over one AB index, and the block
sums and expectations are elementwise products and sums.  Only the random
scenario's Haar draw (``linalg.haar_unitary``) changes with the thread
count, from M R = 100 up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DimensionError
from .linalg import (
    DEFAULT_TOL,
    MAX_HEAT_EXPONENT,
    DensityOperator,
    ReservoirSpec,
    SpectralDecomposition,
    Tolerances,
    check_unitary,
    dagger,
    partial_trace,
    rounding_floor,
    spectral_decompose,
)


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


class BlockSums(NamedTuple):
    """A process's block sums and the AB start weights that
    ``SystemSpectra.expectation`` puts into its endpoint vectors."""

    initial: np.ndarray | float      # p_m forward, 1.0 reversed
    sums: np.ndarray                 # B [m, m']
    final: np.ndarray | float        # 1.0 forward, p'_m' reversed


@dataclass(frozen=True)
class SystemSpectra:
    """The one record of a system, route-independent: built by
    :func:`spectra_from_unitary`, or injected directly and checked by
    :func:`spectra_from_analytic`.

    Kernels are *conditional* transition probabilities on the axes
    [m, m', r, r'].  ``kernel`` rows (m, r) sum to 1 over (m', r');
    ``reverse_kernel`` entry [m, m', r, r'] is the probability that the
    reversed process starting from (m', r') lands on (m, r).  ``beta_q``
    holds the dimensionless heat exponent per (r, r') pair.
    """

    initial: Endpoint
    final: Endpoint               # its cond is indexed [m', a', b']
    p_r: np.ndarray               # reservoir Gibbs state, initial for both processes
    kernel: np.ndarray            # K [m, m', r, r']
    reverse_kernel: np.ndarray    # K_rev on the same axes
    beta_q: np.ndarray            # [r, r']

    @property
    def support(self) -> np.ndarray:
        """bool [m, m', r, 1]: the blocks whose initial weights p_m and p_r
        and final weight p'_m' are positive.  A forward trajectory that ends
        on an empty final level has no reversed counterpart."""
        p_m, p_mf = self.initial.p_m, self.final.p_m
        return ((p_m > 0.0)[:, None, None] & (p_mf > 0.0)[None, :, None]
                & (self.p_r > 0.0)[None, None, :])[:, :, :, None]

    def two_point(self, reverse: bool = False) -> np.ndarray:
        """The two-point table G = K p_m p_r, or with ``reverse`` the
        reversed process's G_rev = K_rev p'_m' p_r', started from the final
        AB spectrum and the same Gibbs state; both on [m, m', r, r']."""
        if reverse:
            return (self.reverse_kernel * self.final.p_m[None, :, None, None]
                    * self.p_r[None, None, None, :])
        return self.kernel * self.initial.p_m[:, None, None, None] * self.p_r[None, None, :, None]

    def block_sums(self, reverse: bool = False, pair=1.0, restricted: bool = False) -> BlockSums:
        """B[m, m'] = sum_{r,r'} K w pair[r, r'], over the support when
        ``restricted``: K the forward kernel and w = p_r, or with ``reverse``
        K_rev and w = p_r'.  w pair is formed first, so p_r e^{beta Q} (p_r'
        for Gibbs weights) never passes through a subnormal p_m p_r."""
        weight = self.p_r[None, :] if reverse else self.p_r[:, None]
        terms = (self.reverse_kernel if reverse else self.kernel) * (weight * pair)
        sums = (np.where(self.support, terms, 0.0) if restricted else terms).sum(axis=(2, 3))
        if reverse:
            return BlockSums(1.0, sums, self.final.p_m)
        return BlockSums(self.initial.p_m, sums, 1.0)

    def expectation(self, block: BlockSums, initial=1.0, final=1.0) -> float:
        """u B v: the tuple-space sum of initial[m,a,b] final[m',a',b'] times
        the pair factor of ``block``, with u[m] = sum_{a,b} |<m|a,b>|^2
        initial[m,a,b] times its start weight, and v likewise.  Each factor
        is a scalar or broadcasts against its endpoint's (M, A, B) table."""
        u = (self.initial.cond * initial).sum(axis=(1, 2)) * block.initial
        v = (self.final.cond * final).sum(axis=(1, 2)) * block.final
        return float((u[:, None] * block.sums * v[None, :]).sum())


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
    ov = dagger(global_vectors) @ np.kron(a_vectors, b_vectors)
    return (np.abs(ov) ** 2).reshape(len(ov), a_vectors.shape[1], b_vectors.shape[1])


def _zero_noise(p: np.ndarray, dim: int) -> np.ndarray:
    """``p`` with every entry at or below ``rounding_floor(p, dim)`` set to
    0.0: the rounding noise of an exact zero of a decomposition or
    propagator of dimension ``dim``.  Every support is then ``p > 0``."""
    return np.where(p > rounding_floor(p, dim), p, 0.0)


def _endpoint(rho_ab: np.ndarray, dec: SpectralDecomposition, d_a: int, d_b: int,
              tol: Tolerances) -> Endpoint:
    """The measurement point of the AB state ``rho_ab`` in the global
    eigenbasis ``dec``, with its local spectra and conditional weights, noise zeroed."""
    dec_a, dec_b = (spectral_decompose(partial_trace(rho_ab, (d_a, d_b), k), tol) for k in (0, 1))
    p_m, p_a, p_b = (_zero_noise(np.clip(d.probabilities, 0.0, None), d_a * d_b)
                     for d in (dec, dec_a, dec_b))
    return Endpoint(p_m=p_m, p_a=p_a, p_b=p_b, cond=_zero_noise(
        conditional_table(dec.vectors, dec_a.vectors, dec_b.vectors), d_a * d_b))


def transition_kernel(initial_vectors: np.ndarray, final_vectors: np.ndarray,
                      dim_r: int, unitary: np.ndarray) -> np.ndarray:
    """|<m',r'| U |m,r>|^2 as an array [m, m', r, r'].

    Reservoir kets are computational-basis vectors at both endpoints, so
    each amplitude is <m'| U_{r'r} |m>, with U_{r'r} = <r'|U|r> an AB
    block; all of them come from (V'^dag U) V as two single products.
    Because overlap moduli are invariant under the antiunitary time
    reversal, the same array also gives |<m,r| U^dag |m',r'>|^2, i.e. the
    reversed-process kernel aligned to forward axes.  The array is a
    transposed view of the product's buffer, not a C-order copy: the
    block sums reduce in its memory order.
    """
    d_ab, d_mi = initial_vectors.shape
    d_mf = final_vectors.shape[1]
    left = dagger(final_vectors) @ unitary.reshape(d_ab, -1)      # [m', (r', j, r)]
    left = left.reshape(d_mf * dim_r, d_ab, dim_r).transpose(0, 2, 1)
    amp = left.reshape(-1, d_ab) @ initial_vectors              # [(m', r', r), m]
    k = (np.abs(amp) ** 2).reshape(d_mf, dim_r, dim_r, d_mi)
    return k.transpose(3, 0, 2, 1)


def _check_heat_exponents(beta_q: np.ndarray) -> np.ndarray:
    """``beta_q``, refused when an entry is not finite or its exp overflows."""
    if not np.all(np.abs(beta_q) <= MAX_HEAT_EXPONENT):
        raise ConsistencyError(f"heat exponents beta * (E_r - E_r') must be finite and at "
                               f"most {MAX_HEAT_EXPONENT:.6g} in modulus, where exp overflows")
    return beta_q


def spectra_from_unitary(system: UnitarySystem,
                         tol: Tolerances = DEFAULT_TOL) -> SystemSpectra:
    """Assemble the full ingredient bundle from an explicit propagator.

    The initial decomposition is the state's own; the final and local
    decompositions are derived here.  ``beta_q`` is checked before the
    propagator's unitarity, the one (M·R)^3 product, and the Gibbs weights.
    """
    d_a, d_b = system.dim_a, system.dim_b
    d_m = d_a * d_b
    d_r = system.reservoir.dim
    dim = system.rho_ab.matrix.shape[0]
    if dim != d_m:
        raise DimensionError(f"rho_AB dim {dim} != {d_a} x {d_b}")
    energies = np.asarray(system.reservoir.energies)
    with np.errstate(over="ignore"):        # an overflow reads inf, which the check refuses
        beta_q = _check_heat_exponents(
            system.reservoir.beta * (energies[:, None] - energies[None, :]))
    u = check_unitary(system.unitary, tol)
    if u.shape[0] != d_m * d_r:
        raise DimensionError(f"propagator dim {u.shape[0]} != {d_m} x {d_r}")

    init = system.rho_ab.decomposition
    p_r = system.reservoir.gibbs_probabilities()
    # Tr_R[U (rho (x) diag p_r) U^dag] = sum_{r,r'} (U_{r'r} rho) (p_r U_{r'r}^dag) over the
    # AB blocks U_{r'r} = <r'|U|r>: U rho in one product, then one product per block, so
    # that each product sums over one AB index (module docstring)
    blocks = np.ascontiguousarray(u.reshape(d_m, d_r, d_m, d_r).transpose(1, 3, 0, 2))  # [r', r, i, j]
    u_rho = (blocks.reshape(-1, d_m) @ system.rho_ab.matrix).reshape(blocks.shape)
    u_dag = blocks.conj().swapaxes(2, 3) * p_r[None, :, None, None]
    rho_ab_final = (u_rho @ u_dag).sum(axis=(0, 1))

    fin = spectral_decompose(rho_ab_final, tol)
    kernel = _zero_noise(transition_kernel(init.vectors, fin.vectors, d_r, u), d_m * d_r)
    return SystemSpectra(
        initial=_endpoint(system.rho_ab.matrix, init, d_a, d_b, tol),
        final=_endpoint(rho_ab_final, fin, d_a, d_b, tol),
        p_r=p_r,
        kernel=kernel,
        reverse_kernel=kernel,
        beta_q=beta_q,
    )


def spectra_from_analytic(spectra: SystemSpectra,
                          tol: Tolerances = DEFAULT_TOL) -> SystemSpectra:
    """Validate an injected-kernel bundle and return it with float arrays
    and clipped probabilities.

    The sizes come from ``initial.p_a``, ``initial.p_b`` and ``p_r``,
    which must be vectors.  Every probability vector, conditional table
    and kernel then passes one rule: a float array of the shape those
    sizes give (DimensionError), finite, with no entry below
    ``-tol.psd``, that sums to 1 -- a vector in total, a conditional
    table over (a, b), the forward kernel over (m', r') and the reverse
    kernel over (m, r) (ConsistencyError).  Every heat exponent must be
    finite with ``|beta_q| <= MAX_HEAT_EXPONENT``, and the forward
    kernel's image marginal must equal the attached final spectrum
    (ConsistencyError).  Sums are compared to ``tol.equality``.
    """
    shapes = [np.shape(v) for v in (spectra.initial.p_a, spectra.initial.p_b, spectra.p_r)]
    if any(len(shape) != 1 for shape in shapes):
        raise DimensionError(f"initial.p_a, initial.p_b and p_r must be one-dimensional, "
                             f"got shapes {shapes}")
    (d_a,), (d_b,), (d_r,) = shapes
    d_m = d_a * d_b

    def distribution(x, shape, name, axes=None):
        # Sums over ``axes``, or over every axis when it is None: that
        # total stays a scalar, compared without an array pass.
        arr = np.asarray(x, dtype=float)
        if arr.shape != shape:
            raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
        # NaN fails every comparison, so finiteness is checked on its own.
        if not np.isfinite(arr).all():
            raise ConsistencyError(f"{name} has non-finite entries")
        if np.any(arr < -tol.psd):
            raise ConsistencyError(f"{name} has negative entries")
        total = arr.sum(axis=axes)
        if axes is None and abs(total - 1.0) > tol.equality:
            raise ConsistencyError(f"{name} sums to {total:.12f}, not 1")
        if axes is not None and np.max(np.abs(total - 1.0)) > tol.equality:
            raise ConsistencyError(f"{name} rows do not sum to 1")
        return arr

    def endpoint(end: Endpoint, side: str) -> Endpoint:
        cond = distribution(end.cond, (d_m, d_a, d_b), f"{side}.cond", axes=(1, 2))
        p = {name: np.clip(distribution(getattr(end, name), (n,), f"{side}.{name}"), 0.0, None)
             for name, n in (("p_m", d_m), ("p_a", d_a), ("p_b", d_b))}
        return Endpoint(cond=cond, **p)

    initial, final = endpoint(spectra.initial, "initial"), endpoint(spectra.final, "final")
    p_r = np.clip(distribution(spectra.p_r, (d_r,), "p_r"), 0.0, None)
    shape = (d_m, d_m, d_r, d_r)
    kernel = distribution(spectra.kernel, shape, "forward kernel", axes=(1, 3))
    rkernel = distribution(spectra.reverse_kernel, shape, "reverse kernel", axes=(0, 2))

    # Final-state consistency: the forward process must land on the
    # attached final spectrum (there is no propagator to guarantee it).
    image = np.einsum("m,r,mnrs->n", initial.p_m, p_r, kernel)
    if np.max(np.abs(image - final.p_m)) > tol.equality:
        raise ConsistencyError("forward kernel image disagrees with final spectrum")

    beta_q = np.asarray(spectra.beta_q, dtype=float)
    if beta_q.shape != (d_r, d_r):
        raise DimensionError(f"beta_q must have shape ({d_r},{d_r})")

    return SystemSpectra(initial=initial, final=final, p_r=p_r, kernel=kernel,
                         reverse_kernel=rkernel, beta_q=_check_heat_exponents(beta_q))
