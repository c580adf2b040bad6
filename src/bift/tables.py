"""Forward and time-reversed joint outcome tables for the two-point
measurement of an open bipartite system.

The protocol measures only the global AB eigenbasis and the reservoir
energy basis at both endpoints; local A/B outcome labels are attached
through conditional weights |<m|a,b>|^2 without any local measurement.
So the trajectory (m, a, b, m', a', b', r, r'), primes labelling the
final measurement point, has the weight

    p[m,a,b,m',a',b',r,r'] = G[m,m',r,r'] |<m|a,b>|^2 |<m'|a',b'>|^2,

and ``factored_joint`` builds the tables in this form: the two-point
table ``G``, the time-reversed ``G_rev`` on the *same* axes (entry
[m,m',r,r'] holds the reverse weight of the trajectory that runs
m' -> m, so per-trajectory ratios are elementwise) and the two
endpoints.  ``FactoredJoint.expectation`` sums a functional that factors
across the endpoints over the whole tuple space.  This module never
forms an eight-index table; ``bift.cli.dense_table`` does, for
``--emit-tuples``.

Every table is built from one bundle of ingredients (``SystemSpectra``),
which comes from one of two routes:

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

A ``.sum()`` reduces in the memory order numpy's iterator gives its
operand, not in C order.  On the propagator route (measured) ``G`` and
``G_rev`` are laid out [m', r', r, m] in memory, the order in which
``transition_kernel`` writes its amplitudes, and their product with an
(R, R) pair factor [m', r, r', m]; the support-restricted copies that
``theorems.evaluate`` makes with ``np.where`` are laid out [m', r', m, r],
and their product with a pair factor [m', m, r, r'].  Identical inputs
give identical bytes because these layouts are fixed on one numpy/BLAS
build; reordering a product, or copying it to C order, moves bits.  They
are also the same at any BLAS thread count (measured with OpenBLAS at 1
and 2 threads), because every product that feeds a table or the final
state sums over one AB index: OpenBLAS blocks a longer sum one way on one
thread and another on two, and a single product over all R^2 blocks of
the final state gave other bits at (5, 5, 3).  Only the random scenario's
Haar draw (``linalg.haar_unitary``) changes with the thread count, from
M R = 100 up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    initial: Endpoint
    final: Endpoint               # its cond is indexed [m', a', b']
    p_r: np.ndarray               # reservoir Gibbs state, initial for both processes
    kernel: np.ndarray
    reverse_kernel: np.ndarray
    beta_q: np.ndarray            # [r, r']


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


def _endpoint(rho_ab: np.ndarray, dec: SpectralDecomposition, d_a: int, d_b: int,
              tol: Tolerances) -> Endpoint:
    """The measurement point of the AB state ``rho_ab`` in the global
    eigenbasis ``dec``, with its local spectra and conditional weights."""
    dec_a, dec_b = (spectral_decompose(partial_trace(rho_ab, (d_a, d_b), k), tol) for k in (0, 1))
    p_m, p_a, p_b = (np.clip(d.probabilities, 0.0, None) for d in (dec, dec_a, dec_b))
    return Endpoint(p_m=p_m, p_a=p_a, p_b=p_b,
                    cond=conditional_table(dec.vectors, dec_a.vectors, dec_b.vectors))


def transition_kernel(initial_vectors: np.ndarray, final_vectors: np.ndarray,
                      dim_r: int, unitary: np.ndarray) -> np.ndarray:
    """|<m',r'| U |m,r>|^2 as an array [m, r, m', r'].

    Reservoir kets are computational-basis vectors at both endpoints, so
    each amplitude is <m'| U_{r'r} |m>, with U_{r'r} = <r'|U|r> an AB
    block; all of them come from (V'^dag U) V as two single products.
    Because overlap moduli are invariant under the antiunitary time
    reversal, the same array also gives |<m,r| U^dag |m',r'>|^2, i.e. the
    reversed-process kernel aligned to forward axes.
    """
    d_ab, d_mi = initial_vectors.shape
    d_mf = final_vectors.shape[1]
    left = dagger(final_vectors) @ unitary.reshape(d_ab, -1)      # [m', (r', j, r)]
    left = left.reshape(d_mf * dim_r, d_ab, dim_r).transpose(0, 2, 1)
    amp = left.reshape(-1, d_ab) @ initial_vectors              # [(m', r', r), m]
    k = (np.abs(amp) ** 2).reshape(d_mf, dim_r, dim_r, d_mi)
    return k.transpose(3, 2, 0, 1)


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
    kernel = transition_kernel(init.vectors, fin.vectors, d_r, u)
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
    shape = (d_m, d_r, d_m, d_r)
    kernel = distribution(spectra.kernel, shape, "forward kernel", axes=(2, 3))
    rkernel = distribution(spectra.reverse_kernel, shape, "reverse kernel", axes=(0, 1))

    # Final-state consistency: the forward process must land on the
    # attached final spectrum (there is no propagator to guarantee it).
    image = np.einsum("m,r,mrns->n", initial.p_m, p_r, kernel)
    if np.max(np.abs(image - final.p_m)) > tol.equality:
        raise ConsistencyError("forward kernel image disagrees with final spectrum")

    beta_q = np.asarray(spectra.beta_q, dtype=float)
    if beta_q.shape != (d_r, d_r):
        raise DimensionError(f"beta_q must have shape ({d_r},{d_r})")

    return SystemSpectra(initial=initial, final=final, p_r=p_r, kernel=kernel,
                         reverse_kernel=rkernel, beta_q=_check_heat_exponents(beta_q))


def _is_one(factor) -> bool:
    """True for a float equal to 1.0, the default factor of
    ``FactoredJoint.expectation``; an array never counts."""
    return isinstance(factor, float) and factor == 1.0


def _above_cutoff(p: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Entries above the support cutoff, ``tol.support`` times the largest
    entry (or 0 when no entry is positive): the one support rule of the
    package."""
    return p > tol.support * max(float(np.max(p)), 0.0)


@dataclass(frozen=True)
class FactoredJoint:
    """Forward and time-reversed joint distributions in the factored form
    of the module docstring: the two global tables, the two endpoints and
    the forward-support mask, to which ``theorems.evaluate`` restricts them."""

    forward: np.ndarray              # G [m, m', r, r']
    reverse: np.ndarray              # G_rev on forward-aligned axes
    initial: Endpoint
    final: Endpoint
    forward_support: np.ndarray      # bool, shape (M, R)

    @cached_property
    def unit_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """sum_{a,b} |<m|a,b>|^2 per m at the initial and the final point."""
        return self.initial.cond.sum(axis=(1, 2)), self.final.cond.sum(axis=(1, 2))

    def expectation(self, table: np.ndarray, initial=1.0, final=1.0, pair=1.0) -> float:
        """Sum over the tuple space of the eight-index table built from
        the global ``table`` times initial[m,a,b] final[m',a',b'] pair[r,r'];
        each factor is a scalar or broadcasts against its endpoint's
        (M, A, B) or (R, R) table.  Costs O(M^2 R^2 + M A B).

        A factor that is the float 1.0 is skipped: times 1.0 every float keeps its bits, so
        the sum is the one the full product gives.  Batching these sums, or laying the product
        out anew, moves bits: with a non-unit pair the sum runs in the product's memory order
        (module docstring), not in the table's."""
        u_unit, v_unit = self.unit_sums
        u = u_unit if _is_one(initial) else (self.initial.cond * initial).sum(axis=(1, 2))
        v = v_unit if _is_one(final) else (self.final.cond * final).sum(axis=(1, 2))
        weighted = table * u[:, None, None, None] * v[None, :, None, None]
        return float((weighted if _is_one(pair) else weighted * pair).sum())


def factored_joint(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL) -> FactoredJoint:
    """Both joint distributions of ``spectra`` in factored form.

    ``forward`` is the two-point table G = K p_m p_r as [m, m', r, r'];
    ``reverse`` is the reversed process's table on the same axes, started
    from the final AB spectrum and the same reservoir Gibbs state p_r.
    The forward support holds the initial (m, r) pairs whose p_m and p_r
    are each above the support cutoff of their own spectrum.
    """
    p_m, p_r = spectra.initial.p_m, spectra.p_r
    return FactoredJoint(
        forward=(spectra.kernel.transpose(0, 2, 1, 3)
                 * p_m[:, None, None, None] * p_r[None, None, :, None]),
        reverse=(spectra.reverse_kernel.transpose(0, 2, 1, 3)
                 * spectra.final.p_m[None, :, None, None] * p_r[None, None, None, :]),
        initial=spectra.initial,
        final=spectra.final,
        forward_support=_above_cutoff(p_m, tol)[:, None] & _above_cutoff(p_r, tol)[None, :])
