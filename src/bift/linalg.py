"""Dense complex linear algebra for finite-dimensional quantum states.

Everything here works on plain ``numpy`` arrays at the sizes the size
guard in ``bift.cli`` admits (total dimension M R up to 3162, reached at
d_A d_B = 1): validated states and propagators, partial traces, spectra
and Haar-random unitaries.  All functions are pure.  Spectra, partial
traces and Haar draws are fresh arrays; ``check_unitary`` returns its
input itself, and ``density_operator`` keeps it as ``matrix``, when it
is already a complex array.

Conventions
-----------
* Kets are columns; an eigenbasis is stored as the columns of a matrix.
* Spectra are sorted descending.  Every use of an eigenbasis is a squared
  overlap modulus, |<m|a,b>|^2 or |<m',r'|U|m,r>|^2, so an eigenvector's
  phase is free and is left as ``eigh`` gives it.  The basis inside a
  degenerate eigenvalue block is fixed deterministically: project the
  computational basis onto the block and Gram-Schmidt in order.  Each
  vector comes from one basis vector e_c as P' e_c / |P' e_c|, with P'
  the projector onto the part of the block the earlier vectors miss, so
  its entry at c is |P' e_c| > 0 and its phase is fixed too.  This
  makes decompositions reproducible run to run.  The relations hold in
  any basis of a block, but per-trajectory values, the reverse averages
  and the product-basis decision move with the choice.
* The Gram-Schmidt pass is right-looking: each accepted vector is removed
  from every later candidate at once, one ``np.vecdot`` (a conjugated dot
  per row) for all of them, so each candidate meets the accepted vectors
  in order of acceptance, with the bits of a per-vector loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BiftError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    ``rounding_floor``, not a field, decides the degenerate blocks and
    the zero weights.  One field decides which checks apply:
    ``orthonormality`` decides whether both eigenbases are product bases,
    and so whether ``classical_ft`` is judged.  Set too coarse, it judges
    that relation where it does not hold: ``verify`` on the random
    scenario, seed 7, dims (2, 2, 2), fails ``bound:classical_ft`` at
    -2.4e-3 with ``orthonormality`` 1.0.  That, like a zero ``equality``,
    ``bound`` or ``trace`` (``forward_factorization`` reads 1.17e-16 on
    the counterexample at p = 0.37), is the user's own demand, and its
    exit 1 is honest.  A system's own states are held to the same
    fields where they are read in, so a field too tight for them refuses
    the system itself, exit 2: ``verify --scenario werner --p 0.37
    --tolerance 0`` stops at ``initial.p_m sums to 1.000000000000, not
    1``, as 39 of the 101 points of ``0:1:101`` do, while p = 0.1 exits
    1.  The fields are absolute, sized for double
    precision, and a valid system can fail the defaults:
    ``verify --scenario counterexample --p 0.999999`` (M R = 4) fails
    ``reference:reverse_avg_exp_di`` at 1.46e-10, 5.8e-16 of its value
    of about 2.5e5 (ROADMAP.md item 2).
    """

    hermiticity: float = 1e-10
    unitarity: float = 1e-10
    orthonormality: float = 1e-10
    trace: float = 1e-12
    psd: float = 1e-12
    equality: float = 1e-10   # fluctuation-theorem equalities
    bound: float = 1e-10      # inequality slacks


DEFAULT_TOL = Tolerances()


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition rho = sum_k p_k |k><k|.

    probabilities -- eigenvalues, descending
    vectors       -- orthonormal eigenvectors as columns, F-ordered, with
                     the basis of each degenerate block fixed
    """

    probabilities: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class DensityOperator:
    """Validated quantum state: Hermitian, unit trace, PSD, with its
    spectral decomposition attached."""

    matrix: np.ndarray
    decomposition: SpectralDecomposition


# Largest heat exponent |beta Q| a system may carry, from an explicit
# reservoir's beta * (max E - min E) or an injected beta_q table: above
# it e^{beta Q} overflows a float.
MAX_HEAT_EXPONENT = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ReservoirSpec:
    """Thermal reservoir: level energies and inverse temperature.

    The reservoir Hamiltonian is diagonal in the computational basis, so
    the energy eigenbasis used by both measurement points is the
    computational basis of the reservoir factor.
    """

    energies: tuple[float, ...]
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise BiftError(f"beta must be positive, got {self.beta}")
        if len(self.energies) == 0:
            raise BiftError("reservoir needs at least one level")
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))

    @property
    def dim(self) -> int:
        return len(self.energies)

    def gibbs_probabilities(self) -> np.ndarray:
        """p_r = exp(-beta E_r) / Z, strictly positive, summing to 1."""
        w = np.exp(-self.beta * (np.asarray(self.energies) - min(self.energies)))
        return w / w.sum()


def spectral_decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Decompose the Hermitian part of a square matrix with a
    deterministic eigenbasis.

    Eigenvalues come out descending, eigenvectors as a fresh F-ordered
    copy of ``eigh``'s columns.  Each degenerate block of two or more
    (see ``degenerate_blocks``) gets the canonical Gram-Schmidt basis
    described in the module docstring.  No tolerance is applied: a state
    is judged where it enters, by ``density_operator``, and a state
    derived from it is decomposed, not judged again.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BiftError(f"expected a square matrix, got shape {m.shape}")
    vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    # eigh gives the eigenvalues ascending; the copies are fresh arrays,
    # not reversed views
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy(order="F")
    for i, j in degenerate_blocks(vals):
        if j > i + 1:
            vecs[:, i:j] = _canonical_block_basis(vecs[:, i:j])
    return SpectralDecomposition(probabilities=vals, vectors=vecs)


# A projected basis vector enters the Gram-Schmidt basis when its norm
# exceeds this.
_ACCEPT_NORM = 1e-8


def _canonical_block_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block): ordered Gram-Schmidt
    of the projected computational basis.

    Right-looking: the candidates are the rows of ``proj.T``, and each
    accepted vector u is removed from all later rows at once, row -=
    u (u^dag row), so every row meets the accepted vectors in the order a
    per-candidate loop would apply them."""
    n, k = block.shape
    rows = (block @ dagger(block)).T.copy()
    accepted: list[np.ndarray] = []
    for col in range(n):
        cand = rows[col]
        norm = math.sqrt(cand.real.dot(cand.real) + cand.imag.dot(cand.imag))
        if norm > _ACCEPT_NORM:
            u = cand / norm
            accepted.append(u)
            if len(accepted) == k:
                break
            rest = rows[col + 1:]
            rest -= u * np.vecdot(u, rest)[:, None]
    # The pass always finds k vectors: with j < k accepted, every row's
    # residual would be <= _ACCEPT_NORM, yet their squared norms sum to
    # tr Q = k - j >= 1,
    # where Q projects onto the part of the block the j vectors miss.
    return np.array(accepted).T


def density_operator(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Validate and wrap a density matrix.

    Checks the shape, then Hermiticity, unit trace and positive
    semidefiniteness, then attaches the canonical spectral decomposition
    with eigenvalues clipped to [0, 1] (clipping only ever removes
    numerical dust below tol.psd).
    """
    m = np.asarray(matrix, dtype=complex)
    dec = spectral_decompose(m)
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > tol.hermiticity:
        raise BiftError(f"matrix deviates from Hermitian by {dev:.3e}")
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > tol.trace:
        raise BiftError(f"trace deviates from 1 by {tr - 1.0:.3e}")
    lo = float(dec.probabilities.min())
    if lo < -tol.psd:
        raise BiftError(f"negative eigenvalue {lo:.3e} below PSD tolerance")
    probs = np.clip(dec.probabilities, 0.0, 1.0)
    dec = SpectralDecomposition(probs, dec.vectors)
    return DensityOperator(matrix=m, decomposition=dec)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduce a bipartite operator matrix to one factor.

    ``dims = (d_first, d_second)`` with the state living on
    first (x) second; ``keep`` is 0 for the first factor, 1 for the second.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    if keep not in (0, 1):
        raise BiftError(f"keep must be 0 or 1, got {keep}")
    m = np.asarray(rho, dtype=complex)
    if m.shape != (d1 * d2, d1 * d2):
        raise BiftError(f"state of shape {m.shape} does not factor as {d1}x{d2}")
    r = m.reshape(d1, d2, d1, d2)
    return np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)


def check_unitary(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return ``u`` as a complex array (``u`` itself when it is one),
    refused if u^dag u deviates from the identity beyond tolerance."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise BiftError(f"expected a square matrix, got shape {u.shape}")
    dev = float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))))
    if dev > tol.unitarity:
        raise BiftError(f"operator deviates from unitary by {dev:.3e}")
    return u


def rounding_floor(values: np.ndarray, dim: int) -> float:
    """8 ``dim`` eps of the largest |value|: the rounding noise of an exact
    zero or tie in a spectrum, table or kernel computed at dimension
    ``dim``, the form of eigh's eigenvalue error bound c n eps ||A||_2
    (LAPACK Users' Guide, section 4.7)."""
    return float(8.0 * dim * np.finfo(float).eps * np.max(np.abs(values), initial=0.0))


def degenerate_blocks(probabilities: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) index ranges of degenerate eigenvalue blocks
    (descending spectrum assumed): a block takes each next value within
    ``rounding_floor(probabilities, n)`` of its first one, n values."""
    arr = np.asarray(probabilities, dtype=float)
    n, floor = len(arr), rounding_floor(arr, len(arr))
    p = arr.tolist()  # Python floats: a numpy scalar costs more per comparison
    blocks = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(p[j] - p[i]) <= floor:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks
