"""Dense complex linear algebra for finite-dimensional quantum states.

Everything here works on plain ``numpy`` arrays at desk scale (total
dimension up to ~64): validated states and propagators, partial traces,
spectra and Haar-random unitaries.  All functions are pure; returned
arrays are never views into their inputs.

Conventions
-----------
* Kets are columns; an eigenbasis is stored as the columns of a matrix.
* Spectra are sorted descending.  Inside a degenerate eigenvalue block the
  basis is fixed deterministically: project the computational basis onto
  the block, Gram-Schmidt in order, and rotate each vector's global phase
  so its largest-modulus component is real positive.  This makes
  decompositions reproducible run to run; every physical result checked
  downstream is independent of the choice (verified separately).
* A non-degenerate eigenvector v needs no Gram-Schmidt: its block's first
  projected basis vector is v conj(v_0).  ``spectral_decompose`` fixes all
  such columns of one decomposition in one array pass, with the same bits
  the per-block pass gives; only the degenerate blocks, and the rare column
  whose first component is ~0 (projected norm <= 1e-8), take the
  per-block Gram-Schmidt pass.
* Both passes are array passes that repeat the floating-point operations
  of a per-vector loop in the same order, so they give its bits.  The
  Gram-Schmidt pass is right-looking: each accepted vector is removed from
  every later candidate at once, one ``np.vecdot`` (a conjugated dot per
  row) for all of them, so each candidate meets the accepted vectors in
  order of acceptance.  A phase divides by ``np.hypot`` of its real and
  imaginary parts: that is the modulus a scalar ``abs`` gives, while
  ``np.abs`` of a complex array rounds some entries differently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, HermiticityError, UnitarityError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    ``support`` is relative to the largest eigenvalue of the operator at
    hand.  ``degeneracy`` is relative to max(1, largest |eigenvalue|): an
    eigenvalue joins a degenerate block when it lies within
    ``degeneracy`` times that scale of the block's first value.  Both
    must be below 1: no entry lies above a support cutoff of 1, and a
    degeneracy cutoff of 1 puts a whole density spectrum in one block.
    The rest are absolute, sized for double precision at total dimension
    <= ~64.
    """

    hermiticity: float = 1e-10
    unitarity: float = 1e-10
    orthonormality: float = 1e-10
    trace: float = 1e-12
    psd: float = 1e-12
    support: float = 1e-12
    degeneracy: float = 1e-10
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
    vectors       -- orthonormal eigenvectors as columns, deterministically
                     phase- and gauge-fixed
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
            raise ConsistencyError(f"beta must be positive, got {self.beta}")
        if len(self.energies) == 0:
            raise DimensionError("reservoir needs at least one level")
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))

    @property
    def dim(self) -> int:
        return len(self.energies)

    def gibbs_probabilities(self) -> np.ndarray:
        """p_r = exp(-beta E_r) / Z, strictly positive, summing to 1."""
        w = np.exp(-self.beta * (np.asarray(self.energies) - min(self.energies)))
        return w / w.sum()


def spectral_decompose(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Decompose a Hermitian matrix with a deterministic eigenbasis.

    Eigenvalues come out descending.  Degenerate blocks (each eigenvalue
    within ``tol.degeneracy`` times max(1, largest |eigenvalue|) of its
    block's first value; see ``degenerate_blocks``) get the canonical
    Gram-Schmidt basis described in the module docstring, and every
    vector's phase is fixed; the 1x1 blocks are fixed together in one
    array pass.  Raises HermiticityError if the input is not Hermitian
    within ``tol.hermiticity``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > tol.hermiticity:
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")

    vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    # eigh gives the eigenvalues ascending; the copy keeps the reported
    # probabilities contiguous
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1]

    fixed, done = _canonical_columns(vecs)
    for i, j in degenerate_blocks(vals, tol):
        if j > i + 1 or not done[i]:
            fixed[:, i:j] = _canonical_block_basis(vecs[:, i:j])
    return SpectralDecomposition(probabilities=vals, vectors=fixed)


# A projected basis vector enters the Gram-Schmidt basis when its norm
# exceeds this; both gauge-fixing passes must use the same cut.
_ACCEPT_NORM = 1e-8


def _canonical_columns(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_canonical_block_basis`` of every column of ``vecs`` taken as a
    block of its own, in one array pass and to the bit.

    For one column v the projected computational basis is v conj(v_c), and
    the first candidate, c = 0, is taken when its norm exceeds
    ``_ACCEPT_NORM``.  The product gets ``+ 0.0`` as the matmul's
    accumulator gives it, so a -0 becomes +0.  Each norm is summed as
    ``np.linalg.norm`` sums it, real parts then imaginary parts, with
    ``np.vecdot`` per row; the phases are fixed by ``_phase_fixed``.
    Returns the fixed columns and a mask of the columns done; the others
    (first component ~0) hold placeholders.
    """
    if not vecs.size:  # argmax has nothing to search
        return vecs.copy(), np.ones(0, dtype=bool)
    rows = np.ascontiguousarray(vecs.T)
    cand = rows * np.conj(rows[:, :1]) + 0.0
    norms = np.sqrt(np.vecdot(cand.real, cand.real) + np.vecdot(cand.imag, cand.imag))
    done = norms > _ACCEPT_NORM
    if not done.all():
        cand[~done], norms[~done] = 1.0, 1.0
    return _phase_fixed(cand / norms[:, None]).T, done


def _phase_fixed(rows: np.ndarray) -> np.ndarray:
    """Each row times the conjugate phase of its largest-modulus entry,
    which makes that entry real positive.  The phase is the entry divided
    by ``np.hypot`` of its parts, the bits of a scalar ``t / abs(t)``."""
    peaks = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    phases = peaks / np.hypot(peaks.real, peaks.imag)
    return rows * np.conj(phases)[:, None]


def _canonical_block_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block): ordered Gram-Schmidt
    of the projected computational basis, phases fixed to make the
    largest-modulus component real positive.

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
    return _phase_fixed(np.array(accepted)).T


def density_operator(matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Validate and wrap a density matrix.

    Checks Hermiticity, unit trace and positive semidefiniteness, then
    attaches the canonical spectral decomposition with eigenvalues clipped
    to [0, 1] (clipping only ever removes numerical dust below tol.psd).
    """
    m = np.asarray(matrix, dtype=complex)
    dec = spectral_decompose(m, tol)  # raises HermiticityError if needed
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > tol.trace:
        raise ConsistencyError(f"trace deviates from 1 by {tr - 1.0:.3e}")
    lo = float(dec.probabilities.min())
    if lo < -tol.psd:
        raise ConsistencyError(f"negative eigenvalue {lo:.3e} below PSD tolerance")
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
        raise DimensionError(f"keep must be 0 or 1, got {keep}")
    m = np.asarray(rho, dtype=complex)
    if m.shape != (d1 * d2, d1 * d2):
        raise DimensionError(f"state of shape {m.shape} does not factor as {d1}x{d2}")
    r = m.reshape(d1, d2, d1, d2)
    return np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)


def check_unitary(u: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return ``u`` as a complex array, raising UnitarityError if
    u^dag u deviates from the identity beyond tolerance."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    dev = float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))))
    if dev > tol.unitarity:
        raise UnitarityError(f"operator deviates from unitary by {dev:.3e}")
    return u


def degenerate_blocks(probabilities: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> list[tuple[int, int]]:
    """[start, stop) index ranges of degenerate eigenvalue blocks
    (descending spectrum assumed): a block takes each next value within
    ``tol.degeneracy`` times max(1, largest |value|) of its first one."""
    arr = np.asarray(probabilities, dtype=float)
    n = len(arr)
    scale = max(1.0, float(np.max(np.abs(arr)))) if n else 1.0
    p = arr.tolist()  # Python floats: a numpy scalar costs more per comparison
    blocks = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(p[j] - p[i]) <= tol.degeneracy * scale:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks
