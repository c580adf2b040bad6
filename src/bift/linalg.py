"""Dense complex linear algebra for finite-dimensional quantum states.

Everything here works on plain ``numpy`` arrays at desk scale (total
dimension up to ~64): composition, reduction, spectra, thermal states,
unitary evolution and time reversal.  All functions are pure; returned
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
* Time reversal defaults to componentwise complex conjugation in the
  computational basis.  An optional unitary factor turns it into
  ``v -> V conj(v)`` for spinful conventions; no closed-form test values
  exist for that case, so only the default is exercised against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, HermiticityError, UnitarityError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    ``support`` and ``degeneracy`` are relative to the largest eigenvalue
    of the operator at hand; the rest are absolute, sized for double
    precision at total dimension <= ~64.
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


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B; output dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition rho = sum_k p_k |k><k|.

    probabilities -- eigenvalues, descending
    vectors       -- orthonormal eigenvectors as columns, deterministically
                     phase- and gauge-fixed
    support_mask  -- True where p_k exceeds the (relative) support cutoff
    """

    probabilities: np.ndarray
    vectors: np.ndarray
    support_mask: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return sum_k p_k |k><k|."""
        return (self.vectors * self.probabilities) @ dagger(self.vectors)


@dataclass(frozen=True)
class DensityOperator:
    """Validated quantum state: Hermitian, unit trace, PSD, with its
    spectral decomposition attached."""

    dim: int
    matrix: np.ndarray
    decomposition: SpectralDecomposition


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

    Eigenvalues come out descending.  Degenerate blocks (gap below
    ``tol.degeneracy`` relative to the largest |eigenvalue|) get the
    canonical Gram-Schmidt basis described in the module docstring, and
    every vector's phase is fixed.  Raises HermiticityError if the input
    is not Hermitian within ``tol.hermiticity``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > tol.hermiticity:
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")

    vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    order = np.argsort(vals, kind="stable")[::-1]
    vals = vals[order]
    vecs = vecs[:, order]

    n = len(vals)
    scale = max(1.0, float(np.max(np.abs(vals)))) if n else 1.0
    fixed = np.zeros_like(vecs)
    for i, j in degenerate_blocks(vals, tol):
        fixed[:, i:j] = _canonical_block_basis(vecs[:, i:j])
    sup = np.abs(vals) > tol.support * scale if n else np.zeros(0, dtype=bool)
    return SpectralDecomposition(probabilities=vals, vectors=fixed, support_mask=sup)


def _canonical_block_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block): ordered Gram-Schmidt
    of the projected computational basis, phases fixed to make the
    largest-modulus component real positive."""
    n, k = block.shape
    proj = block @ dagger(block)
    accepted: list[np.ndarray] = []
    for col in range(n):
        cand = proj[:, col].copy()
        for u in accepted:
            cand -= u * (np.conj(u) @ cand)
        norm = float(np.linalg.norm(cand))
        if norm > 1e-8:
            accepted.append(cand / norm)
        if len(accepted) == k:
            break
    if len(accepted) < k:
        # Pathological alignment: fall back to picking, at each step, the
        # computational direction with the largest residual.
        accepted = []
        for _ in range(k):
            best, best_norm = None, -1.0
            for col in range(n):
                cand = proj[:, col].copy()
                for u in accepted:
                    cand -= u * (np.conj(u) @ cand)
                norm = float(np.linalg.norm(cand))
                if norm > best_norm + 1e-15:
                    best, best_norm = cand / norm, norm
            accepted.append(best)
    out = np.column_stack(accepted)
    for col in range(k):
        v = out[:, col]
        kmax = int(np.argmax(np.abs(v)))
        phase = v[kmax] / abs(v[kmax])
        out[:, col] = v * np.conj(phase)
    return out


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
    dec = SpectralDecomposition(probs, dec.vectors, dec.support_mask)
    return DensityOperator(dim=m.shape[0], matrix=m, decomposition=dec)


def partial_trace(rho, dims: tuple[int, int], keep: int):
    """Reduce a bipartite operator to one factor.

    ``dims = (d_first, d_second)`` with the state living on
    first (x) second; ``keep`` is 0 for the first factor, 1 for the second.
    Accepts a DensityOperator (returns a DensityOperator) or a raw matrix
    (returns a matrix).
    """
    d1, d2 = int(dims[0]), int(dims[1])
    if keep not in (0, 1):
        raise DimensionError(f"keep must be 0 or 1, got {keep}")
    m = _as_matrix(rho)
    if m.shape != (d1 * d2, d1 * d2):
        raise DimensionError(f"state of shape {m.shape} does not factor as {d1}x{d2}")
    r = m.reshape(d1, d2, d1, d2)
    out = np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)
    if isinstance(rho, DensityOperator):
        return density_operator(out)
    return out


def gibbs_state(spec: ReservoirSpec) -> DensityOperator:
    """Thermal state exp(-beta H)/Z, diagonal in the energy basis."""
    p = spec.gibbs_probabilities()
    return density_operator(np.diag(p).astype(complex))


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


def evolve(rho, u: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Conjugate a state by a unitary: rho -> U rho U^dag."""
    u = check_unitary(u, tol)
    m = _as_matrix(rho)
    if m.shape[0] != u.shape[0]:
        raise DimensionError(f"state dim {m.shape[0]} != propagator dim {u.shape[0]}")
    out = u @ m @ dagger(u)
    if isinstance(rho, DensityOperator):
        return density_operator(out, tol)
    return out


def time_reverse(decomp: SpectralDecomposition,
                 unitary_factor: np.ndarray | None = None) -> SpectralDecomposition:
    """Apply the time-reversal operator to every eigenvector.

    Default is componentwise complex conjugation; with ``unitary_factor``
    V the map becomes v -> V conj(v).  Probabilities are unchanged, and
    all pairwise overlap moduli are preserved either way.  The default is
    an involution; a factored reversal squares to V conj(V), which is the
    identity only for symmetric V.
    """
    vecs = np.conj(decomp.vectors)
    if unitary_factor is not None:
        vecs = check_unitary(unitary_factor) @ vecs
    return SpectralDecomposition(decomp.probabilities.copy(), vecs, decomp.support_mask.copy())


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    if isinstance(rho, DensityOperator):
        p = rho.decomposition.probabilities
    elif isinstance(rho, SpectralDecomposition):
        p = rho.probabilities
    else:
        p = spectral_decompose(np.asarray(rho, dtype=complex)).probabilities
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def degenerate_blocks(probabilities: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> list[tuple[int, int]]:
    """[start, stop) index ranges of degenerate eigenvalue blocks
    (descending spectrum assumed)."""
    p = np.asarray(probabilities, dtype=float)
    n = len(p)
    scale = max(1.0, float(np.max(np.abs(p)))) if n else 1.0
    blocks = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(p[j] - p[i]) <= tol.degeneracy * scale:
            j += 1
        blocks.append((i, j))
        i = j
    return blocks


def remix_degenerate_blocks(decomp: SpectralDecomposition, rng: np.random.Generator,
                            tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Rotate each degenerate eigenvalue block by a Haar-random unitary.

    The result decomposes the same operator; it deliberately bypasses the
    canonical gauge, which is exactly what gauge-robustness checks need.
    """
    vecs = decomp.vectors.copy()
    for i, j in degenerate_blocks(decomp.probabilities, tol):
        if j - i > 1:
            vecs[:, i:j] = vecs[:, i:j] @ haar_unitary(j - i, rng)
    return SpectralDecomposition(decomp.probabilities.copy(), vecs, decomp.support_mask.copy())


def assert_same_operator(decomp: SpectralDecomposition, matrix: np.ndarray,
                         tol: float = 1e-10) -> None:
    """Raise ConsistencyError unless the decomposition reconstructs ``matrix``."""
    dev = float(np.max(np.abs(decomp.reconstruct() - np.asarray(matrix, dtype=complex))))
    if dev > tol:
        raise ConsistencyError(f"decomposition fails to reconstruct its operator by {dev:.3e}")
