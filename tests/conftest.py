"""Shared helpers: small reference states, test-only system builders
and brute-force oracles.

Oracles here are deliberately naive (nested loops, direct sums, or the
dense eight-index tables) and independent of the factored contractions
they check.
"""

import dataclasses
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import bift
from bift import reportio, tables
from bift.functionals import shannon_entropy
from bift.errors import BiftError
from bift.linalg import (
    _ACCEPT_NORM,
    DEFAULT_TOL,
    ReservoirSpec,
    SpectralDecomposition,
    dagger,
    degenerate_blocks,
    density_operator,
    haar_unitary,
    spectral_decompose,
)
from bift.scenarios import _mixed_spectrum, bell_basis, werner_isothermal
from bift.tables import (
    Endpoint,
    OutcomeTuple,
    SystemSpectra,
    UnitarySystem,
    spectra_from_analytic,
)
from bift.theorems import (
    NEG_INF,
    Averages,
    FTReport,
    evaluate,
    inequality_suite,
    product_bases,
)


def python_command(*argv: str, **env: str) -> tuple[list[str], dict[str, str]]:
    """The command and environment that run ``python *argv`` in a
    subprocess with this ``bift`` importable, ``env`` added to the
    environment."""
    src = Path(bift.__file__).resolve().parents[1]
    return [sys.executable, *argv], {**os.environ, "PYTHONPATH": str(src), **env}


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


def werner_state(p: float) -> np.ndarray:
    """p |bell_0><bell_0| + (1-p)/4 I as a 4x4 matrix."""
    if not 0.0 <= p <= 1.0:
        raise BiftError(f"werner fraction must lie in [0, 1], got {p}")
    b0 = bell_basis()[:, 0]
    return p * np.outer(b0, b0) + (1.0 - p) / 4.0 * np.eye(4)


def random_classical_instance(dim_a: int, dim_b: int, dim_r: int, seed: int,
                              beta: float = 1.0) -> UnitarySystem:
    """System whose global eigenbases stay product bases: a diagonal
    (classically correlated) initial state, a computational-basis
    permutation of the whole space, then local rotations."""
    rng = np.random.default_rng(seed)
    d_m = dim_a * dim_b
    lam = _mixed_spectrum(rng, d_m)
    rho = np.diag(lam).astype(complex)
    perm = rng.permutation(d_m * dim_r)
    p_mat = np.eye(d_m * dim_r)[:, perm].astype(complex)
    u_local = np.kron(np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)),
                      np.eye(dim_r))
    energies = np.sort(rng.uniform(0.0, 5.0 / beta, size=dim_r))
    return UnitarySystem(dim_a=dim_a, dim_b=dim_b,
                         rho_ab=density_operator(rho),
                         reservoir=ReservoirSpec(energies=tuple(energies), beta=beta),
                         unitary=u_local @ p_mat)


def log_uniform_spectrum(rng: np.random.Generator, dim: int, lo: float) -> np.ndarray:
    """``dim`` eigenvalues proportional to 10^U(lo, 0), summing to 1."""
    lam = 10.0 ** rng.uniform(lo, 0.0, size=dim)
    return lam / lam.sum()


def pinned_energies(rng: np.random.Generator, dim_r: int, top: float) -> tuple[float, ...]:
    """``dim_r`` >= 2 reservoir energies, the lowest 0 and the highest
    ``top``, the others uniform between them."""
    inner = np.sort(rng.uniform(0.0, top, size=dim_r - 2))
    return (0.0, *(float(e) for e in inner), float(top))


def respectrum(system: UnitarySystem, lam: np.ndarray) -> UnitarySystem:
    """``system`` with the eigenvalues of its state replaced by ``lam``
    (in the order of its eigenbasis), the eigenbasis kept."""
    v = system.rho_ab.decomposition.vectors
    rho = (v * lam) @ v.conj().T
    return dataclasses.replace(system, rho_ab=density_operator(0.5 * (rho + rho.conj().T)))


def oracle_canonical_block_basis(block: np.ndarray) -> np.ndarray:
    """``linalg._canonical_block_basis`` as a loop per vector: left-looking
    Gram-Schmidt, each candidate taking every accepted vector in turn."""
    n, k = block.shape
    proj = block @ dagger(block)
    accepted: list[np.ndarray] = []
    for col in range(n):
        cand = proj[:, col].copy()
        for u in accepted:
            cand -= u * (np.conj(u) @ cand)
        norm = float(np.linalg.norm(cand))
        if norm > _ACCEPT_NORM:
            accepted.append(cand / norm)
        if len(accepted) == k:
            break
    return np.column_stack(accepted)


def oracle_spectral_decompose(matrix: np.ndarray) -> SpectralDecomposition:
    """``spectral_decompose`` block by block: eigh, sort descending, keep
    eigh's columns as an F-ordered copy, then put
    ``oracle_canonical_block_basis`` on every degenerate block of two or
    more.

    Each block goes in as the slice ``fixed[:, i:j]`` of that copy, so
    that its projector ``block @ dagger(block)`` is formed from the same
    layout as in ``spectral_decompose``.
    """
    m = np.asarray(matrix, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    order = np.argsort(vals, kind="stable")[::-1]
    vals = vals[order]
    fixed = np.array(vecs[:, order], order="F")
    for i, j in degenerate_blocks(vals):
        if j - i > 1:
            fixed[:, i:j] = oracle_canonical_block_basis(fixed[:, i:j])
    return SpectralDecomposition(probabilities=vals, vectors=fixed)


def reconstruct(decomp: SpectralDecomposition) -> np.ndarray:
    """The operator sum_k p_k |k><k| a decomposition stands for."""
    return (decomp.vectors * decomp.probabilities) @ dagger(decomp.vectors)


def remix_degenerate_blocks(decomp: SpectralDecomposition,
                            rng: np.random.Generator) -> SpectralDecomposition:
    """Rotate each degenerate eigenvalue block by a Haar-random unitary,
    and so each lone eigenvector by a random phase.

    The result decomposes the same operator; it deliberately bypasses the
    canonical gauge, which is exactly what gauge-robustness checks need.
    """
    vecs = decomp.vectors.copy()
    for i, j in degenerate_blocks(decomp.probabilities):
        vecs[:, i:j] = vecs[:, i:j] @ haar_unitary(j - i, rng)
    return SpectralDecomposition(decomp.probabilities.copy(), vecs)


def remix_initial(system: UnitarySystem, rng: np.random.Generator) -> UnitarySystem:
    """``system`` with its initial eigenbasis re-gauged by
    :func:`remix_degenerate_blocks`."""
    rho = system.rho_ab
    remixed = remix_degenerate_blocks(rho.decomposition, rng)
    return dataclasses.replace(system, rho_ab=dataclasses.replace(rho, decomposition=remixed))


def remix_derived_decompositions(monkeypatch, rng: np.random.Generator) -> None:
    """Make ``spectra_from_unitary`` re-gauge every decomposition it
    derives (the final global state and the local states at both ends)
    by :func:`remix_degenerate_blocks`."""
    derive = tables.spectral_decompose

    def remixed(matrix):
        return remix_degenerate_blocks(derive(matrix), rng)

    monkeypatch.setattr(tables, "spectral_decompose", remixed)


def encode_complex_matrix(matrix: np.ndarray) -> list:
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def report_text(obj) -> str:
    """The bytes ``reportio.dump`` writes for ``obj``, joined and decoded
    as ASCII."""
    pieces: list[bytes] = []
    reportio.dump(obj, pieces.append)
    return b"".join(pieces).decode("ascii")


def oracle_format_float(x: float) -> str:
    """``reportio.format_float`` with one test per kind: ``isnan``, then
    ``isinf``, then ``%.15g``."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.15g" % (x + 0.0)      # + 0.0 turns -0.0 into 0.0, printed "0"


def oracle_dump(obj) -> str:
    """The text ``reportio.dump`` writes for ``obj``, from a walker with one
    ``isinstance`` branch per kind: each record's members through
    ``dataclasses.fields``, each scalar through :func:`oracle_format_float`
    or ``json``'s quoting, and each array through its ``tolist()``."""
    text: list[str] = []
    _oracle_emit(obj, text, 0)
    text.append("\n")
    return "".join(text)


def _oracle_emit(obj, text: list[str], level: int) -> None:
    if obj is None:
        text.append("null")
    elif obj is True:
        text.append("true")
    elif obj is False:
        text.append("false")
    elif isinstance(obj, (int, np.integer)):
        text.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        text.append(oracle_format_float(float(obj)))
    elif isinstance(obj, str):
        text.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        _oracle_emit_items("{}", [(encode_basestring_ascii(str(k)) + ": ", v)
                                  for k, v in obj.items()], text, level)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _oracle_emit_items("{}", [(encode_basestring_ascii(f.name) + ": ", getattr(obj, f.name))
                                  for f in dataclasses.fields(obj)], text, level)
    elif isinstance(obj, np.ndarray):
        _oracle_emit(obj.tolist(), text, level)     # a 0-d array gives its scalar
    elif isinstance(obj, (list, tuple)):
        _oracle_emit_items("[]", [("", value) for value in obj], text, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _oracle_emit_items(brackets: str, items: list, text: list[str], level: int) -> None:
    if not items:
        text.append(brackets)
        return
    pad = "\n" + "  " * (level + 1)
    gap = brackets[0] + pad
    for prefix, value in items:
        text.append(gap + prefix)
        _oracle_emit(value, text, level + 1)
        gap = "," + pad
    text.append("\n" + "  " * level + brackets[1])


def evaluate_scenario(scenario, **kwargs):
    """``theorems.evaluate`` on a scenario's spectra and work inputs, as
    the command line runs it."""
    return evaluate(scenario.spectra, scenario.work, **kwargs)


def werner_spectra(p: float = 0.5, **fields):
    """The Werner scenario's spectra with ``fields`` swapped in (not
    re-validated)."""
    return dataclasses.replace(werner_isothermal(p).spectra, **fields)


def oracle_counterexample_spectra(p: float):
    """The counterexample scenario as an injected kernel, the reference for
    its propagator: the product basis |00>, |01>, |10>, |11> carried level
    by level onto the Bell basis of ``bell_basis``, with no reservoir
    exchange, from the state diagonal in the product basis with
    eigenvalues (1+3p)/4, (1-p)/4, (1-p)/4, (1-p)/4."""
    p_m = np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)
    local = np.array([(1.0 + p) / 2.0, (1.0 - p) / 2.0])
    kernel = np.eye(4).reshape(4, 4, 1, 1)          # adiabatic: each level follows itself
    return spectra_from_analytic(SystemSpectra(
        initial=Endpoint(p_m=p_m, p_a=local, p_b=local.copy(),
                         cond=np.eye(4).reshape(4, 2, 2)),
        # bell_basis() holds <a,b|bell_m> at [(a, b), m]
        final=Endpoint(p_m=p_m.copy(), p_a=np.full(2, 0.5), p_b=np.full(2, 0.5),
                       cond=(bell_basis() ** 2).T.reshape(4, 2, 2)),
        p_r=np.array([1.0]),
        kernel=kernel, reverse_kernel=kernel.copy(),
        beta_q=np.zeros((1, 1)),
    ))


def replace_endpoint(spectra, side: str, **fields):
    """``spectra`` with ``fields`` (p_m, p_a, p_b, cond) of one endpoint,
    "initial" or "final", swapped in (not re-validated)."""
    return dataclasses.replace(
        spectra, **{side: dataclasses.replace(getattr(spectra, side), **fields)})


def spectra_dims(spectra) -> tuple[int, int, int, int]:
    """(d_M, d_A, d_B, d_R), read off the arrays of ``spectra``."""
    d_m, d_a, d_b = spectra.initial.cond.shape
    return d_m, d_a, d_b, len(spectra.p_r)


def oracle_loop_tables(spectra) -> tuple[np.ndarray, np.ndarray]:
    """Both eight-index tables in eight nested loops: each kernel times the
    spectra its process starts from (p_m p_r forward, p_m' p_r' reversed)
    times both conditionals."""
    d_m, d_a, d_b, d_r = spectra_dims(spectra)
    forward = np.zeros((d_m, d_a, d_b, d_m, d_a, d_b, d_r, d_r))
    reverse = np.zeros_like(forward)
    for m in range(d_m):
        for a in range(d_a):
            for b in range(d_b):
                for mf in range(d_m):
                    for af in range(d_a):
                        for bf in range(d_b):
                            for r in range(d_r):
                                for rf in range(d_r):
                                    at = m, a, b, mf, af, bf, r, rf
                                    forward[at] = (spectra.kernel[m, mf, r, rf]
                                                   * spectra.initial.p_m[m] * spectra.p_r[r]
                                                   * spectra.initial.cond[m, a, b]
                                                   * spectra.final.cond[mf, af, bf])
                                    reverse[at] = (spectra.reverse_kernel[m, mf, r, rf]
                                                   * spectra.final.p_m[mf] * spectra.p_r[rf]
                                                   * spectra.initial.cond[m, a, b]
                                                   * spectra.final.cond[mf, af, bf])
    return forward, reverse


def oracle_final_state(system: UnitarySystem) -> np.ndarray:
    """Tr_R[U (rho (x) gamma) U^dag] from the dense Kronecker product,
    summed over the reservoir's diagonal blocks."""
    d_r = system.reservoir.dim
    start = np.kron(system.rho_ab.matrix, np.diag(system.reservoir.gibbs_probabilities()))
    full = system.unitary @ start @ dagger(system.unitary)
    return sum(full[r::d_r, r::d_r] for r in range(d_r))


def oracle_two_point_tables(system: UnitarySystem) -> tuple[np.ndarray, np.ndarray]:
    """(G, G_rev) on axes [m, m', r, r'] from operator formulas, with the
    projectors P_mr = |m><m| (x) |r><r| of the initial eigenbasis and P'
    of the final one:

        G[m,m',r,r']     = Tr[P'_m'r' U P_mr (rho (x) gamma) P_mr U^dag],
        G_rev[m,m',r,r'] = Tr[T(P_mr) U~ T(P'_m'r') T(rho' (x) gamma) T(P'_m'r') U~^dag],

    where T is complex conjugation in the computational basis (the
    antiunitary time reversal), U~ = T(U^dag) the reversed propagator and
    rho' the final AB state of ``oracle_final_state``.  The final
    eigenbasis is the package's canonical one of that state, since a
    degenerate block admits no other choice to compare against."""
    d_m = system.dim_a * system.dim_b
    d_r = system.reservoir.dim
    gamma = np.diag(system.reservoir.gibbs_probabilities())
    final = oracle_final_state(system)
    bases = (system.rho_ab.decomposition.vectors, spectral_decompose(final).vectors)
    proj = [[[np.kron(np.outer(v[:, m], v[:, m].conj()), np.diag(np.eye(d_r)[r]))
              for r in range(d_r)] for m in range(d_m)] for v in bases]
    u, u_rev = system.unitary, np.conj(dagger(system.unitary))
    start, start_rev = np.kron(system.rho_ab.matrix, gamma), np.conj(np.kron(final, gamma))
    forward = np.zeros((d_m, d_m, d_r, d_r))
    reverse = np.zeros((d_m, d_m, d_r, d_r))
    for m, mf, r, rf in np.ndindex(forward.shape):
        p, q = proj[0][m][r], proj[1][mf][rf]
        forward[m, mf, r, rf] = np.trace(q @ u @ p @ start @ p @ dagger(u)).real
        p, q = np.conj(p), np.conj(q)
        reverse[m, mf, r, rf] = np.trace(p @ u_rev @ q @ start_rev @ q @ dagger(u_rev)).real
    return forward, reverse


def oracle_two_point_tables_50_digits(system: UnitarySystem) -> tuple[np.ndarray, np.ndarray]:
    """(G, G_rev) of ``oracle_two_point_tables`` in 50-digit mpmath
    arithmetic that calls no bift code, rounded to float at the end.

    The float64 rho, U, reservoir energies and beta are taken as exact.
    The eigenbases of rho and of rho' = Tr_R[U (rho (x) gamma) U^dag] come
    from ``mp.eighe``, sorted by descending eigenvalue, so the projectors
    are defined only when neither spectrum is degenerate.  Every
    projector is rank one, P_mr = |x><x| with x = |m>|r> and P'_m'r' =
    |y><y| with y = |m'>|r'>, so the traces reduce to

        G[m,m',r,r']     = <x|rho (x) gamma|x>  |<y|U|x>|^2 = p_m gamma_r |<y|U|x>|^2,
        G_rev[m,m',r,r'] = <y|rho' (x) gamma|y> |<y|U|x>|^2 = p'_m' gamma_r' |<y|U|x>|^2,

    with p and p' the 50-digit eigenvalues; the reverse amplitude is
    <y|U|x> since U~ = T(U^dag) = U^T gives <T x|U~|T y> = <y|U|x>."""
    d_m = system.dim_a * system.dim_b
    d_r = len(system.reservoir.energies)
    with mp.workdps(50):
        beta = mp.mpf(system.reservoir.beta)
        weights = [mp.exp(-beta * mp.mpf(e)) for e in system.reservoir.energies]
        gamma = [w / mp.fsum(weights) for w in weights]
        u = mp.matrix(system.unitary.tolist())
        rho = mp.matrix(system.rho_ab.matrix.tolist())
        start = mp.matrix(d_m * d_r, d_m * d_r)
        for i, j, r in np.ndindex(d_m, d_m, d_r):
            start[i * d_r + r, j * d_r + r] = rho[i, j] * gamma[r]
        full = u * start * u.H
        final = mp.matrix(d_m, d_m)
        for i, j, r in np.ndindex(d_m, d_m, d_r):
            final[i, j] += full[i * d_r + r, j * d_r + r]

        def eigenbasis(state):
            values, vectors = mp.eighe(state)
            order = sorted(range(d_m), key=lambda k: -values[k])
            basis = mp.matrix(d_m * d_r, d_m * d_r)        # columns |m>|r>, m descending
            for k, m in enumerate(order):
                for i, r in np.ndindex(d_m, d_r):
                    basis[i * d_r + r, k * d_r + r] = vectors[i, m]
            return basis, [values[m] for m in order]

        (v, p_m), (w, p_mf) = eigenbasis(rho), eigenbasis(final)
        amp = w.H * u * v                                   # [(m', r'), (m, r)]
        forward = np.zeros((d_m, d_m, d_r, d_r))
        reverse = np.zeros((d_m, d_m, d_r, d_r))
        for m, mf, r, rf in np.ndindex(forward.shape):
            overlap = abs(amp[mf * d_r + rf, m * d_r + r]) ** 2
            forward[m, mf, r, rf] = float(p_m[m] * gamma[r] * overlap)
            reverse[m, mf, r, rf] = float(p_mf[mf] * gamma[rf] * overlap)
    return forward, reverse


def time_reverse(decomp) -> SpectralDecomposition:
    """The antiunitary time reversal on an eigenbasis: componentwise
    complex conjugation in the computational basis (probabilities
    unchanged)."""
    return SpectralDecomposition(decomp.probabilities.copy(), np.conj(decomp.vectors))


# -- the dense engine: every check summed over the eight-index tables ----


@dataclasses.dataclass(frozen=True)
class TrajectoryFunctional:
    """Per-trajectory quantities entering the fluctuation relations, as
    arrays broadcastable against the eight-index tables.  Each exponent
    holds beta Q unless ``heat`` is False: an average in ratio form
    (``dense_restricted_average``) applies e^{beta Q} apart."""

    delta_s_a: np.ndarray
    delta_s_b: np.ndarray
    delta_i: np.ndarray
    beta_q: np.ndarray
    delta_j: np.ndarray

    def _heat(self, heat: bool):
        return self.beta_q if heat else 0.0

    def ft_exponent(self, heat=True):
        """-ds_A - ds_B + dI + beta Q, the detailed-relation exponent."""
        return -self.delta_s_a - self.delta_s_b + self.delta_i + self._heat(heat)

    def local_exponent(self, heat=True):
        """-ds_A - ds_B + beta Q (no information content)."""
        return -self.delta_s_a - self.delta_s_b + self._heat(heat)

    def classical_exponent(self, heat=True):
        """-ds_A - ds_B + dJ + beta Q (classical info content)."""
        return -self.delta_s_a - self.delta_s_b + self.delta_j + self._heat(heat)


def dense_support(spectra) -> np.ndarray:
    """The support over the eight axes: trajectories whose p_m, p'_m' and
    p_r are positive."""
    return ((spectra.initial.p_m > 0.0)[:, None, None, None, None, None, None, None]
            & (spectra.final.p_m > 0.0)[None, None, None, :, None, None, None, None]
            & (spectra.p_r > 0.0)[None, None, None, None, None, None, :, None])


def dense_view(spectra, table) -> np.ndarray:
    """The dense oracle of a two-point table: the eight-index table of the
    global ``table`` of ``spectra``, with both conditional weights attached,

        p[m,a,b,m',a',b',r,r'] = table[m,m',r,r'] |<m|a,b>|^2 |<m'|a',b'>|^2.
    """
    return (table[:, None, None, :, None, None, :, :]
            * spectra.initial.cond[:, :, :, None, None, None, None, None]
            * spectra.final.cond[None, None, None, :, :, :, None, None])


def dense_tables(spectra, reverse_global=None):
    """(forward, reverse) eight-index distributions; ``reverse_global``
    replaces the reverse two-point table (e.g. a corrupted one)."""
    reverse = spectra.two_point(reverse=True) if reverse_global is None else reverse_global
    return dense_view(spectra, spectra.two_point()), dense_view(spectra, reverse)


def log_or_zero(p) -> np.ndarray:
    """ln p with ln 0 := 0; every positive weight keeps its log."""
    p = np.asarray(p, dtype=float)
    return np.log(np.where(p > 0.0, p, 1.0))


def dense_content_table(p, l_pa, l_pb) -> np.ndarray:
    """ln p - ln p_a - ln p_b over (a, b), 0 where ``p`` is 0; ``p`` is
    p_{a,b} (classical) or p_m[:, None, None] (info)."""
    return np.where(p > 0.0, log_or_zero(p) - l_pa[:, None] - l_pb[None, :], 0.0)


def dense_tuple_functionals(spectra) -> TrajectoryFunctional:
    """Every functional on the whole tuple space, as eight-axis
    broadcastable arrays over (m, a, b, m', a', b', r, r')."""
    d_m, d_a, d_b, d_r = spectra_dims(spectra)
    ini, fin = spectra.initial, spectra.final
    l_pa, l_pb, l_paf, l_pbf = map(log_or_zero, (ini.p_a, ini.p_b, fin.p_a, fin.p_b))
    ds_a = (l_pa[:, None] - l_paf[None, :]).reshape(1, d_a, 1, 1, d_a, 1, 1, 1)
    ds_b = (l_pb[:, None] - l_pbf[None, :]).reshape(1, 1, d_b, 1, 1, d_b, 1, 1)
    info_i = dense_content_table(ini.p_m[:, None, None], l_pa, l_pb)
    info_f = dense_content_table(fin.p_m[:, None, None], l_paf, l_pbf)
    d_i = (info_f[None, None, None, :, :, :]
           - info_i[:, :, :, None, None, None]).reshape(d_m, d_a, d_b, d_m, d_a, d_b, 1, 1)
    j_i = dense_content_table(ini.classical_joint(), l_pa, l_pb)
    j_f = dense_content_table(fin.classical_joint(), l_paf, l_pbf)
    d_j = (j_f[None, None, :, :] - j_i[:, :, None, None]).reshape(1, d_a, d_b, 1, d_a, d_b, 1, 1)
    b_q = np.asarray(spectra.beta_q, dtype=float).reshape(1, 1, 1, 1, 1, 1, d_r, d_r)
    return TrajectoryFunctional(delta_s_a=ds_a, delta_s_b=ds_b,
                                delta_i=d_i, beta_q=b_q, delta_j=d_j)


def dense_average(dist, values) -> float:
    """Distribution average sum p f with zero-weight trajectories skipped."""
    f = np.broadcast_to(np.asarray(values, dtype=float), dist.shape)
    return float(np.sum(np.where(dist > 0.0, dist * f, 0.0)))


def dense_restricted_average(spectra, dist, exponent, beta_q=0.0) -> float:
    """Average of exp(``exponent`` + ``beta_q``) over the support; over
    the reverse table with both 0, the absolute-irreversibility factor
    gamma.  In ratio form: e^{beta Q} multiplies ``dist`` first, which
    carries p_r, and p_r e^{beta Q} = p_r' is at most 1, so no product
    overflows at a heat exponent up to the float limit."""
    weight = dist * np.exp(beta_q)
    return float(np.sum(np.where((dist > 0.0) & dense_support(spectra),
                                 weight * np.exp(exponent), 0.0)))


def dense_detailed_ft_check(spectra, forward, reverse, traj):
    """Max over the supported trajectories of positive forward weight of
    |(p_rev/p_fwd) / exp(exponent) - 1| and the first trajectory attaining
    it.  In ratio form: p_rev e^{-beta Q} e^{-(exponent - beta Q)} is formed
    first, which equals p_fwd on a valid system, then divided by it."""
    mask = dense_support(spectra) & (forward > 0.0)
    if not mask.any():
        return 0.0, None
    back = reverse * np.exp(-traj.beta_q) * np.exp(-traj.ft_exponent(heat=False))
    resid = np.where(mask, np.abs(back / np.where(mask, forward, 1.0) - 1.0), 0.0)
    flat = int(np.argmax(resid))
    worst = OutcomeTuple(*(int(i) for i in np.unravel_index(flat, forward.shape)))
    return float(resid.flat[flat]), worst


def dense_integral_ft(spectra, forward, traj) -> float:
    return dense_restricted_average(spectra, forward, traj.ft_exponent(heat=False), traj.beta_q)


def dense_reverse_averaged_ft(spectra, forward, reverse, traj):
    lhs = dense_restricted_average(spectra, forward, traj.local_exponent(heat=False),
                                   traj.beta_q)
    rhs = dense_restricted_average(spectra, reverse, -traj.delta_i)
    return lhs, rhs


def dense_classical_reduction_check(spectra, tol=DEFAULT_TOL):
    """(|classical integral relation - gamma|, max |dI - dJ| over the
    support) when both global eigenbases are product bases, else None.
    With product bases the protocol is two local two-point measurements
    and the info content reduces to its classical counterpart."""
    if not product_bases(spectra, tol):
        return None
    forward, reverse = dense_tables(spectra)
    traj = dense_tuple_functionals(spectra)
    lhs = dense_restricted_average(spectra, forward, traj.classical_exponent(heat=False),
                                   traj.beta_q)
    residual = abs(lhs - dense_restricted_average(spectra, reverse, 0.0))
    gap = np.abs(np.broadcast_to(traj.delta_i - traj.delta_j, forward.shape))
    max_gap = float(np.max(np.where(dense_support(spectra) & (forward > 0.0), gap, 0.0)))
    return residual, max_gap


def dense_evaluate(spectra, work_inputs=None, tol=DEFAULT_TOL,
                   reverse_global=None) -> FTReport:
    """``theorems.evaluate``'s report, summed over the dense tables."""
    forward, reverse = dense_tables(spectra, reverse_global)
    traj = dense_tuple_functionals(spectra)
    gamma = dense_restricted_average(spectra, reverse, 0.0)
    rev_lhs, rev_rhs = dense_reverse_averaged_ft(spectra, forward, reverse, traj)
    resid, worst = dense_detailed_ft_check(spectra, forward, reverse, traj)
    averages = Averages(*(dense_average(forward, x) for x in (
        traj.delta_s_a, traj.delta_s_b, traj.delta_i, traj.delta_j, traj.beta_q)))
    classical_lhs = None
    if product_bases(spectra, tol):
        classical_lhs = dense_restricted_average(
            spectra, forward, traj.classical_exponent(heat=False), traj.beta_q)
    ln_gamma = math.log(gamma) if gamma > 0.0 else NEG_INF
    ln_rev = math.log(rev_rhs) if rev_rhs > 0.0 else NEG_INF
    return FTReport(
        integral_ft_lhs=dense_integral_ft(spectra, forward, traj),
        gamma_restricted=gamma,
        ln_gamma=ln_gamma,
        reverse_ft_lhs=rev_lhs,
        reverse_avg_exp_di=rev_rhs,
        reverse_avg_exp_di_full=dense_average(reverse, np.exp(-traj.delta_i)),
        detailed_max_residual=resid,
        detailed_worst=worst,
        bound_gap=(-ln_rev) - averages.delta_i,
        averages=averages,
        bounds=inequality_suite(averages, gamma, ln_gamma, ln_rev, classical_lhs, work_inputs,
                                tol))


def dense_invariant_values(spectra, forward, reverse) -> dict:
    """The values of ``cli.invariant_checks``, on the dense tables."""
    s, ini = spectra, spectra.initial
    g = forward.sum(axis=(1, 2, 4, 5))                # local labels summed out
    info_i = dense_content_table(ini.p_m[:, None, None], log_or_zero(ini.p_a),
                                 log_or_zero(ini.p_b))
    want = ini.cond[:, :, :, None] * ini.p_m[:, None, None, None] * s.p_r[None, None, None, :]
    return {
        "forward_normalization": abs(float(forward.sum()) - 1.0),
        "reverse_normalization": abs(float(reverse.sum()) - 1.0),
        "forward_factorization": float(np.max(np.abs(
            g - (s.kernel * ini.p_m[:, None, None, None]
                 * s.p_r[None, None, :, None])))),
        "initial_marginal_identity": float(np.max(np.abs(
            forward.sum(axis=(3, 4, 5, 7)) - want))),
        "local_marginal_identity": float(np.max(np.abs(
            forward.sum(axis=(0, 2, 3, 4, 5, 6, 7)) - ini.p_a))),
        "info_avg_is_mutual_information": abs(
            dense_average(forward, info_i[:, :, :, None, None, None, None, None])
            - (shannon_entropy(ini.p_a) + shannon_entropy(ini.p_b) - shannon_entropy(ini.p_m))),
        "restricted_mass_in_range": 0.0,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
