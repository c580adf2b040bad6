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
from bift.functionals import _or_one, shannon_entropy
from bift.errors import DomainError
from bift.linalg import (
    _ACCEPT_NORM,
    DEFAULT_TOL,
    ReservoirSpec,
    SpectralDecomposition,
    Tolerances,
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
    factored_joint,
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
        raise DomainError(f"werner fraction must lie in [0, 1], got {p}")
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


def oracle_canonical_block_basis(block: np.ndarray) -> np.ndarray:
    """``linalg._canonical_block_basis`` as a loop per vector: left-looking
    Gram-Schmidt, each candidate taking every accepted vector in turn, then
    one phase fixed per column with a scalar ``abs``."""
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
    out = np.column_stack(accepted)
    for col in range(k):
        v = out[:, col]
        kmax = int(np.argmax(np.abs(v)))
        phase = v[kmax] / abs(v[kmax])
        out[:, col] = v * np.conj(phase)
    return out


def oracle_canonical_columns(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``linalg._canonical_columns`` with one norm and one phase per
    column, summed and divided as Python scalars."""
    if not vecs.size:
        return vecs.copy(), np.ones(0, dtype=bool)
    rows = np.ascontiguousarray(vecs.T)
    cand = rows * np.conj(rows[:, :1]) + 0.0
    norms = np.array([math.sqrt(c.real.dot(c.real) + c.imag.dot(c.imag)) for c in cand])
    done = norms > _ACCEPT_NORM
    if not done.all():
        cand[~done], norms[~done] = 1.0, 1.0
    unit = cand / norms[:, None]
    peaks = unit[np.arange(len(unit)), np.argmax(np.abs(unit), axis=1)]
    phases = np.array([t / abs(t) for t in peaks])
    return (unit * np.conj(phases)[:, None]).T, done


def oracle_spectral_decompose(matrix: np.ndarray,
                              tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """``spectral_decompose`` block by block: eigh, sort descending, then
    ``oracle_canonical_block_basis`` on every degenerate block, 1x1 ones
    too.

    Each block goes in as the slice ``vecs[:, i:j]`` of the sorted
    eigenvectors, not a copy, so that its projector ``block @ dagger(block)``
    is formed from the same layout as in the per-block pass.
    """
    m = np.asarray(matrix, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    order = np.argsort(vals, kind="stable")[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    fixed = np.zeros_like(vecs)
    for i, j in degenerate_blocks(vals, tol):
        fixed[:, i:j] = oracle_canonical_block_basis(vecs[:, i:j])
    return SpectralDecomposition(probabilities=vals, vectors=fixed)


def reconstruct(decomp: SpectralDecomposition) -> np.ndarray:
    """The operator sum_k p_k |k><k| a decomposition stands for."""
    return (decomp.vectors * decomp.probabilities) @ dagger(decomp.vectors)


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

    def remixed(matrix, tol=DEFAULT_TOL):
        return remix_degenerate_blocks(derive(matrix, tol), rng, tol)

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
    kernel = np.eye(4).reshape(4, 1, 4, 1)          # adiabatic: each level follows itself
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
                                    forward[at] = (spectra.kernel[m, r, mf, rf]
                                                   * spectra.initial.p_m[m] * spectra.p_r[r]
                                                   * spectra.initial.cond[m, a, b]
                                                   * spectra.final.cond[mf, af, bf])
                                    reverse[at] = (spectra.reverse_kernel[m, r, mf, rf]
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
    arrays broadcastable against the eight-index tables."""

    delta_s_a: np.ndarray
    delta_s_b: np.ndarray
    delta_i: np.ndarray
    beta_q: np.ndarray
    delta_j: np.ndarray

    def ft_exponent(self):
        """-ds_A - ds_B + dI + beta Q, the detailed-relation exponent."""
        return -self.delta_s_a - self.delta_s_b + self.delta_i + self.beta_q

    def local_exponent(self):
        """-ds_A - ds_B + beta Q (no information content)."""
        return -self.delta_s_a - self.delta_s_b + self.beta_q

    def classical_exponent(self):
        """-ds_A - ds_B + dJ + beta Q (classical info content)."""
        return -self.delta_s_a - self.delta_s_b + self.delta_j + self.beta_q

def _initial_support(spectra, tol=DEFAULT_TOL) -> np.ndarray:
    """The (m, r) forward-support mask broadcast over the eight axes."""
    return factored_joint(spectra, tol).forward_support[:, None, None, None, None, None, :, None]


def dense_view(joint, table) -> np.ndarray:
    """The dense oracle of a factored table: the eight-index table of the
    global ``table`` of ``joint``, with both conditional weights attached,

        p[m,a,b,m',a',b',r,r'] = table[m,m',r,r'] |<m|a,b>|^2 |<m'|a',b'>|^2.
    """
    return (table[:, None, None, :, None, None, :, :]
            * joint.initial.cond[:, :, :, None, None, None, None, None]
            * joint.final.cond[None, None, None, :, :, :, None, None])


def dense_tables(spectra, reverse_global=None):
    """(forward, reverse) eight-index distributions; ``reverse_global``
    replaces the reverse two-point table (e.g. a corrupted one)."""
    joint = factored_joint(spectra)
    reverse = joint.reverse if reverse_global is None else reverse_global
    return dense_view(joint, joint.forward), dense_view(joint, reverse)


def log_or_zero(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """ln p with ln 0 := 0; anything at or below the support cutoff
    (relative to the largest entry of ``p``) counts as zero."""
    return np.log(_or_one(p, tol))


def dense_content_table(p, l_pa, l_pb, tol=DEFAULT_TOL) -> np.ndarray:
    """ln p - ln p_a - ln p_b over (a, b), 0 where ``p`` is at or below
    its cutoff; ``p`` is p_{a,b} (classical) or p_m[:, None, None] (info)."""
    cut = tol.support * max(float(np.max(p)), 0.0)
    return np.where(p > cut, log_or_zero(p, tol=tol) - l_pa[:, None] - l_pb[None, :], 0.0)


def dense_tuple_functionals(spectra, tol=DEFAULT_TOL) -> TrajectoryFunctional:
    """Every functional on the whole tuple space, as eight-axis
    broadcastable arrays over (m, a, b, m', a', b', r, r')."""
    d_m, d_a, d_b, d_r = spectra_dims(spectra)
    ini, fin = spectra.initial, spectra.final
    l_pa = log_or_zero(ini.p_a, tol=tol)
    l_pb = log_or_zero(ini.p_b, tol=tol)
    l_paf = log_or_zero(fin.p_a, tol=tol)
    l_pbf = log_or_zero(fin.p_b, tol=tol)
    ds_a = (l_pa[:, None] - l_paf[None, :]).reshape(1, d_a, 1, 1, d_a, 1, 1, 1)
    ds_b = (l_pb[:, None] - l_pbf[None, :]).reshape(1, 1, d_b, 1, 1, d_b, 1, 1)
    info_i = dense_content_table(ini.p_m[:, None, None], l_pa, l_pb, tol)
    info_f = dense_content_table(fin.p_m[:, None, None], l_paf, l_pbf, tol)
    d_i = (info_f[None, None, None, :, :, :]
           - info_i[:, :, :, None, None, None]).reshape(d_m, d_a, d_b, d_m, d_a, d_b, 1, 1)
    j_i = dense_content_table(ini.classical_joint(), l_pa, l_pb, tol)
    j_f = dense_content_table(fin.classical_joint(), l_paf, l_pbf, tol)
    d_j = (j_f[None, None, :, :] - j_i[:, :, None, None]).reshape(1, d_a, d_b, 1, d_a, d_b, 1, 1)
    b_q = np.asarray(spectra.beta_q, dtype=float).reshape(1, 1, 1, 1, 1, 1, d_r, d_r)
    return TrajectoryFunctional(delta_s_a=ds_a, delta_s_b=ds_b,
                                delta_i=d_i, beta_q=b_q, delta_j=d_j)


def dense_average(dist, values) -> float:
    """Distribution average sum p f with zero-weight trajectories skipped."""
    f = np.broadcast_to(np.asarray(values, dtype=float), dist.shape)
    return float(np.sum(np.where(dist > 0.0, dist * f, 0.0)))


def dense_restricted_average(spectra, dist, exponent, tol=DEFAULT_TOL) -> float:
    """Average of exp(``exponent``) restricted to trajectories whose
    initial (m, r) lies in the forward support; over the reverse table of
    ``exponent`` = 0, the absolute-irreversibility factor gamma.  Only the
    supported exponents are exponentiated: outside the support beta Q can
    reach the float limit and the exponential overflow."""
    mask = _initial_support(spectra, tol)
    f = np.exp(np.where(mask, exponent, 0.0))
    return float(np.sum(np.where((dist > 0.0) & mask, dist * f, 0.0)))


def dense_support(forward, tol=DEFAULT_TOL) -> np.ndarray:
    """Entries above the cutoff relative to the largest entry."""
    return forward > tol.support * float(forward.max())


def dense_detailed_ft_check(forward, reverse, traj, tol=DEFAULT_TOL):
    """Max over the forward support of |p_rev/p_fwd - exp(exponent)| and
    the first trajectory attaining it."""
    mask = dense_support(forward, tol)
    if not mask.any():
        return 0.0, None
    expo = np.exp(np.where(mask, traj.ft_exponent(), 0.0))
    ratio = np.where(mask, reverse / np.where(mask, forward, 1.0), 0.0)
    resid = np.abs(np.where(mask, ratio - expo, 0.0))
    flat = int(np.argmax(resid))
    worst = OutcomeTuple(*(int(i) for i in np.unravel_index(flat, forward.shape)))
    return float(resid.flat[flat]), worst


def dense_integral_ft(spectra, forward, traj, tol=DEFAULT_TOL) -> float:
    return dense_restricted_average(spectra, forward, traj.ft_exponent(), tol)


def dense_reverse_averaged_ft(spectra, forward, reverse, traj, tol=DEFAULT_TOL):
    lhs = dense_restricted_average(spectra, forward, traj.local_exponent(), tol)
    rhs = dense_restricted_average(spectra, reverse, -traj.delta_i, tol)
    return lhs, rhs


def dense_classical_reduction_check(spectra, tol=DEFAULT_TOL):
    """(|classical integral relation - gamma|, max |dI - dJ| over the
    support) when both global eigenbases are product bases, else None.
    With product bases the protocol is two local two-point measurements
    and the info content reduces to its classical counterpart."""
    if not product_bases(spectra, tol):
        return None
    forward, reverse = dense_tables(spectra)
    traj = dense_tuple_functionals(spectra, tol)
    lhs = dense_restricted_average(spectra, forward, traj.classical_exponent(), tol)
    residual = abs(lhs - dense_restricted_average(spectra, reverse, 0.0, tol))
    gap = np.abs(np.broadcast_to(traj.delta_i - traj.delta_j, forward.shape))
    max_gap = float(np.max(np.where(dense_support(forward, tol), gap, 0.0)))
    return residual, max_gap


def dense_evaluate(spectra, work_inputs=None, tol=DEFAULT_TOL,
                   reverse_global=None) -> FTReport:
    """``theorems.evaluate``'s report, summed over the dense tables."""
    forward, reverse = dense_tables(spectra, reverse_global)
    traj = dense_tuple_functionals(spectra, tol)
    gamma = dense_restricted_average(spectra, reverse, 0.0, tol)
    rev_lhs, rev_rhs = dense_reverse_averaged_ft(spectra, forward, reverse, traj, tol)
    resid, worst = dense_detailed_ft_check(forward, reverse, traj, tol)
    averages = Averages(*(dense_average(forward, x) for x in (
        traj.delta_s_a, traj.delta_s_b, traj.delta_i, traj.delta_j, traj.beta_q)))
    classical_lhs = None
    if product_bases(spectra, tol):
        classical_lhs = dense_restricted_average(spectra, forward,
                                                traj.classical_exponent(), tol)
    ln_gamma = math.log(gamma) if gamma > 0.0 else NEG_INF
    ln_rev = math.log(rev_rhs) if rev_rhs > 0.0 else NEG_INF
    return FTReport(
        integral_ft_lhs=dense_integral_ft(spectra, forward, traj, tol),
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


def dense_invariant_values(spectra, forward, reverse, tol=DEFAULT_TOL) -> dict:
    """The values of ``cli.invariant_checks``, on the dense tables."""
    s, ini = spectra, spectra.initial
    g = forward.sum(axis=(1, 2, 4, 5))                # local labels summed out
    info_i = dense_content_table(ini.p_m[:, None, None], log_or_zero(ini.p_a, tol=tol),
                                 log_or_zero(ini.p_b, tol=tol), tol)
    want = ini.cond[:, :, :, None] * ini.p_m[:, None, None, None] * s.p_r[None, None, None, :]
    return {
        "forward_normalization": abs(float(forward.sum()) - 1.0),
        "reverse_normalization": abs(float(reverse.sum()) - 1.0),
        "forward_factorization": float(np.max(np.abs(
            g - (s.kernel.transpose(0, 2, 1, 3) * ini.p_m[:, None, None, None]
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
