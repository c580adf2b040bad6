"""Per-trajectory informational and thermodynamic functionals.

All logarithms are natural (values in nats).  Zero-probability
convention: the log of a weight at or below the support cutoff (relative
to the largest weight of its distribution) is set to 0, and the info
content of a trajectory whose global weight is zero is set to 0
outright.  Distribution averages additionally skip zero-weight
trajectories, so the convention can never leak into a result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotApplicable, PartitionUnavailable
from .linalg import DEFAULT_TOL, Tolerances
from .tables import ReverseJointDistribution, SystemSpectra, _initial_support


def log_or_zero(p, reference: float | None = None, tol: Tolerances = DEFAULT_TOL):
    """ln p with ln 0 := 0.

    ``reference`` sets the scale of the support cutoff (defaults to the
    largest entry of ``p``); anything at or below cutoff counts as zero.
    """
    arr = np.asarray(p, dtype=float)
    ref = float(np.max(arr)) if reference is None else float(reference)
    cut = tol.support * max(ref, 0.0)
    safe = np.where(arr > cut, arr, 1.0)
    out = np.where(arr > cut, np.log(safe), 0.0)
    return float(out) if np.isscalar(p) else out


def shannon_entropy(probabilities) -> float:
    """-sum p ln p over the support."""
    p = np.asarray(probabilities, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


@dataclass(frozen=True)
class TrajectoryFunctional:
    """Per-trajectory quantities entering the fluctuation relations.

    Fields hold scalars or arrays broadcastable against a joint table
    (the bundle built by :func:`tuple_functionals` uses full eight-axis
    broadcast shapes).  ``sigma_a``/``sigma_b``/``delta_gamma`` stay None
    until a heat partition is applied.
    """

    delta_s_a: np.ndarray | float
    delta_s_b: np.ndarray | float
    delta_i: np.ndarray | float
    beta_q: np.ndarray | float
    delta_j: np.ndarray | float | None = None
    sigma_a: np.ndarray | float | None = None
    sigma_b: np.ndarray | float | None = None
    delta_gamma: np.ndarray | float | None = None

    def ft_exponent(self):
        """-ds_A - ds_B + dI + beta Q, the detailed-relation exponent."""
        return -self.delta_s_a - self.delta_s_b + self.delta_i + self.beta_q

    def local_exponent(self):
        """-ds_A - ds_B + beta Q (no information content)."""
        return -self.delta_s_a - self.delta_s_b + self.beta_q

    def classical_exponent(self):
        """-ds_A - ds_B + dJ + beta Q (classical info content)."""
        if self.delta_j is None:
            raise NotApplicable("delta_j was not computed for this trajectory")
        return -self.delta_s_a - self.delta_s_b + self.delta_j + self.beta_q


@dataclass(frozen=True)
class HeatPartition:
    """Caller-supplied split of the absorbed heat into per-subsystem
    shares Q_A and Q_B (energy units, scalars or per-trajectory arrays);
    the remainder Q' = Q - (Q_A + Q_B) is attributed to the interaction."""

    q_a: np.ndarray | float
    q_b: np.ndarray | float
    beta: float


def entropy_production(traj: TrajectoryFunctional, partition: HeatPartition):
    """Local entropy productions and the correlation term:

        sigma_X = ds_X - beta Q_X,      X in {A, B}
        dGamma  = dI + beta Q'          with Q' = Q - (Q_A + Q_B),

    chosen so that -sigma_A - sigma_B + dGamma recombines exactly to the
    detailed-relation exponent -ds_A - ds_B + dI + beta Q for *any*
    partition.  Raises PartitionUnavailable without a partition.
    """
    if partition is None:
        raise PartitionUnavailable("entropy production needs a heat partition")
    bq_a = partition.beta * np.asarray(partition.q_a, dtype=float)
    bq_b = partition.beta * np.asarray(partition.q_b, dtype=float)
    sigma_a = traj.delta_s_a - bq_a
    sigma_b = traj.delta_s_b - bq_b
    delta_gamma = traj.delta_i + (traj.beta_q - bq_a - bq_b)
    return sigma_a, sigma_b, delta_gamma


def with_entropy_production(traj: TrajectoryFunctional,
                            partition: HeatPartition) -> TrajectoryFunctional:
    """Return a copy of ``traj`` with the partition-derived fields set."""
    sigma_a, sigma_b, delta_gamma = entropy_production(traj, partition)
    return replace(traj, sigma_a=sigma_a, sigma_b=sigma_b, delta_gamma=delta_gamma)


def tuple_functionals(spectra: SystemSpectra,
                      tol: Tolerances = DEFAULT_TOL) -> TrajectoryFunctional:
    """Evaluate every functional on the whole tuple space at once.

    Each field is an eight-axis broadcastable array over
    (m, a, b, m', a', b', r, r').
    """
    d_m, d_a, d_b, d_r = spectra.dim_m, spectra.dim_a, spectra.dim_b, spectra.dim_r

    l_pa = log_or_zero(spectra.p_a, tol=tol)
    l_pb = log_or_zero(spectra.p_b, tol=tol)
    l_paf = log_or_zero(spectra.p_a_final, tol=tol)
    l_pbf = log_or_zero(spectra.p_b_final, tol=tol)

    ds_a = (l_pa[:, None] - l_paf[None, :]).reshape(1, d_a, 1, 1, d_a, 1, 1, 1)
    ds_b = (l_pb[:, None] - l_pbf[None, :]).reshape(1, 1, d_b, 1, 1, d_b, 1, 1)

    info_i, info_f = info_content_tables(spectra, tol)
    d_i = (info_f[None, None, None, :, :, :]
           - info_i[:, :, :, None, None, None]).reshape(d_m, d_a, d_b, d_m, d_a, d_b, 1, 1)

    p_ab_i = spectra.classical_joint_initial()
    p_ab_f = spectra.classical_joint_final()
    j_i = _classical_content_table(p_ab_i, l_pa, l_pb, tol)
    j_f = _classical_content_table(p_ab_f, l_paf, l_pbf, tol)
    d_j = (j_f[None, None, :, :] - j_i[:, :, None, None]).reshape(1, d_a, d_b, 1, d_a, d_b, 1, 1)

    b_q = np.asarray(spectra.beta_q, dtype=float).reshape(1, 1, 1, 1, 1, 1, d_r, d_r)
    return TrajectoryFunctional(delta_s_a=ds_a, delta_s_b=ds_b,
                                delta_i=d_i, beta_q=b_q, delta_j=d_j)


def info_content_tables(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL):
    """(initial, final) per-outcome info-content tables, shapes (M, A, B);
    their forward averages are the quantum mutual informations of the
    endpoint states."""
    initial = _info_content_table(spectra.p_m,
                                  log_or_zero(spectra.p_a, tol=tol),
                                  log_or_zero(spectra.p_b, tol=tol), tol)
    final = _info_content_table(spectra.p_m_final,
                                log_or_zero(spectra.p_a_final, tol=tol),
                                log_or_zero(spectra.p_b_final, tol=tol), tol)
    return initial, final


def _info_content_table(p_m: np.ndarray, l_pa: np.ndarray, l_pb: np.ndarray,
                        tol: Tolerances) -> np.ndarray:
    """I[m, a, b] with the zero-outright convention on p_m."""
    l_pm = log_or_zero(p_m, tol=tol)
    cut = tol.support * max(float(np.max(p_m)), 0.0)
    val = l_pm[:, None, None] - l_pa[None, :, None] - l_pb[None, None, :]
    return np.where(p_m[:, None, None] > cut, val, 0.0)


def _classical_content_table(p_ab: np.ndarray, l_pa: np.ndarray, l_pb: np.ndarray,
                             tol: Tolerances) -> np.ndarray:
    """J[a, b] with the zero-outright convention on p_{a,b}."""
    l_pab = log_or_zero(p_ab, tol=tol)
    cut = tol.support * max(float(np.max(p_ab)), 0.0)
    val = l_pab - l_pa[:, None] - l_pb[None, :]
    return np.where(p_ab > cut, val, 0.0)


def average(dist, values) -> float:
    """Distribution average sum p f with zero-weight trajectories skipped
    and a fixed lexicographic reduction order."""
    table = dist.table if hasattr(dist, "table") else np.asarray(dist)
    f = np.broadcast_to(np.asarray(values, dtype=float), table.shape)
    return float(np.sum(np.where(table > 0.0, table * f, 0.0)))


def restricted_average(dist: ReverseJointDistribution, values) -> float:
    """Reverse-table average restricted to trajectories whose initial
    (m, r) lies in the forward support (the only region where the
    detailed relation links the two tables)."""
    mask = _initial_support(dist.forward_support)
    table = dist.table
    f = np.broadcast_to(np.asarray(values, dtype=float), table.shape)
    return float(np.sum(np.where((table > 0.0) & mask, table * f, 0.0)))
