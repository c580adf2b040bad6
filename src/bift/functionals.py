"""Per-trajectory informational and thermodynamic functionals.

All logarithms are natural (values in nats).  Zero-probability
convention: the log of a weight at or below the support cutoff (relative
to the largest weight of its distribution) is set to 0, and the info
content of a trajectory whose global weight is zero is set to 0
outright.  Every functional is finite, so a zero-weight trajectory adds
exactly 0 to any sum over the tuple space and the convention can never
leak into a result.

Each functional splits by endpoint (:class:`EndpointFunctionals`), which
is what lets the theorems contract them against the factored tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances
from .tables import SystemSpectra, _above_cutoff


def _or_one(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """p with every entry at or below the support cutoff (relative to the
    largest entry of ``p``) set to 1: the multiplicative form of
    ln 0 := 0 (``log_or_zero`` is its log)."""
    arr = np.asarray(p, dtype=float)
    return np.where(_above_cutoff(arr, tol), arr, 1.0)


def log_or_zero(p, tol: Tolerances = DEFAULT_TOL):
    """ln p with ln 0 := 0; anything at or below the support cutoff (see
    :func:`_or_one`) counts as zero."""
    out = np.log(_or_one(p, tol))
    return float(out) if np.isscalar(p) else out


def shannon_entropy(probabilities) -> float:
    """-sum p ln p over the support."""
    p = np.asarray(probabilities, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


@dataclass(frozen=True)
class EndpointFunctionals:
    """Every per-trajectory functional, split by endpoint.  On the tuple
    (m, a, b, m', a', b', r, r'):

        ds_A   = l_pa[a] - l_pa_final[a']          (ds_B likewise)
        dI     = info_final[m', a', b'] - info_initial[m, a, b]
        dJ     = classical_final[a', b'] - classical_initial[a, b]
        beta Q = beta_q[r, r']

    so each exponential entering the relations is a product of an
    initial, a final and a reservoir-pair factor; the ``*_factors``
    methods return that triple, ready for ``FactoredJoint.expectation``.
    The factors are formed from the probabilities themselves -- ``local_*``
    is p_a p_b and ``*_ratio_*`` the ratio whose log is the content, each
    under the zero conventions -- not as exponentials of the logs, so a
    relation that holds exactly in the probabilities is not lost to a
    log/exp round trip.
    """

    l_pa: np.ndarray
    l_pb: np.ndarray
    l_pa_final: np.ndarray
    l_pb_final: np.ndarray
    info_initial: np.ndarray              # [m, a, b]
    info_final: np.ndarray                # [m', a', b']
    classical_initial: np.ndarray         # [a, b]
    classical_final: np.ndarray           # [a', b']
    beta_q: np.ndarray                    # [r, r']
    local_initial: np.ndarray             # [a, b] = p_a p_b
    local_final: np.ndarray               # [a', b']
    info_ratio_initial: np.ndarray        # [m, a, b] = p_m / (p_a p_b)
    info_ratio_final: np.ndarray
    classical_ratio_initial: np.ndarray   # [a, b] = p_ab / (p_a p_b)
    classical_ratio_final: np.ndarray

    def ft_factors(self):
        """exp(-ds_A - ds_B + dI + beta Q), the detailed-relation exponential."""
        return (1.0 / (self.local_initial[None] * self.info_ratio_initial),
                self.local_final[None] * self.info_ratio_final, np.exp(self.beta_q))

    def local_factors(self):
        """exp(-ds_A - ds_B + beta Q)."""
        return 1.0 / self.local_initial[None], self.local_final[None], np.exp(self.beta_q)

    def classical_factors(self):
        """exp(-ds_A - ds_B + dJ + beta Q)."""
        return (1.0 / (self.local_initial * self.classical_ratio_initial)[None],
                (self.local_final * self.classical_ratio_final)[None], np.exp(self.beta_q))

    def info_factors(self):
        """exp(-dI)."""
        return self.info_ratio_initial, 1.0 / self.info_ratio_final, 1.0


def endpoint_functionals(spectra: SystemSpectra,
                         tol: Tolerances = DEFAULT_TOL) -> EndpointFunctionals:
    """The per-endpoint tables of every functional of ``spectra``."""
    w_a, w_b, w_af, w_bf = (_or_one(p, tol) for p in (
        spectra.p_a, spectra.p_b, spectra.p_a_final, spectra.p_b_final))
    l_pa, l_pb, l_paf, l_pbf = (np.log(w) for w in (w_a, w_b, w_af, w_bf))
    local_i = w_a[:, None] * w_b[None, :]
    local_f = w_af[:, None] * w_bf[None, :]
    p_m_i = spectra.p_m[:, None, None]
    p_m_f = spectra.p_m_final[:, None, None]
    p_ab_i = spectra.classical_joint_initial()
    p_ab_f = spectra.classical_joint_final()
    return EndpointFunctionals(
        l_pa=l_pa, l_pb=l_pb, l_pa_final=l_paf, l_pb_final=l_pbf,
        info_initial=_content_table(p_m_i, l_pa, l_pb, tol),
        info_final=_content_table(p_m_f, l_paf, l_pbf, tol),
        classical_initial=_content_table(p_ab_i, l_pa, l_pb, tol),
        classical_final=_content_table(p_ab_f, l_paf, l_pbf, tol),
        beta_q=np.asarray(spectra.beta_q, dtype=float),
        local_initial=local_i, local_final=local_f,
        info_ratio_initial=_content_ratio(p_m_i, local_i, tol),
        info_ratio_final=_content_ratio(p_m_f, local_f, tol),
        classical_ratio_initial=_content_ratio(p_ab_i, local_i, tol),
        classical_ratio_final=_content_ratio(p_ab_f, local_f, tol))


def _content_ratio(p: np.ndarray, local: np.ndarray, tol: Tolerances) -> np.ndarray:
    """p / (p_a p_b), or 1 where ``p`` is at or below its cutoff (content
    0 outright); the exponential of an info or classical content table."""
    return np.where(_above_cutoff(p, tol), p / local, 1.0)


def _content_table(p: np.ndarray, l_pa: np.ndarray, l_pb: np.ndarray,
                   tol: Tolerances) -> np.ndarray:
    """ln p - ln p_a - ln p_b over the local labels (a, b), 0 outright
    where ``p`` is at or below its cutoff: the classical content J[a, b]
    for p = p_{a,b}, the info content I[m, a, b] for p = p_m[:, None, None]."""
    val = log_or_zero(p, tol) - l_pa[:, None] - l_pb[None, :]
    return np.where(_above_cutoff(p, tol), val, 0.0)
