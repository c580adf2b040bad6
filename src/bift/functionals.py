"""Per-trajectory informational and thermodynamic functionals.

All logarithms are natural (values in nats).  Zero-probability
convention: the log of a zero weight is set to 0, and the info content of
a trajectory whose global weight is zero is set to 0 outright.  A weight
is zero when it is 0.0: ``tables`` zeroes the rounding noise of every
decomposition where it is made, and injected spectra are exact.  Every
functional is finite, so a zero-weight trajectory adds exactly 0 to any
sum over the tuple space and the convention can never leak into a result.

Each functional splits by endpoint (:class:`EndpointFunctionals`), which
is what lets the theorems contract them against the kernels' block sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tables import Endpoint, SystemSpectra


def or_one(p) -> np.ndarray:
    """p with every zero entry set to 1: the multiplicative form of
    ln 0 := 0."""
    arr = np.asarray(p, dtype=float)
    return np.where(arr > 0.0, arr, 1.0)


def shannon_entropy(probabilities) -> float:
    """-sum p ln p over the support."""
    p = np.asarray(probabilities, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


@dataclass(frozen=True)
class EndpointTables:
    """The functional tables of one endpoint (see
    :class:`EndpointFunctionals`)."""

    l_pa: np.ndarray                  # [a] = ln p_a
    l_pb: np.ndarray                  # [b]
    info: np.ndarray                  # [m, a, b]
    classical: np.ndarray             # [a, b]
    local: np.ndarray                 # [a, b] = p_a p_b
    info_ratio: np.ndarray            # [m, a, b] = p_m / (p_a p_b)
    classical_ratio: np.ndarray       # [a, b] = p_ab / (p_a p_b)


@dataclass(frozen=True)
class EndpointFunctionals:
    """Every per-trajectory functional, split by endpoint.  With
    i = ``initial`` and f = ``final``, on the tuple
    (m, a, b, m', a', b', r, r'):

        ds_A   = i.l_pa[a] - f.l_pa[a']          (ds_B likewise)
        dI     = f.info[m', a', b'] - i.info[m, a, b]
        dJ     = f.classical[a', b'] - i.classical[a, b]
        beta Q = beta_q[r, r']

    so each exponential entering the relations is a product of an
    initial, a final and a reservoir-pair factor.  The ``*_factors``
    methods return the first two, for ``SystemSpectra.expectation``; the
    pair factor (``exp_beta_q``, 1 for ``info_factors``) enters the block sums.
    The factors are formed from the probabilities themselves -- ``local``
    is p_a p_b and ``*_ratio`` the ratio whose log is the content, each
    under the zero conventions -- not as exponentials of the logs, so a
    relation that holds exactly in the probabilities is not lost to a
    log/exp round trip.
    """

    initial: EndpointTables
    final: EndpointTables
    beta_q: np.ndarray                # [r, r']

    @cached_property
    def exp_beta_q(self) -> np.ndarray:      # [r, r']
        return np.exp(self.beta_q)

    def ft_factors(self):
        """exp(-ds_A - ds_B + dI + beta Q), the detailed-relation exponential."""
        i, f = self.initial, self.final
        return 1.0 / (i.local[None] * i.info_ratio), f.local[None] * f.info_ratio

    def local_factors(self):
        """exp(-ds_A - ds_B + beta Q)."""
        return 1.0 / self.initial.local[None], self.final.local[None]

    def classical_factors(self):
        """exp(-ds_A - ds_B + dJ + beta Q)."""
        i, f = self.initial, self.final
        return 1.0 / (i.local * i.classical_ratio)[None], (f.local * f.classical_ratio)[None]

    def info_factors(self):
        """exp(-dI)."""
        return self.initial.info_ratio, 1.0 / self.final.info_ratio


def endpoint_functionals(spectra: SystemSpectra) -> EndpointFunctionals:
    """The per-endpoint tables of every functional of ``spectra``."""
    return EndpointFunctionals(initial=_endpoint_tables(spectra.initial),
                               final=_endpoint_tables(spectra.final),
                               beta_q=np.asarray(spectra.beta_q, dtype=float))


def _endpoint_tables(end: Endpoint) -> EndpointTables:
    w_a, w_b = or_one(end.p_a), or_one(end.p_b)
    l_pa, l_pb = np.log(w_a), np.log(w_b)
    local = w_a[:, None] * w_b[None, :]
    info, info_ratio = _content(end.p_m[:, None, None], l_pa, l_pb, local)
    classical, classical_ratio = _content(end.classical_joint(), l_pa, l_pb, local)
    return EndpointTables(l_pa=l_pa, l_pb=l_pb, info=info, classical=classical,
                          local=local, info_ratio=info_ratio,
                          classical_ratio=classical_ratio)


def _content(p: np.ndarray, l_pa: np.ndarray, l_pb: np.ndarray,
             local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The content table ln p - ln p_a - ln p_b over the local labels
    (a, b) and its exponential p / (p_a p_b), 0 and 1 outright where ``p``
    is zero: the classical content J[a, b] for p = p_{a,b}, the info
    content I[m, a, b] for p = p_m[:, None, None]."""
    keep = p > 0.0
    content = np.where(keep, np.log(np.where(keep, p, 1.0)) - l_pa[:, None] - l_pb[None, :], 0.0)
    return content, np.where(keep, p / local, 1.0)
