"""Per-trajectory informational and thermodynamic functionals.

All logarithms are natural (values in nats).  Zero-probability
convention: the log of a zero weight is set to 0, and the info content of
a trajectory whose global weight is zero is set to 0 outright.  A weight
is zero when it is 0.0: ``tables`` zeroes the rounding noise of every
decomposition where it is made, and injected spectra are exact.  Every
functional is finite, so a zero-weight trajectory adds exactly 0 to any
sum over the tuple space and the convention can never leak into a result.

Each functional splits by endpoint.  With i = ``spectra.initial`` and
f = ``spectra.final``, ``tables.Endpoint``s that build their tables on
first read from :func:`or_one` and :func:`content`, on the tuple
(m, a, b, m', a', b', r, r'):

    ds_A   = i.l_pa[a] - f.l_pa[a']          (ds_B likewise)
    dI     = f.info[m', a', b'] - i.info[m, a, b]
    dJ     = f.classical[a', b'] - i.classical[a, b]
    beta Q = spectra.beta_q[r, r']

so each exponential entering the relations is a product of an initial,
a final and a reservoir-pair factor.  The ``*_factors`` functions return
the first two, for ``SystemSpectra.expectation``; the pair factor
(``SystemSpectra.exp_beta_q``, 1 for :func:`info_factors`) enters the
block sums.  The factors are formed from the probabilities themselves
-- ``local`` is p_a p_b and ``*_ratio`` the ratio whose log is the
content, each under the zero conventions -- not as exponentials of the
logs, so a relation that holds exactly in the probabilities is not lost
to a log/exp round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tables import SystemSpectra


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


def content(p: np.ndarray, l_pa: np.ndarray, l_pb: np.ndarray,
            local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The content table ln p - ln p_a - ln p_b over the local labels
    (a, b) and its exponential p / (p_a p_b), 0 and 1 outright where ``p``
    is zero: the classical content J[a, b] for p = p_{a,b}, the info
    content I[m, a, b] for p = p_m[:, None, None]."""
    keep = p > 0.0
    table = np.where(keep, np.log(np.where(keep, p, 1.0)) - l_pa[:, None] - l_pb[None, :], 0.0)
    return table, np.where(keep, p / local, 1.0)


def ft_factors(spectra: SystemSpectra):
    """exp(-ds_A - ds_B + dI + beta Q), the detailed-relation exponential."""
    i, f = spectra.initial, spectra.final
    return 1.0 / (i.local[None] * i.info_ratio), f.local[None] * f.info_ratio


def local_factors(spectra: SystemSpectra):
    """exp(-ds_A - ds_B + beta Q)."""
    return 1.0 / spectra.initial.local[None], spectra.final.local[None]


def classical_factors(spectra: SystemSpectra):
    """exp(-ds_A - ds_B + dJ + beta Q)."""
    i, f = spectra.initial, spectra.final
    return 1.0 / (i.local * i.classical_ratio)[None], (f.local * f.classical_ratio)[None]


def info_factors(spectra: SystemSpectra):
    """exp(-dI)."""
    return spectra.initial.info_ratio, 1.0 / spectra.final.info_ratio
