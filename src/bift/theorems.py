"""Fluctuation-theorem equalities and thermodynamic inequalities.

Given a system's record (``tables.SystemSpectra``) and the per-trajectory
functionals, this module checks, trajectory by trajectory and on
average:

* the detailed relation  p_rev / p_fwd = exp(-ds_A - ds_B + dI + beta Q)
  on the support;
* the integral relation  <exp(-ds_A - ds_B + dI + beta Q)> = gamma,
  where gamma is the support-restricted reverse mass (absolute
  irreversibility factor);
* the reverse-averaged relation
  <exp(-ds_A - ds_B + beta Q)> = <exp(-dI)>_rev;
* the heat bounds they imply, plus the classical reduction of the
  integral relation, the memory-erasure specializations, and the
  extracted-work bounds when free-energy inputs are available.

The integral, reverse-averaged and classical relations average over the
support, as gamma does: the blocks [m, m', r, r'] whose p_m, p'_m' and p_r
are positive (``SystemSpectra.support``).

Every average is one u B v of the block sums B of a kernel
(``SystemSpectra.block_sums``) with the per-endpoint functionals
(``functionals.EndpointFunctionals``); neither G, G_rev nor an
eight-index table is built.

The detailed relation p_rev/p_fwd = e^{beta Q} E_i[m,a,b] E_f[m',a',b'] is
checked as the quotient of its sides on the trajectories of the support
with a positive kernel entry and positive weights |<m|a,b>|^2, |<m'|a',b'>|^2:
with kernels K, K_rev the residual is |(K_rev/K) (p_r' / (p_r e^{beta Q}))
x_i y_f - 1|, x_i = 1/(p_m E_i) and y_f = p'_m'/E_f.  On the propagator
route each factor is 1 up to rounding, and none is read off the subnormal
G_rev of a steep reservoir.  Within one block the residual is
|c x_i y_f - 1| with c >= 0 and positive x_i, y_f, so the block's largest
residual sits at the largest or the smallest product x_i y_f.  The
reported worst trajectory is the first
supported tuple in C order of (m, a, b, m', a', b', r, r') attaining the
maximum.  One search finds it: the smallest m with an attaining block
fixes the first axis; by the same monotony, a supported (a, b) of one of
its attaining blocks holds an attaining tuple exactly when its residual
at the largest or the smallest y_f does, and the first such (a, b) fixes
the next two; at that (a, b) the residual is evaluated over every
(a', b') of the blocks that hold one, and the hits are sorted by
(m', a', b', r, r').  Residuals near 1e-16 tie often, so the search never
evaluates every (a, b, a', b') of every attaining block.

Bound records carry a relation only: lhs, rhs and whether it applies
here.  Inapplicable bounds are reported as such, never silently dropped.
``Check.bound`` alone gives a record's verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functionals import EndpointFunctionals, endpoint_functionals, or_one
from .linalg import DEFAULT_TOL, Tolerances
from .tables import OutcomeTuple, SystemSpectra

NEG_INF = float("-inf")


def ln_or_neg_inf(x: float) -> float:
    """ln x, with the -inf sentinel when x is not positive."""
    return math.log(x) if x > 0.0 else NEG_INF


@dataclass(frozen=True)
class WorkInputs:
    """Extracted work and subsystem free-energy changes (energy units)
    for the work bounds; supplied by scenarios that define them."""

    work_a: float
    work_b: float
    delta_f_a: float
    delta_f_b: float
    beta: float


@dataclass(frozen=True)
class BoundRecord:
    """One relation, "upper" (lhs <= rhs) or "equality" (lhs = rhs);
    ``applicable`` is False when its precondition does not hold here
    (see ``note``).  ``Check.bound`` judges it."""

    name: str
    kind: str
    lhs: float
    rhs: float
    applicable: bool
    note: str = ""

    @property
    def slack(self) -> float:
        """rhs - lhs (upper), -|lhs - rhs| (equality); NaN when not applicable."""
        if not self.applicable:
            return math.nan
        return self.rhs - self.lhs if self.kind == "upper" else -abs(self.lhs - self.rhs)


@dataclass
class Check:
    """One verdict of the front-end: an equality's residual or a bound's slack."""

    name: str
    value: float      # residual (equality) or slack (bound)
    passed: bool
    detail: str = ""

    @classmethod
    def close(cls, name: str, got, want, limit: float, detail: str = "") -> Check:
        """An equality check of ``got`` against ``want`` (numbers, or arrays
        that broadcast): its value is their largest absolute deviation,
        and it passes when that is at most ``limit``, the limit included."""
        value = float(np.max(np.abs(np.subtract(got, want))))
        return cls(name, value, value <= limit, detail)

    @classmethod
    def bound(cls, rec: BoundRecord, tol: Tolerances) -> Check:
        """A bound record's verdict ``bound:<name>``, valued by its slack: an
        upper bound passes when that is at least -``tol.bound``, an equality as
        ``close`` judges it at ``tol.equality``, an inapplicable one always."""
        name = f"bound:{rec.name}"
        if not rec.applicable:
            return cls(name, math.nan, True, f"not applicable: {rec.note}")
        passed = (cls.close(name, rec.lhs, rec.rhs, tol.equality).passed
                  if rec.kind == "equality" else bool(rec.slack >= -tol.bound))
        return cls(name, rec.slack, passed, f"kind={rec.kind}")


@dataclass(frozen=True)
class Averages:
    delta_s_a: float
    delta_s_b: float
    delta_i: float
    delta_j: float
    beta_q: float


@dataclass(frozen=True)
class FTReport:
    """Everything the verification front-end needs, in one record."""

    integral_ft_lhs: float
    gamma_restricted: float
    ln_gamma: float                      # -inf sentinel when gamma == 0
    reverse_ft_lhs: float                # <exp(-ds_A - ds_B + beta Q)>
    reverse_avg_exp_di: float            # <exp(-dI)>_rev, support-restricted
    reverse_avg_exp_di_full: float       # full-space diagnostic, not used in bounds
    detailed_max_residual: float
    detailed_worst: OutcomeTuple | None
    bound_gap: float                     # -ln <exp(-dI)>_rev - <dI>
    averages: Averages
    bounds: tuple[BoundRecord, ...]

    def bound(self, name: str) -> BoundRecord:
        for rec in self.bounds:
            if rec.name == name:
                return rec
        raise KeyError(name)


@dataclass(frozen=True)
class Analysis:
    """A system run end to end: its record, the per-endpoint functionals
    and the assembled report.  Nothing here holds G, G_rev or an
    eight-index table; ``SystemSpectra.two_point`` forms the two-point
    tables for the callers that read them."""

    spectra: SystemSpectra
    functionals: EndpointFunctionals
    report: FTReport


def _extremes(values: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per-row largest and smallest of an (M, A, B) table over ``support``,
    stacked as (2, M)."""
    return np.stack([np.where(support, values, -np.inf).max(axis=(1, 2)),
                     np.where(support, values, np.inf).min(axis=(1, 2))])


def _residual(ratio, x_i, y_f):
    """|ratio x_i y_f - 1|; both callers evaluate it with this one
    expression, so a block maximum equals a tuple's residual bit for bit."""
    return np.abs(ratio * (x_i * y_f) - 1.0)


def detailed_ft_check(spectra: SystemSpectra, funcs: EndpointFunctionals):
    """Max over the supported trajectories of
    | (p_rev/p_fwd) / exp(-ds_A - ds_B + dI + beta Q) - 1 |
    in the factored form of the module docstring, together with the
    trajectory attaining it.  Costs O(M^2 R^2 + M A B)."""
    sup_i, sup_f = spectra.initial.cond > 0.0, spectra.final.cond > 0.0   # no row is empty
    block = spectra.support & (spectra.kernel > 0.0)
    if not block.any():
        return 0.0, None
    (e_i, e_f), pair = funcs.ft_factors(), funcs.exp_beta_q     # (M, A, B) twice, (R, R)
    ratio = (np.where(block, spectra.reverse_kernel / np.where(block, spectra.kernel, 1.0), 0.0)
             * (spectra.p_r[None, :] / (or_one(spectra.p_r)[:, None] * pair)))
    x_i = 1.0 / (or_one(spectra.initial.p_m)[:, None, None] * e_i)
    y_f = or_one(spectra.final.p_m)[:, None, None] / e_f
    per_block = _residual(ratio, _extremes(x_i, sup_i)[:, :, None, None, None],
                          _extremes(y_f, sup_f)[:, None, :, None, None]).max(axis=0)
    per_block = np.where(block, per_block, -1.0)
    worst = float(per_block.max())

    # the one search (module docstring), over attaining blocks k = (m', r, r')
    attain = per_block == worst
    m = int(np.argmax(attain.reshape(attain.shape[0], -1).any(axis=1)))
    n, r, s = np.nonzero(attain[m])
    ext_f = _extremes(y_f, sup_f)[:, n].T[:, None, None, :]             # (k, 1, 1, 2)
    hit = sup_i[m] & (_residual(ratio[m, n, r, s][:, None, None, None],
                                x_i[m][None, :, :, None], ext_f) == worst).any(axis=3)
    a, b = (int(i) for i in np.argwhere(hit.any(axis=0))[0])
    n, r, s = (x[hit[:, a, b]] for x in (n, r, s))
    full = _residual(ratio[m, n, r, s][:, None, None], x_i[m, a, b], y_f[n])
    k, af, bf = np.nonzero(sup_f[n] & (full == worst))
    order = (n[k], af, bf, r[k], s[k])      # the tuple's axes after (m, a, b)
    first = np.lexsort(order[::-1])[0]
    return worst, OutcomeTuple(m, a, b, *(int(x[first]) for x in order))


def forward_averages(spectra: SystemSpectra, funcs: EndpointFunctionals) -> Averages:
    """Forward averages of the five functionals, endpoint part by part."""
    forward = spectra.block_sums()

    def mean(**factor):
        return spectra.expectation(forward, **factor)

    i, f = funcs.initial, funcs.final
    return Averages(
        delta_s_a=mean(initial=i.l_pa[None, :, None]) - mean(final=f.l_pa[None, :, None]),
        delta_s_b=mean(initial=i.l_pb[None, None, :]) - mean(final=f.l_pb[None, None, :]),
        delta_i=mean(final=f.info) - mean(initial=i.info),
        delta_j=mean(final=f.classical[None]) - mean(initial=i.classical[None]),
        beta_q=spectra.expectation(spectra.block_sums(pair=funcs.beta_q)),
    )


def product_bases(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when, at both measurements, every global eigenvector is a
    product of local eigenvectors, i.e. each conditional row concentrates
    all weight on a single (a, b)."""
    return all(np.all(end.cond.reshape(len(end.cond), -1).max(axis=1) > 1.0 - tol.orthonormality)
               for end in (spectra.initial, spectra.final))


def inequality_suite(averages: Averages, gamma: float, ln_gamma: float, ln_rev: float,
                     classical_lhs: float | None = None, work: WorkInputs | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[BoundRecord, ...]:
    """Assemble every bound record.

    ``ln_gamma`` and ``ln_rev`` are ``ln_or_neg_inf`` of gamma and of
    <exp(-dI)>_rev.  ``classical_lhs`` is the forward average of the
    classical-exponent exponential when both eigenbases are product
    bases, else None.  Bounds built on ln gamma are vacuous at gamma = 0.
    """
    ds_sum = averages.delta_s_a + averages.delta_s_b
    bq = averages.beta_q
    records = []

    def upper(name, lhs, rhs, applicable=True, note=""):
        if applicable and rhs == NEG_INF:
            applicable, note = False, "vacuous: empty forward-support overlap (gamma = 0)"
        records.append(BoundRecord(name, "upper", lhs, rhs, applicable, note))

    # Heat bounds from the two integral relations, and the gamma-free form.
    upper("heat_bound_info_gamma", bq, ds_sum - averages.delta_i + ln_gamma)
    upper("heat_bound_reverse_info", bq, ds_sum + ln_rev)
    upper("heat_bound_info_plain", bq, ds_sum - averages.delta_i,
          note="gamma-free form; implied by heat_bound_info_gamma since ln gamma <= 0")

    # Classical reduction of the integral relation (product eigenbases only).
    classical = ((math.nan, math.nan, False, "global eigenbases are not product bases")
                 if classical_lhs is None else (classical_lhs, gamma, True))
    records.append(BoundRecord("classical_ft", "equality", *classical))

    # Memory-erasure forms: observer subsystem B unchanged.
    b_static = abs(averages.delta_s_b) <= tol.bound
    note_b = "" if b_static else "requires <ds_B> = 0; here it is nonzero"
    upper("erasure_bound_classical", bq, averages.delta_s_a - averages.delta_j,
          applicable=b_static and classical_lhs is not None and abs(gamma - 1.0) <= tol.bound,
          note=note_b or "requires the classical reduction and gamma = 1")
    upper("erasure_bound_info_gamma", bq, averages.delta_s_a - averages.delta_i + ln_gamma,
          applicable=b_static, note=note_b)
    upper("erasure_bound_reverse_info", bq, averages.delta_s_a + ln_rev,
          applicable=b_static, note=note_b)

    # Extracted-work bounds (need scenario-level work/free-energy inputs).
    if work is None:
        for name in ("work_bound_info_gamma", "work_bound_reverse_info"):
            upper(name, math.nan, math.nan, applicable=False,
                  note="no work/free-energy inputs supplied")
    else:
        w_sum = work.work_a + work.work_b
        f_sum = -(work.delta_f_a + work.delta_f_b)
        upper("work_bound_info_gamma", w_sum, f_sum + (-averages.delta_i + ln_gamma) / work.beta)
        upper("work_bound_reverse_info", w_sum, f_sum + ln_rev / work.beta)

    return tuple(records)


def corrupt_reverse(spectra: SystemSpectra) -> SystemSpectra:
    """The negative control of ``verify --corrupt-reverse``: ``spectra``
    with one reverse-kernel entry scaled by 1.5, the one under the largest
    entry of G_rev (the first in C order), so the detailed relation must
    fail there."""
    reverse = spectra.two_point(reverse=True)
    m, n, r, s = np.unravel_index(int(np.argmax(reverse)), reverse.shape)
    kernel = spectra.reverse_kernel.copy()
    kernel[m, n, r, s] *= 1.5
    return replace(spectra, reverse_kernel=kernel)


def evaluate(spectra: SystemSpectra,
             work_inputs: WorkInputs | None = None,
             tol: Tolerances = DEFAULT_TOL) -> Analysis:
    """Run a system through its block sums, the functionals and every
    check."""
    funcs = endpoint_functionals(spectra)

    # the relations average over the support; the forward ones carry e^{beta Q}
    forward = spectra.block_sums(pair=funcs.exp_beta_q, restricted=True)
    reverse = spectra.block_sums(reverse=True, restricted=True)
    info = funcs.info_factors()

    gamma = spectra.expectation(reverse)
    int_lhs = spectra.expectation(forward, *funcs.ft_factors())
    rev_lhs = spectra.expectation(forward, *funcs.local_factors())
    rev_rhs = spectra.expectation(reverse, *info)
    rev_full = spectra.expectation(spectra.block_sums(reverse=True), *info)
    detail_resid, detail_worst = detailed_ft_check(spectra, funcs)
    averages = forward_averages(spectra, funcs)

    classical_lhs = None
    if product_bases(spectra, tol):
        classical_lhs = spectra.expectation(forward, *funcs.classical_factors())

    ln_gamma, ln_rev = ln_or_neg_inf(gamma), ln_or_neg_inf(rev_rhs)
    bounds = inequality_suite(averages, gamma, ln_gamma, ln_rev, classical_lhs, work_inputs, tol)

    report = FTReport(
        integral_ft_lhs=int_lhs,
        gamma_restricted=gamma,
        ln_gamma=ln_gamma,
        reverse_ft_lhs=rev_lhs,
        reverse_avg_exp_di=rev_rhs,
        reverse_avg_exp_di_full=rev_full,
        detailed_max_residual=detail_resid,
        detailed_worst=detail_worst,
        bound_gap=-ln_rev - averages.delta_i,
        averages=averages,
        bounds=bounds,
    )
    return Analysis(spectra, funcs, report)
