"""Fluctuation-theorem equalities and thermodynamic inequalities.

Given the forward and time-reversed joint tables and the per-trajectory
functionals, this module checks, trajectory by trajectory and on
average:

* the detailed relation  p_rev / p_fwd = exp(-ds_A - ds_B + dI + beta Q)
  on the forward support;
* the integral relation  <exp(-ds_A - ds_B + dI + beta Q)> = gamma,
  where gamma is the support-restricted reverse mass (absolute
  irreversibility factor);
* the reverse-averaged relation
  <exp(-ds_A - ds_B + beta Q)> = <exp(-dI)>_rev;
* the heat bounds they imply, plus the classical reduction of the
  integral relation, the memory-erasure specializations, and the
  extracted-work bounds when free-energy inputs are available.

The integral, reverse-averaged and classical relations average over the
forward support, as gamma does: the initial (m, r) pairs whose
two-point weight is above the support cutoff.  ``evaluate`` alone
restricts the tables to it, forming each restricted table once.

Every number is a contraction of the factored tables
(``tables.FactoredJoint``) with the per-endpoint functionals
(``functionals.EndpointFunctionals``); no eight-index table is built.

Support rule of the per-trajectory check (the detailed relation): a
trajectory counts as supported when each of its three factors is above
the support cutoff relative to the largest entry of its own table --
the global block G[m,m',r,r'], the initial weight |<m|a,b>|^2 and the
final weight |<m'|a',b'>|^2.  (Dense tables would
instead cut their product relative to the largest product.  On the
random systems tested, the rules differed only on trajectories whose
factors clear their own cutoffs while the product falls below the
product cutoff, and the relation holds there too.)
Within one supported block the detailed ratio p_rev/p_fwd is the single
number G_rev/G and the exponential is e^{beta Q} E_i[m,a,b] E_f[m',a',b']
with positive E, so the block's largest residual sits at the largest or
the smallest product E_i E_f.  The reported worst trajectory is the first
supported tuple in C order of (m, a, b, m', a', b', r, r') attaining the
maximum.  One search finds it: the smallest m with an attaining block
fixes the first axis, the residual is evaluated once over every
(a, b, a', b') of that m's attaining blocks, and the supported hits are
sorted by (a, b, m', a', b', r, r').

Bound records carry lhs, rhs and slack = rhs - lhs (for equalities,
slack = -|lhs - rhs|), so "satisfied" always means slack >= -tolerance.
Inapplicable bounds are reported as such, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functionals import EndpointFunctionals, endpoint_functionals
from .linalg import DEFAULT_TOL, Tolerances
from .tables import FactoredJoint, OutcomeTuple, SystemSpectra, _above_cutoff, factored_joint

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
    """One checked relation.

    kind is "upper" (lhs <= rhs, slack = rhs - lhs, satisfied when
    slack >= -tol.bound) or "equality" (slack = -|lhs - rhs|, satisfied
    when slack >= -tol.equality).  ``satisfied`` is None when the
    relation's precondition does not hold here (see ``note``).
    """

    name: str
    kind: str
    lhs: float
    rhs: float
    slack: float
    applicable: bool
    satisfied: bool | None
    note: str = ""


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
    """A system run end to end: ingredient bundle, both joint tables in
    factored form, the per-endpoint functionals and the assembled report.
    Nothing here holds an eight-index table; only the report's
    ``--emit-tuples`` path forms them."""

    spectra: SystemSpectra
    joint: FactoredJoint
    functionals: EndpointFunctionals
    report: FTReport


def _supports(joint: FactoredJoint, tol: Tolerances):
    """Per-factor supports (see the module docstring): blocks [m,m',r,r'],
    initial [m,a,b] and final [m',a',b'] weights above cutoff."""
    return (_above_cutoff(joint.forward, tol), _above_cutoff(joint.initial.cond, tol),
            _above_cutoff(joint.final.cond, tol))


def _extremes(values: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per-row largest and smallest of an (M, A, B) table over ``support``,
    stacked as (2, M)."""
    return np.stack([np.where(support, values, -np.inf).max(axis=(1, 2)),
                     np.where(support, values, np.inf).min(axis=(1, 2))])


def _residual(ratio, pair, e_i, e_f):
    """|p_rev/p_fwd - e^{beta Q} E_i E_f|; both callers evaluate it with
    this one expression, so a block maximum equals a tuple's residual bit
    for bit."""
    return np.abs(ratio - pair * (e_i * e_f))


def detailed_ft_check(joint: FactoredJoint, ft: tuple[np.ndarray, np.ndarray, np.ndarray],
                      tol: Tolerances = DEFAULT_TOL):
    """Max over the forward support of
    | p_rev/p_fwd - exp(-ds_A - ds_B + dI + beta Q) |,
    together with the trajectory attaining it; ``ft`` is the exponential's
    factor triple, ``EndpointFunctionals.ft_factors()``.  Costs
    O(M^2 R^2 + M A B)."""
    block, sup_i, sup_f = _supports(joint, tol)
    # a block holds a supported tuple only if both endpoints have a supported (a, b)
    block &= (sup_i.any(axis=(1, 2))[:, None, None, None]
              & sup_f.any(axis=(1, 2))[None, :, None, None])
    if not block.any():
        return 0.0, None
    e_i, e_f, pair = ft                          # (M, A, B), (M, A, B), (R, R)
    ratio = np.where(block, joint.reverse / np.where(block, joint.forward, 1.0), 0.0)
    # e^{beta Q} nears the float limit only when the initial reservoir
    # level's Gibbs weight lies below the cutoff, i.e. in a dropped block;
    # keep it out of those blocks so their products cannot overflow.
    per_block = _residual(ratio, np.where(block, pair, 1.0),
                          _extremes(e_i, sup_i)[:, :, None, None, None],
                          _extremes(e_f, sup_f)[:, None, :, None, None]).max(axis=0)
    per_block = np.where(block, per_block, -1.0)
    worst = float(per_block.max())

    # the one search (module docstring), over attaining blocks k = (m', r, r')
    attain = per_block == worst
    m = int(np.argmax(attain.reshape(attain.shape[0], -1).any(axis=1)))
    n, r, s = np.nonzero(attain[m])
    full = _residual(ratio[m, n, r, s][:, None, None, None, None],
                     pair[r, s][:, None, None, None, None],
                     e_i[m][None, :, :, None, None], e_f[n][:, None, None])
    k, a, b, af, bf = np.nonzero(sup_i[m][None, :, :, None, None] & sup_f[n][:, None, None]
                                 & (full == worst))
    order = (a, b, n[k], af, bf, r[k], s[k])      # the tuple's axes after m
    first = np.lexsort(order[::-1])[0]
    return worst, OutcomeTuple(m, *(int(x[first]) for x in order))


def forward_averages(joint: FactoredJoint, funcs: EndpointFunctionals) -> Averages:
    """Forward averages of the five functionals, endpoint part by part."""
    def mean(**factor):
        return joint.expectation(joint.forward, **factor)

    i, f = funcs.initial, funcs.final
    return Averages(
        delta_s_a=mean(initial=i.l_pa[None, :, None]) - mean(final=f.l_pa[None, :, None]),
        delta_s_b=mean(initial=i.l_pb[None, None, :]) - mean(final=f.l_pb[None, None, :]),
        delta_i=mean(final=f.info) - mean(initial=i.info),
        delta_j=mean(final=f.classical[None]) - mean(initial=i.classical[None]),
        beta_q=mean(pair=funcs.beta_q),
    )


def product_bases(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when, at both measurements, every global eigenvector is a
    product of local eigenvectors, i.e. each conditional row concentrates
    all weight on a single (a, b)."""
    return all(np.all(end.cond.reshape(len(end.cond), -1).max(axis=1) > 1.0 - tol.orthonormality)
               for end in (spectra.initial, spectra.final))


def inequality_suite(averages: Averages, gamma: float, reverse_avg: float,
                     classical_lhs: float | None = None,
                     work: WorkInputs | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[BoundRecord, ...]:
    """Assemble every bound record.

    ``classical_lhs`` is the forward average of the classical-exponent
    exponential when the product-basis precondition holds, else None.
    Bounds built on ln gamma become vacuous when gamma == 0.
    """
    ln_gamma = ln_or_neg_inf(gamma)
    ds_sum = averages.delta_s_a + averages.delta_s_b
    ln_rev = ln_or_neg_inf(reverse_avg)
    bq = averages.beta_q
    records = []

    def upper(name, lhs, rhs, applicable=True, note=""):
        if applicable and rhs == NEG_INF:
            applicable, note = False, "vacuous: empty forward-support overlap (gamma = 0)"
        slack = (rhs - lhs) if applicable else math.nan
        sat = bool(slack >= -tol.bound) if applicable else None
        records.append(BoundRecord(name, "upper", lhs, rhs, slack, applicable, sat, note))

    # Heat bounds from the two integral relations, and the gamma-free form.
    upper("heat_bound_info_gamma", bq, ds_sum - averages.delta_i + ln_gamma)
    upper("heat_bound_reverse_info", bq, ds_sum + ln_rev)
    upper("heat_bound_info_plain", bq, ds_sum - averages.delta_i,
          note="gamma-free form; implied by heat_bound_info_gamma since ln gamma <= 0")

    # Classical reduction (product eigenbases only), an equality judged by Check.close.
    if classical_lhs is None:
        classical = (math.nan, math.nan, math.nan, False, None,
                     "global eigenbases are not product bases")
    else:
        check = Check.close("classical_ft", classical_lhs, gamma, tol.equality)
        classical = (classical_lhs, gamma, -check.value, True, check.passed, "")
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
        upper("work_bound_info_gamma",
              w_sum, f_sum + (-averages.delta_i + ln_gamma) / work.beta)
        upper("work_bound_reverse_info",
              w_sum, f_sum + ln_rev / work.beta)

    return tuple(records)


def corrupt_reverse(joint: FactoredJoint) -> FactoredJoint:
    """Negative-control helper: scale the largest entry of the global
    reverse table (the first in C order) by 1.5 so the detailed relation
    must fail.  Debug use only."""
    reverse = joint.reverse.copy()
    reverse.flat[int(np.argmax(reverse))] *= 1.5
    return replace(joint, reverse=reverse)


def evaluate(spectra: SystemSpectra,
             work_inputs: WorkInputs | None = None,
             tol: Tolerances = DEFAULT_TOL,
             _reverse_corruption: bool = False) -> Analysis:
    """Run a system through the factored tables, the functionals and
    every check.

    ``_reverse_corruption`` applies ``corrupt_reverse`` to the reverse
    table before checking (debug flag wiring).
    """
    joint = factored_joint(spectra, tol)
    if _reverse_corruption:
        joint = corrupt_reverse(joint)
    funcs = endpoint_functionals(spectra, tol)

    # both tables with the blocks whose initial (m, r) lies outside the
    # forward support set to zero
    keep = joint.forward_support[:, None, :, None]
    forward = np.where(keep, joint.forward, 0.0)
    reverse = np.where(keep, joint.reverse, 0.0)
    ft, info = funcs.ft_factors(), funcs.info_factors()

    gamma = joint.expectation(reverse)
    int_lhs = joint.expectation(forward, *ft)
    rev_lhs = joint.expectation(forward, *funcs.local_factors())
    rev_rhs = joint.expectation(reverse, *info)
    rev_full = joint.expectation(joint.reverse, *info)
    detail_resid, detail_worst = detailed_ft_check(joint, ft, tol)
    averages = forward_averages(joint, funcs)

    classical_lhs = None
    if product_bases(spectra, tol):
        classical_lhs = joint.expectation(forward, *funcs.classical_factors())

    bounds = inequality_suite(averages, gamma, rev_rhs, classical_lhs, work_inputs, tol)

    report = FTReport(
        integral_ft_lhs=int_lhs,
        gamma_restricted=gamma,
        ln_gamma=ln_or_neg_inf(gamma),
        reverse_ft_lhs=rev_lhs,
        reverse_avg_exp_di=rev_rhs,
        reverse_avg_exp_di_full=rev_full,
        detailed_max_residual=detail_resid,
        detailed_worst=detail_worst,
        bound_gap=(-ln_or_neg_inf(rev_rhs)) - averages.delta_i,
        averages=averages,
        bounds=bounds,
    )
    return Analysis(spectra, joint, funcs, report)
