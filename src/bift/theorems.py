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
  <exp(-ds_A - ds_B + beta Q)> = <exp(-dI)>_rev (support-restricted);
* the heat bounds they imply, plus the classical reduction, the
  memory-erasure specializations, and the extracted-work bounds when
  free-energy inputs are available.

Bound records carry lhs, rhs and slack = rhs - lhs (for equalities,
slack = -|lhs - rhs|), so "satisfied" always means slack >= -tolerance.
Inapplicable bounds are reported as such, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable
from .functionals import (
    HeatPartition,
    TrajectoryFunctional,
    average,
    restricted_average,
    tuple_functionals,
    with_entropy_production,
)
from .linalg import DEFAULT_TOL, Tolerances
from .tables import (
    ForwardJointDistribution,
    OutcomeTuple,
    ReverseJointDistribution,
    SystemSpectra,
    _above_cutoff,
    _reverse_distribution,
    augmented_forward,
    reverse_joint,
)

NEG_INF = float("-inf")


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

    kind is "upper" (lhs <= rhs, slack = rhs - lhs) or "equality"
    (slack = -|lhs - rhs|).  ``satisfied`` is None when the relation's
    precondition does not hold here (see ``note``).
    """

    name: str
    kind: str
    lhs: float
    rhs: float
    slack: float
    applicable: bool
    satisfied: bool | None
    note: str = ""


@dataclass(frozen=True)
class Averages:
    delta_s_a: float
    delta_s_b: float
    delta_i: float
    delta_j: float
    beta_q: float


@dataclass(frozen=True)
class SigmaAverages:
    sigma_a: float
    sigma_b: float
    delta_gamma: float


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
    sigma: SigmaAverages | None = None

    def bound(self, name: str) -> BoundRecord:
        for rec in self.bounds:
            if rec.name == name:
                return rec
        raise KeyError(name)


@dataclass(frozen=True)
class Analysis:
    """A system run end to end: ingredient bundle, both tables, the
    per-trajectory functionals and the assembled report."""

    spectra: SystemSpectra
    forward: ForwardJointDistribution
    reverse: ReverseJointDistribution
    functionals: TrajectoryFunctional
    report: FTReport


def detailed_ft_check(forward: ForwardJointDistribution,
                      reverse: ReverseJointDistribution,
                      traj: TrajectoryFunctional,
                      tol: Tolerances = DEFAULT_TOL):
    """Max over the forward support of
    | p_rev/p_fwd - exp(-ds_A - ds_B + dI + beta Q) |,
    together with the trajectory attaining it."""
    f = forward.table
    mask = _above_cutoff(f, tol)
    if not mask.any():
        return 0.0, None
    expo = np.broadcast_to(np.exp(traj.ft_exponent()), f.shape)
    ratio = np.where(mask, reverse.table / np.where(mask, f, 1.0), 0.0)
    resid = np.abs(np.where(mask, ratio - expo, 0.0))
    flat = int(np.argmax(resid))
    worst = OutcomeTuple(*(int(i) for i in np.unravel_index(flat, f.shape)))
    return float(resid.flat[flat]), worst


def integral_ft(forward: ForwardJointDistribution,
                traj: TrajectoryFunctional) -> float:
    """Forward average of exp(-ds_A - ds_B + dI + beta Q); equals the
    restricted reverse mass when the detailed relation holds."""
    return average(forward, np.exp(traj.ft_exponent()))


def reverse_averaged_ft(forward: ForwardJointDistribution,
                        reverse: ReverseJointDistribution,
                        traj: TrajectoryFunctional):
    """(lhs, rhs) of the reverse-averaged relation:
    lhs = <exp(-ds_A - ds_B + beta Q)> over the forward table,
    rhs = <exp(-dI)> over the reverse table restricted to the forward
    support."""
    lhs = average(forward, np.exp(traj.local_exponent()))
    rhs = restricted_average(reverse, np.exp(-traj.delta_i))
    return lhs, rhs


def product_basis_flags(spectra: SystemSpectra, tol: Tolerances = DEFAULT_TOL):
    """(initial_is_product, final_is_product): True when every global
    eigenvector is a product of local eigenvectors, i.e. each conditional
    row concentrates all weight on a single (a, b)."""
    d_m = spectra.dim_m
    init = bool(np.all(spectra.cond_initial.reshape(d_m, -1).max(axis=1) > 1.0 - tol.orthonormality))
    fin = bool(np.all(spectra.cond_final.reshape(d_m, -1).max(axis=1) > 1.0 - tol.orthonormality))
    return init, fin


def classical_reduction_check(spectra: SystemSpectra,
                              forward: ForwardJointDistribution,
                              reverse: ReverseJointDistribution,
                              traj: TrajectoryFunctional,
                              tol: Tolerances = DEFAULT_TOL):
    """When both global eigenbases are product bases the protocol
    coincides with local two-point measurements and the info content
    reduces to its classical counterpart.  Returns

        (ft_residual, max |dI - dJ| over weighted trajectories)

    and raises NotApplicable on a non-product eigenbasis.
    """
    init_prod, fin_prod = product_basis_flags(spectra, tol)
    if not (init_prod and fin_prod):
        raise NotApplicable(
            f"global eigenbases are not product bases (initial={init_prod}, final={fin_prod})")
    lhs = average(forward, np.exp(traj.classical_exponent()))
    residual = abs(lhs - reverse.restricted_mass)
    f = forward.table
    mask = _above_cutoff(f, tol)
    gap = np.abs(np.broadcast_to(traj.delta_i - traj.delta_j, f.shape))
    max_gap = float(np.max(np.where(mask, gap, 0.0)))
    return residual, max_gap


def inequality_suite(averages: Averages, gamma: float, reverse_avg: float,
                     classical: dict | None = None,
                     work: WorkInputs | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[BoundRecord, ...]:
    """Assemble every bound record.

    ``classical`` carries the classical-reduction results when the
    product-basis precondition holds (key "lhs": the forward average of
    the classical-exponent exponential), or None.  Bounds built on
    ln gamma become vacuous when gamma == 0.
    """
    ln_gamma = math.log(gamma) if gamma > 0.0 else NEG_INF
    ds_sum = averages.delta_s_a + averages.delta_s_b
    ln_rev = math.log(reverse_avg) if reverse_avg > 0.0 else NEG_INF
    bq = averages.beta_q
    records = []

    def upper(name, lhs, rhs, applicable=True, note=""):
        if applicable and rhs == NEG_INF:
            applicable, note = False, "vacuous: empty forward-support overlap (gamma = 0)"
        slack = (rhs - lhs) if applicable else math.nan
        sat = bool(slack >= -tol.bound) if applicable else None
        records.append(BoundRecord(name, "upper", lhs, rhs, slack, applicable, sat, note))

    def equality(name, lhs, rhs, applicable=True, note=""):
        slack = -abs(lhs - rhs) if applicable else math.nan
        sat = bool(slack >= -tol.bound) if applicable else None
        records.append(BoundRecord(name, "equality", lhs, rhs, slack, applicable, sat, note))

    # Heat bounds from the two integral relations, and the gamma-free form.
    upper("heat_bound_info_gamma", bq, ds_sum - averages.delta_i + ln_gamma)
    upper("heat_bound_reverse_info", bq, ds_sum + ln_rev)
    upper("heat_bound_info_plain", bq, ds_sum - averages.delta_i,
          note="gamma-free form; implied by heat_bound_info_gamma since ln gamma <= 0")

    # Classical reduction (product eigenbases only).
    if classical is None:
        equality("classical_ft", math.nan, math.nan, applicable=False,
                 note="global eigenbases are not product bases")
    else:
        equality("classical_ft", classical["lhs"], gamma)

    # Memory-erasure forms: observer subsystem B unchanged.
    b_static = abs(averages.delta_s_b) <= tol.bound
    note_b = "" if b_static else "requires <ds_B> = 0; here it is nonzero"
    upper("erasure_bound_classical", bq, averages.delta_s_a - averages.delta_j,
          applicable=b_static and classical is not None and abs(gamma - 1.0) <= tol.bound,
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


def corrupt_reverse(reverse: ReverseJointDistribution,
                    factor: float = 1.5) -> ReverseJointDistribution:
    """Negative-control helper: scale the largest reverse entry so the
    detailed relation must fail.  Debug use only."""
    table = reverse.table.copy()
    flat = int(np.argmax(table))
    table.flat[flat] *= factor
    return _reverse_distribution(reverse.dims, table, reverse.forward_support)


def evaluate(spectra: SystemSpectra,
             heat_partition: HeatPartition | None = None,
             work_inputs: WorkInputs | None = None,
             tol: Tolerances = DEFAULT_TOL,
             _reverse_corruption: float | None = None) -> Analysis:
    """Run a system through tables, functionals and every check.

    ``_reverse_corruption`` injects the negative-control corruption
    factor into the reverse table before checking (debug flag wiring).
    """
    forward = augmented_forward(spectra, tol)
    reverse = reverse_joint(spectra, forward, tol)
    if _reverse_corruption is not None:
        reverse = corrupt_reverse(reverse, _reverse_corruption)
    traj = tuple_functionals(spectra, tol)
    if heat_partition is not None:
        traj = with_entropy_production(traj, heat_partition)

    gamma = reverse.restricted_mass
    int_lhs = integral_ft(forward, traj)
    rev_lhs, rev_rhs = reverse_averaged_ft(forward, reverse, traj)
    rev_full = average(reverse, np.exp(-traj.delta_i))
    detail_resid, detail_worst = detailed_ft_check(forward, reverse, traj, tol)

    averages = Averages(
        delta_s_a=average(forward, traj.delta_s_a),
        delta_s_b=average(forward, traj.delta_s_b),
        delta_i=average(forward, traj.delta_i),
        delta_j=average(forward, traj.delta_j),
        beta_q=average(forward, traj.beta_q),
    )

    try:
        cls_residual, cls_gap = classical_reduction_check(spectra, forward, reverse, traj, tol)
        classical = {
            "lhs": average(forward, np.exp(traj.classical_exponent())),
            "residual": cls_residual,
            "max_gap": cls_gap,
        }
    except NotApplicable:
        classical = None

    bounds = inequality_suite(averages, gamma, rev_rhs, classical, work_inputs, tol)
    ln_gamma = math.log(gamma) if gamma > 0.0 else NEG_INF
    ln_rev = math.log(rev_rhs) if rev_rhs > 0.0 else NEG_INF
    sigma = None
    if heat_partition is not None:
        sigma = SigmaAverages(
            sigma_a=average(forward, traj.sigma_a),
            sigma_b=average(forward, traj.sigma_b),
            delta_gamma=average(forward, traj.delta_gamma),
        )

    report = FTReport(
        integral_ft_lhs=int_lhs,
        gamma_restricted=gamma,
        ln_gamma=ln_gamma,
        reverse_ft_lhs=rev_lhs,
        reverse_avg_exp_di=rev_rhs,
        reverse_avg_exp_di_full=rev_full,
        detailed_max_residual=detail_resid,
        detailed_worst=detail_worst,
        bound_gap=(-ln_rev) - averages.delta_i,
        averages=averages,
        bounds=bounds,
        sigma=sigma,
    )
    return Analysis(spectra, forward, reverse, traj, report)
