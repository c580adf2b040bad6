"""Batch front-end: run a scenario or an explicit system, sweep a
parameter grid, or verify the full invariant suite.

    bift run    --scenario werner --p 1 --beta 1 --out report.json
    bift sweep  --scenario werner --p 0:1:101 --out table.csv
    bift verify --scenario werner --p 0.7

Reports are deterministic JSON (15 significant digits, config hash and
tolerances included); sweeps are CSV with a header row.  Exit status is
0 iff every applicable check passes its tolerance, 1 on a failed check,
2 on a usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, reportio
from .errors import BiftError, DomainError
from .functionals import average, info_content_tables, shannon_entropy
from .linalg import DEFAULT_TOL, ReservoirSpec, Tolerances, density_operator
from .reportio import config_hash, decode_complex_matrix, load_config, parse_grid
from .scenarios import (
    bell_adiabatic_counterexample,
    random_instance,
    report_value,
    werner_isothermal,
)
from .tables import UnitarySystem, global_table, marginal, spectra_from_unitary
from .theorems import Analysis, evaluate

SWEEP_COLUMNS = (
    "p",
    "delta_i_avg",
    "ln_gamma",
    "ln_reverse_avg_exp_di",
    "bound_gap",
    "heat_bound_info_gamma_slack",
    "heat_bound_reverse_info_slack",
)


@dataclass
class Check:
    name: str
    value: float      # residual (equality) or slack (bound)
    passed: bool
    detail: str = ""


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bift",
        description="Two-point-measurement fluctuation-theorem verification "
                    "for open bipartite systems")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (("run", "run one system and emit a report"),
                      ("sweep", "run a parameter grid and emit a CSV table"),
                      ("verify", "run the full invariant suite")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--scenario", choices=["werner", "counterexample", "random"])
        p.add_argument("--p", dest="p", help="scenario parameter; sweep accepts "
                                             "start:stop:count or a comma list")
        p.add_argument("--beta", type=float, help="inverse temperature")
        p.add_argument("--seed", type=int, help="seed for the random scenario")
        p.add_argument("--dims", help="d_A,d_B,d_R for the random scenario")
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--tolerance", type=float,
                       help="override equality/bound tolerance")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--emit-tuples", action="store_true",
                       help="include the dense per-trajectory tables in the report")
        if name == "verify":
            p.add_argument("--corrupt-reverse", action="store_true",
                           help="debug: corrupt the reverse table so the "
                                "detailed check must fail (negative control)")
    return ap


def merge_config(args) -> dict:
    cfg = load_config(args.config) if args.config else {}
    if args.scenario is not None:
        cfg["scenario"] = args.scenario
    if args.p is not None:
        cfg["p"] = args.p
    if args.beta is not None:
        cfg["beta"] = args.beta
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.dims is not None:
        cfg["dims"] = [int(tok) for tok in str(args.dims).split(",")]
    if args.tolerance is not None:
        cfg["tolerance"] = args.tolerance
    if args.emit_tuples:
        cfg["emit_tuples"] = True
    return cfg


def tolerances_from(cfg: dict) -> Tolerances:
    t = cfg.get("tolerance")
    if t is None:
        return DEFAULT_TOL
    if isinstance(t, dict):
        known = {f.name for f in dataclasses.fields(Tolerances)}
        bad = set(t) - known
        if bad:
            raise DomainError(f"tolerance: unknown fields {sorted(bad)}")
        return dataclasses.replace(DEFAULT_TOL, **{k: float(v) for k, v in t.items()})
    return dataclasses.replace(DEFAULT_TOL, equality=float(t), bound=float(t))


def _scalar_p(cfg: dict) -> float:
    raw = cfg.get("p")
    if raw is None:
        raise DomainError("p: required for this scenario")
    values = parse_grid(str(raw))
    if len(values) != 1:
        raise DomainError(f"p: expected a single value, got {len(values)}")
    return values[0]


def explicit_system(cfg: dict) -> UnitarySystem:
    sysc = cfg["system"]
    for field in ("dims", "rho_ab", "unitary", "reservoir"):
        if field not in sysc:
            raise DomainError(f"system.{field}: missing")
    dims = sysc["dims"]
    if not (isinstance(dims, (list, tuple)) and len(dims) == 3):
        raise DomainError("system.dims: expected [d_A, d_B, d_R]")
    d_a, d_b, d_r = (int(d) for d in dims)
    rho = decode_complex_matrix(sysc["rho_ab"], "system.rho_ab")
    u = decode_complex_matrix(sysc["unitary"], "system.unitary")
    res = sysc["reservoir"]
    if "energies" not in res or "beta" not in res:
        raise DomainError("system.reservoir: needs energies and beta")
    if len(res["energies"]) != d_r:
        raise DomainError("system.reservoir.energies: length must equal d_R")
    try:
        return UnitarySystem(dim_a=d_a, dim_b=d_b,
                             rho_ab=density_operator(rho),
                             reservoir=ReservoirSpec(tuple(res["energies"]),
                                                     float(res["beta"])),
                             unitary=u)
    except BiftError as exc:
        raise DomainError(f"system: {exc}") from exc


def build_analysis(cfg: dict, p_value: float | None = None,
                   corruption: float | None = None):
    """Returns (analysis, reference, scenario_descr)."""
    tol = tolerances_from(cfg)
    name = cfg.get("scenario")
    if "system" in cfg:
        system = explicit_system(cfg)
        reference = {}
        descr = {"name": "explicit", "dims": [system.dim_a, system.dim_b,
                                              system.reservoir.dim]}
    elif name == "werner":
        p = p_value if p_value is not None else _scalar_p(cfg)
        beta = float(cfg.get("beta", 1.0))
        result = werner_isothermal(p, beta, tol=tol, _reverse_corruption=corruption)
        return result.analysis, result.reference, {"name": "werner", "p": p, "beta": beta}
    elif name == "counterexample":
        p = p_value if p_value is not None else _scalar_p(cfg)
        route = cfg.get("route", "unitary")
        result = bell_adiabatic_counterexample(p, route, tol=tol,
                                               _reverse_corruption=corruption)
        return result.analysis, result.reference, {"name": "counterexample", "p": p,
                                                   "route": route}
    elif name == "random":
        seed = int(cfg.get("seed", 0))
        dims = cfg.get("dims", [2, 2, 2])
        if len(dims) != 3:
            raise DomainError("dims: expected d_A,d_B,d_R")
        d_a, d_b, d_r = (int(d) for d in dims)
        beta = float(cfg.get("beta", 1.0))
        system = random_instance(d_a, d_b, d_r, seed, beta=beta,
                                 rank_deficient=bool(cfg.get("rank_deficient", False)))
        reference = {}
        if not cfg.get("rank_deficient", False):
            reference = {"gamma_restricted": 1.0, "integral_ft_lhs": 1.0}
        descr = {"name": "random", "seed": seed, "dims": [d_a, d_b, d_r], "beta": beta}
    else:
        raise DomainError(f"scenario: unknown or missing (got {name!r}); "
                          "expected werner, counterexample, random, or an explicit system")
    analysis = evaluate(spectra_from_unitary(system, tol=tol), tol=tol,
                        _reverse_corruption=corruption)
    return analysis, reference, descr


def core_checks(analysis: Analysis, reference: dict, tol: Tolerances) -> list[Check]:
    """The checks whose pass/fail decides the exit status of ``run``."""
    rep = analysis.report
    checks = [
        Check("integral_ft_vs_gamma",
              abs(rep.integral_ft_lhs - rep.gamma_restricted),
              abs(rep.integral_ft_lhs - rep.gamma_restricted) <= tol.equality),
        Check("reverse_averaged_ft",
              abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di),
              abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di) <= tol.equality),
        Check("detailed_ft", rep.detailed_max_residual,
              rep.detailed_max_residual <= tol.equality,
              detail=("worst trajectory "
                      f"{tuple(rep.detailed_worst)}" if rep.detailed_worst else "")),
    ]
    for rec in rep.bounds:
        if not rec.applicable:
            checks.append(Check(f"bound:{rec.name}", math.nan, True,
                                detail=f"not applicable: {rec.note}"))
        else:
            checks.append(Check(f"bound:{rec.name}", rec.slack, bool(rec.satisfied),
                                detail=f"kind={rec.kind}"))
    for key in sorted(reference):
        resid = abs(report_value(rep, key) - reference[key])
        checks.append(Check(f"reference:{key}", resid, resid <= tol.equality))
    return checks


def invariant_checks(analysis: Analysis, tol: Tolerances) -> list[Check]:
    """Structural identities re-derived from the ingredient bundle."""
    s = analysis.spectra
    fwd, rev = analysis.forward, analysis.reverse
    checks = []

    checks.append(Check("forward_normalization", abs(fwd.total() - 1.0),
                        abs(fwd.total() - 1.0) <= tol.equality))
    checks.append(Check("reverse_normalization", abs(rev.total() - 1.0),
                        abs(rev.total() - 1.0) <= tol.equality))

    g = global_table(s)
    refactored = np.einsum("mnrs,mab,nAB->mabnABrs", g, s.cond_initial, s.cond_final)
    fact = float(np.max(np.abs(refactored - fwd.table)))
    checks.append(Check("forward_factorization", fact, fact <= 1e-12))

    got = marginal(fwd, ("m", "a", "b", "r"))
    want = (s.cond_initial[:, :, :, None]
            * s.p_m[:, None, None, None] * s.p_r[None, None, None, :])
    mdev = float(np.max(np.abs(got - want)))
    checks.append(Check("initial_marginal_identity", mdev, mdev <= tol.equality))

    p_a_dev = float(np.max(np.abs(marginal(fwd, ("a",)) - s.p_a)))
    checks.append(Check("local_marginal_identity", p_a_dev, p_a_dev <= tol.equality))

    info_i, _ = info_content_tables(s, tol)
    d = s.dims
    avg_info = average(fwd, info_i.reshape(d[0], d[1], d[2], 1, 1, 1, 1, 1))
    qmi = shannon_entropy(s.p_a) + shannon_entropy(s.p_b) - shannon_entropy(s.p_m)
    checks.append(Check("info_avg_is_mutual_information", abs(avg_info - qmi),
                        abs(avg_info - qmi) <= tol.equality))

    rest = rev.restricted_mass
    checks.append(Check("restricted_mass_in_range", 0.0,
                        -tol.equality <= rest <= 1.0 + tol.equality,
                        detail=f"gamma={rest:.15g}"))
    return checks


def report_document(command: str, cfg: dict, descr: dict, analysis: Analysis,
                    reference: dict, checks: list[Check], tol: Tolerances,
                    emit_tuples: bool) -> dict:
    rep = analysis.report
    doc = {
        "command": command,
        "tool": {"name": "bift", "version": __version__},
        "config_hash": config_hash(cfg),
        "tolerances": {"equality": tol.equality, "bound": tol.bound,
                       "support": tol.support},
        "scenario": descr,
        "report": {
            "integral_ft_lhs": rep.integral_ft_lhs,
            "gamma_restricted": rep.gamma_restricted,
            "ln_gamma": rep.ln_gamma,
            "reverse_ft_lhs": rep.reverse_ft_lhs,
            "reverse_avg_exp_di": rep.reverse_avg_exp_di,
            "reverse_avg_exp_di_full": rep.reverse_avg_exp_di_full,
            "detailed_max_residual": rep.detailed_max_residual,
            "detailed_worst": list(rep.detailed_worst) if rep.detailed_worst else None,
            "bound_gap": rep.bound_gap,
            "averages": dataclasses.asdict(rep.averages),
            "bounds": [dataclasses.asdict(b) for b in rep.bounds],
        },
        "reference_residuals": {
            k: abs(report_value(rep, k) - v) for k, v in sorted(reference.items())
        },
        "checks": [dataclasses.asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
    if emit_tuples:
        doc["tables"] = {
            "axes": ["m", "a", "b", "m_final", "a_final", "b_final", "r", "r_final"],
            "dims": list(analysis.forward.dims),
            "forward": analysis.forward.table.tolist(),
            "reverse": analysis.reverse.table.tolist(),
        }
    return doc


def write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_run(args) -> int:
    cfg = merge_config(args)
    tol = tolerances_from(cfg)
    analysis, reference, descr = build_analysis(cfg)
    checks = core_checks(analysis, reference, tol)
    doc = report_document("run", cfg, descr, analysis, reference, checks, tol,
                          bool(cfg.get("emit_tuples", False)))
    write_text(reportio.dumps(doc), args.out)
    return 0 if doc["passed"] else 1


def cmd_verify(args) -> int:
    cfg = merge_config(args)
    tol = tolerances_from(cfg)
    corruption = 1.5 if getattr(args, "corrupt_reverse", False) else None
    analysis, reference, descr = build_analysis(cfg, corruption=corruption)
    checks = core_checks(analysis, reference, tol) + invariant_checks(analysis, tol)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"{status} {c.name} value={reportio.format_float(c.value)}{detail}")
    ok = all(c.passed for c in checks)
    lines.append(f"{'PASS' if ok else 'FAIL'} overall: "
                 f"{sum(c.passed for c in checks)}/{len(checks)} checks")
    write_text("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    cfg = merge_config(args)
    tol = tolerances_from(cfg)
    grid_cfg = cfg.get("grid", {})
    raw = grid_cfg.get("p", cfg.get("p"))
    if raw is None:
        raise DomainError("sweep needs a p grid (--p start:stop:count)")
    values = [float(v) for v in raw] if isinstance(raw, list) else parse_grid(str(raw))
    if not values:
        raise DomainError("sweep grid is empty")
    rows = []
    all_ok = True
    for p in values:
        analysis, reference, _ = build_analysis(cfg, p_value=p)
        rep = analysis.report
        checks = core_checks(analysis, reference, tol)
        all_ok = all_ok and all(c.passed for c in checks)
        ln_rev = (math.log(rep.reverse_avg_exp_di)
                  if rep.reverse_avg_exp_di > 0.0 else float("-inf"))
        rows.append((p, rep.averages.delta_i, rep.ln_gamma, ln_rev, rep.bound_gap,
                     rep.bound("heat_bound_info_gamma").slack,
                     rep.bound("heat_bound_reverse_info").slack))
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(reportio.format_float(x) for x in row))
    write_text("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except BiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
