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
import functools
import inspect
import math
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext

import numpy as np

from . import __version__, reportio
from .errors import BiftError, DomainError, SizeError
from .functionals import shannon_entropy
from .linalg import (
    DEFAULT_TOL,
    ReservoirSpec,
    Tolerances,
    density_operator,
)
from .reportio import config_hash, decode_complex_matrix, load_config
from .scenarios import SCENARIOS, Scenario, report_value
from .tables import OutcomeTuple, SystemSpectra, UnitarySystem, spectra_from_unitary
from .theorems import Analysis, Check, corrupt_reverse, evaluate

SWEEP_COLUMNS = ("p", "delta_i_avg", "ln_gamma", "ln_reverse_avg_exp_di", "bound_gap",
                 "heat_bound_info_gamma_slack", "heat_bound_reverse_info_slack")
TABLE_SIZE_GUARD = 10_000_000  # max number of dense tuple-table entries


@functools.cache
def builder_keys(builder: Callable[..., Scenario]) -> frozenset[str]:
    """The config keys a system's builder reads: its keyword parameters but ``tol``."""
    return frozenset(inspect.signature(builder).parameters) - {"tol"}


# Any parameter a scenario does not read, and any of them beside an
# explicit ``system``, is an error instead of being ignored.
CONFIG_KEYS = {"scenario", "system", "tolerance", "emit_tuples"}.union(
    *map(builder_keys, SCENARIOS.values()))


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scenario", choices=list(SCENARIOS))
    shared.add_argument("--p", help="scenario parameter; sweep accepts a comma list or "
                                    "start:stop:count with count at most "
                                    f"{MAX_GRID_POINTS}")
    shared.add_argument("--beta", type=float, help="inverse temperature")
    shared.add_argument("--seed", type=int, help="seed, for a scenario that reads one")
    shared.add_argument("--dims", help="d_A,d_B,d_R, for a scenario that reads them")
    shared.add_argument("--config", help="JSON config path")
    shared.add_argument("--tolerance", type=float, help="override equality/bound tolerance")
    shared.add_argument("--out", help="output path (default: stdout)")

    ap = argparse.ArgumentParser(
        prog="bift",
        description="Two-point-measurement fluctuation-theorem verification "
                    "for open bipartite systems")
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[shared], help="run one system and emit a report")
    run.add_argument("--emit-tuples", action="store_true", default=None,
                     help="include the dense per-trajectory tables in the report")
    run.set_defaults(handler=cmd_run)
    sweep = sub.add_parser("sweep", parents=[shared],
                           help="run a parameter grid and emit a CSV table")
    sweep.set_defaults(handler=cmd_sweep)
    verify = sub.add_parser("verify", parents=[shared], help="run the full invariant suite")
    verify.add_argument("--corrupt-reverse", action="store_true",
                        help="negative control: scale one entry of the reverse kernel "
                             "by 1.5 so the detailed check must fail")
    verify.set_defaults(handler=cmd_verify)
    return ap


def merge_config(args) -> dict:
    """The config file's keys, overridden by each given flag of the same dest, --dims parsed.
    Over a config's tolerance object, --tolerance sets its equality and bound."""
    cfg = load_config(args.config) if args.config is not None else {}
    flags = {key: value for key, value in vars(args).items()
             if key in CONFIG_KEYS and value is not None}
    tol = flags.get("tolerance")
    if tol is not None and isinstance(cfg.get("tolerance"), dict):
        _number(tol, "tolerance", positive=False)   # named as the flag, not as a field
        flags["tolerance"] = {**cfg["tolerance"], "equality": tol, "bound": tol}
    cfg.update(flags)
    if args.dims is not None:
        try:
            cfg["dims"] = [int(tok) for tok in args.dims.split(",")]
        except ValueError as exc:
            raise DomainError(f"dims: expected integers d_A,d_B,d_R ({exc})") from exc
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number, not a bool, that converts to a finite float."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        return False


def _number(value, name: str, positive: bool) -> None:
    if not (_is_finite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "non-negative"
        raise DomainError(f"{name}: expected a finite {kind} number, got {value!r}")


def _guard_size(d_a: int, d_b: int, d_r: int) -> None:
    """Refuse dense tuple tables over the guard, counting in exact integers."""
    n = math.prod((d_a * d_b, d_a, d_b, d_r)) ** 2
    if n > TABLE_SIZE_GUARD:
        raise SizeError(f"dense tuple table would hold {n} > {TABLE_SIZE_GUARD} entries")


def _dims(value, name: str) -> None:
    """Three positive integers whose dense tuple table passes the size
    guard: the one size check of the package, made before any system
    is drawn or decoded."""
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(_is_int(d) and d > 0 for d in value)):
        raise DomainError(f"{name}: expected three positive integers d_A,d_B,d_R, got {value!r}")
    _guard_size(*value)


def _fields(value, names: tuple[str, ...], where: str) -> None:
    """An object holding exactly the keys ``names``."""
    if not isinstance(value, dict):
        raise DomainError(f"{where}: expected an object, got {value!r}")
    for name in names:
        if name not in value:
            raise DomainError(f"{where}.{name}: missing")
    unknown = set(value) - set(names)
    if unknown:
        raise DomainError(f"{where}: unknown keys {sorted(unknown)}")


def validate_config(cfg: dict, command: str) -> tuple[Tolerances, list[float | None]]:
    """Reject malformed values where the config enters, so that a bad
    input exits 2 with a message instead of failing inside the numerics,
    and return the run's tolerances and ``p`` points ([None] for a system
    without ``p``; one point unless sweeping).  Checks every key but
    ``system``, which its builder checks, that the command and the named
    system read every key given, and that a sweep names one with a ``p``."""
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise DomainError(f"unknown config keys {sorted(unknown)}")
    if "emit_tuples" in cfg and command != "run":
        raise DomainError(f"config key emit_tuples applies only to run, not {command}")
    where, _, reads = _system(cfg)
    if command == "sweep" and "p" not in reads:
        *rest, last = [name for name, b in SCENARIOS.items() if "p" in builder_keys(b)]
        raise DomainError(f"sweep: only the {', '.join(rest)} and {last} scenarios can be "
                          f"swept, not {where}")
    stray = set(cfg) - reads - {"tolerance", "emit_tuples"}
    if stray:
        raise DomainError(f"config keys {sorted(stray)} do not apply to {where}")
    if "beta" in cfg:
        _number(cfg["beta"], "beta", positive=True)
    if "dims" in cfg:
        _dims(cfg["dims"], "dims")
    if "seed" in cfg and not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        raise DomainError(f"seed: expected a non-negative integer, got {cfg['seed']!r}")
    for key in ("rank_deficient", "emit_tuples"):
        if not isinstance(cfg.get(key, False), bool):
            raise DomainError(f"{key}: expected true or false, got {cfg[key]!r}")
    tol = cfg.get("tolerance")       # a bare number sets equality and bound
    fields = (tol if isinstance(tol, dict) else {} if tol is None
              else {"equality": tol, "bound": tol})
    unknown = set(fields) - {f.name for f in dataclasses.fields(Tolerances)}
    if unknown:
        raise DomainError(f"tolerance: unknown fields {sorted(unknown)}")
    for key, value in fields.items():
        _number(value, f"tolerance.{key}" if isinstance(tol, dict) else "tolerance",
                positive=False)
    points = p_values(cfg) if "p" in reads else [None]
    if command != "sweep" and len(points) != 1:
        raise DomainError(f"p: expected a single value, got {len(points)}")
    return dataclasses.replace(DEFAULT_TOL, **{k: float(v) for k, v in fields.items()}), points


# Most points a start:stop:count grid may hold: each is a full evaluation,
# so a larger count is a typo that would only exhaust memory.
MAX_GRID_POINTS = 100_000


def p_values(cfg: dict) -> list[float]:
    """The scenario parameter ``p``: a number, a list of numbers, or a
    grid string, which is one value, a comma list or start:stop:count
    with 1 <= count <= MAX_GRID_POINTS."""
    raw = cfg.get("p")
    text = raw.strip() if isinstance(raw, str) else ""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid {text!r}: expected start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"grid {text!r}: {exc}") from exc
        if not 1 <= count <= MAX_GRID_POINTS:
            raise DomainError(f"grid {text!r}: count must lie in [1, {MAX_GRID_POINTS}]")
        if not math.isfinite(stop - start):     # an end that is not finite, or too far apart
            raise DomainError(f"grid {text!r}: stop - start must be finite")
        values = [float(x) for x in np.linspace(start, stop, count)]
    elif isinstance(raw, str):
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise DomainError(f"grid {text!r}: {exc}") from exc
    elif isinstance(raw, list) and all(_is_finite(v) for v in raw):
        values = [float(v) for v in raw]
    elif _is_finite(raw):
        values = [float(raw)]
    else:
        raise DomainError(f"p: expected a number, a list of numbers or a start:stop:count "
                          f"grid, got {raw!r}")
    if not values:
        raise DomainError("p: the grid is empty")
    return values


def explicit_system(system, tol: Tolerances) -> Scenario:
    """A config's ``system`` block, read once: its keys, its dims (so the
    size guard runs before any matrix is decoded), its reservoir, then its
    state and propagator.  Every error names the block."""
    _fields(system, ("dims", "rho_ab", "unitary", "reservoir"), "system")
    dims = system["dims"]
    _dims(dims, "system.dims")
    res = system["reservoir"]
    _fields(res, ("energies", "beta"), "system.reservoir")
    beta, energies = res["beta"], res["energies"]
    _number(beta, "system.reservoir.beta", positive=True)
    if not (isinstance(energies, list) and all(_is_finite(e) for e in energies)):
        raise DomainError("system.reservoir.energies: expected a list of finite numbers")
    if len(energies) != dims[2]:
        raise DomainError("system.reservoir.energies: length must equal d_R")
    rho, u = (decode_complex_matrix(system[key], f"system.{key}") for key in ("rho_ab", "unitary"))
    try:
        spectra = spectra_from_unitary(
            UnitarySystem(dims[0], dims[1], density_operator(rho, tol),
                          ReservoirSpec(tuple(energies), float(beta)), u), tol)
    except BiftError as exc:
        raise DomainError(f"system: {exc}") from exc
    return Scenario("explicit", {"dims": list(dims)}, spectra, {})


def _system(cfg: dict) -> tuple[str, Callable[..., Scenario], frozenset[str]]:
    """The system a config names, as its error lines name it, its builder and
    the config keys it reads: :func:`explicit_system` for a ``system`` block,
    else the ``SCENARIOS`` entry that ``scenario`` names, reading it too."""
    if "system" in cfg:
        return "an explicit system", explicit_system, builder_keys(explicit_system)
    name = cfg.get("scenario")
    if isinstance(name, str) and name in SCENARIOS:
        builder = SCENARIOS[name]
        return f"the {name} scenario", builder, builder_keys(builder) | {"scenario"}
    raise DomainError(f"scenario: unknown or missing (got {name!r}); "
                      f"expected {', '.join(SCENARIOS)}, or an explicit system")


def build_analysis(cfg: dict, tol: Tolerances, p: float | None = None,
                   corruption: bool = False) -> tuple[Scenario, Analysis]:
    """The system a validated config names, at ``p``, one of the points
    :func:`validate_config` returns, and its evaluation, of the system
    under ``corrupt_reverse`` when ``corruption`` is set."""
    _, builder, _ = _system(cfg)
    keys = builder_keys(builder)
    scenario = builder(**{k: p if k == "p" else cfg[k] for k in cfg.keys() & keys}, tol=tol)
    spectra = corrupt_reverse(scenario.spectra) if corruption else scenario.spectra
    return scenario, evaluate(spectra, scenario.work, tol)


def core_checks(scenario: Scenario, analysis: Analysis, tol: Tolerances) -> list[Check]:
    """The checks whose pass/fail decides the exit status of ``run``."""
    rep = analysis.report
    checks = [
        Check.close("integral_ft_vs_gamma", rep.integral_ft_lhs, rep.gamma_restricted,
                    tol.equality),
        Check.close("reverse_averaged_ft", rep.reverse_ft_lhs, rep.reverse_avg_exp_di,
                    tol.equality),
        Check.close("detailed_ft", rep.detailed_max_residual, 0.0, tol.equality,
                    f"worst trajectory {tuple(rep.detailed_worst)}" if rep.detailed_worst else ""),
    ]
    checks += [Check.bound(rec, tol) for rec in rep.bounds]
    checks += [Check.close(f"reference:{key}", report_value(rep, key), want, tol.equality)
               for key, want in sorted(scenario.reference.items())]
    return checks


def invariant_checks(analysis: Analysis, tol: Tolerances) -> list[Check]:
    """Structural identities re-derived from the system's record: its
    block sums and its two-point table G."""
    s = analysis.spectra
    init = s.initial
    g = s.two_point()
    checks = []

    forward = s.block_sums()
    for name, block in (("forward_normalization", forward),
                        ("reverse_normalization", s.block_sums(reverse=True))):
        checks.append(Check.close(name, s.expectation(block), 1.0, tol.equality))

    # Summing the local labels out of the augmented table returns G.
    sum_i, sum_f = (end.cond.sum(axis=(1, 2)) for end in (init, s.final))
    outer = sum_i[:, None, None, None] * sum_f[None, :, None, None]
    checks.append(Check.close("forward_factorization", g * (outer - 1.0), 0.0, tol.trace))

    # Forward marginal over (m, a, b, r): the conditional weight times the
    # final-side sum of G.
    w_mr = np.einsum("mnrs,n->mr", g, sum_f)
    got = init.cond[:, :, :, None] * w_mr[:, None, None, :]
    want = (init.cond[:, :, :, None]
            * init.p_m[:, None, None, None] * s.p_r[None, None, None, :])
    checks.append(Check.close("initial_marginal_identity", got, want, tol.equality))
    checks.append(Check.close("local_marginal_identity", got.sum(axis=(0, 2, 3)), init.p_a,
                              tol.equality))

    avg_info = s.expectation(forward, initial=analysis.functionals.initial.info)
    qmi = shannon_entropy(init.p_a) + shannon_entropy(init.p_b) - shannon_entropy(init.p_m)
    checks.append(Check.close("info_avg_is_mutual_information", avg_info, qmi, tol.equality))

    gamma = analysis.report.gamma_restricted
    checks.append(Check("restricted_mass_in_range", 0.0,
                        -tol.equality <= gamma <= 1.0 + tol.equality,
                        detail=f"gamma={gamma:.15g}"))
    return checks


def dense_table(spectra: SystemSpectra, table: np.ndarray) -> np.ndarray:
    """The eight-index table table[m,m',r,r'] |<m|a,b>|^2 |<m'|a',b'>|^2 of
    the global ``table``, as ``--emit-tuples`` writes it: C-ordered, as a
    C-ordered global table makes the product, so the writer reads it flat."""
    return (np.ascontiguousarray(table)[:, None, None, :, None, None, :, :]
            * spectra.initial.cond[:, :, :, None, None, None, None, None]
            * spectra.final.cond[None, None, None, :, :, :, None, None])


def report_document(command: str, cfg: dict, scenario: Scenario, analysis: Analysis,
                    checks: list[Check], tol: Tolerances) -> dict:
    doc = {
        "schema": 2,        # the layout: bound records hold no verdict
        "command": command,
        "tool": {"name": "bift", "version": __version__},
        "config_hash": config_hash(cfg),
        "tolerances": tol,
        "scenario": {"name": scenario.name, **scenario.params},
        "report": analysis.report,
        "reference_residuals": {c.name.removeprefix("reference:"): c.value
                                for c in checks if c.name.startswith("reference:")},
        "checks": checks,
        "passed": all(c.passed for c in checks),
    }
    if cfg.get("emit_tuples", False):
        s = analysis.spectra
        forward, reverse = (dense_table(s, s.two_point(reverse)) for reverse in (False, True))
        doc["tables"] = {"axes": list(OutcomeTuple._fields), "dims": list(forward.shape),
                         "forward": forward, "reverse": reverse}
    return doc


@contextmanager
def output(out: str | None) -> Iterator[Callable[[bytes], object]]:
    """The ``write`` of the file ``out``, or of stdout when it is None, in
    binary mode: it takes the report's ASCII bytes, which reach the
    destination with no newline translation.  Stdout's text layer is
    flushed first.  A destination that cannot be opened or written to
    the end (a full disk, a closed pipe), and a stdout with no binary
    buffer under it (an ``io.StringIO``), is a usage error."""
    where = "stdout" if out is None else f"out {out}"
    if out is None and not hasattr(sys.stdout, "buffer"):
        raise DomainError(f"{where}: a text-only stream, which cannot take the report's bytes")
    try:
        if out is None:
            sys.stdout.flush()
        with nullcontext(sys.stdout.buffer) if out is None else open(out, "wb") as fh:
            yield fh.write
            fh.flush()
    except OSError as exc:
        if out is None:
            # The interpreter flushes stdout again at exit: let that
            # flush, and what the buffer still holds, go nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise DomainError(f"{where}: {exc.strerror or exc}") from exc


def cmd_run(args, cfg: dict, tol: Tolerances, points: list[float | None]) -> int:
    scenario, analysis = build_analysis(cfg, tol, *points)
    checks = core_checks(scenario, analysis, tol)
    doc = report_document("run", cfg, scenario, analysis, checks, tol)
    with output(args.out) as write:
        reportio.dump(doc, write)
    return 0 if doc["passed"] else 1


def cmd_verify(args, cfg: dict, tol: Tolerances, points: list[float | None]) -> int:
    scenario, analysis = build_analysis(cfg, tol, *points, corruption=args.corrupt_reverse)
    checks = core_checks(scenario, analysis, tol) + invariant_checks(analysis, tol)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name} value={reportio.format_float(c.value)}"
             + (f"  ({c.detail})" if c.detail else "") for c in checks]
    ok = all(c.passed for c in checks)
    lines.append(f"{'PASS' if ok else 'FAIL'} overall: "
                 f"{sum(c.passed for c in checks)}/{len(checks)} checks")
    with output(args.out) as write:
        write(("\n".join(lines) + "\n").encode("ascii"))
    return 0 if ok else 1


def cmd_sweep(args, cfg: dict, tol: Tolerances, points: list[float]) -> int:
    lines = [",".join(SWEEP_COLUMNS)]
    all_ok = True
    for p in points:
        scenario, analysis = build_analysis(cfg, tol, p)
        all_ok = all_ok and all(c.passed for c in core_checks(scenario, analysis, tol))
        row = [p] + [report_value(analysis.report, key) for key in SWEEP_COLUMNS[1:]]
        lines.append(",".join(reportio.format_float(x) for x in row))
    with output(args.out) as write:
        write(("\n".join(lines) + "\n").encode("ascii"))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        tol, points = validate_config(cfg, args.command)
        return args.handler(args, cfg, tol, points)
    except BiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
