#!/usr/bin/env python3
"""Hammer the equality checks with reproducible random systems and print
worst-case residuals, including rank-deficient initial states (every
fifth system) where the restricted reverse mass drops below 1.

    python scripts/random_stress.py --instances 500
"""

import argparse
import sys
import time

from bift.cli import build_analysis, core_checks, validate_config

DIMS = [(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 2), (3, 3, 4), (2, 2, 4)]
STRESSED = ("detailed_ft", "integral_ft_vs_gamma", "reverse_averaged_ft")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=positive_int, default=200)
    args = ap.parse_args()

    start = time.perf_counter()
    worst = dict.fromkeys(STRESSED, 0.0)
    ok = True
    gammas = []
    for i in range(args.instances):
        cfg = {"scenario": "random", "seed": i, "dims": list(DIMS[i % len(DIMS)]),
               "rank_deficient": i % 5 == 0}
        tol, points = validate_config(cfg, "run")
        scenario, analysis = build_analysis(cfg, tol, *points)
        for check in core_checks(scenario, analysis, tol):
            if check.name in worst:
                worst[check.name] = max(worst[check.name], check.value)
                ok = ok and check.passed
        gammas.append(analysis.report.gamma_restricted)
    elapsed = time.perf_counter() - start

    print(f"instances            : {args.instances} in {elapsed:.1f} s")
    print(f"worst detailed resid : {worst['detailed_ft']:.3e}")
    print(f"worst integral resid : {worst['integral_ft_vs_gamma']:.3e}")
    print(f"worst reverse resid  : {worst['reverse_averaged_ft']:.3e}")
    print(f"restricted mass range: [{min(gammas):.6f}, {max(gammas):.6f}] "
          f"({sum(g < 1 - tol.equality for g in gammas)} below 1)")
    print("OK" if ok else "RESIDUALS OUT OF TOLERANCE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
