#!/usr/bin/env python3
"""Hammer the equality checks with reproducible random systems and print
worst-case residuals, including rank-deficient initial states where the
restricted reverse mass drops below 1.

    python scripts/random_stress.py --instances 500
"""

import argparse
import sys
import time

import numpy as np

from bift.linalg import DEFAULT_TOL
from bift.scenarios import random_instance
from bift.tables import spectra_from_unitary
from bift.theorems import evaluate

DIMS = [(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 2), (3, 3, 4), (2, 2, 4)]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=positive_int, default=200)
    ap.add_argument("--rank-deficient-share", type=float, default=0.2)
    args = ap.parse_args()

    start = time.perf_counter()
    worst_detailed = worst_integral = worst_reverse = 0.0
    gammas = []
    for i in range(args.instances):
        dims = DIMS[i % len(DIMS)]
        deficient = (i % max(1, round(1 / args.rank_deficient_share))) == 0 \
            if args.rank_deficient_share > 0 else False
        system = random_instance(*dims, seed=i, rank_deficient=deficient)
        rep = evaluate(spectra_from_unitary(system)).report
        worst_detailed = max(worst_detailed, rep.detailed_max_residual)
        worst_integral = max(worst_integral,
                             abs(rep.integral_ft_lhs - rep.gamma_restricted))
        worst_reverse = max(worst_reverse,
                            abs(rep.reverse_ft_lhs - rep.reverse_avg_exp_di))
        gammas.append(rep.gamma_restricted)
    elapsed = time.perf_counter() - start

    gammas = np.asarray(gammas)
    print(f"instances            : {args.instances} in {elapsed:.1f} s")
    print(f"worst detailed resid : {worst_detailed:.3e}")
    print(f"worst integral resid : {worst_integral:.3e}")
    print(f"worst reverse resid  : {worst_reverse:.3e}")
    print(f"restricted mass range: [{gammas.min():.6f}, {gammas.max():.6f}] "
          f"({int(np.sum(gammas < 1 - 1e-6))} below 1)")
    ok = max(worst_detailed, worst_integral, worst_reverse) <= DEFAULT_TOL.equality
    print("OK" if ok else "RESIDUALS OUT OF TOLERANCE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
