"""Workload generation: argv lists and explicit-config JSON files.

Everything here is a pure function of (workload, seed, size).  bift sees
only the generated argv and the config files written into ``workdir``;
the random systems for explicit configs are built with numpy alone so
the inputs do not depend on bift's own scenario code.

Each workload is a fixed list of ops.  A benchmark run repeats the list
in whole passes, so every op runs several times in one run (the
byte-identity gate compares the repeats) and the mix of op sizes is the
same in every pass (medians stay comparable between runs).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dense-verify", "many-small", "emit-tuples")

# Tolerance the benchmark itself applies to reference residuals; it is
# the tool's documented default and deliberately not read from the report.
REFERENCE_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a ``bift.cli.main`` call.

    ``argv`` excludes ``--out``, which the runner appends.  ``kind`` is
    "verify" (PASS/FAIL text) or "run" (JSON report); ``emit_dims`` is
    (d_A, d_B, d_R) when the report must embed the dense tables.
    """

    label: str
    argv: tuple[str, ...]
    kind: str
    emit_dims: tuple[int, int, int] | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _random_op(kind: str, seed: int, dims, extra=(), label_prefix="random",
               emit_dims=None) -> Op:
    d = ",".join(str(x) for x in dims)
    argv = (kind, "--scenario", "random", "--seed", str(seed), "--dims", d) + tuple(extra)
    return Op(f"{label_prefix}:{d}:{seed}", argv, kind, emit_dims)


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _spectrum(dim: int, rng: np.random.Generator, degenerate: bool) -> np.ndarray:
    lam = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
    if degenerate:
        lam = np.repeat(lam[: (dim + 1) // 2], 2)[:dim]
    return lam / lam.sum()


def _encode(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def explicit_system_config(dims, rng: np.random.Generator, degenerate: bool) -> dict:
    """A random explicit system: Haar-rotated state (optionally with
    eigenvalues repeated in pairs), Haar propagator on AB (x) R."""
    d_a, d_b, d_r = dims
    d_m = d_a * d_b
    v = _haar(d_m, rng)
    rho = (v * _spectrum(d_m, rng, degenerate)) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    energies = np.sort(rng.uniform(0.0, 5.0, size=d_r))
    return {
        "system": {
            "dims": [d_a, d_b, d_r],
            "rho_ab": _encode(rho),
            "unitary": _encode(_haar(d_m * d_r, rng)),
            "reservoir": {"energies": [float(e) for e in energies], "beta": 1.0},
        }
    }


def _write_json(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# Sizes per workload.  "full" is what the benchmark measures; "tiny" is
# for the smoke test and exercises the same code paths in well under a
# second per pass.  dense-verify runs one cycle of its four sizes plus
# (5,5,3) and (6,6,2) again, so that with whole passes the median falls
# inside the (5,5,3) ops and p90 inside the (6,6,2) ops, not on the
# edge between two sizes.
DENSE_DIMS = {"full": [(4, 4, 4), (5, 5, 3), (4, 4, 8), (6, 6, 2), (5, 5, 3), (6, 6, 2)],
              "tiny": [(2, 2, 2), (2, 2, 3), (2, 2, 2)]}
SMALL_GRID = {"full": 101, "tiny": 3}
SMALL_RANDOM_PER_DIMS = {"full": 40, "tiny": 1}
SMALL_EXPLICIT = {"full": 40, "tiny": 2}
SMALL_DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 2)]
EMIT_DIMS = {"full": [(2, 3, 3), (3, 3, 2), (3, 3, 4)], "tiny": [(2, 2, 2)]}
EMIT_PER_DIMS = 2
NEGATIVE_DIMS = {"full": [(2, 2, 2), (4, 4, 4)], "tiny": [(2, 2, 2), (2, 2, 3)]}


def dense_verify(rng, workdir, size) -> list[Op]:
    """verify on random systems; every third one rank-deficient via
    --config so the gamma < 1 path runs."""
    deficient = _write_json(workdir, "rank_deficient.json", {"rank_deficient": True})
    dims_list = DENSE_DIMS[size]
    ops = []
    for i, (dims, seed) in enumerate(zip(dims_list, _seeds(rng, len(dims_list)))):
        extra = ("--config", deficient) if i % 3 == 2 else ()
        ops.append(_random_op("verify", seed, dims, extra,
                              "random-rd" if extra else "random"))
    return ops


def many_small(rng, workdir, size) -> list[Op]:
    """Single-system run ops whose tables stay small: the Werner grid
    (analytic-kernel route), the counterexample grid (propagator route),
    seeded random systems and explicit configs, some degenerate."""
    n = SMALL_GRID[size]
    ops = [Op(f"werner:{_fmt(p)}", ("run", "--scenario", "werner", "--p", _fmt(p),
                                     "--beta", "1"), "run")
           for p in np.linspace(0.0, 1.0, n)]
    ops += [Op(f"counterexample:{_fmt(p)}",
               ("run", "--scenario", "counterexample", "--p", _fmt(p)), "run")
            for p in np.linspace(0.01, 0.99, n)]
    per = SMALL_RANDOM_PER_DIMS[size]
    for dims in SMALL_DIMS:
        ops += [_random_op("run", s, dims) for s in _seeds(rng, per)]
    for i in range(SMALL_EXPLICIT[size]):
        dims = SMALL_DIMS[i % len(SMALL_DIMS)]
        degenerate = i % 2 == 1
        path = _write_json(workdir, f"explicit_{i}.json",
                           explicit_system_config(dims, rng, degenerate))
        ops.append(Op(f"explicit:{i}:{'degenerate' if degenerate else 'generic'}",
                      ("run", "--config", path), "run"))
    # Interleave the op kinds so no pass phase is all one route.
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def emit_tuples(rng, workdir, size) -> list[Op]:
    """run --emit-tuples, which serializes both dense tables."""
    ops = []
    for dims in EMIT_DIMS[size]:
        ops += [_random_op("run", seed, dims, ("--emit-tuples",), "emit", dims)
                for seed in _seeds(rng, EMIT_PER_DIMS)]
    return ops


_BUILDERS = {"dense-verify": dense_verify, "many-small": many_small,
             "emit-tuples": emit_tuples}


def generate(workload: str, seed: int, workdir: str, size: str = "full"):
    """(ops, negative_controls) for one workload and seed.

    The negative controls are ``verify --corrupt-reverse`` at one small
    and one dense size; each must exit 1.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _BUILDERS[workload](rng, workdir, size)
    negatives = [_random_op("verify", s, dims, ("--corrupt-reverse",), "negative")
                 for dims, s in zip(NEGATIVE_DIMS[size], _seeds(rng, 2))]
    return ops, negatives
