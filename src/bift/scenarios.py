"""Concrete systems with known closed-form behavior, as :class:`Scenario`
records that describe a system without evaluating it, plus reproducible
random instances for property checks.

* ``werner_isothermal`` -- both qubits of a Werner state undergo a
  quasi-static isothermal gap sweep ending in the pure product ground
  state.  The process has no finite-dimensional propagator (the final
  gap diverges), so it is injected as an analytic kernel: every global
  outcome relaxes deterministically to the final ground state, the
  reversed process re-expands into the maximally mixed product state
  uniformly, and the deterministic heat exponent -2 ln 2 rides on the
  single reservoir label.  For a pure initial state (p = 1) the reverse
  flow mostly misses the initial support and the restricted reverse
  mass drops to 1/4; for p < 1 it is 1.

* ``bell_adiabatic_counterexample`` -- a time-dependent Hamiltonian
  adiabatically carries the four product states into the four Bell
  states (the fourth product state goes to the fourth Bell state, the
  unitary completion of the map) with no reservoir exchange.  Here the
  reverse-averaged information bound is *weaker* than the plain one:
  -ln <exp(-dI)>_rev < <dI> on 0 < p < 1.  Closed forms:
  <dI> = (1+p) ln(1+p) + (1-p) ln(1-p) and
  <exp(-dI)>_rev = (1 + p - p^2) / ((1+p)^2 (1-p)).
  Runs through the generic propagator engine.

* ``random_instance`` -- reproducible generic systems (Haar-rotated
  spectra, thermal reservoir, Haar propagator) for equality checks, with
  flags for rank deficiency (exercising restricted mass < 1) and exact
  spectral degeneracy (exercising gauge freedom); ``random_scenario``
  names one as a Scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import (
    DEFAULT_TOL,
    ReservoirSpec,
    Tolerances,
    density_operator,
    haar_unitary,
)
from .tables import (
    Endpoint,
    SystemSpectra,
    UnitarySystem,
    spectra_from_analytic,
    spectra_from_unitary,
)
from .theorems import WorkInputs, ln_or_neg_inf

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Scenario:
    """A named system: its spectra, the work inputs of its work bounds
    (None where it defines none) and its closed-form reference values
    (keys resolvable against a report via :func:`report_value`)."""

    name: str
    params: dict
    spectra: SystemSpectra
    reference: dict[str, float]
    work: WorkInputs | None = None


def report_value(report, key: str) -> float:
    """Resolve a reference key or sweep column against an FTReport, fields first: a scalar
    field (``gamma_restricted``), an average (``<field>_avg``, a field of ``report.averages``),
    a bound's slack (``<bound name>_slack``) or ``ln_or_neg_inf`` of ``<key>`` for ``ln_<key>``."""
    if key.endswith("_slack"):
        return report.bound(key[: -len("_slack")]).slack
    owner, name = report, key
    if key.endswith("_avg"):
        owner, name = report.averages, key[: -len("_avg")]
    value = getattr(owner, name, None)
    if isinstance(value, float):
        return value
    if key.startswith("ln_"):
        return ln_or_neg_inf(report_value(report, key[len("ln_"):]))
    raise KeyError(key)


# The Bell states' signs, rows (a, b) and columns m: |bell_m> = sum_ab s[ab, m] |a,b> / sqrt2.
_BELL_SIGNS = np.array([[1.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 1.0],
                        [0.0, 0.0, 1.0, -1.0],
                        [1.0, -1.0, 0.0, 0.0]])


def bell_basis() -> np.ndarray:
    """The four maximally entangled two-qubit states as columns:
    (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2."""
    return _BELL_SIGNS / math.sqrt(2.0)


def werner_delta_i_avg(p: float) -> float:
    """Closed-form <dI> for the isothermal Werner process."""
    out = -(1.0 + 3.0 * p) / 4.0 * math.log(1.0 + 3.0 * p) if p > 0.0 else 0.0
    if p < 1.0:
        out -= 0.75 * (1.0 - p) * math.log(1.0 - p)
    return out


def _werner_spectrum(p: float) -> np.ndarray:
    """Eigenvalues of p |bell_0><bell_0| + (1-p)/4 I, descending; a fresh
    array on every call, since ``spectra_from_analytic`` keeps float
    arrays without copying them."""
    return np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)


def _werner_spectra(p: float, tol: Tolerances) -> SystemSpectra:
    kernel = np.zeros((4, 4, 1, 1))
    kernel[:, 0, 0, 0] = 1.0                  # every m relaxes to the final ground state
    reverse_kernel = np.full((4, 4, 1, 1), 0.25)  # re-expansion is uniform over m

    return spectra_from_analytic(SystemSpectra(
        # initial basis is the Bell basis, final basis the product basis
        initial=Endpoint(p_m=_werner_spectrum(p), p_a=np.array([0.5, 0.5]),
                         p_b=np.array([0.5, 0.5]),
                         # |<bell_m|a,b>|^2 as [m, a, b]: exactly 0.5 and 0.0
                         cond=np.ascontiguousarray((_BELL_SIGNS ** 2 / 2.0).T.reshape(4, 2, 2))),
        final=Endpoint(p_m=np.array([1.0, 0.0, 0.0, 0.0]), p_a=np.array([1.0, 0.0]),
                       p_b=np.array([1.0, 0.0]), cond=np.eye(4).reshape(4, 2, 2)),
        p_r=np.array([1.0]),
        kernel=kernel, reverse_kernel=reverse_kernel,
        # Quasi-static heat bookkeeping: each qubit absorbs -ln2 / beta,
        # deterministic along every trajectory.
        beta_q=np.array([[-2.0 * LN2]]),
    ), tol)


def werner_isothermal(p: float, beta: float = 1.0,
                      tol: Tolerances = DEFAULT_TOL) -> Scenario:
    """Isothermal gap sweep on both halves of a Werner state."""
    beta = float(beta)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"werner fraction must lie in [0, 1], got {p}")
    if not (beta > 0.0 and math.isfinite(LN2 / beta)):
        raise DomainError(f"beta must be positive with ln2/beta finite, got {beta}")
    # The dimensionless heat exponent -2 ln 2 does not depend on beta;
    # beta only scales the work/free-energy bookkeeping below.
    spectra = _werner_spectra(p, tol)
    # Work done on each qubit is ln2 / beta, so extracted work is its
    # negative; each subsystem free energy rises by ln2 / beta.
    work = WorkInputs(work_a=-LN2 / beta, work_b=-LN2 / beta,
                      delta_f_a=LN2 / beta, delta_f_b=LN2 / beta, beta=beta)
    gamma = 0.25 if p == 1.0 else 1.0
    di = werner_delta_i_avg(p)
    reference = {
        "gamma_restricted": gamma,
        "integral_ft_lhs": gamma,
        "reverse_avg_exp_di": 1.0,
        "reverse_ft_lhs": 1.0,
        "delta_s_a_avg": -LN2,
        "delta_s_b_avg": -LN2,
        "beta_q_avg": -2.0 * LN2,
        "delta_i_avg": di,
        "bound_gap": -di,
        "heat_bound_reverse_info_slack": 0.0,
        "heat_bound_info_gamma_slack": -di + math.log(gamma),
    }
    return Scenario("werner", {"p": p, "beta": beta}, spectra, reference, work)


def counterexample_delta_i_avg(p: float) -> float:
    return (1.0 + p) * math.log(1.0 + p) + (1.0 - p) * math.log(1.0 - p)


def counterexample_reverse_avg(p: float) -> float:
    return (1.0 + p - p * p) / ((1.0 + p) ** 2 * (1.0 - p))


def _counterexample_unitary_system(p: float, tol: Tolerances) -> UnitarySystem:
    rho = density_operator(np.diag(_werner_spectrum(p)).astype(complex), tol)
    u = bell_basis().astype(complex)          # |product_m> -> |bell_m>
    return UnitarySystem(dim_a=2, dim_b=2, rho_ab=rho,
                         reservoir=ReservoirSpec(energies=(0.0,), beta=1.0),
                         unitary=u)


def bell_adiabatic_counterexample(p: float, tol: Tolerances = DEFAULT_TOL) -> Scenario:
    """Adiabatic product-to-Bell dynamics where the reverse-averaged
    information bound loses to the plain one."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"counterexample fraction must lie in (0, 1), got {p}")
    spectra = spectra_from_unitary(_counterexample_unitary_system(p, tol), tol)
    di = counterexample_delta_i_avg(p)
    rev = counterexample_reverse_avg(p)
    reference = {
        "gamma_restricted": 1.0,
        "integral_ft_lhs": 1.0,
        "delta_i_avg": di,
        "reverse_avg_exp_di": rev,
        "beta_q_avg": 0.0,
        "bound_gap": -math.log(rev) - di,
    }
    return Scenario("counterexample", {"p": p}, spectra, reference)


def _mixed_spectrum(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Dirichlet spectrum mixed 10% toward uniform.

    The mixing keeps every level above 0.1/dim, which keeps reverse/forward
    probability ratios (and hence the detailed-relation residual) well
    inside double-precision headroom.
    """
    lam = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
    return lam / lam.sum()


def random_instance(dim_a: int, dim_b: int, dim_r: int, seed: int,
                    beta: float = 1.0,
                    rank_deficient: bool = False,
                    degenerate: bool = False,
                    tol: Tolerances = DEFAULT_TOL) -> UnitarySystem:
    """Reproducible generic system: Haar-rotated spectrum, reservoir
    energies uniform on [0, 5/beta], Haar propagator on the whole space.

    ``rank_deficient`` zeroes a random tail of the spectrum so the
    restricted reverse mass can drop below 1; ``degenerate`` duplicates
    eigenvalues in pairs so the eigenbasis gauge is free.  The state is
    validated and decomposed at ``tol``.
    """
    if not (beta > 0.0 and math.isfinite(5.0 / beta)):
        raise DomainError(f"beta must be positive with 5/beta finite, got {beta}")
    d_m = dim_a * dim_b
    if rank_deficient and d_m < 2:
        raise DomainError("rank_deficient needs d_A * d_B >= 2")
    rng = np.random.default_rng(seed)
    lam = _mixed_spectrum(rng, d_m)
    if degenerate:
        half = (d_m + 1) // 2
        lam = np.repeat(lam[:half], 2)[:d_m]
        lam = lam / lam.sum()
    if rank_deficient:
        cut = int(rng.integers(1, d_m))
        lam = np.sort(lam)[::-1]
        lam[cut:] = 0.0
        lam = lam / lam.sum()
    v = haar_unitary(d_m, rng)
    rho = (v * lam) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    energies = np.sort(rng.uniform(0.0, 5.0 / beta, size=dim_r))
    u = haar_unitary(d_m * dim_r, rng)
    return UnitarySystem(dim_a=dim_a, dim_b=dim_b,
                         rho_ab=density_operator(rho, tol),
                         reservoir=ReservoirSpec(energies=tuple(energies), beta=beta),
                         unitary=u)


def random_scenario(seed: int = 0, dims=(2, 2, 2), beta: float = 1.0,
                    rank_deficient: bool = False,
                    tol: Tolerances = DEFAULT_TOL) -> Scenario:
    """``random_instance(*dims, seed)`` as a Scenario.  At full rank the
    support is the whole space, so the restricted reverse mass
    and the integral relation's left side are 1."""
    beta = float(beta)
    system = random_instance(*dims, seed, beta=beta, rank_deficient=rank_deficient, tol=tol)
    reference = {} if rank_deficient else {"gamma_restricted": 1.0, "integral_ft_lhs": 1.0}
    return Scenario("random", {"seed": seed, "dims": list(dims), "beta": beta},
                    spectra_from_unitary(system, tol), reference)


# Each named system's builder; the config keys it reads are its keyword parameters but ``tol``.
SCENARIOS = {
    "werner": werner_isothermal,
    "counterexample": bell_adiabatic_counterexample,
    "random": random_scenario,
}
