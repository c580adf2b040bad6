"""Concrete systems with known closed-form behavior, plus reproducible
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
  Runs either through the generic propagator engine ("unitary" route)
  or as an injected kernel ("analytic" route); both must agree.

* ``random_instance`` -- reproducible generic systems (Haar-rotated
  spectra, thermal reservoir, Haar propagator) for equality checks, with
  flags for rank deficiency (exercising restricted mass < 1) and exact
  spectral degeneracy (exercising gauge freedom).
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
from .tables import SystemSpectra, UnitarySystem, spectra_from_analytic, spectra_from_unitary
from .theorems import Analysis, WorkInputs, evaluate

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScenarioResult:
    """A named system run end to end, with its closed-form reference
    values (keys resolvable against the report via
    :func:`report_value`)."""

    name: str
    params: dict
    analysis: Analysis
    reference: dict[str, float]

    @property
    def report(self):
        return self.analysis.report


def report_value(report, key: str) -> float:
    """Resolve a reference key against an FTReport."""
    direct = {
        "gamma_restricted": report.gamma_restricted,
        "integral_ft_lhs": report.integral_ft_lhs,
        "reverse_avg_exp_di": report.reverse_avg_exp_di,
        "reverse_ft_lhs": report.reverse_ft_lhs,
        "bound_gap": report.bound_gap,
        "delta_s_a_avg": report.averages.delta_s_a,
        "delta_s_b_avg": report.averages.delta_s_b,
        "delta_i_avg": report.averages.delta_i,
        "delta_j_avg": report.averages.delta_j,
        "beta_q_avg": report.averages.beta_q,
    }
    if key in direct:
        return direct[key]
    if key.endswith("_slack"):
        return report.bound(key[: -len("_slack")]).slack
    raise KeyError(key)


def bell_basis() -> np.ndarray:
    """The four maximally entangled two-qubit states as columns:
    (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2."""
    b = np.zeros((4, 4))
    b[:, 0] = (1, 0, 0, 1)
    b[:, 1] = (1, 0, 0, -1)
    b[:, 2] = (0, 1, 1, 0)
    b[:, 3] = (0, 1, -1, 0)
    return b / math.sqrt(2.0)


def werner_state(p: float) -> np.ndarray:
    """p |bell_0><bell_0| + (1-p)/4 I as a 4x4 matrix."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"werner fraction must lie in [0, 1], got {p}")
    b0 = bell_basis()[:, 0]
    return p * np.outer(b0, b0) + (1.0 - p) / 4.0 * np.eye(4)


def werner_delta_i_avg(p: float) -> float:
    """Closed-form <dI> for the isothermal Werner process."""
    out = -(1.0 + 3.0 * p) / 4.0 * math.log(1.0 + 3.0 * p) if p > 0.0 else 0.0
    if p < 1.0:
        out -= 0.75 * (1.0 - p) * math.log(1.0 - p)
    return out


def _werner_spectra(p: float, tol: Tolerances) -> SystemSpectra:
    p_m = np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)
    cond_i = np.zeros((4, 2, 2))
    cond_i[0, 0, 0] = cond_i[0, 1, 1] = 0.5   # (|00>+|11>)/sqrt2
    cond_i[1, 0, 0] = cond_i[1, 1, 1] = 0.5   # (|00>-|11>)/sqrt2
    cond_i[2, 0, 1] = cond_i[2, 1, 0] = 0.5   # (|01>+|10>)/sqrt2
    cond_i[3, 0, 1] = cond_i[3, 1, 0] = 0.5   # (|01>-|10>)/sqrt2
    cond_f = np.zeros((4, 2, 2))              # final basis is the product basis
    cond_f[0, 0, 0] = cond_f[1, 0, 1] = cond_f[2, 1, 0] = cond_f[3, 1, 1] = 1.0

    kernel = np.zeros((4, 1, 4, 1))
    kernel[:, 0, 0, 0] = 1.0                  # every m relaxes to the final ground state
    reverse_kernel = np.full((4, 1, 4, 1), 0.25)  # re-expansion is uniform over m

    return spectra_from_analytic(SystemSpectra(
        dim_a=2, dim_b=2, dim_r=1,
        p_m=p_m,
        p_a=np.array([0.5, 0.5]), p_b=np.array([0.5, 0.5]),
        p_m_final=np.array([1.0, 0.0, 0.0, 0.0]),
        p_a_final=np.array([1.0, 0.0]), p_b_final=np.array([1.0, 0.0]),
        cond_initial=cond_i, cond_final=cond_f,
        p_r=np.array([1.0]), p_r_reverse=np.array([1.0]),
        kernel=kernel, reverse_kernel=reverse_kernel,
        # Quasi-static heat bookkeeping: each qubit absorbs -ln2 / beta,
        # deterministic along every trajectory.
        beta_q=np.array([[-2.0 * LN2]]),
    ), tol)


def werner_isothermal(p: float, beta: float = 1.0,
                      tol: Tolerances = DEFAULT_TOL,
                      _reverse_corruption: float | None = None) -> ScenarioResult:
    """Isothermal gap sweep on both halves of a Werner state.

    ``_reverse_corruption`` is passed to :func:`evaluate` (negative
    control).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"werner fraction must lie in [0, 1], got {p}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    # The dimensionless heat exponent -2 ln 2 does not depend on beta;
    # beta only scales the work/free-energy bookkeeping below.
    spectra = _werner_spectra(p, tol)
    # Work done on each qubit is ln2 / beta, so extracted work is its
    # negative; each subsystem free energy rises by ln2 / beta.
    work = WorkInputs(work_a=-LN2 / beta, work_b=-LN2 / beta,
                      delta_f_a=LN2 / beta, delta_f_b=LN2 / beta, beta=beta)
    analysis = evaluate(spectra, work_inputs=work, tol=tol,
                        _reverse_corruption=_reverse_corruption)
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
    return ScenarioResult("werner", {"p": p, "beta": beta}, analysis, reference)


def counterexample_delta_i_avg(p: float) -> float:
    return (1.0 + p) * math.log(1.0 + p) + (1.0 - p) * math.log(1.0 - p)


def counterexample_reverse_avg(p: float) -> float:
    return (1.0 + p - p * p) / ((1.0 + p) ** 2 * (1.0 - p))


def _counterexample_unitary_system(p: float) -> UnitarySystem:
    lam = np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)
    rho = density_operator(np.diag(lam).astype(complex))
    u = bell_basis().astype(complex)          # |product_m> -> |bell_m>
    return UnitarySystem(dim_a=2, dim_b=2, rho_ab=rho,
                         reservoir=ReservoirSpec(energies=(0.0,), beta=1.0),
                         unitary=u)


def _counterexample_analytic_spectra(p: float, tol: Tolerances) -> SystemSpectra:
    p_m = np.array([(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3)
    cond_i = np.zeros((4, 2, 2))              # initial basis is the product basis
    cond_i[0, 0, 0] = cond_i[1, 0, 1] = cond_i[2, 1, 0] = cond_i[3, 1, 1] = 1.0
    cond_f = np.zeros((4, 2, 2))              # final basis is the Bell basis
    cond_f[0, 0, 0] = cond_f[0, 1, 1] = 0.5
    cond_f[1, 0, 0] = cond_f[1, 1, 1] = 0.5
    cond_f[2, 0, 1] = cond_f[2, 1, 0] = 0.5
    cond_f[3, 0, 1] = cond_f[3, 1, 0] = 0.5
    kernel = np.zeros((4, 1, 4, 1))
    for m in range(4):
        kernel[m, 0, m, 0] = 1.0              # adiabatic: each level follows itself
    local = np.array([(1.0 + p) / 2.0, (1.0 - p) / 2.0])
    return spectra_from_analytic(SystemSpectra(
        dim_a=2, dim_b=2, dim_r=1,
        p_m=p_m, p_a=local, p_b=local,
        p_m_final=p_m.copy(),
        p_a_final=np.array([0.5, 0.5]), p_b_final=np.array([0.5, 0.5]),
        cond_initial=cond_i, cond_final=cond_f,
        p_r=np.array([1.0]), p_r_reverse=np.array([1.0]),
        kernel=kernel, reverse_kernel=kernel.copy(),
        beta_q=np.array([[0.0]]),
    ), tol)


def bell_adiabatic_counterexample(p: float, route: str = "unitary",
                                  tol: Tolerances = DEFAULT_TOL,
                                  _reverse_corruption: float | None = None) -> ScenarioResult:
    """Adiabatic product-to-Bell dynamics where the reverse-averaged
    information bound loses to the plain one.

    ``_reverse_corruption`` is passed to :func:`evaluate` (negative
    control).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"counterexample fraction must lie in (0, 1), got {p}")
    if route == "unitary":
        spectra = spectra_from_unitary(_counterexample_unitary_system(p), tol=tol)
    elif route == "analytic":
        spectra = _counterexample_analytic_spectra(p, tol)
    else:
        raise DomainError(f"unknown route {route!r}; expected 'unitary' or 'analytic'")
    analysis = evaluate(spectra, tol=tol, _reverse_corruption=_reverse_corruption)
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
    return ScenarioResult("counterexample", {"p": p, "route": route}, analysis, reference)


def _mixed_spectrum(rng: np.random.Generator, dim: int, floor: float = 1e-6) -> np.ndarray:
    """Dirichlet spectrum mixed 10% toward uniform.

    The mixing keeps every level above 0.1/dim, which keeps reverse/forward
    probability ratios (and hence the detailed-relation residual) well
    inside double-precision headroom; the absolute floor is a backstop.
    """
    lam = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
    lam = np.maximum(lam, floor)
    return lam / lam.sum()


def random_instance(dim_a: int, dim_b: int, dim_r: int, seed: int,
                    beta: float = 1.0,
                    rank_deficient: bool = False,
                    degenerate: bool = False) -> UnitarySystem:
    """Reproducible generic system: Haar-rotated spectrum, reservoir
    energies uniform on [0, 5/beta], Haar propagator on the whole space.

    ``rank_deficient`` zeroes a random tail of the spectrum so the
    restricted reverse mass can drop below 1; ``degenerate`` duplicates
    eigenvalues in pairs so the eigenbasis gauge is free.
    """
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    rng = np.random.default_rng(seed)
    d_m = dim_a * dim_b
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
                         rho_ab=density_operator(rho),
                         reservoir=ReservoirSpec(energies=tuple(energies), beta=beta),
                         unitary=u)


def random_classical_instance(dim_a: int, dim_b: int, dim_r: int, seed: int,
                              beta: float = 1.0) -> UnitarySystem:
    """System whose global eigenbases stay product bases: a diagonal
    (classically correlated) initial state, a computational-basis
    permutation of the whole space, then local rotations."""
    rng = np.random.default_rng(seed)
    d_m = dim_a * dim_b
    lam = _mixed_spectrum(rng, d_m)
    rho = np.diag(lam).astype(complex)
    perm = rng.permutation(d_m * dim_r)
    p_mat = np.eye(d_m * dim_r)[:, perm].astype(complex)
    u_local = np.kron(np.kron(haar_unitary(dim_a, rng), haar_unitary(dim_b, rng)),
                      np.eye(dim_r))
    energies = np.sort(rng.uniform(0.0, 5.0 / beta, size=dim_r))
    return UnitarySystem(dim_a=dim_a, dim_b=dim_b,
                         rho_ab=density_operator(rho),
                         reservoir=ReservoirSpec(energies=tuple(energies), beta=beta),
                         unitary=u_local @ p_mat)
