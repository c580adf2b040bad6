import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bift.functionals import (
    classical_factors,
    ft_factors,
    info_factors,
    local_factors,
    shannon_entropy,
)
from bift.linalg import ReservoirSpec, density_operator
from bift.scenarios import random_instance, werner_isothermal
from bift.tables import UnitarySystem, spectra_from_unitary
from bift.theorems import evaluate, forward_averages

from conftest import (
    dense_tables,
    dense_tuple_functionals,
    log_or_zero,
    replace_endpoint,
    werner_spectra,
)

LN2 = math.log(2.0)

finite_probs = st.floats(min_value=1e-6, max_value=1.0)


def reservoir_spectra(reservoir: ReservoirSpec):
    """A one-level system coupled trivially to ``reservoir``."""
    d_r = reservoir.dim
    system = UnitarySystem(1, 1, density_operator(np.eye(1, dtype=complex)), reservoir,
                           np.eye(d_r, dtype=complex))
    return spectra_from_unitary(system)


class TestScalarFunctionals:
    """Per-outcome entries of the table functionals: entropy changes
    (``log_or_zero``), info contents (``Endpoint.info``) and the
    heat exponent (``beta_q``)."""

    def test_entropy_change_examples(self):
        got = log_or_zero(np.array([0.5, 0.25])) - log_or_zero(np.array([1.0, 0.5]))
        assert got == pytest.approx([-LN2, -LN2])

    @given(q=finite_probs)
    def test_entropy_change_no_change(self, q):
        local = np.array([q, 1.0 - q])
        spectra = replace_endpoint(werner_spectra(), "initial", p_a=local)
        spectra = replace_endpoint(spectra, "final", p_a=local)
        for a in range(2):
            assert spectra.initial.l_pa[a] - spectra.final.l_pa[a] == 0.0

    def test_entropy_change_zero_convention(self):
        spectra = replace_endpoint(werner_spectra(), "initial", p_a=np.array([1.0, 0.0]))
        spectra = replace_endpoint(spectra, "final", p_a=np.array([0.5, 0.5]))
        # ln 0 := 0 for the vanished initial weight
        assert spectra.initial.l_pa[1] - spectra.final.l_pa[0] == pytest.approx(LN2)

    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_info_content_werner_rows(self, p):
        info_i = werner_spectra(p).initial.info
        assert np.all(np.abs(info_i[0] - math.log(1 + 3 * p)) < 1e-12)
        if p < 1.0:
            assert np.all(np.abs(info_i[1:] - math.log(1 - p)) < 1e-12)

    def test_info_content_zero_outright(self):
        # a vanished global weight zeroes the whole content, not just one log
        info_i = werner_spectra(1.0).initial.info
        assert np.all(info_i[1:] == 0.0)

    @given(pa=finite_probs, pb=finite_probs)
    def test_info_content_product(self, pa, pb):
        p_a = np.array([pa, 1.0 - pa])
        p_b = np.array([pb, 1.0 - pb])
        spectra = replace_endpoint(werner_spectra(), "initial",
                                   p_m=np.kron(p_a, p_b), p_a=p_a, p_b=p_b)
        info_i = spectra.initial.info
        for a in range(2):
            for b in range(2):
                assert info_i[2 * a + b, a, b] == pytest.approx(0.0, abs=1e-10)

    def test_classical_content(self):
        # the final Werner joint is a point mass with J = 0 on it, so
        # -delta_j over (a, b) with (a', b') = (0, 0) is the initial J table
        def minus_delta_j(spectra):
            return spectra.initial.classical - spectra.final.classical[0, 0]

        j_pure = minus_delta_j(werner_spectra(1.0))
        assert j_pure[0, 0] == pytest.approx(LN2)       # p_ab = 1/2
        assert j_pure[0, 1] == 0.0                      # p_ab = 0: zero outright
        j_mixed = minus_delta_j(werner_spectra(0.0))
        assert np.max(np.abs(j_mixed)) < 1e-12          # p_ab = 1/4 = p_a p_b

    def test_classical_content_werner_pure(self):
        # marginal (a, b) joint of the pure-state table: both aligned pairs
        # carry 1/2, and it is the joint the J table is built from
        spectra = werner_spectra(1.0)
        joint = dense_tables(spectra)[0].sum(axis=(0, 3, 4, 5, 6, 7))
        assert joint[0, 0] == pytest.approx(0.5)
        assert np.max(np.abs(joint - spectra.initial.classical_joint())) < 1e-15
        assert (spectra.initial.classical[0, 0] - spectra.final.classical[0, 0]
                == pytest.approx(LN2))

    def test_heat_exponent(self):
        beta_q = reservoir_spectra(ReservoirSpec((0.0, 3.0), 2.0)).beta_q
        assert beta_q[0, 0] == 0.0
        assert beta_q[1, 1] == 0.0
        assert beta_q[1, 0] == pytest.approx(6.0)

    @given(e_r=st.floats(0, 5), e_rf=st.floats(0, 5),
           beta=st.floats(0.1, 3.0))
    @settings(max_examples=40)
    def test_heat_exponent_gibbs_consistency(self, e_r, e_rf, beta):
        reservoir = ReservoirSpec((e_r, e_rf, 0.0), beta)
        p_r = reservoir.gibbs_probabilities()
        assert reservoir_spectra(reservoir).beta_q[0, 1] == pytest.approx(
            math.log(p_r[1]) - math.log(p_r[0]), abs=1e-10)

    def test_log_or_zero_threshold(self):
        # only 0.0 is zero: a weight of 1e-20 keeps its log
        vals = log_or_zero(np.array([0.5, 0.0, 1e-20]))
        assert vals[0] == pytest.approx(math.log(0.5))
        assert vals[1] == 0.0
        assert vals[2] == math.log(1e-20)


class TestAverages:
    def test_average_of_one(self):
        spectra = werner_isothermal(0.4).spectra
        assert spectra.expectation(spectra.block_sums()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_info_average_is_quantum_mutual_information(self, seed):
        spectra = spectra_from_unitary(random_instance(2, 3, 2, seed))
        for side in ("initial", "final"):
            end = getattr(spectra, side)
            got = spectra.expectation(spectra.block_sums(), **{side: end.info})
            want = (shannon_entropy(end.p_a) + shannon_entropy(end.p_b)
                    - shannon_entropy(end.p_m))
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_classical_average_is_shannon_mutual_information(self, seed):
        spectra = spectra_from_unitary(random_instance(2, 2, 2, seed))
        averages = forward_averages(spectra)
        # delta_j averages to MI(final joint) - MI(initial joint)
        def mi(end):
            return (shannon_entropy(end.p_a) + shannon_entropy(end.p_b)
                    - shannon_entropy(end.classical_joint().ravel()))

        want = mi(spectra.final) - mi(spectra.initial)
        assert averages.delta_j == pytest.approx(want, abs=1e-10)

    def test_zero_weight_tuples_contribute_nothing(self):
        spectra = werner_isothermal(1.0).spectra
        # a functional that explodes off the support must not leak in
        weight_i = spectra.initial.p_m[:, None, None] * spectra.initial.cond
        spiked = np.where(weight_i > 0.0, 1.0, 1e300)
        forward = spectra.block_sums()
        assert spectra.expectation(forward, initial=spiked) == pytest.approx(1.0, abs=1e-12)
        spiked_f = np.where(spectra.final.cond > 0.0, 1.0, 1e300)
        assert spectra.expectation(forward, final=spiked_f) == pytest.approx(1.0, abs=1e-12)

    def test_restricted_vs_full_reverse_average(self):
        analysis = evaluate(werner_isothermal(1.0).spectra)
        assert analysis.report.gamma_restricted == pytest.approx(0.25)
        spectra = analysis.spectra
        assert spectra.expectation(spectra.block_sums(reverse=True)) == pytest.approx(1.0)


class TestTupleFunctionals:
    """The per-endpoint tables (``Endpoint``'s) against the
    dense eight-axis functionals of the test oracle."""

    def test_werner_fields(self):
        spectra = werner_isothermal(0.5).spectra
        # every trajectory drops both local surprisals by ln 2
        i, f = spectra.initial, spectra.final
        assert np.max(np.abs(np.subtract.outer(i.l_pa, f.l_pa) + LN2)) < 1e-12
        assert np.max(np.abs(np.subtract.outer(i.l_pb, f.l_pb) + LN2)) < 1e-12
        assert spectra.beta_q.ravel()[0] == pytest.approx(-2 * LN2)

    def test_exponent_composition(self, rng):
        spectra = spectra_from_unitary(random_instance(2, 2, 2, seed=17))
        traj = dense_tuple_functionals(spectra)
        manual = -traj.delta_s_a - traj.delta_s_b + traj.delta_i + traj.beta_q
        assert np.max(np.abs(traj.ft_exponent() - manual)) == 0.0
        # the factors multiply back to the exponential on every tuple
        for factors, pair, exponent in (
                (ft_factors(spectra), spectra.exp_beta_q, traj.ft_exponent()),
                (local_factors(spectra), spectra.exp_beta_q, traj.local_exponent()),
                (classical_factors(spectra), spectra.exp_beta_q, traj.classical_exponent()),
                (info_factors(spectra), 1.0, -traj.delta_i)):
            e_i, e_f, pair = (np.asarray(x, dtype=float) for x in (*factors, pair))
            e_i = np.broadcast_to(e_i, spectra.initial.cond.shape)
            e_f = np.broadcast_to(e_f, spectra.final.cond.shape)
            pair = np.broadcast_to(pair, spectra.beta_q.shape)
            composed = (e_i[:, :, :, None, None, None, None, None]
                        * e_f[None, None, None, :, :, :, None, None] * pair)
            want = np.broadcast_to(np.exp(exponent), composed.shape)
            assert np.max(np.abs(composed / want - 1.0)) < 1e-12
