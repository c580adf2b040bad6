import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bift.errors import PartitionUnavailable
from bift.functionals import (
    HeatPartition,
    TrajectoryFunctional,
    average,
    entropy_production,
    info_content_tables,
    log_or_zero,
    restricted_average,
    shannon_entropy,
    tuple_functionals,
)
from bift.linalg import ReservoirSpec, density_operator
from bift.scenarios import random_instance, werner_isothermal
from bift.tables import UnitarySystem, augmented_forward, marginal, spectra_from_unitary

from conftest import werner_spectra

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
    (``log_or_zero``), info contents (``info_content_tables`` and
    ``tuple_functionals``) and the heat exponent (``beta_q``)."""

    def test_entropy_change_examples(self):
        got = log_or_zero(np.array([0.5, 0.25]), 1.0) - log_or_zero(np.array([1.0, 0.5]), 1.0)
        assert got == pytest.approx([-LN2, -LN2])

    @given(q=finite_probs)
    def test_entropy_change_no_change(self, q):
        local = np.array([q, 1.0 - q])
        traj = tuple_functionals(werner_spectra(p_a=local, p_a_final=local))
        for a in range(2):
            assert traj.delta_s_a[0, a, 0, 0, a, 0, 0, 0] == 0.0

    def test_entropy_change_zero_convention(self):
        traj = tuple_functionals(werner_spectra(p_a=np.array([1.0, 0.0]),
                                                p_a_final=np.array([0.5, 0.5])))
        # ln 0 := 0 for the vanished initial weight
        assert traj.delta_s_a[0, 1, 0, 0, 0, 0, 0, 0] == pytest.approx(LN2)

    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_info_content_werner_rows(self, p):
        info_i, _ = info_content_tables(werner_spectra(p))
        assert np.all(np.abs(info_i[0] - math.log(1 + 3 * p)) < 1e-12)
        if p < 1.0:
            assert np.all(np.abs(info_i[1:] - math.log(1 - p)) < 1e-12)

    def test_info_content_zero_outright(self):
        # a vanished global weight zeroes the whole content, not just one log
        info_i, _ = info_content_tables(werner_spectra(1.0))
        assert np.all(info_i[1:] == 0.0)

    @given(pa=finite_probs, pb=finite_probs)
    def test_info_content_product(self, pa, pb):
        p_a = np.array([pa, 1.0 - pa])
        p_b = np.array([pb, 1.0 - pb])
        info_i, _ = info_content_tables(werner_spectra(p_m=np.kron(p_a, p_b),
                                                       p_a=p_a, p_b=p_b))
        for a in range(2):
            for b in range(2):
                assert info_i[2 * a + b, a, b] == pytest.approx(0.0, abs=1e-10)

    def test_classical_content(self):
        # the final Werner joint is a point mass with J = 0 on it, so
        # -delta_j over (a, b) with (a', b') = (0, 0) is the initial J table
        j_pure = -tuple_functionals(werner_spectra(1.0)).delta_j[0, :, :, 0, 0, 0, 0, 0]
        assert j_pure[0, 0] == pytest.approx(LN2)       # p_ab = 1/2
        assert j_pure[0, 1] == 0.0                      # p_ab = 0: zero outright
        j_mixed = -tuple_functionals(werner_spectra(0.0)).delta_j[0, :, :, 0, 0, 0, 0, 0]
        assert np.max(np.abs(j_mixed)) < 1e-12          # p_ab = 1/4 = p_a p_b

    def test_classical_content_werner_pure(self):
        # marginal (a, b) joint of the pure-state table: both aligned pairs
        # carry 1/2, and it is the joint the J table is built from
        spectra = werner_spectra(1.0)
        joint = marginal(werner_isothermal(1.0).analysis.forward, ("a", "b"))
        assert joint[0, 0] == pytest.approx(0.5)
        assert np.max(np.abs(joint - spectra.classical_joint_initial())) < 1e-15
        traj = tuple_functionals(spectra)
        assert -traj.delta_j[0, 0, 0, 0, 0, 0, 0, 0] == pytest.approx(LN2)

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
        vals = log_or_zero(np.array([0.5, 0.0, 1e-20]), reference=1.0)
        assert vals[0] == pytest.approx(math.log(0.5))
        assert vals[1] == 0.0
        assert vals[2] == 0.0


class TestAverages:
    def test_average_of_one(self):
        fwd = werner_isothermal(0.4).analysis.forward
        assert average(fwd, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_info_average_is_quantum_mutual_information(self, seed):
        spectra = spectra_from_unitary(random_instance(2, 3, 2, seed))
        fwd = augmented_forward(spectra)
        info_i, info_f = info_content_tables(spectra)
        d = spectra.dims
        got_i = average(fwd, info_i.reshape(d[0], d[1], d[2], 1, 1, 1, 1, 1))
        want_i = (shannon_entropy(spectra.p_a) + shannon_entropy(spectra.p_b)
                  - shannon_entropy(spectra.p_m))
        assert got_i == pytest.approx(want_i, abs=1e-10)
        got_f = average(fwd, info_f.reshape(1, 1, 1, d[0], d[1], d[2], 1, 1))
        want_f = (shannon_entropy(spectra.p_a_final) + shannon_entropy(spectra.p_b_final)
                  - shannon_entropy(spectra.p_m_final))
        assert got_f == pytest.approx(want_f, abs=1e-10)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_classical_average_is_shannon_mutual_information(self, seed):
        spectra = spectra_from_unitary(random_instance(2, 2, 2, seed))
        fwd = augmented_forward(spectra)
        traj = tuple_functionals(spectra)
        # delta_j averages to MI(final joint) - MI(initial joint)
        p_ab_i = spectra.classical_joint_initial()
        p_ab_f = spectra.classical_joint_final()

        def mi(p_ab, p_a, p_b):
            return (shannon_entropy(p_a) + shannon_entropy(p_b)
                    - shannon_entropy(p_ab.ravel()))

        want = (mi(p_ab_f, spectra.p_a_final, spectra.p_b_final)
                - mi(p_ab_i, spectra.p_a, spectra.p_b))
        assert average(fwd, traj.delta_j) == pytest.approx(want, abs=1e-10)

    def test_zero_weight_tuples_contribute_nothing(self):
        analysis = werner_isothermal(1.0).analysis
        # a functional that explodes off the support must not leak in
        spiked = np.where(analysis.forward.table > 0.0, 1.0, 1e300)
        assert average(analysis.forward, spiked) == pytest.approx(1.0, abs=1e-12)

    def test_restricted_vs_full_reverse_average(self):
        analysis = werner_isothermal(1.0).analysis
        ones = np.ones(analysis.reverse.dims)
        assert restricted_average(analysis.reverse, ones) == pytest.approx(0.25)
        assert average(analysis.reverse, ones) == pytest.approx(1.0)


class TestEntropyProduction:
    def test_requires_partition(self):
        traj = TrajectoryFunctional(delta_s_a=0.1, delta_s_b=0.2,
                                    delta_i=0.0, beta_q=0.3)
        with pytest.raises(PartitionUnavailable):
            entropy_production(traj, None)

    def test_even_split_no_correlation(self):
        # Q_A = Q_B = Q/2 and no info change: the correlation term vanishes
        traj = TrajectoryFunctional(delta_s_a=0.4, delta_s_b=-0.1,
                                    delta_i=0.0, beta_q=0.6)
        part = HeatPartition(q_a=0.1, q_b=0.1, beta=3.0)
        sigma_a, sigma_b, delta_gamma = entropy_production(traj, part)
        assert sigma_a == pytest.approx(0.4 - 0.3)
        assert sigma_b == pytest.approx(-0.1 - 0.3)
        assert delta_gamma == pytest.approx(0.0)

    @given(ds_a=st.floats(-2, 2), ds_b=st.floats(-2, 2), di=st.floats(-2, 2),
           bq=st.floats(-2, 2), qa=st.floats(-1, 1), qb=st.floats(-1, 1),
           beta=st.floats(0.2, 4.0))
    @settings(max_examples=60)
    def test_recombination_identity(self, ds_a, ds_b, di, bq, qa, qb, beta):
        traj = TrajectoryFunctional(delta_s_a=ds_a, delta_s_b=ds_b,
                                    delta_i=di, beta_q=bq)
        sigma_a, sigma_b, delta_gamma = entropy_production(
            traj, HeatPartition(q_a=qa, q_b=qb, beta=beta))
        lhs = -sigma_a - sigma_b + delta_gamma
        rhs = -ds_a - ds_b + di + bq
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_heat_shares_sum_back(self):
        traj = TrajectoryFunctional(delta_s_a=0.0, delta_s_b=0.0,
                                    delta_i=0.5, beta_q=1.2)
        part = HeatPartition(q_a=0.3, q_b=0.1, beta=2.0)
        _, _, delta_gamma = entropy_production(traj, part)
        # Q' = Q - (Q_A + Q_B); beta Q' = 1.2 - 0.6 - 0.2 = 0.4
        assert delta_gamma == pytest.approx(0.5 + 0.4)


class TestTupleFunctionals:
    def test_werner_fields(self):
        spectra = werner_isothermal(0.5).analysis.spectra
        traj = tuple_functionals(spectra)
        # every trajectory drops both local surprisals by ln 2
        assert np.max(np.abs(traj.delta_s_a + LN2)) < 1e-12
        assert np.max(np.abs(traj.delta_s_b + LN2)) < 1e-12
        assert traj.beta_q.ravel()[0] == pytest.approx(-2 * LN2)

    def test_exponent_composition(self, rng):
        spectra = spectra_from_unitary(random_instance(2, 2, 2, seed=17))
        traj = tuple_functionals(spectra)
        composed = traj.ft_exponent()
        manual = -traj.delta_s_a - traj.delta_s_b + traj.delta_i + traj.beta_q
        assert np.max(np.abs(composed - manual)) == 0.0
