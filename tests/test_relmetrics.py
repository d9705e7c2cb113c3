import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from helpers import (
    doubly_stochastic_map,
    ds_literal,
    random_cpmap,
    random_pd,
    random_upper,
    spectrum,
)
from opscale import (
    CPMap,
    MarginalSpec,
    NotInvertible,
    ScalingPair,
    capacity_change_factor,
    capacity_lower_bound,
    ds_distance,
    ds_threshold,
    estimate_capacity,
    relative_det,
    shannon_entropy,
)
from opscale.cpmap import marginals
from opscale.relmetrics import (
    CapacityTrace,
    deltas,
    ds_from_marginals,
    log_capacity_change_factor,
    log_capacity_lower_bound,
    log_relative_det,
    rel_det_multiplicativity_check,
    relative_det_signed,
)


class TestRelativeDet:
    def test_uniform_weights_give_plain_determinant(self):
        rng = np.random.default_rng(0)
        X = random_pd(rng, 4)
        npt.assert_allclose(relative_det(np.ones(4), X),
                            np.linalg.det(X).real, rtol=1e-10)

    def test_two_one_weights_expand_by_hand(self):
        rng = np.random.default_rng(1)
        X = random_pd(rng, 2)
        expected = X[0, 0].real * np.linalg.det(X).real
        npt.assert_allclose(relative_det([2.0, 1.0], X), expected, rtol=1e-10)

    def test_identity_gives_one(self):
        npt.assert_allclose(relative_det([3.0, 1.5, 0.2], np.eye(3)), 1.0)

    def test_boundary_minor_gives_zero(self):
        X = np.diag([1e-310, 1.0]).astype(complex)
        assert relative_det([2.0, 1.0], X) == 0.0
        assert log_relative_det([2.0, 1.0], X) == -np.inf

    def test_zero_delta_skips_singular_minor(self):
        # only the full determinant carries weight; X_11 may vanish
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        val = relative_det_signed([1.0, 1.0], X)
        npt.assert_allclose(val, -1.0, atol=1e-12)

    def test_multiplicativity_check_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = rng.integers(2, 7)
            a = np.sort(rng.uniform(0.1, 3.0, n))[::-1]
            X = random_pd(rng, n)
            h = random_upper(rng, n)
            assert rel_det_multiplicativity_check(a, X, h)

    def test_diagonal_character_formula(self):
        a = np.array([2.0, 1.0, 0.5])
        d = np.array([1.5, 0.7, 2.0])
        h = np.diag(d).astype(complex)
        expected = np.prod(d ** (2 * a))
        npt.assert_allclose(relative_det(a, h.conj().T @ h), expected,
                            rtol=1e-10)

    def test_signed_character_identity_for_triangular(self):
        rng = np.random.default_rng(3)
        a = np.array([2.0, 1.0, 0.5])
        g1, g2 = random_upper(rng, 3), random_upper(rng, 3)
        chi = lambda g: np.prod(np.diagonal(g) ** a)
        val = relative_det_signed(a, g1.conj().T @ g2)
        npt.assert_allclose(val, np.conj(chi(g1)) * chi(g2), rtol=1e-8)

    @given(st.integers(0, 2**32 - 1))
    def test_inverse_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        h = random_upper(rng, n)
        hinv = np.linalg.inv(h)
        prod = (relative_det(a, h.conj().T @ h)
                * relative_det(a, hinv.conj().T @ hinv))
        npt.assert_allclose(prod, 1.0, rtol=1e-8)


class TestDsDistance:
    def test_doubly_stochastic_at_ones_is_zero(self):
        T = doubly_stochastic_map(np.random.default_rng(4), 3, 3)
        assert ds_distance(T, MarginalSpec(np.ones(3), np.ones(3))) <= 1e-20

    def test_hand_computed_two_by_two(self):
        delta = 0.3
        primal = np.diag([1 + delta, 1 - delta]).astype(complex)
        dual = np.eye(2, dtype=complex)
        M = MarginalSpec([0.6, 0.4], [0.6, 0.4])
        # Delta q = (0.2, 0.4); corners contribute delta^2 and 2 delta^2
        expected = 0.2 * delta**2 + 0.4 * 2 * delta**2
        npt.assert_allclose(ds_from_marginals(primal, dual, M), expected,
                            rtol=1e-12)
        assert expected == pytest.approx(0.09)

    def test_agrees_with_independent_transcription(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m, n = rng.integers(2, 5, 2)
            T = random_cpmap(rng, m, n, 3)
            M = MarginalSpec(spectrum(rng, n, 0.05), spectrum(rng, m, 0.05))
            primal, dual = marginals(T, M)
            npt.assert_allclose(ds_distance(T, M),
                                ds_literal(primal, dual, M.p, M.q),
                                rtol=1e-10, atol=1e-14)

    def test_dominates_weighted_frobenius_deviation(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            T = random_cpmap(rng, 3, 3, 4)
            M = MarginalSpec(spectrum(rng, 3, 0.05), spectrum(rng, 3, 0.05))
            primal, dual = marginals(T, M)
            bound = (M.p[-1] * np.linalg.norm(dual - np.eye(3), "fro") ** 2
                     + M.q[-1] * np.linalg.norm(primal - np.eye(3), "fro") ** 2)
            assert ds_distance(T, M) >= bound - 1e-12

    def test_threshold_uses_smallest_positive_entry(self):
        M = MarginalSpec([0.6, 0.4, 0.0], [0.5, 0.5])
        assert ds_threshold(1e-2, M) == pytest.approx(1e-4 * 0.4)
        with pytest.raises(ValueError):
            ds_threshold(1e-2, MarginalSpec([0.0], [0.0]))


class TestCapacityBookkeeping:
    def test_identity_pair_factor_one(self):
        M = MarginalSpec([0.6, 0.4], [0.5, 0.5])
        pair = ScalingPair(np.eye(2), np.eye(2))
        npt.assert_allclose(capacity_change_factor(pair, M), 1.0)

    def test_diagonal_factor_hand_value(self):
        M = MarginalSpec([1.0, 1.0], [1.0, 1.0])
        pair = ScalingPair(np.diag([2.0, 1.0]).astype(complex), np.eye(2))
        npt.assert_allclose(capacity_change_factor(pair, M), 4.0, rtol=1e-12)

    def test_inverse_pair_cancels(self):
        rng = np.random.default_rng(7)
        M = MarginalSpec(spectrum(rng, 3, 0.1), spectrum(rng, 3, 0.1))
        g, h = random_upper(rng, 3), random_upper(rng, 3)
        fwd = ScalingPair(g, h)
        back = ScalingPair(np.linalg.inv(g), np.linalg.inv(h))
        prod = capacity_change_factor(fwd, M) * capacity_change_factor(back, M)
        npt.assert_allclose(prod, 1.0, rtol=1e-10)

    def test_composition_multiplies(self):
        rng = np.random.default_rng(8)
        M = MarginalSpec(spectrum(rng, 3, 0.1), spectrum(rng, 3, 0.1))
        g1, h1, g2, h2 = (random_upper(rng, 3) for _ in range(4))
        lhs = capacity_change_factor(ScalingPair(g1 @ g2, h1 @ h2), M)
        rhs = (capacity_change_factor(ScalingPair(g1, h1), M)
               * capacity_change_factor(ScalingPair(g2, h2), M))
        npt.assert_allclose(lhs, rhs, rtol=1e-8)

    def test_singular_pair_not_invertible(self):
        M = MarginalSpec([1.0, 1.0], [1.0, 1.0])
        g = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NotInvertible):
            log_capacity_change_factor(ScalingPair(g, np.eye(2)), M)

    def test_lower_bound_formulas(self):
        lo, lo1 = log_capacity_lower_bound(1, 4)
        assert (lo, lo1) == (-10.0, -56.0)
        v, v1 = capacity_lower_bound(10, 2)
        npt.assert_allclose(v, math.exp(-100))
        npt.assert_allclose(v1, math.exp(-280))
        with pytest.raises(ValueError):
            log_capacity_lower_bound(0, 2)

    @pytest.mark.parametrize("b", [math.nan, -math.inf])
    def test_lower_bound_rejects_a_bit_size_that_is_not_at_least_one(self, b):
        with pytest.raises(ValueError):
            log_capacity_lower_bound(b, 2)

    def test_trace_cumulative_sums(self):
        trace = CapacityTrace()
        for k in range(5):
            trace.append(0.1 * k, 1e-12)
        assert trace.cumulative == pytest.approx(sum(0.1 * k for k in range(5)),
                                                 abs=1e-12)


class TestEntropy:
    def test_uniform(self):
        npt.assert_allclose(shannon_entropy(np.ones(5) / 5), math.log(5))

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_half_quarter_quarter(self):
        npt.assert_allclose(shannon_entropy([0.5, 0.25, 0.25]),
                            1.5 * math.log(2), rtol=1e-12)


class TestEstimateCapacity:
    def test_fixed_point_of_balanced_map(self):
        est = estimate_capacity(CPMap([np.eye(2)]),
                                MarginalSpec(np.ones(2), np.ones(2)))
        assert not est.diverged
        npt.assert_allclose(est.value, 1.0, atol=1e-9)

    def test_common_kernel_flags_divergence(self):
        K = np.zeros((2, 2), dtype=complex)
        K[:, 0] = [1.0, 0.5]
        T = CPMap([K, 1j * K])
        est = estimate_capacity(T, MarginalSpec(np.ones(2), np.ones(2)))
        assert est.diverged
        assert est.value == 0.0

    def test_estimate_is_nonincreasing_under_more_budget(self):
        rng = np.random.default_rng(9)
        T = random_cpmap(rng, 2, 2, 4)
        M = MarginalSpec(spectrum(rng, 2, 0.2), spectrum(rng, 2, 0.2))
        short = estimate_capacity(T, M, budget=10)
        long = estimate_capacity(T, M, budget=200)
        assert long.value <= short.value + 1e-12

    @pytest.mark.parametrize("budget", [-1, 2.5, float("nan"), 2.0])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        T = CPMap([np.eye(2)])
        with pytest.raises(ValueError, match="nonnegative integer"):
            estimate_capacity(T, MarginalSpec(np.ones(2), np.ones(2)), budget=budget)

    @pytest.mark.parametrize("budget", [True, False])
    def test_bool_budget_is_rejected(self, budget):
        T = CPMap([np.eye(2)])
        with pytest.raises(ValueError, match="nonnegative integer"):
            estimate_capacity(T, MarginalSpec(np.ones(2), np.ones(2)), budget=budget)

    def test_estimate_past_the_largest_double_is_inf(self):
        # T(P) = 1e200 I: log det(Q, T(P)) = 2 log 1e200, about 921 > 709
        est = estimate_capacity(CPMap(1e100 * np.eye(2)[None]),
                                MarginalSpec([1.0, 1.0], [1.0, 1.0]), budget=5)
        assert est.value == math.inf and not est.diverged
        npt.assert_allclose(est.log_value, 4 * math.log(1e100), rtol=1e-12)

    def test_numpy_integer_budget_counts_its_steps(self):
        est = estimate_capacity(CPMap([np.eye(2)]),
                                MarginalSpec(np.ones(2), np.ones(2)),
                                budget=np.int64(3))
        assert est.steps == 3 and type(est.steps) is int

    def test_deltas_trailing_entry(self):
        npt.assert_allclose(deltas([2.0, 1.0, 0.5]), [1.0, 0.5, 0.5])
