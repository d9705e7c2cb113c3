import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    bit_complexity_literal,
    ds_literal,
    matrix_kraus,
    random_complex,
    random_cpmap,
    spectrum,
)
from opscale import (
    AllZeroSpectrum,
    CPMap,
    ERROR_BUDGET,
    ForsterInstance,
    ERROR_NOT_PD,
    ERROR_SINGULAR_INIT,
    INCONCLUSIVE,
    MarginalSpec,
    NotInvertible,
    ScalingPair,
    SUCCESS,
    ScalingFailure,
    SolverConfig,
    build_matrix_cpmap,
    decide_scalable,
    ds_distance,
    ds_threshold,
    forster_scale,
    general_scale,
    hard_cap,
    iteration_budget,
    lift_pair,
    project_to_support,
    triangular_scale,
)
from opscale import cpmap, feasibility, relmetrics, scaler
from opscale.cpmap import scale


class TestConfigAndBudget:
    def test_epsilon_bounds(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                SolverConfig(epsilon=eps)

    def test_negative_max_iterations(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.1, max_iterations=-1)

    @pytest.mark.parametrize("count", [float("nan"), 2.5, 3.0, "3"])
    def test_max_iterations_must_be_a_nonnegative_integer(self, count):
        # a nan budget would slip past the hard cap: min(nan, cap) is nan
        with pytest.raises(ValueError, match="nonnegative integer"):
            SolverConfig(epsilon=0.1, max_iterations=count)

    def test_numpy_integer_max_iterations_is_accepted(self):
        config = SolverConfig(epsilon=0.1, max_iterations=np.int64(3))
        assert config.max_iterations == 3

    def test_triangular_budget_pin(self):
        # 100 * 10 * 3 / (0.1 + 0.1)
        assert iteration_budget(10, 3, 0.1, 0.2, 0.2) == 15000

    def test_general_budget_hits_default_cap(self):
        # 400 * 10 * 3 / (0.2 * 0.01) = 6e6, clamped at 10^6
        assert iteration_budget(10, 3, 0.1, 0.2, 0.2, mode="general") == 10**6

    def test_cap_follows_environment(self, monkeypatch):
        monkeypatch.setenv("OPSCALE_HARD_CAP", "10000000")
        assert hard_cap() == 10**7
        assert iteration_budget(10, 3, 0.1, 0.2, 0.2, mode="general") == 6 * 10**6

    def test_known_capacity_budget(self):
        # ceil(-7 * (-20) / 0.2)
        assert iteration_budget(10, 3, 0.1, 0.2, 0.2, log_cap1=-20.0) == 700

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            iteration_budget(10, 3, 0.1, 0.2, 0.2, mode="diagonal")

    @pytest.mark.parametrize("mode, p_min, q_min", [
        ("triangular", 1e-310, 1e-310),
        ("general", 1e-300, 0.5),
    ])
    def test_overflowing_raw_budget_clamps_to_cap(self, monkeypatch, mode,
                                                  p_min, q_min):
        # a tiny spectrum entry overflows the raw budget to inf
        assert iteration_budget(10, 3, 1e-3, p_min, q_min, mode=mode) == 10**6
        monkeypatch.setenv("OPSCALE_HARD_CAP", "50")
        assert iteration_budget(10, 3, 1e-3, p_min, q_min, mode=mode) == 50

    def test_underflowing_accuracy_budget_is_the_cap(self, monkeypatch):
        # eps^2 underflows to 0, so the general divisor vanishes
        assert iteration_budget(10, 3, 1e-170, 0.5, 0.5, mode="general") == hard_cap()
        monkeypatch.setenv("OPSCALE_HARD_CAP", "50")
        assert iteration_budget(10, 3, 1e-170, 0.5, 0.5, mode="general") == 50


class TestTriangularScale:
    def test_already_scaled_instance_exits_immediately(self):
        # T(P) = I and T*(Q) = I hold exactly, so the loop never balances
        T = CPMap([np.sqrt(2.0) * np.eye(2)])
        M = MarginalSpec([0.5, 0.5], [0.5, 0.5])
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-8))
        assert res.success and res.iterations == 0
        npt.assert_array_equal(res.pair.g, np.eye(2))
        npt.assert_array_equal(res.pair.h, np.eye(2))
        assert len(res.ds_trace) == 1 and res.ds_trace[0] <= 1e-30

    def test_random_instance_certificate(self):
        rng = np.random.default_rng(11)
        T = random_cpmap(rng, 3, 3, 4)
        M = MarginalSpec(spectrum(rng, 3, floor=0.1), spectrum(rng, 3, floor=0.1))
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-6))
        assert res.success
        assert res.threshold == ds_threshold(1e-6, M)
        assert res.ds_trace[-1] <= res.threshold
        # the returned pair reproduces the reported distance on the instance
        npt.assert_allclose(ds_distance(scale(T, res.pair), M),
                            res.ds_trace[-1], rtol=1e-6, atol=1e-18)

    def test_unnormalized_spectra_threshold_transfers(self):
        rng = np.random.default_rng(12)
        T = random_cpmap(rng, 3, 3, 4)
        p = 2.0 * spectrum(rng, 3, floor=0.1)
        q = 2.0 * spectrum(rng, 3, floor=0.1)
        M = MarginalSpec(p, q)
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-6))
        assert res.success
        npt.assert_allclose(ds_distance(scale(T, res.pair), M),
                            res.ds_trace[-1], rtol=1e-6, atol=1e-18)
        assert res.ds_trace[-1] <= res.threshold == ds_threshold(1e-6, M)

    def test_capacity_trace_is_monotone_with_tight_upper_estimates(self):
        rng = np.random.default_rng(13)
        T = random_cpmap(rng, 3, 3, 4)
        M = MarginalSpec(spectrum(rng, 3, floor=0.1), spectrum(rng, 3, floor=0.1))
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-6))
        assert all(f >= -1e-12 for f in res.capacity_trace.log_factors)
        assert all(abs(u) <= 1e-9 for u in res.capacity_trace.upper_estimates)
        assert res.capacity_trace.log_lower_bound <= 0.0

    def test_triangular_pattern_converges(self):
        T = CPMap(matrix_kraus(np.array([[1.0, 1.0], [0.0, 1.0]])))
        M = MarginalSpec(np.ones(2), np.ones(2), (1, 1), (1, 1))
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-2))
        assert res.success and 0 < res.iterations < 2000
        # marginal maps keep triangular factors diagonal
        npt.assert_array_equal(res.pair.g, np.diag(np.diag(res.pair.g)))

    def test_blocks_are_preserved_exactly(self):
        rng = np.random.default_rng(14)
        T = random_cpmap(rng, 4, 4, 3)
        p = np.sort(rng.uniform(0.5, 1.5, 4))[::-1]
        M = MarginalSpec(np.concatenate([np.sort(p[:2])[::-1],
                                         np.sort(p[2:])[::-1]]),
                         p.copy(), (2, 2), (2, 2))
        res = triangular_scale(T, M, SolverConfig(epsilon=0.5,
                                                  max_iterations=6))
        for f in (res.pair.g, res.pair.h):
            npt.assert_array_equal(f[:2, 2:], np.zeros((2, 2)))
            npt.assert_array_equal(f[2:, :2], np.zeros((2, 2)))
            npt.assert_array_equal(np.tril(f, -1), np.zeros((4, 4)))

    def test_common_kernel_reports_not_pd(self):
        rng = np.random.default_rng(15)
        kraus = [random_complex(rng, (2, 2)) for _ in range(2)]
        for K in kraus:
            K[:, 1] = 0.0
        res = triangular_scale(CPMap(kraus),
                               MarginalSpec(np.ones(2), np.ones(2)),
                               SolverConfig(epsilon=1e-3))
        assert res.status == ERROR_NOT_PD and not res.success
        assert res.iterations <= 2
        assert res.min_eigenvalue is not None and res.min_eigenvalue <= 1e-12

    def test_zero_budget_reports_immediately(self):
        rng = np.random.default_rng(16)
        T = random_cpmap(rng, 2, 2, 2)
        M = MarginalSpec(np.ones(2), np.ones(2))
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-8,
                                                  max_iterations=0))
        assert res.status == ERROR_BUDGET and res.iterations == 0
        assert len(res.ds_trace) == 1

    @pytest.mark.parametrize("T, M, steps", [
        # ds is exactly 0 at the start
        (CPMap([[[1.0]]]), MarginalSpec([1.0], [1.0]), 0),
        # one balance step reaches it
        (CPMap([[[2.0]]]), MarginalSpec([1.0], [1.0]), 1),
        # a rank-one matrix needs a row and a column balance
        (build_matrix_cpmap(np.outer([1.0, 3.0], [2.0, 5.0])),
         MarginalSpec([0.3, 0.7], [0.6, 0.4], (1, 1), (1, 1)), 2),
    ])
    def test_zero_threshold_still_accepts_an_exact_scaling(self, T, M, steps):
        # eps^2 underflows to a zero threshold, which only ds == 0 meets
        res = triangular_scale(T, M, SolverConfig(1e-170))
        assert (res.status, res.iterations, res.threshold) == (SUCCESS, steps,
                                                               0.0)

    def test_infeasible_pattern_stops_with_finite_factors(self):
        # the only supported entry of column 1 sits in a row of total 0.5,
        # so no scaling can reach column sum 1.5: the iteration stalls and
        # the accumulated factors blow up until the divergence guard fires
        T = CPMap(matrix_kraus(np.array([[1.0, 1.0], [0.0, 1.0]])))
        M = MarginalSpec([1.5, 0.5], [0.5, 1.5], (1, 1), (1, 1))
        res = triangular_scale(T, M, SolverConfig(epsilon=1e-2,
                                                  max_iterations=10**6))
        assert res.status == ERROR_BUDGET
        assert res.iterations < 10**6
        assert np.isfinite(res.pair.g).all() and np.isfinite(res.pair.h).all()
        assert np.isfinite(res.ds_trace).all()
        assert res.ds_trace[-1] > res.threshold

    def test_trace_mismatch_rejected(self):
        T = CPMap([np.eye(2)])
        with pytest.raises(ValueError, match="trace"):
            triangular_scale(T, MarginalSpec([1.0, 1.0], [1.5, 0.6]),
                             SolverConfig(epsilon=0.1))

    def test_singular_spectra_rejected(self):
        T = CPMap([np.eye(2)])
        with pytest.raises(ValueError, match="positive"):
            triangular_scale(T, MarginalSpec([2.0, 0.0], [1.0, 1.0]),
                             SolverConfig(epsilon=0.1))

    def test_shape_mismatch_rejected(self):
        T = CPMap([np.eye(2)])
        with pytest.raises(ValueError, match="spec"):
            triangular_scale(T, MarginalSpec(np.ones(3), np.ones(3)),
                             SolverConfig(epsilon=0.1))


class TestGeneralScale:
    def test_matches_certificate_on_dense_instance(self):
        rng = np.random.default_rng(17)
        T = random_cpmap(rng, 3, 3, 4)
        M = MarginalSpec(spectrum(rng, 3, floor=0.1), spectrum(rng, 3, floor=0.1))
        res = general_scale(T, M, SolverConfig(epsilon=1e-6))
        assert res.success
        npt.assert_allclose(ds_distance(scale(T, res.pair), M),
                            res.ds_trace[-1], rtol=1e-6, atol=1e-18)

    def test_seed_determinism(self):
        rng = np.random.default_rng(18)
        T = random_cpmap(rng, 3, 3, 3)
        M = MarginalSpec(spectrum(rng, 3, floor=0.1), spectrum(rng, 3, floor=0.1))
        a = general_scale(T, M, SolverConfig(epsilon=1e-6, seed=7))
        b = general_scale(T, M, SolverConfig(epsilon=1e-6, seed=7))
        assert (a.status, a.iterations) == (b.status, b.iterations)
        npt.assert_array_equal(a.pair.g, b.pair.g)
        npt.assert_array_equal(a.pair.h, b.pair.h)

    def test_singular_spectrum_scales_on_support(self):
        rng = np.random.default_rng(19)
        T = random_cpmap(rng, 3, 3, 4)
        M = MarginalSpec([0.6, 0.4, 0.0], [0.5, 0.5, 0.0])
        res = general_scale(T, M, SolverConfig(epsilon=1e-5))
        assert res.success
        scaled = scale(T, res.pair)
        npt.assert_allclose(ds_distance(scaled, M), res.ds_trace[-1],
                            rtol=1e-5, atol=1e-16)
        assert res.ds_trace[-1] <= res.threshold

    def test_zero_threshold_stops_once_ds_stops_decreasing(self):
        # eps^2 underflows to 0, which this instance reaches only in exact
        # arithmetic: the run ends at the roundoff floor of ds, where a step
        # first fails to decrease it, instead of spending the budget
        rng = np.random.default_rng(19)
        T = random_cpmap(rng, 3, 3, 4)
        M = MarginalSpec([0.6, 0.4, 0.0], [0.5, 0.5, 0.0])
        res = general_scale(T, M, SolverConfig(epsilon=1e-170,
                                               max_iterations=1000))
        assert res.status == ERROR_BUDGET and res.threshold == 0.0
        ds = res.ds_trace
        assert 0 < res.iterations < 1000 and len(ds) == res.iterations + 1
        assert all(a > b for a, b in zip(ds[:-2], ds[1:-1]))
        assert 0.0 < ds[-2] <= ds[-1] < 1e-20


class TestSupportProjection:
    def test_full_support_is_identity(self):
        rng = np.random.default_rng(20)
        T = random_cpmap(rng, 2, 2, 2)
        M = MarginalSpec(np.ones(2), np.ones(2))
        Tr, Mr, emb = project_to_support(T, M)
        assert Tr is T and Mr is M and emb.full

    def test_restriction_keeps_leading_corner(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        T = CPMap([A])
        M = MarginalSpec([1.0, 0.0], [1.0, 0.0])
        Tr, Mr, emb = project_to_support(T, M)
        assert Tr.kraus[0].shape == (1, 1)
        npt.assert_array_equal(Tr.kraus[0], A[:1, :1])
        npt.assert_array_equal(Mr.p, [1.0])
        assert not emb.full

    def test_blocks_shrink_and_drop(self):
        rng = np.random.default_rng(21)
        T = random_cpmap(rng, 4, 4, 2)
        M = MarginalSpec([2.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0],
                         (2, 2), (3, 1))
        _, Mr, _ = project_to_support(T, M)
        assert Mr.p_blocks == (2,)
        assert Mr.q_blocks == (3,)

    def test_all_zero_spectrum(self):
        T = CPMap([np.eye(2)])
        with pytest.raises(AllZeroSpectrum):
            project_to_support(T, MarginalSpec([0.0, 0.0], [0.0, 0.0]))

    def test_lift_is_identity_off_support(self):
        T = CPMap([np.eye(3, dtype=complex)])
        M = MarginalSpec([0.6, 0.4, 0.0], [0.5, 0.5, 0.0], (2, 1), (3,))
        _, _, emb = project_to_support(T, M)
        g = np.array([[2.0, 1.0], [0.0, 3.0]])
        pair = lift_pair(ScalingPair(g, 4.0 * g), emb)
        expected = np.eye(3, dtype=complex)
        expected[:2, :2] = g
        npt.assert_array_equal(pair.g, expected)
        expected[:2, :2] = 4.0 * g
        npt.assert_array_equal(pair.h, expected)


class TestNormalizedSpec:
    def test_small_total_keeps_an_accepted_within_block_rise(self):
        # MarginalSpec accepts a within-block rise below 1e-12 * max(1, max);
        # dividing by a total s < 1 inflates it, which must not get the
        # normalized spec rejected inside the solvers.
        p = 1e-3 * np.array([0.5, 0.5 + 1e-10])
        q = np.array([0.6, 0.4]) * p.sum()
        M = MarginalSpec(p, q)
        T = random_cpmap(np.random.default_rng(11), 2, 2, 3)
        config = SolverConfig(epsilon=1e-3)
        assert triangular_scale(T, M, config).status == SUCCESS
        assert general_scale(T, M, config).status == SUCCESS
        assert decide_scalable(T, M).verdict == "FEASIBLE"


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _not_pd_instance(rng):
    kraus = np.stack(random_cpmap(rng, 3, 3, 2).kraus)
    kraus[:, :, -1] = 0.0  # shared kernel: T*(Q) is singular
    return CPMap(kraus), MarginalSpec(spectrum(rng, 3), spectrum(rng, 3))


def _zero_tail_instance(rng):
    return (random_cpmap(rng, 4, 4, 3),
            MarginalSpec([0.5, 0.3, 0.2, 0.0], [0.6, 0.4, 0.0, 0.0]))


@pytest.mark.parametrize("solve, instance, status", [
    (triangular_scale, lambda rng: (random_cpmap(rng, 3, 3, 2),
                                    MarginalSpec(spectrum(rng, 3),
                                                 spectrum(rng, 3))), SUCCESS),
    (general_scale, _zero_tail_instance, SUCCESS),
    (general_scale, _not_pd_instance, ERROR_NOT_PD),
])
def test_traced_layers_are_called_once_per_step(monkeypatch, solve, instance,
                                                status):
    # The benchmark's per-layer metrics hook these two functions by name on
    # their modules; each step must go through them exactly once.
    counts = {"balance_factor": 0, "ds_from_marginals": 0}
    _count_calls(monkeypatch, cpmap, "balance_factor", counts)
    _count_calls(monkeypatch, relmetrics, "ds_from_marginals", counts)
    T, M = instance(np.random.default_rng(5))
    res = solve(T, M, SolverConfig(epsilon=1e-4, seed=3))
    assert res.status == status
    assert counts["balance_factor"] == res.iterations + (status == ERROR_NOT_PD)
    assert counts["ds_from_marginals"] == (res.iterations + 1
                                           + (status == SUCCESS))


def test_singular_draws_end_in_error_singular_init(monkeypatch):
    draws = []
    monkeypatch.setattr(scaler, "_comfortably_invertible",
                        lambda mat: draws.append(mat.shape) or False)
    T, M = _zero_tail_instance(np.random.default_rng(5))
    res = general_scale(T, M, SolverConfig(epsilon=1e-4, seed=3))
    assert res.status == ERROR_SINGULAR_INIT
    assert (res.iterations, res.ds_trace) == (0, ())
    npt.assert_array_equal(res.pair.g, np.eye(M.m))
    npt.assert_array_equal(res.pair.h, np.eye(M.n))
    # one draw, rejected on its output factor, of support size 2
    assert draws == [(2, 2)]
    assert decide_scalable(T, M, seed=3).verdict == INCONCLUSIVE


def _positive_instance(rng):
    return (random_cpmap(rng, 3, 3, 2),
            MarginalSpec(spectrum(rng, 3), spectrum(rng, 3)))


@pytest.mark.parametrize("solve, instance, status, fallback", [
    (triangular_scale, _positive_instance, SUCCESS, ERROR_BUDGET),
    (triangular_scale, _not_pd_instance, ERROR_NOT_PD, ERROR_NOT_PD),
    (general_scale, _zero_tail_instance, SUCCESS, ERROR_BUDGET),
    (general_scale, _not_pd_instance, ERROR_NOT_PD, ERROR_NOT_PD),
])
def test_unformable_last_pair_falls_back_to_the_start(monkeypatch, solve,
                                                      instance, status,
                                                      fallback):
    # A last iterate too ill-conditioned to form a pair returns the starting
    # pair, lifted; only the status that rests on the pair changes.
    T, M = instance(np.random.default_rng(5))
    config = SolverConfig(epsilon=1e-4, seed=3)
    plain = solve(T, M, config)
    assert plain.status == status
    # the start: the identity, or the Gaussian pair drawn from the seed
    _, Mr, emb = project_to_support(T, M)
    g0, h0 = np.eye(Mr.m), np.eye(Mr.n)
    if solve is general_scale:
        rng = np.random.default_rng(config.seed)
        g0 = scaler._block_gaussian(rng, Mr.q_slices(), Mr.m)
        h0 = scaler._block_gaussian(rng, Mr.p_slices(), Mr.n)
    start = lift_pair(ScalingPair(g0, h0 / np.sqrt(M.p.sum())), emb)
    refused = []

    class UnformableUnlessStart(ScalingPair):
        def __init__(self, g, h):
            if not (np.array_equal(g, g0) or np.array_equal(g, start.g)):
                refused.append(g)
                raise NotInvertible("g is numerically singular")
            super().__init__(g, h)

    monkeypatch.setattr(scaler, "ScalingPair", UnformableUnlessStart)
    res = solve(T, M, config)
    assert len(refused) == 1
    assert res.status == fallback
    assert (res.iterations, res.ds_trace) == (plain.iterations, plain.ds_trace)
    assert res.min_eigenvalue == plain.min_eigenvalue
    npt.assert_array_equal(res.pair.g, start.g)
    npt.assert_allclose(res.pair.h, start.h, rtol=1e-15)


@pytest.mark.parametrize("solve, instance, epsilon, solve_calls", [
    # default budgets clamped to the hard cap: b is never needed to solve
    (triangular_scale, _positive_instance, 1e-4, 0),
    (general_scale, _zero_tail_instance, 1e-4, 0),
    # a small map at a loose epsilon: b sets a budget below the cap
    (triangular_scale, lambda rng: (random_cpmap(rng, 2, 2, 1),
                                    MarginalSpec([0.5, 0.5], [0.5, 0.5])),
     0.9, 1),
])
def test_bit_complexity_runs_only_when_needed(monkeypatch, solve, instance,
                                              epsilon, solve_calls):
    monkeypatch.delenv("OPSCALE_HARD_CAP", raising=False)
    T, M = instance(np.random.default_rng(5))
    Tr, Mr, _ = project_to_support(T, M)
    b = bit_complexity_literal(Tr, Mr)
    Mhat, _ = Mr.normalized()
    clamped = iteration_budget(b, Mr.m, epsilon, Mhat.p.min(), Mhat.q.min(),
                               "general" if solve is general_scale
                               else "triangular") == hard_cap()
    assert clamped == (solve_calls == 0)
    counts = {"bit_complexity": 0}
    _count_calls(monkeypatch, relmetrics, "bit_complexity", counts)
    res = solve(T, M, SolverConfig(epsilon=epsilon, seed=3))
    assert counts["bit_complexity"] == solve_calls
    # the first read computes -10 b of the solved (restricted) instance
    assert res.capacity_trace.log_lower_bound == -10 * b
    assert counts["bit_complexity"] == 1
    assert res.capacity_trace.log_lower_bound == -10 * b
    assert counts["bit_complexity"] == 1


def test_set_budget_never_computes_bit_complexity(monkeypatch):
    counts = {"bit_complexity": 0}
    _count_calls(monkeypatch, relmetrics, "bit_complexity", counts)
    T, M = _zero_tail_instance(np.random.default_rng(5))
    res = general_scale(T, M, SolverConfig(epsilon=1e-4, max_iterations=5))
    assert res.capacity_trace.log_lower_bound == -np.inf
    assert counts["bit_complexity"] == 0


def test_reading_the_bound_releases_the_instance():
    T, M = _positive_instance(np.random.default_rng(5))
    res = triangular_scale(T, M, SolverConfig(epsilon=1e-4))
    ref = weakref.ref(T)
    del T
    assert ref() is not None  # the unread bound still needs the map
    assert res.capacity_trace.log_lower_bound < 0
    assert ref() is None


def _collinear_forster(seed):
    """Points whose columns 1..k lie on column 0 up to 1e-17 relative.

    Such a set is not scalable at most weights, but the iteration on it
    can reach ds <= threshold with factors whose condition number nears
    1e16, where g^dag T h formed from them no longer reproduces it.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m, m + 5))
    U = random_complex(rng, (m, n))
    for j in range(1, int(rng.integers(1, n)) + 1):
        U[:, j] = (U[:, 0] * complex(*rng.standard_normal(2))
                   + 1e-17 * np.linalg.norm(U[:, 0]) * rng.standard_normal(m))
    p = rng.uniform(0.5, 1.5, n)
    q = np.sort(rng.uniform(0.5, 1.5, m))[::-1]
    return ForsterInstance(U, p, q * (p.sum() / q.sum()))


# The pinned draws returned SUCCESS with pairs off by ds/threshold 1e6-1e14.
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-2, 1e-4]))
@example(1, 1e-4)
@example(9, 1e-4)
@example(13, 1e-4)
@example(42, 1e-2)
@example(48, 1e-2)
def test_success_certifies_the_returned_pair(seed, epsilon):
    inst = _collinear_forster(seed)
    try:
        sol = forster_scale(inst, epsilon, max_iterations=3000)
    except ScalingFailure:  # a last pair too singular to form B
        return
    res = sol.result
    if not res.success:
        assert res.status in (ERROR_BUDGET, ERROR_NOT_PD)
        return
    # ds of scale(T, pair) by the literal corner sums, one Kraus at a time
    T, M, g, h = sol.cpmap, sol.spec, res.pair.g, res.pair.h
    ops = [g.conj().T @ A @ h for A in T.kraus]
    primal = sum(B @ np.diag(M.p) @ B.conj().T for B in ops)
    dual = sum(B.conj().T @ np.diag(M.q) @ B for B in ops)
    assert ds_literal(primal, dual, M.p, M.q) <= res.threshold * (1 + 1e-6)
    # and the app's own output meets its oracle
    W = sol.vectors
    gram = (W * inst.weights) @ W.conj().T
    assert np.linalg.norm(gram - np.diag(inst.spectrum)) <= epsilon


@pytest.mark.parametrize("seed", range(5))
def test_threshold_below_the_roundoff_floor_stops_there(seed):
    # eps = 1e-100 gives a threshold of 5e-201, which no double-precision
    # marginal can reach: ds stalls near u^2 (u = 2^-53), and the run ends
    # at the first step that fails to decrease it there, not at the cap
    T = random_cpmap(np.random.default_rng(seed), 2, 2, 2)
    M = MarginalSpec([0.6, 0.4], [0.5, 0.5])
    res = triangular_scale(T, M, SolverConfig(1e-100))
    assert res.status == ERROR_BUDGET and 0 < res.threshold < 1e-200
    ds = res.ds_trace
    assert res.iterations < 1000 and len(ds) == res.iterations + 1
    assert ds[-2] <= ds[-1] <= 16 * 2.0**-106
    # at eps = 1e-7 the same map succeeds, far above the floor
    assert triangular_scale(T, M, SolverConfig(1e-7)).success


def test_two_cycle_at_the_roundoff_floor_stops_there():
    # p_min = 1e-300 puts the normalized threshold (1e-304) far below the
    # roundoff floor; ds then alternates between about u^2 and 20 u^2,
    # leaving the floor every other step, and must still stop there
    T = CPMap([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    M = MarginalSpec([1.0, 1e-300], [0.6, 0.4])
    res = general_scale(T, M, SolverConfig(1e-2, max_iterations=1000))
    assert res.status == ERROR_BUDGET and res.iterations <= 20
    assert min(res.ds_trace[-3:-1]) <= res.ds_trace[-1] <= 16 * 2.0**-106
