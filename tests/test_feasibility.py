import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import doubly_stochastic_map, matrix_kraus, random_complex
from opscale import (
    CPMap,
    DimensionTooLarge,
    ERROR_BUDGET,
    ERROR_NOT_PD,
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    MarginalSpec,
    MatrixScalingInstance,
    bit_complexity,
    certificate_epsilon,
    decide_scalable,
    ds_distance,
    rc_feasible,
)
from opscale.cpmap import scale


def matrix_map(A):
    return CPMap(matrix_kraus(np.asarray(A, dtype=float)))


class TestBitComplexity:
    def test_rational_entries_pin(self):
        T = matrix_map([[1.0, 2.0], [3.0, 4.0]])
        assert bit_complexity(T, MarginalSpec(np.ones(2), np.ones(2))) == 255

    def test_smallest_instance(self):
        assert bit_complexity(CPMap([np.eye(1)]),
                              MarginalSpec([1.0], [1.0])) == 7

    def test_doubling_kraus_adds_at_most_one_bit_per_entry(self):
        T = matrix_map([[1.0, 2.0], [3.0, 4.0]])
        M = MarginalSpec(np.ones(2), np.ones(2))
        b = bit_complexity(T, M)
        T2 = CPMap([2.0 * K for K in T.kraus])
        b2 = bit_complexity(T2, M)
        assert abs(b2 - b) <= T.r * T.m * T.n

    def test_positive_integer(self):
        rng = np.random.default_rng(0)
        T = CPMap([random_complex(rng, (2, 3))])
        b = bit_complexity(T, MarginalSpec(np.ones(3), np.ones(2)))
        assert isinstance(b, int) and b >= 1


class TestCertificateEpsilon:
    def test_two_level_uniform(self):
        M = MarginalSpec([0.5, 0.5], [0.5, 0.5])
        assert certificate_epsilon(M) == pytest.approx(
            0.5 / (2.0 * np.sqrt(2.0)), abs=1e-15)
        assert certificate_epsilon(M) == 0.17677669529663687

    def test_scalar_instance(self):
        assert certificate_epsilon(MarginalSpec([1.0], [1.0])) == 0.5

    def test_uniform_three(self):
        M = MarginalSpec(np.ones(3) / 3.0, np.ones(3) / 3.0)
        assert certificate_epsilon(M) == pytest.approx(
            1.0 / (3.0 * 2.0 * np.sqrt(3.0)), abs=1e-15)

    def test_depends_only_on_multisets(self):
        a = certificate_epsilon(MarginalSpec([0.2, 0.5, 0.3], [0.3, 0.3, 0.4],
                                             (1, 1, 1), (1, 1, 1)))
        b = certificate_epsilon(MarginalSpec([0.5, 0.3, 0.2], [0.4, 0.3, 0.3]))
        assert a == b

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            certificate_epsilon(MarginalSpec(np.ones(13), np.ones(13)))

    def test_degenerate_spectra(self):
        with pytest.raises(ValueError):
            certificate_epsilon(MarginalSpec([0.0, 0.0], [0.0, 0.0]))


class TestDecideScalable:
    def test_doubly_stochastic_is_feasible_with_witness(self):
        rng = np.random.default_rng(3)
        T = doubly_stochastic_map(rng, 3, 3)
        M = MarginalSpec(np.ones(3), np.ones(3))
        verdict = decide_scalable(T, M)
        assert verdict.verdict == FEASIBLE and verdict.feasible
        assert verdict.epsilon == min(
            certificate_epsilon(M.normalized()[0]) / 2.0, 0.5)
        scaled = scale(T, verdict.result.pair)
        assert ds_distance(scaled, M) <= verdict.result.threshold

    def test_common_kernel_is_infeasible(self):
        rng = np.random.default_rng(4)
        kraus = [random_complex(rng, (2, 2)) for _ in range(2)]
        for K in kraus:
            K[:, 1] = 0.0
        verdict = decide_scalable(CPMap(kraus),
                                  MarginalSpec(np.ones(2), np.ones(2)))
        assert verdict.verdict == INFEASIBLE and not verdict.feasible
        assert verdict.result.status == ERROR_NOT_PD

    def test_tiny_budget_is_inconclusive(self):
        T = matrix_map([[1.0, 1.0], [0.0, 1.0]])
        verdict = decide_scalable(T, MarginalSpec(np.ones(2), np.ones(2)),
                                  max_iterations=1)
        assert verdict.verdict == INCONCLUSIVE
        assert verdict.result.status == ERROR_BUDGET

    def test_tight_pattern_is_feasible_given_time(self):
        # the certificate accuracy is coarse enough that even the pattern
        # with a tight obstruction equality resolves in a few iterations
        T = matrix_map([[1.0, 1.0], [0.0, 1.0]])
        verdict = decide_scalable(T, MarginalSpec(np.ones(2), np.ones(2)))
        assert verdict.feasible and verdict.result.iterations < 100

    def test_trace_mismatch_rejected(self):
        T = matrix_map([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="trace"):
            decide_scalable(T, MarginalSpec([1.0, 1.0], [1.5, 0.6]))


def eighths(rng, total, parts):
    """A random composition of `total` eighths into `parts` positive parts."""
    cuts = np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])) / 8.0


@st.composite
def matrix_instances(draw):
    """3 x 4 patterns with row and column sums in eighths, totals 7/8 to 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.where(rng.random((3, 4)) < 0.65, rng.uniform(0.5, 1.5, (3, 4)), 0.0)
    A[0, 0] = max(A[0, 0], 0.5)  # at least one positive entry
    total = int(rng.integers(7, 17))
    return A, eighths(rng, total, 3), eighths(rng, total, 4)


@given(matrix_instances(), st.integers(-300, 300).map(lambda k: 10.0 ** k))
# [[1, 1], [0, 1]] cannot reach these sums, at any scale of the spectra
@example((np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0.4, 0.6]),
          np.array([0.45, 0.55])), 100.0)
def test_decision_does_not_depend_on_the_spectrum_scale(instance, c):
    # (cP, cQ) has exactly the eps-scalings of (P, Q), so neither the
    # accuracy nor a conclusive verdict may move with c.
    A, r, col = instance
    T = matrix_map(A)
    blocks = (1,) * col.size, (1,) * r.size
    plain = decide_scalable(T, MarginalSpec(col, r, *blocks), max_iterations=50)
    scaled = decide_scalable(T, MarginalSpec(c * col, c * r, *blocks),
                             max_iterations=50)
    assert scaled.epsilon == pytest.approx(plain.epsilon, rel=1e-12)
    if scaled.verdict != INCONCLUSIVE:
        expected = rc_feasible(MatrixScalingInstance(A, r, col))
        assert scaled.verdict == (FEASIBLE if expected else INFEASIBLE)
