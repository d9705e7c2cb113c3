import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    matrix_kraus,
    random_complex,
    random_cpmap,
    random_hermitian,
    random_kraus,
    random_pd,
)
from opscale import (
    CPMap,
    MarginalSpec,
    NotPositiveDefinite,
    ScalingPair,
    apply,
    balance_factor,
    dual_apply,
    marginals,
    scale,
)
from opscale.cpmap import convert_pair, hermitian_part, singular_floor


class TestApply:
    def test_identity_kraus_is_identity_map(self):
        T = CPMap([np.eye(3)])
        X = random_hermitian(np.random.default_rng(0), 3)
        npt.assert_allclose(apply(T, X), X, atol=1e-14)
        npt.assert_allclose(dual_apply(T, X), X, atol=1e-14)

    def test_matrix_map_acts_as_row_sums_on_diagonals(self):
        T = CPMap(matrix_kraus([[1.0, 2.0], [3.0, 4.0]]))
        out = apply(T, np.diag([1.0, 1.0]).astype(complex))
        npt.assert_allclose(out, np.diag([3.0, 7.0]), atol=1e-14)
        dout = dual_apply(T, np.diag([1.0, 1.0]).astype(complex))
        npt.assert_allclose(dout, np.diag([4.0, 6.0]), atol=1e-14)

    def test_zero_input_maps_to_zero(self):
        T = random_cpmap(np.random.default_rng(1), 3, 2, 4)
        npt.assert_array_equal(apply(T, np.zeros((2, 2))), np.zeros((3, 3)))

    def test_dual_at_identity_sums_gram_matrices(self):
        rng = np.random.default_rng(2)
        T = random_cpmap(rng, 3, 2, 4)
        expected = sum(A.conj().T @ A for A in T.kraus)
        npt.assert_allclose(dual_apply(T, np.eye(3)),
                            hermitian_part(expected), atol=1e-14)

    def test_psd_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            T = random_cpmap(rng, 4, 3, 3)
            X = random_pd(rng, 3, floor=0.0)
            out = apply(T, X)
            assert np.linalg.eigvalsh(out).min() >= -1e-10 * np.linalg.norm(X)

    def test_adjointness(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            T = random_cpmap(rng, 3, 4, 3)
            X = random_hermitian(rng, 4)
            Y = random_hermitian(rng, 3)
            lhs = np.trace(apply(T, X) @ Y)
            rhs = np.trace(X @ dual_apply(T, Y))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(X) * np.linalg.norm(Y)

    def test_dimension_mismatch_rejected(self):
        T = random_cpmap(np.random.default_rng(5), 3, 2, 2)
        with pytest.raises(ValueError):
            apply(T, np.eye(3))
        with pytest.raises(ValueError):
            dual_apply(T, np.eye(2))


class TestHermitianPart:
    def test_infinite_real_part_is_halved_without_a_warning(self):
        # Halving by * 0.5 keeps inf + 0j; a complex division by 2 made it
        # inf + nan j with an "invalid value" RuntimeWarning (an error here)
        out = hermitian_part(np.array([[np.inf + 0j]]))
        assert out.dtype == np.complex128
        assert (out[0, 0].real, out[0, 0].imag) == (np.inf, 0.0)

    @pytest.mark.parametrize("X", [
        np.array([[1, 2], [3, 4]]),
        np.array([[1.5, -2.0], [0.25, 4.0]]),
        np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0]]),
        np.array([[1.5, 2.5]], dtype=np.float32).T @ np.ones((1, 2), np.float32),
    ], ids=["int", "float", "complex", "float32"])
    def test_values_and_dtype_are_those_of_the_division(self, X):
        expected = (X + X.conj().T) / 2
        out = hermitian_part(X)
        assert out.dtype == expected.dtype
        npt.assert_array_equal(out, expected)


class TestScale:
    def test_identity_pair_is_noop(self):
        rng = np.random.default_rng(6)
        T = random_cpmap(rng, 2, 3, 2)
        S = scale(T, ScalingPair(np.eye(2), np.eye(3)))
        for A, B in zip(T.kraus, S.kraus):
            npt.assert_array_equal(A, B)

    def test_scale_matches_conjugation(self):
        rng = np.random.default_rng(7)
        T = random_cpmap(rng, 3, 3, 3)
        g = random_pd(rng, 3) @ random_pd(rng, 3)
        h = random_pd(rng, 3) @ random_pd(rng, 3)
        X = random_hermitian(rng, 3)
        lhs = apply(scale(T, ScalingPair(g, h)), X)
        rhs = g.conj().T @ apply(T, h @ X @ h.conj().T) @ g
        npt.assert_allclose(lhs, hermitian_part(rhs), atol=1e-10)

    def test_composition_law(self):
        rng = np.random.default_rng(8)
        T = random_cpmap(rng, 3, 3, 2)
        g1, h1, g2, h2 = (random_pd(rng, 3) for _ in range(4))
        X = random_hermitian(rng, 3)
        once = scale(scale(T, ScalingPair(g1, h1)), ScalingPair(g2, h2))
        direct = scale(T, ScalingPair(g1 @ g2, h1 @ h2))
        npt.assert_allclose(apply(once, X), apply(direct, X), atol=1e-10)

    def test_scalar_factor_multiplies_kraus(self):
        T = random_cpmap(np.random.default_rng(9), 2, 2, 2)
        c = 2.0 - 1.0j
        S = scale(T, ScalingPair(c * np.eye(2), np.eye(2)))
        for A, B in zip(T.kraus, S.kraus):
            npt.assert_allclose(B, np.conj(c) * A, atol=1e-14)


class TestMarginals:
    def test_doubly_stochastic_at_ones(self):
        from helpers import doubly_stochastic_map
        T = doubly_stochastic_map(np.random.default_rng(10), 3, 4)
        M = MarginalSpec(np.ones(3), np.ones(3))
        primal, dual = marginals(T, M)
        npt.assert_allclose(primal, np.eye(3), atol=1e-12)
        npt.assert_allclose(dual, np.eye(3), atol=1e-12)

    def test_all_ones_matrix_instance(self):
        T = CPMap(matrix_kraus(np.ones((2, 2))))
        M = MarginalSpec(np.ones(2), np.ones(2))
        primal, dual = marginals(T, M)
        npt.assert_allclose(primal, 2 * np.eye(2), atol=1e-14)
        npt.assert_allclose(dual, 2 * np.eye(2), atol=1e-14)


class TestBalanceFactor:
    def test_identity_fixed_point(self):
        npt.assert_allclose(balance_factor(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        g = balance_factor(np.diag([4.0, 1.0]).astype(complex))
        npt.assert_allclose(g, np.diag([0.5, 1.0]), atol=1e-14)

    def test_balances_random_pd(self):
        rng = np.random.default_rng(11)
        S = random_pd(rng, 4)
        g = balance_factor(S)
        npt.assert_allclose(g.conj().T @ S @ g, np.eye(4), atol=1e-10)
        npt.assert_allclose(g, np.triu(g), atol=0)

    def test_block_structure_respected(self):
        rng = np.random.default_rng(12)
        S = np.zeros((5, 5), dtype=complex)
        S[:2, :2] = random_pd(rng, 2)
        S[2:, 2:] = random_pd(rng, 3)
        g = balance_factor(S, block_sizes=(2, 3))
        assert np.all(g[2:, :2] == 0) and np.all(g[:2, 2:] == 0)
        npt.assert_allclose(g.conj().T @ S @ g, np.eye(5), atol=1e-10)

    def test_singular_input_reports_min_eigenvalue(self):
        S = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(NotPositiveDefinite) as info:
            balance_factor(S)
        assert info.value.min_eigenvalue <= singular_floor(S)


class TestSpecsAndPairs:
    def test_marginal_spec_validates_monotonicity(self):
        with pytest.raises(ValueError):
            MarginalSpec([0.3, 0.7], [0.5, 0.5])

    def test_block_monotonicity_is_per_block(self):
        M = MarginalSpec([0.3, 0.7, 0.5, 0.5], [1.0, 1.0],
                         p_blocks=(1, 1, 2), q_blocks=(2,))
        assert M.trace_gap == 0.0

    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValueError):
            MarginalSpec([1.0, -0.1], [0.5, 0.4])

    def test_normalized_round_trip(self):
        M = MarginalSpec([1.2, 0.8], [1.5, 0.5])
        Mhat, s = M.normalized()
        assert s == pytest.approx(2.0)
        npt.assert_allclose(Mhat.p, [0.6, 0.4])
        npt.assert_allclose(Mhat.q, [0.75, 0.25])

    @pytest.mark.parametrize("p, q", [
        ([np.nan, 0.5], [1.0, 0.5]),
        ([np.inf, 0.5], [1.0, 0.5]),
        ([1.0, 0.5], [1.0, -np.inf]),
        ([1e308, 1e308], [1e308, 1e308]),
    ])
    def test_marginal_spec_rejects_non_finite(self, p, q):
        with pytest.raises(ValueError, match="finite"):
            MarginalSpec(p, q)

    def test_scaling_pair_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScalingPair(np.array([[np.inf]]), np.eye(1))

    def test_cpmap_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            CPMap([np.eye(2), np.ones((3, 2))])

    @pytest.mark.parametrize("kraus", [[], np.zeros((0, 2, 2)), [[1.0, 2.0]],
                                       np.eye(2)])
    def test_cpmap_rejects_non_stacks(self, kraus):
        with pytest.raises(ValueError, match="nonempty stack"):
            CPMap(kraus)

    def test_cpmap_stores_one_read_only_stack(self):
        ops = random_kraus(np.random.default_rng(4), 2, 3, 4)
        T = CPMap(ops)
        assert (T.r, T.m, T.n) == (4, 2, 3) and len(T.kraus) == 4
        assert T.kraus.dtype == np.complex128 and T.kraus.flags.c_contiguous
        npt.assert_array_equal(T.kraus, np.stack(ops))
        with pytest.raises(ValueError):
            T.kraus[0, 0, 0] = 1.0
        ops[0][0, 0] = 7.0
        assert T.kraus[0, 0, 0] != 7.0

    @pytest.mark.parametrize("flip", [np.transpose, lambda A: A.conj().T,
                                      np.asfortranarray],
                             ids=["transpose", "adjoint", "fortran"])
    def test_transposed_and_fortran_input_accepted(self, flip):
        rng = np.random.default_rng(5)
        A, g, h = (random_complex(rng, (3, 3)) + 3 * np.eye(3) for _ in range(3))
        npt.assert_array_equal(CPMap([flip(A)]).kraus[0], flip(A))
        stack = np.asfortranarray(np.stack([A, 2 * A]))
        npt.assert_array_equal(CPMap(stack).kraus, stack)
        pair = ScalingPair(flip(g), flip(h))
        npt.assert_array_equal(pair.g, flip(g))
        npt.assert_array_equal(pair.h, flip(h))

    def test_convert_pair_absorbs_spectra(self):
        rng = np.random.default_rng(13)
        T = random_cpmap(rng, 2, 2, 4)
        M = MarginalSpec([0.7, 0.3], [0.6, 0.4])
        gt, ht = convert_pair(ScalingPair(np.eye(2), np.eye(2)), M)
        npt.assert_allclose(gt, np.diag(np.sqrt(M.q)), atol=1e-14)
        npt.assert_allclose(ht, np.diag(np.sqrt(M.p)), atol=1e-14)
