import json
import time

import numpy as np
import numpy.testing as npt
import pytest

from helpers import matrix_kraus, random_complex, random_unitary, ras_scale
from opscale import (
    AllZeroSpectrum,
    CPMap,
    DimensionTooLarge,
    ERROR_BUDGET,
    ERROR_NOT_PD,
    ForsterInstance,
    HornInstance,
    InfeasibleInstance,
    MarginalSpec,
    MatrixScalingInstance,
    ScalingFailure,
    SolverConfig,
    bit_complexity,
    build_horn_cpmap,
    build_matrix_cpmap,
    decide_scalable,
    ds_distance,
    estimate_capacity,
    forster_scale,
    general_scale,
    horn_normalize,
    horn_solve,
    matrix_scale,
    polymatroid_membership,
    project_to_support,
    rc_feasible,
    schur_horn,
)
from opscale import cli, cpmap
from opscale.cpmap import apply, dual_apply


class TestMatrixScaling:
    def test_cpmap_has_diagonal_marginals(self):
        T = build_matrix_cpmap([[1.0, 2.0], [3.0, 4.0]])
        assert T.r == 4
        npt.assert_allclose(apply(T, np.eye(2)), np.diag([3.0, 7.0]),
                            atol=1e-14)
        npt.assert_allclose(dual_apply(T, np.eye(2)), np.diag([4.0, 6.0]),
                            atol=1e-14)

    def test_zero_pattern_drops_kraus_operators(self):
        T = build_matrix_cpmap([[1.0, 0.0], [0.0, 4.0]])
        assert T.r == 2

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            build_matrix_cpmap(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, -3.0, np.inf, -np.inf])
    def test_builder_rejects_entries_that_are_not_finite_and_nonnegative(
            self, bad):
        # A > 0 is False for NaN and negatives: they must not read as 0
        with pytest.raises(ValueError):
            build_matrix_cpmap([[bad, 1.0], [1.0, 1.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MatrixScalingInstance([[1.0, -1.0]], [1.0], [0.5, 0.5])

    def test_rc_feasible_triangular_pattern(self):
        inst = MatrixScalingInstance([[1.0, 1.0], [0.0, 1.0]],
                                     [1.0, 1.0], [1.0, 1.0])
        assert rc_feasible(inst)

    def test_rc_feasible_uncovered_column(self):
        inst = MatrixScalingInstance([[1.0, 0.0], [1.0, 0.0]],
                                     [1.0, 1.0], [1.0, 1.0])
        assert not rc_feasible(inst)

    def test_rc_feasible_trace_mismatch(self):
        inst = MatrixScalingInstance(np.ones((2, 2)), [1.0, 1.0], [1.0, 1.5])
        assert not rc_feasible(inst)

    def test_rc_feasible_dimension_guard(self):
        inst = MatrixScalingInstance(np.ones((21, 2)), np.ones(21),
                                     np.full(2, 10.5))
        with pytest.raises(DimensionTooLarge):
            rc_feasible(inst)

    def test_ones_matrix_scales_to_uniform(self):
        inst = MatrixScalingInstance(np.ones((2, 2)), [1.0, 1.0], [1.0, 1.0])
        sol = matrix_scale(inst, epsilon=1e-6)
        npt.assert_allclose(sol.scaled_matrix, np.full((2, 2), 0.5),
                            atol=1e-6)
        assert np.all(sol.row_scale > 0) and np.all(sol.col_scale > 0)

    def test_requested_sums_within_epsilon(self):
        inst = MatrixScalingInstance([[1.0, 1.0], [0.0, 1.0]],
                                     [1.0, 1.0], [1.0, 1.0])
        sol = matrix_scale(inst, epsilon=1e-3)
        B = sol.scaled_matrix
        npt.assert_allclose(B.sum(axis=1), inst.row_sums, atol=1e-3)
        npt.assert_allclose(B.sum(axis=0), inst.col_sums, atol=1e-3)
        assert B[1, 0] == 0.0

    def test_agrees_with_alternate_row_column_normalization(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(0.2, 1.0, (3, 4))
        r = np.array([1.0, 1.0, 1.0])
        c = np.full(4, 0.75)
        expected = ras_scale(A, r, c)
        sol = matrix_scale(MatrixScalingInstance(A, r, c), epsilon=1e-7)
        npt.assert_allclose(sol.scaled_matrix, expected, atol=1e-5)

    def test_uncovered_column_never_succeeds(self):
        inst = MatrixScalingInstance([[1.0, 0.0], [1.0, 0.0]],
                                     [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ScalingFailure) as exc:
            matrix_scale(inst, epsilon=1e-3, max_iterations=5000)
        assert exc.value.status in (ERROR_NOT_PD, ERROR_BUDGET)

    def test_hall_violation_stops_on_budget(self):
        inst = MatrixScalingInstance([[1.0, 1.0], [0.0, 1.0]],
                                     [0.5, 1.5], [1.5, 0.5])
        with pytest.raises(ScalingFailure) as exc:
            matrix_scale(inst, epsilon=1e-3, max_iterations=20000)
        assert exc.value.status == ERROR_BUDGET
        assert np.isfinite(exc.value.result.pair.g).all()


class TestWeightStoredMatrixMaps:
    """build_matrix_cpmap holds its map as the weight matrix: the solvers,
    the capacity estimate and the CLI never form the (r, m, n) stack."""

    @pytest.fixture
    def no_stack(self, monkeypatch):
        def formed(T):
            raise AssertionError(f"the Kraus stack of {T!r} was formed")

        monkeypatch.setattr(cpmap._WeightMap, "kraus", property(formed))

    def test_solvers_and_cli_never_form_the_stack(self, no_stack, tmp_path,
                                                  capsys):
        A = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 3.0], [0.0, 0.0, 0.0]])
        r, c = np.array([1.0, 2.0, 0.0]), np.array([1.0, 1.5, 0.5])
        sol = matrix_scale(MatrixScalingInstance(A[:2], r[:2], c), 1e-6)
        assert sol.result.success and isinstance(sol.cpmap, CPMap)
        # a zero row and a zero-tail spec: the support restriction too
        M = MarginalSpec(c, r, (1,) * 3, (1,) * 3)
        assert decide_scalable(build_matrix_cpmap(A), M, seed=2).feasible
        M = MarginalSpec(c, r[:2], (1,) * 3, (1,) * 2)
        assert not estimate_capacity(build_matrix_cpmap(A[:2]), M).diverged
        path = tmp_path / "matscale.json"
        path.write_text(json.dumps({"kind": "matscale", "matrix": A[:2].tolist(),
                                    "row_sums": r[:2].tolist(),
                                    "col_sums": c.tolist()}))
        assert cli.main(["matscale", str(path), "--epsilon", "1e-6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instance"] == {"m": 2, "n": 3, "kraus": 5}
        assert report["capacity"]["log_lower_bound"] < 0

    def test_scales_a_sparse_1000_by_1000_matrix_in_seconds(self, no_stack):
        # 5% density and a permutation, so that the matrix is scalable: the
        # stack would be about 50 000 x 1000 x 1000 complex entries (800 GB)
        rng = np.random.default_rng(0)
        n = 1000
        A = np.where(rng.random((n, n)) < 0.05, rng.uniform(0.1, 1.0, (n, n)),
                     0.0)
        A[np.arange(n), rng.permutation(n)] += 1.0
        started = time.perf_counter()
        sol = matrix_scale(MatrixScalingInstance(A, np.ones(n), np.ones(n)),
                           1e-2)
        assert time.perf_counter() - started < 30.0
        assert sol.result.success and sol.cpmap.r == np.count_nonzero(A)
        B = sol.scaled_matrix
        assert np.abs(B.sum(axis=1) - 1.0).max() <= 1e-2
        assert np.abs(B.sum(axis=0) - 1.0).max() <= 1e-2

    def test_ds_distance_reads_the_weight_matrix(self, no_stack):
        # ds from W p and W^T q: the value of the dense-stored copy
        rng = np.random.default_rng(4)
        A = rng.uniform(0.1, 2.0, (20, 20))
        M = MarginalSpec(rng.uniform(0.5, 1.5, 20), rng.uniform(0.5, 1.5, 20),
                         (1,) * 20, (1,) * 20)
        ds = ds_distance(build_matrix_cpmap(A), M)
        dense = ds_distance(CPMap(matrix_kraus(A)), M)
        assert abs(ds - dense) <= 1e-12 * dense
        with pytest.raises(ValueError, match="spec asks for"):
            ds_distance(build_matrix_cpmap(A[:19]), M)

    def test_success_check_reads_the_weight_matrix_under_wider_blocks(
            self, no_stack):
        # blocks (1, 2) shrink to 1 x 1 on the support, so the loop runs on
        # W; its pair is diagonal, so the SUCCESS re-check on the instance
        # as given reads W too
        A = np.array([[1.0, 2.0, 0.5], [0.5, 1.0, 3.0], [1.0, 0.2, 1.0]])
        M = MarginalSpec([0.6, 0.4, 0.0], [0.5, 0.5, 0.0], (1, 2), (1, 2))
        assert general_scale(build_matrix_cpmap(A), M,
                             SolverConfig(1e-6)).success

    def test_stack_is_formed_on_read_with_the_dense_values(self):
        A = np.array([[1.0, 0.0, 4.0], [0.0, 2.0, 9.0]])
        T = build_matrix_cpmap(A)
        assert (T.m, T.n, T.r) == (2, 3, 4) and "kraus" not in vars(T)
        K = np.zeros((4, 2, 3), dtype=complex)
        K[[0, 1, 2, 3], [0, 0, 1, 1], [0, 2, 1, 2]] = np.sqrt([1.0, 4.0, 2.0,
                                                               9.0])
        npt.assert_array_equal(T.kraus, K)
        assert not T.kraus.flags.writeable and T.kraus is T.kraus

    def test_support_restriction_keeps_every_operator(self):
        # the restricted map's stack is the dense restriction of the stack,
        # zero operators included, and its bit size counts them
        A = np.array([[1.0, 0.5, 2.0], [3.0, 0.0, 0.25], [0.1, 1.0, 1.0]])
        M = MarginalSpec([0.6, 0.4, 0.0], [1.0, 0.0, 0.0], (1,) * 3, (1,) * 3)
        T = build_matrix_cpmap(A)
        Tr, Mr, _ = project_to_support(T, M)
        dense, _, _ = project_to_support(CPMap(T.kraus), M)
        assert (Tr.m, Tr.n, Tr.r) == (1, 2, 8)
        assert bit_complexity(Tr, Mr) == bit_complexity(dense, Mr)
        npt.assert_array_equal(Tr.kraus, dense.kraus)


class TestHorn:
    def test_single_slot_map_is_identity(self):
        T = build_horn_cpmap(2, 1)
        npt.assert_array_equal(T.kraus[0], np.eye(2))

    def test_two_slot_marginals(self):
        T = build_horn_cpmap(2, 2)
        npt.assert_allclose(apply(T, np.eye(4)), 2.0 * np.eye(2), atol=1e-14)
        npt.assert_allclose(dual_apply(T, np.eye(2)), np.eye(4), atol=1e-14)

    def test_complementary_pair(self):
        inst = HornInstance(([0.7, 0.3], [0.7, 0.3]))
        sol = horn_solve(inst, epsilon=1e-3)
        H1, H2 = sol.matrices
        assert np.linalg.norm(H1 + H2 - np.eye(2)) <= 1e-3
        for H, spec in zip(sol.matrices, inst.spectra):
            npt.assert_allclose(np.linalg.eigvalsh(H)[::-1], spec, atol=1e-3)

    def test_incompatible_complement_spectra_fail(self):
        # B = I - A forces spec(B) = 1 - reversed spec(A), so (0.5, 0.5)
        # cannot complement (0.9, 0.1)
        inst = HornInstance(([0.9, 0.1], [0.5, 0.5]))
        with pytest.raises(ScalingFailure) as exc:
            horn_solve(inst, epsilon=1e-3, max_iterations=20000)
        assert exc.value.status == ERROR_BUDGET

    def test_random_triple_reconstruction(self):
        rng = np.random.default_rng(6)
        hs = []
        for _ in range(2):
            W = random_complex(rng, (3, 3))
            rho = W @ W.conj().T
            hs.append(0.3 * rho / np.trace(rho).real)
        H3 = np.eye(3) - hs[0] - hs[1]
        spectra = tuple(np.linalg.eigvalsh(H)[::-1].copy()
                        for H in (*hs, H3))
        sol = horn_solve(HornInstance(spectra), epsilon=2e-3)
        total = sum(sol.matrices)
        assert np.linalg.norm(total - np.eye(3)) <= 2e-3
        for H, spec in zip(sol.matrices, spectra):
            npt.assert_allclose(np.linalg.eigvalsh(H)[::-1], spec, atol=2e-3)

    def test_normalize_and_invert_round_trip(self):
        alpha, beta, gamma = [2.0, -1.0], [1.5, 0.5], [2.8, 0.2]
        norm = horn_normalize(alpha, beta, gamma)
        for spec in norm.instance.spectra:
            assert np.all(spec > 0) and np.all(spec <= 1.0)
        sol = horn_solve(norm.instance, epsilon=1e-4)
        A, B, C = norm.invert(sol.matrices)
        tol = 1e-3 * norm.scale
        assert np.linalg.norm(A + B - C) <= tol
        npt.assert_allclose(np.linalg.eigvalsh(A)[::-1], alpha, atol=tol)
        npt.assert_allclose(np.linalg.eigvalsh(B)[::-1], beta, atol=tol)
        npt.assert_allclose(np.linalg.eigvalsh(C)[::-1], gamma, atol=tol)

    def test_normalize_restores_a_shift_lost_to_rounding(self):
        # past about 1e16, w = gamma_1 + 1 rounds to gamma_1 and would leave
        # a zero entry; one doubling of the shifts restores a positive gap
        norm = horn_normalize([6e19, 4e19], [6e19, 4e19], [1.2e20, 8e19])
        assert norm.shifts == (2.0, 2.0, 2.4e20)
        for spec in norm.instance.spectra:
            assert np.all(spec > 0) and np.all(spec <= 1.0)

    def test_trace_identity_required(self):
        with pytest.raises(InfeasibleInstance):
            horn_normalize([1.0, 0.0], [1.0, 0.0], [3.0, 0.0])

    def test_eigenvalue_inequality_violation_fails(self):
        # lambda_1(A + B) <= lambda_1(A) + lambda_1(B) rules out gamma_1 = 3
        norm = horn_normalize([1.0, 0.0], [1.0, 0.0], [3.0, -1.0])
        with pytest.raises(ScalingFailure):
            horn_solve(norm.instance, epsilon=1e-3, max_iterations=20000)

    def test_spectra_validation(self):
        with pytest.raises(ValueError):
            HornInstance(([1.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValueError):
            HornInstance(([1.0, 0.5], [0.5]))

    @pytest.mark.parametrize("build, args", [
        (horn_normalize, ([], [], [])),
        (horn_normalize, ([], [1.0], [1.0])),
        (horn_normalize, ([[1.0, 0.0]], [[1.0, 0.0]], [[2.0, 0.0]])),
        (HornInstance, (([], []),)),
    ], ids=["all-empty", "empty-alpha", "2-d", "empty-instance"])
    def test_empty_or_2d_data_rejected(self, build, args):
        with pytest.raises(ValueError, match="nonempty"):
            build(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [[1e308, -1e308], [8e307, -8e307],
                                       [np.nan, 0.0], [np.inf, 0.0]])
    def test_normalize_rejects_data_it_cannot_represent(self, alpha):
        with pytest.raises(ValueError, match="finite|overflow"):
            horn_normalize(alpha, [0.0, 0.0], [0.0, 0.0])


class TestForster:
    def test_random_points_reach_isotropic_position(self):
        rng = np.random.default_rng(7)
        U = random_complex(rng, (2, 4))
        inst = ForsterInstance(U, np.full(4, 0.5), [1.0, 1.0])
        sol = forster_scale(inst, epsilon=1e-4)
        W = sol.vectors
        npt.assert_allclose(np.linalg.norm(W, axis=0), np.ones(4),
                            atol=1e-12)
        iso = sum(inst.weights[i] * np.outer(W[:, i], W[:, i].conj())
                  for i in range(4))
        assert np.linalg.norm(iso - np.diag(inst.spectrum)) <= 1e-4

    def test_transform_generates_the_unit_vectors(self):
        rng = np.random.default_rng(8)
        U = random_complex(rng, (2, 3))
        inst = ForsterInstance(U, np.full(3, 2 / 3), [1.0, 1.0])
        sol = forster_scale(inst, epsilon=1e-4)
        raw = sol.transform @ U
        npt.assert_allclose(raw / np.linalg.norm(raw, axis=0), sol.vectors,
                            atol=1e-12)

    def test_parallel_points_cannot_be_isotropic(self):
        U = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        inst = ForsterInstance(U, [1.0, 1.0], [1.0, 1.0])
        assert not polymatroid_membership(inst)
        with pytest.raises(ScalingFailure) as exc:
            forster_scale(inst, epsilon=1e-3, max_iterations=5000)
        assert exc.value.status == ERROR_NOT_PD

    def test_membership_at_polytope_vertex(self):
        U = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
        assert polymatroid_membership(
            ForsterInstance(U, [1.0, 1.0, 0.0], [1.0, 1.0]))
        assert not polymatroid_membership(
            ForsterInstance(U, [2.0, 0.0, 0.0], [1.0, 1.0]))

    def test_membership_dimension_guard(self):
        rng = np.random.default_rng(9)
        U = random_complex(rng, (2, 21))
        inst = ForsterInstance(U, np.full(21, 2 / 21), [1.0, 1.0])
        with pytest.raises(DimensionTooLarge):
            polymatroid_membership(inst)

    def test_zero_weight_points_ride_along(self):
        rng = np.random.default_rng(10)
        U = random_complex(rng, (2, 4))
        inst = ForsterInstance(U, [0.5, 0.0, 1.0, 0.5], [1.0, 1.0])
        sol = forster_scale(inst, epsilon=1e-3)
        W = sol.vectors
        npt.assert_allclose(np.linalg.norm(W, axis=0), np.ones(4),
                            atol=1e-12)
        iso = sum(inst.weights[i] * np.outer(W[:, i], W[:, i].conj())
                  for i in range(4))
        assert np.linalg.norm(iso - np.eye(2)) <= 1e-3

    def test_instance_validation(self):
        U = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            ForsterInstance(U, [-1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            ForsterInstance(U, [0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            ForsterInstance(U, [0.5, 0.5], [0.4, 0.6])
        with pytest.raises(ValueError):
            ForsterInstance(np.array([[1.0, 0.0], [0.0, 0.0]]),
                            [0.5, 0.5], [0.5, 0.5])

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_vectors_are_accepted_without_warning(self):
        # a norm would square 1e308 and overflow
        inst = ForsterInstance([[1e308, 1, 0.5], [0, 1, 2]], [1, 1, 1],
                               [1.5, 1.5])
        assert inst.n == 3

    def test_singular_factors_raise_scaling_failure(self):
        # The first two points are collinear and weigh 2.4 > q_1, so the
        # instance is infeasible; its factors end singular to working
        # precision, and the solver returns its starting pair.
        U = np.array([[1, 2, 0, 1], [1, 2, 1, 0], [0, 0, 1, 1]], dtype=complex)
        inst = ForsterInstance(U, [1.2, 1.2, 0.5, 0.5], np.full(3, 3.4 / 3))
        assert not polymatroid_membership(inst)
        with pytest.raises(ScalingFailure) as exc:
            forster_scale(inst, 1e-2, seed=1, max_iterations=3000)
        assert exc.value.status == ERROR_BUDGET
        assert exc.value.result.iterations == 3000


class TestSchurHorn:
    def test_diagonal_is_exact_and_spectrum_close(self):
        p = np.array([0.8, 0.7, 0.5])
        q = np.array([1.2, 0.8])
        sol = schur_horn(p, q, epsilon=1e-3)
        H = sol.matrix
        npt.assert_allclose(np.real(np.diag(H)), p, atol=1e-12)
        npt.assert_allclose(np.linalg.eigvalsh(H), [0.0, 0.8, 1.2],
                            atol=1e-3)

    def test_uniform_diagonal_feasible_for_any_spectrum(self):
        sol = schur_horn(np.ones(3), [2.4, 0.6, 0.0], epsilon=1e-3)
        npt.assert_allclose(np.real(np.diag(sol.matrix)), np.ones(3),
                            atol=1e-12)
        npt.assert_allclose(np.linalg.eigvalsh(sol.matrix), [0.0, 0.6, 2.4],
                            atol=1e-3)

    def test_majorization_is_necessary(self):
        with pytest.raises(InfeasibleInstance, match="majorize"):
            schur_horn([1.5, 0.5], [1.2, 0.8], epsilon=1e-3)

    def test_too_many_spectrum_entries(self):
        with pytest.raises(InfeasibleInstance):
            schur_horn([1.0, 1.0], [0.8, 0.7, 0.5], epsilon=1e-3)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            schur_horn([1.0, -0.5], [0.5, 0.0], epsilon=1e-3)

    def test_past_the_enumeration_limit(self):
        # n = 40 points: polymatroid_membership would need 2^40 subsets.
        rng = np.random.default_rng(40)
        q = np.sort(rng.uniform(1.0, 2.0, 6))[::-1]
        q_padded = np.concatenate([q, np.zeros(34)])
        U = random_unitary(rng, 40)
        p = np.diag(U @ np.diag(q_padded) @ U.conj().T).real.copy()
        p *= q.sum() / p.sum()
        H = schur_horn(p, q, epsilon=1e-3, seed=1).matrix
        npt.assert_allclose(np.real(np.diag(H)), p, atol=1e-12)
        npt.assert_allclose(np.linalg.eigvalsh(H)[::-1], q_padded, atol=1e-3)

    def test_trace_gap_inside_the_looser_band_is_infeasible(self):
        # 1.5e-12 exceeds the trace tolerance 1e-12 * max(1, sum p) that
        # forster_scale applies, though not 1e-12 * (sum p + sum q).
        with pytest.raises(InfeasibleInstance, match="majorize"):
            schur_horn([0.5, 0.5], [1 + 1.5e-12], epsilon=1e-3)

    def test_all_zero_instance(self):
        with pytest.raises(AllZeroSpectrum, match="diagonal.*spectrum"):
            schur_horn([0.0, 0.0], [0.0, 0.0], epsilon=1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, q", [([1e308, 1e308], [1.0]),
                                      ([1.0], [1e308, 1e308])])
    def test_overflowing_total_rejected(self, p, q):
        with pytest.raises(ValueError, match="finite"):
            schur_horn(p, q, epsilon=1e-3)


@pytest.mark.parametrize("build, args", [
    pytest.param(MatrixScalingInstance, ([[np.nan, 1.0], [1.0, 1.0]], [2.0, 2.0],
                                         [2.0, 2.0]), id="matrix-nan"),
    pytest.param(MatrixScalingInstance, ([[np.inf, 1.0]], [1.0], [0.5, 0.5]),
                 id="matrix-inf"),
    pytest.param(MatrixScalingInstance, ([[1.0]], [np.nan], [1.0]),
                 id="row-sums-nan"),
    pytest.param(HornInstance, (([np.nan, 0.5], [0.5, 0.5]),), id="horn-nan"),
    pytest.param(HornInstance, (([np.inf, 0.5], [0.5, 0.5]),), id="horn-inf"),
    pytest.param(ForsterInstance, ([[np.nan, 1.0], [0.0, 1.0]], [1.0, 1.0],
                                   [1.0, 1.0]), id="vectors-nan"),
    pytest.param(ForsterInstance, (np.eye(2), [np.nan, 1.0], [1.0, 1.0]),
                 id="weights-nan"),
    pytest.param(ForsterInstance, (np.eye(2), [1.0, 1.0], [np.inf, 1.0]),
                 id="spectrum-inf"),
    pytest.param(schur_horn, ([np.nan, 0.5], [1.0, 0.5], 1e-3),
                 id="schur-horn-diagonal-nan"),
    pytest.param(schur_horn, ([0.5, 0.5], [np.nan, 0.0], 1e-3),
                 id="schur-horn-spectrum-nan"),
])
def test_non_finite_data_rejected(build, args):
    with pytest.raises(ValueError, match="finite"):
        build(*args)
