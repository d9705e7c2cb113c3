"""Property tests: each fast path of the solver step against its slow oracle.

The oracles are the literal definitions: corner sums for ds
(helpers.ds_literal), one slogdet per leading minor for the relative
determinant (log_relative_det), the per-call mask, weight and
solve_triangular code that the cached flag plan and the direct LAPACK
solve replace (exact equality), the Kraus-by-Kraus loops of
apply / dual_apply for the marginals, one Fraction per entry for
bit_complexity (helpers.bit_complexity_literal) and for the budgets it
feeds when the lower-bound shortcut skips it, per-operator loops for
the Kraus stacks that the app builders, scale and project_to_support
write in one go, the converted-pair errors (helpers.converted_errors)
that the lift's deleted off-support fill search compared, the
subset enumeration of polymatroid_membership that schur_horn's
majorization test stands in for, eigvalsh for the Cholesky test of
positive definiteness, a loop recomputing both marginals every step
(helpers.alternate_literal) for the step that computes one, the
capacity estimate by its definition (helpers.estimate_capacity_literal)
for estimate_capacity's reading of the shared loop, and the
triangular solve of the precomposed map g0^dag T h0 for general_scale
on a full-support instance (exact equality), and the dense-stack loop
for the diagonal layout that matrix maps run in.
"""

import itertools
import math
import os
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from helpers import (
    alternate_literal,
    balance_factor_literal,
    bit_complexity_literal,
    block_mask_literal,
    converted_errors,
    ds_literal_blocks,
    ds_masked_literal,
    estimate_capacity_literal,
    forster_kraus_literal,
    horn_kraus_literal,
    matrix_kraus,
    random_complex,
    random_cpmap,
    random_hermitian,
    random_pd,
    random_unitary,
    random_upper,
)
from opscale import (
    CPMap,
    ForsterInstance,
    MarginalSpec,
    MatrixScalingInstance,
    NotPositiveDefinite,
    ScalingFailure,
    ScalingPair,
    SolverConfig,
    apply,
    balance_factor,
    bit_complexity,
    build_forster_cpmap,
    build_horn_cpmap,
    build_matrix_cpmap,
    convert_pair,
    decide_scalable,
    ds_from_marginals,
    dual_apply,
    estimate_capacity,
    general_scale,
    iteration_budget,
    log_relative_det,
    marginals,
    matrix_scale,
    polymatroid_membership,
    project_to_support,
    scale,
    singular_floor,
    triangular_scale,
)
from opscale import cpmap, relmetrics, scaler
from opscale.apps import _majorizes
from opscale.cpmap import _block_plan
from opscale.relmetrics import _iterate, _log_det

block_structures = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)
# Block structures with the all-1x1 ones (matrix scaling) drawn often.
flag_structures = st.one_of(block_structures,
                            st.integers(1, 6).map(lambda k: (1,) * k))
seeds = st.integers(0, 2**32 - 1)


def blocked_spectrum(rng, blocks):
    """Positive weights, nonincreasing inside each block."""
    return np.concatenate([np.sort(rng.uniform(0.1, 2.0, b))[::-1]
                           for b in blocks])


def block_slices(blocks):
    stops = np.cumsum(blocks)
    return [slice(int(e - b), int(e)) for b, e in zip(blocks, stops)]


def off_block(blocks):
    d = sum(blocks)
    inside = np.zeros((d, d), dtype=bool)
    for s in block_slices(blocks):
        inside[s, s] = True
    return ~inside


def random_blocked_spec(rng, p_blocks, q_blocks):
    return MarginalSpec(blocked_spectrum(rng, p_blocks),
                        blocked_spectrum(rng, q_blocks), p_blocks, q_blocks)


@given(block_structures, block_structures, seeds)
def test_ds_matches_per_block_literal(p_blocks, q_blocks, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    primal = random_hermitian(rng, M.m)
    dual = random_hermitian(rng, M.n)
    expected = ds_literal_blocks(primal, dual, M)
    npt.assert_allclose(ds_from_marginals(primal, dual, M), expected,
                        rtol=1e-12)
    # entries outside the blocks carry no weight and are never read
    primal[off_block(q_blocks)] = np.inf
    dual[off_block(p_blocks)] = np.nan
    npt.assert_allclose(ds_from_marginals(primal, dual, M), expected,
                        rtol=1e-12)


@given(flag_structures)
def test_block_plan_matches_literal_mask(blocks):
    plan, mask = _block_plan(blocks), block_mask_literal(blocks)
    npt.assert_array_equal(plan.mask, mask)
    npt.assert_array_equal(plan.flat, np.flatnonzero(mask))
    npt.assert_array_equal(plan.eye, np.eye(sum(blocks))[mask])
    assert not any(arr.flags.writeable for arr in plan)


@given(flag_structures, flag_structures, seeds)
def test_ds_matches_masked_literal_exactly(p_blocks, q_blocks, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    primal = random_hermitian(rng, M.m)
    dual = random_hermitian(rng, M.n)
    expected = ds_masked_literal(primal, dual, M)
    assert ds_from_marginals(primal, dual, M) == expected
    primal[off_block(q_blocks)] = np.inf
    dual[off_block(p_blocks)] = np.nan
    assert ds_from_marginals(primal, dual, M) == expected


@given(flag_structures, st.integers(-200, 200), seeds)
def test_balance_factor_matches_solve_triangular_exactly(blocks, exp10, seed):
    rng = np.random.default_rng(seed)
    S = random_pd(rng, sum(blocks)) * 10.0**exp10
    npt.assert_array_equal(balance_factor(S, blocks),
                           balance_factor_literal(S, blocks))


@given(flag_structures, seeds)
def test_balance_factor_not_pd_matches_literal(blocks, seed):
    rng = np.random.default_rng(seed)
    d = sum(blocks)
    A = random_complex(rng, (d, d - 1)) if d > 1 else np.zeros((1, 1))
    S = A @ A.conj().T
    with pytest.raises(NotPositiveDefinite) as new:
        balance_factor(S, blocks)
    with pytest.raises(NotPositiveDefinite) as old:
        balance_factor_literal(S, blocks)
    assert new.value.min_eigenvalue == old.value.min_eigenvalue


@given(flag_structures.filter(lambda b: sum(b) > 1),
       st.one_of(st.floats(-2.0, -1e-2), st.floats(1e-2, 10.0)), seeds)
def test_balance_factor_pd_decision_matches_eigvalsh(blocks, delta, seed):
    # lambda_min(S) = floor * (1 + delta), outside the roundoff band of both
    # the Cholesky test and eigvalsh (|delta| >= 1e-2, other eigenvalues in
    # [1, 2], so floor * |delta| >= 1e-14 against roundoff ~d u ||S||); a
    # 1 x 1 S is its own trace, so its floor cannot be put there
    rng = np.random.default_rng(seed)
    d = sum(blocks)
    rest = rng.uniform(1.0, 2.0, d - 1)
    c = 1e-12 * (1.0 + delta) / d
    lam = np.append(rest, c * rest.sum() / (1.0 - c))
    U = random_unitary(rng, d)
    S = (U * lam) @ U.conj().T
    npt.assert_allclose(lam[-1], singular_floor(S) * (1.0 + delta), rtol=1e-6)
    try:
        balance_factor_literal(S, blocks)
    except NotPositiveDefinite as err:
        with pytest.raises(NotPositiveDefinite) as new:
            balance_factor(S, blocks)
        assert new.value.min_eigenvalue == err.min_eigenvalue
        assert delta < 0
    else:
        balance_factor(S, blocks)
        assert delta > 0


# Symmetrizing an infinite complex entry makes NaN, and numpy warns of it.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 0), (2, 2)])
def test_balance_factor_rejects_non_finite_input(bad, where):
    # zpotrf alone lets NaN through with a NaN factor; such an S is not PD
    S = random_pd(np.random.default_rng(0), 3)
    S[where] = bad
    for blocks in (None, (1, 2), (1, 1, 1)):
        with pytest.raises(NotPositiveDefinite) as info:
            balance_factor(S, blocks)
        assert math.isnan(info.value.min_eigenvalue)


@given(flag_structures, flag_structures, st.integers(1, 4),
       st.sampled_from([1e-2, 1e-4, 1e-6]), st.integers(0, 60), seeds)
def test_one_product_loop_matches_literal_loop(p_blocks, q_blocks, r, eps,
                                               budget, seed):
    # The solver reuses the balanced marginal inc^dag target inc and
    # computes only the other one from the stack; the literal loop
    # recomputes both every step.  ds may differ by the roundoff of the
    # balanced side only, far below every threshold here: relatively, or
    # absolutely in a last ds that one step made exact but for roundoff.
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    M = MarginalSpec(M.p, M.q * (M.p.sum() / M.q.sum()), p_blocks, q_blocks)
    T = random_cpmap(rng, M.m, M.n, r)
    res = triangular_scale(T, M, SolverConfig(eps, max_iterations=budget))
    status, steps, ds, min_eig = alternate_literal(T, M, eps, budget)
    assert (res.status, res.iterations, res.min_eigenvalue) == (status, steps,
                                                               min_eig)
    npt.assert_allclose(res.ds_trace, ds, rtol=1e-12, atol=1e-26)


@given(flag_structures, flag_structures, st.integers(1, 4),
       st.sampled_from([1e-2, 1e-4, 1e-6]), st.integers(0, 60), seeds, seeds)
def test_general_solve_is_the_triangular_solve_from_its_start(
        p_blocks, q_blocks, r, eps, budget, seed, solver_seed):
    # Both solvers run one body from two starts: on a full-support instance
    # general_scale is triangular_scale on the precomposed map g0^dag T h0,
    # step for step and bit for bit, and composes its pair with (g0, h0).
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    M = MarginalSpec(M.p, M.q * (M.p.sum() / M.q.sum()), p_blocks, q_blocks)
    T = random_cpmap(rng, M.m, M.n, r)
    config = SolverConfig(eps, max_iterations=budget, seed=solver_seed)
    start = np.random.default_rng(solver_seed)
    g0 = scaler._block_gaussian(start, M.q_slices(), M.m)
    h0 = scaler._block_gaussian(start, M.p_slices(), M.n)
    res = general_scale(T, M, config)
    tri = triangular_scale(CPMap(g0.conj().T @ T.kraus @ h0), M, config)
    assert ((res.status, res.iterations, res.ds_trace, res.min_eigenvalue)
            == (tri.status, tri.iterations, tri.ds_trace, tri.min_eigenvalue))
    assert res.pair.g.tobytes() == (g0 @ tri.pair.g).tobytes()
    assert res.pair.h.tobytes() == (h0 @ tri.pair.h).tobytes()


@given(flag_structures, flag_structures, st.integers(-30, 30), seeds)
def test_normalized_spec_matches_constructor(p_blocks, q_blocks, exp10, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    M = MarginalSpec(M.p * 10.0**exp10, M.q * 10.0**exp10, p_blocks, q_blocks)
    Mhat, s = M.normalized()
    expected = MarginalSpec(M.p / s, M.q / s, p_blocks, q_blocks)
    npt.assert_array_equal(Mhat.p, expected.p)
    npt.assert_array_equal(Mhat.q, expected.q)
    assert (Mhat.p_blocks, Mhat.q_blocks) == (expected.p_blocks,
                                              expected.q_blocks)
    assert not (Mhat.p.flags.writeable or Mhat.q.flags.writeable)


@given(block_structures, seeds)
def test_cholesky_relative_det_matches_minors(blocks, seed):
    rng = np.random.default_rng(seed)
    a = blocked_spectrum(rng, blocks)
    X = random_pd(rng, sum(blocks))
    npt.assert_allclose(_log_det(a, X, blocks),
                        log_relative_det(a, X, blocks), rtol=1e-10, atol=1e-12)


@given(block_structures, seeds)
def test_balance_factor_with_blocks(blocks, seed):
    rng = np.random.default_rng(seed)
    S = random_pd(rng, sum(blocks))
    g = balance_factor(S, blocks)
    assert np.all(g[off_block(blocks)] == 0)
    npt.assert_array_equal(g, np.triu(g))
    balanced = g.conj().T @ S @ g
    for s in block_slices(blocks):
        npt.assert_allclose(balanced[s, s], np.eye(s.stop - s.start),
                            atol=1e-10)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), seeds)
def test_stacked_marginals_match_apply(m, n, r, seed):
    rng = np.random.default_rng(seed)
    T = random_cpmap(rng, m, n, r)
    M = random_blocked_spec(rng, (n,), (m,))
    primal, dual = marginals(T, M)
    npt.assert_allclose(primal, apply(T, np.diag(M.p)), rtol=1e-12, atol=1e-14)
    npt.assert_allclose(dual, dual_apply(T, np.diag(M.q)), rtol=1e-12, atol=1e-14)


@given(block_structures, block_structures, st.integers(0, 1), seeds)
def test_step_capacity_factors_match_minors(p_blocks, q_blocks, j, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    T = random_cpmap(rng, M.m, M.n, M.m * M.n)
    # The marginals yielded before steps 0..j + 1, each with the step
    # taken just before it.
    items = list(itertools.islice(_iterate(T.kraus, M), j + 2))
    primal, dual, _ = items[j]
    next_primal, next_dual, (inc, log_factor, upper) = items[j + 1]
    target, a, blocks = ((primal, M.q, q_blocks) if j == 0
                         else (dual, M.p, p_blocks))
    npt.assert_allclose(log_factor, -log_relative_det(a, target, blocks),
                        rtol=1e-10, atol=1e-12)
    npt.assert_allclose(upper, log_relative_det(
        a, inc.conj().T @ target @ inc, blocks), atol=1e-10)
    # The rescaled stack, one operator at a time, has the next marginals.
    g = items[1][2][0]
    h = inc if j == 1 else np.eye(M.n)
    rescaled = CPMap([g.conj().T @ A @ h for A in T.kraus])
    npt.assert_allclose(next_primal, apply(rescaled, np.diag(M.p)),
                        rtol=1e-10, atol=1e-12)
    npt.assert_allclose(next_dual, dual_apply(rescaled, np.diag(M.q)),
                        rtol=1e-10, atol=1e-12)


@given(flag_structures, flag_structures, st.integers(1, 4), st.integers(0, 40),
       st.booleans(), seeds)
def test_estimate_capacity_matches_literal(p_blocks, q_blocks, r, budget,
                                           shared_kernel, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    shared_kernel &= M.n > 1
    K = random_complex(rng, (r, M.m, M.n))
    if shared_kernel:
        # every operator kills one input vector, so T*(Q) stays singular
        # and the iteration diverges
        v = random_complex(rng, M.n)
        v /= np.linalg.norm(v)
        K -= (K @ v)[:, :, None] * v.conj()
    T = CPMap(K)
    est = estimate_capacity(T, M, budget)
    log_value, diverged, steps = estimate_capacity_literal(T, M, budget)
    assert (est.diverged, est.steps) == (diverged, steps)
    npt.assert_allclose(est.log_value, log_value, rtol=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 198])
def test_budget_zero_estimate_of_a_rank_deficient_map_vanishes(seed):
    # T(P) of rank r n = 1 < m = 2 has cap 0; the objective is read only
    # off a T(P) that passes balance_factor's PD test, as at any budget
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, (1,), (2,))
    T = CPMap(random_complex(rng, (1, 2, 1)))
    for budget in (0, 1):
        est = estimate_capacity(T, M, budget)
        assert (est.value, est.log_value, est.diverged, est.steps) == (
            0.0, -math.inf, True, 0)


def random_matrix(rng, m, n, density):
    """Nonnegative m x n matrix, with at least one positive entry and,
    at low density, zero rows and columns."""
    A = np.where(rng.random((m, n)) < density, rng.uniform(0.1, 4.0, (m, n)),
                 0.0)
    A[rng.integers(m), rng.integers(n)] = rng.uniform(0.1, 4.0)
    return A


def _dense_layout(K, M):
    return relmetrics._Stack


@given(st.integers(1, 5), st.integers(1, 5), st.floats(0.2, 1.0),
       st.sampled_from(["matrix_scale", "decide_scalable"]),
       st.sampled_from([1e-2, 1e-4, 1e-6]), st.integers(0, 60), seeds)
def test_diagonal_layout_matches_dense_stack(m, n, density, path, eps, budget,
                                             seed):
    # Matrix maps run the loop on their weight matrix; the dense-stack
    # loop on the same map is its oracle.  The layouts round differently:
    # their marginals agree to some hundred ulps after 60 steps, so ds, the
    # weighted squared deviation of the marginals from I, agrees to 1e-12
    # relative or to about 2^-43 sqrt(s ds), its first-order change (s the
    # spectrum total).  A balanced side is the identity in the diagonal
    # layout, so its upper estimates are 0.
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, m, n, density)
    r, c = rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, n)
    if path == "matrix_scale":
        instance = MatrixScalingInstance(A, r, c * (r.sum() / c.sum()))

        def solve():
            try:
                return matrix_scale(instance, eps, seed, budget).result
            except ScalingFailure as err:
                return err.result
    else:
        # zero tails on both sides exercise the support restriction
        r[rng.random(m) < 0.3], c[rng.random(n) < 0.3] = 0.0, 0.0
        r[0], c[0] = max(r[0], 0.5), max(c[0], 0.5)
        M = MarginalSpec(c * (r.sum() / c.sum()), r, (1,) * n, (1,) * m)

        def solve():
            return decide_scalable(build_matrix_cpmap(A), M, seed, budget).result
    res = solve()
    with mock.patch.object(relmetrics, "_layout", _dense_layout):
        dense = solve()
    assert ((res.status, res.iterations, res.min_eigenvalue)
            == (dense.status, dense.iterations, dense.min_eigenvalue))
    ds, ref = np.array(res.ds_trace), np.array(dense.ds_trace)
    slack = 2.0**-43 * np.sqrt(ref * r.sum()) + 1e-26
    assert np.all(np.abs(ds - ref) <= 1e-12 * ref + slack)
    npt.assert_allclose(res.capacity_trace.log_factors,
                        dense.capacity_trace.log_factors, rtol=1e-12,
                        atol=1e-13)
    assert not any(res.capacity_trace.upper_estimates)
    npt.assert_allclose(dense.capacity_trace.upper_estimates, 0.0, atol=1e-14)


def _count_balance_factor(monkeypatch):
    calls = []
    original = cpmap.balance_factor
    monkeypatch.setattr(cpmap, "balance_factor",
                        lambda *args: calls.append(1) or original(*args))
    return calls


def test_matrix_map_solve_never_calls_balance_factor(monkeypatch):
    calls = _count_balance_factor(monkeypatch)
    A = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 3.0]])
    res = matrix_scale(MatrixScalingInstance(A, [1.0, 2.0], [1.0, 1.5, 0.5]),
                       1e-6).result
    assert res.iterations > 2 and not calls


def test_dense_map_with_unit_blocks_calls_balance_factor(monkeypatch):
    # 1 x 1 blocks alone do not make a map cell-supported
    calls = _count_balance_factor(monkeypatch)
    rng = np.random.default_rng(3)
    T = random_cpmap(rng, 2, 3, 2)
    M = MarginalSpec([0.5, 0.3, 0.2], [0.6, 0.4], (1, 1, 1), (1, 1))
    res = triangular_scale(T, M, SolverConfig(1e-6, max_iterations=20))
    assert res.iterations and len(calls) == res.iterations


# Reals from every range the bit_complexity kernel tells apart, writing
# |x| = N / 2^k with N odd: the closed form (k <= 53, integers >= 2^53
# included), the int64 continued fraction (53 < k <= 62) and the Fraction
# fallback (k > 62: about |x| < 2^-9, subnormals included).
reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1, 1 / 3, 2.0**-60, 1e300, 5e-324,
                     2.0**53 + 2, 2.0**-9, 2.0**-10, 1 - 2.0**-53]),
    st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1130, 960)),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
              st.integers(-9, 0)),
    st.floats(-(2.0**-9), 2.0**-9),
    st.integers(2**53, 2**1000).map(float),
    st.floats(-1e5, 1e5),
)
scales = st.sampled_from([1e-6, 1e-3, 0.1, 1.0, 1e4])


@given(st.lists(reals, min_size=1, max_size=40), st.integers(1, 16))
def test_bit_complexity_matches_fraction_oracle_on_floats(xs, chunk):
    x = np.array(xs)
    T = CPMap([(x + 1j * x[::-1])[None, :]])
    M = MarginalSpec(np.ones(x.size), [1.0])
    with mock.patch.object(relmetrics, "_CHUNK", chunk):
        assert bit_complexity(T, M) == bit_complexity_literal(T, M)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), scales, seeds)
def test_bit_complexity_matches_oracle_on_random_maps(m, n, r, scale, seed):
    rng = np.random.default_rng(seed)
    T = random_cpmap(rng, m, n, r, scale)
    M = random_blocked_spec(rng, (n,), (m,))
    assert bit_complexity(T, M) == bit_complexity_literal(T, M)


@given(st.integers(1, 4), st.integers(1, 5), seeds)
def test_bit_complexity_matches_oracle_on_matrix_maps(m, n, seed):
    rng = np.random.default_rng(seed)
    A = np.where(rng.random((m, n)) < 0.6, rng.uniform(0.5, 1.5, (m, n)), 0.0)
    A[rng.integers(m), rng.integers(n)] = rng.uniform(0.5, 1.5)
    T = build_matrix_cpmap(A)
    M = random_blocked_spec(rng, (n,), (m,))
    assert bit_complexity(T, M) == bit_complexity_literal(T, M)


def zero_tailed_spectrum(rng, blocks):
    """blocked_spectrum with a random zero tail in each block, not all zero."""
    v = blocked_spectrum(rng, blocks)
    for s in block_slices(blocks):
        v[s.start + int(rng.integers(0, s.stop - s.start + 1)):s.stop] = 0.0
    if not v.any():
        v[0] = 1.0
    return v


@given(block_structures, block_structures, scales, seeds)
def test_bit_complexity_matches_oracle_on_restricted_maps(p_blocks, q_blocks,
                                                          scale, seed):
    rng = np.random.default_rng(seed)
    M = MarginalSpec(zero_tailed_spectrum(rng, p_blocks),
                     zero_tailed_spectrum(rng, q_blocks), p_blocks, q_blocks)
    T = random_cpmap(rng, M.m, M.n, int(rng.integers(1, 4)), scale)
    Tr, Mr, _ = project_to_support(T, M)
    assert bit_complexity(Tr, Mr) == bit_complexity_literal(Tr, Mr)


def _budget_under_cap(cap, *args):
    with mock.patch.dict(os.environ, {"OPSCALE_HARD_CAP": str(cap)}):
        return iteration_budget(*args)


def few_bit_instance(rng, m, n, r):
    """Kraus entries mostly 0, else 1 or -1/2 (1, 2, 3 bits per part), and
    dyadic spectra: b comes close to its lower bound 2 r m n + m + n."""
    T = CPMap(rng.choice([0.0, 1.0, -0.5], (r, m, n), p=[0.6, 0.2, 0.2])
              + 1j * rng.choice([0.0, 1.0], (r, m, n), p=[0.8, 0.2]))
    p, q = (np.sort(rng.choice([1.0, 0.5, 0.25], k))[::-1] for k in (n, m))
    return T, MarginalSpec(p, q)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.one_of(scales, st.none()),
       st.one_of(st.floats(0.05, 0.999), st.floats(0.9, 0.999)),
       st.sampled_from(["triangular", "general"]), st.integers(0, 2), seeds)
def test_resolved_budget_matches_literal_bit_complexity(m, n, r, scale, eps,
                                                        mode, regime, seed):
    rng = np.random.default_rng(seed)
    if scale is None:
        T, M = few_bit_instance(rng, m, n, r)
    else:
        T = random_cpmap(rng, m, n, r, scale)
        M = random_blocked_spec(rng, (n,), (m,))
    b = bit_complexity_literal(T, M)
    Mhat, _ = M.normalized()
    args = (m, eps, Mhat.p.min(), Mhat.q.min(), mode)
    # A cap at or below the budget of the lower bound 2rmn + m + n on b
    # (the shortcut), between it and the budget of b, or just above both,
    # where a shortcut on a bound above b would clamp the budget wrongly.
    lo = _budget_under_cap(10**30, 2 * r * m * n + m + n, *args)
    hi = _budget_under_cap(10**30, b, *args)
    cap = int(rng.integers(*[(0, lo), (lo, hi), (hi, hi + hi // 8)][regime],
                           endpoint=True))
    with mock.patch.dict(os.environ, {"OPSCALE_HARD_CAP": str(cap)}):
        budget, trace = scaler._resolve_budget(T, M, SolverConfig(eps), mode)
    assert budget == _budget_under_cap(cap, b, *args)
    assert trace.log_lower_bound == -10 * b


@given(st.integers(1, 4), st.integers(1, 5), st.floats(0.0, 1.0), seeds)
def test_matrix_builder_matches_per_entry_loop(m, n, density, seed):
    rng = np.random.default_rng(seed)
    A = np.where(rng.random((m, n)) < density, rng.uniform(0.1, 4.0, (m, n)), 0.0)
    A[rng.integers(m), rng.integers(n)] = rng.uniform(0.1, 4.0)
    npt.assert_array_equal(build_matrix_cpmap(A).kraus, np.stack(matrix_kraus(A)))


@given(st.integers(1, 4), st.integers(1, 4))
def test_horn_builder_matches_per_slot_loop(m, s):
    npt.assert_array_equal(build_horn_cpmap(m, s).kraus,
                           np.stack(horn_kraus_literal(m, s)))


@given(st.integers(1, 4), st.integers(1, 5), seeds)
def test_forster_builder_matches_per_column_loop(m, n, seed):
    U = random_complex(np.random.default_rng(seed), (m, n))
    npt.assert_array_equal(build_forster_cpmap(U).kraus,
                           np.stack(forster_kraus_literal(U)))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), seeds)
def test_scale_matches_per_operator_congruence(m, n, r, seed):
    rng = np.random.default_rng(seed)
    T = random_cpmap(rng, m, n, r)
    pair = ScalingPair(random_upper(rng, m), random_pd(rng, n))
    expected = [pair.g.conj().T @ A @ pair.h for A in T.kraus]
    npt.assert_array_equal(scale(T, pair).kraus, np.stack(expected))


@given(block_structures, block_structures, st.integers(1, 4), seeds)
def test_project_to_support_matches_per_operator_selection(p_blocks, q_blocks,
                                                           r, seed):
    rng = np.random.default_rng(seed)
    M = MarginalSpec(zero_tailed_spectrum(rng, p_blocks),
                     zero_tailed_spectrum(rng, q_blocks), p_blocks, q_blocks)
    T = random_cpmap(rng, M.m, M.n, r)
    Tr, _, _ = project_to_support(T, M)
    expected = [A[np.ix_(M.q > 0, M.p > 0)] for A in T.kraus]
    npt.assert_array_equal(Tr.kraus, np.stack(expected))


@given(block_structures, block_structures, seeds)
def test_general_scale_lifts_with_identity_off_support(p_blocks, q_blocks,
                                                       seed):
    rng = np.random.default_rng(seed)
    p, q = (zero_tailed_spectrum(rng, b) for b in (p_blocks, q_blocks))
    M = MarginalSpec(p / p.sum(), q / q.sum(), p_blocks, q_blocks)
    # With more Kraus operators than either dimension the restricted map
    # is generically scalable to any spectra, so the factors stay bounded.
    T = random_cpmap(rng, M.m, M.n, max(M.m, M.n) + 1)
    res = general_scale(T, M, SolverConfig(epsilon=1e-3, seed=seed,
                                           max_iterations=300))
    Tr, Mr, emb = project_to_support(T, M)
    for F, mask in ((res.pair.g, emb.q_mask), (res.pair.h, emb.p_mask)):
        npt.assert_array_equal(F[np.ix_(~mask, ~mask)],
                               np.eye(int((~mask).sum())))
        assert not F[np.ix_(~mask, mask)].any()
        assert not F[np.ix_(mask, ~mask)].any()
    block = ScalingPair(res.pair.g[np.ix_(emb.q_mask, emb.q_mask)],
                        res.pair.h[np.ix_(emb.p_mask, emb.p_mask)])
    npt.assert_allclose(converted_errors(T, M, *convert_pair(res.pair, M)),
                        converted_errors(Tr, Mr, *convert_pair(block, Mr)),
                        rtol=1e-9, atol=1e-15)


@st.composite
def dyadic_diagonal_and_spectrum(draw):
    """(p, q) of multiples of 2^k / 8: every partial-sum gap is exactly 0 or
    at least 2^k / 8.  q starts as p and moves units between entries, so
    both majorized and non-majorized pairs, and ties, come up; a flag
    breaks the trace equality."""
    n = draw(st.integers(1, 10))
    p = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    if not p.any():
        p[0] = 1
    q = list(p) + [0] * draw(st.integers(0, 2))
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, len(q) - 1),
                                           st.integers(0, len(q) - 1),
                                           st.integers(1, 4)), max_size=8)):
        k = min(k, q[i])
        q[i] -= k
        q[j] += k
    q = np.array(q)
    if draw(st.booleans()):
        q[int(np.argmax(q))] += draw(st.sampled_from([-1, 1]))
    unit = math.ldexp(1.0, draw(st.integers(-12, 12))) / 8.0
    return unit * p, unit * q


@given(dyadic_diagonal_and_spectrum(), seeds)
def test_majorization_decides_polymatroid_membership_of_gaussian_frames(pq,
                                                                        seed):
    p, q = pq
    q_pos = -np.sort(-q[q > 0])
    if not q_pos.size:
        return
    n = p.size
    if q_pos.size > n:
        majorized = False
    else:
        q_padded = np.concatenate([q_pos, np.zeros(n - q_pos.size)])
        majorized = _majorizes(q_padded, p, 1e-12 * max(1.0, float(p.sum())))
    p_pos = p[p > 0]
    U = random_complex(np.random.default_rng(seed), (q_pos.size, p_pos.size))
    assert polymatroid_membership(ForsterInstance(U, p_pos, q_pos)) == majorized
