"""Property tests: each fast path of the solver step against its slow oracle.

The oracles are the literal definitions: corner sums for ds
(helpers.ds_literal), one slogdet per leading minor for the relative
determinant (log_relative_det), the per-call mask and weight code that
the cached flag plan replaces and the np.linalg wrappers of the gufuncs
the balance factor calls (exact equality), scipy's solve_triangular for
its LU inverse (to the condition number), the Cholesky test of
S - floor I for the factor bound that can skip it, two draws per block
for the Gaussian start's one, the Kraus-by-Kraus loops of
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
for the diagonal layout that matrix maps run in.  The per-call trims of
a small solve are pinned bit for bit to the code they replace: the pair
checked on its factor vectors to ScalingPair of their diagonal matrices,
ds_threshold to its concatenation, the diagonal ds that skips a balanced
side to the two-sided sum, the cached normalized spec to a fresh one, the
certificate's subset sums to the concatenation loop, and the Cholesky
and inverse without numpy's private gufuncs to the gufuncs.
"""

import itertools
import math
import os
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
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
    ERROR_NOT_PD,
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
from opscale import apps, cpmap, feasibility, relmetrics, scaler
from opscale.exceptions import NotInvertible
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


@given(flag_structures, st.integers(-200, 200),
       st.sampled_from([1e-1, 1e-4, 1e-8]), seeds)
def test_balance_factor_agrees_with_solve_triangular(blocks, exp10, floor,
                                                     seed):
    # The LU inverse of L^dag against the triangular solve, to the forward
    # error a condition number allows
    rng = np.random.default_rng(seed)
    d = sum(blocks)
    S = random_pd(rng, d, floor) * 10.0**exp10
    L = np.linalg.cholesky(np.where(block_mask_literal(blocks), S, 0.0))
    expected = scipy.linalg.solve_triangular(
        L, np.eye(d, dtype=np.complex128), lower=True).conj().T
    bound = 4 * d * np.linalg.cond(L) * 2.0**-52 * np.abs(expected).max()
    assert np.abs(balance_factor(S, blocks) - expected).max() <= bound


@given(st.integers(1, 8), st.integers(-200, 200), seeds)
def test_factorizations_have_the_bits_of_numpy_wrappers(d, exp10, seed):
    # cpmap calls the gufuncs under np.linalg.cholesky and np.linalg.inv
    rng = np.random.default_rng(seed)
    S = cpmap.hermitian_part(random_pd(rng, d) * 10.0**exp10)
    L = cpmap._cholesky(S)
    assert L.tobytes() == np.linalg.cholesky(S).tobytes()
    assert (balance_factor(S).tobytes()
            == np.linalg.inv(L.conj().T).tobytes())
    A = random_complex(rng, (d, d + 1))
    singular = A[:, :-2] @ A[:, :-2].conj().T if d > 1 else np.zeros((1, 1))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular - np.eye(d))
    assert cpmap._cholesky(singular - np.eye(d)) is None


@given(st.integers(1, 8), st.integers(-200, 200), seeds)
def test_factorizations_without_private_gufuncs_keep_their_bits(d, exp10,
                                                                 seed):
    # a numpy without numpy.linalg._umath_linalg's gufuncs runs the wrappers
    rng = np.random.default_rng(seed)
    S = cpmap.hermitian_part(random_pd(rng, d) * 10.0**exp10)
    A = random_complex(rng, (d, d + 1))
    singular = A[:, :-2] @ A[:, :-2].conj().T if d > 1 else np.zeros((1, 1))
    bad = S.copy()
    bad[-1, -1] = np.nan
    cases = (S, singular - np.eye(d), bad)
    expected = [cpmap._cholesky(X) for X in cases] + [balance_factor(S)]
    with mock.patch.multiple(cpmap, _cholesky_lo=None, _inv=None):
        got = [cpmap._cholesky(X) for X in cases] + [balance_factor(S)]
    assert expected[1] is None and expected[2] is None
    assert [None if x is None else x.tobytes() for x in got] == \
        [None if x is None else x.tobytes() for x in expected]


@given(st.integers(1, 8),
       st.one_of(st.floats(-0.5, 3.0),
                 st.sampled_from([-1e-3, 1e-3, 0.99, 1.0, 1.01])), seeds)
def test_factor_bound_decides_as_the_floor_test(d, delta, seed):
    # On one block balance_factor accepts S when its factor g has
    # 1/||g||_F^2 > 2 floor, without factoring S - floor I; it must accept
    # exactly the S that the test of S - floor I and the factorization of S
    # accept.  lambda_min(S) = floor (1 + delta), other eigenvalues in [1, 2],
    # puts S on both sides of the floor and of twice the floor
    rng = np.random.default_rng(seed)
    rest = rng.uniform(1.0, 2.0, d - 1)
    c = 1e-12 * (1.0 + delta) / d
    lam = np.append(rest, c * rest.sum() / (1.0 - c)) if d > 1 else [1.0]
    U = random_unitary(rng, d)
    S = cpmap.hermitian_part((U * lam) @ U.conj().T)
    accepted = cpmap._above_floor(S) and cpmap._cholesky(S) is not None
    try:
        balance_factor(S)
    except NotPositiveDefinite:
        assert not accepted
    else:
        assert accepted


@given(flag_structures, seeds)
def test_gaussian_start_draws_each_block_at_once(blocks, seed):
    # one (2, k, k) draw per block has the bits of a (k, k) draw of the
    # real part followed by one of the imaginary part
    d = sum(blocks)
    rng = np.random.default_rng(seed)
    expected = np.zeros((d, d), dtype=np.complex128)
    for s in block_slices(blocks):
        k = s.stop - s.start
        expected[s, s] = (rng.standard_normal((k, k))
                          + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    drawn = relmetrics._Stack.gaussian(np.random.default_rng(seed),
                                       block_slices(blocks), d)
    assert drawn.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_factor_cap_norm_is_numpys(dtype):
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal((5, 5)) * 1e150, rng.standard_normal(7),
              np.full((2, 2), np.inf), np.array([np.nan, 1.0]), np.zeros(3)):
        x = x.astype(dtype)
        if dtype is np.complex128:
            x.imag = x[::-1].real
        assert scaler._frobenius(x) == np.linalg.norm(x) or (
            math.isnan(scaler._frobenius(x)) and math.isnan(np.linalg.norm(x)))


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
    g0 = relmetrics._Stack.gaussian(start, M.q_slices(), M.m)
    h0 = relmetrics._Stack.gaussian(start, M.p_slices(), M.n)
    res = general_scale(T, M, config)
    tri = triangular_scale(CPMap(g0.conj().T @ T.kraus @ h0), M, config)
    assert ((res.status, res.iterations, res.ds_trace, res.min_eigenvalue)
            == (tri.status, tri.iterations, tri.ds_trace, tri.min_eigenvalue))
    assert res.pair.g.tobytes() == (g0 @ tri.pair.g).tobytes()
    assert res.pair.h.tobytes() == (h0 @ tri.pair.h).tobytes()


# Spectrum entries with ties, rises just inside and just past the
# tolerance 1e-12 max(1, block max), and plain reals.
spectrum_entries = st.one_of(
    st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1.0 + 5e-13, 1.0 + 1e-12,
                     1.0 + 2e-12, 1.0 - 1e-12, 3.0, 3.0 + 3e-12, 3.0 + 4e-12,
                     1e6, 1e6 + 5e-7, 1e6 + 2e-6]),
    st.floats(0.0, 10.0))


@given(block_structures.flatmap(lambda blocks: st.tuples(
    st.just(blocks), st.lists(spectrum_entries, min_size=sum(blocks),
                              max_size=sum(blocks)))))
def test_spec_order_check_matches_per_block_loop(case):
    blocks, values = case
    p = np.array(values)
    literal = not any(
        np.any(np.diff(p[s]) > 1e-12 * max(1.0, p[s].max(initial=0.0)))
        for s in block_slices(blocks))
    try:
        MarginalSpec(p, [float(p.sum())], blocks)
        accepted = True
    except ValueError as err:
        assert "nonincreasing within blocks" in str(err)
        accepted = False
    assert accepted == literal


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


def _dense_stored(A):
    """build_matrix_cpmap(A) held as its dense (r, m, n) Kraus stack."""
    return CPMap(build_matrix_cpmap(A).kraus)


def matrix_instance(rng, A, zero_tails):
    """Row and column sums for A with equal totals, as a MatrixScalingInstance
    and as the MarginalSpec with 1 x 1 blocks that matrix_scale solves;
    zero_tails zeroes some of them (the spec only), keeping one of each."""
    m, n = A.shape
    r, c = rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, n)
    if zero_tails:
        r[rng.random(m) < 0.3], c[rng.random(n) < 0.3] = 0.0, 0.0
        r[0], c[0] = max(r[0], 0.5), max(c[0], 0.5)
    c = c * (r.sum() / c.sum())
    instance = None if zero_tails else MatrixScalingInstance(A, r, c)
    return instance, MarginalSpec(c, r, (1,) * n, (1,) * m)


def matrix_solver(path, A, instance, M, eps, budget, seed):
    """(result, verdict) of one solve of A on `path`; the map is built by
    apps.build_matrix_cpmap, so a patch of it changes how it is stored."""
    if path == "matrix_scale":
        try:
            return matrix_scale(instance, eps, seed, budget).result, None
        except ScalingFailure as err:
            return err.result, None
    if path == "triangular_scale":
        config = SolverConfig(eps, max_iterations=budget)
        return triangular_scale(apps.build_matrix_cpmap(A), M, config), None
    verdict = decide_scalable(apps.build_matrix_cpmap(A), M, seed, budget)
    return verdict.result, verdict.verdict


def ds_close(ds, ref, total):
    """ds within 1e-12 relative of ref, or within 2^-43 sqrt(total ref), the
    first-order change of ds = sum a (x - 1)^2 under marginals x that are
    some hundred ulps off (total the spectrum total)."""
    ds, ref = np.array(ds), np.array(ref)
    slack = 2.0**-43 * np.sqrt(ref * total) + 1e-26
    return ds.shape == ref.shape and bool(np.all(np.abs(ds - ref)
                                                 <= 1e-12 * ref + slack))


def _solve_both_ways(m, n, density, path, eps, budget, seed):
    """Solve a random matrix instance as a weight-stored map and as its
    dense-stored copy, counting the copy's balance_factor calls."""
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, m, n, density)
    instance, M = matrix_instance(rng, A, path == "decide_scalable")
    res, verdict = matrix_solver(path, A, instance, M, eps, budget, seed)
    calls = []
    balance = cpmap.balance_factor
    with mock.patch.object(apps, "build_matrix_cpmap", _dense_stored), \
            mock.patch.object(cpmap, "balance_factor",
                              lambda *args: calls.append(1) or balance(*args)):
        dense, dense_verdict = matrix_solver(path, A, instance, M, eps, budget,
                                             seed)
    return M, res, verdict, dense, dense_verdict, calls


@given(st.integers(1, 5), st.integers(1, 5), st.floats(0.2, 1.0),
       st.sampled_from(["matrix_scale", "decide_scalable"]),
       st.sampled_from([1e-2, 1e-4, 1e-6]), st.integers(0, 60), seeds)
def test_diagonal_layout_matches_dense_stack(m, n, density, path, eps, budget,
                                             seed):
    # Matrix maps run the loop on their weight matrix, with diagonal factors;
    # a dense-stored copy of the map runs the dense-stack loop and is the
    # oracle.  The layouts round differently: their marginals agree to some
    # hundred ulps after 60 steps, hence ds_close.  A balanced side is the
    # identity in the diagonal layout, so its upper estimates are 0.
    M, res, _, dense, _, calls = _solve_both_ways(m, n, density, path, eps,
                                                  budget, seed)
    # the oracle ran the dense loop: one balance_factor call per step taken
    assert len(calls) >= dense.iterations + (dense.status == ERROR_NOT_PD)
    assert ((res.status, res.iterations, res.min_eigenvalue)
            == (dense.status, dense.iterations, dense.min_eigenvalue))
    assert ds_close(res.ds_trace, dense.ds_trace, M.p.sum())
    npt.assert_allclose(res.capacity_trace.log_factors,
                        dense.capacity_trace.log_factors, rtol=1e-12,
                        atol=1e-13)
    assert not any(res.capacity_trace.upper_estimates)
    npt.assert_allclose(dense.capacity_trace.upper_estimates, 0.0, atol=1e-14)


@given(st.integers(1, 5), st.integers(1, 5), st.floats(0.2, 1.0),
       st.sampled_from(["matrix_scale", "triangular_scale", "decide_scalable"]),
       st.sampled_from([1e-2, 1e-4, 1e-6]), st.integers(0, 60), seeds)
def test_weight_stored_map_solves_as_its_dense_stored_copy(m, n, density, path,
                                                           eps, budget, seed):
    # The dense-stored copy forms its start, pair and SUCCESS re-check from
    # the stack; the weight-stored map forms them from W and diagonal
    # vectors.  Only the rounding of the Gaussian start's products may
    # differ (by an ulp), so the outcome is the same and ds and the pair
    # agree to roundoff.
    M, res, verdict, dense, dense_verdict, _ = _solve_both_ways(
        m, n, density, path, eps, budget, seed)
    assert ((res.status, res.iterations, res.min_eigenvalue, verdict)
            == (dense.status, dense.iterations, dense.min_eigenvalue,
                dense_verdict))
    assert ds_close(res.ds_trace, dense.ds_trace, M.p.sum())
    for f, ref in ((res.pair.g, dense.pair.g), (res.pair.h, dense.pair.h)):
        assert np.abs(f - ref).max() <= 1e-12 * np.abs(ref).max()


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
    # A dense CPMap runs the dense loop under 1 x 1 blocks, a Gaussian stack
    # and a dense-stored matrix map (one nonzero per operator) alike: only
    # a weight-stored map runs the diagonal layout
    calls = _count_balance_factor(monkeypatch)
    M = MarginalSpec([0.5, 0.3, 0.2], [0.6, 0.4], (1, 1, 1), (1, 1))
    for T in (random_cpmap(np.random.default_rng(3), 2, 3, 2),
              _dense_stored(np.array([[1.0, 2.0, 0.5], [0.5, 1.0, 3.0]]))):
        calls.clear()
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


# ---------------------------------------------------------------------------
# The per-call trims of a small solve, bit for bit against what they replace

diagonal_entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e308, np.inf, np.nan]))


@st.composite
def factor_vectors(draw):
    """A real or complex vector of 1 to 4 entries, zeros and non-finite
    parts included."""
    size = draw(st.integers(1, 4))
    re = np.array(draw(st.lists(diagonal_entries, min_size=size, max_size=size)))
    if not draw(st.booleans()):
        return re
    v = np.empty(size, dtype=np.complex128)
    v.real = re
    v.imag = draw(st.lists(diagonal_entries, min_size=size, max_size=size))
    return v


def _pair_outcome(make, g, h):
    try:
        pair = make(g, h)
    except (ValueError, NotInvertible) as err:
        return type(err), str(err)
    return [(X.dtype, X.shape, X.tobytes(), X.flags.writeable)
            for X in (pair.g, pair.h)]


@given(factor_vectors(), factor_vectors())
def test_pair_of_diagonals_is_the_pair_of_their_matrices(g, h):
    expected = _pair_outcome(lambda g, h: ScalingPair(np.diag(g), np.diag(h)),
                             g, h)
    assert _pair_outcome(ScalingPair._of_diagonals, g, h) == expected
    assert _pair_outcome(relmetrics._Diagonal.pair, g, h) == expected


def _zero_tailed(rng, size, zeros):
    return np.concatenate([rng.uniform(0.0, 2.0, size - zeros), np.zeros(zeros)])


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.integers(0, 5),
       st.floats(1e-300, 1.0), seeds)
def test_ds_threshold_matches_concatenation(m, n, p_zeros, q_zeros, eps, seed):
    rng = np.random.default_rng(seed)
    M = MarginalSpec(_zero_tailed(rng, n, min(p_zeros, n)),
                     _zero_tailed(rng, m, min(q_zeros, m)), (1,) * n, (1,) * m)
    positives = np.concatenate([M.p[M.p > 0], M.q[M.q > 0]])
    if positives.size == 0:
        with pytest.raises(ValueError, match="identically zero"):
            relmetrics.ds_threshold(eps, M)
        return
    expected = float(eps) ** 2 * float(positives.min())
    assert relmetrics.ds_threshold(eps, M) == expected
    if M.p.any():
        Mhat = M.normalized()[0]
        positives = np.concatenate([Mhat.p[Mhat.p > 0], Mhat.q[Mhat.q > 0]])
        assert relmetrics.ds_threshold(eps, Mhat) == \
            float(eps) ** 2 * float(positives.min())


@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from(["primal", "dual",
                                                              "both", None]),
       st.floats(1e-3, 1e3), seeds)
def test_diagonal_ds_skipping_a_balanced_side_is_the_two_sided_sum(m, n, unit,
                                                                  scale, seed):
    rng = np.random.default_rng(seed)
    M = MarginalSpec(rng.uniform(0.0, scale, n), rng.uniform(0.0, scale, m),
                     (1,) * n, (1,) * m)
    primal = rng.uniform(0.0, 2.0, m)
    dual = rng.uniform(0.0, 2.0, n)
    if unit in ("primal", "both"):
        primal = cpmap._unit(m)
    if unit in ("dual", "both"):
        dual = cpmap._unit(n)
    # the two-sided sum, on copies that are not the shared unit vectors
    expected = (float(np.dot(M.p, (dual.copy() - 1.0) ** 2))
                + float(np.dot(M.q, (primal.copy() - 1.0) ** 2)))
    assert relmetrics._Diagonal.ds(primal, dual, M) == expected


@given(flag_structures, flag_structures, st.integers(-30, 30), seeds)
def test_cached_normalized_spec_is_a_fresh_computation(p_blocks, q_blocks,
                                                      exp10, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    M = MarginalSpec(M.p * 10.0**exp10, M.q * 10.0**exp10, p_blocks, q_blocks)
    Mhat, s = M.normalized()
    assert M.normalized()[0] is Mhat
    s_fresh = float(M.p.sum())
    assert s == s_fresh
    assert Mhat.p.tobytes() == (M.p / s_fresh).tobytes()
    assert Mhat.q.tobytes() == (M.q / s_fresh).tobytes()
    assert (Mhat.p_blocks, Mhat.q_blocks) == (p_blocks, q_blocks)
    twin = MarginalSpec(M.p, M.q, p_blocks, q_blocks).normalized()[0]
    assert twin is not Mhat and twin.p.tobytes() == Mhat.p.tobytes()


@given(st.lists(st.floats(0.0, 1e300), min_size=0, max_size=12))
def test_subset_sums_match_concatenation_loop(v):
    sums = np.zeros(1)
    for x in v:
        sums = np.concatenate([sums, sums + float(x)])
    assert feasibility._subset_sums(np.array(v)).tobytes() == sums.tobytes()
