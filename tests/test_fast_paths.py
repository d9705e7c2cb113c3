"""Property tests: each fast path of the solver step against its slow oracle.

The oracles are the literal definitions: corner sums for ds
(helpers.ds_literal), one slogdet per leading minor for the relative
determinant (log_relative_det), and the Kraus-by-Kraus loops of
apply / dual_apply for the marginals.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, strategies as st

from helpers import ds_literal_blocks, random_cpmap, random_hermitian, random_pd
from opscale import (
    MarginalSpec,
    apply,
    balance_factor,
    ds_from_marginals,
    dual_apply,
    log_relative_det,
    marginals,
)
from opscale.relmetrics import _alternating_step, _log_det

block_structures = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)
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
    npt.assert_allclose(primal, apply(T, M.P), rtol=1e-12, atol=1e-14)
    npt.assert_allclose(dual, dual_apply(T, M.Q), rtol=1e-12, atol=1e-14)


@given(block_structures, block_structures, st.integers(0, 1), seeds)
def test_step_capacity_factors_match_minors(p_blocks, q_blocks, j, seed):
    rng = np.random.default_rng(seed)
    M = random_blocked_spec(rng, p_blocks, q_blocks)
    T = random_cpmap(rng, M.m, M.n, M.m * M.n)
    primal, dual = marginals(T, M)
    inc, K, log_factor, upper = _alternating_step(np.stack(T.kraus), primal,
                                                  dual, M, j)
    target, a, blocks = ((primal, M.q, q_blocks) if j == 0
                         else (dual, M.p, p_blocks))
    npt.assert_allclose(log_factor, -log_relative_det(a, target, blocks),
                        rtol=1e-10, atol=1e-12)
    npt.assert_allclose(upper, log_relative_det(
        a, inc.conj().T @ target @ inc, blocks), atol=1e-10)
    expected = ([inc.conj().T @ A for A in T.kraus] if j == 0
                else [A @ inc for A in T.kraus])
    npt.assert_allclose(K, np.stack(expected), atol=1e-14)
