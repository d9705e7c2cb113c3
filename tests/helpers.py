"""Shared generators and independent oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from opscale import (
    CPMap,
    NotPositiveDefinite,
    Partition,
    ds_from_marginals,
    ds_threshold,
    log_relative_det,
    marginals,
)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_pd(rng, n, floor=0.1):
    """Well-conditioned Hermitian positive definite matrix."""
    a = random_complex(rng, (n, n))
    return a @ a.conj().T / n + floor * np.eye(n)


def random_hermitian(rng, n):
    a = random_complex(rng, (n, n))
    return (a + a.conj().T) / 2


def random_upper(rng, n):
    """Invertible upper-triangular matrix with moderate condition number."""
    u = np.triu(random_complex(rng, (n, n), 0.5))
    u[np.diag_indices(n)] = rng.uniform(0.5, 1.5, n).astype(complex)
    return u


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_kraus(rng, m, n, r, scale=None):
    if scale is None:
        scale = 1.0 / np.sqrt(2.0 * r * max(m, n))
    return [random_complex(rng, (m, n), scale) for _ in range(r)]


def random_cpmap(rng, m, n, r, scale=None):
    return CPMap(random_kraus(rng, m, n, r, scale))


def doubly_stochastic_map(rng, n, r):
    """Mixture of unitary conjugations: T(I) = I and T*(I) = I exactly."""
    return CPMap([random_unitary(rng, n) / np.sqrt(r) for _ in range(r)])


def spectrum(rng, n, floor=0.0, total=1.0):
    """Nonincreasing positive vector with the given sum, entries >= floor."""
    w = rng.dirichlet(np.ones(n))
    v = floor + (total - n * floor) * w
    return np.sort(v)[::-1]


def random_partition(rng, max_total=12):
    """Random nonincreasing positive integer parts with bounded total."""
    while True:
        k = int(rng.integers(1, 5))
        parts = np.sort(rng.integers(1, 5, k))[::-1]
        if parts.sum() <= max_total:
            return Partition(tuple(int(x) for x in parts))


def integer_partition(rng, total, parts):
    """Random partition of `total` into exactly `parts` positive parts."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1,
                              replace=False))
    comp = np.diff(np.concatenate([[0], cuts, [total]]))
    return np.sort(comp)[::-1].astype(np.float64)


def integer_composition(rng, total, parts):
    """Random ordered composition of `total` into `parts` positive parts."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1,
                              replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).astype(np.float64)


def matrix_kraus(A):
    """Kraus operators sqrt(A_ij) e_i e_j^T of a nonnegative matrix."""
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    ops = []
    for i in range(m):
        for j in range(n):
            if A[i, j] > 0:
                K = np.zeros((m, n), dtype=np.complex128)
                K[i, j] = np.sqrt(A[i, j])
                ops.append(K)
    return ops


def horn_kraus_literal(m, s):
    """Kraus operators [0 | I_m | 0] of the Horn map, built slot by slot."""
    ops = []
    for i in range(s):
        K = np.zeros((m, m * s), dtype=np.complex128)
        K[:, i * m:(i + 1) * m] = np.eye(m)
        ops.append(K)
    return ops


def forster_kraus_literal(U):
    """One Kraus operator per column u_i of U, carrying u_i in column i."""
    U = np.asarray(U, dtype=np.complex128)
    m, n = U.shape
    ops = []
    for i in range(n):
        K = np.zeros((m, n), dtype=np.complex128)
        K[:, i] = U[:, i]
        ops.append(K)
    return ops


def ras_scale(A, r, c, iters=200000, tol=1e-13):
    """Classical alternating row/column normalization (Sinkhorn oracle)."""
    S = np.array(A, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    for _ in range(iters):
        S = S * (r / S.sum(axis=1))[:, None]
        S = S * (c / S.sum(axis=0))[None, :]
        if (np.abs(S.sum(axis=1) - r).max() <= tol
                and np.abs(S.sum(axis=0) - c).max() <= tol):
            break
    return S


def _corners_literal(X, a):
    """sum_i (a_i - a_{i+1}) ||(X - I)[:i, :i]||_F^2 with a_{k+1} = 0."""
    dev = X - np.eye(X.shape[0])
    total = 0.0
    for i in range(len(a)):
        delta = a[i] - (a[i + 1] if i + 1 < len(a) else 0.0)
        corner = dev[: i + 1, : i + 1]
        total += delta * np.linalg.norm(corner, "fro") ** 2
    return total


def ds_literal(primal, dual, p, q):
    """Independent transcription of the flag-weighted squared distance."""
    return _corners_literal(dual, p) + _corners_literal(primal, q)


def ds_literal_blocks(primal, dual, M):
    """ds_literal run inside each diagonal block of the spec's structure."""
    total = 0.0
    for X, a, blocks in ((dual, M.p, M.p_blocks), (primal, M.q, M.q_blocks)):
        start = 0
        for b in blocks:
            s = slice(start, start + b)
            total += _corners_literal(X[s, s], a[s])
            start += b
    return total


def block_mask_literal(blocks):
    """(d, d) boolean mask of the diagonal blocks, built from block ids."""
    ids = np.repeat(np.arange(len(blocks)), blocks)
    return ids[:, None] == ids[None, :]


def _flag_weighted_sq_literal(dev, a, blocks):
    mask = block_mask_literal(blocks)
    idx = np.arange(a.size)
    weights = a[np.maximum.outer(idx, idx)[mask]]
    return float(np.dot(weights, np.abs(dev[mask]) ** 2))


def ds_masked_literal(primal, dual, M):
    """ds as sum a_max(i,j) |(X - I)_ij|^2, masking np.eye deviations per call."""
    return (_flag_weighted_sq_literal(dual - np.eye(M.n), M.p, M.p_blocks)
            + _flag_weighted_sq_literal(primal - np.eye(M.m), M.q, M.q_blocks))


def balance_factor_literal(S, blocks):
    """L^{-dag} for the block-masked Cholesky factor L, by solve_triangular."""
    S = np.asarray(S, dtype=np.complex128)
    S = (S + S.conj().T) / 2
    d = S.shape[0]
    min_eig = float(np.linalg.eigvalsh(S)[0])
    if not min_eig > max(1e-12 * float(np.trace(S).real) / d, 0.0):
        raise NotPositiveDefinite(min_eig)
    L = np.linalg.cholesky(np.where(block_mask_literal(blocks), S, 0.0))
    Linv = scipy.linalg.solve_triangular(L, np.eye(d, dtype=np.complex128),
                                         lower=True)
    return Linv.conj().T


def alternate_literal(T, M, epsilon, budget):
    """The alternating iteration recomputing both marginals at every step.

    Returns (status, iterations, ds trace, min eigenvalue) in the units of
    M, as the solver reports them; balances by balance_factor_literal.
    """
    Mhat, s = M.normalized()
    thresh = ds_threshold(epsilon, Mhat)
    K = np.array(T.kraus)
    ds = []
    for j in range(budget + 1):
        primal, dual = marginals(CPMap(K), Mhat)
        d = ds_from_marginals(primal, dual, Mhat)
        ds.append(s * d)
        if d <= thresh:
            return "SUCCESS", j, ds, None
        if j == budget:
            break
        output = j % 2 == 0
        try:
            inc = balance_factor_literal(primal if output else dual,
                                         Mhat.q_blocks if output
                                         else Mhat.p_blocks)
        except NotPositiveDefinite as err:
            return "ERROR_NOT_PD", j, ds, s * err.min_eigenvalue
        K = inc.conj().T @ K if output else K @ inc
    return "ERROR_BUDGET", budget, ds, None


def estimate_capacity_literal(T, M, budget):
    """estimate_capacity by its definition: (log_value, diverged, steps).

    Recomputes both marginals of the rescaled operators, one operator at a
    time, at every step, balances by balance_factor_literal, and takes
    v_j = log det(Q, T_j(P)), 0 on a T_j(P) that balance_factor_literal
    rejects, and each log change factor -log det(a, target) from
    log_relative_det.
    """
    ops = list(T.kraus)
    cum, best = 0.0, math.inf
    for j in range(budget + 1):
        primal = sum(A @ np.diag(M.p) @ A.conj().T for A in ops)
        dual = sum(A.conj().T @ np.diag(M.q) @ A for A in ops)
        # v_j is read only off a T_j(P) that a balance step accepts
        try:
            balance_factor_literal(primal, M.q_blocks)
        except NotPositiveDefinite:
            return -math.inf, True, j
        best = min(best, log_relative_det(M.q, primal, M.q_blocks) - cum)
        if best <= math.log(1e-300):
            return -math.inf, True, j
        if j == budget:
            break
        output = j % 2 == 0
        target, a, blocks = ((primal, M.q, M.q_blocks) if output
                             else (dual, M.p, M.p_blocks))
        try:
            inc = balance_factor_literal(target, blocks)
        except NotPositiveDefinite:
            return -math.inf, True, j
        cum -= log_relative_det(a, target, blocks)
        ops = [inc.conj().T @ A if output else A @ inc for A in ops]
    return best, False, budget


def entry_bits_literal(x):
    """Bits of numerator and denominator of x snapped to denominator <= 2^53."""
    f = Fraction(float(x)).limit_denominator(2**53)
    return abs(f.numerator).bit_length() + f.denominator.bit_length()


def bit_complexity_literal(T, M):
    """Entry-by-entry Fraction transcription of bit_complexity."""
    total = 0
    for A in T.kraus:
        for x in A.ravel():
            total += entry_bits_literal(x.real) + entry_bits_literal(x.imag)
    for v in (M.p, M.q):
        for x in v:
            total += entry_bits_literal(x)
    total += math.ceil(math.log2(T.r) + math.log2(T.m) + math.log2(T.n))
    return max(1, int(total))


def converted_errors(T, M, g2, h2):
    """Frobenius errors of T'(I_n) - Q and T'*(I_m) - P, one Kraus at a time.

    T' is T scaled by a converted pair (g2, h2) = (g sqrt(Q), h sqrt(P)),
    the (I_n -> Q, I_m -> P) orientation of cpmap.convert_pair.
    """
    ops = [g2.conj().T @ A @ h2 for A in T.kraus]
    out = sum(B @ B.conj().T for B in ops)
    inp = sum(B.conj().T @ B for B in ops)
    return (float(np.linalg.norm(out - np.diag(M.q))),
            float(np.linalg.norm(inp - np.diag(M.p))))
