"""Relative determinants, ds-distance, and capacity bookkeeping.

The determinant of X relative to a nonincreasing weight vector a is

    det(a, X) = prod_j (det X[:j, :j]) ** (a_j - a_{j+1}),   a_{k+1} = 0,

with the convention 0**0 = 1.  Everything here is computed in the log
domain to keep large or fractional exponents from under/overflowing.
log_relative_det is the literal definition, one slogdet per leading
minor.  For positive definite X = L L^dag the minors telescope to
log det(a, X) = 2 sum_l a_l log L_ll, which the solver step reads off one
Cholesky factor (or off the balance factor g = L^{-dag} itself).

ds_{P,Q}(T) measures how far T is from mapping (P -> I_m, Q -> I_n):

    ds = sum_i dp_i ||corner_i(T*(Q) - I_n)||_F^2
       + sum_j dq_j ||corner_j(T(P)  - I_m)||_F^2

where corner_i takes the leading i x i block and dp, dq are the
successive differences of the spectra; entry (i, j) lies in every
corner from max(i, j) on, so ds = sum W (.) |dev|^2 with W_ij = a_max(i,j)
(a = p or q).  Since ds >= p_min ||T*(Q) - I||^2 + q_min ||T(P) - I||^2, pushing
ds below eps^2 * min(p_min, q_min) certifies an eps-scaling in marginal
Frobenius norm.  With a block structure the corner sums run inside each
diagonal block (the flags preserved by block scaling groups); entries
outside the blocks are never read.

Capacity cap(T, P, Q) = inf_h det(Q, T(h P h^dag)) / det(P, h^dag h) over
upper-triangular h.  Each solver step multiplies the capacity by an
easily computed factor (det of the incremental balance factor), which the
solvers record in a CapacityTrace.  Both solvers and estimate_capacity
share one alternating step; estimate_capacity runs it standalone to
produce an upper estimate of cap.  The step carries both marginals from
one step to the next and computes one of them from the Kraus stack: the
side it balances becomes inc^dag target inc, the product it forms anyway
for the upper estimate, which differs from the recomputed marginal only
by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cpmap
from .exceptions import NotInvertible, NotPositiveDefinite

__all__ = [
    "deltas",
    "log_relative_det",
    "relative_det",
    "relative_det_signed",
    "rel_det_multiplicativity_check",
    "ds_from_marginals",
    "ds_distance",
    "ds_threshold",
    "log_capacity_change_factor",
    "capacity_change_factor",
    "log_capacity_lower_bound",
    "capacity_lower_bound",
    "shannon_entropy",
    "CapacityTrace",
    "CapacityEstimate",
    "estimate_capacity",
]

# Linear-scale minors at or below this count as zero (PSD boundary).
_MINOR_FLOOR_LOG = math.log(1e-300)


def deltas(a):
    """Successive differences a_i - a_{i+1} with a_{k+1} = 0."""
    a = np.asarray(a, dtype=np.float64)
    return a - np.append(a[1:], 0.0)


def _leading_minor_logdets(X):
    """(signs, logabs) of det X[:j,:j] for j = 1..k."""
    return zip(*(np.linalg.slogdet(X[:j, :j]) for j in range(1, X.shape[0] + 1)))


def log_relative_det(a, X, blocks=None):
    """log det(a, X) for Hermitian PSD X; -inf when the value is 0.

    Minors whose weight difference vanishes are skipped (0**0 = 1); a
    nonpositive or sub-1e-300 minor carrying positive weight makes the
    whole product 0 (PSD boundary).
    """
    a = np.asarray(a, dtype=np.float64)
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (a.size, a.size):
        raise ValueError(f"X has shape {X.shape}, expected {(a.size, a.size)}")
    total = 0.0
    for s in cpmap._block_slices(blocks if blocks is not None else (a.size,)):
        seg, B = a[s], X[s, s]
        d = deltas(seg)
        signs, logabs = _leading_minor_logdets(B)
        for dj, sign, la in zip(d, signs, logabs):
            if dj == 0.0:
                continue
            if sign.real <= 0.0 or la <= _MINOR_FLOOR_LOG:
                return -math.inf
            total += dj * la
    return total


def relative_det(a, X, blocks=None):
    """det(a, X) = prod of leading principal minors of X to the weight gaps."""
    lv = log_relative_det(a, X, blocks)
    return 0.0 if lv == -math.inf else math.exp(lv)


def relative_det_signed(a, X):
    """det(a, X) for arbitrary square X, principal branch per minor.

    Minors are complex in general; each is raised to its weight gap via
    the principal logarithm.  Used by the multiplicativity and character
    identity checks, whose factorizations keep at least one side real
    positive so no branch ambiguity arises.
    """
    a = np.asarray(a, dtype=np.float64)
    X = np.asarray(X, dtype=np.complex128)
    d = deltas(a)
    signs, logabs = _leading_minor_logdets(X)
    clog = 0.0 + 0.0j
    for dj, sign, la in zip(d, signs, logabs):
        if dj == 0.0:
            continue
        if la <= _MINOR_FLOOR_LOG:
            return 0.0 + 0.0j
        clog += dj * (la + 1j * np.angle(sign))
    return complex(np.exp(clog))


def rel_det_multiplicativity_check(a, X, h):
    """Verify the three relative-determinant identities; a test oracle.

    For upper-triangular h and (typically PD) X:

      1. det(a, X h)            = det(a, X) det(a, h)
      2. det(a, h^dag X h)      = det(a, h^dag h) det(a, X)
      3. det(a, h^-dag h^-1)    = det(a, h^dag h)^-1

    Returns True when all three hold to relative tolerance 1e-8.
    """
    h = np.asarray(h, dtype=np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    hd = h.conj().T
    hinv = np.linalg.inv(h)

    lhs1 = relative_det_signed(a, X @ h)
    rhs1 = relative_det_signed(a, X) * relative_det_signed(a, h)
    lhs2 = relative_det_signed(a, hd @ X @ h)
    rhs2 = relative_det_signed(a, hd @ h) * relative_det_signed(a, X)
    lhs3 = relative_det_signed(a, hinv.conj().T @ hinv)
    rhs3 = 1.0 / relative_det_signed(a, hd @ h)

    def close(u, v):
        return abs(u - v) <= 1e-8 * max(1.0, abs(u), abs(v))

    return close(lhs1, rhs1) and close(lhs2, rhs2) and close(lhs3, rhs3)


def _flag_weighted_sq(X, a, blocks):
    """sum of a_max(i,j) |(X - I)_ij|^2 over the entries inside the blocks."""
    plan = cpmap._block_plan(blocks)
    dev = X.ravel()[plan.flat] - plan.eye
    return float(np.dot(a[plan.amax], np.abs(dev) ** 2))


def ds_from_marginals(primal, dual, M):
    """ds distance computed from precomputed marginals T(P), T*(Q)."""
    primal = np.asarray(primal, dtype=np.complex128)
    dual = np.asarray(dual, dtype=np.complex128)
    if dual.shape != (M.n, M.n) or primal.shape != (M.m, M.m):
        raise ValueError("marginal shapes do not match the spec")
    return (_flag_weighted_sq(dual, M.p, M.p_blocks)
            + _flag_weighted_sq(primal, M.q, M.q_blocks))


def ds_distance(T, M):
    """ds_{P,Q}(T): weighted squared deviation of the marginals from I."""
    primal, dual = cpmap.marginals(T, M)
    return ds_from_marginals(primal, dual, M)


def ds_threshold(epsilon, M):
    """eps^2 * min over positive spectrum entries; SUCCESS certifies eps-scaling."""
    positives = np.concatenate([M.p[M.p > 0], M.q[M.q > 0]])
    if positives.size == 0:
        raise ValueError("spectra are identically zero")
    return float(epsilon) ** 2 * float(positives.min())


def log_capacity_change_factor(pair, M):
    """log [det(Q, g^dag g) * det(P, h^dag h)] for a (block-)triangular pair."""
    g, h = pair.g, pair.h
    lq = log_relative_det(M.q, g.conj().T @ g, M.q_blocks)
    lp = log_relative_det(M.p, h.conj().T @ h, M.p_blocks)
    if not (math.isfinite(lq) and math.isfinite(lp)):
        raise NotInvertible("scaling pair has a vanishing relative determinant")
    return lq + lp


def capacity_change_factor(pair, M):
    """Multiplier of cap(T, P, Q) incurred by scaling with the given pair."""
    return math.exp(log_capacity_change_factor(pair, M))


def log_capacity_lower_bound(b, m):
    """(log general bound, log post-first-step bound) = (-10 b, -14 b m)."""
    b = float(b)
    if b < 1:
        raise ValueError("bit complexity must be >= 1")
    return -10.0 * b, -14.0 * b * m


def capacity_lower_bound(b, m):
    """(exp(-10 b), exp(-14 b m)); underflows to 0.0 for large b by design."""
    lb, lb1 = log_capacity_lower_bound(b, m)
    return math.exp(lb), math.exp(lb1)


def shannon_entropy(p):
    """-sum p_i log p_i (natural log, 0 log 0 = 0) for a probability vector."""
    p = np.asarray(p, dtype=np.float64)
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


class CapacityTrace:
    """Per-iteration capacity bookkeeping owned by one solver run.

    log_factors[j] is the log capacity-change factor of step j+1, and
    upper_estimates[j] is log det(a, balanced target) for the side it
    balanced (T(P) against q for even j, the dual T*(Q) against p for odd
    j): 0 up to roundoff, the computable face of cap <= 1.

    log_lower_bound is the log capacity lower bound -10 b of the solved
    instance (b its bit complexity), or the value given, -inf by default.
    A trace built with instance=(T, M) computes -10 b for that instance on
    the first read of log_lower_bound, keeps it and drops its reference
    to (T, M); a caller that never reads the bound never pays for b.
    """

    def __init__(self, log_lower_bound=-math.inf, *, instance=None):
        self.log_factors = []
        self.upper_estimates = []
        self._log_lower_bound = log_lower_bound
        self._instance = instance

    @property
    def log_lower_bound(self):
        if self._instance is not None:
            from . import feasibility  # deferred: feasibility uses us

            T, M = self._instance
            b = feasibility.bit_complexity(T, M)
            self._log_lower_bound = log_capacity_lower_bound(b, T.m)[0]
            self._instance = None
        return self._log_lower_bound

    @property
    def cumulative(self):
        return float(sum(self.log_factors))

    def append(self, log_factor, upper_estimate):
        self.log_factors.append(float(log_factor))
        self.upper_estimates.append(float(upper_estimate))


@dataclass(frozen=True)
class CapacityEstimate:
    """Result of estimate_capacity: an upper estimate of cap(T, P, Q)."""

    value: float
    log_value: float
    diverged: bool
    steps: int


def _log_det(a, X, blocks):
    """log det(a, X) from one Cholesky of the block-masked X; -inf if not PD.

    X is Hermitian and only its lower triangle is read.
    """
    L = cpmap._cholesky(cpmap._block_diagonal(X, blocks))
    if L is None:
        return -math.inf
    return 2.0 * float(np.dot(a, np.log(L.diagonal().real)))


def _alternating_step(K, primal, dual, M, j):
    """Step j of the alternating iteration on the (r, m, n) Kraus stack K.

    Even steps balance T(P) against q, odd steps T*(Q) against p.  The
    balanced marginal inc^dag target inc is the new marginal of that
    side, so only the other one is computed from the rescaled stack.
    Returns (balance factor, rescaled K, its (primal, dual) marginals,
    log capacity-change factor -log det(a, target), log det(a, balanced
    target) ~ 0); raises NotPositiveDefinite when the target cannot be
    balanced.
    """
    output = j % 2 == 0
    target, a, blocks = ((primal, M.q, M.q_blocks) if output
                         else (dual, M.p, M.p_blocks))
    inc = cpmap.balance_factor(target, blocks)
    log_factor = 2.0 * float(np.dot(a, np.log(inc.diagonal().real)))
    balanced = inc.conj().T @ target @ inc
    upper = _log_det(a, balanced, blocks)
    if output:
        K = inc.conj().T @ K
        marginals = balanced, cpmap._input_marginal(K, M.q)
    else:
        K = (K.reshape(-1, K.shape[2]) @ inc).reshape(K.shape)
        marginals = cpmap._output_marginal(K, M.p), balanced
    return inc, K, marginals, log_factor, upper


def estimate_capacity(T, M, budget=200):
    """Upper estimate of cap(T, P, Q) via the alternating iteration itself.

    Runs the solvers' alternating step and tracks est_j = v_j - cum_j,
    where v_j = log det(Q, T_j(P)) is the capacity objective of the
    current scaled map at h = I and cum_j the summed log change factors;
    cap(T) <= exp(est_j) for every j, with equality in the limit when the
    iteration converges.  Returns a 0-flagged estimate when a balance
    target stops being positive definite or the estimate falls to
    log 1e-300 (capacity vanishing on the PSD boundary).

    Requires strictly positive spectra.
    """
    if np.any(M.p <= 0) or np.any(M.q <= 0):
        raise ValueError("estimate_capacity needs nonsingular P and Q")
    K = T.kraus
    primal, dual = cpmap._stacked_marginals(K, M.p, M.q)
    cum = 0.0
    best = math.inf
    # Overflowing Kraus updates are handled: the estimate then diverges.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(budget) + 1):
            best = min(best, _log_det(M.q, primal, M.q_blocks) - cum)
            if best <= _MINOR_FLOOR_LOG:
                return CapacityEstimate(0.0, -math.inf, True, j)
            if j == budget:
                break
            try:
                _, K, (primal, dual), log_factor, _ = _alternating_step(
                    K, primal, dual, M, j)
            except NotPositiveDefinite:
                return CapacityEstimate(0.0, -math.inf, True, j)
            cum += log_factor
    value = math.exp(best) if best > _MINOR_FLOOR_LOG else 0.0
    return CapacityEstimate(value, best, False, int(budget))
