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
solvers record in a CapacityTrace.  One loop, the generator _iterate,
runs the alternating iteration for two clients: the solve body
(scaler._solve) and estimate_capacity, which reads an upper estimate of
cap off it.  It carries both marginals from one step to the next and
computes one of them from the map: the side a step balances becomes
inc^dag target inc, the product it forms anyway for the upper estimate,
which differs from the recomputed marginal only by roundoff.

The loop reaches the map only through three operations of a layout: one
side's marginal, the balance of a target and the congruence of the map
by the balance factor.  One function, _layout, picks the layout from how
the map is stored and from the blocks of the spec, and everything that
runs or reads a map through the loop asks it: the solve body (on the
support-restricted instance, and again on the instance as given for the
SUCCESS re-check), estimate_capacity, ds_distance and the CLI's
marginal errors.  _Diagonal takes a map held as its weight matrix
(build_matrix_cpmap's) under a spec whose blocks are all 1 x 1, or
scaled by a diagonal pair under any blocks: there every marginal is
exactly diagonal, the map is its weight matrix W, the
marginals are W q and W^T p, the balance factor is 1/sqrt(S_ii),
positive definiteness is min S_ii > singular_floor (lambda_min of a
diagonal S), a congruence rescales the rows or the columns of W, and the
balanced side is the identity.  Every other instance, a dense-stored
copy of such a map included, runs in _Stack, the dense (r, m, n) Kraus
stack.  A layout also owns what a solve does differently in it: the
Gaussian start it draws, the map g0^dag T h0 that start gives, and the
conversion between its factors and square matrices.

bit_complexity is the integer size parameter b driving the worst-case
iteration budgets and the capacity lower bound exp(-10 b): the total bit
length (numerator plus denominator) of all Kraus and spectrum entries,
each snapped to the closest rational with denominator at most 2^53 (so
0.1 counts as 1/10, 5 bits), plus log of the instance dimensions.  One
numpy kernel computes it over chunks of nonzero entries; only entries
too small for int64 arithmetic take the Fraction path.  A weight-stored
map gives the kernel its nonzero entries sqrt(A_ij) and counts the
2 r m n - nnz zero parts of its stack without forming it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

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
    "bit_complexity",
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
    blocks = (a.size,) if blocks is None else tuple(blocks)
    for s in cpmap._block_slices(blocks):
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


def _flag_weighted_sq(X, weights, blocks):
    """sum of a_max(i,j) |(X - I)_ij|^2 over the entries inside the blocks,
    given their weights a_max(i,j) (MarginalSpec._ds_weights)."""
    plan = cpmap._block_plan(blocks)
    # one block holds every entry, in order: no gather
    dev = (X.ravel() if len(blocks) == 1 else X.ravel()[plan.flat]) - plan.eye
    return float(np.dot(weights, np.abs(dev) ** 2))


def ds_from_marginals(primal, dual, M):
    """ds distance computed from precomputed marginals T(P), T*(Q)."""
    primal = np.asarray(primal, dtype=np.complex128)
    dual = np.asarray(dual, dtype=np.complex128)
    if dual.shape != (M.n, M.n) or primal.shape != (M.m, M.m):
        raise ValueError("marginal shapes do not match the spec")
    wp, wq = M._ds_weights
    return (_flag_weighted_sq(dual, wp, M.p_blocks)
            + _flag_weighted_sq(primal, wq, M.q_blocks))


def ds_distance(T, M):
    """ds_{P,Q}(T): weighted squared deviation of the marginals from I.

    Evaluated in the layout _layout picks, so a weight-stored map under
    1 x 1 blocks never forms its Kraus stack.
    """
    cpmap._check_shapes(T, M)
    layout, primal, dual = _marginals(T, M)
    return layout.ds(primal, dual, M)


def _min_positive(a):
    """The smallest positive entry of the nonnegative vector a; inf if none."""
    low = a.min()
    return low if low > 0 else a.min(where=a > 0, initial=math.inf)


def ds_threshold(epsilon, M):
    """eps^2 * min over positive spectrum entries; SUCCESS certifies eps-scaling."""
    low = min(_min_positive(M.p), _min_positive(M.q))
    if low == math.inf:
        raise ValueError("spectra are identically zero")
    return float(epsilon) ** 2 * float(low)


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


# Denominator cap of the rational snap (double mantissa).
_MAX_DEN = 2**53

# Entries per kernel call: bounds the kernel's temporaries on large maps.
_CHUNK = 1 << 12


def _fraction_bits(x):
    f = Fraction(float(x)).limit_denominator(_MAX_DEN)
    return abs(f.numerator).bit_length() + f.denominator.bit_length()


def _bitlen(v):
    """Bit lengths of nonnegative int64 values up to 2^53 (exact as floats)."""
    return np.frexp(v.astype(np.float64))[1].astype(np.int64)


def _closest_bits(p0, q0, p1, q1, d, den):
    """Bits of the closer of (p0 + j p1)/(q0 + j q1), j maximal, and p1/q1.

    Ties go to p1/q1: 2 d (q0 + j q1) <= den, as Fraction decides it.
    """
    j = (_MAX_DEN - q0) // q1
    qb = q0 + j * q1
    near = d <= den // (2 * qb)
    num = np.where(near, p1, p0 + j * p1)
    return int(np.sum(_bitlen(np.abs(num)) + _bitlen(np.where(near, q1, qb))))


def _snapped_bits(n, k):
    """Total bits of limit_denominator(2^53) over n / 2^k, for 53 < k <= 62.

    Runs Fraction.limit_denominator's continued fraction on all entries
    at once, dropping each entry once its next denominator would pass
    2^53; every intermediate stays below 2^62, so int64 is exact.
    """
    den = np.left_shift(np.int64(1), k)
    # The first step, a = floor(n / den), never passes the cap.
    a = n // den
    p0, q0, p1, q1 = np.ones_like(n), np.zeros_like(n), a, np.ones_like(n)
    n, d = den, n - a * den
    total = 0
    while n.size:
        a = n // d
        # q0 + a*q1 > 2^53, tested without forming a*q1
        stop = a > (_MAX_DEN - q0) // q1
        if stop.any():
            total += _closest_bits(p0[stop], q0[stop], p1[stop], q1[stop],
                                   d[stop], den[stop])
            go = ~stop
            n, d, den, a, p0, q0, p1, q1 = (
                v[go] for v in (n, d, den, a, p0, q0, p1, q1))
        p0, p1 = p1, p0 + a * p1
        q0, q1 = q1, q0 + a * q1
        n, d = d, n - a * d
    return total


def _nonzero_bits(x):
    """Sum of _fraction_bits over the finite nonzero float64 array x."""
    # |x| = (mant >> t) / 2^k with mant >> t odd, so the fraction is reduced
    frac, e = np.frexp(np.abs(x))
    mant = (frac * 2.0**53).astype(np.int64)
    t = _bitlen(mant & -mant) - 1
    k = 53 - e.astype(np.int64) - t
    exact = k <= 53  # denominator 2^max(k, 0) needs no snapping
    # bitlen(N) = 53 - t, plus |k| bits on one side and 1 for the other
    total = int(np.sum(53 - t[exact] + np.abs(k[exact]) + 1))
    mid = ~exact & (k <= 62)
    if mid.any():
        odd = np.copysign(mant[mid] >> t[mid], x[mid]).astype(np.int64)
        total += _snapped_bits(odd, k[mid])
    total += sum(map(_fraction_bits, x[k > 62]))  # past int64 range
    return total


def _nonzero_chunks(parts):
    """The nonzero entries of the 1-d arrays `parts`, about _CHUNK at a time."""
    group, size = [], 0
    for x in parts:
        for i in range(0, x.size, _CHUNK):
            piece = x[i:i + _CHUNK]
            group.append(piece[piece != 0])
            size += group[-1].size
            if size >= _CHUNK:
                yield np.concatenate(group)
                group, size = [], 0
    if size:
        yield np.concatenate(group)


def bit_complexity(T, M):
    """Total bit size b >= 1 of the instance data.

    Sums the bit lengths of numerator and denominator of the real and
    imaginary parts of every Kraus entry and of every spectrum entry,
    each snapped to the closest rational with denominator at most 2^53
    (Fraction.limit_denominator), plus ceil(log2 r + log2 m + log2 n)
    for the dimensions.  A zero entry counts one bit, 0.1 counts five.
    """
    if isinstance(T, cpmap._WeightMap):
        # the stack's nonzero parts are the real parts root_ij > 0
        entries, size = T.root[T.root != 0], 2 * T.r * T.m * T.n
    else:
        entries = T.kraus.ravel().view(np.float64)
        size = entries.size
    total = nonzero = 0
    for x in _nonzero_chunks([entries, M.p, M.q]):
        total += _nonzero_bits(x)
        nonzero += x.size
    total += size + M.p.size + M.q.size - nonzero  # a zero snaps to 0/1
    total += math.ceil(math.log2(T.r) + math.log2(T.m) + math.log2(T.n))
    return max(1, int(total))


def log_capacity_lower_bound(b, m):
    """(log general bound, log post-first-step bound) = (-10 b, -14 b m)."""
    b = float(b)
    if not b >= 1:
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

    log_lower_bound is -10 b with b = bit_complexity(T, M) of the solved
    instance, or the value given, -inf by default.  A trace built with
    instance=(T, M) computes -10 b for that instance on the first read of
    log_lower_bound, keeps it and drops its reference to (T, M); a caller
    that never reads the bound never pays for b.
    """

    def __init__(self, log_lower_bound=-math.inf, *, instance=None):
        self.log_factors = []
        self.upper_estimates = []
        self._log_lower_bound = log_lower_bound
        self._instance = instance

    @property
    def log_lower_bound(self):
        if self._instance is not None:
            T, M = self._instance
            b = bit_complexity(T, M)
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


class _Stack:
    """The dense layout: the (r, m, n) Kraus stack and square factors.

    marginal, balance and congruence are the three operations _iterate
    runs on a map; eye, mul, factor and pair compose factors and convert
    them, ds, log_det and above_floor read marginals, and gaussian and
    start form a solve's start.  Each is the literal dense product.
    """

    mul = staticmethod(np.matmul)
    log_det = staticmethod(_log_det)
    above_floor = staticmethod(cpmap._above_floor)
    eye = staticmethod(cpmap._identity)
    factor = staticmethod(np.asarray)  # a factor is its own matrix
    pair = cpmap.ScalingPair

    @staticmethod
    def gaussian(rng, slices, d):
        """A block-diagonal d x d complex Gaussian, blocks in slice order,
        each with standard normal real and imaginary parts over sqrt 2."""
        out = np.zeros((d, d), dtype=np.complex128)
        for s in slices:
            k = s.stop - s.start
            z = rng.standard_normal((2, k, k))  # real, then imaginary part
            out[s, s] = (z[0] + 1j * z[1]) / math.sqrt(2.0)
        return out

    @staticmethod
    def start(T, g, h):
        """The stack g^dag K h of scale(T, (g, h)), unvalidated."""
        return g.conj().T @ T.kraus @ h

    @staticmethod
    def marginal(K, M, output):
        """T(P) on the output side, T*(Q) on the input side."""
        root_p, root_q = M._roots
        return (cpmap._output_marginal(K, root_p) if output
                else cpmap._input_marginal(K, root_q))

    @staticmethod
    def balance(S, a, blocks):
        """(inc, log det(a, inc^dag inc), inc^dag S inc, log det(a, that))."""
        inc = cpmap.balance_factor(S, blocks)
        balanced = inc.conj().T @ S @ inc
        return (inc, 2.0 * float(np.dot(a, np.log(inc.diagonal().real))),
                balanced, _log_det(a, balanced, blocks))

    @staticmethod
    def congruence(K, f, output):
        """f^dag K on the output side, K f on the input side."""
        if output:
            return f.conj().T @ K
        return (K.reshape(-1, K.shape[2]) @ f).reshape(K.shape)

    @staticmethod
    def ds(primal, dual, M):
        # by its module-level name, which the benchmark's tracer hooks
        return ds_from_marginals(primal, dual, M)


class _Diagonal:
    """The diagonal layout of a weight-stored map with 1 x 1 blocks.

    The map is its weight matrix W_ij = sum_k |K_k,ij|^2 and a factor is
    the vector of its diagonal: both marginals of every diagonal scaling
    are exactly diagonal, T(diag p) = diag(W p) and T*(diag q) =
    diag(W^T q), so lambda_min(S) = min S_ii, a balance factor is
    1/sqrt(S_ii) and its congruence a row or column rescaling of W.  A
    step's balanced side is the shared read-only cpmap._unit(d).
    """

    factor = staticmethod(np.diagonal)
    mul = staticmethod(np.multiply)
    eye = staticmethod(cpmap._unit)
    pair = cpmap.ScalingPair._of_diagonals

    @staticmethod
    def gaussian(rng, slices, d):
        """The diagonal of _Stack.gaussian under 1 x 1 blocks, the same
        draws made at once."""
        z = rng.standard_normal((d, 2))
        return (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)

    @staticmethod
    def start(T, g, h):
        """The weight matrix of g^dag T h for diagonal g and h."""
        return T.congruence_weights(g, h)

    @staticmethod
    def log_det(a, S, blocks):
        return float(np.dot(a, np.log(S)))

    @staticmethod
    def above_floor(S):
        return S.min() > 1e-12 * float(S.sum()) / S.size

    @staticmethod
    def marginal(W, M, output):
        return W @ M.p if output else M.q @ W

    @staticmethod
    def balance(S, a, blocks):
        if not S.min() > 1e-12 * float(S.sum()) / S.size:  # above_floor
            raise NotPositiveDefinite(float(S.min()) if np.isfinite(S).all()
                                      else math.nan)
        # inc S inc is the identity, up to one rounding that is dropped.
        inc = 1.0 / np.sqrt(S)
        return inc, 2.0 * float(np.dot(a, np.log(inc))), cpmap._unit(S.size), 0.0

    @staticmethod
    def congruence(W, f, output):
        """f W f entrywise: f rescales the rows of W on the output side and
        its columns on the input side (f is a real balance factor)."""
        f = f[:, None] if output else f
        return f * W * f

    @staticmethod
    def ds(primal, dual, M):
        """ds_from_marginals of diagonal marginals, given as their diagonals.

        Their off-diagonal entries are exact zeros, which add nothing to
        ds under any blocks, so only the 1 x 1 terms remain; a side that
        is a balanced _unit vector adds exactly 0.0 and is skipped."""
        ds = 0.0
        if dual is not cpmap._unit(dual.size):
            ds = float(np.dot(M.p, (dual - 1.0) ** 2))
        if primal is not cpmap._unit(primal.size):
            ds += float(np.dot(M.q, (primal - 1.0) ** 2))
        return ds


def _layout(T, M, pair=None):
    """(layout, map) of the alternating loop on T under M.

    (_Diagonal, T.weights) when T is held as its weight matrix
    (build_matrix_cpmap's maps) and its factors are diagonal: those of
    the loop when every block of M is 1 x 1, or else both factors of the
    given pair.  Diagonal factors keep both marginals diagonal, and ds
    and the marginal errors of diagonal marginals do not depend on the
    blocks.  Else (_Stack, T.kraus).
    """
    if isinstance(T, cpmap._WeightMap) and (
            (len(M.p_blocks) == M.n and len(M.q_blocks) == M.m) if pair is None
            else (cpmap._is_diagonal(pair.g) and cpmap._is_diagonal(pair.h))):
        return _Diagonal, T.weights
    return _Stack, T.kraus


def _marginals(T, M, pair=None):
    """(layout, T(P), T*(Q)) in the layout of (T, M), of scale(T, pair)
    when a pair is given, unvalidated; diagonal marginals as diagonals."""
    layout, X = _layout(T, M, pair)
    if pair is not None:
        X = layout.start(T, layout.factor(pair.g), layout.factor(pair.h))
    return layout, layout.marginal(X, M, True), layout.marginal(X, M, False)


def _is_count(k):
    """Whether k is a nonnegative integer that is not a bool."""
    return (isinstance(k, numbers.Integral) and not isinstance(k, bool)
            and k >= 0)


def _iterate(X, M, layout=_Stack):
    """The alternating iteration on the map X in `layout`, lazily.

    Yields (primal, dual, step) before each step j = 0, 1, ...: the
    marginals T_j(P), T_j*(Q) and the step just taken, (balance factor,
    log capacity-change factor -log det(a, target), log det(a, balanced
    target) ~ 0), None at j = 0.  Even steps balance T(P) against q, odd
    steps T*(Q) against p; the balanced target (inc^dag target inc, the
    identity in _Diagonal) becomes that side's marginal, so only the
    other is computed from the rescaled map.  A step runs only on next()
    and raises NotPositiveDefinite when its target cannot be balanced.
    """
    primal, dual = layout.marginal(X, M, True), layout.marginal(X, M, False)
    step = None
    for j in itertools.count():
        yield primal, dual, step
        output = j % 2 == 0
        target, a, blocks = ((primal, M.q, M.q_blocks) if output
                             else (dual, M.p, M.p_blocks))
        inc, log_factor, balanced, upper = layout.balance(target, a, blocks)
        step = inc, log_factor, upper
        X = layout.congruence(X, inc, output)
        if output:
            primal, dual = balanced, layout.marginal(X, M, False)
        else:
            primal, dual = layout.marginal(X, M, True), balanced


def estimate_capacity(T, M, budget=200):
    """Upper estimate of cap(T, P, Q) via the alternating iteration itself.

    Runs the solvers' alternating iteration and tracks est_j = v_j - cum_j,
    where v_j = log det(Q, T_j(P)) is the capacity objective of the
    current scaled map at h = I and cum_j the summed log change factors;
    cap(T) <= exp(est_j) for every j, with equality in the limit when the
    iteration converges.  Returns a 0-flagged estimate when a balance
    target, or the T_j(P) that v_j is read off, fails the PD test of
    balance_factor, or when the estimate falls to log 1e-300 (capacity
    vanishing on the PSD boundary).  An estimate past the largest double
    has value inf and a finite log_value.

    Requires strictly positive spectra and a nonnegative integer budget.
    """
    if not _is_count(budget):
        raise ValueError(f"budget must be a nonnegative integer, got {budget!r}")
    if np.any(M.p <= 0) or np.any(M.q <= 0):
        raise ValueError("estimate_capacity needs nonsingular P and Q")
    cum, best = 0.0, math.inf
    layout, X = _layout(T, M)
    iterates = itertools.islice(_iterate(X, M, layout), int(budget) + 1)
    # Overflowing Kraus updates are handled: the estimate then diverges.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for j, (primal, _, step) in enumerate(iterates):
                if step is not None:
                    cum += step[1]
                # v_j, read only off a T_j(P) that a balance step accepts
                v = (layout.log_det(M.q, primal, M.q_blocks)
                     if layout.above_floor(primal) else -math.inf)
                best = min(best, v - cum)
                if best <= _MINOR_FLOOR_LOG:
                    break
        except NotPositiveDefinite:
            best = -math.inf
    if best <= _MINOR_FLOOR_LOG:
        return CapacityEstimate(0.0, -math.inf, True, j)
    try:
        value = math.exp(best)
    except OverflowError:  # past the largest double; log_value is finite
        value = math.inf
    return CapacityEstimate(value, best, False, int(budget))
