"""Feasibility certificates and the approximate-scalability decision.

Exact scalability of (T, P, Q) is a property of spectra sums: every
obstruction is witnessed by a pair of coordinate subsets whose spectrum
mass exceeds what the trace allows.  certificate_epsilon computes the
smallest nonzero violation margin

    min | tr P - sum_{I} q - sum_{J} p |  /  (sqrt(m) + sqrt(n))

over subset pairs, which separates scalable from non-scalable instances:
an eps-scaling with eps below half the certificate can only exist in the
scalable case.  decide_scalable therefore runs the general solver at
that accuracy, for the trace-normalized spectra it iterates on, and
converts its exit status into a verdict; a rank-deficient balance
target is conclusive evidence of infeasibility (marginal ranks are
scaling invariants), while an exhausted budget is not.

bit_complexity is the integer size parameter b driving the worst-case
iteration budgets: the total bit length (numerator plus denominator) of
all Kraus and spectrum entries, each snapped to the closest rational
with denominator at most 2^53 (so 0.1 counts as 1/10, 5 bits), plus log
of the instance dimensions.  One numpy kernel computes it over chunks of
nonzero entries; only entries too small for int64 arithmetic take the
Fraction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DimensionTooLarge
from .scaler import (
    ERROR_NOT_PD,
    SUCCESS,
    ScalingResult,
    SolverConfig,
    _check_instance,
    general_scale,
)

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "INCONCLUSIVE",
    "bit_complexity",
    "certificate_epsilon",
    "FeasibilityVerdict",
    "decide_scalable",
]

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
INCONCLUSIVE = "INCONCLUSIVE"

# Solver statuses with a conclusive verdict; every other one is INCONCLUSIVE.
_VERDICTS = {SUCCESS: FEASIBLE, ERROR_NOT_PD: INFEASIBLE}

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
    parts = [T.kraus.ravel().view(np.float64), M.p, M.q]
    total = nonzero = 0
    for x in _nonzero_chunks(parts):
        total += _nonzero_bits(x)
        nonzero += x.size
    total += sum(x.size for x in parts) - nonzero  # a zero snaps to 0/1
    total += math.ceil(math.log2(T.r) + math.log2(T.m) + math.log2(T.n))
    return max(1, int(total))


def _subset_sums(v):
    sums = np.zeros(1, dtype=np.float64)
    for x in v:
        sums = np.concatenate([sums, sums + float(x)])
    return sums


def certificate_epsilon(M):
    """Smallest nonzero obstruction margin, scaled by sqrt(m) + sqrt(n).

    Enumerates all 2^(m+n) subset pairs (I, J) and returns
    min |tr P - sum_I q - sum_J p| / (sqrt(m) + sqrt(n)) over the
    nonzero values (below 1e-12 * max(1, tr P) counts as zero).  Raises
    DimensionTooLarge beyond m + n = 24.
    """
    if M.m + M.n > 24:
        raise DimensionTooLarge(
            f"certificate enumeration needs m + n <= 24, got {M.m + M.n}"
        )
    target = float(M.p.sum())
    tol = 1e-12 * max(1.0, abs(target))
    sums_p = _subset_sums(M.p)
    sums_q = _subset_sums(M.q)
    best = math.inf
    step = max(1, 2**22 // sums_p.size)
    for i in range(0, sums_q.size, step):
        diff = np.abs(target - sums_q[i:i + step, None] - sums_p[None, :])
        nonzero = diff[diff > tol]
        if nonzero.size:
            best = min(best, float(nonzero.min()))
    if not math.isfinite(best):
        raise ValueError("all subset margins vanish; spectra are degenerate")
    return best / (math.sqrt(M.m) + math.sqrt(M.n))


@dataclass(frozen=True, eq=False)
class FeasibilityVerdict:
    """Decision outcome: verdict, the accuracy used, and the solver run."""

    verdict: str
    epsilon: float
    result: ScalingResult

    @property
    def feasible(self):
        return self.verdict == FEASIBLE


def decide_scalable(T, M, seed=0, max_iterations=None):
    """Decide approximate scalability of (T, P, Q) with equal traces.

    Runs general_scale at accuracy eps = min(certificate/2, 1/2), with the
    certificate of the trace-normalized spectra the solver iterates on, so
    that scaling both spectra by one factor leaves eps as it is.  SUCCESS
    at that accuracy implies no obstruction subset pair can be violated
    (FEASIBLE); a non-PD balance target is a scaling-invariant rank
    deficiency (INFEASIBLE); anything else is INCONCLUSIVE.  The
    optional max_iterations caps the solver budget, trading conclusiveness
    for time.
    """
    _check_instance(T, M)
    eps = min(certificate_epsilon(M.normalized()[0]) / 2.0, 0.5)
    config = SolverConfig(epsilon=eps, seed=seed, max_iterations=max_iterations)
    result = general_scale(T, M, config)
    return FeasibilityVerdict(verdict=_VERDICTS.get(result.status, INCONCLUSIVE),
                              epsilon=eps, result=result)
