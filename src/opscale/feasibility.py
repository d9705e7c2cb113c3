"""Feasibility certificates and the approximate-scalability decision.

Exact scalability of (T, P, Q) is a property of spectra sums: every
obstruction is witnessed by a pair of coordinate subsets whose spectrum
mass exceeds what the trace allows.  certificate_epsilon computes the
smallest nonzero violation margin

    min | tr P - sum_{I} q - sum_{J} p |  /  (sqrt(m) + sqrt(n))

over subset pairs, which separates scalable from non-scalable instances:
an eps-scaling with eps below half the certificate can only exist in the
scalable case.  decide_scalable therefore runs the general solver at
that accuracy and converts its exit status into a verdict; a
rank-deficient balance target is conclusive evidence of infeasibility
(marginal ranks are scaling invariants), while an exhausted budget is
not.

bit_complexity is the integer size parameter b driving the worst-case
iteration budgets: the total bit length of all Kraus entries and
spectrum entries written as dyadic rationals, plus log of the instance
dimensions.
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

# Dyadic snap used when measuring entry bit lengths (double mantissa).
_DYADIC_DEN = 2**53


def _entry_bits(x):
    f = Fraction(float(x)).limit_denominator(_DYADIC_DEN)
    return abs(f.numerator).bit_length() + f.denominator.bit_length()


def bit_complexity(T, M):
    """Total bit size b >= 1 of the instance data.

    Sums the dyadic bit lengths of the real and imaginary parts of every
    Kraus entry and of every spectrum entry, plus
    ceil(log2 r + log2 m + log2 n) for the dimensions.
    """
    total = 0
    for A in T.kraus:
        for x in A.ravel():
            total += _entry_bits(x.real) + _entry_bits(x.imag)
    for v in (M.p, M.q):
        for x in v:
            total += _entry_bits(x)
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

    Runs general_scale at accuracy eps = min(certificate/2, 1/2):
    SUCCESS at that accuracy implies no obstruction subset pair can be
    violated (FEASIBLE); a non-PD balance target is a scaling-invariant
    rank deficiency (INFEASIBLE); anything else is INCONCLUSIVE.  The
    optional max_iterations caps the solver budget, trading conclusiveness
    for time.
    """
    _check_instance(T, M)
    eps = min(certificate_epsilon(M) / 2.0, 0.5)
    config = SolverConfig(epsilon=eps, seed=seed, max_iterations=max_iterations)
    result = general_scale(T, M, config)
    return FeasibilityVerdict(verdict=_VERDICTS.get(result.status, INCONCLUSIVE),
                              epsilon=eps, result=result)
