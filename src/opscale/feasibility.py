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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionTooLarge
# Exported by relmetrics; bound here too because perfbench/tracing.py
# hooks it as opscale.feasibility.bit_complexity.
from .relmetrics import bit_complexity  # noqa: F401
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
    "certificate_epsilon",
    "FeasibilityVerdict",
    "decide_scalable",
]

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
INCONCLUSIVE = "INCONCLUSIVE"

# Solver statuses with a conclusive verdict; every other one is INCONCLUSIVE.
_VERDICTS = {SUCCESS: FEASIBLE, ERROR_NOT_PD: INFEASIBLE}

def _subset_sums(v):
    """Subset sums of v; entry k adds the v[i] with bit i set, in order."""
    sums = np.zeros(2 ** v.size)
    for i, x in enumerate(v.tolist()):
        np.add(sums[:1 << i], x, out=sums[1 << i:2 << i])
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
        diff = np.abs(target - sums_q[i:i + step, None] - sums_p)
        best = min(best, float(diff.min(where=diff > tol, initial=math.inf)))
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
