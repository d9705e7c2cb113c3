"""Alternating-balance solvers for scaling CP maps to target marginals.

Both solvers drive the ds distance of the scaled map to the target
(P -> I_m, Q -> I_n) below eps^2 * min over the positive spectrum
entries, which certifies that both marginals are within eps of the
identity in Frobenius norm.  Internally the instance is trace-normalized
(spectra divided by s = sum p); the returned pair absorbs the
normalization (h picks up a factor 1/sqrt(s)), while reported ds values
are converted back to original units, where the success threshold
transfers exactly (ds is linear in s).

Both solvers are one solve body run from two starts (g0, h0).  It
drives relmetrics._iterate, the one alternating loop (estimate_capacity
is its other client), and keeps every stop rule.  Each step pushes the
unbalanced marginal to the identity by a (block) upper-triangular
balance factor, preserving the flag structure of the marginal spec.
triangular_scale starts from the identity and requires strictly positive
spectra; general_scale handles singular targets and arbitrary instances
from a random block-diagonal Gaussian pair, drawn once (a numerically
singular draw ends the run).  A solve restricts the instance to the
support of the spectra (a no-op on positive spectra), runs the loop on
the raw (r, m, n) Kraus stack g0^dag T h0, or on its weight matrix when
relmetrics._layout picks the diagonal layout, composes the last iterate
with the start, lifts it back with the identity off the support, and
validates only the ScalingPair it returns.  A SUCCESS is reported only
after the returned pair's ds, recomputed once on the instance as given
(by the dense stack product in either layout), meets the threshold (to
a relative 1e-6); otherwise the run ends in ERROR_BUDGET.
A run whose threshold lies below the roundoff floor of ds, about
(m + n)^2 u^2, ends in ERROR_BUDGET at the first step whose ds is at
that floor and not below both of the two before it, which also stops a
2-cycle at the floor.

Iteration budgets default to worst-case formulas driven by the instance
bit complexity b; every budget is clamped by the OPSCALE_HARD_CAP
environment variable (default 10^6).  b is computed only when it can
change an output: the budget skips it when a lower bound on b already
reaches the cap, and the log capacity lower bound -10 b in the result's
CapacityTrace is computed on first read.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import cpmap, relmetrics
from .cpmap import CPMap, MarginalSpec, ScalingPair
from .exceptions import AllZeroSpectrum, NotInvertible, NotPositiveDefinite
from .relmetrics import CapacityTrace, _iterate, ds_threshold

__all__ = [
    "SUCCESS",
    "ERROR_NOT_PD",
    "ERROR_BUDGET",
    "ERROR_SINGULAR_INIT",
    "SolverConfig",
    "ScalingResult",
    "SupportEmbedding",
    "project_to_support",
    "lift_pair",
    "hard_cap",
    "iteration_budget",
    "triangular_scale",
    "general_scale",
]

SUCCESS = "SUCCESS"
ERROR_NOT_PD = "ERROR_NOT_PD"
ERROR_BUDGET = "ERROR_BUDGET"
ERROR_SINGULAR_INIT = "ERROR_SINGULAR_INIT"

# Factor norms past this are treated as divergence (squaring them in a
# marginal must stay well below the double-precision overflow threshold).
_FACTOR_CAP = 1e100
# The unit roundoff of double precision, squared.
_UNIT_ROUNDOFF_SQ = 2.0**-106


def hard_cap():
    """Global iteration ceiling, from OPSCALE_HARD_CAP (default 10^6)."""
    raw = os.environ.get("OPSCALE_HARD_CAP", "1000000")
    if not raw.strip().isdecimal():
        raise ValueError(
            f"OPSCALE_HARD_CAP must be a nonnegative integer, got {raw!r}"
        )
    return int(raw)


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs: target accuracy, optional budget override, RNG seed."""

    epsilon: float
    max_iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie strictly between 0 and 1")
        count = self.max_iterations
        if count is not None and not (isinstance(count, numbers.Integral)
                                      and count >= 0):
            raise ValueError(
                f"max_iterations must be a nonnegative integer, got {count!r}")


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Outcome of a solver run.

    `pair` is the last iterate (g, h).  SUCCESS is reported only after
    the ds of scale(T, pair), recomputed once on the instance as given,
    is checked to be at most threshold * (1 + 1e-6); a pair that fails
    the check, or whose factors are too ill-conditioned to form a pair
    at all (`pair` is then the starting one), turns SUCCESS into
    ERROR_BUDGET.  ERROR_NOT_PD stays, as its evidence is the rank of a
    marginal, not the pair.  `ds_trace` holds the ds value at the
    top of every iteration in original units, so final ds = ds_trace[-1].
    `capacity_trace` records the per-step log capacity-change factors
    together with the log relative determinant of each freshly balanced
    marginal (0 up to roundoff).  On ERROR_NOT_PD, `min_eigenvalue` is the
    offending eigenvalue of the balance target.
    """

    pair: ScalingPair
    status: str
    iterations: int
    ds_trace: tuple
    threshold: float
    epsilon: float
    capacity_trace: CapacityTrace
    min_eigenvalue: float | None = None

    @property
    def success(self):
        return self.status == SUCCESS


@dataclass(frozen=True, eq=False)
class SupportEmbedding:
    """Bookkeeping for restricting an instance to its spectrum support.

    Masks select the positive entries of p (input side) and q (output
    side); within each block these are leading coordinates, so the
    restriction keeps the flag structure.  lift_pair embeds restricted
    factors with the identity on the off-support coordinates.
    """

    p_mask: np.ndarray
    q_mask: np.ndarray

    def __init__(self, p_mask, q_mask):
        p_mask = np.asarray(p_mask, dtype=bool).copy()
        q_mask = np.asarray(q_mask, dtype=bool).copy()
        p_mask.setflags(write=False)
        q_mask.setflags(write=False)
        object.__setattr__(self, "p_mask", p_mask)
        object.__setattr__(self, "q_mask", q_mask)

    @property
    def full(self):
        return bool(self.p_mask.all() and self.q_mask.all())


def _restricted_blocks(mask, slices):
    counts = (int(mask[s].sum()) for s in slices)
    return tuple(c for c in counts if c)


def project_to_support(T, M):
    """Restrict (T, M) to the positive part of the spectra.

    Returns (restricted map, restricted spec, SupportEmbedding).  Blocks
    shrink to their positive prefixes; emptied blocks are dropped.
    """
    _check_shapes(T, M)
    p_mask, q_mask = M.p > 0, M.q > 0
    if not p_mask.any() or not q_mask.any():
        raise AllZeroSpectrum("a spectrum is identically zero")
    emb = SupportEmbedding(p_mask, q_mask)
    if emb.full:
        return T, M, emb
    Tr = CPMap(T.kraus[:, q_mask][:, :, p_mask])
    Mr = MarginalSpec(
        M.p[p_mask],
        M.q[q_mask],
        _restricted_blocks(p_mask, M.p_slices()),
        _restricted_blocks(q_mask, M.q_slices()),
    )
    return Tr, Mr, emb


def lift_pair(pair, embedding):
    """Lift a restricted scaling pair to the full spaces, identity off the support.

    Off-support coordinates carry zero spectrum weight, so the ds value
    of the lifted pair equals the restricted one.  In the converted
    orientation (cpmap.convert_pair) the off-support rows and columns
    are exact zeros, so any other off-support fill converts to the same
    pair.
    """
    factors = []
    for mat, mask in ((pair.g, embedding.q_mask), (pair.h, embedding.p_mask)):
        full = np.eye(mask.size, dtype=np.complex128)
        full[np.ix_(mask, mask)] = mat
        factors.append(full)
    return ScalingPair(*factors)


def iteration_budget(b, m, epsilon, p_min, q_min, mode="triangular", log_cap1=None):
    """Worst-case iteration count, clamped by hard_cap().

    With the log capacity after the first step known, the bound is
    ceil(-7 log_cap1 / (min(eps, p_min) + min(eps, q_min))); otherwise
    the capacity is replaced by its bit-complexity lower bound, giving
    ceil(100 b m / (min(eps, p_min) + min(eps, q_min))) for the
    triangular solver and ceil(400 b m / (min(p_min, q_min) eps^2)) for
    the randomized general one.  Spectra are assumed trace-normalized.
    The result does not decrease as b grows.  b must be at least 1 and
    log_cap1, when given, at most 0 (a balanced map has cap <= 1).
    """
    if not b >= 1:
        raise ValueError(f"bit complexity b must be >= 1, got {b!r}")
    if log_cap1 is not None and not log_cap1 <= 0:
        raise ValueError(f"log_cap1 must be <= 0, got {log_cap1!r}")
    denom = min(epsilon, p_min) + min(epsilon, q_min)
    if log_cap1 is not None:
        num = -7.0 * log_cap1
    elif mode == "triangular":
        num = 100.0 * b * m
    elif mode == "general":
        num, denom = 400.0 * b * m, min(p_min, q_min) * epsilon**2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # An underflowed divisor (eps^2 < 5e-324) or a tiny spectrum entry makes
    # the raw budget unbounded; clamp before rounding up.
    raw = num / denom if denom else math.inf
    return math.ceil(min(raw, hard_cap()))


def _check_shapes(T, M):
    if T.m != M.m or T.n != M.n:
        raise ValueError(
            f"map is {T.m} x {T.n} but spec asks for {M.m} x {M.n}"
        )


def _check_instance(T, M):
    _check_shapes(T, M)
    if not M.trace_gap <= 1e-12 * max(1.0, float(M.p.sum())):
        raise ValueError(
            f"spectra traces differ (gap {M.trace_gap:.3e}); "
            "equal traces are necessary for any exact scaling"
        )


def _resolve_budget(T, M, config, mode):
    """(budget, empty CapacityTrace) of a solve on (T, M).

    A set max_iterations needs no bit complexity b; the trace's
    log_lower_bound is then -inf.  Otherwise b is computed only when it
    can change the budget.  Every real part of a Kraus or spectrum entry
    adds at least one bit and the dimension term is nonnegative, so
    b >= 2 r m n + m + n; iteration_budget does not decrease in b, so
    once that lower bound reaches hard_cap() the budget is hard_cap().
    In that case the trace computes -10 b on first read.
    """
    if config.max_iterations is not None:
        return min(config.max_iterations, hard_cap()), CapacityTrace()
    Mhat, _ = M.normalized()
    args = (T.m, config.epsilon, float(Mhat.p.min()), float(Mhat.q.min()), mode)
    budget = iteration_budget(2 * T.r * T.m * T.n + T.m + T.n, *args)
    if budget == hard_cap():
        return budget, CapacityTrace(instance=(T, M))
    b = relmetrics.bit_complexity(T, M)
    lower = relmetrics.log_capacity_lower_bound(b, T.m)[0]
    return iteration_budget(b, *args), CapacityTrace(log_lower_bound=lower)


def _block_gaussian(rng, slices, dim):
    if len(slices) == dim:  # 1 x 1 blocks: the same draws, made at once
        z = rng.standard_normal((dim, 2))
        return np.diag((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0))
    out = np.zeros((dim, dim), dtype=np.complex128)
    for s in slices:
        k = s.stop - s.start
        out[s, s] = (rng.standard_normal((k, k))
                     + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    return out


def _comfortably_invertible(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv[-1] > 1e-10 * max(1.0, sv[0])


def _solve(T, M, config, mode):
    """The alternating iteration on (T, M) from the start `mode` names.

    The start (g0, h0) is the identity for "triangular" and a Gaussian
    block-diagonal pair drawn from config.seed for "general".  The loop
    runs on the support-restricted Kraus stack g0^dag T h0 in normalized
    units, recording each step in the result's CapacityTrace; the last
    iterate (g, h) is returned as (g0 g, h0 h), or as the start when that
    pair is numerically singular, lifted to the full spaces.
    """
    _check_instance(T, M)
    Tr, Mr, emb = project_to_support(T, M)
    budget, trace = _resolve_budget(Tr, Mr, config, mode)
    threshold = ds_threshold(config.epsilon, M)
    Mhat, s = Mr.normalized()
    thresh = ds_threshold(config.epsilon, Mhat)
    # The roundoff floor of ds: once each of the m^2 + n^2 marginal entries
    # is off by about one unit roundoff, ds (weights at most 1) stays below.
    floor = _UNIT_ROUNDOFF_SQ * (Mr.m + Mr.n) ** 2
    layout = relmetrics._layout(Tr.kraus, Mr)
    K = Tr.kraus
    g0, h0 = (np.eye(d, dtype=np.complex128) for d in (Mr.m, Mr.n))
    gh = [layout.eye(d) for d in (Mr.m, Mr.n)]  # the loop rebinds its entries
    ds_list = []
    steps = 0
    min_eig = None
    # Overflow is handled, not warned about: non-finite marginals and
    # diverging factors both end the run with ERROR_BUDGET.
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "general":
            rng = np.random.default_rng(config.seed)
            g0 = _block_gaussian(rng, Mr.q_slices(), Mr.m)
            h0 = _block_gaussian(rng, Mr.p_slices(), Mr.n)
            if not (_comfortably_invertible(g0)
                    and _comfortably_invertible(h0)):
                return ScalingResult(ScalingPair(np.eye(M.m), np.eye(M.n)),
                                     ERROR_SINGULAR_INIT, 0, (), threshold,
                                     config.epsilon, trace)
            # The start is comfortably invertible, so this is the product
            # cpmap.scale forms, unvalidated: overflow ends the loop at its
            # first ds.
            K = g0.conj().T @ K @ h0
        try:
            for primal, dual, step in _iterate(layout.load(K), Mhat, layout):
                if step is not None:
                    inc, log_factor, upper = step
                    trace.append(log_factor, upper)
                    # Infeasible instances make the accumulated factors
                    # diverge while the marginals stay bounded: stop once the
                    # factor this step changed (the other passed when it last
                    # changed) leaves the representable range, keeping the
                    # current factors so later compositions stay finite.
                    new = layout.mul(gh[steps % 2], inc)
                    if not np.linalg.norm(new) < _FACTOR_CAP:
                        status = ERROR_BUDGET
                        break
                    gh[steps % 2] = new
                    steps += 1
                ds_list.append(layout.ds(primal, dual, Mhat))
                if ds_list[-1] <= thresh:
                    status = SUCCESS
                    break
                # Non-finite marginals mean the Kraus updates overflowed; a ds
                # at its roundoff floor, not below both of the two before it,
                # means the iteration stopped approaching the threshold (a
                # 2-cycle at the floor included).  Either way no progress is
                # possible, so the budget counts as exhausted.
                if (steps >= budget or not math.isfinite(ds_list[-1])
                        or steps and min(ds_list[-3:-1]) <= ds_list[-1] <= floor):
                    status = ERROR_BUDGET
                    break
        except NotPositiveDefinite as err:
            status = ERROR_NOT_PD
            min_eig = s * err.min_eigenvalue
        try:
            pair = ScalingPair(g0 @ layout.matrix(gh[0]),
                               h0 @ layout.matrix(gh[1] / math.sqrt(s)))
        except NotInvertible:  # singular to working precision: the start
            pair = ScalingPair(g0, h0 @ (np.eye(Mr.n) / math.sqrt(s)))
            if status != ERROR_NOT_PD:
                status = ERROR_BUDGET
        if not emb.full:
            pair = lift_pair(pair, emb)
        # The loop's ds is that of the iterated stack; once the factors are
        # ill-conditioned, g^dag T h formed from the returned pair no longer
        # reproduces it.  So a SUCCESS recomputes the pair's ds once, on
        # (T, M) as given, by the loop's own formula; an overflow fails.
        if status == SUCCESS:
            K = pair.g.conj().T @ T.kraus @ pair.h
            ds = relmetrics.ds_from_marginals(
                *cpmap._stacked_marginals(K, M.p, M.q), M)
            if not ds <= threshold * (1 + 1e-6):
                status = ERROR_BUDGET
    return ScalingResult(pair, status, steps, tuple(s * d for d in ds_list),
                         threshold, config.epsilon, trace, min_eig)


def triangular_scale(T, M, config):
    """Deterministic alternating scaling for nonsingular target spectra."""
    if np.any(M.p <= 0) or np.any(M.q <= 0):
        raise ValueError(
            "triangular_scale needs strictly positive spectra; "
            "project to the support (or call general_scale) first"
        )
    return _solve(T, M, config, "triangular")


def general_scale(T, M, config):
    """Randomized scaling for arbitrary (possibly singular) target spectra.

    Restricts to the spectrum support, precomposes with a Gaussian
    block-diagonal pair drawn once from config.seed (ERROR_SINGULAR_INIT
    if it is numerically singular, which has probability zero), runs the
    triangular iteration, and lifts the composed pair back to the full
    spaces with the identity off the support.  ERROR_NOT_PD from the
    iteration is returned as-is: the rank of a marginal is invariant under
    scaling, so a rank-deficient balance target is evidence against
    feasibility, not bad luck.
    """
    return _solve(T, M, config, "general")
