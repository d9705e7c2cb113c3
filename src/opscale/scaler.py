"""Alternating-balance solvers for scaling CP maps to target marginals.

Both solvers drive the ds distance of the scaled map to the target
(P -> I_m, Q -> I_n) below eps^2 * min over the positive spectrum
entries, which certifies that both marginals are within eps of the
identity in Frobenius norm.  Internally the instance is trace-normalized
(spectra divided by s = sum p); the returned pair absorbs the
normalization (h picks up a factor 1/sqrt(s)), while reported ds values
are converted back to original units, where the success threshold
transfers exactly (ds is linear in s).

triangular_scale is the deterministic alternating iteration: at each
step the currently unbalanced marginal is pushed to the identity by a
(block) upper-triangular balance factor, so the flag structure declared
by the marginal spec is preserved throughout.  It requires strictly
positive spectra.  general_scale handles singular targets and arbitrary
instances: restrict to the support of the spectra, precompose with a
random block-diagonal Gaussian pair (retried when a draw is numerically
singular), run the triangular iteration, and lift back, shrinking the
off-support diagonal fill until the lifted pair is essentially as good
as the restricted one.

Iteration budgets default to worst-case formulas driven by the instance
bit complexity b; every budget is clamped by the OPSCALE_HARD_CAP
environment variable (default 10^6).  b is computed only when it can
change an output: the budget skips it when a lower bound on b already
reaches the cap, and the log capacity lower bound -10 b in the result's
CapacityTrace is computed on first read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import cpmap, relmetrics
from .cpmap import CPMap, MarginalSpec, ScalingPair
from .exceptions import AllZeroSpectrum, NotPositiveDefinite
from .relmetrics import CapacityTrace, _alternating_step, ds_threshold

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
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """Outcome of a solver run.

    `pair` is the last iterate (g, h) — on SUCCESS it certifies
    ds <= threshold for the original instance.  `ds_trace` holds the ds
    value at the top of every iteration in original units, so
    final ds = ds_trace[-1].  `capacity_trace` records the per-step log
    capacity-change factors together with the log relative determinant of
    each freshly balanced marginal (0 up to roundoff).  On ERROR_NOT_PD,
    `min_eigenvalue` is the offending eigenvalue of the balance target.
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
    restriction keeps the flag structure.
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

    def _embed(self, mat, mask, fill):
        full = fill * np.eye(mask.size, dtype=np.complex128)
        full[np.ix_(mask, mask)] = mat
        return full

    def embed_output(self, g, fill=1.0):
        """Lift a restricted g to the full output space, `fill` on the rest."""
        return self._embed(g, self.q_mask, fill)

    def embed_input(self, h, fill=1.0):
        """Lift a restricted h to the full input space, `fill` on the rest."""
        return self._embed(h, self.p_mask, fill)


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


def lift_pair(pair, embedding, fill=1.0):
    """Lift a restricted scaling pair to the full spaces.

    Off-support coordinates carry zero spectrum weight, so the ds value
    of the lifted pair equals the restricted one for every fill > 0.
    """
    if fill <= 0:
        raise ValueError("fill must be positive")
    return ScalingPair(
        embedding.embed_output(pair.g, fill),
        embedding.embed_input(pair.h, fill),
    )


def iteration_budget(b, m, epsilon, p_min, q_min, mode="triangular", log_cap1=None):
    """Worst-case iteration count, clamped by hard_cap().

    With the log capacity after the first step known, the bound is
    ceil(-7 log_cap1 / (min(eps, p_min) + min(eps, q_min))); otherwise
    the capacity is replaced by its bit-complexity lower bound, giving
    ceil(100 b m / (min(eps, p_min) + min(eps, q_min))) for the
    triangular solver and ceil(400 b m / (min(p_min, q_min) eps^2)) for
    the randomized general one.  Spectra are assumed trace-normalized.
    The result does not decrease as b grows.
    """
    denom = min(epsilon, p_min) + min(epsilon, q_min)
    if log_cap1 is not None:
        raw = -7.0 * log_cap1 / denom
    elif mode == "triangular":
        raw = 100.0 * b * m / denom
    elif mode == "general":
        raw = 400.0 * b * m / (min(p_min, q_min) * epsilon**2)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # Clamp before rounding up: a tiny spectrum entry overflows raw to inf.
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
    from .feasibility import bit_complexity  # deferred: feasibility uses us

    b = bit_complexity(T, M)
    lower = relmetrics.log_capacity_lower_bound(b, T.m)[0]
    return iteration_budget(b, *args), CapacityTrace(log_lower_bound=lower)


# Overflow is handled, not warned about: non-finite marginals and
# diverging factors both end the run with ERROR_BUDGET.
@np.errstate(over="ignore", invalid="ignore")
def _alternate(T, M, config, budget, trace, finish=ScalingPair):
    """Core loop on a positive-spectrum instance; normalized units inside.

    Runs the shared alternating step on the map's Kraus stack, recording
    each step in `trace`, and returns the ScalingResult in original units,
    its pair built by finish(g, h) from the last iterate.
    """
    Mhat, s = M.normalized()
    thresh = ds_threshold(config.epsilon, Mhat)
    K = T.kraus
    g = np.eye(T.m, dtype=np.complex128)
    h = np.eye(T.n, dtype=np.complex128)
    ds_list = []
    steps = 0
    min_eig = None
    while True:
        primal, dual = cpmap._stacked_marginals(K, Mhat.p, Mhat.q)
        ds_list.append(relmetrics.ds_from_marginals(primal, dual, Mhat))
        if ds_list[-1] <= thresh:
            status = SUCCESS
            break
        if not math.isfinite(ds_list[-1]):
            # Non-finite marginals mean the Kraus updates overflowed; no
            # further progress is possible, so report the budget as
            # exhausted at the current step count.
            status = ERROR_BUDGET
            break
        if steps >= budget:
            status = ERROR_BUDGET
            break
        try:
            inc, K, log_factor, upper = _alternating_step(K, primal, dual,
                                                          Mhat, steps)
        except NotPositiveDefinite as err:
            status = ERROR_NOT_PD
            min_eig = err.min_eigenvalue
            break
        trace.append(log_factor, upper)
        # On an infeasible instance the accumulated factors diverge (even
        # while the iterated marginals stay bounded); stop once they leave
        # the comfortably representable range, keeping the current factors
        # so later compositions stay finite, and report the budget as
        # exhausted at this step count.  Only the factor this step changed
        # is tested: the other one passed when it last changed.
        new = (g if steps % 2 == 0 else h) @ inc
        if not np.linalg.norm(new) < _FACTOR_CAP:
            status = ERROR_BUDGET
            break
        if steps % 2 == 0:
            g = new
        else:
            h = new
        steps += 1
    return ScalingResult(
        pair=finish(g, h / math.sqrt(s)),
        status=status,
        iterations=steps,
        ds_trace=tuple(s * d for d in ds_list),
        threshold=ds_threshold(config.epsilon, M),
        epsilon=config.epsilon,
        capacity_trace=trace,
        min_eigenvalue=None if min_eig is None else s * min_eig,
    )


def triangular_scale(T, M, config):
    """Deterministic alternating scaling for nonsingular target spectra."""
    _check_instance(T, M)
    if np.any(M.p <= 0) or np.any(M.q <= 0):
        raise ValueError(
            "triangular_scale needs strictly positive spectra; "
            "project to the support (or call general_scale) first"
        )
    return _alternate(T, M, config, *_resolve_budget(T, M, config, "triangular"))


def _block_gaussian(rng, slices, dim):
    out = np.zeros((dim, dim), dtype=np.complex128)
    for s in slices:
        k = s.stop - s.start
        out[s, s] = (rng.standard_normal((k, k))
                     + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    return out


def _comfortably_invertible(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv[-1] > 1e-10 * max(1.0, sv[0])


# Overflow makes the errors non-finite, which the caller treats as bad.
@np.errstate(over="ignore", invalid="ignore")
def _converted_errors(T, M, g2, h2):
    """Frobenius errors of (I_n -> Q, I_m -> P) for the converted pair."""
    K = g2.conj().T @ T.kraus @ h2
    out, inp = cpmap._stacked_marginals(K, np.ones(T.n), np.ones(T.m))
    return float(np.linalg.norm(out - M.Q)), float(np.linalg.norm(inp - M.P))


def _lift_with_fill(T, M, Tr, Mr, pair_r, emb):
    """Lift, shrinking the off-support fill until no worse than 2x restricted.

    The target orientation (P -> I, Q -> I) cannot be met in full norm
    off the support, so quality is measured in the converted orientation
    (I_n -> Q, I_m -> P), where small fills make the lift exact in the
    limit.
    """
    g2r, h2r = cpmap.convert_pair(pair_r, Mr)
    ref_out, ref_in = _converted_errors(Tr, Mr, g2r, h2r)
    slack = 1e-12 * max(1.0, float(M.p.sum()))
    fill = 1.0
    while True:
        pair = lift_pair(pair_r, emb, fill)
        g2, h2 = cpmap.convert_pair(pair, M)
        out_e, in_e = _converted_errors(T, M, g2, h2)
        if (out_e <= 2.0 * ref_out + slack and in_e <= 2.0 * ref_in + slack):
            return pair
        if fill <= 1e-6:
            return pair
        fill *= 0.1


def general_scale(T, M, config):
    """Randomized scaling for arbitrary (possibly singular) target spectra.

    Restricts to the spectrum support, precomposes with a Gaussian
    block-diagonal pair drawn from config.seed (up to 3 draws when one
    comes out numerically singular -> ERROR_SINGULAR_INIT), runs the
    triangular iteration, and lifts the composed pair back to the full
    spaces.  ERROR_NOT_PD from the iteration is returned as-is: the rank
    of a marginal is invariant under scaling, so a rank-deficient balance
    target is evidence against feasibility, not bad luck.
    """
    _check_instance(T, M)
    Tr, Mr, emb = project_to_support(T, M)
    budget, trace = _resolve_budget(Tr, Mr, config, "general")
    g0 = h0 = None
    for attempt in range(3):
        rng = np.random.default_rng(config.seed + attempt)
        cand_g = _block_gaussian(rng, Mr.q_slices(), Mr.m)
        cand_h = _block_gaussian(rng, Mr.p_slices(), Mr.n)
        if _comfortably_invertible(cand_g) and _comfortably_invertible(cand_h):
            g0, h0 = cand_g, cand_h
            break
    if g0 is None:
        return ScalingResult(
            pair=ScalingPair(np.eye(M.m), np.eye(M.n)),
            status=ERROR_SINGULAR_INIT,
            iterations=0,
            ds_trace=(),
            threshold=ds_threshold(config.epsilon, M),
            epsilon=config.epsilon,
            capacity_trace=trace,
        )

    def finish(g, h):
        pair = ScalingPair(g0 @ g, h0 @ h)
        return pair if emb.full else _lift_with_fill(T, M, Tr, Mr, pair, emb)

    # _comfortably_invertible has checked (g0, h0); this is the product
    # cpmap.scale forms, without a ScalingPair that would SVD them again.
    return _alternate(CPMap(g0.conj().T @ Tr.kraus @ h0), Mr, config,
                      budget, trace, finish)
