"""Completely positive maps, marginal targets, scalings, and balancing.

A completely positive map T is stored as one read-only (r, m, n) stack
of Kraus operators A_1, ..., A_r (all m x n):

    T(X)  = sum_i A_i X A_i^dag        (n x n  ->  m x m)
    T*(Y) = sum_i A_i^dag Y A_i        (m x m  ->  n x n)

Scaling by an invertible pair (g, h) replaces every A_i by g^dag A_i h,
i.e. T_{g,h}(X) = g^dag T(h X h^dag) g, one batched product over the
stack.  For diagonal targets each marginal is one product too:
T(P) = B B^dag with B = [A_1 sqrt(P) | ... | A_r sqrt(P)], and
T*(Q) = V^dag V with V = [sqrt(Q) A_1; ...; sqrt(Q) A_r], each its own
function so that a solver step, which already holds the marginal it just
balanced, computes only the other one from the rescaled stack.  apply and
dual_apply keep the literal per-operator sums as reference evaluations.

The alternating loop runs this stack, or, for a stack with at most one
nonzero per row and per column of each operator (build_matrix_cpmap's
maps) under all-1 x 1 blocks, its weight matrix W_ij = sum_k |A_k,ij|^2:
relmetrics._layout picks the layout inside each solve.

The balancing primitive used by every solver finds, for positive definite
S, the upper-triangular g with g^dag S g = I: g = L^{-dag} for the one
Cholesky factor L of S masked to its diagonal blocks, so g is
block-diagonal with upper-triangular blocks.  Positive definiteness is
tested by a Cholesky factorization of S - floor I rather than by its
eigenvalues (_above_floor, which estimate_capacity's objective shares),
and every factorization is one direct LAPACK zpotrf call.
The flag geometry of a block structure (mask, in-block indices, ds weight
indices) is one read-only plan, built on first use and cached, so solver
steps do not rebuild it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from .exceptions import NotInvertible, NotPositiveDefinite

__all__ = [
    "CPMap",
    "MarginalSpec",
    "ScalingPair",
    "apply",
    "dual_apply",
    "scale",
    "marginals",
    "balance_factor",
    "convert_pair",
    "hermitian_part",
    "singular_floor",
]


def _as_readonly_complex(a, name):
    out = np.array(a, dtype=np.complex128, order="C")
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


def hermitian_part(X):
    """Return (X + X^dag)/2, the Hermitian part of a square matrix."""
    X = np.asarray(X)
    return (X + X.conj().T) / 2


def _check_blocks(blocks, total, name):
    blocks = tuple(int(b) for b in blocks)
    if any(b <= 0 for b in blocks):
        raise ValueError(f"{name} must be positive integers, got {blocks}")
    if sum(blocks) != total:
        raise ValueError(f"{name} sum to {sum(blocks)}, expected {total}")
    return blocks


@dataclass(frozen=True, eq=False)
class CPMap:
    """A completely positive map given by its Kraus operators.

    Parameters
    ----------
    kraus : (r, m, n) array_like, or a sequence of r (m, n) matrices
        The Kraus operators, r >= 1, stored as one (r, m, n) stack: a
        read-only, C-contiguous complex128 array.  A CPMap itself has
        no len(), indexing or iteration; use T.kraus for the operators.
    """

    kraus: np.ndarray

    def __init__(self, kraus):
        K = _as_readonly_complex(kraus, "kraus")
        if K.ndim != 3 or K.shape[0] == 0:
            raise ValueError("kraus must be a nonempty stack of (m, n) matrices")
        object.__setattr__(self, "kraus", K)

    @property
    def m(self):
        """Output dimension (rows of each Kraus operator)."""
        return self.kraus.shape[1]

    @property
    def n(self):
        """Input dimension (columns of each Kraus operator)."""
        return self.kraus.shape[2]

    @property
    def r(self):
        """Number of Kraus operators."""
        return self.kraus.shape[0]

    def __repr__(self):
        return f"CPMap(m={self.m}, n={self.n}, r={self.r})"


def _block_slices(blocks):
    stops = np.cumsum(blocks)
    starts = stops - np.asarray(blocks)
    return [slice(int(a), int(b)) for a, b in zip(starts, stops)]


class _BlockPlan(NamedTuple):
    """Flag geometry of one block structure of total size d.

    mask is the (d, d) boolean mask of the diagonal blocks; flat holds the
    row-major flat indices of its True entries, eye the identity's entries
    there and amax the index max(i, j) of each, which picks the ds weight.
    """

    mask: np.ndarray
    flat: np.ndarray
    eye: np.ndarray
    amax: np.ndarray


@functools.lru_cache(maxsize=256)
def _block_plan(blocks):
    """The read-only _BlockPlan of a checked block tuple, built once."""
    d = sum(blocks)
    ids = np.repeat(np.arange(len(blocks)), blocks)
    mask = ids[:, None] == ids[None, :]
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, d)
    plan = _BlockPlan(mask, flat, (rows == cols).astype(np.float64),
                      np.maximum(rows, cols))
    for arr in plan:
        arr.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=64)
def _identity(d):
    eye = np.eye(d, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


@dataclass(frozen=True, eq=False)
class MarginalSpec:
    """Target spectra for the two marginals.

    p (length n) is the spectrum of the input-side target P = diag(p) and
    q (length m) that of the output-side target Q = diag(q).  Entries are
    nonnegative and nonincreasing within each block of the optional block
    structure (a single block by default, i.e. globally nonincreasing).
    Block structure is how block-diagonal instances (matrix scaling, Horn,
    Forster) declare the flags their scaling groups preserve.
    """

    p: np.ndarray
    q: np.ndarray
    p_blocks: tuple = None
    q_blocks: tuple = None

    def __init__(self, p, q, p_blocks=None, q_blocks=None):
        p = np.array(p, dtype=np.float64)
        q = np.array(q, dtype=np.float64)
        if p.ndim != 1 or q.ndim != 1 or p.size == 0 or q.size == 0:
            raise ValueError("p and q must be nonempty vectors")
        # A non-finite entry or an overflowing total makes the sum non-finite
        # (Python float sums overflow to inf without a warning).
        if not (math.isfinite(sum(p.tolist())) and math.isfinite(sum(q.tolist()))):
            raise ValueError("spectra and their totals must be finite")
        if np.any(p < 0) or np.any(q < 0):
            raise ValueError("spectra must be nonnegative")
        p_blocks = _check_blocks(p_blocks if p_blocks is not None else (p.size,),
                                 p.size, "p_blocks")
        q_blocks = _check_blocks(q_blocks if q_blocks is not None else (q.size,),
                                 q.size, "q_blocks")
        for a, blocks, name in ((p, p_blocks, "p"), (q, q_blocks, "q")):
            for s in _block_slices(blocks):
                seg = a[s]
                if np.any(np.diff(seg) > 1e-12 * max(1.0, seg.max(initial=0.0))):
                    raise ValueError(f"{name} must be nonincreasing within blocks")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p_blocks", p_blocks)
        object.__setattr__(self, "q_blocks", q_blocks)

    @property
    def n(self):
        return self.p.size

    @property
    def m(self):
        return self.q.size

    @property
    def trace_gap(self):
        """|sum(p) - sum(q)|; solvers require this to vanish."""
        return abs(float(self.p.sum() - self.q.sum()))

    def p_slices(self):
        return _block_slices(self.p_blocks)

    def q_slices(self):
        return _block_slices(self.q_blocks)

    def normalized(self):
        """Rescale so both spectra sum to 1; returns (spec, original sum)."""
        s = float(self.p.sum())
        if s <= 0:
            raise ValueError("cannot normalize an all-zero spectrum")
        p, q = self.p / s, self.q / s
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError("normalized spectra must be finite")
        p.setflags(write=False)
        q.setflags(write=False)
        # Dividing by s > 0 keeps the signs, the order and the blocks, so the
        # constructor's checks are not run again: its tolerance is absolute,
        # and a within-block rise it accepted may exceed it once s < 1.
        spec = object.__new__(MarginalSpec)
        spec.__dict__.update(p=p, q=q, p_blocks=self.p_blocks,
                             q_blocks=self.q_blocks)
        return spec, s


@dataclass(frozen=True, eq=False)
class ScalingPair:
    """An invertible pair (g, h) acting on T as T_{g,h}(X) = g^dag T(h X h^dag) g."""

    g: np.ndarray
    h: np.ndarray

    def __init__(self, g, h):
        g = _as_readonly_complex(g, "g")
        h = _as_readonly_complex(h, "h")
        for M, name in ((g, "g"), (h, "h")):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            smin = np.linalg.svd(M, compute_uv=False)[-1]
            if not smin > 0:
                raise NotInvertible(f"{name} is numerically singular")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)


def apply(T, X):
    """Evaluate T(X) = sum_i A_i X A_i^dag, symmetrized against roundoff."""
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (T.n, T.n):
        raise ValueError(f"X has shape {X.shape}, expected {(T.n, T.n)}")
    out = np.zeros((T.m, T.m), dtype=np.complex128)
    for A in T.kraus:
        out += A @ X @ A.conj().T
    return hermitian_part(out)


def dual_apply(T, Y):
    """Evaluate the trace-dual T*(Y) = sum_i A_i^dag Y A_i, symmetrized."""
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.shape != (T.m, T.m):
        raise ValueError(f"Y has shape {Y.shape}, expected {(T.m, T.m)}")
    out = np.zeros((T.n, T.n), dtype=np.complex128)
    for A in T.kraus:
        out += A.conj().T @ Y @ A
    return hermitian_part(out)


def scale(T, pair):
    """Return T_{g,h}, the map with Kraus operators g^dag A_i h."""
    g, h = pair.g, pair.h
    if g.shape != (T.m, T.m) or h.shape != (T.n, T.n):
        raise ValueError(
            f"pair shapes {g.shape}, {h.shape} do not match map ({T.m}, {T.n})"
        )
    return CPMap(g.conj().T @ T.kraus @ h)


def _output_marginal(K, p):
    """T(diag p) = B B^dag for the (r, m, n) Kraus stack K, one GEMM."""
    r, m, n = K.shape
    B = (K * np.sqrt(p)).transpose(1, 0, 2).reshape(m, r * n)
    return hermitian_part(B @ B.conj().T)


def _input_marginal(K, q):
    """T*(diag q) = V^dag V for the (r, m, n) Kraus stack K, one GEMM."""
    V = (np.sqrt(q)[:, None] * K).reshape(-1, K.shape[2])
    return hermitian_part(V.conj().T @ V)


def _stacked_marginals(K, p, q):
    """(T(diag p), T*(diag q)) for the (r, m, n) Kraus stack K."""
    return _output_marginal(K, p), _input_marginal(K, q)


def marginals(T, M):
    """Return the pair (T(P), T*(Q)) for P = diag(p), Q = diag(q)."""
    if M.n != T.n or M.m != T.m:
        raise ValueError(
            f"marginal spec ({M.m}, {M.n}) does not match map ({T.m}, {T.n})"
        )
    return _stacked_marginals(T.kraus, M.p, M.q)


def singular_floor(S):
    """Positive-definiteness cutoff: 1e-12 * trace(S) / dim."""
    S = np.asarray(S)
    return 1e-12 * float(np.trace(S).real) / S.shape[0]


def _block_diagonal(X, blocks):
    """X with the entries outside its diagonal blocks zeroed; X for one block."""
    return X if len(blocks) == 1 else np.where(_block_plan(blocks).mask, X, 0.0)


def _cholesky(X):
    """Lower Cholesky factor of Hermitian X by LAPACK zpotrf, or None.

    Reads the lower triangle of X only.  None when the factorization
    fails, i.e. X is not numerically positive definite, or when the
    factor is not finite (zpotrf itself lets NaN through).  The factor
    has the bits np.linalg.cholesky gives, without its wrapper cost.
    """
    L, info = scipy.linalg.lapack.zpotrf(X, lower=1, clean=1)
    if info or not np.isfinite(L.diagonal()).all():
        return None
    return L


def balance_factor(S, block_sizes=None):
    """Upper-triangular g with g^dag S g = I (equivalently g g^dag = S^{-1}).

    Parameters
    ----------
    S : (d, d) array_like
        Positive definite Hermitian matrix.
    block_sizes : sequence of int, optional
        When given, only the corresponding diagonal blocks of S are
        balanced and g is block-diagonal with upper-triangular blocks.

    Raises
    ------
    NotPositiveDefinite
        If the smallest eigenvalue of S does not exceed the singular
        floor 1e-12 * trace(S)/dim, or S is not finite.  For the solvers
        this signals a vanishing capacity (infeasibility) or numerical
        breakdown.  The test is one Cholesky factorization of the whole
        of S - floor I; eigvalsh runs only when that fails, to report the
        smallest eigenvalue (NaN for a non-finite S) and to overrule a
        failure inside the roundoff band of the factorization.
    """
    S = hermitian_part(np.asarray(S, dtype=np.complex128))
    d = S.shape[0]
    blocks = (d,) if block_sizes is None else _check_blocks(block_sizes, d,
                                                            "block_sizes")
    if not _above_floor(S):
        raise NotPositiveDefinite(_min_eigenvalue(S))
    L = _cholesky(_block_diagonal(S, blocks))
    if L is None:
        raise NotPositiveDefinite(_min_eigenvalue(S))
    # L^{-1} by the LAPACK call that scipy.linalg.solve_triangular(L, I,
    # lower=True) makes for a C-ordered L: (L^T)^T X = I, L^T upper.
    Linv, info = scipy.linalg.lapack.ztrtrs(L.T, _identity(d), lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return Linv.conj().T


def _above_floor(S):
    """Whether Hermitian S has lambda_min(S) > max(singular_floor(S), 0).

    One Cholesky factorization of S - floor I decides; eigvalsh runs only
    when it fails, to overrule a failure inside its roundoff band.
    """
    floor = max(singular_floor(S), 0.0)
    return (_cholesky(S - floor * _identity(S.shape[0])) is not None
            or _min_eigenvalue(S) > floor)


def _min_eigenvalue(S):
    """Smallest eigenvalue of Hermitian S; NaN when S is not finite."""
    if not np.isfinite(S.view(np.float64)).all():
        return math.nan
    return float(np.linalg.eigvalsh(S)[0])


def convert_pair(pair, M):
    """Convert a (P -> I_m, Q -> I_n) scaling into the (I_n -> Q, I_m -> P) one.

    If T_{g,h}(P) = I and T*_{g,h}(Q) = I, then the returned matrices
    (g sqrt(Q), h sqrt(P)) satisfy T_{g',h'}(I_n) = Q and
    T*_{g',h'}(I_m) = P; this is an exact change of variables.  With
    approximate scalings the marginal errors pick up factors of at most
    max(q) and max(p) respectively.

    Returns plain ndarrays: when a spectrum has zero entries the
    converted matrices are singular by design (the zero-tail targets are
    only reachable in the limit).
    """
    g2 = pair.g @ np.diag(np.sqrt(M.q)).astype(np.complex128)
    h2 = pair.h @ np.diag(np.sqrt(M.p)).astype(np.complex128)
    return g2, h2
