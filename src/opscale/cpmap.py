"""Completely positive maps, marginal targets, scalings, and balancing.

A completely positive map T is given by Kraus operators A_1, ..., A_r
(all m x n):

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

A CPMap holds them as one read-only (r, m, n) stack.  The maps of
build_matrix_cpmap, one operator sqrt(A_ij) e_i e_j^T per positive
entry, are held as their weight matrix W_ij = sum_k |A_k,ij|^2 instead
(the private subclass _WeightMap), with r, m and n; their stack is
formed only when T.kraus is read.  How a map is stored decides how the
alternating loop runs it (relmetrics._layout): a weight-stored map runs
as W with diagonal factors under all-1 x 1 blocks or when a diagonal
pair scales it, and every other map, a dense CPMap always, runs as its
Kraus stack.

The balancing primitive used by every solver finds, for positive definite
S, the upper-triangular g with g^dag S g = I: g = L^{-dag} for the one
Cholesky factor L of S masked to its diagonal blocks, so g is
block-diagonal with upper-triangular blocks.  Positive definiteness is
tested by a Cholesky factorization of S - floor I rather than by its
eigenvalues (_above_floor, which estimate_capacity's objective shares);
on one block a factor g with 1/||g||_F^2 > 2 floor already decides it.
Every factorization and inverse is one call of the gufunc under
np.linalg.cholesky or np.linalg.inv, without the wrappers' per-call
checks (a numpy without those gufuncs runs the wrappers).
The flag geometry of a block structure (mask, in-block indices, ds weight
indices) is one read-only plan, built on first use and cached, and a
MarginalSpec computes sqrt(p), sqrt(q), its ds weights and its
normalized copy once, so solver steps and solves do not rebuild them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import NotInvertible, NotPositiveDefinite

try:  # private to numpy; absent, the public wrappers run instead
    from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo, inv as _inv
except ImportError:
    _cholesky_lo = _inv = None

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
    out = X.astype(np.result_type(X, 0.5))
    out += out.conj().T
    for part in (out.real, out.imag) if out.dtype.kind == "c" else (out,):
        part *= 0.5  # a real halving keeps inf; a complex one gives inf + nan j
    return out


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
        A map from build_matrix_cpmap is a CPMap held as its weight
        matrix; its T.kraus is the same read-only stack, formed on the
        first read.
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


class _WeightMap(CPMap):
    """A CPMap held as its weight matrix: build_matrix_cpmap's maps.

    Kraus operator k has the one nonzero root[i, j], k = ops[l] for the
    l-th nonzero (i, j) of root in row-major order, and r operators in
    all; cells of root without an operator are zero.  weights is the
    weight matrix W = root^2: each cell has at most one operator, so
    sum_k |K_k,ij|^2 over the stack is that one square.  m, n and r never
    form the stack; kraus forms it once, when read, with the values a
    dense CPMap of the same map holds.
    """

    def __init__(self, root, ops, r):
        self.root, self.ops, self.weights = _readonly(
            np.asarray(root, dtype=np.float64), np.asarray(ops, dtype=np.intp),
            np.square(root, dtype=np.float64))
        self._r = int(r)

    m = property(lambda self: self.root.shape[0], doc=CPMap.m.__doc__)
    n = property(lambda self: self.root.shape[1], doc=CPMap.n.__doc__)
    r = property(lambda self: self._r, doc=CPMap.r.__doc__)

    @functools.cached_property
    def kraus(self):
        rows, cols = np.nonzero(self.root)
        K = np.zeros((self.r, self.m, self.n), dtype=np.complex128)
        K[self.ops, rows, cols] = self.root[rows, cols]
        K.setflags(write=False)
        return K

    def restricted(self, row_mask, col_mask):
        """The map on the masked rows and columns, with all r operators."""
        rows, cols = np.nonzero(self.root)
        keep = row_mask[rows] & col_mask[cols]
        return _WeightMap(self.root[np.ix_(row_mask, col_mask)],
                          self.ops[keep], self.r)

    def congruence_weights(self, g, h):
        """The weight matrix of g^dag T h for diagonal g and h, given as
        vectors: |z|^2 for z = (conj(g_i) root_ij) h_j.

        Each complex product is written out in unfused real arithmetic,
        the rounding a BLAS zgemm applies to the one nonzero term of a
        cell in its main kernel; numpy's complex multiply may fuse it
        into an FMA instead.  Kernel edge lanes may round by an ulp
        differently, so W matches the squared moduli of the dense product
        g^dag K h, summed over operators, to roundoff, and often bit for
        bit.
        """
        xr, xi = g.real[:, None] * self.root, -g.imag[:, None] * self.root
        zr, zi = xr * h.real - xi * h.imag, xr * h.imag + xi * h.real
        return zr ** 2 + zi ** 2


@functools.lru_cache(maxsize=256)
def _checked_sizes(blocks, total):
    """_check_blocks of balance_factor's block sizes, once per tuple."""
    return _check_blocks(blocks, total, "block_sizes")


@functools.lru_cache(maxsize=256)
def _block_slices(blocks):
    """The slices of the blocks of a block tuple, computed once per tuple."""
    stops = np.cumsum(blocks)
    starts = stops - np.asarray(blocks)
    return tuple(slice(int(a), int(b)) for a, b in zip(starts, stops))


def _nonincreasing_within(a, blocks):
    """Whether a is nonincreasing within each block, up to 1e-12 max(1, block max).

    One pass over all blocks: every rise a[i+1] - a[i] inside a block is
    compared with the tolerance of that block.  1 x 1 blocks hold none.
    """
    if len(blocks) == a.size:
        return True
    starts = np.cumsum(blocks) - np.asarray(blocks)
    tol = 1e-12 * np.maximum(1.0, np.maximum.reduceat(a, starts))
    rises = np.diff(a) > np.repeat(tol, blocks)[:-1]
    rises[starts[1:] - 1] = False  # the pairs that straddle two blocks
    return not rises.any()


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


def _readonly(*arrays):
    """The arrays, made read-only, as a tuple."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=256)
def _block_plan(blocks):
    """The read-only _BlockPlan of a checked block tuple, built once."""
    d = sum(blocks)
    ids = np.repeat(np.arange(len(blocks)), blocks)
    mask = ids[:, None] == ids[None, :]
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, d)
    return _BlockPlan(*_readonly(mask, flat, (rows == cols).astype(np.float64),
                                 np.maximum(rows, cols)))


@functools.lru_cache(maxsize=64)
def _identity(d):
    eye = np.eye(d, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


@functools.lru_cache(maxsize=64)
def _unit(d):  # the read-only all-ones vector of length d, one per d
    return _readonly(np.ones(d))[0]


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
            if not _nonincreasing_within(a, blocks):
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

    @functools.cached_property
    def _roots(self):
        """(sqrt(p), sqrt(q)), the weights of the marginals' Gram factors."""
        return _readonly(np.sqrt(self.p), np.sqrt(self.q))

    @functools.cached_property
    def _ds_weights(self):
        """The ds weights a_max(i, j) of the in-block entries (i, j) of the
        input side (a = p) and of the output side (a = q), in the order of
        _block_plan(blocks).flat."""
        return _readonly(self.p[_block_plan(self.p_blocks).amax],
                         self.q[_block_plan(self.q_blocks).amax])

    def p_slices(self):
        return _block_slices(self.p_blocks)

    def q_slices(self):
        return _block_slices(self.q_blocks)

    def normalized(self):
        """Rescale so both spectra sum to 1; returns (spec, original sum)."""
        return self._normalized  # computed once: the spec is immutable

    @functools.cached_property
    def _normalized(self):
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
            if not _singular_range(M)[1] > 0:
                raise NotInvertible(f"{name} is numerically singular")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @classmethod
    def _of_diagonals(cls, g, h):
        """ScalingPair(np.diag(g), np.diag(h)), its checks run on g and h."""
        for name, v in (("g", g), ("h", h)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} contains non-finite entries")
        pair = object.__new__(cls)
        for name, v in (("g", g), ("h", h)):
            if not np.abs(v).min() > 0:
                raise NotInvertible(f"{name} is numerically singular")
            object.__setattr__(pair, name, _readonly(
                np.diag(v.astype(np.complex128, copy=False)))[0])
        return pair


def _is_diagonal(X):
    """Whether the square matrix X is zero off its diagonal."""
    return np.count_nonzero(X) == np.count_nonzero(np.diagonal(X))


def _singular_range(X):
    """(largest, smallest) singular value of square X.

    A diagonal X, or a 1-d X standing for the diagonal matrix it is the
    diagonal of, has them read off |diag| instead of an SVD.
    """
    if X.ndim == 1 or _is_diagonal(X):
        d = np.abs(X if X.ndim == 1 else np.diagonal(X))
        return d.max(), d.min()
    sv = np.linalg.svd(X, compute_uv=False)
    return sv[0], sv[-1]


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


def _halved_hermitian(X):
    """hermitian_part of X, formed in X (a fresh array).

    One complex * 0.5, cheaper here than hermitian_part's two real ones,
    gives its values on finite entries, up to the sign of a zero part.
    """
    X += X.conj().T
    X *= 0.5
    return X


def _output_marginal(K, root):
    """T(diag p) = B B^dag for the (r, m, n) Kraus stack K, one GEMM;
    root is sqrt(p)."""
    r, m, n = K.shape
    B = (K * root).transpose(1, 0, 2).reshape(m, r * n)
    return _halved_hermitian(B @ B.conj().T)


def _input_marginal(K, root):
    """T*(diag q) = V^dag V for the (r, m, n) Kraus stack K, one GEMM;
    root is sqrt(q)."""
    V = (root[:, None] * K).reshape(-1, K.shape[2])
    return _halved_hermitian(V.conj().T @ V)


def _check_shapes(T, M):
    if T.m != M.m or T.n != M.n:
        raise ValueError(
            f"map is {T.m} x {T.n} but spec asks for {M.m} x {M.n}"
        )


def marginals(T, M):
    """Return the pair (T(P), T*(Q)) for P = diag(p), Q = diag(q)."""
    _check_shapes(T, M)
    root_p, root_q = M._roots
    return _output_marginal(T.kraus, root_p), _input_marginal(T.kraus, root_q)


def singular_floor(S):
    """Positive-definiteness cutoff: 1e-12 * trace(S) / dim."""
    S = np.asarray(S)
    return 1e-12 * float(S.trace().real) / S.shape[0]


def _block_diagonal(X, blocks):
    """X with the entries outside its diagonal blocks zeroed; X for one block."""
    return X if len(blocks) == 1 else np.where(_block_plan(blocks).mask, X, 0.0)


@np.errstate(all="ignore")
def _cholesky(X):
    """Lower Cholesky factor of Hermitian X, or None.

    Reads the lower triangle of X only.  None when the factorization
    fails, i.e. X is not numerically positive definite (the gufunc then
    returns NaN), or when the factor is not finite (LAPACK itself lets
    NaN through).  The factor has the bits np.linalg.cholesky gives,
    without its wrapper cost; its diagonal is real and at most
    sqrt(max X_ii), so its sum is finite exactly when every entry is.
    """
    try:
        L = (np.linalg.cholesky(X) if _cholesky_lo is None
             else _cholesky_lo(X, signature="D->D"))
    except np.linalg.LinAlgError:  # the wrapper's verdict: not PD
        return None
    return L if math.isfinite(L.diagonal().real.sum()) else None


@np.errstate(all="ignore")
def _upper_inverse(U):
    """U^{-1} for upper-triangular U with a positive finite diagonal.

    The LU inverse np.linalg.inv wraps, without its wrapper cost: the
    column below each pivot is exactly zero, so it never pivots and the
    inverse keeps U's exact zeros.
    """
    return np.linalg.inv(U) if _inv is None else _inv(U, signature="D->D")


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
        failure inside the roundoff band of the factorization.  With one
        block, a factor g with 1/||g||_F^2 > 2 floor passes S without
        that factorization: 1/||g||_F^2 is a lower bound on lambda_min(S).
    """
    S = _halved_hermitian(np.array(S, dtype=np.complex128))
    d = S.shape[0]
    blocks = (d,) if block_sizes is None else _checked_sizes(
        tuple(block_sizes), d)
    L = _cholesky(_block_diagonal(S, blocks))
    if L is not None:
        g = _upper_inverse(L.conj().T)
        # For one block lambda_min(S) >= 1/||g||_2^2 >= 1/||g||_F^2 up to
        # the roundoff of L, so 1/||g||_F^2 > 2 floor decides as the test
        # of S - floor I would, without that factorization.
        if len(blocks) == 1:
            v = g.ravel().view(np.float64)
            if 2.0 * singular_floor(S) * float(v @ v) < 1.0:
                return g
        if _above_floor(S):
            return g
    raise NotPositiveDefinite(_min_eigenvalue(S))


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
