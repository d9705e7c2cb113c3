"""Classical scaling problems phrased as operator-scaling instances.

Three problem families reduce to scaling a structured CP map to diagonal
marginals, with the block structure of the marginal spec chosen so that
the solver's balance factors respect the problem's symmetry:

* matrix scaling — T built from the entries of a nonnegative matrix has
  exactly diagonal marginals, size-1 blocks make the balance factors
  diagonal, and the scaled matrix diag(X) A diag(Y) with prescribed
  row/column sums is read off the moduli of the diagonal factors;

* Horn triples — s isometry slots share one output space; with block
  sizes (m, ..., m | m) the scaled map yields Hermitian matrices H_i
  with prescribed spectra summing to the identity, and an affine
  normalization turns "A + B = C with given spectra" into that form;

* Forster / Schur-Horn — one Kraus column per point vector makes the
  dual marginal exactly diagonal; scaling puts the weighted points in
  radial isotropic position (sum p_i w_i w_i^dag = Q), and a frame
  V = [sqrt(p_i) w_i] gives V^dag V with exact diagonal p and spectrum
  approximately q, solving the Schur-Horn inverse problem.

Each solver raises ScalingFailure when the underlying scaling run does
not reach SUCCESS; the solution or the failure carries the operator
instance (cpmap, spec) that was solved.  InfeasibleInstance is raised
when a priori certificates (pattern conditions, trace identities,
majorization) already rule the instance out.  Schur-Horn feasibility is
majorization alone, at any size.  The combinatorial feasibility tests
(rc_feasible, polymatroid_membership) enumerate subsets and are intended
for small instances; they refuse to run past 20 index positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cpmap import CPMap, MarginalSpec, _WeightMap, hermitian_part
from .exceptions import (
    AllZeroSpectrum,
    DimensionTooLarge,
    InfeasibleInstance,
    ScalingFailure,
)
from .scaler import SolverConfig, general_scale

__all__ = [
    "MatrixScalingInstance",
    "MatrixScalingSolution",
    "build_matrix_cpmap",
    "rc_feasible",
    "matrix_scale",
    "HornInstance",
    "HornSolution",
    "HornNormalization",
    "build_horn_cpmap",
    "horn_normalize",
    "horn_solve",
    "ForsterInstance",
    "ForsterSolution",
    "build_forster_cpmap",
    "polymatroid_membership",
    "forster_scale",
    "SchurHornSolution",
    "schur_horn",
]


def _finite(a, name, dtype=np.float64):
    a = np.asarray(a, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _nonempty_vector(v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    return v


def _positive_vector(v, name):
    v = _nonempty_vector(_finite(v, name), name)
    if np.any(v <= 0):
        raise ValueError(f"{name} must be strictly positive")
    return v


def _run(T, M, epsilon, scale, seed, max_iterations):
    # The randomized solver, not the plain triangular one: the structured
    # maps built here are exactly the kind of symmetric instance on which a
    # deterministic identity start can stall on a measure-zero orbit (e.g.
    # equal Horn spectra keep every h-block identical forever, pinning ds at
    # a positive floor while the factors blow up).  A generic block
    # initialization breaks the tie almost surely.  The caller's epsilon is
    # checked, then divided by scale >= 1 and floored if that underflowed.
    config = replace(SolverConfig(epsilon, max_iterations, seed),
                     epsilon=epsilon / scale or math.ulp(0.0))
    result = general_scale(T, M, config)
    if not result.success:
        raise ScalingFailure(result.status, result, cpmap=T, spec=M)
    return result


# ---------------------------------------------------------------------------
# Matrix scaling


@dataclass(frozen=True, eq=False)
class MatrixScalingInstance:
    """Nonnegative matrix with prescribed positive row and column sums."""

    matrix: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray

    def __init__(self, matrix, row_sums, col_sums):
        matrix = _finite(matrix, "matrix")
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError("matrix must be a nonempty 2-d array")
        if np.any(matrix < 0):
            raise ValueError("matrix entries must be nonnegative")
        row_sums = _positive_vector(row_sums, "row_sums")
        col_sums = _positive_vector(col_sums, "col_sums")
        if matrix.shape != (row_sums.size, col_sums.size):
            raise ValueError("matrix shape must match the sum vectors")
        for arr in (matrix, row_sums, col_sums):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "row_sums", row_sums)
        object.__setattr__(self, "col_sums", col_sums)


@dataclass(frozen=True, eq=False)
class MatrixScalingSolution:
    """diag(row_scale) @ matrix @ diag(col_scale) has the requested sums."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    scaled_matrix: np.ndarray
    result: object
    cpmap: CPMap
    spec: MarginalSpec


def build_matrix_cpmap(A):
    """CP map with one rank-one Kraus operator per positive entry of A.

    T(X) = sum_ij A_ij X_jj e_ii, so both marginals of any scaling of T
    by diagonal factors are exactly diagonal.  The entries of A must be
    finite and nonnegative.  The map is held as its weight matrix, with
    entries sqrt(A_ij)^2; its Kraus operators, sqrt(A_ij) e_i e_j^T in
    row-major order of the positive entries, are formed only when
    T.kraus is read.
    """
    A = _finite(A, "matrix")
    if (A < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    positive = A > 0
    rows, _ = np.nonzero(positive)
    if not rows.size:
        raise ValueError("matrix has no positive entries")
    root = np.sqrt(A, out=np.zeros(A.shape), where=positive)
    return _WeightMap(root, np.arange(rows.size), rows.size)


def rc_feasible(instance):
    """Exact (r, c)-scalability of the zero pattern of an instance.

    Checks trace equality and, for every row subset L, that the target
    mass of L fits inside the columns its positive entries reach:
    sum_L r <= sum over columns j with A[L, j] not identically 0 of c_j.
    Enumerates the 2^m row subsets; limited to m <= 20.
    """
    A = instance.matrix
    r = instance.row_sums
    c = instance.col_sums
    m = r.size
    if m > 20:
        raise DimensionTooLarge("rc_feasible enumerates 2^m row subsets")
    tol = 1e-12 * max(1.0, float(r.sum()))
    if abs(r.sum() - c.sum()) > tol:
        return False
    pos = A > 0
    for mask in range(1, 2**m):
        rows = [i for i in range(m) if mask >> i & 1]
        covered = pos[rows].any(axis=0)
        if r[rows].sum() > c[covered].sum() + tol:
            return False
    return True


def matrix_scale(instance, epsilon, seed=0, max_iterations=None):
    """Scale a nonnegative matrix to prescribed row and column sums.

    Solves the operator instance with spectra (c, r) and size-1 blocks;
    the balance factors are then diagonal and the scaled matrix is
    B_ij = X_i A_ij Y_j with X_i = |g_ii|^2 r_i, Y_j = |h_jj|^2 c_j.
    Row and column sums of B land within epsilon of r and c (the
    internal accuracy divides out the largest target).
    """
    A, r, c = instance.matrix, instance.row_sums, instance.col_sums
    T = build_matrix_cpmap(A)
    M = MarginalSpec(c, r, (1,) * c.size, (1,) * r.size)
    result = _run(T, M, epsilon, max(1.0, float(r.max()), float(c.max())),
                  seed, max_iterations)
    X = np.abs(np.diag(result.pair.g)) ** 2 * r
    Y = np.abs(np.diag(result.pair.h)) ** 2 * c
    B = X[:, None] * A * Y[None, :]
    return MatrixScalingSolution(row_scale=X, col_scale=Y, scaled_matrix=B,
                                 result=result, cpmap=T, spec=M)


# ---------------------------------------------------------------------------
# Horn triples


@dataclass(frozen=True, eq=False)
class HornInstance:
    """Target spectra p(1), ..., p(s) for Hermitian H_i with sum I_m."""

    spectra: tuple

    def __init__(self, spectra):
        spectra = tuple(_finite(v, "spectra") for v in spectra)
        if not spectra:
            raise ValueError("need at least one spectrum")
        m = spectra[0].size
        if m == 0:
            raise ValueError("spectra must be nonempty")
        for v in spectra:
            if v.ndim != 1 or v.size != m:
                raise ValueError("all spectra must share one length")
            if np.any(v <= 0):
                raise ValueError("spectra must be strictly positive")
            v.setflags(write=False)
        object.__setattr__(self, "spectra", spectra)

    @property
    def m(self):
        return self.spectra[0].size

    @property
    def s(self):
        return len(self.spectra)


@dataclass(frozen=True, eq=False)
class HornSolution:
    """Hermitian matrices with the requested spectra summing to I_m."""

    matrices: tuple
    result: object
    cpmap: CPMap
    spec: MarginalSpec


@dataclass(frozen=True, eq=False)
class HornNormalization:
    """Affine change from 'A + B = C' data to a normalized Horn instance.

    With shifts (u, v, w) and scale c = u + v + w, the spectra
    (alpha + u)/c, (beta + v)/c, (w - reversed gamma)/c lie in (0, 1]
    and sum to an identity instance; invert() maps solution matrices
    back to (A, B, C) with A + B ~= C.
    """

    instance: HornInstance
    shifts: tuple
    scale: float

    def invert(self, matrices):
        H1, H2, H3 = matrices
        u, v, w = self.shifts
        c = self.scale
        m = H1.shape[0]
        eye = np.eye(m)
        return (c * H1 - u * eye, c * H2 - v * eye, w * eye - c * H3)


def build_horn_cpmap(m, s):
    """Kraus operators [0 | I_m | 0]: slot i of C^{ms} summed into C^m."""
    return CPMap(np.eye(m * s).reshape(s, m, m * s))


def horn_solve(instance, epsilon, seed=0, max_iterations=None):
    """Construct Hermitian H_1..H_s with spectra p(i) and sum I_m.

    The operator instance uses spectra (p(1) ++ ... ++ p(s), ones(m))
    with block sizes (m, ..., m | m), so h stays block-diagonal with one
    block h(i) per slot.  From a successful pair,
    H_i = B_i B_i^dag with B_i = g^dag h(i) diag(p(i))^{1/2}: their sum
    is the primal marginal (close to I) and each H_i is similar to
    diag(p(i))^{1/2} (h(i)^dag g g^dag h(i)) diag(p(i))^{1/2} whose
    middle factor is a block of the dual marginal (close to I), so the
    spectra deviate from p(i) by at most max(1, p_max) times the
    marginal error — hence the internal accuracy epsilon / (2 max(1, p_max)).
    """
    m, s = instance.m, instance.s
    T = build_horn_cpmap(m, s)
    M = MarginalSpec(
        np.concatenate(instance.spectra),
        np.ones(m),
        (m,) * s,
        (m,),
    )
    p_max = max(float(v.max()) for v in instance.spectra)
    result = _run(T, M, epsilon, 2.0 * max(1.0, p_max), seed, max_iterations)
    g, h = result.pair.g, result.pair.h
    matrices = []
    for blk, v in zip(M.p_slices(), instance.spectra):
        Bi = g.conj().T @ h[blk, blk] @ np.diag(np.sqrt(v))
        matrices.append(hermitian_part(Bi @ Bi.conj().T))
    return HornSolution(matrices=tuple(matrices), result=result, cpmap=T, spec=M)


# Overflow is handled, not warned about: it raises the ValueError below.
@np.errstate(over="ignore", invalid="ignore")
def horn_normalize(alpha, beta, gamma):
    """Normalize spectral data of 'A + B = C' to a Horn instance.

    Requires the trace identity sum alpha + sum beta = sum gamma
    (InfeasibleInstance otherwise).  Shifts each spectrum positive,
    flips gamma (C enters as w I - C), and doubles the shifts until all
    normalized entries lie in (0, 1] (past 1e16 a +1 shift rounds away).
    Raises ValueError when the data are not nonempty vectors, or when
    they, their total, the shifts or the normalized spectra are not finite.
    """
    alpha, beta, gamma = (-np.sort(-_nonempty_vector(v, name)) for v, name in
                          ((alpha, "alpha"), (beta, "beta"), (gamma, "gamma")))
    total = float(np.abs(alpha).sum() + np.abs(beta).sum() + np.abs(gamma).sum())
    if not math.isfinite(total):
        raise ValueError("Horn spectra and their total must be finite")
    scale = max(1.0, total)
    gap = float(alpha.sum() + beta.sum() - gamma.sum())
    if abs(gap) > 1e-9 * scale:
        raise InfeasibleInstance(
            f"trace identity fails: sum alpha + sum beta - sum gamma = {gap:.3e}"
        )
    u = max(0.0, -float(alpha[-1])) + 1.0
    v = max(0.0, -float(beta[-1])) + 1.0
    w = max(0.0, float(gamma[0])) + 1.0
    while True:
        c = u + v + w
        spectra = ((alpha + u) / c, (beta + v) / c, (w - gamma[::-1]) / c)
        if not (math.isfinite(c) and all(np.isfinite(p).all() for p in spectra)):
            raise ValueError("Horn spectra overflow when shifted and normalized")
        if all(0.0 < float(p.min()) and float(p.max()) <= 1.0 for p in spectra):
            break
        u, v, w = 2 * u, 2 * v, 2 * w
    return HornNormalization(instance=HornInstance(spectra),
                             shifts=(u, v, w), scale=c)


# ---------------------------------------------------------------------------
# Forster scaling and Schur-Horn


@dataclass(frozen=True, eq=False)
class ForsterInstance:
    """Point vectors (columns), nonnegative weights, target spectrum.

    Seeks a transform putting the weighted points in radial isotropic
    position: sum_i p_i w_i w_i^dag = diag(q) with unit vectors w_i.
    The spectrum q must be nonincreasing.
    """

    vectors: np.ndarray
    weights: np.ndarray
    spectrum: np.ndarray

    def __init__(self, vectors, weights, spectrum):
        vectors = _finite(vectors, "vectors", np.complex128)
        if vectors.ndim != 2 or vectors.size == 0:
            raise ValueError("vectors must be a nonempty m x n array")
        # A zero test, not a norm: squaring entries past ~1e154 overflows.
        if not np.all(np.any(vectors != 0, axis=0)):
            raise ValueError("zero vectors cannot be scaled")
        weights = _finite(weights, "weights")
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if np.any(weights < 0) or not np.any(weights > 0):
            raise ValueError("weights must be nonnegative, not all zero")
        spectrum = _positive_vector(spectrum, "spectrum")
        if np.any(np.diff(spectrum) > 0):
            raise ValueError("spectrum must be nonincreasing")
        if weights.size != vectors.shape[1] or spectrum.size != vectors.shape[0]:
            raise ValueError("weights/spectrum sizes must match the vectors")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def m(self):
        return self.vectors.shape[0]

    @property
    def n(self):
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class ForsterSolution:
    """transform B and unit columns w_i = B u_i / |B u_i|."""

    transform: np.ndarray
    vectors: np.ndarray
    result: object
    cpmap: CPMap
    spec: MarginalSpec


def build_forster_cpmap(U):
    """One Kraus operator per point: A_i carries u_i in column i.

    The dual marginal T*(Y) = diag(u_i^dag Y u_i) is exactly diagonal,
    so size-1 input blocks make the ds corners exact.
    """
    U = np.asarray(U, dtype=np.complex128)
    m, n = U.shape
    K = np.zeros((n, m, n), dtype=np.complex128)
    K[np.arange(n), :, np.arange(n)] = U.T
    return CPMap(K)


def polymatroid_membership(instance):
    """Feasibility of weighted radial isotropic position for an instance.

    Requires sum p = sum q and, for every subset J of points, that its
    weight fits under the top entries of q up to the rank the subset
    spans: sum_J p <= sum_{i <= rank U[:, J]} q_i (q nonincreasing, rank
    cut at 1e-9 max(1, sigma_1)).  Enumerates 2^n subsets; n <= 20.
    """
    U = instance.vectors
    p = instance.weights
    q = -np.sort(-instance.spectrum)
    n = p.size
    if n > 20:
        raise DimensionTooLarge("polymatroid check enumerates 2^n subsets")
    tol = 1e-12 * max(1.0, float(p.sum()))
    if abs(p.sum() - q.sum()) > tol:
        return False
    qcum = np.concatenate([[0.0], np.cumsum(q)])
    for mask in range(1, 2**n):
        cols = [j for j in range(n) if mask >> j & 1]
        sv = np.linalg.svd(U[:, cols], compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * max(1.0, float(sv[0]))))
        if p[cols].sum() > qcum[min(rank, q.size)] + tol:
            return False
    return True


def forster_scale(instance, epsilon, seed=0, max_iterations=None):
    """Put weighted points in radial isotropic position with spectrum q.

    Solves the operator instance with spectra (p, q), size-1 input
    blocks; from a successful pair, B = diag(q)^{1/2} g^dag and
    w_i = B u_i / |B u_i|.  At an exact scaling sum p_i w_i w_i^dag
    equals diag(q) exactly; the internal accuracy
    epsilon / (2 (q_max + sqrt(n) p_max + 1)) keeps the approximate
    version within epsilon in Frobenius norm.
    """
    U, p, q = instance.vectors, instance.weights, instance.spectrum
    m, n = instance.m, instance.n
    T = build_forster_cpmap(U)
    M = MarginalSpec(p, q, (1,) * n, (m,))
    scale = 2.0 * (float(q.max()) + math.sqrt(n) * float(p.max()) + 1.0)
    result = _run(T, M, epsilon, scale, seed, max_iterations)
    B = np.diag(np.sqrt(q).astype(np.complex128)) @ result.pair.g.conj().T
    W = B @ U
    W = W / np.linalg.norm(W, axis=0)
    return ForsterSolution(transform=B, vectors=W, result=result, cpmap=T, spec=M)


@dataclass(frozen=True, eq=False)
class SchurHornSolution:
    """Hermitian matrix with prescribed diagonal and spectrum."""

    matrix: np.ndarray
    result: object


def _majorizes(q_padded, p, tol):
    """sum of k largest of q_padded >= same for p, equality at the end."""
    ps = -np.sort(-p)
    qs = -np.sort(-q_padded)
    cp, cq = np.cumsum(ps), np.cumsum(qs)
    if abs(cp[-1] - cq[-1]) > tol:
        return False
    return bool(np.all(cp <= cq + tol))


def schur_horn(diagonal, spectrum, epsilon, seed=0, max_iterations=None):
    """Hermitian matrix with diagonal p and spectrum within epsilon of q.

    Feasibility is exactly majorization of p by q (padded with zeros),
    checked up front at the trace tolerance forster_scale applies.  For
    a generic frame that is also the scaling certificate: a subset of k
    Gaussian points spans rank min(k, len q), so polymatroid_membership
    reduces to the same partial sums.  Construction: draw Gaussian point
    vectors once from `seed`, bring them to radial isotropic position,
    and assemble the frame V = [sqrt(p_i) w_i]; H = V^dag V then has
    diagonal exactly p (the w_i are unit) and its nonzero spectrum is
    that of sum p_i w_i w_i^dag ~= diag(q).  A degenerate draw
    (probability zero) surfaces as ScalingFailure.  Raises ValueError when
    the data are not nonempty nonnegative vectors, or when they or their
    totals are not finite.
    """
    p = _finite(diagonal, "diagonal")
    q = _finite(spectrum, "spectrum")
    if p.ndim != 1 or q.ndim != 1 or p.size == 0 or q.size == 0:
        raise ValueError("diagonal and spectrum must be nonempty vectors")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("diagonal and spectrum must be nonnegative")
    # An overflowing total would make the trace tolerance inf (Python float
    # sums overflow to inf without a warning).
    if not (math.isfinite(sum(p.tolist())) and math.isfinite(sum(q.tolist()))):
        raise ValueError("the totals of diagonal and spectrum must be finite")
    n = p.size
    q_pos = -np.sort(-q[q > 0])
    if q_pos.size > n:
        raise InfeasibleInstance(
            "more positive spectrum entries than matrix dimensions"
        )
    tol = 1e-12 * max(1.0, float(p.sum()))
    q_padded = np.concatenate([q_pos, np.zeros(n - q_pos.size)])
    if not _majorizes(q_padded, p, tol):
        raise InfeasibleInstance(
            "spectrum does not majorize the diagonal; no such Hermitian "
            "matrix exists"
        )
    pos = p > 0
    p_pos = p[pos]
    mdim = q_pos.size
    if not (p_pos.size and mdim):
        raise AllZeroSpectrum(
            "the diagonal and the spectrum must each have a positive entry"
        )
    rng = np.random.default_rng(seed)
    U = (rng.standard_normal((mdim, p_pos.size))
         + 1j * rng.standard_normal((mdim, p_pos.size)))
    sol = forster_scale(
        ForsterInstance(U, p_pos, q_pos), epsilon,
        seed=seed, max_iterations=max_iterations,
    )
    V = np.zeros((mdim, n), dtype=np.complex128)
    V[:, pos] = sol.vectors * np.sqrt(p_pos)[None, :]
    H = hermitian_part(V.conj().T @ V)
    return SchurHornSolution(matrix=H, result=sol.result)
