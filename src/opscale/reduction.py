"""Partition gadget and the reduction to uniform marginals.

For an integer partition lam with conjugate lam', the gadget map sends

    G_lam(X) = directsum_i  X[:lam'_i, :lam'_i],

a CP map from k x k matrices (k >= number of parts) to N x N matrices,
N = |lam|.  Its key properties: G_lam(I) = I_N, the adjoint satisfies
G_lam^*(I_N) = diag(lam), it multiplies over upper-triangular factors,
and det G_lam(X) equals the relative determinant of X with weights lam.

Composing on both sides truncates a CP map with rational spectra (P, Q)
to one whose target marginals are uniform:

    trun T = G_q o T o G_p^*        (spectra scaled to integers first).

Every Kraus operator of the truncation is a single corner of an original
Kraus operator placed in one (row-block, column-block) position, so the
construction below materializes them densely; cheap for the small
denominators this reduction is meant for (<= 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .cpmap import CPMap, MarginalSpec, _block_slices
from .exceptions import AllZeroSpectrum, NonIntegralSpectrum

__all__ = [
    "Partition",
    "conjugate_partition",
    "gadget_apply",
    "gadget_dual_apply",
    "build_truncation",
]


def conjugate_partition(parts):
    """Conjugate lam'_i = #{j : lam_j >= i}, i = 1..max(lam)."""
    parts = tuple(int(x) for x in parts)
    if not parts:
        return ()
    top = max(parts)
    return tuple(sum(1 for x in parts if x >= i) for i in range(1, top + 1))


@dataclass(frozen=True)
class Partition:
    """Nonincreasing tuple of positive integers."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        if not parts:
            raise AllZeroSpectrum("partition has no parts")
        if any(x <= 0 for x in parts):
            raise ValueError("partition parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("partition parts must be nonincreasing")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_vector(cls, v):
        """Build from a nonnegative integer vector, dropping zeros."""
        kept = tuple(int(x) for x in v if x > 0)
        if not kept:
            raise AllZeroSpectrum("all spectrum entries are zero")
        return cls(kept)

    @property
    def total(self):
        return sum(self.parts)

    @property
    def k(self):
        return len(self.parts)

    def conjugate(self):
        return Partition(conjugate_partition(self.parts))


def gadget_apply(lam, X):
    """G_lam(X): direct sum of the leading lam'_i corners of X."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    conj = lam.conjugate().parts
    X = np.asarray(X, dtype=np.complex128)
    if X.shape[0] < conj[0] or X.shape[0] != X.shape[1]:
        raise ValueError(f"X must be square of dimension >= {conj[0]}")
    N = lam.total
    out = np.zeros((N, N), dtype=np.complex128)
    for c, s in zip(conj, _block_slices(conj)):
        out[s, s] = X[:c, :c]
    return out


def gadget_dual_apply(lam, Y, dim=None):
    """G_lam^*(Y): sum of the diagonal blocks of Y re-embedded as corners."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    conj = lam.conjugate().parts
    N = lam.total
    Y = np.asarray(Y, dtype=np.complex128)
    if Y.shape != (N, N):
        raise ValueError(f"Y must be {N} x {N}")
    dim = conj[0] if dim is None else int(dim)
    if dim < conj[0]:
        raise ValueError(f"output dimension must be >= {conj[0]}")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for c, s in zip(conj, _block_slices(conj)):
        out[:c, :c] += Y[s, s]
    return out


def _integral_spectrum(v):
    fracs = []
    for x in v:
        f = Fraction(float(x)).limit_denominator(64)
        if abs(f - float(x)) > 1e-9:
            raise NonIntegralSpectrum(
                f"spectrum entry {x!r} is not rational with denominator "
                "<= 64 (within 1e-09)"
            )
        fracs.append(f)
    return fracs


def build_truncation(T, M):
    """Truncate to uniform marginals: (trun T, all-ones spec).

    Spectra are snapped to fractions with denominator <= 64
    (NonIntegralSpectrum beyond 1e-9), scaled by the common denominator
    to integer partitions lam_p, lam_q, and the composite
    G_{lam_q} o T o G_{lam_p}^* is written into one preallocated Kraus
    stack: operator (i, j, k) carries the lam_q'_j x lam_p'_k corner of
    A_i in row block j, column block k.  The returned spec asks for identity marginals on
    both sides, and the uniform ds distance of the truncated map equals
    the ds distance of T under the integer spectra (lam_p, lam_q); for
    already-integral input that is ds under (p, q) itself.
    """
    fp = _integral_spectrum(M.p)
    fq = _integral_spectrum(M.q)
    scale = lcm(*(f.denominator for f in fp + fq))
    lam_p = Partition.from_vector([f * scale for f in fp])
    lam_q = Partition.from_vector([f * scale for f in fq])
    conj_p = lam_p.conjugate().parts
    conj_q = lam_q.conjugate().parts
    Np, Nq = lam_p.total, lam_q.total
    K = np.zeros((T.r, len(conj_q), len(conj_p), Nq, Np), dtype=np.complex128)
    for j, (cj, rows) in enumerate(zip(conj_q, _block_slices(conj_q))):
        for k, (ck, cols) in enumerate(zip(conj_p, _block_slices(conj_p))):
            K[:, j, k, rows, cols] = T.kraus[:, :cj, :ck]
    return CPMap(K.reshape(-1, Nq, Np)), MarginalSpec(np.ones(Np), np.ones(Nq))
