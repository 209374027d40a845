"""Dense complex-matrix substrate: factors, pseudoinverse, projectors, residuals.

Every matrix in this package is a 2-D ``numpy.ndarray`` of ``complex128``.
All operations here are pure functions of their inputs; nothing is mutated,
so values can be shared freely across threads.

Every finite matrix has closed range, so range-based constructions below
need no topological hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NumericError, PreconditionError

__all__ = [
    "DEFAULT_TOL",
    "Factor",
    "adj",
    "as_cmat",
    "factor",
    "pinv",
    "projectors",
    "meet_projector",
    "rel_residual",
    "hermitian_defect",
    "idempotent_defect",
]


@dataclass(frozen=True)
class Tol:
    """The package's one tolerance policy, used by every approximate predicate.

    rank_rtol: relative singular-value cutoff (scaled by sigma_max * max(m, n)).
    res_rtol:  relative residual threshold for all "holds approximately" tests.
    """

    rank_rtol: float = 1e-12
    res_rtol: float = 1e-8

    def holds(self, *residuals: float) -> bool:
        """The one acceptance test: every residual is at most res_rtol (a tie
        holds, a NaN fails)."""
        return all(r <= self.res_rtol for r in residuals)

    def require(self, what: str, *residuals: float) -> None:
        """Raise PreconditionError unless the residuals hold; ``what`` is "<op> requires <x>"."""
        if not self.holds(*residuals):
            worst = max(residuals)
            raise PreconditionError(f"{what}; residual {worst:.3e} (res_rtol {self.res_rtol:g})")


DEFAULT_TOL = Tol()


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def as_cmat(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 matrix, rejecting non-finite entries;
    a Factor gives back the matrix it validated."""
    if isinstance(a, Factor):
        return a.m
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise PreconditionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise PreconditionError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise PreconditionError("matrix entries must be finite (no NaN/Inf)")
    return m


@dataclass(frozen=True, eq=False)
class Factor:
    """One validated operand and its rank decision, made once.

    ``m == u @ diag(s) @ vh`` is the full SVD (s padded by zeros); the
    singular values above ``cutoff`` count toward ``rank``, and ``pinv``
    inverts exactly those.  The decision, rank hint included, stays with the
    operand wherever it is passed.
    """

    m: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int
    cutoff: float
    pinv: np.ndarray


def _cutoff(reference: float, shape: tuple[int, int]) -> float:
    """Singular values at or below ``rank_rtol * reference * max(m, n)`` count as zero."""
    return DEFAULT_TOL.rank_rtol * reference * max(shape)


def factor(a, *, scale: float | None = None) -> Factor:
    """Validate and factor ``a``; the one rank decision of the package.

    Singular values at or below ``rank_rtol * sigma_max * max(m, n)`` are
    treated as zero.  For derived matrices that may be pure rounding noise
    (differences, products with projectors), pass the norm of the parent
    data as ``scale``: the cutoff then uses ``max(sigma_max, scale)``, so a
    numerically-zero input inverts to zero instead of amplifying noise.

    A Factor is returned as it is, neither validated nor factored again, so
    it keeps the decision its own hint made; ``scale`` applies to arrays.
    """
    if isinstance(a, Factor):
        return a
    m = as_cmat(a)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    top = float(s[0]) if s.size else 0.0
    cutoff = _cutoff(max(top, scale) if scale is not None else top, m.shape)
    keep = s > cutoff
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    k = s.size
    ap = (adj(vh)[:, :k] * inv) @ adj(u[:, :k])
    return Factor(m, u, s, vh, int(np.count_nonzero(keep)), cutoff, ap)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse: ``factor(a).pinv``."""
    return factor(a).pinv


def projectors(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projectors onto range(a), range(a*), null(a*), null(a).

    Each is V V* for the singular vectors V spanning its space, so one onto a
    zero space is exactly zero; each is Hermitian idempotent within res_rtol.
    """
    f = factor(a)
    u, v = f.u[:, f.rank:], adj(f.vh)[:, f.rank:]
    return (*range_projectors(f), u @ adj(u), v @ adj(v))


def range_projectors(a) -> tuple[np.ndarray, np.ndarray]:
    """The first two of ``projectors(a)``: the inclusion criteria's pair."""
    f = factor(a)
    u, v = f.u[:, :f.rank], adj(f.vh)[:, :f.rank]
    return u @ adj(u), v @ adj(v)


def pinvs_below(fa: Factor, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a+, b+) on one rank decision for a validated b <=* a, whose singular
    values are a subset of a's (Hartwig & Drazin 1978): b+ = a+ b a+, unless a
    drops one that b keeps.  b's cutoff is at least rank_rtol |b|_F sqrt(n), so
    b is factored when it is nonzero and a's largest dropped value exceeds
    that; a+ then takes its part on range(b) from b+, so a+ - b+ stays d+."""
    ap = fa.pinv
    below = ap @ b @ ap
    if b.any() and fa.s[fa.rank:].max(initial=0.0) > _cutoff(_fro(b) / math.sqrt(len(b)), b.shape):
        bp = factor(b).pinv
        return ap + bp - below, bp
    return ap, below


def unit_scale(*mats: np.ndarray) -> float:
    """The power of two that brings the largest entry of ``mats`` into [0.5, 1)
    (at most 2**1023), or 1 when all are zero; scaling by it rounds nothing."""
    top = max(float(np.abs(m).max()) for m in mats)
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023))


def _fro(m) -> float:
    """Frobenius norm by one BLAS dot, without a warning; a sum of squares that
    overflows, or falls below 2**-900 where subnormal squares lose digits, is
    taken again on m scaled by its ``unit_scale``, as LAPACK's zlange scales."""
    ss = np.vdot(m, m).real
    if 2.0 ** -900 <= ss < math.inf or not np.any(m):
        return math.sqrt(ss)
    unit = unit_scale(m)
    return math.sqrt(np.vdot(m * unit, m * unit).real) / unit


def _quotient(num: float, den: float) -> float:
    """num / den for two norms: exactly 0 when num is, else NumericError beyond the double range."""
    if num == 0.0:
        return 0.0
    if not (num < math.inf and den < math.inf):
        raise NumericError(f"a product beyond the double range: norms {num:.3e} over {den:.3e}")
    return num / den if den else math.inf


def rel_residual(e, ref) -> float:
    """``||e||_F / ||ref||_F``, for a residual that is not one side of an
    equation minus the other; ``ref`` must be on the operands' own scale."""
    return _quotient(_fro(as_cmat(e)), _fro(as_cmat(ref)))


def eq_residual(lhs, rhs) -> float:
    """Normwise backward error of lhs = rhs: ``|lhs - rhs|_F / (|lhs|_F + |rhs|_F)``
    (Rigal & Gaches 1967).  A tuple ``lhs`` is the product of its factors,
    left to right as ``a @ b @ c`` associates, and |lhs| the product of their
    norms.  It lies in [0, 1], is exactly 0 when the sides agree, and holds no
    absolute constant: no side may be derived and zero in exact arithmetic.
    """
    factors = lhs if isinstance(lhs, tuple) else (lhs,)
    lhs = reduce(np.matmul, factors)
    return _quotient(_fro(lhs - rhs), math.prod(map(_fro, factors)) + _fro(rhs))


def square(a, name: str) -> np.ndarray:
    """``a`` as a matrix; raises PreconditionError, naming the operand,
    unless it is square."""
    m = as_cmat(a)
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"{name} must be square, got {m.shape}")
    return m


def square_pair(a, b, **operands) -> tuple:
    """``(a, b, n, *operands)``: the operands as matrices and their common
    dimension n; raises PreconditionError unless all of them are n x n."""
    am = as_cmat(a)
    bm = as_cmat(b)
    if am.shape[0] != am.shape[1] or am.shape != bm.shape:
        raise PreconditionError(
            f"expected square matrices of one common dimension, got {am.shape} and {bm.shape}"
        )
    n = am.shape[0]
    mats = [as_cmat(m) for m in operands.values()]
    for name, m in zip(operands, mats):
        if m.shape != am.shape:
            raise PreconditionError(f"{name} must be {n}x{n}, got {m.shape}")
    return (am, bm, n, *mats)


def hermitian_defect(a) -> float:
    """Residual of a* = a for a square matrix a."""
    m = square(a, "a")
    return eq_residual(adj(m), m)


def idempotent_defect(a) -> float:
    """Residual of a@a = a for a square matrix a."""
    m = square(a, "a")
    return eq_residual((m, m), m)


def require_projector(p, name: str) -> np.ndarray:
    """``p`` as a matrix; raises PreconditionError unless it is a square
    orthogonal projector, naming it."""
    pm = square(p, name)
    DEFAULT_TOL.require(f"{name} must be an orthogonal projector", hermitian_defect(pm),
                        idempotent_defect(pm))
    return pm


def meet_projector(p, q) -> np.ndarray:
    """Orthogonal projector onto range(p) & range(q) for projectors p, q.

    The meet is null(2I - p - q), since (2I - p - q) v = 0 forces
    |(I - p) v|^2 + |(I - q) v|^2 = 0; 2I - p - q is factored on its norm
    scale 2, so a trivial meet gives exactly zero.
    """
    pm = require_projector(p, "p")
    qm = require_projector(q, "q")
    if pm.shape != qm.shape:
        raise PreconditionError(f"projector shapes differ: {pm.shape} vs {qm.shape}")
    return projectors(factor(2.0 * np.eye(len(pm), dtype=np.complex128) - pm - qm, scale=2.0))[3]
