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


def _is_cmat(m) -> bool:
    """True for a nonempty 2-D complex128 array: as_cmat returns it unchanged
    once its entries are known to be finite."""
    return isinstance(m, np.ndarray) and m.dtype == np.complex128 and m.ndim == 2 and m.size > 0


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
    reference = max(top, scale) if scale is not None else top
    cutoff = DEFAULT_TOL.rank_rtol * reference * max(m.shape)
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

    Returns (a @ a+, a+ @ a, I - a @ a+, I - a+ @ a); each is Hermitian
    idempotent to within res_rtol.
    """
    f = factor(a)
    m, ap = f.m, f.pinv
    p_range = m @ ap
    p_corange = ap @ m
    return (
        p_range,
        p_corange,
        np.eye(m.shape[0], dtype=np.complex128) - p_range,
        np.eye(m.shape[1], dtype=np.complex128) - p_corange,
    )


def rel_residual(e, ref) -> float:
    """Frobenius norm of ``e`` relative to ``max(1, ||ref||_F)``.

    The unit clamp keeps residuals meaningful around the zero matrix; this is
    the single residual convention used by every predicate in the package.
    When a norm overflows although every entry is finite, both matrices are
    first scaled by one power of two; NumericError is raised only for a
    residual beyond the double range.
    """
    if not (_is_cmat(e) and _is_cmat(ref)):
        e, ref = as_cmat(e), as_cmat(ref)
    with np.errstate(over="ignore"):  # an overflow is retried below, not reported
        num, den = np.linalg.norm(e), np.linalg.norm(ref)
    if not (math.isfinite(num) and math.isfinite(den)):
        # a NaN or Inf entry makes its norm non-finite; as_cmat rejects it
        as_cmat(e)
        as_cmat(ref)
        # finite entries whose squares overflow: scale both by 2**-k, which
        # rounds nothing that reaches the norm; the quotient needs no undoing,
        # and under the unit clamp ||e|| is scaled back
        k = math.frexp(max(float(np.abs(e).max()), float(np.abs(ref).max())))[1]
        unit = math.ldexp(1.0, -k)
        sn, sd = np.linalg.norm(e * unit), np.linalg.norm(ref * unit)
        res = sn / sd if sd >= unit else np.ldexp(sn, k)
        if not math.isfinite(res):
            raise NumericError(
                f"residual norm overflows: ||e||_F = {num:.3e}, ||ref||_F = {den:.3e}")
        return float(res)
    return float(num / max(1.0, float(den)))


def eq_residual(lhs, rhs) -> float:
    """Residual of the equation lhs = rhs: ``||lhs - rhs||_F / max(1, ||rhs||_F)``.

    A tuple ``lhs`` stands for the product of its factors, taken left to right
    as ``a @ b @ c`` associates.
    """
    if isinstance(lhs, tuple):
        lhs = reduce(np.matmul, lhs)
    return rel_residual(lhs - rhs, rhs)


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
    h = hermitian_defect(pm)
    q = idempotent_defect(pm)
    if not DEFAULT_TOL.holds(h, q):
        raise PreconditionError(
            f"{name} is not an orthogonal projector "
            f"(hermitian defect {h:.3e}, idempotent defect {q:.3e})"
        )
    return pm


def meet_projector(p, q) -> np.ndarray:
    """Orthogonal projector onto range(p) & range(q) for projectors p, q.

    Uses the Anderson-Duffin form 2 p (p + q)+ q.  The result is dominated by
    both inputs: p @ m == m == q @ m to within res_rtol.
    """
    pm = require_projector(p, "p")
    qm = require_projector(q, "q")
    if pm.shape != qm.shape:
        raise PreconditionError(f"projector shapes differ: {pm.shape} vs {qm.shape}")
    return 2.0 * pm @ pinv(pm + qm) @ qm
