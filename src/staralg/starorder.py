"""The star partial order: predicate, block witness, and range inclusion.

``a <=* b`` holds when a a* = b a* and a* a = a* b.  Numerically both
identities are tested as relative residuals against the left operand's
scale; near-threshold ties resolve by the strict comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotComparableError, PreconditionError
from .matcore import DEFAULT_TOL, Tol, adj, as_cmat, pinv, rank_cutoff, rel_residual, svd

__all__ = [
    "StarWitness",
    "star_residuals",
    "star_leq",
    "star_leq_witness",
    "range_included",
    "range_inclusion_residual",
]


def star_residuals(a, b) -> tuple[float, float]:
    """The two defining residuals of a <=* b: (aa* - ba*, a*a - a*b)."""
    am = as_cmat(a)
    bm = as_cmat(b)
    if am.shape != bm.shape:
        raise PreconditionError(f"shape mismatch: {am.shape} vs {bm.shape}")
    ah = adj(am)
    aah = am @ ah
    aha = ah @ am
    return (
        rel_residual(aah - bm @ ah, aah),
        rel_residual(aha - ah @ bm, aha),
    )


def star_leq(a, b, tol: Tol = DEFAULT_TOL) -> bool:
    """True when a <=* b to within res_rtol."""
    r1, r2 = star_residuals(a, b)
    return r1 <= tol.res_rtol and r2 <= tol.res_rtol


def require_star_leq(a: np.ndarray, b: np.ndarray, tol: Tol, what: str) -> None:
    """Raise NotComparableError unless a <=* b; ``what`` names the operation
    and the relation it requires, e.g. "system_family requires b <=* a"."""
    r1, r2 = star_residuals(a, b)
    if r1 > tol.res_rtol or r2 > tol.res_rtol:
        raise NotComparableError(f"{what}; residuals {r1:.3e}, {r2:.3e}", residuals=(r1, r2))


@dataclass(frozen=True)
class StarWitness:
    """Block certificate for a <=* b.

    In the orthonormal bases given by the columns of ``u_left`` (range(a)
    then null(a*)) and ``u_right`` (range(a*) then null(a)):

        a == u_left @ [[a1, 0], [0, 0]] @ u_right*
        b == u_left @ [[a1, 0], [0, b1]] @ u_right*

    with ``a1`` invertible.  ``residual`` records how well b decomposes as
    a plus its compression to the null blocks.
    """

    a1: np.ndarray
    b1: np.ndarray
    u_left: np.ndarray
    u_right: np.ndarray
    residual: float


def star_leq_witness(a, b, tol: Tol = DEFAULT_TOL) -> StarWitness:
    """Block realization of a <=* b in the singular bases of a."""
    am = as_cmat(a)
    bm = as_cmat(b)
    require_star_leq(am, bm, tol, "star_leq_witness requires a <=* b")
    f = svd(am)
    r = int(np.count_nonzero(f.s > rank_cutoff(f, tol)))
    u_left = f.u
    u_right = adj(f.vh)
    a1 = np.diag(f.s[:r]).astype(np.complex128)
    b1 = adj(u_left[:, r:]) @ bm @ u_right[:, r:]
    p_null_left = u_left[:, r:] @ adj(u_left[:, r:])
    p_null_right = u_right[:, r:] @ adj(u_right[:, r:])
    residual = rel_residual(bm - am - p_null_left @ bm @ p_null_right, bm)
    return StarWitness(a1, b1, u_left, u_right, residual)


def range_inclusion_residual(c, a, tol: Tol = DEFAULT_TOL) -> float:
    """Residual of a a+ c - c, which vanishes exactly when range(c) <= range(a)."""
    cm = as_cmat(c)
    am = as_cmat(a)
    if cm.shape[0] != am.shape[0]:
        raise PreconditionError(
            f"row dimensions differ: c has {cm.shape[0]}, a has {am.shape[0]}"
        )
    return rel_residual(am @ pinv(am, tol) @ cm - cm, cm)


def range_included(c, a, tol: Tol = DEFAULT_TOL) -> bool:
    """True when range(c) <= range(a) to within res_rtol."""
    return range_inclusion_residual(c, a, tol) <= tol.res_rtol
