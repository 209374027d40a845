"""The star partial order: predicate and range inclusion.

``a <=* b`` holds when a a* = b a* and a* a = a* b.  Numerically both
identities are tested by their backward errors, which are homogeneous as
the order is: a <=* b exactly when t a <=* t b.
"""

from __future__ import annotations

import numpy as np

from .errors import NotComparableError, PreconditionError
from .matcore import DEFAULT_TOL, adj, as_cmat, eq_residual, range_projectors, unit_scale

__all__ = ["star_residuals", "star_leq", "range_inclusion_residual"]


def star_residuals(a, b) -> tuple[float, float]:
    """The two defining residuals of a <=* b: of b a* = a a* and of a* b = a* a,
    taken with both scaled by a's ``unit_scale``, which rounds nothing."""
    am = as_cmat(a)
    bm = as_cmat(b)
    if am.shape != bm.shape:
        raise PreconditionError(f"shape mismatch: {am.shape} vs {bm.shape}")
    unit = unit_scale(am)
    am, bm = am * unit, bm * unit
    ah = adj(am)
    return eq_residual((bm, ah), am @ ah), eq_residual((ah, bm), ah @ am)


def star_leq(a, b) -> bool:
    """True when a <=* b to within res_rtol."""
    return DEFAULT_TOL.holds(*star_residuals(a, b))


def require_star_leq(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Raise NotComparableError unless a <=* b; ``what`` names the operation
    and the relation it requires, e.g. "system_family requires b <=* a"."""
    r1, r2 = star_residuals(a, b)
    if not DEFAULT_TOL.holds(r1, r2):
        raise NotComparableError(
            f"{what}; residuals {r1:.3e}, {r2:.3e} (res_rtol {DEFAULT_TOL.res_rtol:g})",
            residuals=(r1, r2),
        )


def range_inclusion_residual(c, a) -> float:
    """Residual of P c = c for the projector P onto range(a), which vanishes
    exactly when range(c) <= range(a)."""
    cm = as_cmat(c)
    p = range_projectors(a)[0]
    if cm.shape[0] != len(p):
        raise PreconditionError(f"row dimensions differ: c has {cm.shape[0]}, a has {len(p)}")
    return eq_residual(p @ cm, cm)

