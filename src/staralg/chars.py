"""Star-order characterizations through projections, idempotents, and
generalized projections (matrices with a@a == a*).

The predicates here come in matched pairs: an order statement on one side
and an algebraic certificate on the other.  Diagnostic operations report
both sides plus an agreement flag; constructive operations raise when their
hypotheses fail.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import PreconditionError, UnsolvableError
from .matcore import (
    DEFAULT_TOL,
    adj,
    eq_residual,
    factor,
    hermitian_defect,
    idempotent_defect,
    range_projectors,
    rel_residual,
    require_projector,
    square,
    square_pair,
)
from .report import Check, Report, check_flag, check_le
from .solvers import SolutionFamily
from .starorder import require_star_leq, star_leq, star_residuals

__all__ = [
    "projector_char",
    "pbq_char",
    "deng_decompose",
    "gp_check",
    "gp_decompose",
    "meet_split",
    "idempotent_split",
    "common_lower_bound",
]


def _require_range_in(p: np.ndarray, proj: np.ndarray, p_name: str, b_name: str) -> None:
    """Raise unless range(p) <= range(b); ``proj`` is the projector onto range(b)."""
    if p.shape[0] != proj.shape[0]:
        raise PreconditionError(
            f"row dimensions differ: {p_name} has {p.shape[0]}, {b_name} has {proj.shape[0]}"
        )
    DEFAULT_TOL.require(f"range({p_name}) must lie inside range({b_name})",
                        eq_residual(proj @ p, p))


def _split_certificates(b: np.ndarray, x: np.ndarray) -> tuple[Check, ...]:
    """The certificates of a split b + x: b and x idempotent, b* x = x b* = 0.
    x may be zero in exact arithmetic, so its residuals are judged on b + x."""
    whole = b + x
    return (
        check_le("b_idempotent", idempotent_defect(b)),
        check_le("x_idempotent", rel_residual(x @ x - x, whole)),
        check_le("bstar_x", rel_residual(adj(b) @ x, whole)),
        check_le("x_bstar", rel_residual(x @ adj(b), whole)),
    )


def projector_char(p, b, side: Literal["left", "right"]) -> Report:
    """One-sided compression test: p b <=* b iff p commutes with b b*.

    ``side="left"`` tests p b against commutation of p with b b* (requires
    range(p) <= range(b)); ``side="right"`` tests b p against commutation of
    p with b* b (requires range(p) <= range(b*)).
    """
    pm = require_projector(p, "p")
    fb = factor(b)
    bm = fb.m
    if side == "left":
        _require_range_in(pm, range_projectors(fb)[0], "p", "b")
        gram = bm @ adj(bm)
        compressed = pm @ bm
    elif side == "right":
        _require_range_in(pm, range_projectors(fb)[1], "p", "b*")
        gram = adj(bm) @ bm
        compressed = bm @ pm
    else:
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")

    return _compression_report(
        f"projector-char-{side}", compressed, bm, commute=eq_residual((pm, gram), gram @ pm))


def pbq_char(p, b, q) -> Report:
    """Two-sided compression test: p b q <=* b iff the two commutation
    identities p b q b* = b q b* p and q b* p b = b* p b q hold."""
    pm = require_projector(p, "p")
    fb = factor(b)
    bm = fb.m
    qm = require_projector(q, "q")
    p_range, p_corange = range_projectors(fb)
    _require_range_in(pm, p_range, "p", "b")
    _require_range_in(qm, p_corange, "q", "b*")
    right = bm @ qm @ adj(bm)
    left = adj(bm) @ pm @ bm
    return _compression_report(
        "pbq-char", pm @ bm @ qm, bm, commute_range=eq_residual((pm, right), right @ pm),
        commute_corange=eq_residual((qm, left), left @ qm))


def _compression_report(suite: str, compressed: np.ndarray, b: np.ndarray, **commutators) -> Report:
    """Star residuals of compressed <=* b beside the commutators, and their agreement."""
    s1, s2 = star_residuals(compressed, b)
    checks = (
        check_le("star_left", s1),
        check_le("star_right", s2),
        *(check_le(name, res) for name, res in commutators.items()),
        check_flag("sides_agree",
                   DEFAULT_TOL.holds(s1, s2) == DEFAULT_TOL.holds(*commutators.values())),
    )
    return Report(suite=suite, trial=0, checks=checks)


def deng_decompose(a, c_idempotent) -> SolutionFamily:
    """Witness family for c <=* a when c is idempotent.

    Solves E X E = a - c for E = I - c*; each instantiation reconstructs a as
    c + E X E.  E is idempotent, so it is its own inner inverse: the equation
    is solvable exactly when c + E (a - c) E = a (Penrose 1955), and then
    X(U) = (a - c) + U - E U E are all its solutions.  Unsolvability signals
    that c is not below a in the star order.
    """
    am, cm, n = square_pair(a, c_idempotent)
    DEFAULT_TOL.require("deng_decompose requires c idempotent", idempotent_defect(cm))
    outer = np.eye(n, dtype=np.complex128) - adj(cm)
    rest = am - cm
    crit = eq_residual(cm + outer @ rest @ outer, am)
    if not DEFAULT_TOL.holds(crit):
        raise UnsolvableError(
            "no decomposition a = c + (I - c*) X (I - c*): "
            f"c is not below a in the star order (criterion residual {crit:.3e})",
            residual=crit,
        )

    def apply(u: np.ndarray) -> np.ndarray:
        return rest + u - outer @ u @ outer

    return SolutionFamily(rest, ((n, n),), apply)


def gp_check(a) -> Report:
    """Diagnostic for generalized projections (a@a == a*).

    Reports the defining defect plus the derived facts that a**3 is the
    orthogonal projector onto range(a), each stated as an equation.
    """
    am = square(a, "a")
    a2 = am @ am
    a3 = a2 @ am
    p_range = am @ factor(a).pinv
    checks = (
        check_le("gp_defect", eq_residual(a2, adj(am))),
        check_le("cube_hermitian", hermitian_defect(a3)),
        check_le("cube_idempotent", idempotent_defect(a3)),
        check_le("cube_is_range_projector", eq_residual(a3, p_range)),
    )
    return Report(suite="gp-check", trial=0, checks=checks)


def _require_gp(m, what: str) -> None:
    DEFAULT_TOL.require(what, *(c.residual for c in gp_check(m).checks))


def gp_decompose(a, b_gp) -> np.ndarray:
    """Witness X with a = b + (I - b b*) X (I - b* b) for a generalized
    projection b with b <=* a.  X = a itself is such a witness."""
    am, bm, _ = square_pair(a, b_gp)
    _require_gp(bm, "gp_decompose requires b to be a generalized projection")
    require_star_leq(bm, am, "gp_decompose requires b <=* a")
    return am.copy()


def meet_split(a_gp, b) -> tuple[np.ndarray, Report]:
    """Split a a* = b + x into idempotent summands with b* x = x b* = 0.

    Requires a generalized projection a and a common star lower bound b of
    a and a*.  Returns x = a a* - b plus the certificate report, which also
    carries the absorption identities a b = b a = a* b = b a* = b.
    """
    am, bm, _ = square_pair(a_gp, b)
    _require_gp(am, "meet_split requires a to be a generalized projection")
    require_star_leq(bm, am, "meet_split requires b <=* a")
    require_star_leq(bm, adj(am), "meet_split requires b <=* a*")
    x = am @ adj(am) - bm
    checks = _split_certificates(bm, x) + (
        check_le("ab_absorb", eq_residual((am, bm), bm)),
        check_le("ba_absorb", eq_residual((bm, am), bm)),
        check_le("astar_b_absorb", eq_residual((adj(am), bm), bm)),
        check_le("b_astar_absorb", eq_residual((bm, adj(am)), bm)),
    )
    return x, Report(suite="meet-split", trial=0, checks=checks)


def idempotent_split(a_idem, b) -> tuple[np.ndarray, Report]:
    """Split an idempotent a as b + x with x idempotent and b* x = x b* = 0.

    The certificates hold exactly when b <=* a, so for a non-comparable b the
    returned report demonstrates at least one failing certificate; the
    agreement flag records that the two sides matched either way.
    """
    am, bm, _ = square_pair(a_idem, b)
    DEFAULT_TOL.require("idempotent_split requires a idempotent", idempotent_defect(am))
    x = am - bm
    certs = _split_certificates(bm, x)
    certs_hold = all(c.passed for c in certs)
    star = star_leq(bm, am)
    checks = certs + (check_flag("star_matches_certificates", star == certs_hold),)
    return x, Report(suite="idempotent-split", trial=0, checks=checks)


def common_lower_bound(a, c_gp, b) -> Report:
    """Diagnostic: is b a common star lower bound of a and c c*?

    Side one is the pair of order relations b <=* a and b <=* c c*.  Side two
    is the algebraic characterization: b idempotent, the sandwich equation
    a = b + (I - b*) X (I - b*) solvable, and y = c c* - b annihilated by b*
    on both sides.  The report carries both sides and their agreement flag.
    Never raises for non-comparable b (only for a non-GP c or bad shapes).
    """
    am, cm, _ = square_pair(a, c_gp)
    _, bm, _ = square_pair(am, b)
    _require_gp(c_gp, "common_lower_bound requires c to be a generalized projection")
    cc = cm @ adj(cm)
    below_a = star_leq(bm, am)
    below_cc = star_leq(bm, cc)
    b_idem = idempotent_defect(bm)
    try:
        deng_decompose(am, bm)
        witness_exists = True
    except (PreconditionError, UnsolvableError):
        witness_exists = False
    y = cc - bm
    y_left = rel_residual(adj(bm) @ y, cc)
    y_right = rel_residual(y @ adj(bm), cc)
    rhs = witness_exists and DEFAULT_TOL.holds(b_idem, y_left, y_right)
    checks = (
        check_flag("lower_bound_of_a", below_a),
        check_flag("lower_bound_of_ccstar", below_cc),
        check_le("b_idempotent", b_idem),
        check_flag("sandwich_witness_exists", witness_exists),
        check_le("bstar_y", y_left),
        check_le("y_bstar", y_right),
        check_flag("sides_agree", (below_a and below_cc) == rhs),
    )
    return Report(suite="common-lower-bound", trial=0, checks=checks)
