"""Solution constructions for AX=C, AXB=C, and the system B·X·A = B = A·X·B.

Solvers check their solvability criteria and fail loudly with the offending
residual; the diagnostic operations (`solves_system`, `prop_main_check`)
report instead, and raise only for malformed operands (PreconditionError)
or a product beyond the double range (NumericError).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, UnsolvableError
from .matcore import (
    DEFAULT_TOL,
    adj,
    as_cmat,
    eq_residual,
    factor,
    hermitian_defect,
    pinvs_below,
    range_projectors,
    square_pair,
    unit_scale,
)
from .report import Report, check_flag, check_le
from .starorder import range_inclusion_residual, require_star_leq

__all__ = [
    "SolutionFamily",
    "douglas_solve",
    "sandwich_solve",
    "system_criterion_residual",
    "system_solvable",
    "system_family",
    "system_general",
    "solves_system",
    "reduce_system",
    "hermitian_system_solve",
    "system_hermitian",
    "prop_main_check",
]


@dataclass(frozen=True)
class SolutionFamily:
    """A particular solution plus an affine map from free parameters to solutions.

    ``instantiate`` accepts one matrix per entry of ``param_shapes``;
    instantiating with all-zero parameters reproduces ``particular`` exactly.
    """

    particular: np.ndarray
    param_shapes: tuple[tuple[int, int], ...]
    _apply: Callable[..., np.ndarray]

    def instantiate(self, params: Sequence) -> np.ndarray:
        if len(params) != len(self.param_shapes):
            raise PreconditionError(
                f"expected {len(self.param_shapes)} parameter matrices, got {len(params)}"
            )
        mats = []
        for got, want in zip(params, self.param_shapes):
            m = as_cmat(got)
            if m.shape != want:
                raise PreconditionError(f"parameter shape {m.shape} != expected {want}")
            mats.append(m)
        return self._apply(*mats)


def douglas_solve(a, c) -> SolutionFamily:
    """All solutions X of a X = c, i.e. X(T) = a+ c + (I - a+ a) T.

    Solvable exactly when range(c) <= range(a), tested via a a+ c = c.
    """
    fa = factor(a)
    am, ap = fa.m, fa.pinv
    cm = as_cmat(c)
    gap = range_inclusion_residual(cm, fa)
    if not DEFAULT_TOL.holds(gap):
        raise UnsolvableError(
            f"a X = c is unsolvable: range criterion residual {gap:.3e} "
            f"> res_rtol {DEFAULT_TOL.res_rtol:g}",
            residual=gap,
        )
    particular = ap @ cm
    ker = np.eye(am.shape[1], dtype=np.complex128) - ap @ am

    def apply(t: np.ndarray) -> np.ndarray:
        return particular + ker @ t

    return SolutionFamily(particular, ((am.shape[1], cm.shape[1]),), apply)


def sandwich_solve(a, c, b) -> SolutionFamily:
    """All solutions X of a X b = c, i.e. X(U) = a+ c b+ + U - a+ a U b b+.

    Solvable exactly when a a+ c b+ b = c.  A derived operand that may be
    rounding noise is passed as its hinted ``factor(m, scale=...)``, which
    keeps its rank decision here; one Factor passed as both a and b is
    factored once.
    """
    am = as_cmat(a)
    cm = as_cmat(c)
    bm = as_cmat(b)
    if cm.shape != (am.shape[0], bm.shape[1]):
        raise PreconditionError(
            f"c must be {am.shape[0]}x{bm.shape[1]} for a X b = c, got {cm.shape}"
        )
    fa, fb = factor(a), factor(b)
    (pa, qa), (pb, qb) = range_projectors(fa), range_projectors(fb)
    crit = eq_residual(pa @ cm @ qb, cm)
    if not DEFAULT_TOL.holds(crit):
        raise UnsolvableError(
            f"a X b = c is unsolvable: criterion residual {crit:.3e} "
            f"> res_rtol {DEFAULT_TOL.res_rtol:g}",
            residual=crit,
        )
    particular = fa.pinv @ cm @ fb.pinv

    def apply(u: np.ndarray) -> np.ndarray:
        return particular + u - qa @ u @ pb

    return SolutionFamily(particular, ((am.shape[1], bm.shape[0]),), apply)


def system_criterion_residual(a, b) -> float:
    """Residual of P b Q = b, P and Q onto range(a) and range(a*): the system's criterion."""
    _, bm, _ = square_pair(a, b)
    p, q = range_projectors(a)
    return eq_residual(p @ bm @ q, bm)


def system_solvable(a, b_selfadjoint) -> bool:
    """Solvability of b X a = b = a X b for self-adjoint b.

    Equivalent to (a a+) b (a+ a) = b, and to the two range inclusions
    range(b) <= range(a) and range(b) <= range(a*).
    """
    am, bm, _ = square_pair(a, b_selfadjoint)
    h = hermitian_defect(bm)
    if not DEFAULT_TOL.holds(h):
        raise PreconditionError(f"b must be self-adjoint (defect {h:.3e})")
    return DEFAULT_TOL.holds(system_criterion_residual(a, bm))


def system_residuals(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """The residuals of b x a = b and a x b = b at x; the caller has
    validated the three matrices."""
    return eq_residual((b, x, a), b), eq_residual((a, x, b), b)


def system_family(a, b) -> SolutionFamily:
    """The closed-form solution family of b X a = b = a X b, in parameters (s, t).

    With d = a - b, the family is

        X(s, t) = b+ + d+ d s d+ + t - (a+ a) t (a a+).

    This is the paper's eight-term expression collapsed by identities that
    hold under the order hypothesis b <=* a, i.e. b* d = 0 and b d* = 0:
    a+ b = b+ b; d+ = a+ - b+ (pseudoinverse additivity for star-orthogonal
    summands, Hartwig & Styan 1986); d+ b = 0; a a+ b = b; and the range
    projectors of b and d sum to a a+.  Under the order a and b also have a
    simultaneous SVD in which b keeps a subset of a's singular values
    (Hartwig & Drazin 1978), so b+ = a+ b a+ (``pinvs_below``, which keeps
    a+ and b+ on one rank decision): a is factored once, after the order
    check, and a caller that holds a's Factor (whose ``pinv`` also solves the
    system, Prop. 3.3) passes it as a.  When a == b,
    d = 0 removes the s term and X(s, t) = b+ + t - (a+ a) t (a a+).
    """
    am, bm, n = square_pair(a, b)
    require_star_leq(bm, am, "system_family requires b <=* a")
    fa = factor(a)
    ap, bp = pinvs_below(fa, bm)

    def apply(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        dp = ap - bp
        return bp + (dp @ (am - bm)) @ s @ dp + t - (ap @ am) @ t @ (am @ ap)

    return SolutionFamily(bp, ((n, n), (n, n)), apply)


def system_general(a, b, s, t) -> np.ndarray:
    """``system_family(a, b)`` evaluated at (s, t); a parameter of the
    wrong shape is reported before an order violation."""
    _, bm, _, sm, tm = square_pair(a, b, s=s, t=t)
    return system_family(a, bm).instantiate([sm, tm])


def solves_system(a, b, x) -> Report:
    """Diagnostic: does x solve the system, and is b star-dominated by a x a?

    The two properties are equivalent whenever b <=* a, so the report carries
    an agreement flag alongside the four raw residuals.  Domination is judged
    on the operands, as (a x a) b* = b b* and b* (a x a) = b* b, after a and
    b are scaled by ``unit_scale`` and x by its inverse, which changes no
    residual.
    """
    am, bm, _, xm = square_pair(a, b, x=x)
    unit = unit_scale(am, bm)
    am, bm, xm = am * unit, bm * unit, xm / unit
    r_bxa, r_axb = system_residuals(am, bm, xm)
    bh = adj(bm)
    d1 = eq_residual((am, xm, am, bh), bm @ bh)
    d2 = eq_residual((bh, am, xm, am), bh @ bm)
    checks = (
        check_le("eq_bxa", r_bxa),
        check_le("eq_axb", r_axb),
        check_le("dom_left", d1),
        check_le("dom_right", d2),
        check_flag("solves_matches_dominance",
                   DEFAULT_TOL.holds(r_bxa, r_axb) == DEFAULT_TOL.holds(d1, d2)),
    )
    return Report(suite="solves-system", trial=0, checks=checks)


def reduce_system(a, b, x_big) -> np.ndarray:
    """Compress a system solution to one of the reduced pair X b = a+ b, b X = b a+.

    Returns y = (a+ a) x_big (a a+).  Requires that x_big actually solves
    b X a = b = a X b.
    """
    am, bm, _, xm = square_pair(a, b, x_big=x_big)
    r_bxa, r_axb = system_residuals(am, bm, xm)
    if not DEFAULT_TOL.holds(r_bxa, r_axb):
        raise PreconditionError(
            f"x_big does not solve the system (residuals {r_bxa:.3e}, {r_axb:.3e})"
        )
    ap = factor(a).pinv
    return ap @ am @ xm @ am @ ap


def hermitian_system_solve(a, b, c, d, w_hermitian) -> np.ndarray:
    """Hermitian solution of the pair a X = c, X b = d.

    Requires the four solvability conditions (a a+ c = c, d b+ b = d,
    a d = c b, and a c* / b* d Hermitian) plus a Hermitian free parameter w.
    Built from the Schur complement s = d* - b* a+ c of the associated block
    matrix and m = b* (I - a+ a).  m vanishes exactly when range(b) <=
    range(a*), which for a = b holds only for range-Hermitian b, so m is
    always factored.  One Factor passed as both a and b is factored once.
    """
    am, bm, n, cm, dm, wm = square_pair(a, b, c=c, d=d, w=w_hermitian)
    fa = factor(a)
    ap = fa.pinv
    conditions = (
        ("range_c", range_inclusion_residual(cm, fa)),
        ("corange_d", eq_residual(dm @ range_projectors(b)[1], dm)),
        ("link_ad_cb", eq_residual((cm, bm), am @ dm)),
        ("ac_adj_hermitian", eq_residual((am, adj(cm)), cm @ adj(am))),
        ("bd_hermitian", eq_residual((adj(bm), dm), adj(dm) @ bm)),
    )
    for name, res in conditions:
        if not DEFAULT_TOL.holds(res):
            raise UnsolvableError(
                f"no hermitian solution: condition {name} fails "
                f"(residual {res:.3e} > res_rtol {DEFAULT_TOL.res_rtol:g})",
                residual=res,
            )
    hw = hermitian_defect(wm)
    if not DEFAULT_TOL.holds(hw):
        raise PreconditionError(f"w must be hermitian (defect {hw:.3e})")

    eye = np.eye(n, dtype=np.complex128)
    ker = eye - ap @ am                # I - a+ a
    m = adj(bm) @ ker
    # m collapses to rounding noise whenever range(b) sits inside range(a*)
    mp = factor(m, scale=float(np.linalg.norm(bm))).pinv
    schur = adj(dm) - adj(bm) @ ap @ cm
    ker_m = eye - mp @ m               # I - m+ m
    base = ap @ cm + ker @ mp @ schur
    return base + ker @ ker_m @ adj(base) + ker @ ker_m @ wm @ adj(ker_m) @ adj(ker)


def system_hermitian(a, b, w_hermitian) -> np.ndarray:
    """Hermitian solution of b X a = b = a X b.

    Requires b <=* a together with b* b+ b and b (b+)* b* Hermitian.  The
    construction solves the reduced pair b X = b a+, X b = a+ b, whose solver
    raises UnsolvableError naming a failing Hermitian condition.  Under the
    order, d = a - b has b d+ = 0 = d+ b, so b a+ = b b+ and a+ b = b+ b:
    only b is factored, and a enters only the order check.
    """
    am, bm, _ = square_pair(a, b)
    require_star_leq(bm, am, "system_hermitian requires b <=* a")
    fb = factor(b)
    return hermitian_system_solve(fb, fb, bm @ fb.pinv, fb.pinv @ bm, w_hermitian)


def prop_main_check(a, b, x) -> Report:
    """Diagnostic for the two equivalent condition bundles on (a, b, x).

    Left side: range(a) <= range(b), null(b) <= null(a), and x solves
    b X a = b = a X b.  Right side: null(a) = null(b), range(a) = range(b),
    and a x a = a.  The two sides hold together or fail together; the report
    carries both plus an agreement flag.  Raises only for malformed operands
    (PreconditionError).
    """
    am, bm, _, xm = square_pair(a, b, x=x)
    fa, fb = factor(a), factor(b)

    ra_in_rb = range_inclusion_residual(am, fb)
    rb_in_ra = range_inclusion_residual(bm, fa)
    nb_in_na = eq_residual(am @ range_projectors(fb)[1], am)
    na_in_nb = eq_residual(bm @ range_projectors(fa)[1], bm)
    r_bxa, r_axb = system_residuals(am, bm, xm)
    r_axa = eq_residual((am, xm, am), am)

    lhs = DEFAULT_TOL.holds(ra_in_rb, nb_in_na, r_bxa, r_axb)
    rhs = DEFAULT_TOL.holds(na_in_nb, nb_in_na, ra_in_rb, rb_in_ra, r_axa)
    checks = (
        check_le("ra_in_rb", ra_in_rb),
        check_le("rb_in_ra", rb_in_ra),
        check_le("nb_in_na", nb_in_na),
        check_le("na_in_nb", na_in_nb),
        check_le("eq_bxa", r_bxa),
        check_le("eq_axb", r_axb),
        check_le("eq_axa", r_axa),
        check_flag("lhs_holds", lhs),
        check_flag("rhs_holds", rhs),
        check_flag("sides_agree", lhs == rhs),
    )
    return Report(suite="prop-main-check", trial=0, checks=checks)
