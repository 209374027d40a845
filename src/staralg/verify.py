"""Claim-suite runner: every registered suite pairs one closed-form result
with seeded instances and residual checks, plus an independent least-squares
oracle for system solvability.

Suite identifiers are stable claim tags (see ``SUITE_DESCRIPTIONS``).  A
suite run is fully determined by (name, trials, dims, root_seed): the
runner builds one generator SplitMix64(Seed(root_seed, t)) for trial t and
hands it to the suite body, which makes every draw of the trial from it, so
report streams are byte-identical across runs.

Positive checks must land at or below res_rtol; engineered negatives must
fail with margin at least NEG_FLOOR, and anything in the gray zone between
the two is flagged marginal and fails the suite.

Trials are independent and could run concurrently; the runner executes them
in trial order so the report stream needs no sorting step.
"""

from __future__ import annotations

import numpy as np

from .chars import (
    common_lower_bound,
    gp_check,
    idempotent_split,
    meet_split,
    pbq_char,
    projector_char,
    deng_decompose,
    gp_decompose,
)
from .errors import NumericError, PreconditionError, UnsolvableError
from .genlab import (
    Seed,
    SplitMix64,
    gp,
    idempotent,
    rank_r,
    star_pair,
    thm23_instance,
    unitary,
)
from .matcore import (
    DEFAULT_TOL,
    adj,
    eq_residual,
    factor,
    hermitian_defect,
    idempotent_defect,
    meet_projector,
    pinv,
    range_projectors,
    square_pair,
    unit_scale,
)
from .report import Check, Report, check_flag, check_ge, check_le
from .solvers import (
    douglas_solve,
    prop_main_check,
    reduce_system,
    sandwich_solve,
    solves_system,
    system_criterion_residual,
    system_family,
    system_general,
    system_hermitian,
    system_residuals,
)
from .starorder import star_residuals

__all__ = ["SUITE_NAMES", "SUITE_DESCRIPTIONS", "NEG_FLOOR", "lsq_oracle", "run_suite"]

NEG_FLOOR = 1e-5
_TIGHT = 1e-10
_GP_NEG_FLOOR = 1e-2


_DENSE_MAX_N = 8  # measured cut-over: the Kronecker solve is the cheaper one up to here
_CGLS_TOL = 64 * 2.0 ** -53  # 64 unit roundoffs
_CGLS_SWEEPS = 8  # iteration cap, in multiples of n^2 (the number of unknowns)


def lsq_oracle(a, b) -> tuple[np.ndarray, float]:
    """Independent solvability oracle for b X a = b = a X b.

    Finds the minimum-norm minimizer X of |bXa - b|_F^2 + |aXb - b|_F^2 and
    returns X with the backward errors of bXa = b and aXb = b summed, each
    product one lhs so that no |X| divides them; solvable means at most
    res_rtol.  Up to n = 8 the system is vectorized into one 2n^2 x n^2
    Kronecker system and solved by SVD-based least squares; above, CGLS runs
    matrix-free on X -> (bXa, aXb) and falls back to that dense solve when
    neither of its stopping tests certifies X within 8 n^2 iterations.
    Shares nothing with the solver formulas beyond the matrix substrate.
    """
    am, bm, n = square_pair(a, b)
    x = _cgls(am, bm) if n > _DENSE_MAX_N else None
    if x is None:
        x = _dense_lsq(am, bm)
    return x, eq_residual(bm @ x @ am, bm) + eq_residual(am @ x @ bm, bm)


def _kron_block(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``np.kron(m.T, k)`` as one broadcast product: vec(k x m) under column-major vec."""
    n = len(m)
    return (m.T[:, None, :, None] * k[None, :, None, :]).reshape(n * n, n * n)


def _dense_lsq(am: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares X of the vectorized system, by ``lstsq``."""
    n = len(am)
    rows = np.vstack([_kron_block(am, bm), _kron_block(bm, am)])
    rhs = np.concatenate([bm.flatten(order="F"), bm.flatten(order="F")])
    return np.linalg.lstsq(rows, rhs, rcond=None)[0].reshape((n, n), order="F")


def _cgls(am: np.ndarray, bm: np.ndarray) -> np.ndarray | None:
    """CGLS from X = 0 on X -> (bXa, aXb), whose adjoint is (Y, Z) -> b*Ya* + a*Zb*.

    Returns X once one of LSQR's tests holds at _CGLS_TOL (Paige & Saunders
    1982), with |A| <= sqrt(2) |a|_F |b|_F: the consistent-system test
    |r| <= tol (|A| |X| + |rhs|) or the least-squares test |A* r| <= tol |A| |r|.
    None when neither holds within the iteration cap.  It runs on a and b
    scaled by powers of two to entries below 1, which rounds nothing and
    keeps its norms in the double range; the X of (ta, sb) is X(a, b) / t.
    """
    n = len(am)
    t = unit_scale(am)
    am, bm = t * am, unit_scale(bm) * bm
    left = np.vstack([bm, am])  # X -> left @ X is (bX; aX), stacked
    right = np.stack([am, bm])
    left_h = adj(left)  # (b*, a*) side by side
    right_h = right.conj().transpose(0, 2, 1)
    op_norm = np.sqrt(2.0) * np.linalg.norm(am) * np.linalg.norm(bm)
    x = np.zeros_like(am)
    r = np.stack([bm, bm])
    rhs_norm = np.linalg.norm(r)
    s = left_h @ (r @ right_h).reshape(2 * n, n)
    p = s
    gamma = np.vdot(s, s).real
    for _ in range(_CGLS_SWEEPS * n * n + 1):
        r_norm = np.sqrt(np.vdot(r, r).real)
        x_norm = np.sqrt(np.vdot(x, x).real)
        if (r_norm <= _CGLS_TOL * (op_norm * x_norm + rhs_norm)
                or np.sqrt(gamma) <= _CGLS_TOL * op_norm * r_norm):
            return t * x
        q = (left @ p).reshape(2, n, n) @ right
        alpha = gamma / np.vdot(q, q).real
        x = x + alpha * p
        r = r - alpha * q
        s = left_h @ (r @ right_h).reshape(2 * n, n)
        gamma, gamma_old = np.vdot(s, s).real, gamma
        p = s + (gamma / gamma_old) * p
    return None


def _refuted(name: str, residual: float) -> Check:
    """An engineered negative: at least NEG_FLOOR, marginal between res_rtol and it."""
    return check_ge(name, residual, NEG_FLOOR)


def _zeros(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128)


def _rejection(fn, *args) -> float:
    """Criterion residual of the UnsolvableError raised by fn(*args); nan if fn accepts."""
    try:
        fn(*args)
    except UnsolvableError as exc:
        return exc.residual
    return float("nan")


def _star_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Larger of the two defining residuals of a <=* b."""
    return max(star_residuals(a, b))


def _worst(rep: Report, *names: str) -> float:
    """Largest residual among the named checks of a report."""
    return max(rep.residual(name) for name in names)


def _strict_pair(
    rng: SplitMix64, n: int, hermitian: bool = False, min_extra: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Star pair (big, small) with 0 < rank(small) < n and rank(big) - rank(small) >= min_extra."""
    r = 1 + rng.randint(n - 1)
    k = min_extra + rng.randint(n - r + 1 - min_extra)
    return star_pair(rng, n, r, k, hermitian)


def _solves(prefix: str, big: np.ndarray, small: np.ndarray, x: np.ndarray) -> tuple[Check, Check]:
    """Residual checks that x solves small X big = small = big X small."""
    r_bxa, r_axb = system_residuals(big, small, x)
    return check_le(f"{prefix}_bxa", r_bxa), check_le(f"{prefix}_axb", r_axb)


def _inner_inverse(rng: SplitMix64, a: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Seeded solution x of a x a = a, built around the pseudoinverse ap."""
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    return ap + (eye - ap @ a) @ rng.complex_gaussian(n, n) + rng.complex_gaussian(n, n) @ (eye - a @ ap)


def _sub_projector(rng: SplitMix64, u: np.ndarray, k: int, min_rank: int) -> np.ndarray:
    """Projector onto a seeded subspace, of rank at least min_rank, of span(u[:, :k])."""
    sub = unitary(rng, k)
    j = min_rank + rng.randint(k + 1 - min_rank)
    cols = u[:, :k] @ sub[:, :j]
    return cols @ adj(cols)


def _split_negatives(rng: SplitMix64, a: np.ndarray, b: np.ndarray) -> tuple[Check, ...]:
    """Tilt b off the order below idempotent a: certificates and order both fail, in agreement."""
    n = a.shape[0]
    v = rng.complex_gaussian(n, 1)[:, 0]
    v = v / np.linalg.norm(v)
    b_bad = b + 0.1 * np.outer(v, v.conj())
    _, rep = idempotent_split(a, b_bad)
    certs = _worst(rep, "b_idempotent", "x_idempotent", "bstar_x", "x_bstar")
    return (
        check_flag("neg_agree", rep.passed("star_matches_certificates")),
        _refuted("neg_cert", certs),
        _refuted("neg_star", _star_gap(b_bad, a)),
    )


# ---------------------------------------------------------------------------
# suite bodies: one function per registered claim tag, called as
# body(trial, n, rng) with rng the trial's generator


def _suite_penrose(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    m = 1 + rng.randint(n)
    p = 1 + rng.randint(n)
    r = trial % (min(m, p) + 1)  # cycles through all ranks incl. 0 and full
    a = rank_r(rng, m, p, r)
    ap = pinv(a)
    return (
        check_le("fixed_a", eq_residual((a, ap, a), a), _TIGHT),
        check_le("fixed_pinv", eq_residual((ap, a, ap), ap), _TIGHT),
        check_le("range_proj_hermitian", hermitian_defect(a @ ap), _TIGHT),
        check_le("corange_proj_hermitian", hermitian_defect(ap @ a), _TIGHT),
        check_le("adjoint_commutes", eq_residual(pinv(adj(a)), adj(ap)), _TIGHT),
    )


def _suite_douglas(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r = rng.randint(n + 1)
    a = rank_r(rng, n, n, r)
    fa = factor(a)
    c = a @ rng.complex_gaussian(n, n)
    fam = douglas_solve(fa, c)
    checks = [check_le("particular", eq_residual((a, fam.particular), c))]
    for j in range(2):
        x = fam.instantiate([rng.complex_gaussian(n, n)])
        checks.append(check_le(f"draw{j}", eq_residual((a, x), c)))
    if r < n:
        crit = _rejection(douglas_solve, fa, rng.complex_gaussian(n, n))
        checks.append(_refuted("unsolvable_margin", crit))
        checks.append(check_flag("unsolvable_raises", not np.isnan(crit)))
    return tuple(checks)


def _suite_lem2_2(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r = rng.randint(n + 1)
    a = rank_r(rng, n, n, r)
    b = a @ rng.complex_gaussian(n, n) @ a  # range(b) <= range(a), range(b*) <= range(a*)
    p_range, p_corange = range_projectors(a)
    return (
        check_le("null_left_kills", eq_residual(p_range @ b, b)),
        check_le("null_right_kills", eq_residual(b @ p_corange, b)),
        check_le("block_compress", eq_residual(p_range @ b @ p_corange, b)),
    )


def _suite_thm2_3(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    # rank-deficient, so a negative exists, and above n/2, so the meet
    # range(a) & range(a*) is not {0} and the positive is not b = 0
    lo = min(n // 2 + 1, n - 1)
    r = lo + rng.randint(n - lo)
    a = rank_r(rng, n, n, r)
    fa = factor(a)
    ap = fa.pinv
    meet = meet_projector(*range_projectors(fa))
    b_pos = thm23_instance(rng, meet, True)
    b_neg = thm23_instance(rng, meet, False)

    crit_pos = system_criterion_residual(fa, b_pos)
    crit_neg = system_criterion_residual(fa, b_neg)
    oracle_pos = lsq_oracle(a, b_pos)[1]
    oracle_neg = lsq_oracle(a, b_neg)[1]
    agree = DEFAULT_TOL.holds(crit_pos) == DEFAULT_TOL.holds(oracle_pos) and (
        crit_neg >= NEG_FLOOR
    ) == (oracle_neg >= NEG_FLOOR)
    return (
        check_le("criterion_pos", crit_pos),
        *_solves("pinv_solves", a, b_pos, ap),
        check_le("oracle_pos", oracle_pos),
        _refuted("criterion_neg", crit_neg),
        _refuted("oracle_neg", oracle_neg),
        check_flag("paths_agree", agree),
    )


def _suite_prop2_4(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r = rng.randint(n + 1)
    a = rank_r(rng, n, n, r)
    fa = factor(a)
    u_r = fa.u[:, :r]
    v_r = adj(fa.vh)[:, :r]
    b = u_r @ rank_r(rng, r, r, r) @ adj(v_r)
    x = _inner_inverse(rng, a, fa.pinv)
    rep = prop_main_check(fa, b, x)
    rep_rand = prop_main_check(
        rng.complex_gaussian(n, n), rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)
    )
    return (
        check_flag("pos_lhs", rep.passed("lhs_holds")),
        check_flag("pos_rhs", rep.passed("rhs_holds")),
        check_flag("pos_agree", rep.passed("sides_agree")),
        check_flag("rand_agree", rep_rand.passed("sides_agree")),
        _refuted("rand_axa_margin", rep_rand.residual("eq_axa")),
    )


def _suite_prop3_3(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r = rng.randint(n + 1)
    k = rng.randint(n - r + 1)
    big, small = star_pair(rng, n, r, k, False)
    fbig = factor(big)
    fam = system_family(fbig, small)
    return (
        *_solves("pinv_a", big, small, fbig.pinv),
        *_solves("pinv_b", big, small, fam.particular),
    )


def _suite_prop3_4(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    # The hypotheses (a <=* b and b X a = b = a X b solvable) force a == b:
    # the order makes range(a) <= range(b) while the equations force the
    # reverse inclusion, which kills the complement block.  Positive trials
    # therefore use a == b with a random inner-inverse-style solution, and
    # strictly larger b is certified unsolvable by the oracle.
    r = 1 + rng.randint(n)
    fa = factor(rank_r(rng, n, n, r))
    a, ap = fa.m, fa.pinv
    x = _inner_inverse(rng, a, ap)
    p_range, p_corange = range_projectors(fa)
    checks = [
        check_le("solution_axa", eq_residual((a, x, a), a)),
        check_le("null_spaces_equal", eq_residual(a @ p_corange, a)),
        check_le("ranges_equal", eq_residual(p_range @ a, a)),
    ]
    bigger, smaller = _strict_pair(rng, n, min_extra=1)
    checks.append(_refuted("strict_pair_unsolvable", lsq_oracle(smaller, bigger)[1]))
    return tuple(checks)


def _suite_rem3_5(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    for _ in range(100):
        r = 1 + rng.randint(n)
        fa = factor(rank_r(rng, n, n, r))
        # a partial isometry (pinv == adjoint) cannot witness the failure,
        # and a near one witnesses it by less than NEG_FLOOR
        if np.linalg.norm(fa.pinv - adj(fa.m)) > 1e-3 * np.linalg.norm(fa.m):
            break
    else:
        raise NumericError("rem3.5 could not draw a non-partial-isometry in 100 attempts")
    a, ap, astar = fa.m, fa.pinv, adj(fa.m)
    p_astar, q_astar = range_projectors(astar)
    p_ap, q_ap = range_projectors(ap)
    return (
        check_le("null_first_in_second", eq_residual(ap @ q_astar, ap)),
        check_le("null_second_in_first", eq_residual(astar @ q_ap, astar)),
        check_le("range_first_in_second", eq_residual(p_astar @ ap, ap)),
        check_le("range_second_in_first", eq_residual(p_ap @ astar, astar)),
        check_le("middle_identity", eq_residual((ap, a, ap), ap)),
        _refuted("order_fails", _star_gap(ap, astar)),
    )


def _suite_thm3_6(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    big, small = _strict_pair(rng, n)
    fbig = factor(big)
    fam = system_family(fbig, small)
    xg = fam.instantiate([rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)])
    checks = []
    for name, x in (("pinv_a", fbig.pinv), ("pinv_b", fam.particular), ("general", xg)):
        rep = solves_system(big, small, x)
        checks.append(check_flag(f"{name}_solves_and_dominated", rep.verdict))
    for j in range(3):
        rep = solves_system(big, small, rng.complex_gaussian(n, n))
        checks.append(check_flag(f"rand{j}_agree", rep.passed("solves_matches_dominance")))
        checks.append(_refuted(f"rand{j}_eq_margin", rep.residual("eq_bxa")))
        dom = _worst(rep, "dom_left", "dom_right")
        checks.append(_refuted(f"rand{j}_dom_margin", dom))
    return tuple(checks)


def _suite_lem3_7(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r1 = 1 + rng.randint(n - 1)
    r2 = 1 + rng.randint(n)
    a = rank_r(rng, n, n, r1)
    b = rank_r(rng, n, n, r2)
    fa, fb = factor(a), factor(b)
    c = a @ rng.complex_gaussian(n, n) @ b
    fam = sandwich_solve(fa, c, fb)
    checks = [check_le("particular", eq_residual((a, fam.particular, b), c))]
    for j in range(2):
        x = fam.instantiate([rng.complex_gaussian(n, n)])
        checks.append(check_le(f"draw{j}", eq_residual((a, x, b), c)))
    crit = _rejection(sandwich_solve, fa, rng.complex_gaussian(n, n), fb)
    checks.append(_refuted("unsolvable_margin", crit))
    checks.append(check_flag("unsolvable_raises", not np.isnan(crit)))
    return tuple(checks)


def _suite_thm3_8(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    big, small = _strict_pair(rng, n)
    checks = []
    draws = [(_zeros(n), _zeros(n))] + [
        (rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)) for _ in range(5)
    ]
    fbig = factor(big)
    fam = system_family(fbig, small)
    for j, (s, t) in enumerate(draws):
        checks.extend(_solves(f"draw{j}", big, small, fam.instantiate([s, t])))
    s, t = rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)
    for name, b in (("equal_case", big), ("zero_case", _zeros(n))):
        x = system_general(fbig, b, s, t)
        checks.append(check_le(name, max(system_residuals(big, b, x))))
    return tuple(checks)


def _suite_thm3_9(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    big, small = _strict_pair(rng, n)
    fbig = factor(big)
    fam = system_family(fbig, small)
    x_big = fam.instantiate([rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)])
    y = reduce_system(fbig, small, x_big)
    ap = fbig.pinv
    target_left = ap @ small
    target_right = small @ ap
    bp = fam.particular
    eye = np.eye(n, dtype=np.complex128)
    x_small = ap + (eye - bp @ small) @ rng.complex_gaussian(n, n) @ (eye - small @ bp)
    return (
        check_le("reduced_xb", eq_residual((y, small), target_left)),
        check_le("reduced_bx", eq_residual((small, y), target_right)),
        *_solves("converse", big, small, x_small),
    )


def _suite_thm3_11(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    big, small = _strict_pair(rng, n, hermitian=True)
    fsmall = factor(small)
    checks = []
    for name, w in (("w0", _zeros(n)), ("wh", rng.hermitian_gaussian(n))):
        x = system_hermitian(big, fsmall, w)
        checks.append(check_le(f"{name}_hermitian", hermitian_defect(x)))
        checks.extend(_solves(name, big, small, x))
    return tuple(checks)


def _nonempty_mask(rng: SplitMix64, count: int) -> np.ndarray:
    """Seeded nonempty subset of range(count) as a boolean mask."""
    mask = rng.bits(count)
    if not mask.any():
        mask[0] = True
    return mask


def _aligned_projector(rng: SplitMix64, basis: np.ndarray, count: int) -> np.ndarray:
    """Projector onto a seeded nonempty subset of the given orthonormal columns."""
    cols = basis[:, :count][:, _nonempty_mask(rng, count)]
    return cols @ adj(cols)


def _mixing_projector(u: np.ndarray) -> np.ndarray:
    """Rank-one projector mixing the two leading orthonormal columns of u."""
    w = (u[:, 0] + u[:, 1]) / np.sqrt(2.0)
    return np.outer(w, w.conj())


def _suite_prop4_1(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    rb = 2 + rng.randint(n - 1)
    b = rank_r(rng, n, n, rb)
    fb = factor(b)
    v = adj(fb.vh)
    checks = []
    for side, basis in (("left", fb.u), ("right", v)):
        rep = projector_char(_aligned_projector(rng, basis, rb), fb, side)
        checks.append(check_flag(f"{side}_pos_verdict", rep.verdict))
        rep_neg = projector_char(_mixing_projector(basis), fb, side)
        checks.append(_refuted(f"{side}_neg_commute", rep_neg.residual("commute")))
        star = _worst(rep_neg, "star_left", "star_right")
        checks.append(_refuted(f"{side}_neg_star", star))
        checks.append(check_flag(f"{side}_neg_agree", rep_neg.passed("sides_agree")))
    return tuple(checks)


def _suite_prop4_2(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    rb = 2 + rng.randint(n - 1)
    b = rank_r(rng, n, n, rb)
    fb = factor(b)
    v = adj(fb.vh)
    mask = _nonempty_mask(rng, rb)
    us = fb.u[:, :rb][:, mask]
    vs = v[:, :rb][:, mask]
    rep = pbq_char(us @ adj(us), fb, vs @ adj(vs))
    checks = [check_flag("pos_verdict", rep.verdict)]
    q_full = v[:, :rb] @ adj(v[:, :rb])
    rep_neg = pbq_char(_mixing_projector(fb.u), fb, q_full)
    commute = _worst(rep_neg, "commute_range", "commute_corange")
    checks.append(_refuted("neg_commute", commute))
    star = _worst(rep_neg, "star_left", "star_right")
    checks.append(_refuted("neg_star", star))
    checks.append(check_flag("neg_agree", rep_neg.passed("sides_agree")))
    return tuple(checks)


def _suite_thm4_3(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    rc = 1 + rng.randint(n)
    skew = 0.2 + 0.6 * float(rng.uniforms(1)[0])
    c = idempotent(rng, n, rc, skew)
    outer = np.eye(n, dtype=np.complex128) - adj(c)
    a = c + outer @ rng.complex_gaussian(n, n) @ outer
    fam = deng_decompose(a, c)
    checks = [
        check_le("recon_particular", eq_residual(c + outer @ fam.particular @ outer, a)),
        check_le(
            "recon_draw",
            eq_residual(c + outer @ fam.instantiate([rng.complex_gaussian(n, n)]) @ outer, a),
        ),
        check_le("converse_star", _star_gap(c, a)),
    ]
    a_bad = a + 0.1 * (adj(c) @ rng.complex_gaussian(n, n) @ adj(c))
    crit = _rejection(deng_decompose, a_bad, c)
    checks.append(_refuted("neg_criterion", crit))
    checks.append(_refuted("neg_star", _star_gap(c, a_bad)))
    checks.append(check_flag("neg_raises", not np.isnan(crit)))
    return tuple(checks)


def _split_mults(rng: SplitMix64, total: int) -> tuple[int, int, int]:
    m1 = rng.randint(total + 1)
    mw = rng.randint(total - m1 + 1)
    return m1, mw, total - m1 - mw


def _suite_lem4_4(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    total = rng.randint(n + 1)
    g, _ = gp(rng, n, _split_mults(rng, total))
    rep = gp_check(g)
    raw = rng.complex_gaussian(n, n)
    rep_neg = gp_check(raw)
    return (
        *(check_le(c.name, c.residual, _TIGHT) for c in rep.checks),
        check_ge("random_defect", rep_neg.residual("gp_defect"), _GP_NEG_FLOOR),
    )


def _suite_thm4_5(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    total = 1 + rng.randint(n)
    b, _ = gp(rng, n, _split_mults(rng, total))
    eye = np.eye(n, dtype=np.complex128)
    left = eye - b @ adj(b)
    right = eye - adj(b) @ b
    a = b + left @ rng.complex_gaussian(n, n) @ right
    x = gp_decompose(a, b)
    checks = [
        check_le("recon", eq_residual(b + left @ x @ right, a)),
        check_le("converse_star", _star_gap(b, a)),
    ]
    a_bad = a + 0.1 * (b @ adj(b) @ rng.complex_gaussian(n, n))
    crit = eq_residual((left, a_bad - b, right), a_bad - b)
    checks.append(_refuted("neg_criterion", crit))
    checks.append(_refuted("neg_star", _star_gap(b, a_bad)))
    checks.append(_refuted("neg_recon", eq_residual(b + left @ a_bad @ right, a_bad)))
    return tuple(checks)


def _suite_thm4_6(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    m1 = 1 + rng.randint(n - 1)
    rest = n - m1
    mw = rng.randint(rest + 1)
    mw2 = rng.randint(rest - mw + 1)
    a, u = gp(rng, n, (m1, mw, mw2))
    b = _sub_projector(rng, u, m1, 0)
    x, rep = meet_split(a, b)
    checks = [
        check_flag("pos_verdict", rep.verdict),
        check_le("split_sum", eq_residual(b + x, a @ adj(a))),
    ]
    jout = m1 + rng.randint(n - m1)
    v = u[:, jout]
    b_bad = b + 0.1 * np.outer(v, v.conj())
    checks.append(_refuted("neg_idempotent", idempotent_defect(b_bad)))
    checks.append(_refuted("neg_star", _star_gap(b_bad, a)))
    return tuple(checks)


def _suite_lem4_7(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    k = 1 + rng.randint(n - 1)
    w = unitary(rng, n)
    skew = 0.2 + 0.6 * float(rng.uniforms(1)[0])
    b_block = idempotent(rng, k, 1 + rng.randint(k), skew)
    x_block = idempotent(rng, n - k, rng.randint(n - k + 1), skew)
    emb_b = _zeros(n)
    emb_b[:k, :k] = b_block
    emb_x = _zeros(n)
    emb_x[k:, k:] = x_block
    b = w @ emb_b @ adj(w)
    a = w @ (emb_b + emb_x) @ adj(w)
    x, rep = idempotent_split(a, b)
    return (
        check_flag("pos_verdict", rep.verdict),
        check_le("pos_star", _star_gap(b, a)),
        *_split_negatives(rng, a, b),
    )


def _suite_cor4_8(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    total = 1 + rng.randint(n)
    a, u = gp(rng, n, _split_mults(rng, total))
    p = a @ adj(a)
    b = _sub_projector(rng, u, total, 0)
    _, rep = idempotent_split(p, b)
    return (
        check_le("aastar_idempotent", idempotent_defect(p)),
        check_flag("pos_verdict", rep.verdict),
        *_split_negatives(rng, p, b),
    )


def _suite_prop4_9(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    total = 1 + rng.randint(n)
    c, u = gp(rng, n, _split_mults(rng, total))
    b = _sub_projector(rng, u, total, 1)
    eye = np.eye(n, dtype=np.complex128)
    ib = eye - b
    a = b + ib @ rng.complex_gaussian(n, n) @ ib
    fc = factor(c)
    rep = common_lower_bound(a, fc, b)
    checks = [check_flag("pos_verdict", rep.verdict)]
    b_bad = 0.5 * b
    rep_neg = common_lower_bound(a, fc, b_bad)
    checks.append(check_flag("neg_agree", rep_neg.passed("sides_agree")))
    checks.append(
        check_flag(
            "neg_lhs_false",
            not (rep_neg.passed("lower_bound_of_a") and rep_neg.passed("lower_bound_of_ccstar")),
        )
    )
    checks.append(_refuted("neg_idempotent", rep_neg.residual("b_idempotent")))
    checks.append(_refuted("neg_star", _star_gap(b_bad, a)))
    return tuple(checks)


def _suite_inverse_along(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r = rng.randint(n + 1)
    a = rank_r(rng, n, n, r)
    ap = pinv(a)
    astar = adj(a)
    return (
        check_le("astar_a_pinv", eq_residual((astar, a, ap), astar), _TIGHT),
        check_le("pinv_a_astar", eq_residual((ap, a, astar), astar), _TIGHT),
        check_le("along_itself", eq_residual((a, ap, a), a), _TIGHT),
    )


def _suite_oracle_agreement(trial: int, n: int, rng: SplitMix64) -> tuple[Check, ...]:
    r = rng.randint(n + 1)
    a = rank_r(rng, n, n, r)
    fa = factor(a)
    ap = fa.pinv
    b_structured = (a @ ap) @ rng.complex_gaussian(n, n) @ (ap @ a)
    b_raw = rng.complex_gaussian(n, n)
    checks = []
    for name, b in (("structured", b_structured), ("raw", b_raw)):
        direct = system_criterion_residual(fa, b)
        oracle = lsq_oracle(a, b)[1]
        agree = DEFAULT_TOL.holds(direct) == DEFAULT_TOL.holds(oracle)
        checks.append(check_flag(f"{name}_agree", agree))
        # each path's residual lands cleanly on the side it decided
        for label, res in ((f"{name}_direct", direct), (f"{name}_oracle", oracle)):
            checks.append(check_le(label, res) if DEFAULT_TOL.holds(res) else _refuted(label, res))
    return tuple(checks)


# name -> (suite body, claim description); SUITE_NAMES keeps this order
_SUITES = {
    "penrose": (_suite_penrose, "defining pseudoinverse identities and adjoint compatibility"),
    "douglas": (_suite_douglas, "range criterion and affine family for a X = c"),
    "lem2.2": (_suite_lem2_2, "doubly included operators vanish on both null blocks"),
    "thm2.3": (_suite_thm2_3, "system solvability criterion vs. independent oracle"),
    "prop2.4": (_suite_prop2_4, "equivalent condition bundles for inner-inverse systems"),
    "prop3.3": (_suite_prop3_3, "pseudoinverses of either operand solve the system"),
    "prop3.4": (_suite_prop3_4, "order-plus-solution hypotheses collapse to equality"),
    "rem3.5": (_suite_rem3_5, "conclusions hold yet the order fails for (a+, a*, a)"),
    "thm3.6": (_suite_thm3_6, "solving the system is equivalent to star domination"),
    "lem3.7": (_suite_lem3_7, "criterion and affine family for a X b = c"),
    "thm3.8": (_suite_thm3_8, "collapsed four-term closed-form family solves the system"),
    "thm3.9": (_suite_thm3_9, "compression to and from the reduced two-equation system"),
    "thm3.11": (_suite_thm3_11, "hermitian solutions under hermitian compatibility"),
    "prop4.1": (_suite_prop4_1, "one-sided projector compression vs. gram commutation"),
    "prop4.2": (_suite_prop4_2, "two-sided projector compression vs. paired commutation"),
    "thm4.3": (_suite_thm4_3, "idempotent lower bounds via sandwich reconstruction"),
    "lem4.4": (_suite_lem4_4, "generalized projections: cube is the range projector"),
    "thm4.5": (_suite_thm4_5, "generalized-projection lower bounds via sandwich witness"),
    "thm4.6": (_suite_thm4_6, "gram splits into annihilating idempotents below the meet"),
    "lem4.7": (_suite_lem4_7, "idempotent splits characterize star lower bounds"),
    "cor4.8": (_suite_cor4_8, "gram of a generalized projection splits the same way"),
    "prop4.9": (_suite_prop4_9, "common lower bounds of an operator and a gram"),
    "inverse-along": (_suite_inverse_along, "pseudoinverse identities behind inverses along operators"),
    "oracle-agreement": (_suite_oracle_agreement, "direct criterion and least-squares oracle always agree"),
}

SUITE_NAMES = tuple(_SUITES)

SUITE_DESCRIPTIONS = {name: description for name, (_, description) in _SUITES.items()}


def run_suite(name: str, trials: int, dims: int, root_seed: int) -> list[Report]:
    """Run one registered suite; trial t draws from SplitMix64(Seed(root_seed, t))."""
    if name not in _SUITES:
        raise PreconditionError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    if not 2 <= dims <= 8:
        raise PreconditionError(f"dims must be between 2 and 8, got {dims}")
    body = _SUITES[name][0]
    reports = []
    for trial in range(trials):
        seed = Seed(root_seed, trial)
        checks = body(trial, dims, SplitMix64(seed))
        reports.append(Report(suite=name, trial=trial, checks=checks, seed=seed))
    return reports
