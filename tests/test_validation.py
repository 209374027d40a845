"""Validation contract: public entry points reject malformed input with
PreconditionError, and extreme magnitudes get the right answer or an error,
never a NaN residual."""

import re

import numpy as np
import pytest

from staralg import (
    NotComparableError,
    NumericError,
    PreconditionError,
    Seed,
    UnsolvableError,
    common_lower_bound,
    deng_decompose,
    douglas_solve,
    factor,
    gen_gp,
    gen_idempotent,
    gen_rank_r,
    gen_star_pair,
    gp_decompose,
    hermitian_defect,
    hermitian_system_solve,
    idempotent_defect,
    idempotent_split,
    lsq_oracle,
    meet_projector,
    meet_split,
    pbq_char,
    pinv,
    projector_char,
    prop_main_check,
    reduce_system,
    rel_residual,
    star_leq,
    star_residuals,
    sandwich_solve,
    solves_system,
    system_criterion_residual,
    system_family,
    system_general,
    system_solvable,
)
from staralg.cli import main, write_matrix
from staralg.matcore import eq_residual

GOOD = np.eye(3, dtype=np.complex128)
ZERO = np.zeros((3, 3), dtype=np.complex128)
ZERO4 = np.zeros((4, 4), dtype=np.complex128)

BAD = {
    "nan": np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.complex128),
    "inf": np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]], dtype=np.complex128),
    "one_d": np.ones(3, dtype=np.complex128),
    "empty": np.zeros((0, 3), dtype=np.complex128),
}

CALLS = {
    "pinv": lambda m: pinv(m),
    "factor": lambda m: factor(m),
    "rel_residual_e": lambda m: rel_residual(m, GOOD),
    "rel_residual_scale": lambda m: rel_residual(GOOD, m),
    "star_residuals_a": lambda m: star_residuals(m, GOOD),
    "star_residuals_b": lambda m: star_residuals(GOOD, m),
    "system_general_a": lambda m: system_general(m, GOOD, ZERO, ZERO),
    "system_general_b": lambda m: system_general(GOOD, m, ZERO, ZERO),
    "lsq_oracle_a": lambda m: lsq_oracle(m, GOOD),
    "lsq_oracle_b": lambda m: lsq_oracle(GOOD, m),
}


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_public_entry_points_reject_malformed_input(call, kind):
    with pytest.raises(PreconditionError):
        CALLS[call](BAD[kind])


NON_SQUARE = np.ones((2, 3), dtype=np.complex128)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hermitian_defect(NON_SQUARE),
        lambda: idempotent_defect(NON_SQUARE),
        lambda: system_solvable(np.eye(2), NON_SQUARE),
        lambda: system_solvable(NON_SQUARE, np.eye(2)),
    ],
    ids=["hermitian_defect", "idempotent_defect", "system_solvable_b", "system_solvable_a"],
)
def test_non_square_operands_are_precondition_errors(call):
    with pytest.raises(PreconditionError, match="square"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sandwich_solve(np.eye(2), np.eye(3), np.eye(2)), "c must be 2x2"),
        (lambda: meet_projector(np.eye(2), np.eye(3)), "projector shapes differ"),
        (lambda: projector_char(np.eye(2), np.eye(2), "up"), "side must be 'left' or 'right'"),
        (lambda: meet_split(2.0 * np.eye(2), np.eye(2)),
         r"^meet_split requires a to be a generalized projection; residual 7\.778e-01 \(res_rtol 1e-08\)$"),
        (lambda: gen_rank_r(0, 3, 0, Seed(1)), "dimensions must be >= 1"),
        (lambda: gen_star_pair(0, 0, 0, Seed(1)), "n must be >= 1"),
        (lambda: gen_gp(0, (0, 0, 0), Seed(1)), "n must be >= 1"),
        (lambda: gen_idempotent(0, 0, 0.5, Seed(1)), "n must be >= 1"),
        (lambda: gen_idempotent(3, 1, -0.5, Seed(1)), "skew must be >= 0"),
    ],
    ids=["sandwich_c_shape", "meet_shapes", "projector_side", "meet_split_gp", "gen_rank_r_dims",
         "gen_star_pair_n", "gen_gp_n", "gen_idempotent_n", "gen_idempotent_skew"],
)
def test_argument_rules_are_precondition_errors(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


NOT_GP = 2.0 * np.eye(2)  # a a = 4 I against a* = 2 I
NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "call, requirement",
    [
        (lambda: system_solvable(np.eye(2), NOT_HERMITIAN), "system_solvable requires b self-adjoint"),
        (lambda: deng_decompose(np.eye(2), NOT_GP), "deng_decompose requires c idempotent"),
        (lambda: idempotent_split(NOT_GP, np.eye(2)), "idempotent_split requires a idempotent"),
        (lambda: gp_decompose(np.eye(2), NOT_GP),
         "gp_decompose requires b to be a generalized projection"),
        (lambda: meet_split(NOT_GP, np.eye(2)), "meet_split requires a to be a generalized projection"),
        (lambda: common_lower_bound(np.eye(2), NOT_GP, np.eye(2)),
         "common_lower_bound requires c to be a generalized projection"),
        (lambda: reduce_system(np.eye(2), np.eye(2), np.zeros((2, 2))),
         "reduce_system requires x_big to solve the system"),
        (lambda: hermitian_system_solve(*[np.eye(2)] * 4, NOT_HERMITIAN),
         "hermitian_system_solve requires w hermitian"),
        # the projector checks name the operand, not yet the operation
        (lambda: projector_char(NOT_GP, np.eye(2), "left"), "p must be an orthogonal projector"),
        (lambda: pbq_char(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
         "range(q) must lie inside range(b*)"),
    ],
    ids=["system_solvable", "deng_decompose", "idempotent_split", "gp_decompose", "meet_split",
         "common_lower_bound", "reduce_system", "hermitian_system_solve", "projector_char", "pbq_char"],
)
def test_precondition_errors_name_operation_residual_and_threshold(call, requirement):
    """Each message reads as require_star_leq's: the operation and what it
    requires, then the residual (for a generalized projection, the worst of
    gp_check's) against res_rtol."""
    form = rf"^{re.escape(requirement)}; residual [1-9]\.[0-9]{{3}}e[+-][0-9]{{2}} \(res_rtol 1e-08\)$"
    with pytest.raises(PreconditionError, match=form):
        call()


@pytest.mark.parametrize("kind", ["nan", "inf"])
def test_rel_residual_rejects_non_finite_lists(kind):
    with pytest.raises(PreconditionError):
        rel_residual(BAD[kind].tolist(), GOOD.tolist())


@pytest.mark.parametrize("swap", [False, True])
def test_star_residuals_at_extreme_scale_get_the_right_answer(swap):
    # a a* would overflow at 1e160; star_residuals first scales by a power of two
    big, small = gen_star_pair(6, 2, 2, Seed(5))
    a, b = (big, small) if swap else (small, big)
    got = star_residuals(1e160 * a, 1e160 * b)
    if swap:
        assert got == pytest.approx(star_residuals(a, b), rel=1e-12)
    else:
        assert max(got) <= 1e-15


@pytest.mark.parametrize("call", [star_residuals, star_leq], ids=lambda f: f.__name__)
def test_residual_norm_overflow_on_finite_entries_gets_the_right_answer(call):
    # the entries and their products are finite, but the Frobenius norms overflow
    big, small = gen_star_pair(6, 2, 2, Seed(5))
    with np.errstate(over="ignore"):
        got = call(1e150 * small, 1e150 * big)
    if call is star_leq:
        assert got is True
    else:
        assert max(got) <= 1e-15


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_operations_that_do_not_prescale_get_the_right_answer_at_extreme_scale(scale):
    """Every norm here is a double, but its sum of squares is not; the
    Frobenius norm takes such a sum again on entries scaled by a power of two."""
    big, small = gen_star_pair(6, 2, 2, Seed(5))
    unrelated = gen_star_pair(6, 2, 2, Seed(6))[1]
    a, b, c = scale * big, scale * small, scale * unrelated
    with np.errstate(all="raise"):
        assert eq_residual((a, douglas_solve(a, b).particular), b) <= 1e-14
        with pytest.raises(UnsolvableError):
            douglas_solve(a, c)
        assert eq_residual((a, sandwich_solve(a, b, a).particular, a), b) <= 1e-14
        assert system_criterion_residual(a, b) <= 1e-15
        assert system_criterion_residual(a, c) == pytest.approx(
            system_criterion_residual(big, unrelated), rel=1e-9)
        hbig, hsmall = gen_star_pair(6, 1, 3, Seed(6), hermitian=True)
        assert system_solvable(scale * hbig, scale * hsmall)
        assert not system_solvable(scale * hbig, c + c.conj().T)
        assert prop_main_check(a, a, pinv(a)).verdict
        # a <=* t b fails for t != 1, even where |t b| / |a| is beyond 1e154
        assert not star_leq(small, scale * big)
        assert not star_leq(a, big)


def test_solves_system_with_tiny_entries_reads_the_misfit():
    """x = 0 leaves b x a = 0 against b; a sum of squares that underflows
    must not read that as 0.  At 1e-100 P every residual is 1.  At 1e-200 P
    the equations still read 1, while b b* = 1e-400 P underflows, so the two
    domination residuals read 0: no rescale of a norm sees a product that underflowed."""
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    for scale, dom in ((1e-100, 1.0), (1e-200, 0.0)):
        rep = solves_system(np.eye(4), scale * p, ZERO4)
        assert not rep.verdict
        assert (rep.residual("eq_bxa"), rep.residual("eq_axb")) == (1.0, 1.0)
        assert (rep.residual("dom_left"), rep.residual("dom_right")) == (dom, dom)


def test_system_family_of_an_unrelated_pair_overflowing_is_not_comparable():
    big = gen_star_pair(6, 2, 2, Seed(5))[0]
    unrelated = gen_star_pair(6, 2, 2, Seed(6))[1]
    with pytest.raises(NotComparableError) as info, np.errstate(over="ignore"):
        system_family(1e150 * big, 1e150 * unrelated)
    assert info.value.residuals == pytest.approx(star_residuals(unrelated, big), rel=1e-12)


def test_a_residual_beyond_the_double_range_is_a_numeric_error(tmp_path, capsys):
    """Every residual lies in [0, 1]; what can leave the double range is a
    product of finite operands: in solves_system(I, 1e200 P, 1e200 Q) the
    scale |a|^2 |x| |b| of the domination residual is about 1e401, and a
    generalized-projection check of 1e200 I forms a a = 1e400 I."""
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
    q = np.diag([0.0, 0.0, 1.0, 1.0]).astype(np.complex128)
    with pytest.raises(NumericError, match="beyond the double range"), \
            np.errstate(over="ignore", invalid="ignore"):
        solves_system(np.eye(4), 1e200 * p, 1e200 * q)
    path = tmp_path / "a.mat"
    write_matrix(path, 1e200 * np.eye(4))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["check", "gp", "--a", str(path)]) == 3
    assert "beyond the double range" in capsys.readouterr().err
