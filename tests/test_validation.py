"""Validation contract: public entry points reject malformed input with
PreconditionError, and extreme magnitudes get the right answer or an error,
never a NaN residual."""

import numpy as np
import pytest

from staralg import (
    NotComparableError,
    NumericError,
    PreconditionError,
    Seed,
    StaralgError,
    factor,
    gen_gp,
    gen_idempotent,
    gen_rank_r,
    gen_star_pair,
    hermitian_defect,
    idempotent_defect,
    lsq_oracle,
    meet_projector,
    meet_split,
    pinv,
    projector_char,
    rel_residual,
    star_leq,
    star_residuals,
    sandwich_solve,
    system_family,
    system_general,
    system_solvable,
)

GOOD = np.eye(3, dtype=np.complex128)
ZERO = np.zeros((3, 3), dtype=np.complex128)

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
        (lambda: meet_split(2.0 * np.eye(2), np.eye(2)), "a is not a generalized projection"),
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


@pytest.mark.parametrize("kind", ["nan", "inf"])
def test_rel_residual_rejects_non_finite_lists(kind):
    with pytest.raises(PreconditionError):
        rel_residual(BAD[kind].tolist(), GOOD.tolist())


@pytest.mark.parametrize("swap", [False, True])
def test_star_residuals_at_extreme_scale_raises_instead_of_nan(swap):
    big, small = gen_star_pair(6, 2, 2, Seed(5))
    a, b = (big, small) if swap else (small, big)
    with pytest.raises(StaralgError), np.errstate(over="ignore", invalid="ignore"):
        star_residuals(1e160 * a, 1e160 * b)


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


def test_system_family_of_an_unrelated_pair_overflowing_is_not_comparable():
    big = gen_star_pair(6, 2, 2, Seed(5))[0]
    unrelated = gen_star_pair(6, 2, 2, Seed(6))[1]
    with pytest.raises(NotComparableError) as info, np.errstate(over="ignore"):
        system_family(1e150 * big, 1e150 * unrelated)
    assert info.value.residuals == pytest.approx(star_residuals(unrelated, big), rel=1e-12)


def test_a_residual_beyond_the_double_range_is_a_numeric_error():
    e = np.full((2, 2), 1e308, dtype=np.complex128)  # ||e||_F = 2e308
    with pytest.raises(NumericError, match="overflows"), np.errstate(over="ignore"):
        rel_residual(e, np.zeros((2, 2)))
