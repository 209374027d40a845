"""Characterization tests: projector compressions, idempotent and
generalized-projection splits."""

import cmath

import numpy as np
import pytest

from staralg import (
    DEFAULT_TOL,
    PreconditionError,
    Seed,
    SplitMix64,
    UnsolvableError,
    adj,
    common_lower_bound,
    deng_decompose,
    gen_gp,
    gen_idempotent,
    gen_star_pair,
    gp_check,
    gp_decompose,
    idempotent_split,
    meet_split,
    pbq_char,
    pinv,
    projector_char,
    rel_residual,
    star_leq,
)
from staralg.genlab import unitary

RES = DEFAULT_TOL.res_rtol
OMEGA = cmath.exp(2j * cmath.pi / 3)


# --- one- and two-sided projector compressions -------------------------------


def test_projector_char_range_projector():
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    p = b @ pinv(b)
    rep = projector_char(p, b, "left")
    assert rep.verdict


def test_projector_char_diagonal_positive():
    rep = projector_char(np.diag([1.0, 0.0]), np.diag([1.0, 2.0]), "left")
    assert rep.verdict


def test_projector_char_shear_negative():
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    rep = projector_char(np.diag([1.0, 0.0]), b, "left")
    assert not rep.passed("commute")
    assert not (rep.passed("star_left") and rep.passed("star_right"))
    assert rep.passed("sides_agree")


def test_projector_char_right_side():
    b = np.diag([1.0, 2.0])
    rep = projector_char(np.diag([0.0, 1.0]), b, "right")
    assert rep.verdict


def test_projector_char_preconditions():
    with pytest.raises(PreconditionError):
        projector_char(np.diag([2.0, 0.0]), np.eye(2), "left")
    with pytest.raises(PreconditionError):
        projector_char(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), "left")


@pytest.mark.parametrize(
    "call",
    [
        lambda: projector_char(np.eye(3), np.ones((3, 4)), "right"),
        lambda: projector_char(np.eye(3), np.ones((4, 3)), "left"),
        lambda: pbq_char(np.ones((3, 3)) / 3, np.ones((3, 4)), np.eye(3)),
    ],
    ids=["right", "left", "pbq"],
)
def test_projector_size_mismatch_is_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="row dimensions differ"):
        call()


def test_pbq_char_full_projectors():
    b = np.array([[1.0, 2.0], [0.0, 1.0]])
    p = b @ pinv(b)
    q = pinv(b) @ b
    rep = pbq_char(p, b, q)
    assert rep.verdict


def test_pbq_char_zero_projector():
    b = np.diag([1.0, 2.0])
    rep = pbq_char(np.zeros((2, 2)), b, pinv(b) @ b)
    assert rep.verdict  # the zero compression is below everything


def test_pbq_char_seeded_agreement():
    rng = SplitMix64(Seed(90))
    for i in range(100):
        b = gen_star_pair(5, 3, 0, Seed(14000 + i))[0]
        g = rng.complex_gaussian(5, 2)
        w1, _ = np.linalg.qr(b @ g)
        w2, _ = np.linalg.qr(adj(b) @ g)
        p = w1[:, :1] @ adj(w1[:, :1])
        q = w2[:, :1] @ adj(w2[:, :1])
        rep = pbq_char(p, b, q)
        assert rep.passed("sides_agree")


# --- idempotent lower bounds via sandwich reconstruction ---------------------


def test_deng_equal_pair_contains_zero():
    c = gen_idempotent(4, 2, 0.5, Seed(91))
    fam = deng_decompose(c, c)
    assert np.linalg.norm(fam.particular) <= 1e-10


def test_deng_zero_idempotent():
    rng = SplitMix64(Seed(92))
    a = rng.complex_gaussian(3, 3)
    fam = deng_decompose(a, np.zeros((3, 3)))
    assert np.allclose(fam.particular, a, atol=1e-12)
    assert np.allclose(fam.instantiate([rng.complex_gaussian(3, 3)]), a, atol=1e-12)


def test_deng_diagonal():
    c = np.diag([1.0, 0.0])
    a = np.diag([1.0, 5.0])
    fam = deng_decompose(a, c)
    outer = np.eye(2) - adj(c)
    x = fam.particular
    assert np.allclose(outer @ x @ outer, np.diag([0.0, 5.0]), atol=1e-12)
    assert rel_residual(a - c - outer @ x @ outer, a) <= RES


def test_deng_requires_idempotent():
    with pytest.raises(PreconditionError):
        deng_decompose(np.eye(2), np.diag([0.5, 0.0]))


def test_deng_unsolvable_signals_order_failure():
    c = np.diag([1.0, 0.0])
    a = np.diag([2.0, 0.0])  # not above c in the star order
    assert not star_leq(c, a)
    with pytest.raises(UnsolvableError):
        deng_decompose(a, c)


def test_deng_converse_roundtrip():
    rng = SplitMix64(Seed(93))
    for i in range(20):
        n = 4
        c = gen_idempotent(n, 1 + i % n, 0.4, Seed(15000 + i))
        outer = np.eye(n) - adj(c)
        a = c + outer @ rng.complex_gaussian(n, n) @ outer
        assert star_leq(c, a)
        fam = deng_decompose(a, c)
        x = fam.instantiate([rng.complex_gaussian(n, n)])
        assert rel_residual(a - c - outer @ x @ outer, a) <= RES


# --- generalized projections --------------------------------------------------


def test_gp_check_orthogonal_projector():
    assert gp_check(np.diag([1.0, 1.0, 0.0])).verdict


def test_gp_check_cube_root_diagonal():
    a = np.diag([OMEGA, 0.0])
    rep = gp_check(a)
    assert rep.verdict
    assert np.allclose(a @ a, adj(a), atol=1e-14)


def test_gp_check_rejects_scaled_projector():
    rep = gp_check(np.diag([2.0, 0.0]))
    assert not rep.verdict
    assert rep.residual("gp_defect") > 1e-2


def test_gp_decompose_equal():
    b = gen_gp(4, (1, 1, 0), Seed(94))
    x = gp_decompose(b, b)
    left = np.eye(4) - b @ adj(b)
    right = np.eye(4) - adj(b) @ b
    assert rel_residual(b - b - left @ x @ right, b) <= 1e-12


def test_gp_decompose_zero_bound():
    rng = SplitMix64(Seed(95))
    a = rng.complex_gaussian(3, 3)
    x = gp_decompose(a, np.zeros((3, 3)))
    assert np.allclose(x, a)


def test_gp_decompose_diagonal():
    b = np.diag([OMEGA, 0.0])
    a = np.diag([OMEGA, 7.0])
    x = gp_decompose(a, b)
    left = np.eye(2) - b @ adj(b)
    right = np.eye(2) - adj(b) @ b
    assert rel_residual(a - b - left @ x @ right, a) <= 1e-12


def test_gp_decompose_preconditions():
    with pytest.raises(PreconditionError):
        gp_decompose(np.eye(2), np.diag([2.0, 0.0]))
    with pytest.raises(PreconditionError):
        gp_decompose(np.diag([5.0, 1.0]), np.diag([OMEGA, 0.0]))


# --- splits into annihilating idempotents ------------------------------------


def test_meet_split_zero_bound():
    a = gen_gp(4, (1, 1, 1), Seed(96))
    x, rep = meet_split(a, np.zeros((4, 4)))
    assert rep.verdict
    gram = a @ adj(a)
    assert np.allclose(x, gram, atol=1e-12)
    assert rel_residual(gram @ gram - gram, gram) <= RES


def test_meet_split_cube_root_diagonal():
    a = np.diag([1.0, OMEGA, 0.0])
    b = np.diag([1.0, 0.0, 0.0])
    x, rep = meet_split(a, b)
    assert np.allclose(x, np.diag([0.0, 1.0, 0.0]), atol=1e-12)
    assert rep.verdict


def test_meet_split_full_gram_bound():
    a = np.diag([1.0, 1.0, 0.0])  # orthogonal projector, so a GP with gram a
    x, rep = meet_split(a, a @ adj(a))
    assert np.allclose(x, 0, atol=1e-12)
    assert rep.verdict


def test_meet_split_requires_both_orders():
    # the candidate bound lives on the omega eigenslot, where a and a* disagree
    a = np.diag([OMEGA, 0.0])
    b = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError):
        meet_split(a, b)


def test_idempotent_split_equal():
    a = gen_idempotent(4, 2, 0.5, Seed(97))
    x, rep = idempotent_split(a, a)
    assert np.allclose(x, 0, atol=1e-12)
    assert rep.verdict


def test_idempotent_split_diagonal():
    x, rep = idempotent_split(np.eye(2), np.diag([1.0, 0.0]))
    assert np.allclose(x, np.diag([0.0, 1.0]), atol=1e-14)
    assert rep.verdict


def test_idempotent_split_detects_non_bound():
    x, rep = idempotent_split(np.eye(2), np.diag([0.5, 0.0]))
    assert not rep.passed("b_idempotent")
    assert rep.passed("star_matches_certificates")
    del x


def test_idempotent_split_requires_idempotent_a():
    with pytest.raises(PreconditionError):
        idempotent_split(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))


# --- common lower bounds ------------------------------------------------------


def test_common_lower_bound_zero():
    rng = SplitMix64(Seed(98))
    a = rng.complex_gaussian(2, 2)
    c = gen_gp(2, (1, 1, 0), Seed(99))
    rep = common_lower_bound(a, c, np.zeros((2, 2)))
    assert rep.verdict


def test_common_lower_bound_diagonal():
    c = np.diag([1.0, OMEGA])
    rep = common_lower_bound(np.eye(2), c, np.diag([1.0, 0.0]))
    assert rep.verdict


def test_common_lower_bound_negative_agrees():
    c = np.diag([1.0, OMEGA])
    rep = common_lower_bound(np.eye(2), c, np.diag([0.5, 0.0]))
    assert not rep.passed("lower_bound_of_a")
    assert not rep.passed("b_idempotent")
    assert rep.passed("sides_agree")


def test_common_lower_bound_requires_gp():
    with pytest.raises(PreconditionError):
        common_lower_bound(np.eye(2), np.diag([2.0, 0.0]), np.zeros((2, 2)))


# --- proof byproducts ---------------------------------------------------------


def test_meet_split_absorption_identities():
    # the split's proof chain also gives a b = b a = a* b = b a* = b
    u = unitary(SplitMix64(Seed(100)), 5)
    d = np.array([1.0, 1.0, OMEGA, 0.0, 0.0], dtype=complex)
    a = (u * d) @ adj(u)
    b = u[:, :1] @ adj(u[:, :1])
    _, rep = meet_split(a, b)
    for name in ("ab_absorb", "ba_absorb", "astar_b_absorb", "b_astar_absorb"):
        assert rep.passed(name)


def test_gp_check_verdict_on_diagonals():
    assert gp_check(np.diag([1.0, OMEGA, 0.0])).verdict
    assert not gp_check(np.diag([1.5, 0.0, 0.0])).verdict
