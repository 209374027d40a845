"""Pseudoinverse, projector, and residual-convention tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staralg import (
    DEFAULT_TOL,
    PreconditionError,
    Seed,
    SplitMix64,
    adj,
    as_cmat,
    factor,
    gen_rank_r,
    gen_star_pair,
    hermitian_defect,
    idempotent_defect,
    meet_projector,
    pinv,
    projectors,
    rel_residual,
    star_leq,
)
from staralg.genlab import unitary
from staralg.matcore import eq_residual


def seeded_matrices(count=200, max_dim=8):
    """Deterministic mix of shapes and ranks, including rank 0 and full."""
    for i in range(count):
        m = 1 + (i % max_dim)
        n = 1 + ((i // max_dim) % max_dim)
        r = i % (min(m, n) + 1)
        yield gen_rank_r(m, n, r, Seed(1000 + i)), r


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(2)), np.eye(2), atol=1e-14)


def test_pinv_zero_rectangular():
    out = pinv(np.zeros((2, 3)))
    assert out.shape == (3, 2)
    assert np.all(out == 0)


def test_pinv_nilpotent_shift():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    ap = pinv(a)
    assert np.allclose(ap, [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)
    # all four defining identities, by direct multiplication
    assert np.allclose(a @ ap @ a, a, atol=1e-14)
    assert np.allclose(ap @ a @ ap, ap, atol=1e-14)
    assert np.allclose(a @ ap, adj(a @ ap), atol=1e-14)
    assert np.allclose(ap @ a, adj(ap @ a), atol=1e-14)


def test_penrose_identities_across_ranks():
    for a, _ in seeded_matrices():
        ap = pinv(a)
        assert rel_residual(a @ ap @ a - a, a) <= 1e-10
        assert rel_residual(ap @ a @ ap - ap, ap) <= 1e-10
        assert hermitian_defect(a @ ap) <= 1e-10
        assert hermitian_defect(ap @ a) <= 1e-10


def test_pinv_involution():
    for a, _ in seeded_matrices(count=60):
        assert rel_residual(pinv(pinv(a)) - a, a) <= 1e-9


def test_pinv_adjoint_commutes():
    for a, _ in seeded_matrices(count=60):
        assert rel_residual(adj(pinv(a)) - pinv(adj(a)), adj(a)) <= 1e-10


def test_pinv_scale_hint_zeroes_noise():
    noise = 1e-15 * gen_rank_r(4, 4, 4, Seed(4))
    assert np.linalg.norm(pinv(noise)) > 1.0  # relative cutoff keeps noise
    assert np.all(factor(noise, scale=1.0).pinv == 0)


def test_rank_of():
    assert factor(np.zeros((3, 3))).rank == 0
    assert factor(np.eye(4)).rank == 4
    outer = np.outer([1.0, 1.0j, 2.0], [2.0, 1.0, 1.0])
    # rank-1 by construction; cross-check against a raw SVD count
    s = np.linalg.svd(outer, compute_uv=False)
    assert int(np.sum(s > 1e-12 * s[0] * 3)) == 1
    f = factor(outer)
    assert f.rank == 1
    assert f.cutoff == 1e-12 * f.s[0] * 3
    for a, r in seeded_matrices(count=80):
        assert factor(a).rank == r


def test_factor_of_a_factor_is_itself():
    a = gen_rank_r(5, 5, 3, Seed(61))
    f = factor(a)
    assert factor(f) is f
    assert as_cmat(f) is f.m
    assert pinv(f) is f.pinv


def test_factor_keeps_its_rank_hint():
    """The hint belongs to the Factor: passing it on keeps its rank decision."""
    a = np.diag([1.0, 1e-6, 1e-10, 0.0]).astype(complex)
    hinted = factor(a, scale=1e3)
    assert factor(hinted) is hinted
    assert factor(hinted, scale=5.0) is hinted  # the hint applies to arrays only
    assert (hinted.rank, hinted.cutoff) == (2, 4e-9)
    assert factor(a).rank == 3  # without the hint, 1e-10 would be kept


def test_pinv_is_the_factor_pinv():
    for a, _ in seeded_matrices(count=40):
        assert pinv(a).tobytes() == factor(a).pinv.tobytes()
        hinted = factor(a, scale=10.0)
        assert pinv(hinted) is hinted.pinv


def test_projectors_examples():
    p_r, p_cr, p_nl, p_nr = projectors(np.eye(2))
    assert np.allclose(p_r, np.eye(2), atol=1e-12)
    assert np.allclose(p_nl, 0, atol=1e-12)
    p_r, p_cr, p_nl, p_nr = projectors(np.diag([1.0, 0.0]))
    assert np.allclose(p_r, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(p_nr, np.diag([0.0, 1.0]), atol=1e-12)
    p_r, p_cr, _, _ = projectors([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(p_r, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(p_cr, np.diag([0.0, 1.0]), atol=1e-12)


def test_projector_invariants():
    for a, _ in seeded_matrices(count=60):
        p_r, p_cr, p_nl, p_nr = projectors(a)
        for p in (p_r, p_cr, p_nl, p_nr):
            assert hermitian_defect(p) <= 1e-10
            assert idempotent_defect(p) <= 1e-10
        assert rel_residual(p_r @ a - a, a) <= 1e-10
        assert rel_residual(a @ p_cr - a, a) <= 1e-10


def test_meet_projector_examples():
    eye = np.eye(3)
    assert np.allclose(meet_projector(eye, eye), eye, atol=1e-10)
    assert np.allclose(
        meet_projector(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 0, atol=1e-10
    )
    got = meet_projector(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]))
    assert np.allclose(got, np.diag([0.0, 1.0, 0.0]), atol=1e-10)


def test_meet_projector_dominated_by_both():
    for i in range(30):
        u = unitary(SplitMix64(Seed(3000 + i)), 5)
        v = unitary(SplitMix64(Seed(4000 + i)), 5)
        p = u[:, :3] @ adj(u[:, :3])
        q = v[:, :2] @ adj(v[:, :2])
        m = meet_projector(p, q)
        assert hermitian_defect(m) <= 1e-10
        assert idempotent_defect(m) <= 1e-10
        assert rel_residual(p @ m - m, m) <= 1e-8
        assert rel_residual(q @ m - m, m) <= 1e-8


def test_meet_projector_rejects_non_projector():
    with pytest.raises(PreconditionError):
        meet_projector(np.diag([2.0, 0.0]), np.eye(2))


def test_rel_residual_convention():
    """A bare quotient of norms: no unit clamp, so it is scale-free, exactly 0
    for a zero residual, and inf against a zero reference."""
    assert rel_residual(np.zeros((2, 2)), np.ones((2, 2))) == 0.0
    assert rel_residual(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert rel_residual(np.eye(2), np.eye(2)) == pytest.approx(1.0)
    e = np.array([[3.0, 4.0]])
    assert rel_residual(e, np.array([[0.0, 2.0]])) == pytest.approx(2.5)
    assert rel_residual(e, np.zeros((1, 2))) == np.inf
    for k in (-400, -40, 40, 400):
        assert rel_residual(np.ldexp(e, k), np.ldexp([[1.0, 2.0]], k)) == rel_residual(e, [[1.0, 2.0]])


def _fro(m):
    return float(np.linalg.norm(m))


HAND_BUILT = {
    1: lambda f: f[0],
    2: lambda f: f[0] @ f[1],
    5: lambda f: f[0] @ f[1] @ f[2] @ f[3] @ f[4],
}


@pytest.mark.parametrize("count", sorted(HAND_BUILT))
def test_eq_residual_is_the_hand_built_residual(count):
    """The normwise backward error: |lhs - rhs| over the product of the
    factors' norms plus |rhs|, or over |lhs| + |rhs| for one matrix."""
    rng = SplitMix64(Seed(11, count))
    factors = tuple(rng.complex_gaussian(4, 4) for _ in range(count))
    rhs = rng.complex_gaussian(4, 4)
    product = HAND_BUILT[count](factors)
    gap = _fro(product - rhs)
    backward = gap / (float(np.prod([_fro(f) for f in factors])) + _fro(rhs))
    assert eq_residual(factors, rhs) == pytest.approx(backward, rel=1e-13)
    assert eq_residual(product, rhs) == pytest.approx(gap / (_fro(product) + _fro(rhs)), rel=1e-13)


def test_eq_residual_lies_in_the_unit_interval():
    e = np.array([[3.0, 4.0j]])
    assert eq_residual(e, e.copy()) == 0.0
    assert eq_residual((np.zeros((1, 1)), e), np.zeros((1, 2))) == 0.0
    assert eq_residual(e, -e) == pytest.approx(1.0)
    assert eq_residual(e, np.zeros((1, 2))) == 1.0


def test_tol_holds_is_a_closed_threshold():
    assert DEFAULT_TOL.rank_rtol == 1e-12
    assert DEFAULT_TOL.res_rtol == 1e-8
    assert DEFAULT_TOL.holds(1e-8, 0.0)
    assert DEFAULT_TOL.holds()
    assert not DEFAULT_TOL.holds(0.0, 1.0000001e-8)
    assert not DEFAULT_TOL.holds(float("nan"))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=150.0), st.integers(min_value=1, max_value=4))
def test_star_leq_of_a_true_pair_is_scale_free_upward(exponent, root):
    big, small = gen_star_pair(6, 2, 2, Seed(root))
    t = 10.0**exponent
    with np.errstate(over="ignore"):
        assert star_leq(t * small, t * big)


def test_as_cmat_rejects_bad_input():
    with pytest.raises(PreconditionError):
        as_cmat([1.0, 2.0])
    with pytest.raises(PreconditionError):
        as_cmat([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        as_cmat([[np.inf]])
    with pytest.raises(PreconditionError):
        as_cmat(np.zeros((0, 2)))


def test_svd_reconstruction():
    for a, _ in seeded_matrices(count=40):
        f = factor(a)
        k = f.s.size
        rebuilt = (f.u[:, :k] * f.s) @ f.vh[:k, :]
        assert rel_residual(rebuilt - a, a) <= 1e-12
        assert np.all(np.diff(f.s) <= 1e-15)
        assert np.all(f.s >= 0)
