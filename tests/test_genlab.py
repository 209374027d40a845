"""Generator determinism, hypothesis guarantees, and PRNG stream behavior."""

import numpy as np
import pytest

from staralg import (
    DEFAULT_TOL,
    PreconditionError,
    Seed,
    SplitMix64,
    adj,
    factor,
    gen_gp,
    gen_idempotent,
    gen_rank_r,
    gen_star_pair,
    gen_thm23_instance,
    gp_check,
    hermitian_defect,
    idempotent_defect,
    rel_residual,
    star_leq,
    system_criterion_residual,
)
from staralg.genlab import unitary


def test_seed_validation():
    with pytest.raises(PreconditionError):
        Seed(-1)
    with pytest.raises(PreconditionError):
        Seed(0, 1 << 64)
    Seed(0, (1 << 64) - 1)


def test_stream_splitting_is_consistent():
    # vectorized draws must agree with the same draws split across calls
    one = SplitMix64(Seed(5, 9)).u64(7)
    rng = SplitMix64(Seed(5, 9))
    two = np.concatenate([rng.u64(3), rng.u64(4)])
    assert np.array_equal(one, two)


def test_distinct_streams_differ():
    a = SplitMix64(Seed(5, 0)).u64(4)
    b = SplitMix64(Seed(5, 1)).u64(4)
    assert not np.array_equal(a, b)


def test_uniforms_in_half_open_unit_interval():
    u = SplitMix64(Seed(1)).uniforms(1000)
    assert np.all(u > 0) and np.all(u <= 1)


def test_normals_moments():
    z = SplitMix64(Seed(2)).normals(4000)
    assert abs(z.mean()) < 0.1
    assert abs(z.std() - 1.0) < 0.1


@pytest.mark.parametrize("maker", [
    lambda s: unitary(SplitMix64(s), 5),
    lambda s: gen_rank_r(4, 6, 2, s),
    lambda s: gen_star_pair(5, 2, 1, s)[0],
    lambda s: gen_gp(4, (1, 1, 1), s),
    lambda s: gen_idempotent(4, 2, 0.5, s),
])
def test_generators_are_bit_deterministic(maker):
    seed = Seed(42, 3)
    first = maker(seed)
    second = maker(seed)
    assert first.tobytes() == second.tobytes()


def test_gen_unitary():
    for n in (1, 3, 6):
        u = unitary(SplitMix64(Seed(10 + n)), n)
        eye = np.eye(n)
        assert rel_residual(adj(u) @ u - eye, eye) <= 1e-12
    scalar = unitary(SplitMix64(Seed(3)), 1)
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-12


def test_gen_rank_r_grid():
    for m, n in [(3, 3), (4, 6), (5, 2)]:
        for r in range(min(m, n) + 1):
            a = gen_rank_r(m, n, r, Seed(100 * m + 10 * n + r))
            assert factor(a).rank == r
            if r:
                s = np.linalg.svd(a, compute_uv=False)[:r]
                assert np.all(s >= 0.5 - 1e-9) and np.all(s <= 2.0 + 1e-9)
    with pytest.raises(PreconditionError):
        gen_rank_r(3, 3, 4, Seed(1))


def test_gen_star_pair_grid():
    n = 4
    seen_hermitian = set()
    for hermitian in (False, True):
        for r in range(n + 1):
            for k in range(n - r + 1):
                big, small = gen_star_pair(n, r, k, Seed(17), hermitian)
                assert star_leq(small, big)
                assert factor(small).rank == r
                assert factor(big).rank == r + k
                # the SVD form b+ = a+ b a+ relies on: small keeps r of big's
                # singular values, all in [0.5, 2]
                s_big = np.linalg.svd(big, compute_uv=False)[: r + k]
                s_small = np.linalg.svd(small, compute_uv=False)[:r]
                gaps = np.abs(s_small[:, None] - s_big[None, :]).min(axis=1, initial=np.inf)
                assert np.all(gaps <= 1e-12 * s_small)
                assert np.all((s_big >= 0.5 - 1e-12) & (s_big <= 2.0 + 1e-12))
                if hermitian:
                    assert hermitian_defect(big) <= 1e-12
                    assert hermitian_defect(small) <= 1e-12
                    mags = np.sort(np.abs(np.linalg.eigvalsh(big)))[n - r - k :]
                    assert np.all((mags >= 0.5 - 1e-12) & (mags <= 2.0 + 1e-12))
                seen_hermitian.add(hermitian)
    assert seen_hermitian == {False, True}
    with pytest.raises(PreconditionError):
        gen_star_pair(3, 2, 2, Seed(1))


def test_gen_star_pair_makes_one_qr_per_unitary(qr_calls):
    # U and V only: no further unitary is drawn inside the blocks
    n = 5
    for hermitian, expected in ((False, 2), (True, 1)):
        for r in range(n + 1):
            for k in range(n - r + 1):
                qr_calls.clear()
                gen_star_pair(n, r, k, Seed(50), hermitian)
                assert len(qr_calls) == expected


def test_gen_star_pair_degenerate():
    big, small = gen_star_pair(4, 0, 2, Seed(18))
    assert np.all(small == 0)
    big2, small2 = gen_star_pair(4, 3, 0, Seed(19))
    assert np.array_equal(big2, small2)
    del big


def test_gen_gp():
    g = gen_gp(5, (1, 1, 1), Seed(20))
    rep = gp_check(g)
    assert rep.verdict
    assert rep.residual("gp_defect") <= 1e-12
    proj = gen_gp(4, (3, 0, 0), Seed(21))
    assert hermitian_defect(proj) <= 1e-12
    assert idempotent_defect(proj) <= 1e-12
    assert np.all(gen_gp(3, (0, 0, 0), Seed(22)) == 0)
    with pytest.raises(PreconditionError):
        gen_gp(3, (2, 1, 1), Seed(23))


def test_gen_idempotent():
    q = gen_idempotent(4, 2, 0.5, Seed(24))
    assert idempotent_defect(q) <= 1e-10
    assert hermitian_defect(q) > 1e-3  # skewed away from an orthogonal projector
    q0 = gen_idempotent(4, 2, 0.0, Seed(25))
    assert hermitian_defect(q0) <= 1e-10
    assert np.allclose(gen_idempotent(3, 3, 0.5, Seed(26)), np.eye(3), atol=1e-10)
    with pytest.raises(PreconditionError):
        gen_idempotent(3, 4, 0.0, Seed(27))


def test_gen_thm23_instance():
    a = gen_rank_r(5, 5, 3, Seed(28))
    pos = gen_thm23_instance(a, True, Seed(29))
    assert hermitian_defect(pos) <= DEFAULT_TOL.res_rtol
    assert system_criterion_residual(a, pos) <= DEFAULT_TOL.res_rtol
    neg = gen_thm23_instance(a, False, Seed(29))
    assert hermitian_defect(neg) <= DEFAULT_TOL.res_rtol
    assert system_criterion_residual(a, neg) >= 1e-5


def test_gen_thm23_rejects_invertible_negative():
    a = gen_rank_r(3, 3, 3, Seed(30))
    with pytest.raises(PreconditionError):
        gen_thm23_instance(a, False, Seed(31))


def test_star_pair_rank_spread():
    n = 4
    ranks = set()
    for i in range(100):
        r = i % (n + 1)
        k = (i // (n + 1)) % (n - r + 1)
        big, small = gen_star_pair(n, r, k, Seed(40000 + i), hermitian=bool(i % 2))
        assert star_leq(small, big)
        ranks.add(r)
    assert ranks == set(range(n + 1))
