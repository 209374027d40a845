"""Solution-family and system-solver tests, including the closed-form family."""

import threading

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
    douglas_solve,
    factor,
    gen_rank_r,
    gen_gp,
    gen_idempotent,
    gen_star_pair,
    gen_thm23_instance,
    gp_check,
    hermitian_defect,
    hermitian_system_solve,
    lsq_oracle,
    pbq_char,
    pinv,
    projector_char,
    projectors,
    prop_main_check,
    range_inclusion_residual,
    reduce_system,
    rel_residual,
    sandwich_solve,
    solves_system,
    star_residuals,
    system_criterion_residual,
    system_family,
    system_general,
    system_hermitian,
    system_solvable,
)
from staralg.genlab import unitary
from staralg.matcore import eq_residual

RES = DEFAULT_TOL.res_rtol


def zeros(n):
    return np.zeros((n, n), dtype=complex)


# --- douglas_solve -----------------------------------------------------------


def test_douglas_identity_left():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    fam = douglas_solve(np.eye(2), c)
    assert np.allclose(fam.particular, c, atol=1e-14)
    # kernel map is trivial: any parameter reproduces the particular solution
    assert np.allclose(fam.instantiate([np.ones((2, 2))]), c, atol=1e-14)


def test_douglas_zero_rhs():
    a = gen_rank_r(4, 4, 2, Seed(61))
    fam = douglas_solve(a, zeros(4))
    assert np.allclose(fam.particular, 0, atol=1e-14)
    rng = SplitMix64(Seed(62))
    x = fam.instantiate([rng.complex_gaussian(4, 4)])
    assert eq_residual((a, x), 0) <= RES


def test_douglas_diagonal():
    fam = douglas_solve(np.diag([1.0, 0.0]), np.diag([3.0, 0.0]))
    assert np.allclose(fam.particular, np.diag([3.0, 0.0]), atol=1e-14)
    t = np.array([[5.0, 6.0], [7.0, 8.0]])
    x = fam.instantiate([t])
    # the free parameter only moves the null-space rows
    assert np.allclose(x[0], [3.0, 0.0], atol=1e-14)
    assert np.allclose(x[1], [7.0, 8.0], atol=1e-14)


def test_douglas_unsolvable():
    with pytest.raises(UnsolvableError) as excinfo:
        douglas_solve(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert excinfo.value.residual > 1e-5
    # the message names the threshold the residual failed
    assert str(excinfo.value).endswith(f"{excinfo.value.residual:.3e} > res_rtol 1e-08")


def test_douglas_soundness_and_zero_instantiation():
    rng = SplitMix64(Seed(63))
    for i in range(100):
        n = 2 + i % 5
        a = gen_rank_r(n, n, i % (n + 1), Seed(7000 + i))
        c = a @ rng.complex_gaussian(n, n)
        fam = douglas_solve(a, c)
        assert np.array_equal(fam.instantiate([zeros(n)]), fam.particular)
        for _ in range(5):
            x = fam.instantiate([rng.complex_gaussian(n, n)])
            assert rel_residual(a @ x - c, c) <= RES


def test_family_validates_parameters():
    fam = douglas_solve(np.eye(2), np.eye(2))
    with pytest.raises(PreconditionError):
        fam.instantiate([])
    with pytest.raises(PreconditionError):
        fam.instantiate([np.ones((3, 3))])


# --- sandwich_solve ----------------------------------------------------------


def test_sandwich_identity_sides():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    fam = sandwich_solve(np.eye(2), c, np.eye(2))
    assert np.allclose(fam.particular, c, atol=1e-14)
    assert np.allclose(fam.instantiate([np.ones((2, 2))]), c, atol=1e-14)


def test_sandwich_projector_case():
    a = np.diag([1.0, 0.0])
    fam = sandwich_solve(a, a, a)
    assert np.allclose(fam.particular, np.diag([1.0, 0.0]), atol=1e-14)
    assert rel_residual(a @ fam.particular @ a - a, a) <= RES


def test_sandwich_unsolvable():
    with pytest.raises(UnsolvableError):
        sandwich_solve(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2))


def test_sandwich_keeps_a_hinted_factor_at_rank_zero():
    # I - c* for a full-rank idempotent c is rounding noise: its hinted Factor
    # has rank 0, and passing it on must not invert the noise
    c = gen_idempotent(4, 4, 0.5, Seed(1))
    outer = np.eye(4) - adj(c)
    assert 0 < np.linalg.norm(outer) < 1e-14 and factor(outer).rank == 4
    fo = factor(outer, scale=1.0)
    assert fo.rank == 0
    fam = sandwich_solve(fo, zeros(4), fo)
    u = SplitMix64(Seed(2)).complex_gaussian(4, 4)
    assert np.all(fam.particular == 0)
    assert np.array_equal(fam.instantiate([u]), u)  # a+ a u b b+ is exactly zero


def test_sandwich_soundness():
    rng = SplitMix64(Seed(64))
    for i in range(100):
        n = 2 + i % 5
        a = gen_rank_r(n, n, 1 + i % n, Seed(8000 + i))
        b = gen_rank_r(n, n, 1 + (i // 2) % n, Seed(8500 + i))
        c = a @ rng.complex_gaussian(n, n) @ b
        fam = sandwich_solve(a, c, b)
        assert np.array_equal(fam.instantiate([zeros(n)]), fam.particular)
        for _ in range(5):
            x = fam.instantiate([rng.complex_gaussian(n, n)])
            assert rel_residual(a @ x @ b - c, c) <= RES


# --- system solvability ------------------------------------------------------


def test_system_solvable_examples():
    rng = SplitMix64(Seed(65))
    h = rng.hermitian_gaussian(3)
    assert system_solvable(np.eye(3), h)
    assert not system_solvable(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert system_solvable(np.diag([1.0, 0.0]), np.diag([3.0, 0.0]))


@pytest.mark.parametrize("n", [8, 64, 300])
def test_system_criterion_reads_the_relative_defect_at_every_rank(n):
    """b is a Hermitian compression onto the meet of range(a) and range(a*)
    plus a tilt w w* with w in null(a*), sized to a relative defect
    |P b Q - b| / |b| of about 1e-5.  The criterion compresses b by the
    projectors P, Q themselves, so it reads half that defect whatever the
    rank and conditioning of a, and the system is unsolvable."""
    a = gen_rank_r(n, n, 3 * n // 4, Seed(83, n))
    p, q, null_adj, _ = projectors(a)
    b = gen_thm23_instance(a, True, Seed(84, n))
    w = null_adj @ SplitMix64(Seed(85, n)).complex_gaussian(n, 1)
    b = b + 1e-5 * np.linalg.norm(b) * (w @ adj(w)) / np.vdot(w, w).real
    defect = np.linalg.norm(p @ b @ q - b) / np.linalg.norm(b)
    assert 0.5e-5 <= defect <= 1e-5
    assert not system_solvable(a, b)
    assert 0.4 * defect <= system_criterion_residual(a, b) <= 0.6 * defect


def test_system_solvable_requires_selfadjoint():
    with pytest.raises(PreconditionError):
        system_solvable(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_system_family_diagonal():
    a = np.diag([1.0, 2.0])
    b = np.diag([1.0, 0.0])
    fam = system_family(a, b)
    xa = pinv(a)
    assert np.allclose(xa, np.diag([1.0, 0.5]), atol=1e-14)
    assert np.allclose(b @ xa @ a, b, atol=1e-14)
    xb = fam.particular
    assert np.allclose(xb, np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(a @ xb @ b, b, atol=1e-14)


def test_system_family_requires_order():
    with pytest.raises(PreconditionError):
        system_family(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))


# --- the closed-form family --------------------------------------------------


def test_system_general_collapses_when_operands_equal():
    a = gen_rank_r(5, 5, 3, Seed(66))
    rng = SplitMix64(Seed(67))
    s, t = rng.complex_gaussian(5, 5), rng.complex_gaussian(5, 5)
    x = system_general(a, a, s, t)
    ap = pinv(a)
    expected = ap + t - ap @ a @ t @ a @ ap
    assert np.allclose(x, expected, atol=1e-12)
    assert rel_residual(a @ x @ a - a, a) <= RES


def test_system_general_zero_b():
    a = gen_rank_r(4, 4, 2, Seed(68))
    rng = SplitMix64(Seed(69))
    x = system_general(a, zeros(4), rng.complex_gaussian(4, 4), rng.complex_gaussian(4, 4))
    z = zeros(4)
    assert rel_residual(z @ x @ a - z, z) <= RES
    assert rel_residual(a @ x @ z - z, z) <= RES


def test_system_general_seeded_pair_particular():
    big, small = gen_star_pair(5, 2, 2, Seed(7))
    x = system_general(big, small, zeros(5), zeros(5))
    assert rel_residual(small @ x @ big - small, small) <= 1e-9
    assert rel_residual(big @ x @ small - small, small) <= 1e-9


def _eight_term_reference(a, b, s, t):
    """The paper's eight-term family, term by term, with (a - b)+ from its own SVD."""
    n = a.shape[0]
    ap, bp = pinv(a), pinv(b)
    d = a - b
    dp = factor(d, scale=float(max(np.linalg.norm(a), np.linalg.norm(b)))).pinv
    eye = np.eye(n, dtype=complex)
    p_ra, p_cra, p_rb = a @ ap, ap @ a, b @ bp
    return (
        ap @ b @ bp
        + ap @ ((eye - p_ra) @ b + d @ s) @ dp
        + t
        - p_cra @ t @ d @ dp
        - ap @ (eye - p_ra) @ b @ dp @ p_rb
        - ap @ d @ s @ dp @ p_rb
        - p_cra @ t @ p_rb
        + p_cra @ t @ d @ dp @ p_rb
    )


def _seeded_pairs():
    for i in range(50):
        n = 3 + i % 4
        r = 1 + i % (n - 1)
        k = (i // 3) % (n - r + 1)
        yield gen_star_pair(n, r, k, Seed(9000 + i))


def test_system_general_soundness_random_parameters():
    rng = SplitMix64(Seed(70))
    for big, small in _seeded_pairs():
        n = big.shape[0]
        for _ in range(3):
            x = system_general(big, small, rng.complex_gaussian(n, n), rng.complex_gaussian(n, n))
            assert rel_residual(small @ x @ big - small, small) <= RES
            assert rel_residual(big @ x @ small - small, small) <= RES


def test_system_general_matches_eight_term_reference():
    rng = SplitMix64(Seed(82))
    cases = list(_seeded_pairs())
    a = gen_rank_r(5, 5, 3, Seed(66))
    cases += [(a, a), (a, zeros(5))]
    for big, small in cases:
        n = big.shape[0]
        s, t = rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)
        gap = np.linalg.norm(system_general(big, small, s, t) - _eight_term_reference(big, small, s, t))
        assert gap <= 1e-12 * max(1.0, float(np.linalg.norm(big)))


def test_system_general_requires_order():
    with pytest.raises(PreconditionError):
        system_general(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), zeros(2), zeros(2))
    with pytest.raises(PreconditionError):
        system_general(np.eye(2), np.eye(2), np.ones((3, 3)), zeros(2))


def test_system_general_family_is_complete_at_small_dims():
    # stretch check: the affine family's dimension matches the dimension of
    # the full solution set recovered independently from the vectorized system
    for n, r, k, root in [(2, 1, 1, 1), (2, 1, 0, 2), (2, 0, 1, 3), (2, 2, 0, 4), (3, 1, 1, 5)]:
        big, small = gen_star_pair(n, r, k, Seed(root))
        scale = max(1.0, float(np.linalg.norm(big)))
        rows = np.vstack([np.kron(big.T, small), np.kron(small.T, big)])
        sv = np.linalg.svd(rows, compute_uv=False)
        solset_dim = 2 * (n * n - int(np.sum(sv > 1e-9 * scale)))
        x0 = system_general(big, small, zeros(n), zeros(n))
        cols = []
        for i in range(n):
            for j in range(n):
                for val in (1.0, 1.0j):
                    e = np.zeros((n, n), dtype=complex)
                    e[i, j] = val
                    cols.append((system_general(big, small, e, zeros(n)) - x0).flatten())
                    cols.append((system_general(big, small, zeros(n), e) - x0).flatten())
        span = np.array(cols).T
        span_real = np.vstack([span.real, span.imag])
        sv_fam = np.linalg.svd(span_real, compute_uv=False)
        family_dim = int(np.sum(sv_fam > 1e-9 * scale))
        assert family_dim == solset_dim


def test_system_family_particular_is_pinv_b():
    """Under b <=* a, b+ = a+ b a+ (simultaneous SVD, Hartwig & Drazin 1978):
    the family reads b+ off the one factor of a."""
    for big, small in _seeded_pairs():
        fam = system_family(big, small)
        ap = pinv(big)
        assert fam.particular.tobytes() == (ap @ small @ ap).tobytes()
        bp = pinv(small)
        assert np.linalg.norm(fam.particular - bp) <= 1e-12 * np.linalg.norm(bp)


@pytest.mark.parametrize("sigma", [3e-12, 1e-11])
def test_system_family_at_a_rank_straddle(sigma):
    """a = U diag(1, 0.7, sigma, 0, 0, 0) V* and b = U diag(0, 0, sigma, 0, 0, 0) V*.
    At sigma = 3e-12 a's cutoff drops sigma while b's keeps it, so a+ b a+
    would be 0: b is factored for b+, and a+ takes its part on range(b)
    from b+.  At 1e-11 both keep it.  Either way the particular is b+, it
    solves the system, X = 0 does not, and so does every member with s = 0.
    At the straddle a member with random s solves too; at 1e-11 it does
    not, since a+ - b+ cancels two values of size 1/sigma that the SVD of
    a holds to u / sigma relative (a conditioning limit, not a straddle)."""
    rng = SplitMix64(Seed(7))
    u, v = unitary(rng, 6), unitary(rng, 6)
    a = (u[:, :3] * [1.0, 0.7, sigma]) @ adj(v[:, :3])
    b = (u[:, 2:3] * sigma) @ adj(v[:, 2:3])
    straddle = sigma == 3e-12
    assert (factor(a).rank < 3) == straddle
    fam = system_family(a, b)
    assert np.linalg.norm(fam.particular) == pytest.approx(1.0 / sigma, rel=1e-4)
    assert solves_system(a, b, fam.particular).verdict
    rep = solves_system(a, b, zeros(6))
    assert not rep.verdict
    assert rep.residual("eq_bxa") == 1.0
    for _ in range(3):
        s, t = rng.complex_gaussian(6, 6), rng.complex_gaussian(6, 6)
        assert solves_system(a, b, fam.instantiate([zeros(6), t])).verdict
        if straddle:
            assert solves_system(a, b, fam.instantiate([s, t])).verdict


def test_family_of_near_star_pairs_keeps_the_verdicts():
    """A pair that satisfies b <=* a only to about 1e-9 moves a+ b a+ away
    from b+ by about that residual times cond(a); every member built from
    a+ b a+ gets the same solves_system verdict as the member built from the
    reference b+ = pinv(b)."""
    rng = SplitMix64(Seed(95))
    for big, small in _seeded_pairs():
        n = big.shape[0]
        # tilt both sides of b: its rank stays, so pinv(b) stays well defined
        left, right = rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)
        left = np.eye(n) + 1e-9 * left / np.linalg.norm(left)
        right = np.eye(n) + 1e-9 * right / np.linalg.norm(right)
        small = left @ small @ right
        order = max(star_residuals(small, big))
        assert 1e-10 <= order <= RES
        fam = system_family(big, small)
        ap = pinv(big)
        bp = pinv(small)
        dp = ap - bp
        for s, t in ((zeros(n), zeros(n)), (rng.complex_gaussian(n, n), rng.complex_gaussian(n, n))):
            ref = bp + (dp @ (big - small)) @ s @ dp + t - (ap @ big) @ t @ (big @ ap)
            got = fam.instantiate([s, t])
            assert solves_system(big, small, got).verdict == solves_system(big, small, ref).verdict


def test_system_family_instantiate_matches_system_general():
    rng = SplitMix64(Seed(83))
    a = gen_rank_r(5, 5, 3, Seed(66))
    for big, small in [*_seeded_pairs(), (a, a), (a, zeros(5))]:
        n = big.shape[0]
        fam = system_family(big, small)
        for s, t in ((zeros(n), zeros(n)), (rng.complex_gaussian(n, n), rng.complex_gaussian(n, n))):
            assert fam.instantiate([s, t]).tobytes() == system_general(big, small, s, t).tobytes()


def test_system_family_factors_each_operand_once(svd_calls):
    big, small = gen_star_pair(6, 2, 2, Seed(84))
    rng = SplitMix64(Seed(85))
    draws = [(rng.complex_gaussian(6, 6), rng.complex_gaussian(6, 6)) for _ in range(6)]
    svd_calls.clear()
    fam = system_family(big, small)
    assert len(svd_calls) == 1
    for s, t in draws:
        fam.instantiate([s, t])
    assert len(svd_calls) == 1


def test_system_family_first_instantiate_is_thread_safe(svd_calls):
    big, small = gen_star_pair(48, 16, 16, Seed(86))
    rng = SplitMix64(Seed(87))
    s, t = rng.complex_gaussian(48, 48), rng.complex_gaussian(48, 48)
    svd_calls.clear()
    fam = system_family(big, small)
    start = threading.Barrier(2)
    results = [None, None]

    def work(k):
        start.wait()
        results[k] = fam.instantiate([s, t])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(svd_calls) == 1
    assert results[0].tobytes() == results[1].tobytes()
    assert results[0].tobytes() == system_general(big, small, s, t).tobytes()


def test_system_family_rejects_bad_parameters():
    fam = system_family(*gen_star_pair(3, 1, 1, Seed(88)))
    with pytest.raises(PreconditionError):
        fam.instantiate([zeros(3)])
    with pytest.raises(PreconditionError):
        fam.instantiate([zeros(3), zeros(3), zeros(3)])
    with pytest.raises(PreconditionError):
        fam.instantiate([zeros(3), np.ones((3, 2))])
    with pytest.raises(PreconditionError):
        system_family(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))


# --- diagnostics -------------------------------------------------------------


def test_solves_system_zero_b():
    a = gen_rank_r(4, 4, 3, Seed(72))
    rng = SplitMix64(Seed(73))
    rep = solves_system(a, zeros(4), rng.complex_gaussian(4, 4))
    assert rep.verdict


def test_solves_system_particular_solution():
    big, small = gen_star_pair(5, 2, 1, Seed(74))
    x = pinv(big)
    rep = solves_system(big, small, x)
    assert rep.verdict
    assert rep.passed("solves_matches_dominance")


def test_solves_system_non_solution():
    rep = solves_system(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]), zeros(2))
    assert not rep.passed("eq_bxa")
    assert not rep.passed("dom_left") or not rep.passed("dom_right")
    assert rep.passed("solves_matches_dominance")


def test_reduce_system_identity():
    rng = SplitMix64(Seed(75))
    b = rng.complex_gaussian(3, 3)
    x_big = np.eye(3, dtype=complex)  # solves b X = b = X b trivially
    y = reduce_system(np.eye(3), b, x_big)
    assert np.allclose(y, x_big, atol=1e-12)


def test_reduce_system_block_example():
    a = np.diag([1.0, 0.0])
    x_big = np.diag([1.0, 5.0])  # the trailing slot is annihilated by the system
    y = reduce_system(a, a, x_big)
    assert np.allclose(y, np.diag([1.0, 0.0]), atol=1e-14)


def test_reduce_system_rejects_non_solution():
    with pytest.raises(PreconditionError):
        reduce_system(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]), zeros(2))


def test_reduce_system_pipeline():
    rng = SplitMix64(Seed(76))
    for i in range(20):
        big, small = gen_star_pair(5, 2, 2, Seed(11000 + i))
        x_big = system_general(big, small, rng.complex_gaussian(5, 5), rng.complex_gaussian(5, 5))
        y = reduce_system(big, small, x_big)
        ap = pinv(big)
        assert rel_residual(y @ small - ap @ small, ap @ small) <= 1e-9
        assert rel_residual(small @ y - small @ ap, small @ ap) <= 1e-9


# --- hermitian solutions -----------------------------------------------------


def test_hermitian_system_solve_identity_case():
    rng = SplitMix64(Seed(77))
    h = rng.hermitian_gaussian(3)
    x = hermitian_system_solve(np.eye(3), np.eye(3), h, h, zeros(3))
    assert np.allclose(x, h, atol=1e-12)


def test_hermitian_system_solve_projector_case():
    p = np.diag([1.0, 1.0, 0.0])
    x = hermitian_system_solve(np.eye(3), p, p, p, zeros(3))
    assert np.allclose(x, p, atol=1e-12)


def test_hermitian_system_solve_general_pair():
    rng = SplitMix64(Seed(78))
    for i in range(20):
        a = gen_rank_r(5, 5, 3, Seed(12000 + i))
        b = gen_rank_r(5, 5, 4, Seed(12500 + i))
        x0 = rng.hermitian_gaussian(5)
        c = a @ x0
        d = x0 @ b
        w = rng.hermitian_gaussian(5)
        x = hermitian_system_solve(a, b, c, d, w)
        assert hermitian_defect(x) <= RES
        assert rel_residual(a @ x - c, c) <= 1e-7
        assert rel_residual(x @ b - d, d) <= 1e-7


def test_hermitian_system_solve_names_failing_condition():
    a = np.diag([1.0, 0.0])
    with pytest.raises(UnsolvableError) as excinfo:
        # c outside range(a) breaks the first condition
        hermitian_system_solve(a, np.eye(2), np.diag([0.0, 1.0]), zeros(2), zeros(2))
    assert "range_c" in str(excinfo.value)


def test_hermitian_system_solve_rejects_non_hermitian_w():
    with pytest.raises(PreconditionError):
        hermitian_system_solve(
            np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
        )


def test_system_hermitian_projector():
    p = np.diag([1.0, 0.0])
    x = system_hermitian(p, p, zeros(2))
    assert np.allclose(x, p, atol=1e-12)


def test_system_hermitian_zero_b():
    a = gen_rank_r(4, 4, 2, Seed(79))
    rng = SplitMix64(Seed(80))
    x = system_hermitian(a, zeros(4), rng.hermitian_gaussian(4))
    assert hermitian_defect(x) <= RES


def test_system_hermitian_diagonal():
    x = system_hermitian(np.diag([2.0, 3.0]), np.diag([2.0, 0.0]), zeros(2))
    assert hermitian_defect(x) <= 1e-12
    b = np.diag([2.0, 0.0])
    a = np.diag([2.0, 3.0])
    assert np.allclose(b @ x @ a, b, atol=1e-12)
    assert np.allclose(a @ x @ b, b, atol=1e-12)


def test_system_hermitian_factors_m_for_a_non_ep_b():
    # b = 2 u v* with range(b) = span(e1) != range(b*) = span(v): b is not
    # range-Hermitian, so m = b* (I - b+ b) is not zero although b <=* a and
    # both Hermitian conditions hold; the solution still solves the system
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.5, np.sqrt(0.75), 0.0])
    b = 2.0 * np.outer(u, v)
    a = b + np.outer([0.0, 1.0, 0.0], [np.sqrt(0.75), -0.5, 0.0])
    assert max(star_residuals(b, a)) <= 1e-15
    ap = pinv(a)
    assert hermitian_defect(adj(b) @ ap @ b) <= 1e-15
    assert hermitian_defect(b @ adj(ap) @ adj(b)) <= 1e-15
    m = adj(b) @ (np.eye(3) - pinv(b) @ b)
    assert np.linalg.norm(m) == pytest.approx(np.sqrt(3.0))
    rng = SplitMix64(Seed(81))
    for w in (zeros(3), rng.hermitian_gaussian(3)):
        x = system_hermitian(a, b, w)
        assert hermitian_defect(x) <= RES
        assert rel_residual(b @ x @ a - b, b) <= RES
        assert rel_residual(a @ x @ b - b, b) <= RES


def test_system_hermitian_requires_hypotheses():
    with pytest.raises(PreconditionError):
        system_hermitian(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), zeros(2))


def test_system_hermitian_names_failing_hermitian_condition():
    # b <=* b holds, but b (b+)* b* is not hermitian for a generic rank-2 b
    b = gen_rank_r(4, 4, 2, Seed(3))
    with pytest.raises(UnsolvableError) as excinfo:
        system_hermitian(b, b, zeros(4))
    assert "ac_adj_hermitian" in str(excinfo.value)


# --- the two-sided condition bundle diagnostic -------------------------------


def test_prop_main_check_identity():
    rep = prop_main_check(np.eye(2), np.eye(2), np.eye(2))
    assert rep.passed("lhs_holds") and rep.passed("rhs_holds") and rep.passed("sides_agree")


def test_prop_main_check_inverse():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    rep = prop_main_check(a, a, np.linalg.inv(a))
    assert rep.passed("lhs_holds") and rep.passed("rhs_holds")


def test_prop_main_check_mismatched_sides_agree():
    rep = prop_main_check(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))
    assert not rep.passed("lhs_holds")
    assert not rep.passed("rhs_holds")
    assert rep.passed("sides_agree")


# --- equivalence of criterion, oracle, and pseudoinverse solution ------------


def test_criterion_oracle_and_pinv_agree():
    rng = SplitMix64(Seed(81))
    for i in range(40):
        n = 3 + i % 4
        a = gen_rank_r(n, n, i % n, Seed(13000 + i))
        m = rng.hermitian_gaussian(n)
        p_r = a @ pinv(a)
        p_cr = pinv(a) @ a
        b = p_r @ m @ p_cr  # structurally solvable, generally non-hermitian
        crit = system_criterion_residual(a, b)
        _, res = lsq_oracle(a, b)
        assert crit <= RES
        assert res <= RES
        x = pinv(a)
        assert rel_residual(b @ x @ a - b, b) <= RES
        assert rel_residual(a @ x @ b - b, b) <= RES


# --- operations that take an operand's Factor --------------------------------


def _factor_cases():
    """name -> (call, matrix): each operation that factors an operand, with
    the operand's slot left open for the matrix or its Factor."""
    big, small = gen_star_pair(5, 2, 1, Seed(90))
    hbig, hsmall = gen_star_pair(5, 2, 1, Seed(91), hermitian=True)
    rng = SplitMix64(Seed(92))
    a = gen_rank_r(5, 5, 3, Seed(93))
    b = gen_rank_r(5, 5, 2, Seed(94))
    c = a @ rng.complex_gaussian(5, 5) @ b
    w = rng.hermitian_gaussian(5)
    x = system_general(big, small, w, w)
    g = gen_gp(5, (2, 1, 0), Seed(95))
    fb = factor(b)
    p = fb.u[:, :1] @ fb.u[:, :1].conj().T
    q = fb.vh[:1, :].conj().T @ fb.vh[:1, :]
    return {
        "douglas_solve": (lambda m: douglas_solve(m, c).particular, a),
        "sandwich_solve_a": (lambda m: sandwich_solve(m, c, b).particular, a),
        "sandwich_solve_b": (lambda m: sandwich_solve(a, c, m).particular, b),
        "system_criterion_residual": (lambda m: system_criterion_residual(m, small), big),
        "system_family": (lambda m: system_family(m, small).particular, big),
        "system_general": (lambda m: system_general(m, small, w, w), big),
        "reduce_system": (lambda m: reduce_system(m, small, x), big),
        "system_hermitian_a": (lambda m: system_hermitian(m, hsmall, w), hbig),
        "system_hermitian_b": (lambda m: system_hermitian(hbig, m, w), hsmall),
        "prop_main_check_a": (lambda m: prop_main_check(m, small, x).checks, big),
        "prop_main_check_b": (lambda m: prop_main_check(big, m, x).checks, small),
        "range_inclusion_residual": (lambda m: range_inclusion_residual(c, m), a),
        "projector_char": (lambda m: projector_char(p, m, "left").checks, b),
        "projector_char_right": (lambda m: projector_char(q, m, "right").checks, b),
        "pbq_char": (lambda m: pbq_char(p, m, q).checks, b),
        "gp_check": (lambda m: gp_check(m).checks, g),
        "common_lower_bound": (lambda m: common_lower_bound(g, m, zeros(5)).checks, g),
    }


FACTOR_CASES = _factor_cases()


@pytest.mark.parametrize("name", ["projector_char", "projector_char_right", "pbq_char"])
def test_characterization_reads_both_ranges_off_b_factor(svd_calls, name):
    """range(b) and range(b*) come from one SVD of b: given b's Factor, the
    characterizations of Props. 4.1-4.2 factor nothing."""
    call, m = FACTOR_CASES[name]
    f = factor(m)
    svd_calls.clear()
    call(f)
    assert svd_calls == []


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_operation_takes_a_factor(svd_calls, name):
    """Passed its Factor, an operation gives the same bytes and does not
    factor that operand again.  system_hermitian reads a only in its order
    check, so it does not factor a at all."""
    call, m = FACTOR_CASES[name]
    f = factor(m)
    svd_calls.clear()
    want = call(m)
    factors_m = any(np.array_equal(s, m) for s in svd_calls)
    with_matrix = len(svd_calls)
    svd_calls.clear()
    got = call(f)
    if name == "system_hermitian_a":
        assert not factors_m and len(svd_calls) == with_matrix
    else:
        assert factors_m and len(svd_calls) < with_matrix
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)
