"""Order predicate, block form in the singular bases, and range-inclusion tests."""

import numpy as np
import pytest

from staralg import (
    DEFAULT_TOL,
    Seed,
    SplitMix64,
    adj,
    factor,
    gen_rank_r,
    gen_star_pair,
    projectors,
    range_inclusion_residual,
    rel_residual,
    star_leq,
    star_residuals,
)
from staralg.genlab import unitary


def test_zero_is_least():
    rng = SplitMix64(Seed(7))
    for _ in range(10):
        b = rng.complex_gaussian(4, 4)
        assert star_leq(np.zeros((4, 4)), b)


def test_diagonal_examples():
    assert star_leq(np.diag([1.0, 0.0]), np.diag([1.0, 2.0]))
    assert not star_leq(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(Exception):
        star_leq(np.eye(2), np.eye(3))


def test_reflexive():
    for i in range(30):
        a = gen_rank_r(5, 5, i % 6, Seed(50 + i))
        assert star_leq(a, a)


def test_antisymmetric_up_to_residual():
    rng = SplitMix64(Seed(77))
    for i in range(20):
        a = gen_rank_r(5, 5, 3, Seed(600 + i))
        b = a + 1e-10 * rng.complex_gaussian(5, 5)
        if star_leq(a, b) and star_leq(b, a):
            assert rel_residual(a - b, a) <= 10 * DEFAULT_TOL.res_rtol


def test_transitive_on_nested_blocks():
    u = unitary(SplitMix64(Seed(5)), 6)
    v = unitary(SplitMix64(Seed(6)), 6)
    d_a = np.diag([1.1, 0.7, 0, 0, 0, 0]).astype(complex)
    d_b = np.diag([1.1, 0.7, 1.5, 0, 0, 0]).astype(complex)
    d_c = np.diag([1.1, 0.7, 1.5, 0.9, 1.3, 0]).astype(complex)
    a, b, c = (u @ d @ adj(v) for d in (d_a, d_b, d_c))
    assert star_leq(a, b) and star_leq(b, c)
    assert star_leq(a, c)


def test_projector_form_equivalence():
    # order predicate agrees with the compression characterization
    rng = SplitMix64(Seed(99))
    cases = []
    for i in range(100):
        r, k = i % 4, (i // 4) % 3
        big, small = gen_star_pair(5, r, k, Seed(2000 + i))
        cases.append((small, big))
    for _ in range(100):
        cases.append((rng.complex_gaussian(4, 4), rng.complex_gaussian(4, 4)))
    for a, b in cases:
        lhs = star_leq(a, b)
        p_r, p_cr, _, _ = projectors(a)
        rhs = (
            rel_residual(a - p_r @ b, a) <= DEFAULT_TOL.res_rtol
            and rel_residual(a - b @ p_cr, a) <= DEFAULT_TOL.res_rtol
        )
        assert lhs == rhs


def test_doubly_included_matrix_vanishes_on_null_blocks():
    rng = SplitMix64(Seed(123))
    for i in range(50):
        a = gen_rank_r(6, 6, 1 + i % 5, Seed(3000 + i))
        b = a @ rng.complex_gaussian(6, 6) @ a
        assert range_inclusion_residual(b, a) <= DEFAULT_TOL.res_rtol
        assert range_inclusion_residual(adj(b), adj(a)) <= DEFAULT_TOL.res_rtol
        _, _, p_null_left, p_null_right = projectors(a)
        assert rel_residual(p_null_left @ b, b) <= DEFAULT_TOL.res_rtol
        assert rel_residual(b @ p_null_right, b) <= DEFAULT_TOL.res_rtol


def test_unitary_invariance():
    u = unitary(SplitMix64(Seed(8)), 5)
    v = unitary(SplitMix64(Seed(9)), 5)
    big, small = gen_star_pair(5, 2, 2, Seed(10))
    rng = SplitMix64(Seed(11))
    x, y = rng.complex_gaussian(5, 5), rng.complex_gaussian(5, 5)
    for a, b in ((small, big), (x, y)):
        assert star_leq(a, b) == star_leq(u @ a @ adj(v), u @ b @ adj(v))


def _block_witness(a, b):
    """Block form of a <=* b in the singular bases of a (Hartwig & Drazin 1978):
    returns a's Factor, the block of b on a's null spaces, and the residual of
    b - a minus that block, which vanishes exactly when a <=* b."""
    f = factor(a)
    u_null = f.u[:, f.rank:]
    v_null = adj(f.vh)[:, f.rank:]
    b1 = adj(u_null) @ b @ v_null
    return f, b1, rel_residual(b - a - u_null @ b1 @ adj(v_null), b)


def test_witness_equal_pair():
    a = np.diag([1.0, 0.0])
    f, b1, residual = _block_witness(a, a)
    assert f.rank == 1
    assert np.allclose(f.s[:1], [1.0])
    assert b1.shape == (1, 1)
    assert abs(b1[0, 0]) <= 1e-12
    assert residual <= 1e-12


def test_witness_zero_smaller():
    rng = SplitMix64(Seed(21))
    b = rng.complex_gaussian(3, 3)
    f, b1, residual = _block_witness(np.zeros((3, 3)), b)
    assert f.rank == 0
    rebuilt = f.u @ b1 @ f.vh
    assert rel_residual(rebuilt - b, b) <= 1e-12
    assert residual <= 1e-12


def test_witness_recovers_generated_pair():
    big, small = gen_star_pair(5, 2, 2, Seed(1))
    f, b1, residual = _block_witness(small, big)
    assert residual <= 1e-10
    eye = np.eye(5)
    assert rel_residual(f.u @ adj(f.u) - eye, eye) <= DEFAULT_TOL.res_rtol
    assert rel_residual(f.vh @ adj(f.vh) - eye, eye) <= DEFAULT_TOL.res_rtol
    r = f.rank
    assert r == 2
    small_rebuilt = (f.u[:, :r] * f.s[:r]) @ f.vh[:r]
    assert rel_residual(small_rebuilt - small, small) <= 1e-10
    block = np.zeros((5, 5), dtype=complex)
    block[:r, :r] = np.diag(f.s[:r])
    block[r:, r:] = b1
    big_rebuilt = f.u @ block @ f.vh
    assert rel_residual(big_rebuilt - big, big) <= 1e-10


def test_witness_rejects_incomparable():
    a, b = np.diag([1.0, 0.0]), np.diag([2.0, 0.0])
    _, _, residual = _block_witness(a, b)
    assert residual > DEFAULT_TOL.res_rtol
    assert not star_leq(a, b)


def test_star_residuals_values():
    r1, r2 = star_residuals(np.diag([1.0, 0.0]), np.diag([1.0, 2.0]))
    assert r1 <= 1e-15 and r2 <= 1e-15


def test_range_included():
    rt = DEFAULT_TOL.res_rtol
    a = gen_rank_r(5, 5, 3, Seed(31))
    assert range_inclusion_residual(a, a) <= rt
    assert range_inclusion_residual(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])) > rt
    rng = SplitMix64(Seed(32))
    for i in range(100):
        a = gen_rank_r(5, 5, 1 + i % 5, Seed(5000 + i))
        y = rng.complex_gaussian(5, 3)
        assert range_inclusion_residual(a @ y, a) <= rt


def test_range_included_shape_check():
    with pytest.raises(Exception):
        range_inclusion_residual(np.eye(3), np.eye(2))


def test_invertible_below_forces_equality():
    # an invertible matrix below another matrix in the order equals it
    big, small = gen_star_pair(4, 4, 0, Seed(41))
    assert star_leq(small, big)
    assert rel_residual(small - big, big) <= 1e-12
