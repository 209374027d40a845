"""Power-of-two scaling as an exact oracle for homogeneity.

Scaling by 2**k rounds nothing while nothing overflows or underflows, so an
operation that is homogeneous in exact arithmetic and holds no absolute
constant gives bit-identical results on scaled operands.  The star order is
homogeneous (a <=* b exactly when t a <=* t b), and so must its predicates be.
"""

import warnings

import numpy as np
import pytest

import staralg.genlab as genlab
from staralg import (
    Seed,
    SplitMix64,
    douglas_solve,
    factor,
    gen_rank_r,
    gen_star_pair,
    gen_thm23_instance,
    pinv,
    prop_main_check,
    run_suite,
    sandwich_solve,
    solves_system,
    star_leq,
    star_residuals,
    system_criterion_residual,
    system_family,
)
from staralg import verify as verify_module

KS = (-200, -100, 100, 200)


def _pairs():
    """Star pairs (big, small), strict and Hermitian, with rank-deficient big."""
    yield gen_star_pair(6, 2, 2, Seed(5))
    yield gen_star_pair(6, 1, 3, Seed(6), hermitian=True)
    yield gen_star_pair(5, 2, 0, Seed(7))


@pytest.mark.parametrize("k", KS)
def test_star_residuals_are_scale_free(k):
    t = 2.0**k
    for big, small in _pairs():
        for a, b in ((small, big), (big, small)):
            assert star_residuals(t * a, t * b) == star_residuals(a, b)


@pytest.mark.parametrize("k", KS)
def test_pinv_scales_inversely(k):
    t = 2.0**k
    for big, small in _pairs():
        for m in (big, small):
            assert pinv(t * m).tobytes() == (pinv(m) / t).tobytes()


@pytest.mark.parametrize("k", KS)
def test_singular_values_scale_with_the_matrix(k):
    t = 2.0**k
    for big, small in _pairs():
        for m in (big, small):
            assert factor(t * m).s.tobytes() == (t * factor(m).s).tobytes()


@pytest.mark.parametrize("k", KS)
def test_douglas_particular_is_scale_free(k):
    """a+ c is homogeneous of degree 0 in (a, c)."""
    t = 2.0**k
    for big, small in _pairs():
        got = douglas_solve(t * big, t * small).particular
        assert got.tobytes() == douglas_solve(big, small).particular.tobytes()


@pytest.mark.parametrize("k", KS)
def test_sandwich_particular_scales_inversely(k):
    """a+ c b+ is homogeneous of degree -1 in (a, c, b)."""
    t = 2.0**k
    for big, small in _pairs():
        got = sandwich_solve(t * big, t * small, t * big).particular
        assert got.tobytes() == (sandwich_solve(big, small, big).particular / t).tobytes()


@pytest.mark.parametrize("k", KS)
def test_prop_main_check_is_scale_free(k):
    """(a, b, x) -> (2**k a, 2**k b, 2**-k x) keeps every residual and verdict."""
    t = 2.0**k
    rng = SplitMix64(Seed(13))
    for big, small in _pairs():
        n = big.shape[0]
        for a, b in ((small, big), (big, small)):
            for x in (pinv(b), pinv(a), rng.complex_gaussian(n, n)):
                assert prop_main_check(t * a, t * b, x / t).checks == prop_main_check(a, b, x).checks


@pytest.mark.parametrize("k", KS)
def test_system_family_particular_scales_inversely(k):
    t = 2.0**k
    for big, small in _pairs():
        got = system_family(t * big, t * small).particular
        assert got.tobytes() == (system_family(big, small).particular / t).tobytes()


@pytest.mark.parametrize("k", KS)
def test_system_criterion_residual_is_scale_free(k):
    t = 2.0**k
    a = gen_rank_r(6, 6, 4, Seed(8))
    cases = [(a, gen_thm23_instance(a, positive, Seed(9))) for positive in (True, False)]
    for a, b in [*cases, *_pairs()]:
        assert system_criterion_residual(t * a, t * b) == system_criterion_residual(a, b)


@pytest.mark.parametrize("k", (-300, -100, 100, 300))
def test_matrix_free_oracle_scales_inversely(k):
    """Above the dense cut-over, X(2**k a, 2**k b) is X(a, b) / 2**k bit for bit."""
    t = 2.0**k
    a = gen_rank_r(12, 12, 8, Seed(11))
    for positive in (True, False):
        b = gen_thm23_instance(a, positive, Seed(12))
        x, _ = verify_module.lsq_oracle(a, b)
        assert verify_module.lsq_oracle(t * a, t * b)[0].tobytes() == (x / t).tobytes()


@pytest.mark.parametrize("k", KS)
def test_solves_system_residuals_are_scale_free(k):
    """(a, b, x) -> (2**k a, 2**k b, 2**-k x) leaves every residual as it is."""
    t = 2.0**k
    rng = SplitMix64(Seed(10))
    for big, small in _pairs():
        n = big.shape[0]
        fam = system_family(big, small)
        draws = [rng.complex_gaussian(n, n), rng.complex_gaussian(n, n)]
        for x in (fam.particular, fam.instantiate(draws), rng.complex_gaussian(n, n)):
            got = solves_system(t * big, t * small, x / t).checks
            assert got == solves_system(big, small, x).checks


# suites whose operands all come from star_pair and rank_r and whose claims are
# homogeneous; idempotents and generalized projections are not (t P is no projector)
HOMOGENEOUS_SUITES = (
    "penrose", "douglas", "lem2.2", "prop2.4", "prop3.3", "rem3.5", "thm3.6",
    "lem3.7", "thm3.8", "thm3.9", "thm3.11", "inverse-along",
)


def _statuses(name):
    return [[(c.name, c.passed, c.marginal) for c in rep.checks]
            for rep in run_suite(name, 20, 6, 1)]


@pytest.mark.parametrize("k", [-200, -20, 20])
def test_homogeneous_suites_keep_every_status_when_scaled(monkeypatch, k):
    """The suites' generated operands scaled by 2**k: every check of every
    trial keeps its pass/fail and marginal status."""
    expected = {name: _statuses(name) for name in HOMOGENEOUS_SUITES}
    t = 2.0**k
    monkeypatch.setattr(verify_module, "star_pair",
                        lambda *args: tuple(t * m for m in genlab.star_pair(*args)))
    monkeypatch.setattr(verify_module, "rank_r", lambda *args: t * genlab.rank_r(*args))
    for name in HOMOGENEOUS_SUITES:
        assert _statuses(name) == expected[name], name


@pytest.mark.parametrize("scale", [1e-5, 1e-300])
def test_an_unrelated_pair_is_not_comparable_at_small_scale(scale):
    big = gen_star_pair(6, 2, 2, Seed(5))[0]
    unrelated = gen_star_pair(6, 2, 2, Seed(6))[1]
    assert not star_leq(scale * unrelated, scale * big)


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_a_true_pair_is_comparable_at_large_scale_quietly(capfd, scale):
    big, small = gen_star_pair(6, 2, 2, Seed(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert star_leq(scale * small, scale * big)
    assert capfd.readouterr() == ("", "")
