"""Oracle, suite-runner, and report-format tests."""

import contextlib
import hashlib
import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import staralg
from staralg import (
    DEFAULT_TOL,
    Check,
    NumericError,
    PreconditionError,
    Report,
    Seed,
    SplitMix64,
    gen_rank_r,
    lsq_oracle,
    run_suite,
    system_criterion_residual,
    to_line,
    SUITE_DESCRIPTIONS,
    SUITE_NAMES,
    UnsolvableError,
)
from staralg import verify as verify_module
from staralg.cli import main
from staralg.matcore import eq_residual
from staralg.report import check_ge, check_le


def test_lsq_oracle_zero_b():
    x, res = lsq_oracle(np.eye(3), np.zeros((3, 3)))
    assert res <= 1e-12
    assert np.allclose(x, 0, atol=1e-12)


def test_lsq_oracle_projector_pair():
    a = np.diag([1.0, 0.0])
    x, res = lsq_oracle(a, a)
    assert res <= 1e-12
    assert np.allclose(a @ x @ a, a, atol=1e-10)


def test_lsq_oracle_unsolvable():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    _, res = lsq_oracle(a, b)
    assert res >= 1.9  # each equation misses by its whole right side
    assert not system_criterion_residual(a, b) <= DEFAULT_TOL.res_rtol


@pytest.mark.parametrize("n", [3, 12])
def test_oracle_and_criterion_refute_an_ill_conditioned_pair(n):
    """a = diag(1, 1e-9, 0) (+ I), of rank n - 1 at the 1e-12 cutoff, and
    b = e1 e2* + e2 e1* + e3 e3* (+ I): every X misses b's e3 e3* entry by 1
    in both equations, and the minimizer has X22 = 1e9.  A residual divided
    by |X| |a|, or by |a| |a+|, reads about 1e-9 here and calls the pair
    solvable; the oracle (dense at n = 3, matrix-free at n = 12) and the
    criterion both read it unsolvable."""
    a = np.diag([1.0, 1e-9, 0.0] + [1.0] * (n - 3))
    b = np.eye(n)
    b[:3, :3] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    x, res = lsq_oracle(a, b)
    assert np.linalg.norm(x) >= 1e9 * (1 - 1e-6)
    assert res >= staralg.NEG_FLOOR
    assert system_criterion_residual(a, b) >= staralg.NEG_FLOOR


def test_oracle_agrees_with_criterion_on_unstructured_pairs():
    rng = SplitMix64(Seed(200))
    for i in range(200):
        n = 3 + i % 4
        a = gen_rank_r(n, n, i % (n + 1), Seed(20000 + i))
        b = rng.complex_gaussian(n, n)
        direct_ok = system_criterion_residual(a, b) <= DEFAULT_TOL.res_rtol
        _, res = lsq_oracle(a, b)
        oracle_ok = DEFAULT_TOL.holds(res)
        assert direct_ok == oracle_ok


# --- the matrix-free oracle above the dense cut-over --------------------------


def _oracle_cases(n: int, seed: int):
    """(kind, a, b, solvable) for the five kinds of instance both oracle paths decide."""
    r = n // 2 + 1 + seed % (n - n // 2 - 1)  # rank > n/2: range(a) & range(a*) != {0}
    a = gen_rank_r(n, n, r, Seed(seed, 3 * n))
    b_pos = staralg.gen_thm23_instance(a, True, Seed(seed, 3 * n + 1))
    assert np.linalg.norm(b_pos) > 0.1
    big, small = staralg.gen_star_pair(n, 1 + seed % (n - 1), 1, Seed(seed, 3 * n + 2))
    zero = np.zeros((n, n), dtype=np.complex128)
    return [
        ("structured", a, b_pos, True),
        ("star_pair", big, small, True),
        ("thm23_negative", a, staralg.gen_thm23_instance(a, False, Seed(seed, 3 * n + 1)), False),
        ("b_zero", a, zero, True),
        ("a_zero", zero, gen_rank_r(n, n, n, Seed(seed, 3 * n + 2)), False),
    ]


def _decides(be: float, solvable: bool) -> bool:
    return DEFAULT_TOL.holds(be) if solvable else be >= staralg.NEG_FLOOR


@pytest.mark.parametrize("n", [9, 12, 16])
def test_matrix_free_oracle_agrees_with_the_dense_path(monkeypatch, n):
    cases = _oracle_cases(n, 1)
    free = []
    for kind, a, b, _ in cases:
        x_free = verify_module._cgls(a, b)
        assert x_free is not None, kind  # certified, not capped
        x, be = lsq_oracle(a, b)
        assert np.array_equal(x, x_free)
        free.append((x, be))
    monkeypatch.setattr(verify_module, "_cgls", lambda a, b: None)  # the dense fallback
    for (kind, a, b, solvable), (x_free, be_free) in zip(cases, free):
        x_dense, be_dense = lsq_oracle(a, b)
        assert _decides(be_free, solvable) and _decides(be_dense, solvable), kind
        assert np.linalg.norm(x_free - x_dense) <= 1e-9 * np.linalg.norm(x_dense), kind


@pytest.mark.parametrize("n", [32, 64])
def test_matrix_free_oracle_decides_large_instances(monkeypatch, n):
    def no_dense(*args):
        raise AssertionError("CGLS did not certify its X")

    monkeypatch.setattr(verify_module, "_dense_lsq", no_dense)
    for kind, a, b, solvable in _oracle_cases(n, 7):
        be = lsq_oracle(a, b)[1]
        assert _decides(be, solvable), (kind, be)


def test_matrix_free_oracle_memory_stays_small():
    # the dense path's 2n^2 x n^2 matrix alone is 33.5 MB at n = 32
    _, a, b, _ = _oracle_cases(32, 7)[2]
    tracemalloc.start()
    try:
        lsq_oracle(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_capped_oracle_falls_back_to_the_dense_path(monkeypatch):
    # with no iteration allowed, only b = 0 or a = 0 is certified, at X = 0
    monkeypatch.setattr(verify_module, "_CGLS_SWEEPS", 0)
    for kind, a, b, _ in _oracle_cases(9, 1):
        x, res = lsq_oracle(a, b)
        assert np.array_equal(x, verify_module._dense_lsq(a, b)), kind
        assert res == eq_residual(b @ x @ a, b) + eq_residual(a @ x @ b, b)


def test_rem3_5_redraws_near_partial_isometries():
    """Trial 49 of rem3.5 at dims 2, seed 11, first draws a rank-1 a with
    sigma = 1.0000033: a+ is within 3.3e-6 |a| of a*, so the order fails by
    only 3.3e-6, inside the gray zone.  The suite redraws such an a, and the
    whole run passes."""
    argv = ["verify", "--suite", "all", "--trials", "50", "--dims", "2", "--seed", "11"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_rem3_5_reports_an_exhausted_redraw(monkeypatch):
    """A draw that only ever gives partial isometries ends in a NumericError
    that names the suite, also under ``python -O``."""
    monkeypatch.setattr(verify_module, "rank_r", lambda rng, m, n, r: np.eye(m, n))
    with pytest.raises(NumericError, match=r"rem3\.5 .* 100 attempts"):
        run_suite("rem3.5", 1, 4, 1)


def test_run_suite_rejects_unknown_and_bad_dims():
    with pytest.raises(PreconditionError):
        run_suite("nope", 5, 6, 1)
    with pytest.raises(PreconditionError):
        run_suite("penrose", 5, 9, 1)
    with pytest.raises(PreconditionError):
        run_suite("penrose", 0, 6, 1)


def test_registry_is_complete():
    assert len(SUITE_NAMES) == 24
    assert set(SUITE_DESCRIPTIONS) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_smoke(name):
    reports = run_suite(name, 3, 6, 5)
    assert len(reports) == 3
    for rep in reports:
        assert rep.verdict, to_line(rep)


def test_suite_runs_are_deterministic():
    first = [to_line(r) for r in run_suite("thm3.8", 5, 6, 11)]
    second = [to_line(r) for r in run_suite("thm3.8", 5, 6, 11)]
    assert first == second


STREAM_DIGESTS = {
    "6": "c4072c88f04d8a30540e1140bb031b06302502cf98a4b7f922c7c8c1dc4d2013",
    "8": "869148e80f933c5cfa9dec58742061e417319eabe721ba7d80492b7b1b7358b3",
}


@pytest.mark.parametrize("dims", sorted(STREAM_DIGESTS))
def test_report_stream_digest_is_pinned(tmp_path, pinned_env, dims):
    """Pins the SHA-256 of the full ``verify --suite all`` report stream at
    dims 6 and 8, so a refactor that moves any reported digit or draw fails
    here.  A numeric change re-pins it.  As for the written-file pins, the
    child runs in ``pinned_env``."""
    cmd = [
        sys.executable, "-m", "staralg", "verify",
        "--suite", "all", "--trials", "50", "--dims", dims, "--seed", "1",
    ]
    done = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=pinned_env)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STREAM_DIGESTS[dims]


# SVDs made by 10 trials at dims 6, seed 1: a suite factors each operand of a
# trial once and passes the Factor on, a star pair's b+ is read off a's factor
# as a+ b a+, and one array passed as both operands of a solver is factored
# once.  A count that rises means some operand is factored again.  thm4.3 and
# lem4.7 also count the one SVD per skewed idempotent draw that checks its
# conditioning; deng_decompose factors nothing (thm4.3, prop4.9), and
# system_hermitian factors b but not a (thm3.11).
SVD_BUDGETS = {
    "douglas": 10,
    "thm2.3": 20,
    "prop2.4": 40,
    "prop3.3": 10,
    "thm3.6": 10,
    "lem3.7": 20,
    "thm3.8": 10,
    "thm3.9": 10,
    "thm3.11": 30,
    "prop4.1": 10,
    "prop4.2": 10,
    "thm4.3": 10,
    "lem4.7": 20,
    "prop4.9": 10,
    "oracle-agreement": 10,
}


@pytest.mark.parametrize("name", sorted(SVD_BUDGETS))
def test_svd_budget(svd_calls, name):
    run_suite(name, 10, 6, 1)
    assert len(svd_calls) == SVD_BUDGETS[name]


def test_accepted_negative_reports_nan_and_fails(monkeypatch):
    real = verify_module.sandwich_solve

    def accepting(*args):
        try:
            return real(*args)
        except UnsolvableError:
            return None

    monkeypatch.setattr(verify_module, "sandwich_solve", accepting)
    rep = run_suite("lem3.7", 1, 6, 1)[0]
    line = to_line(rep)
    assert "unsolvable_margin=nan:fail " in line
    assert "unsolvable_raises=1.00000e+00:fail " in line
    assert not rep.verdict


def test_report_line_format():
    rep = Report(
        suite="demo",
        trial=3,
        checks=(
            Check("alpha", 1.25e-12, True),
            Check("beta", 2.0e-6, False, marginal=True),
        ),
        seed=Seed(7, 3),
    )
    line = to_line(rep)
    assert line == (
        "suite=demo trial=3 root=7 stream=3 "
        "alpha=1.25000e-12:pass beta=2.00000e-06:fail:marginal verdict=fail"
    )


def test_report_verdict_is_conjunction():
    ok = Check("x", 0.0, True)
    bad = Check("y", 1.0, False)
    assert Report(suite="s", trial=0, checks=(ok,)).verdict
    assert not Report(suite="s", trial=0, checks=(ok, bad)).verdict


def test_check_helpers_gray_zones():
    assert check_le("a", 5e-9, 1e-8).passed
    assert check_le("a", 1e-8).passed and not check_le("a", 1.2e-8).passed  # res_rtol
    tie = check_le("a", 0.95e-8, 1e-8)
    assert tie.passed and tie.marginal
    over = check_le("a", 1.05e-8, 1e-8)
    assert not over.passed and over.marginal
    assert check_ge("b", 2e-5, 1e-5).passed
    gray = check_ge("b", 1e-6, 1e-5)
    assert not gray.passed and gray.marginal
    tiny = check_ge("b", 1e-9, 1e-5)
    assert not tiny.passed and not tiny.marginal
    edge = check_ge("b", 1e-8, 1e-5)  # the gray zone starts above res_rtol
    assert not edge.passed and not edge.marginal


def test_report_named_access():
    rep = Report(suite="s", trial=0, checks=(Check("only", 0.5, False),))
    assert rep.residual("only") == 0.5
    assert not rep.passed("only")
    with pytest.raises(KeyError):
        rep.check("missing")


def test_oracle_finds_solutions_on_solvable_pairs():
    from staralg import gen_star_pair

    big, small = gen_star_pair(4, 2, 1, Seed(201))
    x_oracle, res = lsq_oracle(big, small)
    assert DEFAULT_TOL.holds(res)
    assert np.allclose(small @ x_oracle @ big, small, atol=1e-8)
    assert np.allclose(big @ x_oracle @ small, small, atol=1e-8)
