"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything here is property-based at desk scale (dims <= 8, double
precision) and deterministic: each criterion pins its trial count, dimension,
and root seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import staralg
from staralg import run_suite, to_line
from staralg.cli import main, parse_matrix, write_matrix

SECTION4_SUITES = (
    "prop4.1", "prop4.2", "thm4.3", "lem4.4", "thm4.5",
    "thm4.6", "lem4.7", "cor4.8", "prop4.9",
)


def _gate(number, name, reports):
    failures = [to_line(r) for r in reports if not r.verdict]
    ok = not failures
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}); first failure:\n{failures[0] if failures else ''}"


def test_criterion_01_penrose_identities():
    # 200 matrices, dims <= 8, ranks cycling through 0..full, residuals <= 1e-10
    _gate(1, "penrose-identities", run_suite("penrose", 200, 8, 42))


def test_criterion_02_solvability_criterion_vs_oracle():
    # 100 positives and 100 engineered negatives, two independent paths agree
    _gate(2, "solvability-criterion", run_suite("thm2.3", 100, 6, 7))


def test_criterion_03_general_family_soundness():
    # 100 pairs x (zero + 5 random) parameter draws plus both degenerate cases
    _gate(3, "closed-form-family", run_suite("thm3.8", 100, 6, 21))


def test_criterion_04_solves_iff_dominated():
    # closed-form and pseudoinverse candidates pass; random matrices fail both ways
    _gate(4, "solve-dominance-equivalence", run_suite("thm3.6", 100, 6, 13))


def test_criterion_05_reduction_round_trip():
    _gate(5, "system-reduction-round-trip", run_suite("thm3.9", 100, 6, 17))


def test_criterion_06_hermitian_solutions():
    _gate(6, "hermitian-solutions", run_suite("thm3.11", 100, 6, 19))


def test_criterion_07_characterization_suites():
    all_reports = []
    for name in SECTION4_SUITES:
        all_reports.extend(run_suite(name, 100, 6, 23))
    _gate(7, "order-characterizations", all_reports)


def test_criterion_08_order_converse_fails():
    # conclusions hold for (a+, a*, a) while the order itself fails with margin
    _gate(8, "converse-failure-witness", run_suite("rem3.5", 50, 5, 3))


def test_criterion_09_report_stream_is_byte_stable(tmp_path):
    cmd = [
        sys.executable, "-m", "staralg", "verify",
        "--suite", "all", "--trials", "50", "--dims", "6", "--seed", "1",
    ]
    # the child imports the same package from any working directory
    env = {**os.environ, "PYTHONPATH": str(Path(staralg.__file__).resolve().parent.parent)}
    first = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
    second = subprocess.run(cmd, capture_output=True, cwd=tmp_path, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    print(f"ACCEPTANCE 09 deterministic-report-stream: {'PASS' if ok else 'FAIL'}")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout


def test_criterion_10_cli_contract(tmp_path):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    x = tmp_path / "x.mat"
    axa = tmp_path / "axa.mat"
    ok = main([
        "gen", "star-pair", "--n", "5", "--rank", "2", "--extra", "2",
        "--seed", "1", "--out-a", str(a), "--out-b", str(b),
    ]) == 0
    ok = ok and main(["solve", "system", "--a", str(a), "--b", str(b), "--out", str(x)]) == 0
    am, xm = parse_matrix(a), parse_matrix(x)
    write_matrix(axa, am @ xm @ am)
    ok = ok and main(["check", "star-order", "--a", str(axa), "--b", str(b)]) == 0

    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n(1,0) (0,0)\n(0,0) wat\n", encoding="utf-8")
    code = main(["pinv", "--in", str(bad), "--out", str(x)])
    ok = ok and code == 2
    print(f"ACCEPTANCE 10 cli-contract: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_runtime_budget():
    # the heaviest registry sweep stays well under the stated ceiling
    import time

    t0 = time.time()
    for name in ("thm2.3", "thm3.8", "oracle-agreement"):
        run_suite(name, 100, 6, 31)
    elapsed = time.time() - t0
    print(f"ACCEPTANCE xx runtime-sample: {elapsed:.2f}s")
    assert elapsed < 10.0


def test_acceptance_stream_sample_is_well_formed():
    lines = [to_line(r) for r in run_suite("thm2.3", 3, 6, 7)]
    for i, line in enumerate(lines):
        assert line.startswith(f"suite=thm2.3 trial={i} root=7 stream={i} ")
        assert line.endswith("verdict=pass")
        assert np.all([("=" in part) for part in line.split()])
