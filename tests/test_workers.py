"""Forked workers: ``staralg verify`` runs its suites in them, and the matrix
codec reads and writes a large file's row ranges in them.  The worker-count
rule; that stdout, stderr, the exit code and the ``--report`` bytes are those
of one process; that a file parses and writes as in one process, errors
included; and that no child is left behind, on every path."""

import io
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import staralg
from staralg import MatrixFormatError, NumericError, SUITE_NAMES, Seed, SplitMix64
from staralg import cli


def _argv(dims=3, suite="all"):
    return ["verify", "--suite", suite, "--trials", "3", "--dims", str(dims), "--seed", "5"]


@pytest.fixture
def forks(monkeypatch):
    """The parent's ``os.fork`` calls, counted."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def machine(monkeypatch):
    """Set the CPUs ``verify`` sees and the BLAS thread count it reads."""

    def set_machine(cpus, blas_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)

    return set_machine


def _run(argv, tmp_path, capsys, name):
    """exit code, stdout, stderr and the --report bytes (None if not written)."""
    report = tmp_path / f"{name}.txt"
    code = cli.main([*argv, "--report", str(report)])
    out, err = capsys.readouterr()
    return code, out, err, report.read_bytes() if report.exists() else None


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "suites, cpus, env, workers",
    [
        (24, 2, {}, 1),  # unset: the BLAS spins one thread per CPU
        (24, 2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (24, 4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        (24, 3, {"OPENBLAS_NUM_THREADS": "2"}, 1),
        (24, 2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
        (24, 4, {"OMP_NUM_THREADS": "1"}, 4),
        (24, 4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        (24, 4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),  # 0 falls through
        (24, 4, {"OPENBLAS_NUM_THREADS": " 1\n"}, 4),
        (24, 4, {"OPENBLAS_NUM_THREADS": ""}, 1),
        (24, 4, {"OPENBLAS_NUM_THREADS": "two"}, 1),
        (24, 4, {"OPENBLAS_NUM_THREADS": "-1"}, 1),
        (24, 4, {"OPENBLAS_NUM_THREADS": "1.5"}, 1),
        (24, 4, {"OPENBLAS_NUM_THREADS": "١"}, 1),  # a non-ASCII digit
        (1, 4, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (3, 4, {"OPENBLAS_NUM_THREADS": "1"}, 3),
        (24, 1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ],
)
def test_worker_count_rule(suites, cpus, env, workers):
    assert cli._worker_count(suites, cpus, env) == workers


@pytest.mark.parametrize("dims", [3, 4])
def test_output_is_the_same_for_every_worker_count(tmp_path, capsys, machine, forks, dims):
    machine(1, None)
    reference = _run(_argv(dims), tmp_path, capsys, "reference")
    assert reference[0] == 0 and reference[3] == reference[1].encode()
    assert reference[2] == f"{len(SUITE_NAMES)} suite(s), {3 * len(SUITE_NAMES)} trial reports, all passed\n"
    for cpus, blas_threads, fork_calls in [(1, "1", 0), (2, None, 0), (2, "1", 1)]:
        machine(cpus, blas_threads)
        forks.clear()
        assert _run(_argv(dims), tmp_path, capsys, f"k{cpus}{blas_threads}") == reference
        assert len(forks) == fork_calls, (cpus, blas_threads)
        _assert_no_child_left()
    machine(1, None)
    one = _run(_argv(dims, "penrose"), tmp_path, capsys, "one")
    machine(2, "1")
    forks.clear()
    assert _run(_argv(dims, "penrose"), tmp_path, capsys, "one2") == one
    assert forks == []  # a single suite needs a single worker


def test_no_fork_without_sched_getaffinity(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _run(_argv(), tmp_path, capsys, "run")[0] == 0
    assert forks == []


def _both_ways(tmp_path, capsys, machine, argv=None):
    """The result at one worker and at two, which must be equal."""
    argv = argv or _argv()
    machine(1, None)
    one = _run(argv, tmp_path, capsys, "one")
    machine(2, "1")
    two = _run(argv, tmp_path, capsys, "two")
    _assert_no_child_left()
    assert two == one
    return one


def test_a_numeric_error_is_raised_as_in_one_process(tmp_path, capsys, machine, monkeypatch):
    real_run_suite = cli.run_suite
    failing = {SUITE_NAMES[2]: "first in order", SUITE_NAMES[5]: "later"}

    def run_suite(name, *args):
        if name in failing:
            raise NumericError(f"{name} {failing[name]}")
        return real_run_suite(name, *args)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    code, out, err, report = _both_ways(tmp_path, capsys, machine)
    assert (code, out, err, report) == (3, "", f"error: {SUITE_NAMES[2]} first in order\n", None)


def test_a_worker_that_dies_without_reporting(tmp_path, capsys, machine, monkeypatch):
    machine(1, None)
    reference = _run(_argv(), tmp_path, capsys, "reference")
    real_run_suite = cli.run_suite
    parent = os.getpid()
    died = tmp_path / "died"
    parent_calls = []

    def run_suite(name, *args):
        if os.getpid() != parent:
            died.touch()
            os._exit(9)
        if not parent_calls:  # hold the parent's first suite until the child has died
            deadline = time.monotonic() + 60
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        parent_calls.append(name)
        return real_run_suite(name, *args)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    machine(2, "1")
    assert _run(_argv(), tmp_path, capsys, "two") == reference
    assert died.exists()
    assert len(parent_calls) > len(SUITE_NAMES)  # the whole list ran again in the parent
    _assert_no_child_left()


def test_a_worker_that_reports_and_exits_nonzero(tmp_path, capsys, machine, monkeypatch):
    machine(1, None)
    reference = _run(_argv(), tmp_path, capsys, "reference")
    real_run_suite, real_exit = cli.run_suite, os._exit
    parent = os.getpid()
    parent_calls = []

    def run_suite(name, *args):
        if os.getpid() == parent:
            parent_calls.append(name)
        return real_run_suite(name, *args)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    monkeypatch.setattr(os, "_exit", lambda code: real_exit(code or 7))  # only children exit
    machine(2, "1")
    assert _run(_argv(), tmp_path, capsys, "two") == reference
    assert len(parent_calls) > len(SUITE_NAMES)  # the whole list ran again in the parent
    _assert_no_child_left()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--dims", "9"], "error: dims must be between 2 and 8, got 9\n"),
        (["--trials", "0"], "error: trials must be >= 1, got 0\n"),
        (["--seed", "-1"], "error: root must be a 64-bit unsigned integer\n"),
    ],
)
def test_bad_arguments_keep_their_message(tmp_path, capsys, machine, option, message):
    argv = [*_argv(), *option]  # a repeated option: the last one counts
    assert _both_ways(tmp_path, capsys, machine, argv) == (1, "", message, None)


def test_an_interrupt_kills_and_reaps_every_child(tmp_path, capsys, machine, monkeypatch):
    parent = os.getpid()

    def run_suite(name, *args):
        if os.getpid() != parent:
            time.sleep(120)  # only a kill ends this child in time
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_suite", run_suite)
    machine(2, "1")
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(_argv())
    assert time.monotonic() - started < 60
    _assert_no_child_left()
    assert capsys.readouterr() == ("", "")


# --- the matrix codec ------------------------------------------------------


def _outcome(source):
    """parse_matrix's bytes, or its error's message, line and column."""
    try:
        return cli.parse_matrix(source).tobytes()
    except MatrixFormatError as exc:
        return str(exc), exc.line, exc.column


def _cut_lines(lines, workers):
    """The index of the line that holds byte i / workers of the file, for each i."""
    ends = np.cumsum([len(line.encode()) for line in lines])
    return [int(np.searchsorted(ends, ends[-1] * i // workers, side="right"))
            for i in range(1, workers)]


def _variants(m):
    """A written file of m and departures from it near every cut of 2 and 3 ranges."""
    lines = cli.format_matrix(m).splitlines(keepends=True)

    def swap(j, new):
        return "".join([*lines[:j], new, *lines[j + 1:]])

    def bad(j):
        return lines[j].replace("(", "(x", 1)

    out = {"written": "".join(lines), "crlf": "".join(lines).replace("\n", "\r\n"),
           "trailing blanks": "".join(lines) + "\n \t\n\n",
           "too many rows": "".join(lines + [lines[-1]]),
           "too few rows": swap(0, f"{len(m) + 1} {m.shape[1]}\n"),
           "bad rows in two ranges": "".join([lines[0], bad(1), *lines[2:-1], bad(-1)])}
    for j in sorted({j + d for k in (2, 3) for j in _cut_lines(lines, k) for d in (-1, 0, 1)}):
        out[f"bad row {j}"] = swap(j, bad(j))
        out[f"blank after {j}"] = swap(j, lines[j] + "\n")
        out[f"nbsp in {j}"] = swap(j, lines[j].replace(") (", ")\xa0(", 1))
    return out


def test_split_parse_gives_what_one_process_gives(tmp_path, machine, forks, monkeypatch):
    """Bad rows in a lower range, on a cut's line and in two ranges, too many
    and too few rows, trailing blanks, a blank between rows and CRLF: each
    parses to the same bytes, or the same message, line and column, at k = 2
    and 3 as at k = 1."""
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    m = SplitMix64(Seed(4)).complex_gaussian(12, 3)
    for name, text in _variants(m).items():
        path = tmp_path / "v.mat"
        path.write_text(text, encoding="utf-8", newline="")
        machine(1, None)
        expected = _outcome(path)
        for workers in (2, 3):
            machine(workers, "1")
            forks.clear()
            assert _outcome(path) == expected, (name, workers)
            assert len(forks) == workers - 1, (name, workers)
            _assert_no_child_left()
    assert _outcome(io.StringIO(_variants(m)["written"])) == m.tobytes()


@pytest.fixture
def faulty(monkeypatch):
    """Make every forked helper fail in one way, in the codec's helpers."""
    parent = os.getpid()

    def make(fault):
        if fault == "exits 9 before sending":
            for name in ("_read_rows", "_format_rows"):
                real = getattr(cli, name)
                monkeypatch.setattr(cli, name, lambda *args, real=real: (
                    os._exit(9) if os.getpid() != parent else real(*args)))
        elif fault == "sends, then exits 7":
            real_exit = os._exit
            # only children exit
            monkeypatch.setattr(os, "_exit", lambda code: real_exit(code or 7))
        else:  # the parent meets fewer bytes than were announced
            real_length = cli._length
            monkeypatch.setattr(cli, "_length", lambda pipe: (real_length(pipe), pipe.read(16))[0])

    return make


@pytest.mark.parametrize("fault", ["exits 9 before sending", "sends, then exits 7",
                                   "short payload"])
def test_a_failing_helper_changes_no_result(tmp_path, machine, monkeypatch, forks, faulty, fault):
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    m = SplitMix64(Seed(5)).complex_gaussian(9, 4)
    variants = _variants(m)
    texts = [variants[name] for name in ("written", "bad rows in two ranges", "too few rows")]
    machine(1, None)
    expected = []
    for i, text in enumerate(texts):
        (tmp_path / f"{i}.mat").write_text(text, encoding="utf-8")
        expected.append(_outcome(tmp_path / f"{i}.mat"))
    faulty(fault)
    machine(3, "1")
    for i in range(len(texts)):
        assert _outcome(tmp_path / f"{i}.mat") == expected[i], i
        _assert_no_child_left()
    cli.write_matrix(tmp_path / "w.mat", m)
    _assert_no_child_left()
    assert (tmp_path / "w.mat").read_text(encoding="utf-8") == variants["written"]
    assert len(forks) == 2 * (len(texts) + 1)


def test_an_interrupt_in_the_codec_kills_and_reaps_every_helper(tmp_path, machine, monkeypatch):
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    path = tmp_path / "m.mat"
    path.write_text(cli.format_matrix(np.eye(6)), encoding="utf-8")
    parent = os.getpid()

    def read_rows(*args):
        if os.getpid() != parent:
            time.sleep(120)  # only a kill ends this child in time
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_read_rows", read_rows)
    machine(2, "1")
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.parse_matrix(path)
    assert time.monotonic() - started < 60
    _assert_no_child_left()


def test_what_forks(tmp_path, machine, forks, monkeypatch):
    """A matrix below the threshold, k = 1, a stream and a pipe never fork; a
    matrix at the threshold forks once per direction at k = 2."""
    at = SplitMix64(Seed(6)).complex_gaussian(cli._SPLIT_ENTRIES // 64, 64)
    below = at[:-1]
    path = tmp_path / "m.mat"
    for m, cpus, blas_threads, fork_calls in [(at, 2, "1", 1), (below, 2, "1", 0), (at, 2, None, 0),
                                              (at, 1, "1", 0), (at, 4, "2", 1)]:
        machine(cpus, blas_threads)
        forks.clear()
        cli.write_matrix(path, m)
        assert len(forks) == fork_calls
        assert cli.parse_matrix(path).tobytes() == m.tobytes()
        assert len(forks) == 2 * fork_calls
    machine(2, "1")
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    small = cli.format_matrix(np.arange(12.0).reshape(4, 3))
    forks.clear()
    assert cli.parse_matrix(io.StringIO(path.read_text())).tobytes() == at.tobytes()
    read_end, write_end = os.pipe()
    os.write(write_end, small.encode())  # fits in the pipe's buffer
    os.close(write_end)
    try:
        expected = cli.parse_matrix(io.StringIO(small)).tobytes()
        assert cli.parse_matrix(f"/dev/fd/{read_end}").tobytes() == expected
    finally:
        os.close(read_end)
    assert forks == []
    _assert_no_child_left()


def test_solve_system_parses_b_in_one_process(tmp_path, machine, forks, monkeypatch):
    """a is read split before the factor thread starts; nothing forks while it
    runs, so b is read in one process; X is written split after the join, and
    its bytes are those of k = 1."""
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    a, b = (tmp_path / "a.mat", tmp_path / "b.mat")
    assert cli.main(["gen", "star-pair", "--n", "8", "--rank", "3", "--extra", "2", "--seed", "2",
                     "--out-a", str(a), "--out-b", str(b)]) == 0
    argv = ["solve", "system", "--a", str(a), "--b", str(b), "--out"]
    machine(1, None)
    assert cli.main([*argv, str(tmp_path / "x1.mat")]) == 0
    b_read = threading.Event()
    real_factor, real_parse = cli.factor, cli.parse_matrix
    per_parse = []

    def parse(source):
        before = len(forks)
        m = real_parse(source)
        per_parse.append(len(forks) - before)
        b_read.set() if source == str(b) else None
        return m

    monkeypatch.setattr(cli, "factor", lambda m: b_read.wait(60) and real_factor(m))
    monkeypatch.setattr(cli, "parse_matrix", parse)
    machine(2, "1")
    forks.clear()
    assert cli.main([*argv, str(tmp_path / "x2.mat")]) == 0
    assert per_parse == [1, 0]
    assert len(forks) == 2  # a's read and X's write
    assert (tmp_path / "x2.mat").read_bytes() == (tmp_path / "x1.mat").read_bytes()
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, failing_call", [(2, 1), (3, 2)])
def test_a_fork_that_fails_changes_no_result(tmp_path, capsys, machine, monkeypatch, cpus,
                                             failing_call):
    """A fork that fails for want of processes or memory, the first one or one
    after a helper has started, leaves the codec and ``verify`` in one process:
    the same bytes, messages and exit codes, no helper left and no pipe open."""
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    m = SplitMix64(Seed(7)).complex_gaussian(9, 4)
    variants = _variants(m)
    machine(1, None)
    expected = []
    for i, name in enumerate(("written", "bad rows in two ranges")):
        (tmp_path / f"{i}.mat").write_text(variants[name], encoding="utf-8")
        expected.append(_outcome(tmp_path / f"{i}.mat"))
    reference = _run(_argv(suite="penrose"), tmp_path, capsys, "reference")
    real_fork, calls = os.fork, []

    def failing_fork():
        calls.append(1)
        if len(calls) % failing_call == 0:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    machine(cpus, "1")
    open_fds = len(os.listdir("/dev/fd"))
    with monkeypatch.context() as patched:  # a written file stays off the row-by-row path
        patched.setattr(cli, "_parse_row", None)
        assert _outcome(tmp_path / "0.mat") == expected[0]
    assert _outcome(tmp_path / "1.mat") == expected[1]
    _assert_no_child_left()
    cli.write_matrix(tmp_path / "w.mat", m)
    assert (tmp_path / "w.mat").read_text(encoding="utf-8") == variants["written"]
    _assert_no_child_left()
    argv = ["verify", "--suite", "all", "--trials", "1", "--dims", "3", "--seed", "5"]
    machine(1, None)
    one = _run(argv, tmp_path, capsys, "one")
    machine(cpus, "1")
    assert _run(argv, tmp_path, capsys, "forks fail") == one
    assert _run(_argv(suite="penrose"), tmp_path, capsys, "penrose") == reference
    _assert_no_child_left()
    assert len(os.listdir("/dev/fd")) == open_fds
    assert calls


def test_a_pipe_is_written_in_one_process(tmp_path, capsys, machine, forks, monkeypatch):
    """An output that cannot be cut back and written again, such as a pipe, is
    written in one process, by write_matrix and by ``pinv --out``."""
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 0)
    m = SplitMix64(Seed(8)).complex_gaussian(6, 3)
    source = tmp_path / "m.mat"
    source.write_text(cli.format_matrix(m), encoding="utf-8")
    machine(1, None)
    assert cli.main(["pinv", "--in", str(source), "--out", str(tmp_path / "p.mat")]) == 0
    machine(2, "1")
    forks.clear()
    for write, expected in [(lambda out: cli.write_matrix(out, m), cli.format_matrix(m)),
                            (lambda out: cli.main(["pinv", "--in", str(source), "--out", out]),
                             (tmp_path / "p.mat").read_text(encoding="utf-8"))]:
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as received:
            try:
                write(f"/dev/fd/{write_end}")  # the text fits in the pipe's buffer
            finally:
                os.close(write_end)
            assert received.read().decode() == expected
    assert len(forks) == 1  # pinv's read of its regular input file
    assert capsys.readouterr() == ("", "")
    _assert_no_child_left()


_HELPER_GROWTH = r"""
import os, resource, sys
from staralg import SplitMix64, Seed, cli
direction, path, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
m = SplitMix64(Seed(9)).complex_gaussian(n, n)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.sched_getaffinity = lambda pid: {0, 1}
with cli._forked([bytes]) as pipes:  # a helper that holds nothing of its own
    pipes[0].read()
inherited = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
cli.write_matrix(path, m) if direction == "write" else cli.parse_matrix(path)
print((resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - inherited) * 1024)
"""


def test_a_helper_holds_its_range_once(tmp_path):
    """A write helper's peak grows by about its range's text, which it holds
    once and sends without joining; a parse helper's by its range's floats and
    the conversion's own buffers, never by its text.  Measured as the helper's
    peak resident size beyond a helper that holds nothing, at n = 400 and k = 2."""
    n, path = 400, tmp_path / "m.mat"
    cli.write_matrix(path, SplitMix64(Seed(9)).complex_gaussian(n, n))
    env = {**os.environ, "PYTHONPATH": str(Path(staralg.__file__).resolve().parent.parent)}
    growth = {direction: int(subprocess.run(
        [sys.executable, "-c", _HELPER_GROWTH, direction, str(path), str(n)],
        env=env, check=True, capture_output=True, text=True).stdout)
        for direction in ("write", "parse")}
    range_text, range_floats = path.stat().st_size / 2, 16 * n * n / 2
    assert growth["write"] <= 1.25 * range_text + 2**20, growth
    assert growth["parse"] <= 2 * range_floats + 2**21, growth
