"""``staralg verify`` runs its suites in forked workers: the worker-count rule,
and that stdout, stderr, the exit code and the ``--report`` bytes are those of
one process, on every path, with no child left behind."""

import os
import time

import pytest

from staralg import NumericError, SUITE_NAMES
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
