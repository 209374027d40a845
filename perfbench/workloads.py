"""The three benchmark workloads and the closed loop that times them.

Each workload generates its inputs with ``staralg.genlab`` in ``setup`` and
returns one pass of operations from ``ops``.  An operation's ``run`` is the
timed call into staralg; its ``check`` runs afterwards, outside the timed
region, and decides whether the output was correct.

- ``suites``: ``staralg verify --suite all`` at two dims, in-process through
  ``cli.main``.  Thousands of tiny SVDs and validations: Python overhead.
- ``cli-solve``: single-shot CLI commands on large text matrix files, so
  BLAS kernels and the text format dominate.
- ``oracle``: solvability decisions by the criterion and by the
  least-squares oracle above the suites' dims cap; the oracle dominates.
"""

from __future__ import annotations

import io
import os
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import staralg
from staralg import cli

FULL = {
    "suites": {"dims": (6, 8), "trials": 50},
    "cli-solve": {"n": (300, 600)},
    "oracle": {"n": (16, 24), "per_size": 8},
}
SMOKE = {
    "suites": {"dims": (3, 4), "trials": 2},
    "cli-solve": {"n": (9, 12)},
    "oracle": {"n": (4, 6), "per_size": 2},
}

PINV_RTOL = 1e-10
WARM_N = 6  # cli-solve warm-up size: runs every command once, cheaply


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    kind: str
    size: str | None  # "small" or "large": feeds small_p50_ms / large_p50_ms
    units: int  # work items counted toward ops_per_s
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Sample:
    op: Op
    seconds: float
    ok: bool


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``staralg <argv>`` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = staralg.cli.main(argv)
    return code, out.getvalue()


class Suites:
    name = "suites"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.dims = cfg["dims"]
        self.trials = cfg["trials"]
        self.streams: dict[int, str] = {}
        self.agree = [0, 0]

    def _argv(self, dims: int, trials: int) -> list[str]:
        return ["verify", "--suite", "all", "--trials", str(trials),
                "--dims", str(dims), "--seed", str(self.seed)]

    def setup(self) -> None:
        code, _ = run_cli(self._argv(self.dims[0], 1))
        if code != 0:
            raise RuntimeError(f"warm-up verify exited {code}")

    def _check(self, dims: int, result) -> bool:
        code, stream = result
        lines = stream.splitlines()
        ok = (code == 0 and len(lines) == len(staralg.SUITE_NAMES) * self.trials
              and all(ln.endswith(" verdict=pass") and ":marginal" not in ln for ln in lines))
        # the report stream is deterministic: every pass must reproduce the first
        ok = ok and self.streams.setdefault(dims, stream) == stream
        for ln in lines:
            for token in ln.split():
                key, _, value = token.partition("=")
                if key.endswith("agree"):
                    self.agree[0] += value.endswith(":pass")
                    self.agree[1] += 1
        return ok

    def ops(self) -> list[Op]:
        units = len(staralg.SUITE_NAMES) * self.trials
        return [
            Op(f"verify_dims{d}", size, units,
               lambda d=d: run_cli(self._argv(d, self.trials)),
               lambda r, d=d: self._check(d, r))
            for d, size in zip(self.dims, ("small", "large"))
        ]


class CliSolve:
    name = "cli-solve"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.n_small, self.n_large = cfg["n"]
        self.dir = workdir
        self.mats: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.agree = [0, 0]

    def path(self, stem: str, n: int) -> str:
        return os.path.join(self.dir, f"{stem}{n}.txt")

    def setup(self) -> None:
        for n in (self.n_small, self.n_large):
            big, small = staralg.gen_star_pair(n, n // 3, n // 3, staralg.Seed(self.seed, n))
            cli.write_matrix(self.path("a", n), big)
            cli.write_matrix(self.path("b", n), small)
            self.mats[n] = (big, small)
        big, small = staralg.gen_star_pair(WARM_N, 1, 1, staralg.Seed(self.seed, 0))
        cli.write_matrix(self.path("a", WARM_N), big)
        cli.write_matrix(self.path("b", WARM_N), small)
        self.mats[WARM_N] = (big, small)
        for op in self._ops_for(WARM_N, WARM_N):
            if not op.check(op.run()):
                raise RuntimeError(f"warm-up {op.kind} failed")

    def check_solve(self, n: int, result) -> bool:
        code, _ = result
        if code != 0:
            return False
        a, b = self.mats[n]
        x = cli.parse_matrix(self.path("x", n))
        return staralg.solves_system(a, b, x).verdict

    def check_pinv(self, n: int, result) -> bool:
        code, _ = result
        if code != 0:
            return False
        a = self.mats[n][0]
        x = cli.parse_matrix(self.path("p", n))
        return bool(np.linalg.norm(a @ x @ a - a) <= PINV_RTOL * np.linalg.norm(a))

    def _solve(self, n: int):
        return run_cli(["solve", "system", "--a", self.path("a", n), "--b", self.path("b", n),
                        "--out", self.path("x", n)])

    def _ops_for(self, n_small: int, n_large: int) -> list[Op]:
        n = n_large
        a, b = self.path("a", n), self.path("b", n)
        solve_small = Op("solve_small", "small", 1, lambda: self._solve(n_small),
                         lambda r: self.check_solve(n_small, r))
        # the small solve is short: three per pass give its median enough samples
        return [
            solve_small,
            Op("solve_large", "large", 1, lambda: self._solve(n),
               lambda r: self.check_solve(n, r)),
            solve_small,
            Op("pinv", None, 1, lambda: run_cli(["pinv", "--in", a, "--out", self.path("p", n)]),
               lambda r: self.check_pinv(n, r)),
            solve_small,
            # b <=* a holds and a <=* b does not: exit codes 0 and 1
            Op("check", None, 1, lambda: run_cli(["check", "star-order", "--a", b, "--b", a]),
               lambda r: r[0] == 0 and "star_order=yes" in r[1]),
            Op("check", None, 1, lambda: run_cli(["check", "star-order", "--a", a, "--b", b]),
               lambda r: r[0] == 1 and "star_order=no" in r[1]),
        ]

    def ops(self) -> list[Op]:
        return self._ops_for(self.n_small, self.n_large)


class Oracle:
    name = "oracle"

    def __init__(self, seed: int, cfg: dict, workdir: str):
        self.seed = seed
        self.sizes = cfg["n"]
        self.per_size = cfg["per_size"]
        self.instances: list[tuple[int, bool, np.ndarray, np.ndarray]] = []
        self.agree = [0, 0]
        self.res_rtol = staralg.DEFAULT_TOL.res_rtol

    def setup(self) -> None:
        self.instances = []
        for n in self.sizes:
            for i in range(self.per_size):
                stream = 2 * (n * self.per_size + i)
                a = staralg.gen_rank_r(n, n, n // 2, staralg.Seed(self.seed, stream))
                positive = i % 2 == 0
                b = staralg.gen_thm23_instance(a, positive, staralg.Seed(self.seed, stream + 1))
                self.instances.append((n, positive, a, b))
        for n in self.sizes:
            inst = next(x for x in self.instances if x[0] == n)
            self._check(inst, self._decide(inst[2], inst[3]))
        self.agree = [0, 0]

    @staticmethod
    def _decide(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
        crit = staralg.system_criterion_residual(a, b)
        _, res = staralg.lsq_oracle(a, b)
        return crit, res / max(1.0, float(np.linalg.norm(b)))

    def _check(self, inst, result) -> bool:
        positive = inst[1]
        crit, orc = result
        self.agree[0] += (crit <= self.res_rtol) == (orc <= self.res_rtol)
        self.agree[1] += 1
        if positive:
            return crit <= self.res_rtol and orc <= self.res_rtol
        return crit >= staralg.NEG_FLOOR and orc >= staralg.NEG_FLOOR

    def ops(self) -> list[Op]:
        return [
            Op(f"decide_n{n}", "small" if n == self.sizes[0] else "large", 1,
               lambda a=a, b=b: self._decide(a, b),
               lambda r, inst=(n, positive, a, b): self._check(inst, r))
            for n, positive, a, b in self.instances
        ]


WORKLOADS = {w.name: w for w in (Suites, CliSolve, Oracle)}


def run_pass(ops: list[Op], tracer=None) -> list[Sample]:
    """One closed-loop pass: each operation starts when the previous returns.

    An operation that raises counts as failed; the loop goes on.
    """
    samples = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            raised = False
        except Exception:  # a failed operation is a result, not a crash
            traceback.print_exc()
            raised = True
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        ok = False
        if not raised:
            try:
                ok = bool(op.check(result))
            except Exception:
                traceback.print_exc()
        samples.append(Sample(op, dt, ok))
    return samples


def run_for(ops: list[Op], seconds: float) -> list[list[Sample]]:
    """Whole passes until the timed operations add up to ``seconds``."""
    passes: list[list[Sample]] = []
    busy = 0.0
    while not passes or busy < seconds:
        passes.append(run_pass(ops))
        busy += sum(s.seconds for s in passes[-1])
    return passes
