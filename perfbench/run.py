"""staralg benchmark: one workload per run, one JSON result on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` times the workload with no wrappers installed and prints the
end-to-end metrics.  ``--trace 1`` repeats that untraced loop, then runs one
pass with span wrappers on every staralg layer and prints the per-layer
metrics.  ``--smoke`` runs every workload at tiny size in both modes and
checks the printed metric names and units against ``BENCHMARK.json``.

The process is single-threaded: the BLAS thread count is pinned to 1 before
numpy is imported, because on a small shared machine a multi-threaded BLAS
mostly measures the scheduler.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
IMPORT_REPS = 5
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "small_p50_ms": "ms",
    "large_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(suite_names) -> dict[str, str]:
    import tracing

    units = {
        "matcore.svd_calls": "count",
        "matcore.svd_s": "s",
        "matcore.pinv_calls": "count",
        "matcore.pinv_self_s": "s",
        "matcore.as_cmat_calls": "count",
        "matcore.as_cmat_s": "s",
        "solvers.system_general_calls": "count",
        "solvers.system_general_s": "s",
        "solvers.raised": "count",
        "verify.oracle_calls": "count",
        "verify.oracle_s": "s",
        "verify.oracle_agree_ratio": "ratio",
        "verify.decide_n16_tail_ms": "ms",
        "verify.decide_n16_samples": "count",
        "cli.import_s": "s",
        "cli.parse_s": "s",
        "cli.parse_mb_per_s": "MB/s",
        "cli.write_s": "s",
        "cli.write_mb_per_s": "MB/s",
        "cli.pinv_n600_s": "s",
        "cli.check_n600_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
    }
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in suite_names:
        units[f"verify.suite.{name}.s"] = "s"
        units[f"verify.suite.{name}.svd"] = "count"
    return units


def pin_blas() -> dict[str, str]:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, pin: dict[str, str], seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": pin,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def fresh_import_s() -> float:
    """Median wall time of ``python -c 'import staralg'`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import staralg"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples above it (max if too few)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else (ordered[-1] if ordered else 0.0)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s: float, passes) -> dict[str, float]:
    samples = [s for p in passes for s in p]
    busy = sum(s.seconds for s in samples)
    return {
        "setup_s": setup_s,
        "wall_s": median(sum(s.seconds for s in p) for p in passes),
        "ops_per_s": sum(s.op.units for s in samples) / busy,
        "small_p50_ms": 1e3 * median(s.seconds for s in samples if s.op.size == "small"),
        "large_p50_ms": 1e3 * median(s.seconds for s in samples if s.op.size == "large"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, passes, traced, tracer, suite_names, import_s) -> dict[str, float]:
    import tracing

    untraced = [s for p in passes for s in p]
    traced_wall = sum(s.seconds for s in traced)
    layer = tracing.layer_metrics(tracer, traced_wall, suite_names)
    hits, total = wl.agree
    layer["verify.oracle_agree_ratio"] = hits / total if total else 0.0
    decide_small = [s.seconds for s in untraced if s.op.kind == "decide_n16"]
    layer["verify.decide_n16_tail_ms"] = 1e3 * tail(decide_small)
    layer["verify.decide_n16_samples"] = len(decide_small)
    layer["cli.pinv_n600_s"] = median(s.seconds for s in untraced if s.op.kind == "pinv")
    layer["cli.check_n600_s"] = median(s.seconds for s in untraced if s.op.kind == "check")
    layer["cli.import_s"] = import_s
    layer["trace.overhead_ratio"] = traced_wall / median(
        sum(s.seconds for s in p) for p in passes)
    return layer


def measure(name: str, seed: int, seconds: float, trace: bool, cfg: dict,
            import_s: float) -> tuple[dict, int, int]:
    """Run one workload; returns (metrics, attempted, failed).

    ``import_s`` is the fresh-interpreter import time: part of ``setup_s``
    and reported as ``cli.import_s``.
    """
    import staralg
    import tracing
    import workloads

    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, cfg, str(workdir))
        setup_times = []
        for _ in range(1 if trace else SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        ops = wl.ops()
        passes = workloads.run_for(ops, seconds)
        samples = [s for p in passes for s in p]
        if not trace:
            metrics = end_to_end(import_s + median(setup_times), passes)
            units = END_TO_END_UNITS
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = workloads.run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            samples += traced
            metrics = per_layer(wl, passes, traced, tracer, staralg.SUITE_NAMES, import_s)
            units = per_layer_units(staralg.SUITE_NAMES)
            tracer.write_spans(str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return out, len(samples), sum(not s.ok for s in samples)


def smoke(import_s: float) -> int:
    """Tiny run of every workload in both modes, plus a check that the
    ``solve system`` check rejects a corrupted X."""
    import numpy as np
    import staralg
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics, attempted, failed = measure(name, 1, 0.0, trace,
                                                 workloads.SMOKE[name], import_s)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want or attempted < 1 or failed:
                print(f"smoke: {name} trace={int(trace)} printed {got}, "
                      f"want {want}; attempted={attempted} failed={failed}", file=sys.stderr)
                return 1
            print(f"smoke: {name} trace={int(trace)} ok ({attempted} operations)")

    workdir = WORK_DIR / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.CliSolve(1, workloads.SMOKE["cli-solve"], str(workdir))
        wl.setup()
        solve = next(op for op in wl.ops() if op.kind == "solve_large")
        result = solve.run()
        x_path = wl.path("x", wl.n_large)
        x = staralg.cli.parse_matrix(x_path)
        corruptions = {
            "perturbed entry": lambda: staralg.cli.write_matrix(
                x_path, x + np.eye(x.shape[0])),
            "truncated file": lambda: Path(x_path).write_text(
                staralg.cli.format_matrix(x)[:-40], encoding="utf-8"),
        }
        for label, corrupt in corruptions.items():
            corrupt()
            replay = workloads.Op(solve.kind, solve.size, 1, lambda: result, solve.check)
            (sample,) = workloads.run_pass([replay])
            if sample.ok:
                print(f"smoke: the solve check accepted a {label} X", file=sys.stderr)
                return 1
            print(f"smoke: a {label} X counts as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("suites", "cli-solve", "oracle"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    pin = pin_blas()
    if not (SRC / "staralg" / "__init__.py").is_file():
        print(f"error: no staralg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy, and the benchmark modules that import it, load only after pin_blas
    import numpy as np

    import staralg

    if Path(staralg.__file__).resolve().parent != SRC / "staralg":
        print(f"error: imported staralg from {staralg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import_s = fresh_import_s()
    if args.smoke:
        return smoke(import_s)

    import workloads

    seed = args.seed % 2**64
    metrics, attempted, failed = measure(args.workload, seed, args.seconds, bool(args.trace),
                                         workloads.FULL[args.workload], import_s)
    env = environment(np, pin, seed)
    env.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
