"""Command-line front end: matrix file I/O, single-shot solver and predicate
commands, instance generators, and the claim-suite runner.

Matrix files are plain text: a ``rows cols`` header line followed by one
line per row of whitespace-separated ``(re,im)`` tokens.  Floats are written
with 17 significant digits, so write-then-read round-trips bit exactly.
Written files are streamed in and out line by line, a large regular file in
row ranges across forked helpers on the CPUs the BLAS leaves free; any other
file is read row by row, which locates the first malformed entry.  ``solve
system`` factors a on a worker thread while it reads b, and nothing forks while
a thread runs.  ``verify`` runs whole suites in forked processes on the same
CPUs, and prints their lines in suite order.

Exit codes are the machine contract:
    0  success / predicate holds
    1  predicate false, system unsolvable, or an input violates a contract
    2  usage error or malformed matrix file
    3  numeric failure
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import marshal
import math
import os
import re
import shutil
import signal
import stat
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from .chars import gp_check
from .errors import MatrixFormatError, NumericError, StaralgError
from .genlab import PRNG_NAME, Seed, gen_gp, gen_idempotent, gen_rank_r, gen_star_pair
from .matcore import DEFAULT_TOL, as_cmat, factor, pinv
from .report import to_line
from .solvers import (
    sandwich_solve,
    system_family,
    system_general,
    system_hermitian,
    system_solvable,
)
from .starorder import star_residuals
from .verify import SUITE_NAMES, run_suite

__all__ = ["parse_matrix", "format_matrix", "write_matrix", "main"]

_TOKEN = re.compile(r"\(([^\s(),]+),([^\s(),]+)\)")
# the lines format_matrix writes, as bytes: ASCII number characters, blank-separated
# tokens, and no line boundary of universal newlines but a final "\n" or "\r\n"
_HEADER = re.compile(rb"([1-9][0-9]*) ([1-9][0-9]*)\r?\n")
_PLAIN = rb"\([0-9eE.+-]+,[0-9eE.+-]+\)"
_PLAIN_ROW = re.compile(rb"[ \t]*%s(?:[ \t]+%s)*[ \t]*\r?\n?" % (_PLAIN, _PLAIN))
_UNWRAP = bytes.maketrans(b"(),", b"   ")
# a matrix of at least this many entries (n = 128, a file of about 0.7 MB) is read
# and written in row ranges across forked helpers, where CPUs are free: from this
# size on, two processes measured faster than one in 9 of 10 rounds; near n = 80
# they break even
_SPLIT_ENTRIES = 1 << 14


class _NotWritten(ValueError):
    """The text departs from what format_matrix writes."""


def _parse_token(token: str, line_no: int, column: int) -> complex:
    match = _TOKEN.fullmatch(token)
    if match is None:
        raise MatrixFormatError(
            f"bad entry {token!r}, expected '(re,im)'", line=line_no, column=column
        )
    try:
        re_part = float(match.group(1))
        im_part = float(match.group(2))
    except ValueError:
        raise MatrixFormatError(
            f"unparsable float in entry {token!r}", line=line_no, column=column
        ) from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise MatrixFormatError(
            f"non-finite entry {token!r}", line=line_no, column=column
        )
    return complex(re_part, im_part)


def _parse_row(line: str, line_no: int, cols: int) -> list[complex]:
    """Token-by-token parse of one row line of ``cols`` entries; the only place
    that reports a malformed entry, with its 1-based line and column."""
    tokens = list(re.finditer(r"\S+", line))
    if len(tokens) != cols:
        raise MatrixFormatError(
            f"expected {cols} entries, found {len(tokens)}",
            line=line_no,
            column=tokens[-1].start() + 1 if tokens else 1,
        )
    return [_parse_token(tok.group(0), line_no, tok.start() + 1) for tok in tokens]


def _read_rows(fh, start, end, cols) -> np.ndarray:
    """Rows from byte ``start`` to ``end`` (None: the file's end) through one ``loadtxt``,
    as re, im, re, im, ...; a range starts with a row, and only the last may end
    in blank lines.  Any departure raises a ValueError."""
    fh.seek(start)

    def unwrapped():
        line = fh.readline()
        if not _PLAIN_ROW.fullmatch(line):
            raise _NotWritten
        while _PLAIN_ROW.fullmatch(line):
            yield line.translate(_UNWRAP)
            line = fh.readline() if end is None or fh.tell() < end else b""
        if line and (end is not None or line.strip() or any(rest.strip() for rest in fh)):
            raise _NotWritten

    parts = np.loadtxt(unwrapped(), comments=None, ndmin=2)
    if parts.shape[1] != 2 * cols or not np.isfinite(parts).all():
        raise _NotWritten
    return parts


def _parse_written(fh, path) -> np.ndarray:
    """Read a binary file laid out as format_matrix writes it; forked helpers read
    all but the first row range of a large file that ``path`` names.  Any
    departure in any range raises a ValueError or a ChildProcessError."""
    fh.seek(0)  # a retry reads from the start again
    size = os.fstat(fh.fileno()).st_size if path else 0
    header = _HEADER.fullmatch(fh.readline())
    if header is None:
        raise _NotWritten
    rows, cols = int(header[1]), int(header[2])
    workers = _workers(rows) if path and rows * cols >= _SPLIT_ENTRIES else 1
    start = fh.tell()  # the ranges start after a "\n" near i / workers of the file
    cuts = {fh.seek(size * i // workers) + len(fh.readline()) for i in range(1, workers)}
    bounds = [start, *sorted(cut for cut in cuts if start < cut < size), None]

    def rows_in(lo, hi):  # opened anew: an inherited file shares the parent's offset
        with open(path, "rb") as own:
            return [_read_rows(own, lo, hi, cols)]

    ranges = zip(bounds[1:], bounds[2:])
    with _forked([functools.partial(rows_in, lo, hi) for lo, hi in ranges]) as pipes:
        parts = _read_rows(fh, start, bounds[1], cols)
        done, sizes = parts.nbytes, [_length(pipe) for pipe in pipes]
        if done + sum(sizes) != 16 * rows * cols:
            raise _NotWritten
        parts.resize((rows, 2 * cols), refcheck=False)  # no view of it exists yet
        into = memoryview(parts).cast("B")
        for pipe, n in zip(pipes, sizes):  # each helper's rows straight into place
            if pipe.readinto(into[done:done + n]) != n:
                raise _NotWritten
            done += n
    return parts.view(np.complex128)


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line and column, counted as _parse_row counts them
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise MatrixFormatError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
                                line=len(lines), column=len(lines[-1])) from None


def parse_matrix(source) -> np.ndarray:
    """Read a matrix from a path or a text stream.

    Raises MatrixFormatError with 1-based line and column positions on any
    deviation from the format, bytes that are not UTF-8 included.  A file
    laid out as ``format_matrix`` writes it is streamed line by line into one
    bulk conversion per row range, so no copy of its whole text is held; a
    large regular file's ranges after the first are read by forked helpers.
    A stream or a pipe is read whole first, and never split.  Any other text
    is read again as a whole and parsed token by token, in order, so that the
    first bad entry in reading order is the one reported.  Both paths read
    every number with CPython's correctly rounded ``PyOS_string_to_double``,
    so they agree bit for bit.
    """
    text = source.read() if hasattr(source, "read") else None
    raw = open(source, "rb") if text is None else io.BytesIO(text.encode("utf-8", "surrogatepass"))
    with raw:
        data = None if raw.seekable() else raw.read()  # a pipe can be read only once
        fh = raw if data is None else io.BytesIO(data)
        with contextlib.suppress(ValueError):  # any departure: read the text exactly
            try:
                return _parse_written(fh, text is None and data is None and source)
            except ChildProcessError:  # a helper failed or could not start: read it here
                return _parse_written(fh, None)
    if text is None:
        text = _utf8(Path(source).read_bytes() if data is None else data)
    lines = text.splitlines()
    del text, data  # the split lines are the only copy kept
    if not lines or not lines[0].strip():
        raise MatrixFormatError("missing 'rows cols' header", line=1, column=1)
    try:
        rows, cols = map(int, lines[0].split())  # exactly two integers
    except ValueError:
        raise MatrixFormatError(
            f"header must be two integers, got {lines[0].strip()!r}", line=1, column=1
        ) from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(
            f"dimensions must be positive, got {rows} {cols}", line=1, column=1
        )

    body = lines[1:]
    while body and not body[-1].strip():
        body.pop()
    if len(body) != rows:
        raise MatrixFormatError(
            f"expected {rows} row lines, found {len(body)}",
            line=min(len(body), rows) + 2,
            column=1,
        )
    # each row is checked against cols before anything is allocated for it
    return np.array(
        [_parse_row(line, i + 2, cols) for i, line in enumerate(body)], dtype=np.complex128
    )


def _format_rows(mat: np.ndarray):
    row_format = b" ".join([b"(%.17g,%.17g)"] * mat.shape[1]) + b"\n"
    for row in mat:
        # re, im, re, im, ... of one row; the copy only happens for strided rows
        yield row_format % tuple(np.ascontiguousarray(row).view(np.float64).tolist())


def format_matrix(m) -> str:
    """Serialize a matrix; floats carry 17 significant digits for round-trips."""
    mat = as_cmat(m)
    return b"".join([b"%d %d\n" % mat.shape, *_format_rows(mat)]).decode()


def _write_rows(fh, mat: np.ndarray, workers: int) -> None:
    cuts = [len(mat) * i // workers for i in range(workers + 1)]
    # a helper holds its rows' text once, as lines it sends without joining them
    jobs = [lambda rows=mat[lo:hi]: list(_format_rows(rows)) for lo, hi in zip(cuts[1:], cuts[2:])]
    with _forked(jobs) as pipes:
        fh.write(b"%d %d\n" % mat.shape)
        fh.writelines(_format_rows(mat[:cuts[1]]))
        for pipe in pipes:
            end = _length(pipe) + fh.tell()
            shutil.copyfileobj(pipe, fh, 1 << 14)  # a bounded buffer
            if fh.tell() != end:
                raise ChildProcessError("a helper sent other than the bytes it announced")


def write_matrix(path, m) -> None:
    """Write ``format_matrix(m)`` line by line; a bad m raises before the file opens.
    Forked helpers format all but the first row range of a large m written to a
    regular file, the only kind that can be cut back and written again."""
    mat = as_cmat(m)
    with open(path, "wb") as fh:
        split = mat.size >= _SPLIT_ENTRIES and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        try:
            _write_rows(fh, mat, _workers(len(mat)) if split else 1)
        except ChildProcessError:  # a helper failed or could not start: write it all here
            fh.seek(0)
            fh.truncate()
            _write_rows(fh, mat, 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staralg",
        description="Pseudoinverse, star-order, and operator-system toolkit.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"staralg {__version__} (prng={PRNG_NAME}, "
            f"rank_rtol={DEFAULT_TOL.rank_rtol:g}, res_rtol={DEFAULT_TOL.res_rtol:g})"
        ),
    )
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--a", required=True)
    pair.add_argument("--b", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("--stream", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    p_pinv = sub.add_parser("pinv", parents=[out], help="write the pseudoinverse of a matrix")
    p_pinv.add_argument("--in", dest="infile", required=True)
    p_pinv.set_defaults(run=_cmd_pinv)

    p_check = sub.add_parser("check", help="evaluate a predicate (exit 0 holds, 1 fails)")
    p_check.set_defaults(run=_cmd_check)
    check_sub = p_check.add_subparsers(dest="predicate", required=True)
    check_sub.add_parser("star-order", parents=[pair], help="is a below b in the star order?")
    p_gp = check_sub.add_parser("gp", help="is a a generalized projection?")
    p_gp.add_argument("--a", required=True)
    check_sub.add_parser(
        "solvable", parents=[pair], help="is b X a = b = a X b solvable (b self-adjoint)?"
    )

    p_solve = sub.add_parser("solve", help="solve an equation and write one solution")
    p_solve.set_defaults(run=_cmd_solve)
    solve_sub = p_solve.add_subparsers(dest="equation", required=True)
    p_sys = solve_sub.add_parser(
        "system", parents=[pair, out], help="b X a = b = a X b via the closed-form family"
    )
    p_sys.add_argument("--s", default=None, help="free parameter (defaults to zero)")
    p_sys.add_argument("--t", default=None, help="free parameter (defaults to zero)")
    p_herm = solve_sub.add_parser(
        "hermitian", parents=[pair, out], help="hermitian solution of b X a = b = a X b"
    )
    p_herm.add_argument("--w", default=None, help="hermitian free parameter (defaults to zero)")
    p_sand = solve_sub.add_parser("sandwich", parents=[out], help="a X b = c")
    p_sand.add_argument("--a", required=True)
    p_sand.add_argument("--c", required=True)
    p_sand.add_argument("--b", required=True)
    p_sand.add_argument("--u", default=None, help="free parameter (defaults to zero)")

    p_gen = sub.add_parser("gen", help="write seeded instances")
    p_gen.set_defaults(run=_cmd_gen)
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_pair = gen_sub.add_parser(
        "star-pair", parents=[seeded], help="pair (a, b) with b below a in the star order"
    )
    g_pair.add_argument("--n", type=int, required=True)
    g_pair.add_argument("--rank", type=int, required=True, help="rank of the smaller element")
    g_pair.add_argument("--extra", type=int, required=True, help="extra rank of the larger element")
    g_pair.add_argument("--hermitian", action="store_true")
    g_pair.add_argument("--out-a", required=True, help="file for the larger element")
    g_pair.add_argument("--out-b", required=True, help="file for the smaller element")
    g_gp = gen_sub.add_parser(
        "gp", parents=[seeded, out], help="generalized projection with given multiplicities"
    )
    g_gp.add_argument("--n", type=int, required=True)
    g_gp.add_argument("--m1", type=int, default=0, help="multiplicity of eigenvalue 1")
    g_gp.add_argument("--mw", type=int, default=0, help="multiplicity of the first cube root")
    g_gp.add_argument("--mw2", type=int, default=0, help="multiplicity of the second cube root")
    g_idem = gen_sub.add_parser(
        "idempotent", parents=[seeded, out], help="rank-r idempotent, optionally skewed"
    )
    g_idem.add_argument("--n", type=int, required=True)
    g_idem.add_argument("--rank", type=int, required=True)
    g_idem.add_argument("--skew", type=float, default=0.0)
    g_rank = gen_sub.add_parser("rank", parents=[seeded, out], help="random matrix of exact rank r")
    g_rank.add_argument("--rows", type=int, required=True)
    g_rank.add_argument("--cols", type=int, required=True)
    g_rank.add_argument("--rank", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run claim suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--dims", type=int, default=6)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--report", default=None, help="also write the report stream here")
    return parser


def _load_or_zeros(path: str | None, shape: tuple[int, int]) -> np.ndarray:
    if path is None:
        return np.zeros(shape, dtype=np.complex128)
    return parse_matrix(path)


def _cmd_pinv(args: argparse.Namespace) -> int:
    a = parse_matrix(args.infile)
    write_matrix(args.out, pinv(a))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.predicate == "star-order":
        r1, r2 = star_residuals(parse_matrix(args.a), parse_matrix(args.b))
        holds = DEFAULT_TOL.holds(r1, r2)
        print(f"residual_aa_adj={r1:.5e}")
        print(f"residual_adj_aa={r2:.5e}")
        print(f"star_order={'yes' if holds else 'no'}")
        return 0 if holds else 1
    if args.predicate == "gp":
        rep = gp_check(parse_matrix(args.a))
        for c in rep.checks:
            print(f"{c.name}={c.residual:.5e}")
        print(f"generalized_projection={'yes' if rep.verdict else 'no'}")
        return 0 if rep.verdict else 1
    ok = system_solvable(parse_matrix(args.a), parse_matrix(args.b))
    print(f"solvable={'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.equation == "system":
        a = parse_matrix(args.a)
        factored = []

        def factor_a() -> None:
            with contextlib.suppress(StaralgError):  # then system_family raises it as always
                factored.append(factor(a))

        # LAPACK releases the GIL: a's SVD runs on a second core while b is read
        worker = threading.Thread(target=factor_a)
        worker.start()
        try:
            b = parse_matrix(args.b)
        finally:
            worker.join()
        fa = factored[0] if factored else a
        if args.s is None and args.t is None:
            # X(0, 0) bit for bit: it adds zero terms to b+, which turn a -0.0 into +0.0
            x = system_family(fa, b).particular + 0.0
        else:
            n = a.shape[0]
            s = _load_or_zeros(args.s, (n, n))
            t = _load_or_zeros(args.t, (n, n))
            x = system_general(fa, b, s, t)
        write_matrix(args.out, x)
        return 0
    if args.equation == "hermitian":
        a = parse_matrix(args.a)
        b = parse_matrix(args.b)
        w = _load_or_zeros(args.w, (a.shape[0], a.shape[0]))
        write_matrix(args.out, system_hermitian(a, b, w))
        return 0
    fam = sandwich_solve(parse_matrix(args.a), parse_matrix(args.c), parse_matrix(args.b))
    x = fam.particular if args.u is None else fam.instantiate([parse_matrix(args.u)])
    write_matrix(args.out, x)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = Seed(args.seed, args.stream)
    if args.kind == "star-pair":
        big, small = gen_star_pair(args.n, args.rank, args.extra, seed, args.hermitian)
        write_matrix(args.out_a, big)
        write_matrix(args.out_b, small)
        return 0
    if args.kind == "gp":
        write_matrix(args.out, gen_gp(args.n, (args.m1, args.mw, args.mw2), seed))
        return 0
    if args.kind == "idempotent":
        write_matrix(args.out, gen_idempotent(args.n, args.rank, args.skew, seed))
        return 0
    write_matrix(args.out, gen_rank_r(args.rows, args.cols, args.rank, seed))
    return 0


def _worker_count(tasks: int, cpus: int, env) -> int:
    """Processes for ``tasks`` independent tasks: the CPUs the BLAS threads leave
    free, counted as OpenBLAS counts them.  With neither variable a positive
    integer, the BLAS runs one thread per CPU, so this gives one process."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = env.get(var, "").strip()
        if threads.isascii() and threads.isdigit() and int(threads) > 0:
            return min(tasks, cpus // int(threads)) or 1
    return 1


def _workers(tasks: int) -> int:
    """``_worker_count`` on this machine; one while another thread is alive,
    since nothing forks then, and one without ``sched_getaffinity``."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return _worker_count(tasks, len(os.sched_getaffinity(0)), os.environ)


@contextlib.contextmanager
def _forked(jobs):
    """Fork a child per job, which sends the bytes-like chunks the job returns,
    after their 8-byte total length, on a pipe of its own; yield the pipes in job
    order.  Every child is reaped on the way out, killed first on a raise, and must
    have exited 0; a fork that fails raises ChildProcessError too."""
    children = {}  # pid -> the read end of its pipe
    try:
        for job in jobs:
            result, send = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:  # out of processes or memory: the caller goes on alone
                os.close(result)
                os.close(send)
                raise ChildProcessError(f"cannot fork a helper: {exc}") from exc
            if pid == 0:  # a child never prints and never returns
                try:
                    chunks = [memoryview(chunk).cast("B") for chunk in job()]
                    with open(send, "wb") as out:
                        out.writelines([sum(map(len, chunks)).to_bytes(8, "little"), *chunks])
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(send)
            children[pid] = open(result, "rb")
        yield list(children.values())
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in children.values():
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in children]
    if any(statuses):
        raise ChildProcessError(f"forked helpers exited with statuses {statuses}")


def _length(pipe) -> int:
    """The byte count a forked child announced; 0 if it sent nothing."""
    return int.from_bytes(pipe.read(8), "little")


def _run_suites(names, args, workers: int) -> list[tuple[str, bool]]:
    """(line, verdict) per trial in suite order.  Workers claim suite indices from one
    pipe; forked ones send pairs back on their own."""
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(names))))
    os.close(fill)

    def claim() -> dict[int, list[tuple[str, bool]]]:
        done = {}
        while index := os.read(claims, 1):
            reps = run_suite(names[index[0]], args.trials, args.dims, args.seed)
            done[index[0]] = [(to_line(rep), rep.verdict) for rep in reps]
        return done

    try:
        with _forked([lambda: [marshal.dumps(claim())]] * (workers - 1)) as pipes:
            done = claim()
            for pipe in pipes:
                done.update(marshal.loads(pipe.read(_length(pipe))))  # a short one fails to load
    finally:
        os.close(claims)
    return [pair for i in range(len(names)) for pair in done[i]]  # KeyError if short


def _cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    workers = _workers(len(names))
    try:
        pairs = _run_suites(names, args, workers)
    except Exception:
        if workers == 1:
            raise
        pairs = _run_suites(names, args, 1)  # one process raises the first error in order
    all_pass = all(verdict for _, verdict in pairs)
    stream = "".join(line + "\n" for line, _ in pairs)
    sys.stdout.write(stream)
    if args.report is not None:
        Path(args.report).write_text(stream, encoding="utf-8")
    print(
        f"{len(names)} suite(s), {len(pairs)} trial reports, "
        f"{'all passed' if all_pass else 'FAILURES present'}",
        file=sys.stderr,
    )
    return 0 if all_pass else 1


def main(argv=None) -> int:
    """Parse arguments (``sys.argv[1:]`` by default) and run one command,
    mapping errors to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.run(args)
    except (StaralgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (MatrixFormatError, OSError)):
            return 2
        # any other domain error, future ones included, is a predicate failure
        return 3 if isinstance(exc, NumericError) else 1


if __name__ == "__main__":
    sys.exit(main())
