"""Command-line front end: matrix file I/O, single-shot solver and predicate
commands, instance generators, and the claim-suite runner.

Matrix files are plain text: a ``rows cols`` header line followed by one
line per row of whitespace-separated ``(re,im)`` tokens.  Floats are written
with 17 significant digits, so write-then-read round-trips bit exactly.
Written files are streamed in and out line by line; any other file is read
row by row, which locates the first malformed entry.  ``solve system`` factors
a on a worker thread while it reads b.

Exit codes are the machine contract:
    0  success / predicate holds
    1  predicate false, system unsolvable, or an input violates a contract
    2  usage error or malformed matrix file
    3  numeric failure
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import re
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
# the lines format_matrix writes: ASCII number characters, blank-separated
# tokens, and no line boundary of str.splitlines but the final "\n"
_HEADER = re.compile(r"([1-9][0-9]*) ([1-9][0-9]*)\n")
_PLAIN = r"\([0-9eE.+-]+,[0-9eE.+-]+\)"
_PLAIN_ROW = re.compile(rf"[ \t]*{_PLAIN}(?:[ \t]+{_PLAIN})*[ \t]*\n?")
_UNWRAP = str.maketrans("(),", "   ")


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


def _parse_written(lines) -> np.ndarray:
    """Stream text as format_matrix writes it into one ``loadtxt``, kept if it
    has ``cols`` finite entries per row; any departure, undecodable bytes
    included, raises a ValueError."""
    header = _HEADER.fullmatch(lines.readline())
    if header is None:
        raise _NotWritten
    rows, cols = int(header[1]), int(header[2])

    def unwrapped():
        for _ in range(rows):
            line = lines.readline()
            if not _PLAIN_ROW.fullmatch(line):
                raise _NotWritten
            yield line.translate(_UNWRAP)
        if any(line.strip() for line in lines):  # only blank lines may follow
            raise _NotWritten

    parts = np.loadtxt(unwrapped(), comments=None, ndmin=2)
    # row i holds re, im, re, im, ... of row i of the matrix
    if parts.shape != (rows, 2 * cols) or not np.isfinite(parts).all():
        raise _NotWritten
    return parts.view(np.complex128)


def _read_utf8(path) -> str:
    data = Path(path).read_bytes()
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
    bulk conversion, so no copy of its whole text is held (a stream source is
    read whole first).  Any other text is read again as a whole and parsed
    token by token, in order, so that the first bad entry in reading order is
    the one reported.  Both paths read every number with CPython's correctly
    rounded ``PyOS_string_to_double``, so they agree bit for bit.
    """
    text = source.read() if hasattr(source, "read") else None
    stream = open(source, encoding="utf-8") if text is None else io.StringIO(text, newline=None)
    with stream, contextlib.suppress(ValueError):  # any departure: read the text exactly
        return _parse_written(stream)
    lines = (_read_utf8(source) if text is None else text).splitlines()
    del text  # the split lines are the only copy kept
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


def _format_lines(mat: np.ndarray):
    row_format = " ".join(["(%.17g,%.17g)"] * mat.shape[1]) + "\n"
    yield f"{mat.shape[0]} {mat.shape[1]}\n"
    for row in mat:
        # re, im, re, im, ... of one row; the copy only happens for strided rows
        yield row_format % tuple(np.ascontiguousarray(row).view(np.float64).tolist())


def format_matrix(m) -> str:
    """Serialize a matrix; floats carry 17 significant digits for round-trips."""
    return "".join(_format_lines(as_cmat(m)))


def write_matrix(path, m) -> None:
    """Write ``format_matrix(m)`` line by line; a bad m raises before the file opens."""
    mat = as_cmat(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_format_lines(mat))


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


def _cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    lines = []
    all_pass = True
    for name in names:
        for rep in run_suite(name, args.trials, args.dims, args.seed):
            lines.append(to_line(rep))
            all_pass = all_pass and rep.verdict
    stream = "\n".join(lines) + "\n"
    sys.stdout.write(stream)
    if args.report is not None:
        Path(args.report).write_text(stream, encoding="utf-8")
    print(
        f"{len(names)} suite(s), {len(lines)} trial reports, "
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
