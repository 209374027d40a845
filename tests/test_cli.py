"""Matrix file format and command dispatch tests (in-process)."""

import hashlib
import io
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staralg
from staralg import (
    MatrixFormatError,
    NotComparableError,
    NumericError,
    PreconditionError,
    Seed,
    SplitMix64,
    StaralgError,
    UnsolvableError,
    gen_star_pair,
    pinv,
    solves_system,
    system_general,
)
from staralg import cli
from staralg.cli import format_matrix, main, parse_matrix, write_matrix


def run(*argv):
    return main(list(argv))


# --- format --------------------------------------------------------------


def test_parse_scalar():
    m = parse_matrix(io.StringIO("1 1\n(2.0,0.0)"))
    assert m.shape == (1, 1)
    assert m[0, 0] == 2.0


def test_parse_identity():
    m = parse_matrix(io.StringIO("2 2\n(1,0) (0,0)\n(0,0) (1,0)"))
    assert np.array_equal(m, np.eye(2, dtype=complex))


def test_parse_column():
    m = parse_matrix(io.StringIO("2 1\n(0,1)\n(0,-1)"))
    assert np.array_equal(m, np.array([[1j], [-1j]]))


def _sources(text, directory):
    """``text`` as a stream, and as the path of a file in ``directory`` that
    holds its UTF-8 bytes: the two ways ``parse_matrix`` reads."""
    path = Path(directory) / "source.mat"
    path.write_bytes(text.encode("utf-8"))
    return io.StringIO(text), path


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12))
def test_round_trip_is_bit_exact(entries):
    rows = len(entries)
    m = np.array([[complex(re, im)] for re, im in entries]).reshape(rows, 1)
    back = parse_matrix(io.StringIO(format_matrix(m)))
    assert back.tobytes() == m.tobytes()


def test_round_trip_via_files(tmp_path):
    m = np.array([[0.1 + 0.2j, -3.0], [1e-300, 7e200 + 1e-12j]])
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    assert parse_matrix(path).tobytes() == m.astype(complex).tobytes()


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("", 1, 1),
        ("2\n(1,0)\n(1,0)", 1, 1),
        ("a b\n(1,0)", 1, 1),
        ("0 1\n", 1, 1),
        ("1 2\n(1,0)", 2, 1),
        ("1 1\n(1,0) (2,0)", 2, 7),
        ("1 1\nbogus", 2, 1),
        ("1 1\n(a,b)", 2, 1),
        ("1 1\n(nan,0)", 2, 1),
        ("2 1\n(1,0)", 3, 1),
        ("3 1\n(1,0)", 3, 1),
        ("1 1\n(1,0)\n(2,0)\n(3,0)", 3, 1),
        ("2 1\n(1,0)\n\n(2,0)", 4, 1),
    ],
)
def test_parse_errors_carry_position(text, line, column, tmp_path):
    for source in _sources(text, tmp_path):
        with pytest.raises(MatrixFormatError) as excinfo:
            parse_matrix(source)
        assert excinfo.value.line == line
        assert excinfo.value.column == column


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 1\n(1,0)(2,0)", "bad entry '(1,0)(2,0)', expected '(re,im)' (line 2, column 1)"),
        ("1 2\n(1,0)(2,0)", "expected 2 entries, found 1 (line 2, column 1)"),
        ("1 1\n((1,0)", "bad entry '((1,0)', expected '(re,im)' (line 2, column 1)"),
        ("1 1\n(1,0))", "bad entry '(1,0))', expected '(re,im)' (line 2, column 1)"),
        ("1 1\n(1,,0)", "bad entry '(1,,0)', expected '(re,im)' (line 2, column 1)"),
        ("1 1\n(1,\xa00)", "expected 1 entries, found 2 (line 2, column 5)"),
        ("1 1\n(1,\t0)", "expected 1 entries, found 2 (line 2, column 5)"),
        ("1 1\n( 1,0)", "expected 1 entries, found 2 (line 2, column 3)"),
        ("1 1\n(1e999,0)", "non-finite entry '(1e999,0)' (line 2, column 1)"),
        ("1 1\n(inf,0)", "non-finite entry '(inf,0)' (line 2, column 1)"),
        ("1 1\n(0,-inf)", "non-finite entry '(0,-inf)' (line 2, column 1)"),
        ("1 3\n(1,0) (2,0) (x,0)", "unparsable float in entry '(x,0)' (line 2, column 13)"),
        ("1 3\n(1,0) (2,0) (3,0", "bad entry '(3,0', expected '(re,im)' (line 2, column 13)"),
        ("1 2\n(1,0) (2,0) (3,0)", "expected 2 entries, found 3 (line 2, column 13)"),
        ("1 3\n(1,0) (2,0)", "expected 3 entries, found 2 (line 2, column 7)"),
        ("2 1\r\n(1,0)\r\n(a,0)\r\n\r\n", "unparsable float in entry '(a,0)' (line 3, column 1)"),
        ("2 2\n(1,0) (nan,0)\n(1,0) (2,0) \n\n  \n", "non-finite entry '(nan,0)' (line 2, column 7)"),
        # the first bad entry in reading order wins, whatever its kind
        ("3 1\n(1,0)\n(nan,0)\n(x,0)", "non-finite entry '(nan,0)' (line 3, column 1)"),
        ("3 1\n(1,0)\n(x,0)\n(nan,0)", "unparsable float in entry '(x,0)' (line 3, column 1)"),
        ("3 1\n(1e999,0)\n(1,0)\n(2,0)", "non-finite entry '(1e999,0)' (line 2, column 1)"),
        # a header the body cannot fill is reported, not allocated
        ("1 1152921504606846976\n(1,0)",
         "expected 1152921504606846976 entries, found 1 (line 2, column 1)"),
        ("1 100000000000\n(1,0)", "expected 100000000000 entries, found 1 (line 2, column 1)"),
        # a blank line between written rows is not skipped
        ("2 1\n(1,0)\n\n(2,0)\n", "expected 2 row lines, found 3 (line 4, column 1)"),
    ],
)
def test_malformed_rows_report_message_and_position(text, message, tmp_path):
    for source in _sources(text, tmp_path):
        with pytest.raises(MatrixFormatError) as excinfo:
            parse_matrix(source)
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 1\n(1_0,0)", [[10]]),  # float() grammar: digit separators
        ("1 2\n(1,0)\xa0(2,0)", [[1, 2]]),
        ("1 2\n\t(1,0)\t(2,-0)\t", [[1, 2]]),
        ("2 1\r\n(1,0)\r\n(0,2)\r\n\r\n\n", [[1], [2j]]),
        ("1 1\n(+1E2,-.5)", [[100 - 0.5j]]),
    ],
)
def test_parse_accepts_float_grammar_and_any_whitespace(text, expected, tmp_path):
    for source in _sources(text, tmp_path):
        m = parse_matrix(source)
        assert m.dtype == np.complex128
        assert np.array_equal(m, np.array(expected, dtype=complex))


@pytest.mark.parametrize("boundary", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
def test_line_boundaries_other_than_newline_split_lines(boundary, tmp_path):
    """Every str.splitlines boundary ends a line, wherever it stands in a
    written file, whether the file is read as a stream or from its path."""
    for text, outcome in (
        (f"2{boundary}2\n(1,0) (2,0)\n(3,0) (4,0)\n",
         "header must be two integers, got '2' (line 1, column 1)"),
        (f"2 2\n(1,0){boundary}(2,0)\n(3,0) (4,0)\n",
         "expected 2 row lines, found 3 (line 4, column 1)"),
        (f"2 2\n(1,0) (2,0)\n(3,0) (4,0){boundary}\n", [[1, 2], [3, 4]]),
        (f"2 2\n(1,0) (2,0)\n(3,0) (4,0)\n{boundary}\n \n", [[1, 2], [3, 4]]),
    ):
        for source in _sources(text, tmp_path):
            if isinstance(outcome, str):
                with pytest.raises(MatrixFormatError) as excinfo:
                    parse_matrix(source)
                assert str(excinfo.value) == outcome
            else:
                assert parse_matrix(source).tobytes() == np.array(outcome, dtype=complex).tobytes()


edge = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308])


def _parse_every_row(text):
    """Reference parse: every row line through ``cli._parse_row``, in order."""
    lines = text.splitlines()
    rows, cols = map(int, lines[0].split())
    body = lines[1:rows + 1]
    return np.array(
        [cli._parse_row(line, i + 2, cols) for i, line in enumerate(body)], dtype=complex
    )


def _assert_parses_as_every_row(text, directory):
    """parse_matrix gives the reference's bytes, or its message, line and
    column, reading ``text`` as a stream and from a file in ``directory``."""

    def outcome(parse, source):
        try:
            return parse(source).tobytes()
        except MatrixFormatError as exc:
            return str(exc), exc.line, exc.column

    expected = outcome(_parse_every_row, text)
    for source in _sources(text, directory):
        assert outcome(parse_matrix, source) == expected, (text, type(source).__name__)


def _mutated_file(rows, mutations, newline="\n", tail=""):
    """The text format_matrix writes for ``rows`` of (re, im), with each
    (row, mutation) applied: a separator, one re or im part, or a whole token
    replaced, or a blank prefix or suffix added."""
    cols = len(rows[0])
    tokens = [[f"({re:.17g},{im:.17g})" for re, im in row] for row in rows]
    seps = [[" "] * (cols - 1) + [""] for _ in rows]
    pads = [["", ""] for _ in rows]
    for i, (kind, where, *what) in mutations:
        i %= len(rows)
        if kind == "sep" and cols > 1:
            seps[i][where % (cols - 1)] = what[0]
        elif kind == "part":
            parts = tokens[i][where % cols][1:-1].split(",")
            parts[what[0]] = what[1]
            tokens[i][where % cols] = f"({parts[0]},{parts[1]})"
        elif kind == "token":
            tokens[i][where % cols] = what[0]
        elif kind == "pad":
            pads[i][where] = what[0]
    lines = [f"{len(rows)} {cols}"] + [
        lead + "".join(map("".join, zip(toks, sep))) + trail
        for toks, sep, (lead, trail) in zip(tokens, seps, pads)
    ]
    return newline.join(lines) + tail.replace("\n", newline)


SEP_SWAPS = ["\t", "\xa0", "  ", ""]  # "" makes two tokens adjacent
PART_SWAPS = ["1_0", "+1E2", ".5", "5.", "1e999", "-1e999", "nan", "inf", "-inf", "", "e", "1e5e"]
TOKEN_SWAPS = ["((1,0)", "(1,,0)", "(,2)3 (4,5)", "(1,2)3", "(1,0) (2,0)"]
PADS = [" ", "\t", " \t"]
MUTATIONS = [
    *(("sep", 0, sep) for sep in SEP_SWAPS),
    *(("part", 1, side, part) for side in (0, 1) for part in PART_SWAPS),
    *(("token", 1, token) for token in TOKEN_SWAPS),
    *(("pad", side, pad) for side in (0, 1) for pad in PADS),
]
EDGE_ROWS = [
    [(-0.0, 5e-324), (1.7976931348623157e308, -1.7976931348623157e308), (0.1, -2.5e-310)],
    [(1.0, 0.0), (-3.0, 1e-300), (7e200, 2.0)],
    [(0.0, -0.0), (123.456, 1e22), (-5e-324, 1.0)],
]


@pytest.mark.parametrize("newline,tail", [("\n", ""), ("\r\n", "\n\n \t\n")])
def test_each_mutation_parses_as_every_row(newline, tail, tmp_path):
    for rows in (EDGE_ROWS, EDGE_ROWS[:1]):
        _assert_parses_as_every_row(_mutated_file(rows, [], newline, tail), tmp_path)
        for mutation in MUTATIONS:
            for row in range(len(rows)):
                _assert_parses_as_every_row(
                    _mutated_file(rows, [(row, mutation)], newline, tail), tmp_path
                )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.tuples(finite | edge, finite | edge), min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    ),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(MUTATIONS)), max_size=3),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["", "\n", "\n  \n\t\n"]),
)
def test_parse_matches_the_row_by_row_reference(tmp_path_factory, rows, mutations, newline, tail):
    """Both parse paths agree with ``_parse_row`` run on every line, for
    written files and any mix of mutations of them."""
    _assert_parses_as_every_row(
        _mutated_file(rows, mutations, newline, tail), tmp_path_factory.getbasetemp()
    )


def test_written_files_take_the_bulk_path(tmp_path, monkeypatch):
    """Files ``gen`` writes never reach the row-by-row parser; a file with one
    NBSP-separated row does, for every row, and reads the same values."""
    assert run("gen", "star-pair", "--n", "64", "--rank", "20", "--extra", "20", "--seed", "3",
               "--out-a", str(tmp_path / "a.mat"), "--out-b", str(tmp_path / "b.mat")) == 0
    real_parse_row = cli._parse_row

    def refuse(*args):
        raise AssertionError("a written file left the bulk path")

    monkeypatch.setattr(cli, "_parse_row", refuse)
    parsed = {name: parse_matrix(tmp_path / name) for name in ("a.mat", "b.mat")}
    for name, m in zip(("a.mat", "b.mat"), gen_star_pair(64, 20, 20, Seed(3))):
        assert parsed[name].tobytes() == m.tobytes()

    calls = []
    monkeypatch.setattr(cli, "_parse_row", lambda *args: calls.append(args) or real_parse_row(*args))
    lines = (tmp_path / "a.mat").read_text().split("\n")
    lines[5] = lines[5].replace(") (", ")\xa0(", 1)
    (tmp_path / "nbsp.mat").write_text("\n".join(lines), encoding="utf-8")
    assert parse_matrix(tmp_path / "nbsp.mat").tobytes() == parsed["a.mat"].tobytes()
    assert len(calls) == 64


LAYOUTS = {
    "as-built": lambda m: m,
    "transposed": lambda m: m.T,
    "fortran-order": np.asfortranarray,
    "every-other-column": lambda m: m[:, ::2],
    "last-column": lambda m: m[:, -1:],
}


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.tuples(finite | edge, finite | edge), min_size=cols, max_size=cols),
            min_size=1,
            max_size=5,
        )
    ),
    st.sampled_from(sorted(LAYOUTS)),
)
def test_format_matches_per_entry_reference(rows, layout):
    m = LAYOUTS[layout](np.array([[complex(re, im) for re, im in row] for row in rows]))
    reference = f"{m.shape[0]} {m.shape[1]}\n" + "".join(
        " ".join(f"({z.real:.17g},{z.imag:.17g})" for z in row) + "\n" for row in m
    )
    assert format_matrix(m) == reference
    assert parse_matrix(io.StringIO(reference)).tobytes() == np.ascontiguousarray(m).tobytes()


@pytest.mark.parametrize(
    "data,byte,line,column",
    [
        (b"2 1\n(1,0)\n(\xff,0)\n", 0xFF, 3, 2),
        (b"2\xff1\n(1,0)\n(2,0)\n", 0xFF, 1, 2),
        (b"1 1\n(1,0)\n \n\xfe\n", 0xFE, 4, 1),
        (b"1 1\r\n(1,0)\xc2\xa0\xff\n", 0xFF, 2, 7),  # columns count characters, not bytes
        (b"1 1\n(1,0)\n\xc3", 0xC3, 3, 1),  # a character cut off at the end of the file
    ],
)
def test_undecodable_bytes_are_format_errors(tmp_path, data, byte, line, column):
    """A file that is not UTF-8 gets the line and column of its first bad byte."""
    path = tmp_path / "bad.mat"
    path.write_bytes(data)
    with pytest.raises(MatrixFormatError) as excinfo:
        parse_matrix(path)
    assert str(excinfo.value) == (
        f"byte 0x{byte:02x} is not valid UTF-8 (line {line}, column {column})"
    )


def test_undecodable_byte_met_inside_the_streamed_read(tmp_path):
    """A bad byte in the last row of a written file many read buffers long
    is met inside ``loadtxt``, and still reported with its position."""
    written = format_matrix(gen_star_pair(60, 20, 20, Seed(3))[0]).encode("utf-8")
    last_row = written.rindex(b"\n(") + 1
    path = tmp_path / "bad.mat"
    path.write_bytes(written[:last_row] + b"(\x80" + written[last_row + 1:])
    with pytest.raises(MatrixFormatError) as excinfo:
        parse_matrix(path)
    assert str(excinfo.value) == "byte 0x80 is not valid UTF-8 (line 61, column 2)"


def test_codec_memory_stays_near_the_array(tmp_path):
    """Neither direction holds the whole text of an n = 200 file: a parse
    peaks under twice the array's bytes, and a write under 64 KiB."""
    m = SplitMix64(Seed(1)).complex_gaussian(200, 200)
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    assert path.stat().st_size > 2.5 * m.nbytes
    tracemalloc.start()
    try:
        write_matrix(path, m)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = parse_matrix(path)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == m.tobytes()
    assert parse_peak <= 2 * m.nbytes
    assert write_peak <= 64 * 1024


def test_written_files_are_byte_stable(tmp_path, pinned_env):
    """Pins the bytes ``gen``, ``pinv`` and ``solve system`` write for one
    n = 64 pair, so any change of the text codec or of the solution that
    alters a written digit fails here.  The children run in ``pinned_env``.
    """
    cli = [sys.executable, "-m", "staralg"]
    for argv in (
        ["gen", "star-pair", "--n", "64", "--rank", "20", "--extra", "20", "--seed", "3",
         "--out-a", "a.mat", "--out-b", "b.mat"],
        ["pinv", "--in", "a.mat", "--out", "pinv_a.mat"],
        ["solve", "system", "--a", "a.mat", "--b", "b.mat", "--out", "x.mat"],
    ):
        subprocess.run(cli + argv, cwd=tmp_path, env=pinned_env, check=True)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("a.mat", "b.mat", "pinv_a.mat", "x.mat")
    }
    assert digests == {
        "a.mat": "ef1dd622d89d0ce0206e86d0191fd5c760420677674e66a44b383ac41055a0c0",
        "b.mat": "d37146dc6153c2965e1f3b12dc8de6ce87cb5b2a8ef33b9b55b35515d8b46756",
        "pinv_a.mat": "6af2ab726f5de03d42b217235e60f13b18485cf32366b3518d0418c11f360552",
        "x.mat": "79a3261eebd7b628f7832f705a4c3bd488275aec7c555f342011b93096daefd4",
    }


# --- commands ------------------------------------------------------------


def test_pinv_command(tmp_path):
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    apath = tmp_path / "a.mat"
    xpath = tmp_path / "x.mat"
    write_matrix(apath, a)
    assert run("pinv", "--in", str(apath), "--out", str(xpath)) == 0
    assert parse_matrix(xpath).tobytes() == pinv(a).tobytes()


def test_pinv_command_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n(1,0) (0,0)\n(0,0) oops\n")
    assert run("pinv", "--in", str(bad), "--out", str(tmp_path / "x.mat")) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "column" in err


@pytest.mark.parametrize("command", ["pinv", "solve system", "check star-order"])
def test_undecodable_file_is_a_format_error(tmp_path, capsys, command):
    """A matrix file that is not UTF-8 exits 2 with the bad byte's position,
    with no traceback, as the first or the second operand."""
    good, bad = tmp_path / "good.mat", tmp_path / "bad.mat"
    write_matrix(good, np.eye(2, 1))
    bad.write_bytes(b"2 1\n(1,0)\n(\xff,0)\n")
    out = ["--out", str(tmp_path / "x.mat")]
    pairs = [["--a", str(bad), "--b", str(good)], ["--a", str(good), "--b", str(bad)]]
    argvs = {
        "pinv": [["--in", str(bad), *out]],
        "solve system": [[*pair, *out] for pair in pairs],
        "check star-order": pairs,
    }[command]
    for argv in argvs:
        assert run(*command.split(), *argv) == 2
        assert capsys.readouterr().err == (
            "error: byte 0xff is not valid UTF-8 (line 3, column 2)\n"
        )
    assert not (tmp_path / "x.mat").exists()


def test_check_solvable_non_square_b_is_an_error(tmp_path, capsys):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    write_matrix(a, np.eye(2))
    write_matrix(b, np.ones((2, 3)))
    assert run("check", "solvable", "--a", str(a), "--b", str(b)) == 1
    assert capsys.readouterr().err == (
        "error: expected square matrices of one common dimension, got (2, 2) and (2, 3)\n"
    )


def test_check_star_order_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    write_matrix(a, np.diag([1.0, 0.0]))
    write_matrix(b, np.diag([1.0, 2.0]))
    assert run("check", "star-order", "--a", str(a), "--b", str(b)) == 0
    out = capsys.readouterr().out
    assert "residual_aa_adj=" in out and "residual_adj_aa=" in out
    assert run("check", "star-order", "--a", str(b), "--b", str(a)) == 1
    assert run("check", "star-order", "--a", str(a), "--b", str(a)) == 0


def test_check_gp_and_solvable(tmp_path):
    gp = tmp_path / "gp.mat"
    assert run("gen", "gp", "--n", "4", "--m1", "1", "--mw", "1", "--seed", "5", "--out", str(gp)) == 0
    assert run("check", "gp", "--a", str(gp)) == 0
    notgp = tmp_path / "notgp.mat"
    write_matrix(notgp, np.diag([2.0, 0.0]))
    assert run("check", "gp", "--a", str(notgp)) == 1

    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    write_matrix(a, np.diag([1.0, 0.0]))
    write_matrix(b, np.diag([3.0, 0.0]))
    assert run("check", "solvable", "--a", str(a), "--b", str(b)) == 0
    write_matrix(b, np.diag([0.0, 1.0]))
    assert run("check", "solvable", "--a", str(a), "--b", str(b)) == 1


def test_solve_system_pipeline(tmp_path):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    x = tmp_path / "x.mat"
    axa = tmp_path / "axa.mat"
    assert run(
        "gen", "star-pair", "--n", "5", "--rank", "2", "--extra", "2",
        "--seed", "3", "--out-a", str(a), "--out-b", str(b),
    ) == 0
    assert run("solve", "system", "--a", str(a), "--b", str(b), "--out", str(x)) == 0
    am, xm, bm = parse_matrix(a), parse_matrix(x), parse_matrix(b)
    assert np.allclose(bm @ xm @ am, bm, atol=1e-9)
    assert np.allclose(am @ xm @ bm, bm, atol=1e-9)
    write_matrix(axa, am @ xm @ am)
    assert run("check", "star-order", "--a", str(axa), "--b", str(b)) == 0


def test_solve_system_default_is_the_zero_parameter_solution(tmp_path):
    """Without --s/--t the written file is X(0, 0) byte for byte, including
    the sign of zeros: -2I has a -0.0 in its pseudoinverse that X(0, 0) lacks."""
    neg = -2.0 * np.eye(2)
    assert np.signbit(pinv(neg).real).any()
    pairs = [gen_star_pair(4, 2, 1, Seed(seed)) for seed in range(1, 21)] + [(neg, neg)]
    a, b, x = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "x.mat"
    for am, bm in pairs:
        write_matrix(a, am)
        write_matrix(b, bm)
        assert run("solve", "system", "--a", str(a), "--b", str(b), "--out", str(x)) == 0
        zero = np.zeros_like(am)
        assert x.read_text() == format_matrix(system_general(am, bm, zero, zero))


def test_solve_system_parameters(tmp_path, capsys):
    am, bm = gen_star_pair(4, 2, 1, Seed(4))
    rng = SplitMix64(Seed(5))
    sm, tm = rng.complex_gaussian(4, 4), rng.complex_gaussian(4, 4)
    zero = np.zeros((4, 4), dtype=complex)
    paths = {name: tmp_path / f"{name}.mat" for name in ("a", "b", "s", "t", "s3", "x")}
    for name, m in (("a", am), ("b", bm), ("s", sm), ("t", tm), ("s3", np.eye(3))):
        write_matrix(paths[name], m)
    base = ["solve", "system", "--a", str(paths["a"]), "--b", str(paths["b"]),
            "--out", str(paths["x"])]
    for extra, (s, t) in (
        (["--s", str(paths["s"])], (sm, zero)),
        (["--t", str(paths["t"])], (zero, tm)),
        (["--s", str(paths["s"]), "--t", str(paths["t"])], (sm, tm)),
    ):
        assert run(*base, *extra) == 0
        assert paths["x"].read_text() == format_matrix(system_general(am, bm, s, t))

    for extra, message in (
        (["--s", str(paths["s3"])], "s must be 4x4, got (3, 3)"),
        (["--t", str(paths["s3"])], "t must be 4x4, got (3, 3)"),
        (["--s", str(paths["s"]), "--t", str(paths["s3"])], "t must be 4x4, got (3, 3)"),
    ):
        assert run(*base, *extra) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # the shape error comes before the order error (a is not below b)
    swapped = ["solve", "system", "--a", str(paths["b"]), "--b", str(paths["a"]),
               "--out", str(paths["x"])]
    assert run(*swapped) == 1
    err = capsys.readouterr().err
    assert "requires b <=* a" in err
    assert err.endswith(" (res_rtol 1e-08)\n")  # the message names the threshold
    assert run(*swapped, "--s", str(paths["s3"])) == 1
    assert capsys.readouterr().err == "error: s must be 4x4, got (3, 3)\n"


def test_solve_system_factors_only_a(tmp_path, svd_calls):
    """One SVD, of a, with or without parameters: b+ is read off it as a+ b a+."""
    am, bm = gen_star_pair(6, 2, 2, Seed(9))
    paths = {name: tmp_path / f"{name}.mat" for name in ("a", "b", "t", "x")}
    for name, m in (("a", am), ("b", bm), ("t", np.eye(6))):
        write_matrix(paths[name], m)
    base = ["solve", "system", "--a", str(paths["a"]), "--b", str(paths["b"]),
            "--out", str(paths["x"])]
    svd_calls.clear()
    assert cli.main(base) == 0
    assert len(svd_calls) == 1
    svd_calls.clear()
    assert cli.main([*base, "--t", str(paths["t"])]) == 0
    assert len(svd_calls) == 1


def test_solve_system_factors_a_off_the_main_thread(tmp_path, monkeypatch):
    """a's one SVD runs on a worker thread, which has ended when main returns."""
    threads = []
    real_svd = np.linalg.svd

    def svd(*args, **kwargs):
        threads.append(threading.current_thread())
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    paths = {name: tmp_path / f"{name}.mat" for name in ("a", "b", "x")}
    for name, m in zip("ab", gen_star_pair(6, 2, 2, Seed(9))):
        write_matrix(paths[name], m)
    before = threading.active_count()
    assert run("solve", "system", "--a", str(paths["a"]), "--b", str(paths["b"]),
               "--out", str(paths["x"])) == 0
    assert len(threads) == 1 and threads[0] is not threading.main_thread()
    assert not threads[0].is_alive()
    assert threading.active_count() == before


def test_solve_system_worker_failure_raises_where_it_did(tmp_path, capsys, monkeypatch):
    """When a's SVD fails on the worker, every error is still the one the
    serial order gives: b's format first, then the shapes, then the SVD; and
    no thread is left running."""

    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    paths = {name: tmp_path / f"{name}.mat" for name in ("a", "b", "a3", "b2", "bad", "x")}
    for name, m in (*zip("ab", gen_star_pair(4, 2, 1, Seed(4))), ("a3", np.eye(3)),
                    ("b2", np.eye(2))):
        write_matrix(paths[name], m)
    paths["bad"].write_text("2 2\n(1,0) (0,0)\n(0,0) oops\n")
    for a, b, code, message in (
        ("a3", "b2", 1, "error: expected square matrices of one common dimension, "
                        "got (3, 3) and (2, 2)\n"),
        ("a", "b", 3, "error: SVD did not converge for a 4x4 matrix\n"),
        ("a", "bad", 2, "error: bad entry 'oops', expected '(re,im)' (line 3, column 7)\n"),
    ):
        before = threading.active_count()
        assert run("solve", "system", "--a", str(paths[a]), "--b", str(paths[b]),
                   "--out", str(paths["x"])) == code
        assert capsys.readouterr().err == message
        assert threading.active_count() == before
    assert not paths["x"].exists()


def test_solve_unsolvable_exits_one(tmp_path, capsys):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    write_matrix(a, np.diag([1.0, 0.0]))
    write_matrix(b, np.diag([2.0, 0.0]))  # not below a in the star order
    assert run("solve", "system", "--a", str(a), "--b", str(b), "--out", str(a)) == 1
    assert "error" in capsys.readouterr().err


def test_solve_hermitian_and_sandwich(tmp_path):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    x = tmp_path / "x.mat"
    assert run(
        "gen", "star-pair", "--n", "4", "--rank", "2", "--extra", "1", "--hermitian",
        "--seed", "9", "--out-a", str(a), "--out-b", str(b),
    ) == 0
    assert run("solve", "hermitian", "--a", str(a), "--b", str(b), "--out", str(x)) == 0
    am, bm, xm = parse_matrix(a), parse_matrix(b), parse_matrix(x)
    assert np.allclose(xm, xm.conj().T, atol=1e-8)
    assert np.allclose(bm @ xm @ am, bm, atol=1e-8)

    c = tmp_path / "c.mat"
    write_matrix(c, am @ np.eye(4) @ am)
    cm = parse_matrix(c)
    u = tmp_path / "u.mat"
    write_matrix(u, np.ones((4, 4)))
    for extra in ((), ("--u", str(u))):
        assert run("solve", "sandwich", "--a", str(a), "--c", str(c), "--b", str(a),
                   "--out", str(x), *extra) == 0
        xm = parse_matrix(x)
        assert np.allclose(am @ xm @ am, cm, atol=1e-8)
    assert not np.allclose(xm, pinv(am) @ cm @ pinv(am), atol=1e-8)


def test_gen_solve_check_pipelines_over_seeds(tmp_path):
    for seed in range(1, 21):
        a = tmp_path / f"a{seed}.mat"
        b = tmp_path / f"b{seed}.mat"
        x = tmp_path / f"x{seed}.mat"
        assert run(
            "gen", "star-pair", "--n", "4", "--rank", "2", "--extra", "1",
            "--seed", str(seed), "--out-a", str(a), "--out-b", str(b),
        ) == 0
        assert run("solve", "system", "--a", str(a), "--b", str(b), "--out", str(x)) == 0
        assert run("check", "star-order", "--a", str(b), "--b", str(a)) == 0

        g = tmp_path / f"g{seed}.mat"
        assert run("gen", "gp", "--n", "4", "--m1", "1", "--mw", "1", "--seed", str(seed), "--out", str(g)) == 0
        assert run("check", "gp", "--a", str(g)) == 0

        r = tmp_path / f"r{seed}.mat"
        p = tmp_path / f"p{seed}.mat"
        assert run("gen", "rank", "--rows", "4", "--cols", "3", "--rank", "2", "--seed", str(seed), "--out", str(r)) == 0
        assert run("pinv", "--in", str(r), "--out", str(p)) == 0

        q = tmp_path / f"q{seed}.mat"
        assert run("gen", "idempotent", "--n", "4", "--rank", "2", "--skew", "0.4", "--seed", str(seed), "--out", str(q)) == 0
        qm = parse_matrix(q)
        assert np.allclose(qm @ qm, qm, atol=1e-8)

        ha = tmp_path / f"ha{seed}.mat"
        hb = tmp_path / f"hb{seed}.mat"
        hx = tmp_path / f"hx{seed}.mat"
        assert run(
            "gen", "star-pair", "--n", "4", "--rank", "2", "--extra", "1", "--hermitian",
            "--seed", str(seed), "--out-a", str(ha), "--out-b", str(hb),
        ) == 0
        assert run("solve", "hermitian", "--a", str(ha), "--b", str(hb), "--out", str(hx)) == 0
        assert run("check", "solvable", "--a", str(ha), "--b", str(hb)) == 0


def test_gen_is_deterministic(tmp_path):
    one = tmp_path / "one.mat"
    two = tmp_path / "two.mat"
    for out in (one, two):
        assert run("gen", "rank", "--rows", "3", "--cols", "3", "--rank", "2", "--seed", "7", "--out", str(out)) == 0
    assert one.read_bytes() == two.read_bytes()


def test_verify_command_writes_report(tmp_path, capsys):
    report = tmp_path / "report.txt"
    rc = run(
        "verify", "--suite", "penrose", "--trials", "4", "--dims", "5",
        "--seed", "2", "--report", str(report),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert report.read_text() == out
    assert out.count("\n") == 4
    assert "suite=penrose trial=0 root=2 stream=0" in out


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run("verify", "--suite", "bogus") == 2
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run("pinv", "--in", "only") == 2
    capsys.readouterr()


# every command with a complete set of its required options
COMMANDS = {
    "pinv": ["--in", "i.mat", "--out", "o.mat"],
    "check star-order": ["--a", "a.mat", "--b", "b.mat"],
    "check gp": ["--a", "a.mat"],
    "check solvable": ["--a", "a.mat", "--b", "b.mat"],
    "solve system": ["--a", "a.mat", "--b", "b.mat", "--out", "o.mat"],
    "solve hermitian": ["--a", "a.mat", "--b", "b.mat", "--out", "o.mat"],
    "solve sandwich": ["--a", "a.mat", "--c", "c.mat", "--b", "b.mat", "--out", "o.mat"],
    "gen star-pair": ["--n", "3", "--rank", "1", "--extra", "1", "--seed", "1",
                      "--out-a", "a.mat", "--out-b", "b.mat"],
    "gen gp": ["--n", "3", "--seed", "1", "--out", "o.mat"],
    "gen idempotent": ["--n", "3", "--rank", "1", "--seed", "1", "--out", "o.mat"],
    "gen rank": ["--rows", "3", "--cols", "3", "--rank", "1", "--seed", "1", "--out", "o.mat"],
    "verify": ["--suite", "penrose"],
}


@pytest.mark.parametrize("command", ["", "check", "solve", "gen", *COMMANDS])
def test_help_exits_zero(capsys, command):
    assert run(*command.split(), "--help") == 0
    assert capsys.readouterr().out.startswith("usage: staralg")


@pytest.mark.parametrize("command, option", [
    (command, option) for command, argv in COMMANDS.items()
    for option in ("--a", "--b", "--out") if option in argv
])
def test_missing_operand_is_usage_error(capsys, command, option):
    argv = COMMANDS[command]
    i = argv.index(option)
    assert run(*command.split(), *argv[:i], *argv[i + 2:]) == 2
    assert f"the following arguments are required: {option}" in capsys.readouterr().err


def test_residual_norm_overflow_gets_the_right_answer(tmp_path, capsys):
    """The entries are finite but the residual norms overflow: a related pair
    is still "yes", with nothing on stderr, and gets an X, and an unrelated
    pair is still refused."""
    big, small = gen_star_pair(4, 2, 1, Seed(3))
    unrelated = gen_star_pair(4, 2, 1, Seed(4))[1]
    paths = {name: tmp_path / f"{name}.mat" for name in ("a", "b", "r", "x", "y")}
    env = {**os.environ, "PYTHONPATH": str(Path(staralg.__file__).resolve().parent.parent)}
    for scale in (1e80, 1e150):
        for name, m in (("a", big), ("b", small), ("r", unrelated)):
            write_matrix(paths[name], scale * m)
        done = subprocess.run(
            [sys.executable, "-m", "staralg", "check", "star-order",
             "--a", str(paths["b"]), "--b", str(paths["a"])],
            capture_output=True, env=env,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.endswith(b"star_order=yes\n")
        assert run("solve", "system", "--a", str(paths["a"]), "--b", str(paths["b"]),
                   "--out", str(paths["x"])) == 0
        assert solves_system(scale * big, scale * small, parse_matrix(paths["x"])).verdict
        assert run("solve", "system", "--a", str(paths["a"]), "--b", str(paths["r"]),
                   "--out", str(paths["y"])) == 1
        assert not paths["y"].exists()
        assert "requires b <=* a" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.mat"
    assert run("pinv", "--in", str(missing), "--out", str(tmp_path / "x.mat")) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (MatrixFormatError("boom"), 2),
        (OSError("boom"), 2),
        (PreconditionError("boom"), 1),
        (NotComparableError("boom", (1.0, 1.0)), 1),
        (UnsolvableError("boom"), 1),
        (NumericError("boom"), 3),
        (StaralgError("boom"), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "pinv", fail)
    a = tmp_path / "a.mat"
    write_matrix(a, np.eye(2))
    assert run("pinv", "--in", str(a), "--out", str(tmp_path / "x.mat")) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_version_mentions_prng(capsys):
    assert run("--version") == 0
    out = capsys.readouterr().out
    assert "splitmix64" in out and "res_rtol" in out
