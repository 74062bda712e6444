import contextlib
import errno
import fcntl
import io
import json
import math
import os
import pty
import resource
import signal
import struct
import subprocess
import sys
import termios
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powsum import cascade as cascade_module
from powsum import cli
from powsum.cascade import _CHUNK, _READ_BLOCK, Cascade, SampleParseError, push_stream
from powsum.coeffs import CoefficientSet, coefficients_closed
from powsum.oracle import direct_sum
from powsum.selfcheck import run_selfcheck
from tests.helpers import reference_samples


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return cli.main(argv)


def invoke(argv, stdin_text):
    """cli.main(argv) over stdin_text, without fixtures (for hypothesis
    tests): the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Doubles of every kind: any finite double, whole mantissas scaled across the
# whole exponent range (mixed exponents in one stream), the subnormal and
# normal boundaries, and values near the ends of the double range.
DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 971)),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]),
    st.sampled_from([1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]),
)


class TestMoment:
    def test_single_power(self, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "2"], "3\n1\n4\n", monkeypatch)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 3
        assert report["results"] == [
            {
                "K": 2,
                "S": "17",
                "ops": {"general_mults": 0, "constant_mults": 3, "additions": 8},
            }
        ]

    def test_power_zero_is_plain_sum(self, monkeypatch, capsys):
        assert run_cli(["moment", "-K", "0"], "5\n7\n", monkeypatch) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["S"] == "12"

    def test_multiple_powers_single_pass(self, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "0", "-K", "1", "-K", "2"], "1\n1\n1\n1\n", monkeypatch)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["S"] for row in report["results"]] == ["4", "6", "14"]
        assert [row["K"] for row in report["results"]] == [0, 1, 2]

    def test_comments_blanks_and_whitespace_ignored(self, monkeypatch, capsys):
        text = "# header comment\n\n  3 \n1\n# mid comment\n4\n\n"
        assert run_cli(["moment", "-K", "2"], text, monkeypatch) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 3
        assert report["results"][0]["S"] == "17"

    def test_values_match_direct_sum(self, monkeypatch, capsys):
        v = [9, -4, 0, 123456, -99, 7]
        text = "".join(f"{x}\n" for x in v)
        assert run_cli(["moment", "-K", "3", "-K", "5"], text, monkeypatch) == 0
        report = json.loads(capsys.readouterr().out)
        assert [int(row["S"]) for row in report["results"]] == [
            direct_sum(v, 3),
            direct_sum(v, 5),
        ]

    def test_negative_samples_accepted(self, monkeypatch, capsys):
        assert run_cli(["moment", "-K", "1"], "-5\n-6\n", monkeypatch) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["S"] == "-6"

    def test_parse_error_reports_line_number(self, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "1"], "1\n2\nbogus\n4\n", monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "bogus" in err

    # moment reads 128 lines at a time and applies its queued samples 2048 at
    # a time: the first line, the edges of the first read block, and lines
    # at the edges of read blocks where a queue chunk ends
    @pytest.mark.parametrize("lineno", [1, 128, 129, 2048, 2049, 4097])
    @pytest.mark.parametrize("bad", ["x", "\uff15"], ids=["ascii", "non-ascii"])
    @pytest.mark.parametrize("source", ["stdin", "input"])
    def test_parse_error_at_a_block_edge_names_its_line(
        self, lineno, bad, source, tmp_path, monkeypatch, capsys
    ):
        lines = ["# note\n" if i % 97 == 0 else f"{i}\n" for i in range(1, 4200)]
        lines[lineno - 1] = bad + "\n"
        if source == "stdin":
            code = run_cli(["moment", "-K", "1"], "".join(lines), monkeypatch)
        else:
            path = tmp_path / "samples.txt"
            path.write_text("".join(lines), encoding="utf-8")
            code = cli.main(["moment", "-K", "1", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: line {lineno}: cannot parse sample {bad!r}\n"

    def test_float_literal_rejected_on_exact_path(self, monkeypatch, capsys):
        assert run_cli(["moment", "-K", "1"], "1.5\n", monkeypatch) == 2

    def test_empty_stream_exits_three(self, monkeypatch, capsys):
        assert run_cli(["moment", "-K", "2"], "# only comments\n\n", monkeypatch) == 3

    def test_missing_power_is_usage_error(self, monkeypatch, capsys):
        assert run_cli(["moment"], "1\n", monkeypatch) == 2

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("3\n1\n4\n")
        assert cli.main(["moment", "-K", "2", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["S"] == "17"

    def test_missing_file_is_usage_error(self, capsys):
        assert cli.main(["moment", "-K", "2", "--input", "/nonexistent/x"]) == 2

    def test_expect_n_match(self, monkeypatch, capsys):
        assert run_cli(["moment", "-K", "2", "--expect-n", "3"], "3\n1\n4\n", monkeypatch) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["S"] == "17"

    def test_expect_n_mismatch(self, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "2", "--expect-n", "5"], "3\n1\n4\n", monkeypatch)
        assert code == 2
        assert "expected 5 samples" in capsys.readouterr().err

    def test_plain_format(self, monkeypatch, capsys):
        code = run_cli(
            ["moment", "-K", "0", "-K", "2", "--format", "plain"], "3\n1\n4\n", monkeypatch
        )
        assert code == 0
        assert capsys.readouterr().out == "0 8\n2 17\n"

    def test_float_mode(self, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "1", "--float"], "0.5\n0.25\n", monkeypatch)
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"][0]["S"] == "0.25"

    @pytest.mark.parametrize("literal", ["nan", "inf", "-Infinity", "1e400"])
    def test_float_mode_rejects_non_finite(self, literal, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "1", "--float"], f"0.5\n{literal}\n", monkeypatch)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and literal in captured.err

    @pytest.mark.parametrize(
        "power, text, S",
        [
            ("150", "".join(f"{n}\n" for n in range(1, 201)), None),  # about 10**347
            # the registers exceed the double range; the result does not
            ("1", "1e308\n1e308\n", "1e+308"),
            ("0", "1e308\n1e308\n", None),
            ("150", "0\n" * 199 + "1e-300\n", "6.729169401450206e+44"),
        ],
        ids=["coefficient-overflows", "register-overflows", "sum-overflows", "finite-result"],
    )
    def test_float_mode_refuses_non_finite_result(self, power, text, S, monkeypatch, capsys):
        """A result beyond the double range is refused, naming K; every
        finite one is printed, however large its terms."""
        code = run_cli(["moment", "--float", "-K", power], text, monkeypatch)
        captured = capsys.readouterr()
        if S is not None:
            assert (code, captured.err) == (0, "")
            assert json.loads(captured.out)["results"][0]["S"] == S
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"error: the result for K={power} is not a finite double under --float"
        )

    def test_float_mode_rejects_digit_separators(self, monkeypatch, capsys):
        code = run_cli(["moment", "-K", "1", "--float"], "0.5\n1_0.5\n", monkeypatch)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and "1_0.5" in captured.err

    @settings(max_examples=300, deadline=None)
    @given(st.lists(DOUBLES, min_size=1, max_size=20), st.integers(0, 8))
    def test_float_mode_is_the_exact_sum_rounded_once(self, samples, power):
        exact = sum(n**power * Fraction(x) for n, x in enumerate(samples))
        try:
            expected = (0, f"{power} {float(exact)}\n", "")
        except OverflowError:
            refused = f"error: the result for K={power} is not a finite double under --float\n"
            expected = (2, "", refused)
        text = "".join(f"{x!r}\n" for x in samples)
        assert invoke(["moment", "--float", f"-K{power}", "--format", "plain"], text) == expected

    @settings(deadline=None)
    @given(
        st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=20),
        st.lists(st.integers(0, 8), min_size=1, max_size=3),
    )
    def test_float_mode_on_integers_is_the_float_of_the_exact_result(self, samples, powers):
        text = "".join(f"{x}\n" for x in samples)
        argv = ["moment", "--format", "plain"] + [f"-K{power}" for power in powers]
        code, out, err = invoke(argv, text)
        assert (code, err) == (0, "")
        rows = [line.split() for line in out.splitlines()]
        expected = "".join(f"{K} {float(int(S))}\n" for K, S in rows)
        assert invoke(argv + ["--float"], text) == (0, expected, "")

    def test_undecodable_input_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_bytes(b"1\n\xff\n")
        assert cli.main(["moment", "-K", "0", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err and "Traceback" not in captured.err

    def test_undecodable_stdin_is_a_parse_error_in_any_locale(self):
        # outside the C and POSIX locales Python decodes stdin strictly;
        # PYTHONIOENCODING makes that so here
        process = subprocess.run(
            [sys.executable, "-m", "powsum", "moment", "-K", "0"],
            input=b"1\n\xff\n",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
            timeout=60,
        )
        assert process.returncode == 2
        assert process.stdout == b""
        assert b"line 2" in process.stderr and b"Traceback" not in process.stderr

    @pytest.mark.parametrize("source", ["stdin", "--input"])
    def test_sample_beyond_int_str_digit_limit(self, source, tmp_path):
        # Python caps int<->str conversion at 4300 digits by default; a
        # 10**5-digit sample is exact through either input path, as a
        # process (about 0.5 s a run on Python 3.11, where int parse and
        # print are quadratic in the digits)
        sample = "-" + "1234567890" * 10**4
        argv = [sys.executable, "-m", "powsum", "moment", "-K", "0"]
        text = sample + "\n"
        if source == "--input":
            path = tmp_path / "samples.txt"
            path.write_text(text)
            argv += ["--input", str(path)]
            text = ""
        process = subprocess.run(argv, input=text, capture_output=True, text=True, timeout=60)
        assert process.returncode == 0, process.stderr
        assert json.loads(process.stdout)["results"][0]["S"] == sample

    def test_deterministic_output(self, monkeypatch, capsys):
        run_cli(["moment", "-K", "2", "-K", "4"], "7\n-2\n9\n", monkeypatch)
        first = capsys.readouterr().out
        run_cli(["moment", "-K", "2", "-K", "4"], "7\n-2\n9\n", monkeypatch)
        assert capsys.readouterr().out == first

    def test_schema_shape(self, monkeypatch, capsys):
        run_cli(["moment", "-K", "1"], "4\n", monkeypatch)
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"N", "results"}
        (row,) = report["results"]
        assert set(row) == {"K", "S", "ops"}
        assert set(row["ops"]) == {"general_mults", "constant_mults", "additions"}
        assert isinstance(row["S"], str)


# int() and float() accept every one of these; none is ASCII decimal text
NON_DECIMAL = ["1_000", "1_0", "\u0661\u0662", "\uff15", "\u00a05", "5\u00a0", "\u00a012\u00a0"]


@pytest.mark.parametrize("text", NON_DECIMAL)
@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["moment", "-K", "0"], "1\n{}\n"),
        (["moment", "-K", "0", "--float"], "1\n{}\n"),
        (["moment", "-K", "{}"], "1\n"),
        (["moment", "-K", "0", "--expect-n", "{}"], "1\n"),
        (["coeffs", "-K", "{}", "-N", "3"], None),
        (["coeffs", "-K", "1", "-N", "{}"], None),
        (["complexity", "--Ks", "2,{}", "--Ns", "10"], None),
        (["selfcheck", "--seed", "{}"], None),
    ],
    ids=["sample", "float-sample", "moment-K", "expect-n", "coeffs-K", "coeffs-N", "Ks", "seed"],
)
def test_non_decimal_text_rejected(argv, stdin, text, monkeypatch, capsys):
    argv = [arg.format(text) for arg in argv]
    code = run_cli(argv, stdin and stdin.format(text), monkeypatch)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if stdin and "{}" in stdin:
        assert f"line 2: cannot parse sample {text!r}" in captured.err
    else:
        assert "argument" in captured.err  # argparse names the flag


class Unread(io.StringIO):
    def __iter__(self):
        raise AssertionError("stdin was read")


def refusal(sub, flag, reason):
    return f"powsum {sub}: error: argument {flag}: {reason}"


# One row per argument bound: the module limits to patch (small where the
# real limit is slow to reach), argv at the limit (None: not run), argv past
# it or malformed, and stderr's last line for the refusal.
BOUNDS = [
    pytest.param(
        {"MAX_K": 3},
        ["moment", "-K", "3"],
        ["moment", "-K", "2", "-K", "4"],
        refusal("moment", "-K/--power", "must be between 0 and 3, got 4"),
        id="moment-K",
    ),
    pytest.param(
        {},
        None,
        ["moment", "-K", "2", "-K", "2001"],
        refusal("moment", "-K/--power", "must be between 0 and 2000, got 2001"),
        id="moment-K-2001",
    ),
    pytest.param(
        {},
        ["moment", "-K", "0"],
        ["moment", "-K", "-1"],
        refusal("moment", "-K/--power", "must be between 0 and 2000, got -1"),
        id="moment-K-negative",
    ),
    pytest.param(
        {},
        None,
        ["moment", "-K", "x"],
        refusal("moment", "-K/--power", "not an ASCII decimal integer: 'x'"),
        id="moment-K-malformed",
    ),
    pytest.param(
        # the sum of (K+1)**3 over the distinct powers; a repeated one counts once
        {"MAX_MOMENT_WORK": 4**3 + 3**3},
        ["moment", "-K", "3", "-K", "2", "-K", "3"],
        ["moment", "-K", "3", "-K", "2", "-K", "0"],
        "error: argument -K/--power: sum of (K+1)**3 is 92, more than 91",
        id="moment-K-total",
    ),
    pytest.param(
        {},
        ["moment", "-K", "0", "--expect-n", "1"],
        ["moment", "-K", "0", "--expect-n", "0"],
        refusal("moment", "--expect-n", "must be at least 1, got 0"),
        id="expect-n",
    ),
    pytest.param(
        {"MAX_K": 3},
        ["coeffs", "-K", "3", "-N", "2"],
        ["coeffs", "-K", "4", "-N", "2"],
        refusal("coeffs", "-K/--power", "must be between 0 and 3, got 4"),
        id="coeffs-K",
    ),
    pytest.param(
        {},
        None,
        ["coeffs", "-K", "2001", "-N", "1"],
        refusal("coeffs", "-K/--power", "must be between 0 and 2000, got 2001"),
        id="coeffs-K-2001",
    ),
    pytest.param(
        {},
        ["coeffs", "-K", "2", "-N", "1"],
        ["coeffs", "-K", "2", "-N", "0"],
        refusal("coeffs", "-N/--length", "must be between 1 and 1000000000000000000, got 0"),
        id="coeffs-N",
    ),
    pytest.param(
        {"MAX_N": 3},
        ["coeffs", "-K", "2", "-N", "3"],
        ["coeffs", "-K", "2", "-N", "4"],
        refusal("coeffs", "-N/--length", "must be between 1 and 3, got 4"),
        id="coeffs-N-max",
    ),
    pytest.param(
        {},
        ["coeffs", "-K", "2", "-N", "1000000000000000000"],
        ["coeffs", "-K", "2000", "-N", "1000000000000000000000000000000"],
        refusal("coeffs", "-N/--length", f"must be between 1 and {10**18}, got {10**30}"),
        id="coeffs-N-1e30",
    ),
    pytest.param(
        {"MAX_TABLE_KMAX": 2},
        ["table", "--kmax", "2"],
        ["table", "--kmax", "3"],
        refusal("table", "--kmax", "must be between 0 and 2, got 3"),
        id="kmax",
    ),
    pytest.param(
        {},
        None,
        ["table", "--kmax", "101"],
        refusal("table", "--kmax", "must be between 0 and 100, got 101"),
        id="kmax-101",
    ),
    pytest.param(
        {},
        ["complexity", "--Ks", "64", "--Ns", "1"],
        ["complexity", "--Ks", "2,65", "--Ns", "1"],
        refusal("complexity", "--Ks", "must be between 0 and 64, got 65"),
        id="Ks",
    ),
    pytest.param(
        {},
        ["complexity", "--Ks", "2", "--Ns", "1"],
        ["complexity", "--Ks", "2", "--Ns", "10,0"],
        refusal("complexity", "--Ns", "must be at least 1, got 0"),
        id="Ns",
    ),
    pytest.param(
        {},
        None,
        ["complexity", "--Ns", "1_0"],
        refusal("complexity", "--Ns", "not an ASCII decimal integer: '1_0'"),
        id="Ns-malformed",
    ),
    pytest.param(
        {},
        None,
        ["complexity", "--Ks", ","],
        refusal("complexity", "--Ks", "expected at least one integer, got ','"),
        id="Ks-empty",
    ),
    pytest.param(
        {},
        None,
        ["complexity", "--Ns", ""],
        refusal("complexity", "--Ns", "expected at least one integer, got ''"),
        id="Ns-empty",
    ),
    pytest.param(
        {},
        ["selfcheck", "--seed", "0"],
        ["selfcheck", "--seed", "-1"],
        refusal("selfcheck", "--seed", "must be at least 0, got -1"),
        id="seed",
    ),
]


@pytest.mark.parametrize("limits, at_limit, past_limit, message", BOUNDS)
def test_argument_bounds(limits, at_limit, past_limit, message, monkeypatch, capsys):
    for name, value in limits.items():
        monkeypatch.setattr(cli, name, value)
    if at_limit is not None:
        assert run_cli(at_limit, "1\n", monkeypatch) == 0
        capsys.readouterr()
    monkeypatch.setattr("sys.stdin", Unread())
    assert cli.main(past_limit) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1] == message


def test_repeated_powers_refused_before_stdin_is_read():
    # twenty flags near MAX_K, about 20 times the work of one: refused at
    # once, while stdin stays open and holds no sample
    argv = ["moment", *(f"-K{power}" for power in range(1981, 2001))]
    read_end, write_end = os.pipe()
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "powsum", *argv],
            stdin=read_end,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            out, err = process.communicate(timeout=30)
        finally:
            process.kill()
            process.wait()
    finally:
        os.close(write_end)
        os.close(read_end)
    assert (process.returncode, out) == (cli.EXIT_USAGE, b"")
    assert err.startswith(b"error: argument -K/--power: sum of (K+1)**3 is ")
    assert err.count(b"\n") == 1


ASCII_SPACE = [c for c in map(chr, range(128)) if c.isspace() and c not in "\n\r"]
padding = st.text(alphabet=ASCII_SPACE, max_size=3)


@st.composite
def sample_files(draw):
    """Text of an input file with padded samples, blanks and comments,
    plus the samples it holds."""
    samples, lines = [], []
    for kind in draw(st.lists(st.sampled_from(["sample", "blank", "comment"]), max_size=30)):
        if kind == "sample":
            value = draw(st.integers(-(10**20), 10**20))
            sign = "+" if value >= 0 and draw(st.booleans()) else ""
            lines.append(draw(padding) + sign + str(value) + draw(padding))
            samples.append(value)
        elif kind == "blank":
            lines.append(draw(padding))
        else:
            comment = draw(st.text(st.characters(blacklist_characters="\n\r"), max_size=10))
            lines.append(" " * draw(st.integers(0, 2)) + "#" + comment)
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if endings and draw(st.booleans()):
        endings[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, endings)), samples


# Lines the reader must read as the reference does: a sign, a digit
# separator, ASCII separators as padding, non-ASCII digits and padding, text
# after a sample, a space after the sign, two samples on a line, padded
# blanks and comments, a non-ASCII comment, and words and literals that only
# one of int and float takes
TRICKY_LINES = [
    "+5", "1_0", "\x1c5\x1f", "\u0661\u0662", "\uff15", "\u00a05", "5 # x", "- 5", "1 2",
    "", " \t ", "\x0b\x0c ", "# note", "  # x", "# caf\u00e9", "\u00a0", "x", "1.5", "1e3",
    "nan", "-inf", "-0", " 7 ",
]


@st.composite
def reader_lines(draw):
    """Lines with their line endings: padded samples, blanks and comments,
    among them up to two odd lines, each once or twice."""
    text = st.text(st.characters(blacklist_characters="\n\r"), max_size=4)
    good = st.one_of(
        st.builds(lambda pad, value: pad + str(value), padding, st.integers(-(10**20), 10**20)),
        padding,
        st.builds(lambda pad, comment: pad + "#" + comment, padding, text),
    )
    lines = draw(st.lists(good, max_size=12))
    for odd in draw(st.lists(st.one_of(st.sampled_from(TRICKY_LINES), text), max_size=2)):
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), odd)
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if endings and draw(st.booleans()):
        endings[-1] = ""  # no final newline
    return [line + end for line, end in zip(lines, endings)]


class RecordingCascade(Cascade):
    """A cascade that also keeps every pushed sample, in order."""

    def __init__(self, K):
        super().__init__(K)
        self.pushed = []

    def push(self, sample):
        self.pushed.append(sample)
        super().push(sample)


class Terminal:
    """Lines as a terminal gives them: it goes on reading after an end of
    input, so a read past the end fails here instead of waiting."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.ended = False

    def __iter__(self):
        return self

    def __next__(self):
        assert not self.ended, "read again after the end of input"
        try:
            return next(self._lines)
        except StopIteration:
            self.ended = True
            raise


class TestPushStream:
    @given(sample_files())
    def test_matches_direct_sum(self, file):
        text, samples = file
        for K in range(4):
            cascade = Cascade(K)
            push_stream(cascade, io.StringIO(text), int)
            assert cascade.samples_seen == len(samples)
            if samples:
                assert cascade.finalize(coefficients_closed(K, len(samples))) == direct_sum(
                    samples, K
                )

    def test_one_push_per_sample(self, monkeypatch):
        # the benchmark's trace counts Cascade.push calls as samples
        calls = []
        push = Cascade.push

        def counting_push(self, sample):
            calls.append(sample)
            push(self, sample)

        monkeypatch.setattr(Cascade, "push", counting_push)
        cascade = Cascade(2)
        lines = ["3\n", "\n", "# note\n", " -1 \r\n", "\x1c4\x1f\n", "+5", "   \n", "  # x\n"]
        # a no-break space alone, a non-ASCII comment, ASCII separators as padding
        lines += ["\u00a0\n", "# caf\u00e9 \uff15\n", "\x1c5\x1c\n"]
        push_stream(cascade, lines, int)
        assert calls == [3, -1, 4, 5, 5]
        assert cascade.samples_seen == 5

    def test_parse_error_leaves_every_sample_before_it_applied(self):
        # more than one chunk before the bad line: a full chunk was applied
        # and the rest was still queued when the error ended the stream
        samples = list(range(-3, _CHUNK + 2))
        lines = [f"{sample}\n" for sample in samples] + ["x\n", "7\n"]
        cascade = Cascade(3)
        with pytest.raises(SampleParseError, match=f"^line {len(samples) + 1}: "):
            push_stream(cascade, lines, int)
        assert cascade.samples_seen == len(samples)
        assert cascade.finalize(coefficients_closed(3, len(samples))) == direct_sum(samples, 3)

    @settings(max_examples=200, deadline=None)
    @given(reader_lines(), st.sampled_from([int, cli._scaled_float]))
    @example(["1\n", "x\n", "2\n", "x\n"], int)  # a bad line repeated in its block
    @example(["\uff15\n", "3\n", "\uff15\n"], int)
    @example(["2\n", "1_0\n", "3\n"], int)  # a digit separator in an ASCII block
    @example(["\x1c5\x1f\r\n", "+5\n", " \t\n", "5 # x"], int)
    @example(["# caf\u00e9\n", "4\n", "x\n", "x"], cli._scaled_float)
    def test_pushes_what_the_line_at_a_time_reference_reads(self, lines, parse):
        try:
            expected, error = reference_samples(lines, parse), None
        except SampleParseError as exc:
            error = str(exc)
            lineno = int(error.split(":")[0].removeprefix("line "))
            expected = reference_samples(lines[: lineno - 1], parse)
        for block in (1, 2, 3, 5, _READ_BLOCK):
            cascade = RecordingCascade(1)
            with mock.patch.object(cascade_module, "_READ_BLOCK", block):
                if error is None:
                    push_stream(cascade, iter(lines), parse)
                else:
                    with pytest.raises(SampleParseError) as raised:
                        push_stream(cascade, iter(lines), parse)
                    assert str(raised.value) == error
            assert cascade.pushed == expected

    @pytest.mark.parametrize("n_lines", [0, 5, _READ_BLOCK, _CHUNK + 3])
    def test_reads_a_generator_by_iteration_each_line_once(self, n_lines):
        # the benchmark's trace counts lines by iterating them
        read = []

        def generate():
            for i in range(n_lines):
                line = "# note\n" if i % 5 == 0 else f"{i}\n"
                read.append(line)
                yield line

        lines = generate()
        assert not hasattr(lines, "readlines")
        cascade = Cascade(1)
        push_stream(cascade, lines, int)
        assert read == ["# note\n" if i % 5 == 0 else f"{i}\n" for i in range(n_lines)]
        assert cascade.samples_seen == n_lines - len(range(0, n_lines, 5))

    def test_refuses_a_str_and_leaves_the_cascade_unchanged(self):
        # iterating "12\n3\n" would push the characters 1, 2 and 3
        cascade = Cascade(0)
        cascade.push(5)
        with pytest.raises(TypeError, match="^lines must be an iterable of lines, not a str$"):
            push_stream(cascade, "12\n3\n", int)
        assert cascade.registers == [5]
        assert cascade.samples_seen == 1
        assert cascade._queue is None

    @pytest.mark.parametrize("n_lines", [0, 5, _READ_BLOCK, 2 * _READ_BLOCK, _CHUNK + 3])
    def test_reads_once_past_the_last_line(self, n_lines):
        cascade = Cascade(1)
        lines = Terminal(f"{i}\n" for i in range(n_lines))
        push_stream(cascade, lines, int)
        assert lines.ended and cascade.samples_seen == n_lines


class TestCoeffs:
    def test_known_values(self, capsys):
        assert cli.main(["coeffs", "-K", "2", "-N", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "K": 2,
            "N": 3,
            "coefficients": ["9", "-7", "2"],
            "unique_on_sample_grid": True,
        }

    def test_power_zero(self, capsys):
        assert cli.main(["coeffs", "-K", "0", "-N", "42"]) == 0
        assert json.loads(capsys.readouterr().out)["coefficients"] == ["1"]

    def test_non_uniqueness_flag(self, capsys):
        assert cli.main(["coeffs", "-K", "3", "-N", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == ["8", "-19", "18", "-6"]
        assert report["unique_on_sample_grid"] is False

    def test_plain_format_with_note(self, capsys):
        assert cli.main(["coeffs", "-K", "3", "-N", "2", "--format", "plain"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "8 -19 18 -6"
        assert "not the unique" in out[1]

    def test_coefficients_beyond_int_str_digit_limit(self, capsys):
        assert cli.main(["coeffs", "-K", "800", "-N", "1000000"]) == 0
        coefficients = json.loads(capsys.readouterr().out)["coefficients"]
        assert coefficients[0] == "1" + "0" * 4800  # (10**6) ** 800

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "-K", "-1", "-N", "3"],
            ["coeffs", "-K", "2", "-N", "0"],
            ["coeffs", "-K", "2"],
        ],
    )
    def test_invalid_arguments(self, argv, capsys):
        assert cli.main(argv) == 2


class TestTable:
    def test_kmax_zero(self, capsys):
        assert cli.main(["table", "--kmax", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["0", "1"]

    def test_specific_cells(self, capsys):
        assert cli.main(["table", "--kmax", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {cells[0]: cells[1:] for cells in (line.split() for line in lines[1:])}
        assert rows["4"][3] == "-24N-36"
        assert rows["5"][2] == "20N^3+60N^2+70N+30"

    def test_header_names_columns(self, capsys):
        cli.main(["table", "--kmax", "2"])
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == ["K", "c_1", "c_2", "c_3"]

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((1,), "1"),
            ((-1,), "-1"),
            ((0, 1), "N"),
            ((0, 0, 1), "N^2"),
            ((-1, -2), "-2N-1"),
            ((14, 24, 12), "12N^2+24N+14"),
            ((240, 120), "120N+240"),
            ((-36, -24), "-24N-36"),
            ((30, 70, 60, 20), "20N^3+60N^2+70N+30"),
            ((0, -1), "-N"),
            ((3, 0, 0, 1), "N^3+3"),
        ],
    )
    def test_canonical_string(self, coeffs, text):
        assert cli._polynomial_text(coeffs) == text


class TestComplexity:
    def test_default_matches_reference_comparison(self, capsys):
        assert cli.main(["complexity"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "K,N,method,general_mults,constant_mults,additions"
        cascade_rows = [line for line in lines[1:] if ",cascade," in line]
        assert len(cascade_rows) == 9  # Ks 2,4,7 x Ns 10,100,1000
        constant_mults = {int(row.split(",")[4]) for row in cascade_rows}
        assert constant_mults == {3, 5, 8}

    def test_chain_only_count(self, capsys):
        assert cli.main(["complexity", "--Ks", "7", "--Ns", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        chain_row = next(line for line in lines if "baseline_chain_only" in line)
        assert chain_row == "7,1000,baseline_chain_only,4000,0,999"

    def test_minimal_case(self, capsys):
        assert cli.main(["complexity", "--Ks", "0", "--Ns", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0,1,cascade,0,1,0"
        assert lines[2] == "0,1,baseline,0,0,0"

    def test_json_format(self, capsys):
        assert cli.main(["complexity", "--Ks", "2", "--Ns", "10", "--format", "json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["K"] == 2 and report["N"] == 10
        assert report["cascade"]["constant_mults"] == 3

    def test_invalid_lists(self, capsys):
        assert cli.main(["complexity", "--Ks", "-1", "--Ns", "10"]) == 2
        assert cli.main(["complexity", "--Ks", "2", "--Ns", "0"]) == 2
        assert cli.main(["complexity", "--Ks", "2;3", "--Ns", "1"]) == 2


class TestSelfcheck:
    def test_healthy_build_passes(self, capsys):
        assert cli.main(["selfcheck", "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert {check["name"] for check in report["checks"]} == {
            "cascade_matches_direct_sum",
            "coefficients_reproduce_powers",
            "impulse_response",
        }
        assert [check["cases"] for check in report["checks"]] == [60, 60, 252]

    def test_same_seed_same_output(self, capsys):
        cli.main(["selfcheck", "--seed", "7"])
        first = capsys.readouterr().out
        cli.main(["selfcheck", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_negative_seed_is_refused(self):
        # random.Random(-5) runs the cases of seed 5
        with pytest.raises(ValueError, match="^seed must be non-negative, got -5$"):
            run_selfcheck(-5)

    def test_corrupted_coefficients_detected(self, monkeypatch, capsys):
        from powsum.coeffs import coefficients_closed

        def corrupted(K, N):
            good = coefficients_closed(K, N)
            broken = list(good.coeffs)
            broken[0] += 1
            return CoefficientSet(K, N, tuple(broken))

        monkeypatch.setattr("powsum.selfcheck.coefficients_closed", corrupted)
        assert cli.main(["selfcheck", "--seed", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is False
        failed = next(check for check in report["checks"] if not check["passed"])
        counterexample = failed["counterexample"]
        assert {"K", "N", "v"} <= set(counterexample)
        # the first randomized case already fails, and the report says so
        assert failed["cases"] == 1

    def test_fault_beyond_the_streamed_powers_detected(self, monkeypatch, capsys):
        # cascade_matches_direct_sum draws K <= 8, so only the identity
        # check sees a last coefficient that is off for K >= 9
        def corrupted(K, N):
            good = coefficients_closed(K, N)
            if K < 9:
                return good
            return CoefficientSet(K, N, (*good.coeffs[:-1], good.coeffs[-1] + 1))

        monkeypatch.setattr("powsum.selfcheck.coefficients_closed", corrupted)
        assert cli.main(["selfcheck", "--seed", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [check for check in report["checks"] if not check["passed"]]
        assert [check["name"] for check in failed] == ["coefficients_reproduce_powers"]
        assert failed[0]["cases"] <= 60
        assert set(failed[0]["counterexample"]) == {"K", "N", "n", "coeffs"}

    def test_fault_in_the_chunk_kernel_detected(self, monkeypatch, capsys):
        # moment streams through Cascade._drain, not through per-sample push
        drain = Cascade._drain

        def drain_skipping_last_register(cascade):
            last = cascade.registers[-1]
            drain(cascade)
            cascade.registers[-1] = last

        monkeypatch.setattr(Cascade, "_drain", drain_skipping_last_register)
        assert cli.main(["selfcheck", "--seed", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [check for check in report["checks"] if not check["passed"]]
        assert [check["name"] for check in failed] == ["cascade_matches_direct_sum"]

    def test_off_by_one_carry_weights_detected(self, monkeypatch, capsys):
        # a drain that carries the old registers across a chunk of L
        # samples with the weights of L+1, C(L+d, d) for C(L-1+d, d), adds
        # C(L-1+d, d-1) * R_{k-d} to register k for each d >= 1: only a
        # drain on non-zero registers shows it
        drain = Cascade._drain

        def drain_with_shifted_weights(cascade):
            length, old = len(cascade._queue), list(cascade.registers)
            drain(cascade)
            if length:
                for k in range(len(old)):
                    shift = (math.comb(length - 1 + d, d - 1) * old[k - d] for d in range(1, k + 1))
                    cascade.registers[k] += sum(shift)

        monkeypatch.setattr(Cascade, "_drain", drain_with_shifted_weights)
        assert cli.main(["selfcheck", "--seed", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [check for check in report["checks"] if not check["passed"]]
        assert [check["name"] for check in failed] == ["cascade_matches_direct_sum"]

    def test_fault_in_the_reader_detected(self, monkeypatch, capsys):
        # selfcheck writes its samples as lines and streams them through
        # moment's reader, so a reader fault fails the streamed check
        def islice_dropping_last_lines(lines, stop):
            block = list(islice(lines, stop))
            return block[:-1] if len(block) == stop else block

        monkeypatch.setattr(cascade_module, "islice", islice_dropping_last_lines)
        assert cli.main(["selfcheck", "--seed", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [check for check in report["checks"] if not check["passed"]]
        assert [check["name"] for check in failed] == ["cascade_matches_direct_sum"]
        counterexample = failed[0]["counterexample"]
        assert counterexample["samples_seen"] < counterexample["N"]

    def test_lost_full_chunk_detected(self, monkeypatch, capsys):
        # nearly every sample of a moment stream is applied by the drain
        # that push starts on a full queue; a push that clears the full
        # queue instead loses those samples
        push = Cascade.push

        def push_clearing_full_queues(cascade, sample):
            queue = cascade._queue
            if queue is None:
                return push(cascade, sample)
            queue.append(sample)
            if len(queue) >= _CHUNK:
                queue.clear()

        monkeypatch.setattr(Cascade, "push", push_clearing_full_queues)
        assert cli.main(["selfcheck", "--seed", "0"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [check for check in report["checks"] if not check["passed"]]
        assert [check["name"] for check in failed] == ["cascade_matches_direct_sum"]
        counterexample = failed[0]["counterexample"]
        assert counterexample["samples_seen"] < counterexample["N"]


@pytest.mark.parametrize(
    "argv",
    [
        # output far beyond the stdout buffer: a write inside print() fails
        ["coeffs", "-K", "300", "-N", "7", "--format", "plain"],
        ["table", "--kmax", "40"],
        # output that stays buffered: the flush at exit fails
        ["coeffs", "-K", "2", "-N", "3"],
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv, tmp_path):
    # block-buffered stdout, as without PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(tmp_path / "stderr", "w+b") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "powsum", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        process.stdout.close()  # before the child writes anything
        assert process.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        stderr.seek(0)
        assert stderr.read() == b""


def test_sigint_exits_130_without_traceback():
    # stdin stays open after two samples, so moment waits for more; the
    # test keeps the read end too, to see when the child has drained it
    read_end, write_end = os.pipe()
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "powsum", "moment", "-K", "2"],
            stdin=read_end,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        os.write(write_end, b"1\n2\n")
        deadline = time.monotonic() + 60
        # once the samples have left the pipe, the child is reading inside main()
        while _unread_bytes(read_end) and process.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        process.send_signal(signal.SIGINT)
        out, err = process.communicate(timeout=60)
    finally:
        os.close(write_end)
        os.close(read_end)
    assert (process.returncode, out, err) == (130, b"", b"")
    assert cli.EXIT_INTERRUPTED == 130  # 128 + SIGINT



def test_terminal_input_ends_at_the_first_eof():
    # a terminal goes on reading after an EOF (Ctrl-D), so moment must not
    # read again once a short block has ended the input
    leader, follower = pty.openpty()
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "powsum", "moment", "-K", "1", "--format", "plain"],
            stdin=follower,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        os.write(leader, b"3\n4\n\x04")
        try:
            out, err = process.communicate(timeout=30)
        finally:
            process.kill()
            process.wait()
    finally:
        os.close(follower)
        os.close(leader)
    assert (process.returncode, out, err) == (0, b"1 4\n", b"")


def _unread_bytes(fd):
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0\0\0\0"))[0]


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    # os.open's descriptor is closed at exec; the copy dup2 makes is not
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("fd2", [_close_stderr, _read_only_stderr])
@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "-K", "2", "--input", "/nonexistent/samples"],  # our error line
        ["moment"],  # argparse's usage error
        ["coeffs", "-K", "2001", "-N", "1"],
    ],
)
def test_unwritable_stderr_keeps_exit_code(argv, fd2):
    # block-buffered stdio, as without PYTHONUNBUFFERED: the failed message
    # stays buffered until the flush at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    process = subprocess.run(
        [sys.executable, "-m", "powsum", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        preexec_fn=fd2,
        env=env,
        timeout=60,
    )
    assert (process.returncode, process.stdout) == (cli.EXIT_USAGE, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "-K", "2", "--input", "/nonexistent/samples"],
        ["coeffs", "-K", "2001", "-N", "1"],
        ["moment"],
        ["complexity", "--Ks", "65"],
    ],
)
def test_stderr_closed_by_its_reader_keeps_exit_code(argv):
    # the write fails with EPIPE, and the failed message stays buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    process = subprocess.Popen(
        [sys.executable, "-m", "powsum", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )
    process.stderr.close()  # before the child writes anything
    assert process.wait(timeout=60) == cli.EXIT_USAGE


def _close_stdin():
    os.close(0)


def _close_stdout():
    os.close(1)


@pytest.mark.parametrize(
    "from_file, code, out, err",
    [
        (False, cli.EXIT_USAGE, b"", b"error: cannot read samples from stdin: it is closed\n"),
        # the sample file takes the lowest free descriptor, 0
        (True, cli.EXIT_OK, b"1 4\n", b""),
    ],
    ids=["stdin", "input-file"],
)
def test_closed_stdin(from_file, code, out, err, tmp_path):
    samples = tmp_path / "samples"
    samples.write_text("3\n4\n")
    argv = ["moment", "-K", "1", "--format", "plain"]
    process = subprocess.run(
        [sys.executable, "-m", "powsum", *argv, *(["--input", str(samples)] if from_file else [])],
        capture_output=True,
        preexec_fn=_close_stdin,
        timeout=60,
    )
    assert (process.returncode, process.stdout, process.stderr) == (code, out, err)


# as `ulimit -v 300000`: enough for the interpreter and a normal run, not
# for a line without an end
ADDRESS_SPACE_LIMIT = 300_000 * 1024


def _limit_address_space():
    # raises in the child before exec if the limit cannot be set, so the
    # command never runs without it
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


limits_address_space = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux"
)


@limits_address_space
@pytest.mark.parametrize("from_file", [True, False], ids=["input-file", "stdin"])
def test_line_too_long_for_memory(from_file):
    # /dev/zero is one line without an end: the reader holds a line whole,
    # so it runs out of memory, which is an error line and exit 2, not a
    # traceback and the selfcheck's exit 1
    argv = [sys.executable, "-m", "powsum", "moment", "-K", "1"]
    with open("/dev/zero", "rb") as zero:
        process = subprocess.run(
            argv + (["--input", "/dev/zero"] if from_file else []),
            stdin=subprocess.DEVNULL if from_file else zero,
            capture_output=True,
            preexec_fn=_limit_address_space,
            timeout=60,
        )
    assert process.returncode == cli.EXIT_USAGE
    assert process.stdout == b""
    assert process.stderr.startswith(b"error: ")
    assert process.stderr.count(b"\n") == 1


@limits_address_space
def test_normal_run_fits_the_address_space_limit():
    # the limit above leaves room for a run that reads real lines
    process = subprocess.run(
        [sys.executable, "-m", "powsum", "moment", "-K", "2", "--format", "plain"],
        input=b"".join(b"%d\n" % n for n in range(10_000)),
        capture_output=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (process.returncode, process.stderr) == (cli.EXIT_OK, b"")
    assert process.stdout == b"2 %d\n" % sum(n**3 for n in range(10_000))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["moment", "-K", "2"], cli.EXIT_BROKEN_PIPE),
        (["coeffs", "-K", "2", "-N", "3"], cli.EXIT_BROKEN_PIPE),
        (["table", "--kmax", "40"], cli.EXIT_BROKEN_PIPE),
        (["selfcheck"], cli.EXIT_BROKEN_PIPE),
        (["coeffs", "-K", "2001", "-N", "1"], cli.EXIT_USAGE),
    ],
    ids=["moment", "coeffs", "table", "selfcheck", "usage-error"],
)
def test_stdout_closed_at_start(argv, code):
    process = subprocess.run(
        [sys.executable, "-m", "powsum", *argv],
        input=b"1\n2\n",
        stderr=subprocess.PIPE,
        preexec_fn=_close_stdout,
        timeout=60,
    )
    assert process.returncode == code
    if code == cli.EXIT_BROKEN_PIPE:
        assert process.stderr == b""
    else:
        assert process.stderr.startswith(b"usage: ") and b"Traceback" not in process.stderr


def _read_only_stdout():
    # os.open's descriptor is closed at exec; the copy dup2 makes is not
    os.dup2(os.open(os.devnull, os.O_RDONLY), 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "-K", "2"],
        ["coeffs", "-K", "2", "-N", "3"],
        ["table", "--kmax", "40"],
        ["complexity"],
        ["selfcheck"],
    ],
    ids=["moment", "coeffs", "table", "complexity", "selfcheck"],
)
@pytest.mark.parametrize("setup", ["read-only", "full"])
def test_unwritable_stdout_exits_141_with_one_error_line(argv, setup):
    # block-buffered stdout, as without PYTHONUNBUFFERED: short output fails
    # in the flush, table's in a write inside print()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if setup == "read-only":
        stdout, preexec_fn, error = None, _read_only_stdout, errno.EBADF
    elif os.path.exists("/dev/full"):
        stdout, preexec_fn, error = open("/dev/full", "wb"), None, errno.ENOSPC
    else:
        pytest.skip("no /dev/full on this system")
    try:
        process = subprocess.run(
            [sys.executable, "-m", "powsum", *argv],
            input=b"1\n2\n",
            stdout=stdout,
            stderr=subprocess.PIPE,
            preexec_fn=preexec_fn,
            env=env,
            timeout=60,
        )
    finally:
        if stdout is not None:
            stdout.close()
    assert process.returncode == cli.EXIT_BROKEN_PIPE
    assert process.stderr.decode().splitlines() == [
        f"error: cannot write to stdout: {os.strerror(error)}"
    ]


@pytest.mark.parametrize("argv", [["--help"], ["moment", "--help"]], ids=["powsum", "moment"])
@pytest.mark.parametrize("setup", ["read-only", "full"])
def test_help_on_unwritable_unbuffered_stdout_exits_141(argv, setup):
    # unbuffered stdout: the help text fails in the parser's own write, not
    # in entrypoint's flush, and argparse from Python 3.11 ignores the error
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    if setup == "read-only":
        stdout, preexec_fn, error = None, _read_only_stdout, errno.EBADF
    elif os.path.exists("/dev/full"):
        stdout, preexec_fn, error = open("/dev/full", "wb"), None, errno.ENOSPC
    else:
        pytest.skip("no /dev/full on this system")
    try:
        process = subprocess.run(
            [sys.executable, "-m", "powsum", *argv],
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=subprocess.PIPE,
            preexec_fn=preexec_fn,
            env=env,
            timeout=60,
        )
    finally:
        if stdout is not None:
            stdout.close()
    assert process.returncode == cli.EXIT_BROKEN_PIPE
    assert process.stderr.decode().splitlines() == [
        f"error: cannot write to stdout: {os.strerror(error)}"
    ]


class Gone(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_failed_usage_message_keeps_exit_code(monkeypatch):
    # the parser writes its messages itself, so the outcome does not depend
    # on argparse's version: 3.10 lets the OSError escape, 3.11 drops it
    monkeypatch.setattr("sys.stderr", Gone())
    assert cli.main(["moment"]) == cli.EXIT_USAGE
    # a closed stdout still reaches entrypoint, which exits 141
    monkeypatch.setattr("sys.stdout", Gone())
    with pytest.raises(BrokenPipeError):
        cli.main(["--help"])


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_moment_help_names_the_paper_count_not_the_chunk(self, capsys):
        # the chunk size is the cascade module's; help names no figure of it
        assert cli.main(["moment", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "the paper's operation count" in text
        assert str(cascade_module._CHUNK) not in text

    def test_readme_documents_every_exit_code_and_bound(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert codes == {0, 1, 2, 3, 130, 141}
        for code in codes:
            assert f"* `{code}`: " in section, code
        for bound in (cli.MAX_K, cli.MAX_TABLE_KMAX, cli.MAX_CHAIN_TARGET):
            assert f"0..{bound}" in section, bound
        assert cli.MAX_N == 10**18 and "1..10^18" in section


# Flag values the fuzz test draws besides the valid ones: out of range for
# every flag that takes them, or not ASCII decimal integers.
BAD_VALUES = st.sampled_from(
    ["-1", "2001", "9" * 20, "", ",", "x", "1_0", "\uff15", "1.5", "nan", "2;3"]
)


def int_list(low, high):
    items = st.lists(st.integers(low, high), max_size=4)
    return items.map(lambda values: ",".join(map(str, values)))


# Per subcommand, the required flags and the optional ones, each with its
# valid values (None for a switch). Valid values stay small, so every
# example is quick.
FLAGS = {
    "moment": (
        [("-K", st.integers(0, 40).map(str))],
        [
            ("-K", st.integers(0, 40).map(str)),
            ("--expect-n", st.integers(1, 12).map(str)),
            ("--float", None),
            ("--format", st.sampled_from(["json", "plain"])),
            ("--input", st.just("/nonexistent/samples")),
        ],
    ),
    "coeffs": (
        [("-K", st.integers(0, 40).map(str)), ("-N", st.integers(1, 10**6).map(str))],
        [("--format", st.sampled_from(["json", "plain"]))],
    ),
    "table": ([], [("--kmax", st.integers(0, 6).map(str))]),
    "complexity": (
        [],
        [
            ("--Ks", int_list(0, 64)),
            ("--Ns", int_list(1, 10**6)),
            ("--format", st.sampled_from(["csv", "json"])),
        ],
    ),
    "selfcheck": ([], [("--seed", st.integers(0, 5).map(str))]),
}


@st.composite
def cli_argv(draw):
    if draw(st.integers(0, 9)) == 0:
        # no subcommand, an unknown one, or a bare flag
        return draw(st.lists(st.sampled_from(["--help", "frobnicate", "-K", "2"]), max_size=2))
    subcommand = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[subcommand]
    flags = [flag for flag in required if draw(st.integers(0, 9))]  # each dropped 1 in 10
    flags += draw(st.lists(st.sampled_from(optional), max_size=3))
    argv = [subcommand]
    for flag, valid in flags:
        argv.append(flag)
        if valid is not None:
            argv.append(draw(BAD_VALUES if draw(st.integers(0, 4)) == 0 else valid))
    return argv


NON_SAMPLES = st.sampled_from([b"", b"  ", b"# comment", b" #1"])
JUNK = st.sampled_from(
    [b"abc", b"1_0", b"\xef\xbc\x95", b"\xff", b"nan", b"1e400", b"0x10", b"1 2"]
)


@st.composite
def stdin_bytes(draw):
    """Samples among blank and '#' lines: integers, with finite decimal
    floats (the --float grammar) mixed in now and then, and now and then
    one junk line."""
    samples = st.integers(-(10**30), 10**30).map(lambda n: b"%d" % n)
    if draw(st.integers(0, 3)) == 0:
        floats = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(x).encode())
        samples = st.one_of(samples, floats, st.sampled_from([b"1e308", b"-1e308"]))
    lines = draw(st.lists(st.one_of(samples, NON_SAMPLES), max_size=12))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK))
    return b"\n".join(lines)


@example(["moment", "--float", "-K", "150"], b"".join(b"%d\n" % n for n in range(1, 201)))
@example(["moment", "--float", "-K", "1"], b"1e308\n1e308\n")
@settings(max_examples=150, deadline=None)
@given(cli_argv(), stdin_bytes())
def test_any_invocation_exits_with_a_documented_code(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if code in (2, 3):
        assert out.getvalue() == ""
