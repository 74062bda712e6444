"""Command-line front end.

Subcommands:

* ``moment``      stream integer samples, emit powered sums in one pass
* ``coeffs``      combination coefficients for a concrete (K, N)
* ``table``       symbolic coefficient polynomials in N up to a power of at most 100
* ``complexity``  operation-count comparison table
* ``selfcheck``   randomized internal consistency checks

An out-of-range or malformed argument is a usage error naming the flag,
refused before any input is read: ``-K`` of ``moment`` and ``coeffs`` is
0..2000, ``table --kmax`` 0..100, ``complexity --Ks`` 0..64, and ``-N``,
``--expect-n`` and ``--Ns`` at least 1; a ``--Ks`` or ``--Ns`` list holds at
least one integer.

Exit codes: 0 success, 1 selfcheck failure, 2 usage or parse error,
3 empty input where samples were required, 141 stdout closed before all
output was written (128 + SIGPIPE, as a shell reports for ``seq | head``).
A closed stderr loses the messages, not the exit code.

Sample input is line-delimited ASCII decimal integers (finite decimal
floats with ``--float``); blank lines and lines starting with ``#`` are
ignored. Under ``--float``, a non-finite sample and a result that is not a
finite double (naming K) are errors with exit 2. All output is
deterministic for identical inputs and flags (randomized checks take an
explicit seed).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, Iterable, NoReturn, TextIO

from .cascade import Cascade, predict_cascade
from .coeffs import coefficient_polynomials, coefficients_closed
from .costmodel import complexity_table, write_csv
from .oracle import MAX_CHAIN_TARGET
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_SELFCHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_EMPTY_INPUT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# table's cost grows steeply with --kmax: 64 takes 0.56 s and prints 5.5 MB,
# 100 takes 2.4 s and 35 MB, 200 takes 38.5 s and 648 MB, and 300 outlasts
# a 120 s timeout
MAX_TABLE_KMAX = 100

# coefficient generation grows steeply with -K (2-core Xeon VM):
# coefficients_closed(2000, 7) takes 2.7 s in process and (3000, 7) 9.6 s;
# coeffs -K 1600 -N 7 --format plain takes 2.1 s and prints 6.9 MB. moment
# allocates K+1 registers up front, and the bound also caps what one run
# keeps in the coefficient memo.
MAX_K = 2000


_ASCII_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"  # what str.strip() removes below 128


class SampleParseError(Exception):
    def __init__(self, lineno: int, text: str) -> None:
        super().__init__(f"line {lineno}: cannot parse sample {text!r}")
        self.lineno = lineno
        self.text = text


def push_stream(cascade: Cascade, lines: Iterable[str], parse: Callable[[str], object]) -> None:
    """Feed data lines into a cascade, skipping blanks and '#' comments.

    One sample is in flight at a time; nothing is buffered beyond the
    cascade registers and the current line. Every sample is one
    ``cascade.push`` call: the benchmark's trace (``bench/traced.py``)
    counts those calls as samples and derives the skipped lines from them.

    A sample is ASCII decimal text (``parse`` decides the literal form)
    with optional surrounding whitespace; a line holding a ``_`` or a
    non-ASCII character is not one, since ``int`` and ``float`` would
    accept digit separators and non-ASCII digits.
    """
    push = cascade.push
    for lineno, raw in enumerate(lines, start=1):
        # Parse first: int() and float() skip the padding and the newline
        # themselves, so only the other lines need stripping.
        if raw.isascii() and "_" not in raw:
            try:
                value = parse(raw)
            except ValueError:
                pass
            else:
                push(value)  # type: ignore[arg-type]
                continue
        value = _parse_stripped(lineno, raw, parse)
        if value is not None:
            push(value)  # type: ignore[arg-type]


def _parse_stripped(lineno: int, raw: str, parse: Callable[[str], object]) -> object:
    """The reader's slow path, for a line the fast path did not parse: the
    sample, or None for a blank or '#' line; otherwise SampleParseError."""
    text = raw.strip()
    if not text or text.startswith("#"):
        return None
    # str.strip() also removes the separators \x1c-\x1f, which int() and
    # float() do not skip
    if raw.isascii() and "_" not in raw:
        try:
            return parse(text)
        except ValueError:
            pass
    # the same text as str.strip() on an ASCII line; keeps non-ASCII
    # padding visible in the message
    raise SampleParseError(lineno, raw.strip(_ASCII_WHITESPACE))


def _print_stderr(line: str) -> None:
    """Print a message line to stderr. An unwritable stderr loses the line,
    not the exit code; argparse ignores the same OSError for its messages."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _finite_float(text: str) -> float:
    """float(text), rejecting nan, inf and literals that overflow to inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite sample {text!r}")
    return value


def _decimal_int(text: str) -> int:
    """argparse type: int(text) for ASCII text without "_", the grammar of
    samples too."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}")


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type: an integer flag in [low, high], or at least low when
    high is None. Anything else is a usage error naming the flag, raised
    while the arguments are parsed, so before any input is read."""

    def int_in(text: str) -> int:
        value = _decimal_int(text)
        if value < low or (high is not None and value > high):
            expected = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {expected}, got {value}")
        return value

    return int_in


def _int_list_in(low: int, high: int | None = None) -> Callable[[str], list[int]]:
    """argparse type: one or more comma-separated ``_int_in(low, high)`` items."""
    item = _int_in(low, high)

    def int_list_in(text: str) -> list[int]:
        values = [item(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
        return values

    return int_list_in


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # drops a message stderr cannot take, as argparse does from Python 3.11
        try:
            super().error(message)
        except OSError:
            sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powsum",
        description="Streaming time-index powered weighted sums via cascaded accumulators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    moment = sub.add_parser(
        "moment",
        help="compute sum(n^K * v[n]) over a sample stream in a single pass",
    )
    moment.set_defaults(run=_run_moment)
    moment.add_argument(
        "-K",
        "--power",
        dest="powers",
        action="append",
        type=_int_in(0, MAX_K),
        required=True,
        help=f"power K, at most {MAX_K}; repeat the flag to get several moments from the same pass",
    )
    moment.add_argument("--input", help="sample file, one integer per line (default: stdin)")
    moment.add_argument(
        "--expect-n",
        type=_int_in(1),
        help="declared sample count: the actual count is verified at end of stream",
    )
    moment.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help="parse samples as finite doubles; results are approximate and the "
        "exact-arithmetic guarantees do not apply",
    )
    moment.add_argument("--format", choices=("json", "plain"), default="json")

    coeffs_cmd = sub.add_parser("coeffs", help="combination coefficients for a concrete (K, N)")
    coeffs_cmd.set_defaults(run=_run_coeffs)
    coeffs_cmd.add_argument(
        "-K", "--power", type=_int_in(0, MAX_K), required=True, help=f"power K, at most {MAX_K}"
    )
    coeffs_cmd.add_argument("-N", "--length", type=_int_in(1), required=True)
    coeffs_cmd.add_argument("--format", choices=("json", "plain"), default="json")

    table_cmd = sub.add_parser(
        "table", help="coefficient polynomials in N for all powers up to --kmax"
    )
    table_cmd.set_defaults(run=_run_table)
    table_cmd.add_argument(
        "--kmax",
        type=_int_in(0, MAX_TABLE_KMAX),
        default=5,
        help=f"largest power to tabulate, at most {MAX_TABLE_KMAX} (beyond ~12 gets unwieldy)",
    )
    table_cmd.add_argument("--format", choices=("plain",), default="plain")

    complexity_cmd = sub.add_parser(
        "complexity", help="operation-count comparison of cascade vs runtime exponentiation"
    )
    complexity_cmd.set_defaults(run=_run_complexity)
    # the baseline's exhaustive addition-chain search stops at MAX_CHAIN_TARGET
    complexity_cmd.add_argument(
        "--Ks",
        type=_int_list_in(0, MAX_CHAIN_TARGET),
        default=[2, 4, 7],
        help="powers, comma-separated",
    )
    complexity_cmd.add_argument(
        "--Ns",
        type=_int_list_in(1),
        default=[10, 100, 1000],
        help="sequence lengths, comma-separated",
    )
    complexity_cmd.add_argument("--format", choices=("csv", "json"), default="csv")

    selfcheck_cmd = sub.add_parser("selfcheck", help="run randomized consistency checks")
    selfcheck_cmd.set_defaults(run=_run_selfcheck)
    selfcheck_cmd.add_argument("--seed", type=_decimal_int, default=0)
    selfcheck_cmd.add_argument("--format", choices=("json",), default="json")

    return parser


def _run_moment(args: argparse.Namespace) -> int:
    parse: Callable[[str], object] = int
    if args.float_mode:
        _print_stderr("warning: --float uses double precision; results are approximate")
        parse = _finite_float
    cascade = Cascade(max(args.powers))

    try:
        if args.input is not None:
            # undecodable bytes become lone surrogates, which are not ASCII,
            # so they fail as a parse error with their line number
            with open(args.input, encoding="utf-8", errors="surrogateescape") as stream:
                push_stream(cascade, stream, parse)
        else:
            if isinstance(sys.stdin, io.TextIOWrapper):
                # the default is "strict" outside the C and POSIX locales
                sys.stdin.reconfigure(errors="surrogateescape")
            push_stream(cascade, sys.stdin, parse)
    except (SampleParseError, OSError) as exc:
        _print_stderr(f"error: {exc}")
        return EXIT_USAGE

    n_samples = cascade.samples_seen
    if n_samples == 0:
        _print_stderr("error: no samples in input; powered sums are undefined for an empty stream")
        return EXIT_EMPTY_INPUT
    if args.expect_n is not None and n_samples != args.expect_n:
        _print_stderr(f"error: expected {args.expect_n} samples but the stream held {n_samples}")
        return EXIT_USAGE

    results = []
    for power in args.powers:
        try:
            value = cascade.finalize(coefficients_closed(power, n_samples))
        except OverflowError:  # under --float, a coefficient beyond the double range
            value = math.nan
        if not abs(value) < math.inf:  # nan or inf; an int of any size is below inf
            _print_stderr(f"error: the result for K={power} is not a finite double under --float")
            return EXIT_USAGE
        ops = predict_cascade(power, n_samples)
        results.append({"K": power, "S": str(value), "ops": asdict(ops)})

    if args.format == "plain":
        for row in results:
            print(f"{row['K']} {row['S']}")
    else:
        print(json.dumps({"N": n_samples, "results": results}, indent=2))
    return EXIT_OK


def _run_coeffs(args: argparse.Namespace) -> int:
    K, N = args.power, args.length
    coeffs = coefficients_closed(K, N)
    unique = N >= K + 1
    if args.format == "plain":
        print(" ".join(str(c) for c in coeffs.coeffs))
        if not unique:
            print(
                "note: N < K+1, so these coefficients are valid but not the unique "
                "solution on the sample grid"
            )
    else:
        print(
            json.dumps(
                {
                    "K": K,
                    "N": N,
                    "coefficients": [str(c) for c in coeffs.coeffs],
                    "unique_on_sample_grid": unique,
                },
                indent=2,
            )
        )
    return EXIT_OK


def _run_table(args: argparse.Namespace) -> int:
    """Print the coefficient polynomials c_1..c_{K+1} for K = 0..kmax.

    Cells use the canonical polynomial form (descending powers of N,
    explicit signs, no spaces), so they are directly comparable as strings.
    """
    header = ["K"] + [f"c_{k}" for k in range(1, args.kmax + 2)]
    body = []
    for K in range(args.kmax + 1):
        cells = [str(K)] + [str(poly) for poly in coefficient_polynomials(K)]
        cells += [""] * (len(header) - len(cells))
        body.append(cells)
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    for row in [header] + body:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return EXIT_OK


def _run_complexity(args: argparse.Namespace) -> int:
    reports = complexity_table(args.Ks, args.Ns)
    if args.format == "json":
        print(json.dumps([asdict(report) for report in reports], indent=2))
    else:
        write_csv(reports, sys.stdout)
    return EXIT_OK


def _run_selfcheck(args: argparse.Namespace) -> int:
    report = run_selfcheck(seed=args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["all_passed"] else EXIT_SELFCHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    # Samples and results are exact integers of any size: lift Python's
    # 4300-digit cap on int<->str conversion, for this process only.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.run(args)


def _discard(stream: TextIO) -> None:
    """Point a stream's file descriptor at /dev/null, so the interpreter's
    flush at exit has nowhere to fail and keeps the exit code."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def entrypoint() -> None:
    try:
        # fails when fd 2 is closed or not open for writing: print() and
        # argparse (which before Python 3.11 does not ignore the error) would
        # raise, or write to stdout if the interpreter found fd 2 closed
        os.write(2, b"")
    except OSError:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    try:
        code = main()
        # flushed here, so a reader that left early fails inside the try,
        # not in the interpreter's flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        _discard(sys.stdout)
        code = EXIT_BROKEN_PIPE
    try:
        sys.stderr.flush()
    except OSError:
        # the reader of stderr left, and a message that failed to print is
        # still buffered
        _discard(sys.stderr)
    sys.exit(code)
