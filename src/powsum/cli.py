"""Command-line front end.

Subcommands:

* ``moment``      stream integer samples, emit powered sums in one pass
* ``coeffs``      combination coefficients for a concrete (K, N)
* ``table``       symbolic coefficient polynomials in N up to a power of at most 100
* ``complexity``  operation-count comparison table
* ``selfcheck``   randomized internal consistency checks

An out-of-range or malformed argument is a usage error naming the flag,
refused before any input is read: ``-K`` of ``moment`` and ``coeffs`` is
0..2000, ``coeffs -N`` 1..10**18, ``table --kmax`` 0..100, ``complexity
--Ks`` 0..64, ``--expect-n`` and ``--Ns`` at least 1, and ``selfcheck
--seed`` at least 0; a ``--Ks`` or ``--Ns`` list holds at least one
integer. The sum of (K+1)**3 over the distinct ``-K`` of ``moment`` is at
most twice that of ``-K 2000``.

Exit codes: 0 success, 1 selfcheck failure, 2 usage or parse error,
3 empty input where samples were required, 130 interrupted by SIGINT
(128 + SIGINT, as a shell reports for Ctrl-C), 141 stdout could not take
all the output: closed, its reader left, not writable or full (128 +
SIGPIPE, as a shell reports for ``seq | head``). 130 prints nothing on
stderr, and 141 one ``error:`` line unless the reader left or fd 1 was
closed. 130 holds once the CLI runs: a SIGINT during interpreter start-up
or the package import (about the first 0.1 s) comes before ``entrypoint``
and still prints a traceback. A closed or unwritable stderr loses the
messages, none of which goes to stdout, and keeps the exit code. A stdin
closed at start is an error line and exit 2 for ``moment`` without
``--input``; with stdout closed at start, a usage error still exits 2.
``moment`` holds each input line whole: a line too long for memory is
one error line, nothing on stdout, and exit 2.

Sample input is line-delimited ASCII decimal integers (finite decimal
floats with ``--float``); blank lines and lines starting with ``#`` are
ignored. ``moment`` reads it with ``powsum.cascade.push_stream``, which
lives beside the chunk kernel it feeds. ``--expect-n N`` refuses sample
N+1 as it arrives, naming its line, so an endless input ends at once,
and a shorter stream at its end, both with exit 2. Under ``--float``
each result is the exact sum of the parsed doubles, rounded once to the
nearest double; a non-finite sample and a result beyond the double
range (naming K) are errors with exit 2. All output is deterministic
for identical inputs and flags (randomized checks take an explicit
seed).
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import asdict

from .cascade import Cascade, SampleError, push_stream
from .coeffs import coefficient_polynomials, coefficients_closed
from .costmodel import MAX_CHAIN_TARGET, ComplexityReport, complexity_table, predict_cascade

EXIT_OK = 0
EXIT_SELFCHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_EMPTY_INPUT = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
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

# MAX_K holds per flag, so moment also caps the sum of (K+1)**3 over the
# distinct powers at twice -K 2000's. Over one sample (same VM), -K 2000 takes
# 1.41 s, -K 1999 -K 2000 2.77 s (1.9985 times, accepted) and -K 1981 ... -K
# 2000 (19.7 times) about 57 s. A repeated -K counts once: the memo has its set.
MAX_MOMENT_WORK = 2 * (MAX_K + 1) ** 3

# coeffs' cost grows with the digits of -N: at K = 2000, coefficients_closed
# takes 5.5 s at N = 10**6, 8.1 s at 2**32 and 17.6 s at 10**18, and printing
# takes 3.0, 6.2 and 18.3 s more for 18, 25 and 42 MB (same VM)
MAX_N = 10**18

# Every finite double is a whole multiple of the smallest subnormal,
# 2**-1074, so a --float sample times 2**FLOAT_SHIFT is an exact integer.
# Exactness costs time: over 2*10**5 samples in +-10**3, a --float run took
# about 1.5 times as long as float registers at -K 2, and 2.2 times at -K 8
# -K 32 (measured when --float moved onto the integer cascade)
FLOAT_SHIFT = 1074


def _write(text: str, stream: io.TextIOBase | None) -> None:
    """Write a message, or drop it if its stream cannot take it: closed,
    full, its reader gone, or None (sys.stderr when fd 2 was closed at
    start). So a broken stderr loses the message, not the exit code. But
    stdout, where help goes, raises, so that entrypoint exits 141."""
    try:
        stream.write(text)
    except (AttributeError, OSError):  # AttributeError: stream is None
        if stream is not None and stream is sys.stdout:
            raise


def _scaled_float(text: str) -> int:
    """float(text) times 2**FLOAT_SHIFT, exactly, rejecting nan, inf and
    literals that overflow to inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite sample {text!r}")
    num, den = value.as_integer_ratio()  # den is a power of two, at most 2**1074
    return num << (FLOAT_SHIFT + 1 - den.bit_length())


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type: an integer flag in [low, high], or at least low when
    high is None, written as ASCII text without "_", the grammar of samples
    too. Anything else is a usage error naming the flag, raised while the
    arguments are parsed, so before any input is read."""

    def int_in(text: str) -> int:
        try:
            if not text.isascii() or "_" in text:
                raise ValueError
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}") from None
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
    # argparse's usage, error and help text follow _write's rule on every
    # release: 3.11.2's argparse raises on a failed write, and later ones
    # drop a failed write of help too, which would exit 0, not 141. error()
    # prints usage to sys.stderr, and argparse's print_usage sends None to stdout
    def _print_message(self, message: str, file: io.TextIOBase | None = None) -> None:
        _write(message, file or sys.stderr)

    def print_usage(self, file: io.TextIOBase | None = None) -> None:
        self._print_message(self.format_usage(), file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powsum",
        description="Streaming time-index powered weighted sums via cascaded accumulators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    moment = sub.add_parser(
        "moment",
        help="compute sum(n^K * v[n]) over a sample stream in a single pass",
        description="Compute sum(n^K * v[n]) over a sample stream in a single pass. "
        "Each result's ops field is predict_cascade(K, N), the paper's operation "
        "count; the README's \"How it works\" gives the cost of moment's chunked "
        "push beyond it.",
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
        help="declared sample count: a surplus sample is refused as it arrives, "
        "a shortfall at end of stream",
    )
    moment.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help="parse samples as finite doubles; each result is the exact sum of the "
        "parsed doubles, rounded once to the nearest double",
    )
    moment.add_argument("--format", choices=("json", "plain"), default="json")

    coeffs_cmd = sub.add_parser("coeffs", help="combination coefficients for a concrete (K, N)")
    coeffs_cmd.set_defaults(run=_run_coeffs)
    coeffs_cmd.add_argument(
        "-K", "--power", type=_int_in(0, MAX_K), required=True, help=f"power K, at most {MAX_K}"
    )
    coeffs_cmd.add_argument("-N", "--length", type=_int_in(1, MAX_N), required=True)
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
    selfcheck_cmd.add_argument("--seed", type=_int_in(0), default=0)

    return parser


def _run_moment(args: argparse.Namespace) -> int:
    work = sum((power + 1) ** 3 for power in set(args.powers))
    if work > MAX_MOMENT_WORK:
        _write(
            f"error: argument -K/--power: sum of (K+1)**3 is {work}, more than {MAX_MOMENT_WORK}\n",
            sys.stderr,
        )
        return EXIT_USAGE
    parse = _scaled_float if args.float_mode else int
    cascade = Cascade(max(args.powers))

    try:
        if args.input is not None:
            # undecodable bytes become lone surrogates, which are not ASCII, so
            # they fail as a parse error naming their line; as on stdin, only "\n" ends a line
            with open(args.input, encoding="utf-8", errors="surrogateescape", newline="\n") as stream:
                push_stream(cascade, stream, parse, args.expect_n)
        elif sys.stdin is None:  # fd 0 was closed at start
            _write("error: cannot read samples from stdin: it is closed\n", sys.stderr)
            return EXIT_USAGE
        else:
            if isinstance(sys.stdin, io.TextIOWrapper):
                # the default is "strict" outside the C and POSIX locales
                sys.stdin.reconfigure(errors="surrogateescape")
            push_stream(cascade, sys.stdin, parse, args.expect_n)
    except (SampleError, OSError) as exc:
        _write(f"error: {exc}\n", sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a line is held whole, so one without an end (as from /dev/zero)
        # runs the process out of memory while it is decoded or parsed
        _write("error: out of memory while reading samples: a line is too long\n", sys.stderr)
        return EXIT_USAGE

    n_samples = cascade.samples_seen
    if n_samples == 0:
        _write(
            "error: no samples in input; powered sums are undefined for an empty stream\n", sys.stderr
        )
        return EXIT_EMPTY_INPUT
    if args.expect_n is not None and n_samples != args.expect_n:
        _write(
            f"error: expected {args.expect_n} samples but the stream held {n_samples}\n", sys.stderr
        )
        return EXIT_USAGE

    results = []
    for power in args.powers:
        value = cascade.finalize(coefficients_closed(power, n_samples))
        try:  # int/int true division rounds correctly, or overflows
            S = str(value / (1 << FLOAT_SHIFT) if args.float_mode else value)
        except OverflowError:
            _write(
                f"error: the result for K={power} is not a finite double under --float\n", sys.stderr
            )
            return EXIT_USAGE
        results.append({"K": power, "S": S, "ops": asdict(predict_cascade(power, n_samples))})

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
        coefficients = [str(c) for c in coeffs.coeffs]
        report = {"K": K, "N": N, "coefficients": coefficients, "unique_on_sample_grid": unique}
        print(json.dumps(report, indent=2))
    return EXIT_OK


def _polynomial_text(coefficients: tuple[int, ...]) -> str:
    """A polynomial in N, ``coefficients[i]`` multiplying N**i, in canonical
    form: descending powers, explicit signs, no spaces, ``0`` for no terms.

    Examples: ``N^2``, ``-2N-1``, ``12N^2+24N+14``, ``0``.
    """
    parts: list[str] = []
    for power in range(len(coefficients) - 1, -1, -1):
        c = coefficients[power]
        if c == 0:
            continue
        magnitude = abs(c)
        if power == 0:
            body = str(magnitude)
        else:
            variable = "N" if power == 1 else f"N^{power}"
            body = variable if magnitude == 1 else f"{magnitude}{variable}"
        sign = "-" if c < 0 else ("" if not parts else "+")
        parts.append(sign + body)
    return "".join(parts) or "0"


def _run_table(args: argparse.Namespace) -> int:
    """Print the coefficient polynomials c_1..c_{K+1} for K = 0..kmax.

    Cells are coefficient_polynomials' tuples in _polynomial_text's
    canonical form, so they are directly comparable as strings.
    """
    header = ["K"] + [f"c_{k}" for k in range(1, args.kmax + 2)]
    body = []
    for K in range(args.kmax + 1):
        cells = [str(K)] + [_polynomial_text(poly) for poly in coefficient_polynomials(K)]
        cells += [""] * (len(header) - len(cells))
        body.append(cells)
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    for row in [header] + body:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return EXIT_OK


CSV_HEADER = ("K", "N", "method", "general_mults", "constant_mults", "additions")


def write_csv(reports: Iterable[ComplexityReport], stream: io.TextIOBase) -> None:
    """Write reports under CSV_HEADER, three rows each (cascade, baseline,
    baseline counted chain-only); every field is an integer or a fixed word."""
    rows = [CSV_HEADER]
    for r in reports:
        rows.append((r.K, r.N, "cascade", r.cascade.general_mults, r.cascade.constant_mults, r.cascade.additions))
        rows.append((r.K, r.N, "baseline", r.baseline.general_mults, r.baseline.constant_mults, r.baseline.additions))
        rows.append((r.K, r.N, "baseline_chain_only", r.baseline_chain_only_mults, 0, r.baseline.additions))
    stream.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _run_complexity(args: argparse.Namespace) -> int:
    reports = complexity_table(args.Ks, args.Ns)
    if args.format == "json":
        print(json.dumps([asdict(report) for report in reports], indent=2))
    else:
        write_csv(reports, sys.stdout)
    return EXIT_OK


def _run_selfcheck(args: argparse.Namespace) -> int:
    from .selfcheck import run_selfcheck  # loaded here, not at every moment's start
    report = run_selfcheck(seed=args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["all_passed"] else EXIT_SELFCHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    # Samples and results are exact integers of any size: lift Python's
    # 4300-digit cap on int<->str conversion, for this process only.
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.run(args)


def _discard(stream: io.TextIOBase) -> None:
    """Point a stream's file descriptor at /dev/null, so the interpreter's
    flush at exit has nowhere to fail and keeps the exit code."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def entrypoint() -> None:
    if sys.stdout is None:
        # fd 1 was closed at start: a pipe without a reader makes the first
        # write fail as when the reader of stdout left, which exits 141
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w", encoding="utf-8")
    try:
        code = main()
        # flushed here, so a stdout that cannot take the output fails inside
        # the try, not in the interpreter's flush at exit
        sys.stdout.flush()
    except OSError as exc:
        # only stdout can fail here: _run_moment handles the input's errors,
        # and _write those of stderr
        _discard(sys.stdout)
        if exc.errno != errno.EPIPE:  # its reader left, or fd 1 was closed
            _write(f"error: cannot write to stdout: {exc.strerror}\n", sys.stderr)
        code = EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        code = EXIT_INTERRUPTED
    # a closed or unwritable stderr loses its messages (none goes to stdout), not the exit code
    try:
        if sys.stderr is not None:  # None: fd 2 was closed at start
            sys.stderr.flush()
    except OSError:  # not writable, or its reader left: a failed message is still buffered
        _discard(sys.stderr)
    sys.exit(code)
