"""Mutation check: each mutant below, applied alone to a copy of ``src``,
must make the tests named for it fail.

    python3 tests/mutants.py

A mutant is a name, a file under ``src/powsum``, an exact text that
occurs there once, its replacement, and the test node ids that must kill
it. For each mutant the script copies ``src`` to a temporary directory,
applies the mutant there and runs its tests from the checkout with
``pytest -x`` and ``PYTHONPATH`` set to the copy. A mutant is killed when
pytest reports a failed test. The script exits 1 if a mutant survives or
its text does not occur exactly once, and 0 when every mutant is killed.
A mutant whose text is gone is stale: the change that rewrote the code it
probes updates or retires it. The checkout is left as it was; pytest's
cache is off, and what else the tests write there, ``.gitignore`` lists.
(Mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 1978.)

The name does not match ``test_*.py``, so the tier-1 suite does not
collect it: the mutants take about 30 s (2-core Xeon VM, Python 3.11.7),
and CI runs them as one step.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BATCHED = "tests/test_cascade.py::TestBatched"
MOMENT = "tests/test_cli.py::TestMoment"
PUSH_STREAM = "tests/test_cli.py::TestPushStream"
STEPPING = "tests/test_coeffs.py::TestStepping"

# (name, file, text, replacement, killing tests)
MUTANTS = [
    # the chunk kernel's lane rule and lanes
    (
        "lanes from K = 11",
        "cascade.py",
        "_LANE_MIN_K = 12",
        "_LANE_MIN_K = 11",
        [f"{BATCHED}::test_lane_selection"],
    ),
    (
        "lanes for samples up to 2**257",
        "cascade.py",
        "< _LANE_MAX",
        "< _LANE_MAX * 2",
        [f"{BATCHED}::test_lane_selection"],
    ),
    (
        "lane fields without room for the sign",
        "cascade.py",
        ".bit_length() + 2",
        ".bit_length()",
        [f"{BATCHED}::test_constant_samples_at_the_lane_bound"],
    ),
    (
        "lanes carried in reverse",
        "cascade.py",
        "local = _carry(local, lane, b)",
        "local = _carry(lane, local, b)",
        [f"{BATCHED}::test_lane_selection"],
    ),
    (
        "lane fields unpacked without their sign",
        "cascade.py",
        "field = ((packed + half) & mask) - half",
        "field = packed & mask",
        [f"{BATCHED}::test_constant_samples_at_the_lane_bound"],
    ),
    (
        "failed drain leaves the queue in place",
        "cascade.py",
        "        try:\n            cascade._drain()\n        finally:\n            cascade._queue = None\n",
        "        cascade._drain()\n        cascade._queue = None\n",
        [f"{BATCHED}::test_failed_drain_leaves_the_cascade_unchanged"],
    ),
    # moment's reader, push_stream
    (
        "read block not capped by the chunk's room",
        "cascade.py",
        "_READ_BLOCK, _CHUNK - len(queue), ",
        "_READ_BLOCK, ",
        [f"{BATCHED}::test_every_drain_but_the_last_is_one_full_chunk"],
    ),
    (
        "surplus sample applied",
        "cascade.py",
        "                queue.pop()\n",
        "",
        [f"{PUSH_STREAM}::test_limit_ends_an_endless_input_at_the_surplus_sample"],
    ),
    (
        "line count advanced by a full block",
        "cascade.py",
        "start += want",
        "start += _READ_BLOCK",
        [f"{MOMENT}::test_parse_error_after_a_chunk_behind_junk_lines"],
    ),
    (
        "a clean block may hold '_'",
        "cascade.py",
        'clean = joined.isascii() and "_" not in joined',
        "clean = joined.isascii()",
        ["tests/test_cli.py::test_non_decimal_text_rejected"],
    ),
    (
        "a clean block may hold non-ASCII text",
        "cascade.py",
        'clean = joined.isascii() and "_" not in joined',
        'clean = "_" not in joined',
        [f"{MOMENT}::test_parse_error_at_a_block_edge_names_its_line"],
    ),
    # the CLI
    (
        "SampleError not handled by moment",
        "cli.py",
        "except (SampleError, OSError) as exc:",
        "except OSError as exc:",
        [f"{MOMENT}::test_parse_error_reports_line_number"],
    ),
    (
        "integer flags take non-ASCII digits",
        "cli.py",
        'if not text.isascii() or "_" in text:',
        'if "_" in text:',
        ["tests/test_cli.py::test_non_decimal_text_rejected"],
    ),
    (
        "help that stdout cannot take is dropped",
        "cli.py",
        "        if stream is not None and stream is sys.stdout:\n            raise\n",
        "        pass\n",
        ["tests/test_cli.py::test_failed_usage_message_keeps_exit_code"],
    ),
    (
        "a message write that fails escapes",
        "cli.py",
        "    try:\n"
        "        stream.write(text)\n"
        "    except (AttributeError, OSError):  # AttributeError: stream is None\n"
        "        if stream is not None and stream is sys.stdout:\n"
        "            raise\n",
        "    stream.write(text)\n",
        ["tests/test_cli.py::test_failed_usage_message_keeps_exit_code"],
    ),
    (
        "argparse's usage line for a stderr of None goes to stdout",
        "cli.py",
        "    def print_usage(self, file: io.TextIOBase | None = None) -> None:\n"
        "        self._print_message(self.format_usage(), file)\n",
        "",
        ["tests/test_cli.py::test_error_line_without_stderr_stays_off_stdout"],
    ),
    (
        "a stderr of None flushed at exit",
        "cli.py",
        "        if sys.stderr is not None:  # None: fd 2 was closed at start\n"
        "            sys.stderr.flush()\n",
        "        sys.stderr.flush()\n",
        ["tests/test_cli.py::test_unwritable_stderr_keeps_exit_code[argv0-_close_stderr]"],
    ),
    # the coefficients, their run scan and the combination
    (
        "a scanned run one length behind",
        "coeffs.py",
        "count(N + 1)",
        "count(N)",
        [f"{STEPPING}::test_threads_sharing_a_power_get_correct_sets"],
    ),
    (
        "a scanned run starting with the set it was scanned from",
        "coeffs.py",
        "    next(rows)  # the coefficients of last itself\n",
        "",
        [f"{STEPPING}::test_threads_sharing_a_power_get_correct_sets"],
    ),
    (
        "the next run scanned from the kept run's first set",
        "coeffs.py",
        "_scan(run[-1], ",
        "_scan(run[0], ",
        # equivalent while a run holds one set: the threads' runs hold 113,
        # the drawn ones 1 to 1024
        [
            f"{STEPPING}::test_threads_sharing_a_power_get_correct_sets",
            f"{STEPPING}::test_running_pattern_across_run_boundaries",
        ],
    ),
    (
        "differences taken the other way round",
        "coeffs.py",
        "row = [a - b for a, b in zip(row, row[1:])]",
        "row = [b - a for a, b in zip(row, row[1:])]",
        ["tests/test_coeffs.py::TestSignedDifferences::test_matches_definition"],
    ),
    (
        "finalize takes a set for another length",
        "cascade.py",
        "        if length != n:\n"
        '            raise ValueError(f"coefficients are for N={length}, cascade has seen {n} samples")\n',
        "",
        ["tests/test_cascade.py::TestFinalize::test_mismatched_length_rejected"],
    ),
    (
        "carry weights one sample too long",
        "cascade.py",
        "(length - 1 + d)",
        "(length + d)",
        [f"{BATCHED}::test_streams_around_chunk_boundaries"],
    ),
]


def check(file, text, replacement, tests):
    """'killed', 'survived', or why the mutant could not be checked."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "powsum" / file
        source = path.read_text(encoding="utf-8")
        if source.count(text) != 1:
            return f"stale: its text occurs {source.count(text)} times in {file}"
        path.write_text(source.replace(text, replacement), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
    # 1 is a failed test; any other code (a collection error, a test id not
    # found) kills nothing
    if result.returncode == 0:
        return "survived"
    if result.returncode == 1:
        return "killed"
    return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"


def main():
    failed = 0
    for name, *mutant in MUTANTS:
        start = time.perf_counter()
        outcome = check(*mutant)
        print(f"{name}: {outcome} ({time.perf_counter() - start:.1f} s)")
        failed += outcome != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
