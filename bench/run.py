#!/usr/bin/env python3
"""powsum benchmark: stream throughput, running-output latency and a traced
per-layer breakdown.

Run from the root of a source checkout (the program is imported from
``src``; nothing needs installing):

    python3 bench/run.py --workload stream_k2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                    # every workload in turn, --trace 0

Workloads. Inputs are generated from ``--seed`` into files before any timing
starts; the program only ever receives a file. Each workload puts a
different layer at the front:

* ``stream_k2``: ``powsum moment -K 2`` over 10^6 samples, |v| <= 10^3, with
  about 1% blank and ``#`` lines. Reading and parsing share the time with
  the cascade push; coefficients are negligible.
* ``stream_k32_big``: ``powsum moment -K 8 -K 32 --expect-n N`` over 2*10^5
  samples, |v| <= 10^18. Pushing through 33 wide registers dominates; also
  covers several powers and precomputed coefficients.
* ``running_k8``: library use. After each of 2*10^4 samples, |v| <= 10^6,
  ``push`` then ``finalize(coefficients_closed(8, n))``. Coefficient
  generation dominates and there is no reader.

Load: one client, closed loop. Child processes run one at a time, each
started after the previous one exited, until ``--seconds`` have passed
(at least three passes). Every output is checked against a reference the
benchmark computes itself, S = sum(n**K * v[n]), outside any timing.

Timings are medians over the passes of the run, each pass's times scaled
to a reference host speed first. On a shared host a CPU's speed drifts by
up to half between seconds and between minutes, which moves raw wall times
more than the bounds allow. So the launcher (``spawn.py``) binds itself and
every child to one CPU and times a fixed calibration loop there, the same
kind of work as the program but no powsum code, right before and after
every child. Each time the child took is multiplied by
``CALIBRATION_REF_S`` over the mean of those two timings: the times are
those of a host on which the calibration loop takes ``CALIBRATION_REF_S``.
A change to powsum moves only the child's time, not the calibration. The
unscaled figures are kept in the record as ``raw_metrics``, with every
pass's calibration times.

``--trace 0`` prints the end-to-end metrics:

* ``samples_per_s``: N over the median (scaled) wall time from process
  start to exit (streams) or from the first push to the last result
  (``running_k8``).
* ``setup_s``: median (scaled) wall time of the same workload on a
  one-sample input in a fresh process (interpreter start, import, argument
  parsing, coefficients and output), over 15 such processes.
* ``peak_rss_mb``: the child's own maximum RSS from ``os.wait4`` (see
  ``spawn.py``); median over passes.
* ``result_latency_p50_us``: median time per result. On ``running_k8``
  from a push through the written S: the median over passes of each
  pass's (scaled) p50; on the streams each pass yields one result, so it is
  the pass's (scaled) wall time.

Also printed and recorded, but not in BENCHMARK.json: ``failed_share``
(failed / attempted, 0 on a correct tree) and, on ``running_k8`` only,
``result_latency_p99_us``, the median over passes of each pass's (scaled)
p99. The streams yield too few results per run for a p99 with ten samples
beyond it.

``--trace 1`` alternates untraced and traced passes (see ``traced.py``) and
prints the per-layer metrics, times as medians over the traced passes:
self time and calls per layer entry point, reader line counts, register
and coefficient widths, moment results whose ``ops`` equal
``predict_cascade``, and the tracing overhead (median traced wall minus
median untraced wall, both scaled). On ``running_k8`` the ``cli.*`` reader
metrics describe the library caller's own loader, which runs before the
first push. Count checks: pushes equal N, lines read minus lines skipped equal
N, lines read and skipped equal what the generator wrote, and every count
repeats exactly between traced passes.

Each run prints a record (seed, SHA-256 of every input file, environment,
pass times, all metrics including ``failed_share``) and writes it to
``.bench_work/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any wrong or missing
result or failed count check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import marshal
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path
from typing import Any, Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent
RUNNING = BENCH_DIR / "running.py"
TRACED = BENCH_DIR / "traced.py"
SPAWN = BENCH_DIR / "spawn.py"

SETUP_REPS = 15
# Host speed of reference: times are scaled to a host on which the
# launcher's calibration loop takes this long. A round figure; on a shared
# 2-core Xeon VM the loop took 0.05 to 0.14 s as the other tenants' load
# changed.
CALIBRATION_REF_S = 0.1
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60.0
# reported and recorded, but not gated by BENCHMARK.json
EXTRA_UNITS = {"result_latency_p99_us": "us", "failed_share": "1"}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    magnitude: int  # samples are uniform in [-magnitude, magnitude]
    powers: tuple[int, ...]
    junk_share: float = 0.0  # chance of a blank or '#' line before a sample
    expect_n: bool = False
    running: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream_k2", 10**6, 10**3, (2,), junk_share=0.01),
        Workload("stream_k32_big", 2 * 10**5, 10**18, (8, 32), expect_n=True),
        Workload("running_k8", 2 * 10**4, 10**6, (8,), running=True),
    )
}


@dataclasses.dataclass
class Inputs:
    path: Path
    samples: int
    lines: int
    junk_lines: int
    sha256: str
    expected: list[str]  # S per power (streams) or after each sample (running)


@dataclasses.dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mb: float
    calibration_s: tuple[float, float]  # launcher's calibration loop before and after
    stdout: str
    stderr: str


@dataclasses.dataclass
class Pass:
    attempted: int
    failed: int
    process_s: float  # child process, spawn to reaping
    wall_s: float  # process_s on the streams; first push to last result on running_k8
    rss_mb: float
    speed: float  # CALIBRATION_REF_S over the calibration time around this pass
    calibration_s: tuple[float, float]
    latencies_ns: list[int]
    ops_matches: int = 0
    reader: dict[str, float] | None = None  # lines_read, lines_skipped, read_parse_s
    trace: dict[str, Any] | None = None


def make_inputs(workload: Workload, n: int, seed: int, tag: str, path: Path) -> Inputs:
    """Write ``n`` seeded samples (plus junk lines) to ``path`` and compute
    the reference results."""
    rng = random.Random(f"{workload.name}/{tag}/{seed}")
    m = workload.magnitude
    samples = [rng.randint(-m, m) for _ in range(n)]
    lines = []
    for v in samples:
        if workload.junk_share and rng.random() < workload.junk_share:
            lines.append(rng.choice(("", "# comment")))
        lines.append(str(v))
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    if workload.running:
        (K,) = workload.powers
        expected, total = [], 0
        for index, v in enumerate(samples):
            total += index**K * v
            expected.append(str(total))
    else:
        expected = [str(sum(index**K * v for index, v in enumerate(samples))) for K in workload.powers]
    return Inputs(path, n, len(lines), len(lines) - n, hashlib.sha256(data).hexdigest(), expected)


class Launcher:
    """Client of ``spawn.py``, which spawns, times and reaps every child."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(SPAWN)], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc: object) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()

    def run(self, argv: list[str], stdin_path: Path | None, workdir: Path) -> Child:
        out_path, err_path = workdir / "child.out", workdir / "child.err"
        stdin = str(stdin_path or os.devnull)
        request = (argv, child_env(), stdin, str(out_path), str(err_path), CHILD_TIMEOUT_S)
        payload = marshal.dumps(request)
        self.proc.stdin.write(len(payload).to_bytes(4, "little") + payload)
        self.proc.stdin.flush()
        header = self.proc.stdout.read(4)
        if len(header) != 4:
            raise RuntimeError("the launcher exited")
        reply = marshal.loads(self.proc.stdout.read(int.from_bytes(header, "little")))
        code, wall_s, maxrss_kb, *calibration_s = reply
        return Child(
            code,
            wall_s,
            maxrss_kb / 1024,
            tuple(calibration_s),
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Bench:
    """One workload at one size and seed: its inputs, passes and checks."""

    def __init__(
        self,
        workload: Workload,
        n: int,
        seed: int,
        workdir: Path,
        launcher: Launcher,
        predict_ops: Callable[[int, int], dict[str, int]],
    ) -> None:
        self.w = workload
        self.launcher = launcher
        self.n = n
        self.workdir = workdir
        self.predict_ops = predict_ops
        self.main = make_inputs(workload, n, seed, "main", workdir / "samples.txt")
        self.one = make_inputs(workload, 1, seed, "setup", workdir / "one.txt")
        self.problems: list[str] = []

    def argv(self, inputs: Inputs, traced: bool) -> tuple[list[str], Path | None]:
        trace = [str(TRACED), str(self.workdir / "trace.json")]
        if self.w.running:
            (K,) = self.w.powers
            args = [str(inputs.path), str(K), str(self.workdir / "s.txt"), str(self.workdir / "lat.bin")]
            argv = [*trace, "running", *args] if traced else [str(RUNNING), *args]
            return [sys.executable, *argv], None
        args = ["moment"]
        for K in self.w.powers:
            args += ["-K", str(K)]
        if self.w.expect_n:
            args += ["--expect-n", str(inputs.samples)]
        argv = [*trace, "cli", *args] if traced else ["-m", "powsum", *args]
        return [sys.executable, *argv], inputs.path

    def run_pass(self, inputs: Inputs, traced: bool = False) -> Pass:
        trace_path = self.workdir / "trace.json"
        trace_path.unlink(missing_ok=True)
        argv, stdin_path = self.argv(inputs, traced)
        child = self.launcher.run(argv, stdin_path, self.workdir)
        speed = CALIBRATION_REF_S / statistics.fmean(child.calibration_s)
        result = Pass(
            len(inputs.expected), 0, child.wall_s, child.wall_s, child.rss_mb, speed, child.calibration_s, []
        )
        if child.returncode != 0:
            self.problem(f"exit code {child.returncode}: {child.stderr.strip()[-400:]}")
            result.failed = result.attempted
            return result
        if traced:
            result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        if self.w.running:
            self.check_running(inputs, child, result)
        else:
            self.check_stream(inputs, child, result)
        return result

    def check_stream(self, inputs: Inputs, child: Child, result: Pass) -> None:
        try:
            report = json.loads(child.stdout)
            rows = {row["K"]: row for row in report["results"]}
        except (ValueError, KeyError, TypeError):
            self.problem(f"unreadable output: {child.stdout[:200]!r}")
            result.failed = result.attempted
            return
        for K, expected in zip(self.w.powers, inputs.expected):
            row = rows.get(K, {})
            if report.get("N") != inputs.samples or row.get("S") != expected:
                self.problem(f"K={K}: wrong S or N")
                result.failed += 1
            elif row.get("ops") != self.predict_ops(K, inputs.samples):
                self.problem(f"K={K}: ops {row.get('ops')} differ from predict_cascade")
                result.failed += 1
            else:
                result.ops_matches += 1
        if result.trace is not None:
            t = result.trace
            result.reader = {
                "lines_read": t["lines_read"],
                "lines_skipped": t["lines_skipped"],
                "read_parse_s": t["self_s"].get("cli.push_stream", 0.0),
            }

    def check_running(self, inputs: Inputs, child: Child, result: Pass) -> None:
        written = (self.workdir / "s.txt").read_text(encoding="ascii").splitlines()
        wrong = sum(got != want for got, want in zip(written, inputs.expected))
        result.failed = wrong + abs(len(inputs.expected) - len(written))
        if result.failed:
            self.problem(f"{result.failed} of {result.attempted} running results wrong or missing")
        stats = json.loads(child.stdout.splitlines()[-1])
        result.wall_s = stats["wall_s"]
        result.latencies_ns = array("q", (self.workdir / "lat.bin").read_bytes()).tolist()
        result.reader = {
            "lines_read": stats["lines_read"],
            "lines_skipped": stats["lines_skipped"],
            "read_parse_s": stats["load_s"],
        }

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"{self.w.name}: {message}", file=sys.stderr)

    def passes(self, seconds: int, traced_too: bool) -> tuple[list[Pass], list[Pass]]:
        """Closed loop over the main input until ``seconds`` have passed."""
        plain: list[Pass] = []
        traced: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
            plain.append(self.run_pass(self.main))
            if traced_too:
                traced.append(self.run_pass(self.main, traced=True))
        return plain, traced

    def end_to_end(self, seconds: int) -> tuple[dict[str, float], dict[str, float], dict[str, list[Pass]]]:
        """Metrics with every pass's times scaled to the reference host
        speed, the same metrics unscaled, and the passes."""
        self.run_pass(self.one)  # untimed: compiles bytecode on a fresh checkout
        setup = [self.run_pass(self.one) for _ in range(SETUP_REPS)]
        plain, _ = self.passes(seconds, traced_too=False)
        # a pass that failed may have stopped early, so it times nothing
        timed = [p for p in plain if not p.failed] or plain
        if self.w.running and not all(p.latencies_ns for p in timed):
            raise SystemExit(f"{self.w.name}: a pass wrote no latencies")

        def metrics(scale: Callable[[Pass], float]) -> dict[str, float]:
            wall_s = statistics.median(p.wall_s * scale(p) for p in timed)
            values = {
                "samples_per_s": self.n / wall_s,
                "setup_s": statistics.median(p.process_s * scale(p) for p in setup),
                "peak_rss_mb": statistics.median(p.rss_mb for p in timed),
            }
            if self.w.running:
                for q in (50, 99):
                    values[f"result_latency_p{q}_us"] = (
                        statistics.median(percentile(p.latencies_ns, q) * scale(p) for p in timed) / 1000
                    )
            else:
                values["result_latency_p50_us"] = wall_s * 1e6
            return values

        scaled, raw = metrics(lambda p: p.speed), metrics(lambda p: 1.0)
        return scaled, raw, {"setup": setup, "untraced": plain}

    def per_layer(self, seconds: int) -> tuple[dict[str, float], dict[str, list[Pass]]]:
        plain, traced = self.passes(seconds, traced_too=True)
        complete = [p for p in traced if p.trace is not None and p.reader is not None]
        if not complete:
            raise SystemExit(f"{self.w.name}: no traced pass completed")
        counts = [self.layer_counts(p) for p in complete]
        for p, c in zip(complete, counts):
            p.attempted += 1
            p.failed += not self.counts_hold(c)
        if any(c != counts[0] for c in counts):
            self.problem(f"counts differ between traced passes: {counts}")
            complete[0].failed += 1

        def median_self(name: str) -> float:
            return statistics.median(p.trace["self_s"].get(name, 0.0) for p in complete)

        traced_wall_s = statistics.median(p.wall_s * p.speed for p in complete)
        metrics = {
            **counts[0],
            "cli.import_s": statistics.median(p.trace["import_s"] for p in complete),
            "cli.read_parse_s": statistics.median(p.reader["read_parse_s"] for p in complete),
            "cascade.push_s": median_self("cascade.push"),
            "cascade.finalize_s": median_self("cascade.finalize"),
            "coeffs.closed_s": median_self("coeffs.closed"),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - statistics.median(p.wall_s * p.speed for p in plain),
        }
        return metrics, {"untraced": plain, "traced": traced}

    @staticmethod
    def layer_counts(p: Pass) -> dict[str, int]:
        calls = p.trace["calls"]
        return {
            "cli.lines_read": p.reader["lines_read"],
            "cli.lines_skipped": p.reader["lines_skipped"],
            "cascade.push_calls": calls.get("cascade.push", 0),
            "cascade.finalize_calls": calls.get("cascade.finalize", 0),
            "cascade.register_bits_max": p.trace["register_bits_max"],
            "coeffs.closed_calls": calls.get("coeffs.closed", 0),
            "coeffs.coeff_bits_max": p.trace["coeff_bits_max"],
            "exactmath.binomial_calls": calls.get("exactmath.binomial", 0),
            "costmodel.ops_match_prediction": p.ops_matches,
        }

    def counts_hold(self, c: dict[str, int]) -> bool:
        checks = {
            "cascade.push_calls == N": c["cascade.push_calls"] == self.n,
            "lines_read - lines_skipped == N": c["cli.lines_read"] - c["cli.lines_skipped"] == self.n,
            "lines_read == lines written": c["cli.lines_read"] == self.main.lines,
            "lines_skipped == junk lines written": c["cli.lines_skipped"] == self.main.junk_lines,
        }
        for name, held in checks.items():
            if not held:
                self.problem(f"count check failed: {name} ({c})")
        return all(checks.values())


def environment() -> dict[str, Any]:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            models = (line.split(":", 1)[1].strip() for line in stream if line.startswith("model name"))
            cpu_model = next(models, cpu_model)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy"], capture_output=True, timeout=60, env=child_env()
    )
    sources = hashlib.sha256()
    for path in sorted((SRC / "powsum").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "numpy_importable": numpy.returncode == 0,
    }


def run_workload(
    workload: Workload,
    args: argparse.Namespace,
    spec: dict[str, Any],
    launcher: Launcher,
    predict_ops: Callable[[int, int], dict[str, int]],
) -> dict[str, Any]:
    n = max(1, round(workload.samples * args.scale))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        bench = Bench(workload, n, args.seed, workdir, launcher, predict_ops)
        raw: dict[str, float] = {}
        if args.trace:
            values, passes = bench.per_layer(args.seconds)
        else:
            values, raw, passes = bench.end_to_end(args.seconds)
        inputs = {
            name: {key: getattr(i, key) for key in ("sha256", "samples", "lines", "junk_lines")}
            for name, i in {"main": bench.main, "setup": bench.one}.items()
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not set(units) <= set(values) <= set(units) | set(EXTRA_UNITS):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    attempted = sum(p.attempted for kind in passes.values() for p in kind)
    failed = sum(p.failed for kind in passes.values() for p in kind)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": n,
        "pass_wall_s": {name: [p.wall_s for p in kind] for name, kind in passes.items()},
        "pass_calibration_s": {name: [p.calibration_s for p in kind] for name, kind in passes.items()},
        "calibration_ref_s": CALIBRATION_REF_S,
        "inputs": inputs,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "problems": bench.problems,
        "metrics": {
            name: {"value": value, "unit": {**units, **EXTRA_UNITS}[name]}
            for name, value in {**values, "failed_share": failed / attempted}.items()
        },
        "raw_metrics": raw,
    }
    record_path = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    for name, metric in record["metrics"].items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    correct = failed == 0 and not bench.problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="factor on sample counts")
    args = parser.parse_args(argv)

    if not (SRC / "powsum" / "__init__.py").is_file():
        print("error: src/powsum not found; run from the root of a powsum checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported only now: the checkout's src must be first on the path
    from powsum.costmodel import predict_cascade

    def predict_ops(K: int, N: int) -> dict[str, int]:
        return dataclasses.asdict(predict_cascade(K, N))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Launcher() as launcher:
        results = {
            name: run_workload(WORKLOADS[name], args, spec, launcher, predict_ops) for name in names
        }
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
