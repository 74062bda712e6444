"""Randomized checks of the whole pipeline, behind the ``selfcheck``
CLI command.

Each check tests one thing that ``moment`` relies on: the result of
samples written as text and streamed through ``moment``'s reader,
``powsum.cascade.push_stream``, and so through its chunk kernel, from
zero and from non-zero registers, against the brute-force sum, and at
K >= 12 every register against the same samples pushed one at a time;
the coefficients against the identity that defines them; and each
register, pushed one sample at a time, against its binomial weight, so
both ways of advancing the registers are checked. A check is a generator
that yields ``None`` for each passing case and a counterexample for a
failing one; the run stops at the first counterexample. Given the same
seed, the run is fully deterministic.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

from .cascade import _CHUNK, _LANE_MIN_K, Cascade, push_stream
from .coeffs import coefficients_closed
from .oracle import direct_sum

SAMPLE_MAGNITUDE = 10**6
TRIALS = 60  # cases per randomized check

Cases = Iterator[dict[str, object] | None]


def _cascade_matches_direct_sum(rng: random.Random) -> Cases:
    for trial in range(TRIALS):
        # Every other stream goes into a cascade of K = 12..40, whose full
        # chunks are scanned in packed lanes, and is read at a power P <= 8,
        # like the others at P = K, so coefficients for larger powers stay
        # the identity check's to test. P reads only registers 1..P+1, so
        # every register must also equal those of per-sample pushes.
        lanes = trial % 2 == 1
        K = rng.randint(_LANE_MIN_K, 40) if lanes else rng.randint(0, 8)
        # Streams of up to half a chunk, every other pair of them a chunk
        # longer, so every seed runs the drain the reader starts on a full
        # queue, which carries nearly every sample of a moment stream, as
        # well as the drain of the partial chunk left when the reader ends.
        # All but two streams in eight push their first one to three
        # samples one at a time before the reader, so that its drains, full
        # chunks included, carry non-zero registers; the two start the
        # reader from zero, as moment does.
        N = rng.randint(1, _CHUNK // 2) + (_CHUNK if trial % 4 < 2 else 0)
        head = 0 if trial % 8 < 2 else rng.randint(1, 3)
        v = [rng.randint(-SAMPLE_MAGNITUDE, SAMPLE_MAGNITUDE) for _ in range(N)]
        P = rng.randint(0, 8) if lanes else K
        case = {"K": K, "P": P, "N": N, "head": head, "v": v}
        cascade = Cascade(K)
        for sample in v[:head]:
            cascade.push(sample)
        push_stream(cascade, map("{}\n".format, v[head:]), int)
        if cascade.samples_seen != N:
            yield {**case, "samples_seen": cascade.samples_seen}
            continue
        if lanes:
            pushed = Cascade(K)
            for sample in v:
                pushed.push(sample)
            pairs = zip(cascade.registers, pushed.registers)
            differ = [k for k, (x, y) in enumerate(pairs, 1) if x != y]
            if differ:
                yield {**case, "registers_differ": differ}
                continue
        streamed = cascade.finalize(coefficients_closed(P, N))
        expected = direct_sum(v, P)
        if streamed == expected:
            yield None
        else:
            yield {**case, "streamed": str(streamed), "expected": str(expected)}


def _coefficients_reproduce_powers(rng: random.Random) -> Cases:
    """After N samples, the sample at index n has weight C(N-n+k-2, k-1)
    in register k (see ``_impulse_response``), so the coefficients turn
    the registers into sum(n**K * v[n]) exactly when
    sum_k c_k C(N-n+k-2, k-1) == n**K for every n < N. That is what this
    check asserts. For N < K+1 the coefficients are not unique, and any
    set that passes is one that ``moment`` may use."""
    for _ in range(TRIALS):
        K = rng.randint(0, 10)
        N = rng.randint(1, 50)
        coeffs = coefficients_closed(K, N).coeffs
        for n in range(N):
            weighted = (c * math.comb(N - n + k - 2, k - 1) for k, c in enumerate(coeffs, 1))
            if sum(weighted) != n**K:
                yield {"K": K, "N": N, "n": n, "coeffs": [str(c) for c in coeffs]}
                break
        else:
            yield None


def _impulse_response() -> Cases:
    for K in range(7):
        for m in range(6):
            for N in range(m + 1, m + 7):
                impulse = [1 if n == m else 0 for n in range(N)]
                cascade = Cascade(K)
                for sample in impulse:
                    cascade.push(sample)
                expected = [math.comb(N - 1 - m + k - 1, k - 1) for k in range(1, K + 2)]
                if cascade.registers == expected:
                    yield None
                else:
                    yield {"K": K, "N": N, "v": impulse}


def _report(name: str, cases: Cases) -> dict[str, object]:
    """Run a check up to its first counterexample; ``cases`` in the report
    counts the cases actually run."""
    run = 0
    for run, counterexample in enumerate(cases, start=1):
        if counterexample is not None:
            return {"name": name, "passed": False, "cases": run, "counterexample": counterexample}
    return {"name": name, "passed": True, "cases": run}


def run_selfcheck(seed: int = 0) -> dict[str, object]:
    """Run every consistency check and return a JSON-ready report.

    The seed is at least 0: ``random.Random`` seeds -5 as it does 5, so a
    negative seed would rerun another seed's cases under its own name.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    # The randomized checks share one generator and run in this order, so
    # a seed fixes every case.
    checks = {
        "cascade_matches_direct_sum": _cascade_matches_direct_sum(rng),
        "coefficients_reproduce_powers": _coefficients_reproduce_powers(rng),
        "impulse_response": _impulse_response(),
    }
    reports = [_report(name, cases) for name, cases in checks.items()]
    return {
        "seed": seed,
        "all_passed": all(report["passed"] for report in reports),
        "checks": reports,
    }
