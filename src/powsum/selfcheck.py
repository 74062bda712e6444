"""Randomized cross-checks of the whole pipeline, behind the ``selfcheck``
CLI command.

Every check compares two independent routes to the same value. A check is
a generator that yields ``None`` for each passing case and a
counterexample for a failing one; the run stops at the first
counterexample. Given the same seed, the run is fully deterministic.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterator

from .cascade import Cascade
from .coeffs import coefficients_closed, coefficients_stirling
from .oracle import direct_sum

SAMPLE_MAGNITUDE = 10**6
TRIALS = 60  # cases per randomized check

Cases = Iterator[dict[str, Any] | None]


def _cascade_matches_direct_sum(rng: random.Random) -> Cases:
    for _ in range(TRIALS):
        K = rng.randint(0, 8)
        N = rng.randint(1, 48)
        v = [rng.randint(-SAMPLE_MAGNITUDE, SAMPLE_MAGNITUDE) for _ in range(N)]
        cascade = Cascade(K)
        for sample in v:
            cascade.push(sample)
        streamed = cascade.finalize(coefficients_closed(K, N))
        expected = direct_sum(v, K)
        if streamed == expected:
            yield None
        else:
            yield {"K": K, "N": N, "v": v, "streamed": str(streamed), "expected": str(expected)}


def _coefficient_paths_agree(rng: random.Random) -> Cases:
    for _ in range(TRIALS):
        K = rng.randint(0, 10)
        N = rng.randint(1, 50)
        closed = coefficients_closed(K, N).coeffs
        stirling = coefficients_stirling(K, N).coeffs
        if closed == stirling:
            yield None
        else:
            yield {
                "K": K,
                "N": N,
                "closed": [str(c) for c in closed],
                "stirling": [str(c) for c in stirling],
            }


def _impulse_response() -> Cases:
    for K in range(7):
        for m in range(6):
            for N in range(m + 1, m + 7):
                impulse = [1 if n == m else 0 for n in range(N)]
                cascade = Cascade(K)
                for sample in impulse:
                    cascade.push(sample)
                expected = [math.comb(N - 1 - m + k - 1, k - 1) for k in range(1, K + 2)]
                if cascade.snapshot() == expected:
                    yield None
                else:
                    yield {"K": K, "N": N, "v": impulse}


def _report(name: str, cases: Cases) -> dict[str, Any]:
    """Run a check up to its first counterexample; ``cases`` in the report
    counts the cases actually run."""
    run = 0
    for run, counterexample in enumerate(cases, start=1):
        if counterexample is not None:
            return {"name": name, "passed": False, "cases": run, "counterexample": counterexample}
    return {"name": name, "passed": True, "cases": run}


def run_selfcheck(seed: int = 0) -> dict[str, Any]:
    """Run every consistency check and return a JSON-ready report."""
    rng = random.Random(seed)
    # The randomized checks share one generator and run in this order, so
    # a seed fixes every case.
    checks = {
        "cascade_matches_direct_sum": _cascade_matches_direct_sum(rng),
        "coefficient_paths_agree": _coefficient_paths_agree(rng),
        "impulse_response": _impulse_response(),
    }
    reports = [_report(name, cases) for name, cases in checks.items()]
    return {
        "seed": seed,
        "all_passed": all(report["passed"] for report in reports),
        "checks": reports,
    }
