"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All numeric checks are exact integer equality; the only tolerances here
are the per-criterion runtime budgets.
"""

import json
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager

from powsum.cascade import Cascade, measure_cascade
from powsum.cli import main as cli_main
from powsum.cli import push_stream
from powsum.coeffs import coefficients_closed
from powsum.costmodel import (
    baseline_sum,
    complexity_table,
    optimal_chain,
    predict_baseline,
    predict_cascade,
)
from powsum.exactmath import binomial
from powsum.oracle import direct_sum
from tests.helpers import (
    TABLE_GOLDEN,
    alternating_power_sum,
    coefficients_stirling,
    rising_factorial,
    solve_exact,
    stirling2,
    stirling_power_sum,
)

SAMPLE_MAGNITUDE = 10**6


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number} PASS  {description} ({elapsed:.2f}s)")


def test_criterion_1_golden_coefficient_table(capsys):
    with criterion(1, "symbolic coefficient table matches the golden rows byte-for-byte", 1.0):
        assert cli_main(["table", "--kmax", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells_by_power = {}
        for line in lines[1:]:
            cells = line.split()
            cells_by_power[int(cells[0])] = cells[1:]
        checked = 0
        for K, golden_row in TABLE_GOLDEN.items():
            assert cells_by_power[K] == golden_row, K
            checked += len(golden_row)
        assert checked == 21


def test_criterion_2_oracle_equivalence():
    with criterion(2, "cascade finalize equals brute-force sum on random streams", 60.0):
        runs = 0
        for K in range(9):
            for N in range(1, 65):
                coeffs = coefficients_closed(K, N)
                rng = random.Random(20_000 + 97 * K + N)
                randint = rng.randint
                for _ in range(200):
                    v = [randint(-SAMPLE_MAGNITUDE, SAMPLE_MAGNITUDE) for _ in range(N)]
                    cascade = Cascade(K)
                    push = cascade.push
                    for sample in v:
                        push(sample)
                    assert cascade.finalize(coeffs) == direct_sum(v, K), (K, N, v)
                    runs += 1
        assert runs == 9 * 64 * 200


def test_criterion_3_coefficient_cross_path():
    with criterion(3, "closed-form and Stirling-form coefficients agree", 5.0):
        for K in range(11):
            for N in range(1, 51):
                assert (
                    coefficients_closed(K, N).coeffs == coefficients_stirling(K, N).coeffs
                ), (K, N)


def test_criterion_4_identity_suite():
    with criterion(4, "monomial expansion, impulse response, grid identity, power-sum identity", 10.0):
        # monomials as signed rising factorials
        for m in range(13):
            for x in range(13):
                expansion = sum(
                    stirling2(m, j) * (-1) ** (m - j) * rising_factorial(x, j)
                    for j in range(m + 1)
                )
                assert expansion == x**m, (m, x)
        # impulse response of every register via the live cascade
        for K in range(7):
            for m in range(6):
                for N in range(m + 1, m + 8):
                    cascade = Cascade(K)
                    for n in range(N):
                        cascade.push(1 if n == m else 0)
                    expected = [
                        binomial((N - 1 - m) + k - 1, k - 1) for k in range(1, K + 2)
                    ]
                    assert cascade.registers == expected, (K, m, N)
        # pointwise identity n^K == sum_k c_k C(N-n+k-2, k-1) on the grid
        for K in range(9):
            for N in range(1, 41):
                cs = coefficients_closed(K, N).coeffs
                for n in range(N):
                    rhs = sum(
                        cs[k - 1] * binomial(N - n + k - 2, k - 1) for k in range(1, K + 2)
                    )
                    assert rhs == n**K, (K, N, n)
        # alternating binomial power sum equals its Stirling closed form
        for m in range(13):
            for k in range(1, 14):
                assert alternating_power_sum(m, k) == stirling_power_sum(m, k), (m, k)


def test_criterion_5_complexity_reproduction():
    with criterion(5, "measured operation counts equal predictions; multiplicative separation", 10.0):
        rng = random.Random(5150)
        for K in range(9):
            for N in range(1, 201):
                v = [rng.randint(-999, 999) for _ in range(N)]
                assert measure_cascade(v, K) == predict_cascade(K, N), (K, N)
                assert baseline_sum(v, K)[1] == predict_baseline(K, N), (K, N)
        # chain-only baseline multiplications, anchored at the length-4 chain for n^7
        assert len(optimal_chain(7)) == 4
        for K in range(1, 9):
            chain_len = len(optimal_chain(K))
            for N in (1, 10, 1000):
                assert complexity_table([K], [N])[0].baseline_chain_only_mults == chain_len * N
        # the headline separation: 8 constant mults vs 4000 chain mults at K=7, N=1000
        cascade_mults = predict_cascade(7, 1000).constant_mults
        chain_mults = complexity_table([7], [1000])[0].baseline_chain_only_mults
        assert cascade_mults == 8
        assert chain_mults == 4000
        assert chain_mults == 500 * cascade_mults


def test_criterion_6_uniqueness_threshold():
    with criterion(6, "grid system nonsingular at N = K+1; finalize valid below threshold", 5.0):
        for K in range(7):
            N = K + 1
            matrix = [
                [binomial(N - n + k - 2, k - 1) for k in range(1, K + 2)] for n in range(N)
            ]
            rhs = [n**K for n in range(N)]
            solution = solve_exact(matrix, rhs)  # raises ValueError if singular
            assert solution == list(coefficients_closed(K, N).coeffs), K
        rng = random.Random(606)
        for K in range(1, 7):
            for N in range(1, K + 1):
                for _ in range(20):
                    v = [rng.randint(-SAMPLE_MAGNITUDE, SAMPLE_MAGNITUDE) for _ in range(N)]
                    cascade = Cascade(K)
                    for sample in v:
                        cascade.push(sample)
                    assert cascade.finalize(coefficients_closed(K, N)) == direct_sum(v, K)


def _traced_peak_bytes(sample_count):
    """Peak traced allocation while streaming sample_count generated lines."""

    def lines():
        rng = random.Random(7)
        for _ in range(sample_count):
            yield f"{rng.randint(-999, 999)}\n"

    cascade = Cascade(2)
    tracemalloc.start()
    push_stream(cascade, lines(), int)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, cascade


def test_criterion_7_streaming_memory():
    with criterion(7, "million-sample piped stream: bounded state, exact result", 30.0):
        # memory: peak allocation while streaming must not grow with the
        # stream (registers plus constant parsing overhead only)
        small_peak, _ = _traced_peak_bytes(50_000)
        large_peak, large_cascade = _traced_peak_bytes(400_000)
        assert large_cascade.samples_seen == 400_000
        assert large_peak < 256 * 1024
        assert large_peak < small_peak + 64 * 1024

        # end to end: a million samples through the real CLI over an
        # unseekable pipe, checked against an incrementally built oracle
        n_samples = 1_000_000
        rng = random.Random(424242)
        chunks = []
        expected = 0
        for n in range(n_samples):
            sample = rng.randint(-1000, 1000)
            expected += n * n * sample
            chunks.append(b"%d\n" % sample)
        payload = b"".join(chunks)
        process = subprocess.run(
            [sys.executable, "-m", "powsum", "moment", "-K", "2"],
            input=payload,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        assert process.returncode == 0, process.stderr.decode()
        report = json.loads(process.stdout)
        assert report["N"] == n_samples
        assert int(report["results"][0]["S"]) == expected
        assert report["results"][0]["ops"]["additions"] == 3 * n_samples - 1
