"""Operation accounting: closed-form cost predictions, measurements of
real runs over counted operands, and the report table comparing the
streaming cascade against runtime exponentiation.

``predict_cascade`` is defined beside :class:`~powsum.cascade.Cascade`,
which reports it per moment, and is re-exported here. Counting
conventions (the rules of :class:`~powsum.ops.Counted`):

* an addition into a still-zeroed register at the very first sample is
  free, so a cascade over N samples costs exactly (K+1)N - 1 additions
  including the K additions of the final combination;
* coefficient precomputation is not counted -- the coefficients depend
  only on (K, N) and are evaluated once, outside the streaming loop;
* the exponentiation baseline pays, per sample, the optimal-chain cost
  of n^K plus one general multiplication by v[n]. Complexity figures for
  such baselines are quoted both with and without the multiplication by
  v[n], so reports carry both the chain-only and the inclusive totals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .cascade import Cascade, predict_cascade
from .coeffs import _check_domain, coefficients_closed
from .oracle import baseline_sum, optimal_chain
from .ops import Counted, OpCount


def predict_baseline(K: int, N: int) -> OpCount:
    """Cost of computing every n^K at runtime by optimal addition chain.

    General multiplications: N * (chain_length(K) + 1) for K >= 1 -- the
    chain steps plus the multiplication by v[n] -- and none at all for
    K = 0, where the sum needs no multiplications. Additions: N - 1.
    """
    _check_domain(K, N)
    general = N * (len(optimal_chain(K)) + 1) if K >= 1 else 0
    return OpCount(general_mults=general, constant_mults=0, additions=N - 1)


def predict_baseline_chain_mults(K: int, N: int) -> int:
    """Chain-only baseline multiplication count N * chain_length(K),
    excluding the per-sample multiplication by v[n]."""
    _check_domain(K, N)
    return N * len(optimal_chain(K)) if K >= 1 else 0


def measure_cascade(v: Sequence[int], K: int) -> OpCount:
    """Run the real cascade over ``v`` as counted operands and return the
    operations it performed (pushes plus one final combination). Empty
    input measures as all zeros."""
    ops = OpCount()
    cascade = Cascade(K)
    for sample in v:
        cascade.push(Counted(sample, ops))
    if cascade.samples_seen:
        cascade.finalize(coefficients_closed(K, cascade.samples_seen))
    return ops


def measure_baseline(v: Sequence[int], K: int) -> OpCount:
    """Run the exponentiation baseline over ``v`` and return the
    operations it performed."""
    _, ops = baseline_sum(v, K)
    return ops


@dataclass(frozen=True)
class ComplexityReport:
    """Cost comparison for one (K, N) point."""

    K: int
    N: int
    cascade: OpCount
    baseline: OpCount
    baseline_chain_only_mults: int


def complexity_table(Ks: Iterable[int], Ns: Iterable[int]) -> list[ComplexityReport]:
    """Cross-product of predictions, one report per (K, N), suitable for
    plotting cost-versus-length curves. Axis scaling and any weighting of
    additions against multiplications are left to the consumer."""
    return [
        ComplexityReport(
            K=K,
            N=N,
            cascade=predict_cascade(K, N),
            baseline=predict_baseline(K, N),
            baseline_chain_only_mults=predict_baseline_chain_mults(K, N),
        )
        for K in Ks
        for N in Ns
    ]


CSV_HEADER = ("K", "N", "method", "general_mults", "constant_mults", "additions")


def write_csv(reports: Iterable[ComplexityReport], stream: IO[str]) -> None:
    """Write reports as per-method rows under CSV_HEADER.

    Each report gives three rows: the cascade, the baseline with the
    inclusive multiplication count, and the baseline counted chain-only.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow((r.K, r.N, "cascade", r.cascade.general_mults, r.cascade.constant_mults, r.cascade.additions))
        writer.writerow((r.K, r.N, "baseline", r.baseline.general_mults, r.baseline.constant_mults, r.baseline.additions))
        writer.writerow((r.K, r.N, "baseline_chain_only", r.baseline_chain_only_mults, 0, r.baseline.additions))
