"""The operation-count model: the tally, the closed-form predictions for
the streaming cascade and for the runtime-exponentiation baseline it is
costed against, the minimal addition chain that baseline follows, and the
report table comparing the two. The table's CSV writer lives in
:mod:`powsum.cli`.

The model predicts; it runs none of the code it costs. The tests
measure: ``tests/counting.py`` runs the real cascade and the baseline
over counting operands, and states the counting conventions, and the
tests check its tallies against these predictions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .coeffs import _check_domain, _check_power

# Exhaustive chain search is exponential in chain length; this keeps
# worst-case searches at desk scale (well under a second).
MAX_CHAIN_TARGET = 64


@dataclass
class OpCount:
    """Tally of general multiplications, constant multiplications, additions.

    General multiplications take two arbitrary operands; constant
    multiplications have one fixed, precomputable operand (realizable with
    shifts and adds in hardware). The predictions return a new tally, and
    nothing in the package changes one; the test suite's counted operands
    fill theirs in place.
    """

    general_mults: int = 0
    constant_mults: int = 0
    additions: int = 0

    def __post_init__(self) -> None:
        if min(self.general_mults, self.constant_mults, self.additions) < 0:
            raise ValueError("operation counts cannot be negative")


def predict_cascade(K: int, N: int) -> OpCount:
    """Cost of the streaming cascade: K+1 constant multiplications (one per
    register, independent of N) and (K+1)N - 1 additions."""
    _check_domain(K, N)
    return OpCount(general_mults=0, constant_mults=K + 1, additions=(K + 1) * N - 1)


def _search_chain(
    values: tuple[int, ...], target: int, remaining: int
) -> tuple[tuple[int, int], ...] | None:
    # The steps that extend the chain ``values`` to ``target`` in at most
    # ``remaining`` more, or None. Depth-first over strictly increasing
    # chains (any chain can be reordered into an increasing one of the
    # same length, so minimality is unaffected). Pairs are tried in
    # lexicographic order and the first hit is returned, which makes the
    # result deterministic.
    # Never called with remaining 0 short of the target: at remaining 1 the
    # doubling prune recurses only for c == target, and K = 1 starts at 0.
    top = values[-1]
    if top == target:
        return ()
    for a, va in enumerate(values):
        for b in range(a, len(values)):
            c = va + values[b]
            if c <= top or c > target:
                continue
            if c << (remaining - 1) < target:
                continue  # even doubling every step cannot reach the target
            rest = _search_chain(values + (c,), target, remaining - 1)
            if rest is not None:
                return ((a, b),) + rest
    return None


@lru_cache(maxsize=None)
def optimal_chain(K: int) -> tuple[tuple[int, int], ...]:
    """A minimal-length addition chain for K, by exhaustive search.

    The chain is a tuple of steps. Position 0 holds the exponent 1, and
    step i, a pair (a, b) of positions 0 to i, appends the sum of the
    exponents at a and b; the last one appended is K, and K = 1 takes no
    step, (). The number of steps is the number of multiplications needed
    to raise a value to the K-th power: ``optimal_chain(7) == ((0, 0),
    (0, 1), (0, 2), (2, 3))`` builds 1, 2, 3, 4, 7 in four.

    Iterative deepening from the log2 lower bound guarantees minimality;
    within the minimal length, the lexicographically smallest step
    sequence (over increasing chains, pairs ordered (a, b) with a <= b)
    is returned.
    """
    _check_power(K)
    if not 1 <= K <= MAX_CHAIN_TARGET:
        raise ValueError(f"chain target must be in [1, {MAX_CHAIN_TARGET}]")
    for length in count((K - 1).bit_length()):  # ceil(log2 K)
        steps = _search_chain((1,), K, length)
        if steps is not None:
            return steps
    raise AssertionError("unreachable: doubling always reaches the target")


def predict_baseline(K: int, N: int) -> OpCount:
    """Cost of computing every n^K at runtime by optimal addition chain.

    General multiplications: N * (chain_length(K) + 1) for K >= 1 -- the
    chain steps plus the multiplication by v[n] -- and none at all for
    K = 0, where the sum needs no multiplications. Additions: N - 1.
    """
    _check_domain(K, N)
    general = N * (len(optimal_chain(K)) + 1) if K >= 1 else 0
    return OpCount(general_mults=general, constant_mults=0, additions=N - 1)


@dataclass(frozen=True)
class ComplexityReport:
    """Cost comparison for one (K, N) point."""

    K: int
    N: int
    cascade: OpCount
    baseline: OpCount
    baseline_chain_only_mults: int  # N * chain_length(K), no products with v[n]; 0 at K = 0


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
            baseline_chain_only_mults=N * len(optimal_chain(K)) if K >= 1 else 0,
        )
        for K in Ks
        for N in Ns
    ]

