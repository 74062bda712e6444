"""The operation-count model: the tally, the counted operand that fills
it, the closed-form predictions, the runtime-exponentiation baseline the
streaming cascade is costed against, and the report table comparing the
two. ``measure_cascade`` lives beside the cascade it drives, in
:mod:`powsum.cascade`, and the table's CSV writer in :mod:`powsum.cli`.

Counting is a property of the operands, not of the algorithm: run the
real code over :class:`Counted` values and the tally records exactly the
operations that code performed. The conventions:

* counted + counted is an addition; an addition into a plain ``0`` is
  free, so the first sample landing in zeroed registers costs nothing,
  and a cascade over N samples costs exactly (K+1)N - 1 additions
  including the K additions of the final combination;
* counted * counted is a general multiplication; plain int * counted is
  a constant multiplication (one fixed, precomputable operand);
* coefficient precomputation is not counted -- the coefficients depend
  only on (K, N) and are evaluated once, outside the streaming loop;
* the exponentiation baseline pays, per sample, the optimal-chain cost
  of n^K plus one general multiplication by v[n]. Complexity figures for
  such baselines are quoted both with and without the multiplication by
  v[n], so reports carry both the chain-only and the inclusive totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable, Sequence

from .coeffs import _check_domain, _check_power

# Exhaustive chain search is exponential in chain length; this keeps
# worst-case searches at desk scale (well under a second).
MAX_CHAIN_TARGET = 64


@dataclass
class OpCount:
    """Tally of general multiplications, constant multiplications, additions.

    General multiplications take two arbitrary operands; constant
    multiplications have one fixed, precomputable operand (realizable with
    shifts and adds in hardware). :class:`Counted` operands mutate the
    fields in place.
    """

    general_mults: int = 0
    constant_mults: int = 0
    additions: int = 0

    def __post_init__(self) -> None:
        if min(self.general_mults, self.constant_mults, self.additions) < 0:
            raise ValueError("operation counts cannot be negative")


class Counted:
    """An integer that records the arithmetic done on it in ``ops``.

    Results are new ``Counted`` values sharing the same tally, so every
    operation downstream of a counted input is counted too.
    """

    __slots__ = ("value", "ops")

    def __init__(self, value: int, ops: OpCount) -> None:
        self.value = value
        self.ops = ops

    def __add__(self, other: "Counted | int") -> "Counted":
        if isinstance(other, Counted):
            other = other.value
        elif other == 0:
            return self
        self.ops.additions += 1
        return Counted(self.value + other, self.ops)

    __radd__ = __add__

    def __mul__(self, other: "Counted | int") -> "Counted":
        if isinstance(other, Counted):
            self.ops.general_mults += 1
            return Counted(self.value * other.value, self.ops)
        self.ops.constant_mults += 1
        return Counted(other * self.value, self.ops)

    __rmul__ = __mul__

    def __int__(self) -> int:
        return self.value


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
    top = values[-1]
    if top == target:
        return ()
    if remaining == 0:
        return None
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


def baseline_sum(v: Sequence[int], K: int) -> tuple[int, OpCount]:
    """The same value as :func:`~powsum.oracle.direct_sum`, costed as a
    streaming baseline that raises every index to the K-th power at
    runtime.

    Per sample: len(optimal_chain(K)) chain multiplications plus one
    general multiplication by v[n] when K >= 1; no multiplications at all
    when K == 0. Every sample pays full price, including n = 0 -- a real
    streaming implementation would not special-case it. Accumulation
    costs N - 1 additions.
    """
    _check_power(K)
    ops = OpCount()
    steps = optimal_chain(K) if K >= 1 else None
    total: Counted | int = 0
    for n, sample in enumerate(v):
        term = Counted(sample, ops)
        if steps is not None:
            powers = [Counted(n, ops)]
            for a, b in steps:
                powers.append(powers[a] * powers[b])
            term = powers[-1] * term
        total += term
    return int(total), ops


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

