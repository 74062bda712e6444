"""Brute-force ground truth for powered sums, plus the runtime-
exponentiation baseline the streaming method is costed against.

``direct_sum`` is deliberately the dumbest possible implementation --
naive repeated multiplication, nothing shared, nothing clever -- because
every equivalence test in the package treats it as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Sequence

from .ops import Counted, OpCount

# Exhaustive chain search is exponential in chain length; this keeps
# worst-case searches at desk scale (well under a second).
MAX_CHAIN_TARGET = 64


def direct_sum(v: Sequence[int], K: int) -> int:
    """Ground truth: sum(n**K * v[n]) by naive repeated multiplication.

    The empty product convention 0**0 == 1 means the n = 0 term
    contributes v[0] when K == 0. An empty sequence sums to 0.
    """
    if K < 0:
        raise ValueError("power K must be non-negative")
    total = 0
    for n, sample in enumerate(v):
        power = 1
        for _ in range(K):
            power *= n
        total += power * sample
    return total


@dataclass(frozen=True)
class AdditionChain:
    """An addition chain for a positive exponent.

    ``steps[i]`` is a pair (a, b) of indices into the chain built so far
    (position 0 holds 1), and appends chain[a] + chain[b]. The number of
    steps is the number of multiplications needed to raise a value to the
    target exponent.
    """

    target: int
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.exponents()[-1] != self.target:
            raise ValueError("chain does not end at the target exponent")

    def exponents(self) -> list[int]:
        """Replay the steps into the exponent sequence, starting from 1."""
        values = [1]
        for i, (a, b) in enumerate(self.steps):
            if not (0 <= a <= i and 0 <= b <= i):
                raise ValueError("step references a chain position not built yet")
            values.append(values[a] + values[b])
        return values

    def __len__(self) -> int:
        return len(self.steps)


def _search_chain(
    values: list[int], steps: list[tuple[int, int]], target: int, remaining: int
) -> list[tuple[int, int]] | None:
    # Depth-first over strictly increasing chains (any chain can be
    # reordered into an increasing one of the same length, so minimality
    # is unaffected). Pairs are tried in lexicographic order and the
    # first hit is returned, which makes the result deterministic.
    if remaining == 0:
        return None
    top = values[-1]
    n = len(values)
    for a in range(n):
        va = values[a]
        for b in range(a, n):
            c = va + values[b]
            if c <= top or c > target:
                continue
            if c << (remaining - 1) < target:
                continue  # even doubling every step cannot reach the target
            steps.append((a, b))
            if c == target:
                found = list(steps)
            else:
                values.append(c)
                found = _search_chain(values, steps, target, remaining - 1)
                values.pop()
            steps.pop()
            if found is not None:
                return found
    return None


@lru_cache(maxsize=None)
def optimal_chain(K: int) -> AdditionChain:
    """A minimal-length addition chain for K, by exhaustive search.

    Iterative deepening from the log2 lower bound guarantees minimality;
    within the minimal length, the lexicographically smallest step
    sequence (over increasing chains, pairs ordered (a, b) with a <= b)
    is returned.
    """
    if not 1 <= K <= MAX_CHAIN_TARGET:
        raise ValueError(f"chain target must be in [1, {MAX_CHAIN_TARGET}]")
    if K == 1:
        return AdditionChain(target=1, steps=())
    lower = (K - 1).bit_length()  # ceil(log2 K) for K >= 2
    for length in count(lower):
        steps = _search_chain([1], [], K, length)
        if steps is not None:
            return AdditionChain(target=K, steps=tuple(steps))
    raise AssertionError("unreachable: doubling always reaches the target")


def chain_power(n: int, chain: AdditionChain) -> int:
    """n ** chain.target using exactly len(chain) multiplications."""
    powers = [n]
    for a, b in chain.steps:
        powers.append(powers[a] * powers[b])
    return powers[-1]


def baseline_sum(v: Sequence[int], K: int) -> tuple[int, OpCount]:
    """The same value as :func:`direct_sum`, costed as a streaming baseline
    that raises every index to the K-th power at runtime.

    Per sample: len(optimal_chain(K)) chain multiplications plus one
    general multiplication by v[n] when K >= 1; no multiplications at all
    when K == 0. Every sample pays full price, including n = 0 -- a real
    streaming implementation would not special-case it. Accumulation
    costs N - 1 additions.
    """
    if K < 0:
        raise ValueError("power K must be non-negative")
    ops = OpCount()
    chain = optimal_chain(K) if K >= 1 else None
    total: Counted | int = 0
    for n, sample in enumerate(v):
        term = Counted(sample, ops)
        if chain is not None:
            term = chain_power(Counted(n, ops), chain) * term
        total += term
    return int(total), ops
