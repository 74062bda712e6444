"""Brute-force ground truth for powered sums.

``direct_sum`` is deliberately the dumbest possible implementation --
naive repeated multiplication, nothing shared, nothing clever -- because
every equivalence test in the package treats it as the oracle. It imports
nothing from the package, so no code it checks can change it.
"""

from __future__ import annotations

from collections.abc import Sequence


def direct_sum(v: Sequence[int], K: int) -> int:
    """Ground truth: sum(n**K * v[n]) by naive repeated multiplication.

    The empty product convention 0**0 == 1 means the n = 0 term
    contributes v[0] when K == 0. An empty sequence sums to 0. A K that
    is not exactly an int, a bool or a float for instance, raises
    ``TypeError``: True would otherwise sum the K = 1 moment.
    """
    if type(K) is not int:
        raise TypeError(f"power K must be an int, got {K!r}")
    if K < 0:
        raise ValueError("power K must be non-negative")
    total = 0
    for n, sample in enumerate(v):
        power = 1
        for _ in range(K):
            power *= n
        total += power * sample
    return total
