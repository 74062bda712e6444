"""Exact integer combinatorics used throughout the package.

Everything here is computed with Python's arbitrary-precision integers:
no overflow, no rounding, ever. The convention ``0**0 == 1`` (which
Python's ``**`` already follows) is relied on so that the boundary terms
of the alternating sums come out right.

All functions are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from typing import Sequence


# Binomial coefficient C(n, k), which is 0 for k > n: that zero is why
# boundary terms of the accumulator weights and of the Stirling sum vanish.
# The package calls math.comb; bench/traced.py and the acceptance suite
# import this name.
binomial = math.comb


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k).

    Computed by the explicit alternating sum

        S(n, k) = (1/k!) * sum_{i=0}^{k} (-1)^i C(k, i) (k-i)^n

    rather than the usual two-term recurrence, so the recurrence stays
    available as an independent oracle in the tests. Performance is a
    non-issue at the powers this package targets.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires non-negative arguments")
    total = 0
    for i in range(k + 1):
        term = math.comb(k, i) * (k - i) ** n
        total = total - term if i % 2 else total + term
    quotient, remainder = divmod(total, math.factorial(k))
    # the alternating sum is always an exact multiple of k!
    assert remainder == 0
    return quotient


def signed_differences(values: Sequence[int]) -> list[int]:
    """[(-1)^i Delta^i values[0] for i in range(len(values))], where Delta
    is the forward difference.

    Entry i equals sum_{j=0}^{i} (-1)^j C(i, j) values[j], computed from a
    difference table without binomial coefficients: each row holds the
    negated forward differences of the row above, so row i starts with
    (-1)^i Delta^i values[0]. That costs len(values)(len(values)-1)/2
    subtractions.
    """
    leading, row = [], values
    while row:
        leading.append(row[0])
        row = [a - b for a, b in zip(row, row[1:])]
    return leading


def stirling_power_sum(m: int, k: int) -> int:
    """(-1)^(k-1) (k-1)! S(m, k-1): the closed form of the alternating power
    sum sum_{j=0}^{k-1} (-1)^j C(k-1, j) j^m.

    That sum, the route by finite differences, is the test oracle
    ``alternating_power_sum`` in ``tests/helpers.py``. The test suite pins
    the two routes equal, which is what justifies rewriting Stirling-form
    coefficients as alternating sums.
    """
    if m < 0 or k < 1:
        raise ValueError("stirling_power_sum requires m >= 0 and k >= 1")
    sign = -1 if (k - 1) % 2 else 1
    return sign * math.factorial(k - 1) * stirling2(m, k - 1)
