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


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for non-negative arguments.

    Returns 0 when k > n; that zero-extension is what makes boundary
    terms of the accumulator weights and the Stirling sum vanish
    silently instead of erroring.
    """
    if n < 0 or k < 0:
        raise ValueError("binomial requires non-negative arguments")
    return math.comb(n, k)


def rising_factorial(x: int, j: int) -> int:
    """Rising factorial x(x+1)...(x+j-1); the empty product (j == 0) is 1."""
    if j < 0:
        raise ValueError("rising_factorial requires j >= 0")
    product = 1
    for i in range(j):
        product *= x + i
    return product


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
        term = binomial(k, i) * (k - i) ** n
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


def alternating_power_sum(m: int, k: int) -> int:
    """sum_{j=0}^{k-1} (-1)^j C(k-1, j) j^m, with 0^0 == 1.

    Up to sign this is the (k-1)-th finite difference of x^m at x = 0.
    """
    if m < 0 or k < 1:
        raise ValueError("alternating_power_sum requires m >= 0 and k >= 1")
    return signed_differences([j**m for j in range(k)])[-1]


def stirling_power_sum(m: int, k: int) -> int:
    """(-1)^(k-1) (k-1)! S(m, k-1): the closed form of alternating_power_sum.

    The two functions compute the same value along entirely different
    routes; their equality is pinned down by the test suite and is what
    justifies rewriting Stirling-form coefficients as alternating sums.
    """
    if m < 0 or k < 1:
        raise ValueError("stirling_power_sum requires m >= 0 and k >= 1")
    sign = -1 if (k - 1) % 2 else 1
    return sign * math.factorial(k - 1) * stirling2(m, k - 1)
