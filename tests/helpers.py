"""Independent oracles shared across the test suite.

Nothing in here may call back into the code paths it is used to check:
the linear solver works over Fractions, the Stirling oracle uses the
two-term recurrence, and naive_power is a bare multiplication loop.

rising_factorial and alternating_power_sum are the other sides of two
textbook identities that the package's Stirling numbers must satisfy:
x^m as signed rising factorials, and the alternating power sum as
stirling_power_sum's closed form. alternating_power_sum takes its finite
differences from powsum.exactmath.signed_differences, which
TestSignedDifferences checks against its definition, and not from the
Stirling numbers it is compared with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from powsum.exactmath import signed_differences

# Canonical coefficient-polynomial strings for powers 0..5, index k-1
# within each row. 21 entries total.
TABLE_GOLDEN: dict[int, list[str]] = {
    0: ["1"],
    1: ["N", "-1"],
    2: ["N^2", "-2N-1", "2"],
    3: ["N^3", "-3N^2-3N-1", "6N+6", "-6"],
    4: ["N^4", "-4N^3-6N^2-4N-1", "12N^2+24N+14", "-24N-36", "24"],
    5: [
        "N^5",
        "-5N^4-10N^3-10N^2-5N-1",
        "20N^3+60N^2+70N+30",
        "-60N^2-180N-150",
        "120N+240",
        "-120",
    ],
}


def naive_power(n: int, K: int) -> int:
    """n**K by a bare multiplication loop (0**0 == 1)."""
    result = 1
    for _ in range(K):
        result *= n
    return result


def rising_factorial(x: int, j: int) -> int:
    """Rising factorial x(x+1)...(x+j-1); the empty product (j == 0) is 1."""
    if j < 0:
        raise ValueError("rising_factorial requires j >= 0")
    product = 1
    for i in range(j):
        product *= x + i
    return product


def alternating_power_sum(m: int, k: int) -> int:
    """sum_{j=0}^{k-1} (-1)^j C(k-1, j) j^m, with 0^0 == 1.

    Up to sign this is the (k-1)-th finite difference of x^m at x = 0.
    """
    if m < 0 or k < 1:
        raise ValueError("alternating_power_sum requires m >= 0 and k >= 1")
    return signed_differences([j**m for j in range(k)])[-1]


@lru_cache(maxsize=None)
def stirling2_recurrence(n: int, k: int) -> int:
    """Stirling numbers of the second kind via S(n,k) = k*S(n-1,k) + S(n-1,k-1)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2_recurrence(n - 1, k) + stirling2_recurrence(n - 1, k - 1)


def solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Solve a square system exactly by Gauss-Jordan over Fractions.

    Raises ValueError if the matrix is singular.
    """
    n = len(matrix)
    augmented = [
        [Fraction(value) for value in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if augmented[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        inverse = augmented[col][col]
        augmented[col] = [value / inverse for value in augmented[col]]
        for r in range(n):
            if r != col and augmented[r][col]:
                factor = augmented[r][col]
                augmented[r] = [a - factor * b for a, b in zip(augmented[r], augmented[col])]
    return [augmented[r][n] for r in range(n)]
