"""Independent oracles shared across the test suite.

Nothing in here may call back into the code paths it is used to check:
the linear solver works over Fractions, stirling2_recurrence uses the
two-term recurrence, and naive_power is a bare multiplication loop.

coefficients_stirling is the reference route to the combination
coefficients, through Stirling numbers of the second kind: stirling2 by
its explicit alternating sum, checked against stirling2_recurrence, and
stirling_power_sum, the closed form of an alternating power sum. The
tests pin it equal to powsum.coeffs.coefficients_closed, the route the
package runs.

rising_factorial and alternating_power_sum are the other sides of two
textbook identities that those Stirling numbers must satisfy: x^m as
signed rising factorials, and the alternating power sum as
stirling_power_sum's closed form. alternating_power_sum takes its finite
differences from powsum.coeffs.signed_differences, which
TestSignedDifferences checks against its definition, and not from the
Stirling numbers it is compared with.

reference_finalize is the register combination in the form that pins
its float results: the products added left to right by ``reduce``.

reference_samples is ``moment``'s line grammar read one line at a time,
with each line's own ASCII and ``_`` checks: the reader that
powsum.cascade.push_stream replaced with one that checks a block at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul
from typing import Callable, Iterable, Sequence

from powsum.cascade import SampleParseError
from powsum.coeffs import CoefficientSet, signed_differences

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


def reference_finalize(coeffs: Sequence[int], registers: Sequence[int]) -> int:
    """sum(c * r) over the weights and the registers they reach, added
    left to right from the first product."""
    return reduce(add, map(mul, coeffs, registers))


# the characters below 128 that str.strip() removes
ASCII_WHITESPACE = "".join(c for c in map(chr, range(128)) if c.isspace())


def reference_samples(lines: Iterable[str], parse: Callable[[str], int]) -> list[int]:
    """The samples ``lines`` holds, in order, or the SampleParseError of its
    first bad line: blanks and '#' comments are skipped, and a line with a
    non-ASCII character or ``_`` holds no sample."""
    samples = []
    for lineno, raw in enumerate(lines, start=1):
        if raw.isascii() and "_" not in raw:
            try:
                value = parse(raw)
            except ValueError:
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    value = parse(text)
                except ValueError:
                    raise SampleParseError(lineno, text) from None
            samples.append(value)
        else:
            text = raw.strip()
            if text and not text.startswith("#"):
                raise SampleParseError(lineno, raw.strip(ASCII_WHITESPACE))
    return samples


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


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k).

    Computed by the explicit alternating sum

        S(n, k) = (1/k!) * sum_{i=0}^{k} (-1)^i C(k, i) (k-i)^n

    rather than the usual two-term recurrence, so the recurrence
    (stirling2_recurrence) stays available as an independent check.
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


def stirling_power_sum(m: int, k: int) -> int:
    """(-1)^(k-1) (k-1)! S(m, k-1): the closed form of the alternating power
    sum sum_{j=0}^{k-1} (-1)^j C(k-1, j) j^m.

    That sum, the route by finite differences, is alternating_power_sum.
    The test suite pins the two equal, which is what justifies rewriting
    Stirling-form coefficients as alternating sums.
    """
    if m < 0 or k < 1:
        raise ValueError("stirling_power_sum requires m >= 0 and k >= 1")
    sign = -1 if (k - 1) % 2 else 1
    return sign * math.factorial(k - 1) * stirling2(m, k - 1)


def coefficients_stirling(K: int, N: int) -> CoefficientSet:
    """Combination coefficients via Stirling numbers of the second kind.

    c_k = (-1)^(k-1) (k-1)! sum_{m=k-1}^{K} C(K, m) N^(K-m) S(m, k-1),
    summed as sum_m C(K, m) N^(K-m) stirling_power_sum(m, k); the terms
    below m = k-1 vanish with S(m, k-1).

    Returns the same values as coefficients_closed by an entirely
    different computation. A K or N out of the domain raises ValueError
    from the CoefficientSet constructor.
    """
    cs = tuple(
        sum(math.comb(K, m) * N ** (K - m) * stirling_power_sum(m, k) for m in range(k - 1, K + 1))
        for k in range(1, K + 2)
    )
    return CoefficientSet(K, N, cs)


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
