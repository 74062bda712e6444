"""Coefficients that turn cascaded-accumulator outputs into powered sums.

Two independent numeric routes produce the K+1 combination coefficients
for a concrete (K, N): a Stirling-number form and an alternating binomial
closed form. The closed form is evaluated as a difference table of the
powers (N+j)^K: K+1 powers and K(K+1)/2 subtractions, with no binomial
coefficients. For the running pattern, one call per sample with N rising
by one, the closed form keeps the last set returned for each K and steps
it to N+1 with K subtractions instead (:meth:`CoefficientSet.step`). The
sets are frozen, so concurrent callers always get correct sets. A third,
symbolic route produces the same coefficients as integer polynomials in the
sequence length N. All three agree everywhere; the test suite never lets
them drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

from .exactmath import signed_differences, stirling2


def _check_domain(K: int, N: int) -> None:
    if K < 0:
        raise ValueError("power K must be non-negative")
    if N < 1:
        raise ValueError("sequence length N must be positive")


@dataclass(frozen=True)
class CoefficientSet:
    """The K+1 combination coefficients for a concrete power K and length N.

    The mathematical indexing c_1..c_{K+1} is one-based; storage is
    zero-based, so ``coeffs[i]`` holds c_{i+1}.
    """

    K: int
    N: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_domain(self.K, self.N)
        if len(self.coeffs) != self.K + 1:
            raise ValueError(f"need exactly {self.K + 1} coefficients, got {len(self.coeffs)}")

    def step(self) -> CoefficientSet:
        """The set for the same K and length N+1, in K subtractions.

        c_k is (-1)^(k-1) times the (k-1)-th forward difference of x^K at
        N, so c_k(N+1) = c_k(N) - c_{k+1}(N), and c_{K+1} = (-1)^K K! does
        not change: the method of differences.
        """
        c = self.coeffs
        return CoefficientSet(self.K, self.N + 1, tuple(map(sub, c, c[1:])) + c[-1:])


# The last set coefficients_closed returned for each K.
_latest: dict[int, CoefficientSet] = {}


def coefficients_closed(K: int, N: int) -> CoefficientSet:
    """Combination coefficients via the alternating binomial closed form.

    c_k = sum_{j=0}^{k-1} (-1)^j C(k-1, j) (N+j)^K for k = 1..K+1,
    which is (-1)^(k-1) times the (k-1)-th forward difference of (N+x)^K
    at x = 0: the leading entries of one difference table.

    The last set returned for each K is kept. A call with the same N
    returns it again; a call with N one larger returns its
    :meth:`CoefficientSet.step`, K subtractions and no powers, so the
    running pattern ``finalize(coefficients_closed(K, n))`` after every
    push builds the difference table only once. Any other N builds the
    table afresh. One set is kept per K ever asked for, and it holds K+1
    integers of about K*log2(N) bits. The sets are frozen and a dict read
    or write is atomic, so concurrent callers always get correct sets; at
    worst a racing caller builds a set again. A K or N that is not an int
    raises ``TypeError``, so no kept set is built or stepped from a float.
    """
    if not (isinstance(K, int) and isinstance(N, int)):
        raise TypeError(f"K and N must be integers, got {K!r} and {N!r}")
    last = _latest.get(K)
    if last is not None:
        if last.N == N:
            return last
        if last.N == N - 1:
            _latest[K] = last = last.step()
            return last
    _check_domain(K, N)
    differences = signed_differences([(N + j) ** K for j in range(K + 1)])
    _latest[K] = last = CoefficientSet(K, N, tuple(differences))
    return last


def coefficients_stirling(K: int, N: int) -> CoefficientSet:
    """Combination coefficients via Stirling numbers of the second kind.

    c_k = (-1)^(k-1) (k-1)! sum_{m=k-1}^{K} C(K, m) N^(K-m) S(m, k-1).

    Returns the same values as :func:`coefficients_closed` by an entirely
    different computation; keeping both paths alive is the strongest
    cross-check on the whole coefficient derivation.
    """
    _check_domain(K, N)
    cs = []
    for k in range(1, K + 2):
        sign = -1 if (k - 1) % 2 else 1
        total = 0
        for m in range(k - 1, K + 1):
            total += math.comb(K, m) * N ** (K - m) * stirling2(m, k - 1)
        cs.append(sign * math.factorial(k - 1) * total)
    return CoefficientSet(K, N, tuple(cs))


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial in N; ``coefficients[i]`` multiplies N**i.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial is the empty tuple and has degree -1.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n: int) -> int:
        """Value at an integer point, by Horner's rule."""
        total = 0
        for c in reversed(self.coefficients):
            total = total * n + c
        return total

    def __str__(self) -> str:
        """Canonical form: descending powers, explicit signs, no spaces.

        Examples: ``N^2``, ``-2N-1``, ``12N^2+24N+14``, ``0``.
        """
        if self.degree < 0:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                body = str(magnitude)
            else:
                variable = "N" if power == 1 else f"N^{power}"
                body = variable if magnitude == 1 else f"{magnitude}{variable}"
            sign = "-" if c < 0 else ("" if not parts else "+")
            parts.append(sign + body)
        return "".join(parts)


def coefficient_polynomials(K: int) -> list[IntPolynomial]:
    """All K+1 combination coefficients as integer polynomials in N.

    Binomial-theorem expansion of (N+j)^K inside the closed form gives
    the N^i coefficient of c_k as C(K, i) times the closed form's
    alternating sum over j^(K-i), one difference table per i. The degrees
    fall as K - (k-1): the alternating sum acts as a finite-difference
    operator on N and annihilates the higher powers.
    """
    if K < 0:
        raise ValueError("power K must be non-negative")
    # columns[i][k-1] is the coefficient of N^i in c_k
    columns = [
        [math.comb(K, i) * d for d in signed_differences([j ** (K - i) for j in range(K + 1)])]
        for i in range(K + 1)
    ]
    return [IntPolynomial(row) for row in zip(*columns)]
