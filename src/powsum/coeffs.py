"""Coefficients that turn cascaded-accumulator outputs into powered sums.

One numeric route produces the K+1 combination coefficients for a
concrete (K, N): the alternating binomial closed form, evaluated as a
difference table of the powers (N+j)^K: K+1 powers and K(K+1)/2
subtractions, with no binomial coefficients. For the running pattern,
one call per sample with N rising by one, it keeps the last set returned
for each K and steps it to N+1 with K subtractions instead
(:meth:`CoefficientSet.step`). The sets are immutable named tuples:
every caller of the running pattern shares the kept set, so no caller
can change it under another, and concurrent callers always get correct
sets. One symbolic route produces the same coefficients as integer
polynomials in the sequence length N, each a plain tuple of its
coefficients; ``powsum table`` prints them as text. A third route,
through Stirling numbers of the second kind, lives in the tests as a
reference, and the test suite pins all three equal.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Iterable, Sequence


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


def _check_domain(K: int, N: int) -> None:
    if K < 0:
        raise ValueError("power K must be non-negative")
    if N < 1:
        raise ValueError("sequence length N must be positive")


# Builds a set without the constructor's checks, for sets valid by construction.
_new_set = tuple.__new__


class CoefficientSet(namedtuple("CoefficientSet", "K N coeffs")):
    """The K+1 combination coefficients for a concrete power K and length N.

    The mathematical indexing c_1..c_{K+1} is one-based; storage is
    zero-based, so ``coeffs[i]`` holds c_{i+1}. An immutable named tuple
    ``(K, N, coeffs)``: the constructor checks its arguments, and
    :meth:`step` builds the next set directly, without checking again
    what the step guarantees.
    """

    __slots__ = ()

    def __new__(cls, K: int, N: int, coeffs: tuple[int, ...]) -> CoefficientSet:
        _check_domain(K, N)
        if len(coeffs) != K + 1:
            raise ValueError(f"need exactly {K + 1} coefficients, got {len(coeffs)}")
        return _new_set(cls, (K, N, coeffs))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> CoefficientSet:
        # namedtuple's own builder, which _replace calls too, skips __new__.
        return cls(*iterable)

    def step(self) -> CoefficientSet:
        """The set for the same K and length N+1, in K subtractions.

        c_k is (-1)^(k-1) times the (k-1)-th forward difference of x^K at
        N, so c_k(N+1) = c_k(N) - c_{k+1}(N), and c_{K+1} = (-1)^K K! does
        not change: the method of differences. The subtractions run in a
        plain loop over ints, which on CPython makes no C-level call per
        term, unlike ``map(sub, ...)``: at K = 8 and N = 2*10**4 on a 2-core
        Xeon VM with Python 3.11.7, about 1.8 us a step against 2.2 us.
        """
        K, N, c = self
        later = iter(c)
        previous = next(later)
        stepped = []
        for value in later:
            stepped.append(previous - value)
            previous = value
        stepped.append(previous)
        return _new_set(CoefficientSet, (K, N + 1, tuple(stepped)))


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
    push builds the difference table only once; with the step's plain
    loop, such a call took about 2.45 us at K = 8 (2-core Xeon VM, Python
    3.11.7), against 2.85 us with ``map(sub, ...)``. Any other N builds the
    table afresh. One set is kept per K ever asked for, and it holds K+1
    integers of about K*log2(N) bits. The sets are immutable and a dict
    read or write is atomic, so concurrent callers always get correct
    sets; at worst a racing caller builds a set again. A K or N that is not an int
    raises ``TypeError``, so no kept set is built or stepped from a float.
    """
    if not (isinstance(K, int) and isinstance(N, int)):
        raise TypeError(f"K and N must be integers, got {K!r} and {N!r}")
    last = _latest.get(K)
    if last is not None:
        behind = N - last.N
        if behind == 0:
            return last
        if behind == 1:
            _latest[K] = last = last.step()
            return last
    _check_domain(K, N)
    differences = signed_differences([(N + j) ** K for j in range(K + 1)])
    _latest[K] = last = CoefficientSet(K, N, tuple(differences))
    return last


def coefficient_polynomials(K: int) -> list[tuple[int, ...]]:
    """All K+1 combination coefficients as integer polynomials in N.

    Entry k-1 of the list is c_k as a tuple whose entry i multiplies N**i.
    Binomial-theorem expansion of (N+j)^K inside the closed form gives
    the N^i coefficient of c_k as C(K, i) times the closed form's
    alternating sum over j^(K-i), one difference table per i. The degrees
    fall as K - (k-1): the alternating sum acts as a finite-difference
    operator on N and annihilates the higher powers. Each tuple ends at
    that degree, whose coefficient C(K, k-1) (k-1)! (-1)^(k-1) is never 0.
    """
    if K < 0:
        raise ValueError("power K must be non-negative")
    # columns[i][k-1] is the coefficient of N^i in c_k
    columns = [
        [math.comb(K, i) * d for d in signed_differences([j ** (K - i) for j in range(K + 1)])]
        for i in range(K + 1)
    ]
    return [row[: K + 2 - k] for k, row in enumerate(zip(*columns), start=1)]
