"""Coefficients that turn cascaded-accumulator outputs into powered sums.

One numeric route produces the K+1 combination coefficients for a
concrete (K, N): the alternating binomial closed form, evaluated as a
difference table of the powers (N+j)^K: K+1 powers and K(K+1)/2
subtractions, with no binomial coefficients. For the running pattern,
one call per sample with N rising by one, it keeps a run of consecutive
sets for each K, at most about 1024 integers or else one set, and scans
the next run from the last with K subtractions a set instead, c_k(N+1)
= c_k(N) - c_{k+1}(N). The sets and the runs are immutable tuples:
every caller of the running pattern shares the kept run, so no caller
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
from collections.abc import Iterable, Sequence
from itertools import accumulate, count, repeat
from operator import sub


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


def _check_power(K: int) -> None:
    """``TypeError`` unless K is exactly an int, not a bool; ``ValueError`` if negative."""
    if type(K) is not int:
        raise TypeError(f"power K must be an int, got {K!r}")
    if K < 0:
        raise ValueError("power K must be non-negative")


def _check_domain(K: int, N: int) -> None:
    _check_power(K)
    if type(N) is not int:
        raise TypeError(f"sequence length N must be an int, got {N!r}")
    if N < 1:
        raise ValueError("sequence length N must be positive")


# Builds a set without the constructor's checks, for the sets of a run scan.
_new_set = tuple.__new__


class CoefficientSet(namedtuple("CoefficientSet", "K N coeffs")):
    """The K+1 combination coefficients for a concrete power K and length N.

    The mathematical indexing c_1..c_{K+1} is one-based; storage is
    zero-based, so ``coeffs[i]`` holds c_{i+1}. An immutable named tuple
    ``(K, N, coeffs)``: the constructor checks its arguments, each of K,
    N and the coefficients exactly an int, not a bool or a float. Only
    the run scan of ``coefficients_closed`` builds its sets directly,
    without checking again what the scan guarantees.
    """

    __slots__ = ()

    def __new__(cls, K: int, N: int, coeffs: Iterable[int]) -> CoefficientSet:
        _check_domain(K, N)
        values = tuple(coeffs)  # a list would leave the set unhashable and mutable
        if len(values) != K + 1:
            raise ValueError(f"need exactly {K + 1} coefficients, got {len(values)}")
        for c in values:  # a float or bool coefficient would make a result inexact
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {c!r}")
        return _new_set(cls, (K, N, values))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> CoefficientSet:
        # namedtuple's own builder, which _replace calls too, skips __new__.
        return cls(*iterable)


def _scan(last: CoefficientSet, length: int) -> tuple[CoefficientSet, ...]:
    """The ``length`` sets after ``last``, for lengths N+1 to N+length.

    c_k is (-1)^(k-1) times the (k-1)-th forward difference of x^K at N,
    so c_k(N+1) = c_k(N) - c_{k+1}(N), and c_{K+1} = (-1)^K K! does not
    change: the method of differences. Each c_k over the run is then a
    prefix scan of c_{k+1}: one C-level ``accumulate`` pass per column,
    from the constant c_{K+1} up to c_1, with the subtractions of
    stepping one set at a time, in the same order.
    """
    K, N, c = last
    column = [c[K]] * (length + 1)  # c_{K+1} at lengths N to N+length
    columns = [column]
    for c_k in reversed(c[:K]):
        column = list(accumulate(column[:-1], sub, initial=c_k))
        columns.append(column)
    rows = zip(*reversed(columns))
    next(rows)  # the coefficients of last itself
    return tuple(map(_new_set, repeat(CoefficientSet), zip(repeat(K), count(N + 1), rows)))


# The integers a kept run holds at most, about: a run is max(1, 1024 // (K+1))
# sets. At K = 8 (113 sets a run) on a 2-core Xeon VM with Python 3.11.7, a
# run costs about 1 us a set to build, and a call that finds its set in the
# run about 0.45 us, so the one call in 113 that builds a run shows in the
# running pattern's 99th-percentile latency. Longer runs save little: a
# build's fixed cost, about 6 us, is already near 0.05 us a set, while every
# set kept holds K+1 more integers.
_RUN_INTEGERS = 1024

# The run of consecutive sets coefficients_closed keeps for each K.
_latest: dict[int, tuple[CoefficientSet, ...]] = {}


def coefficients_closed(K: int, N: int) -> CoefficientSet:
    """Combination coefficients via the alternating binomial closed form.

    c_k = sum_{j=0}^{k-1} (-1)^j C(k-1, j) (N+j)^K for k = 1..K+1,
    which is (-1)^(k-1) times the (k-1)-th forward difference of (N+x)^K
    at x = 0: the leading entries of one difference table.

    For each K a run of consecutive sets is kept, max(1, 1024 // (K+1))
    sets: at most about 1024 integers of about K*log2(N) bits, or one set
    from K = 1023 on. A call whose N falls inside the run returns the kept
    set. A call for the N one past its end scans the next run from its
    last set, K subtractions a set in C-level passes and no powers, keeps
    it and returns its first set; so the running pattern
    ``finalize(coefficients_closed(K, n))`` after every push builds the
    difference table only once, and does not step one set a call. Any
    other N builds the table afresh and keeps it as a run of one. The sets
    and runs are immutable and a dict read or write is atomic, so
    concurrent callers always get correct sets; at worst a racing caller
    builds a table again. A K or N that is not exactly an int, a bool or a
    float for instance, never reads a kept run: it raises the
    ``TypeError`` every entry point does.
    """
    if type(K) is int and type(N) is int:
        run = _latest.get(K)
        if run is not None:
            at = N - run[0].N
            if 0 <= at < len(run):
                return run[at]
            if at == len(run):
                _latest[K] = run = _scan(run[-1], max(1, _RUN_INTEGERS // (K + 1)))
                return run[0]
    _check_domain(K, N)
    differences = signed_differences([(N + j) ** K for j in range(K + 1)])
    last = CoefficientSet(K, N, differences)
    _latest[K] = (last,)
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
    _check_power(K)
    # columns[i][k-1] is the coefficient of N^i in c_k
    columns = [
        [math.comb(K, i) * d for d in signed_differences([j ** (K - i) for j in range(K + 1)])]
        for i in range(K + 1)
    ]
    return [row[: K + 2 - k] for k, row in enumerate(zip(*columns), start=1)]
