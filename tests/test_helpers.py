"""The oracles in tests/helpers.py checked against each other: the
identities their Stirling numbers, rising factorials and alternating power
sums must satisfy."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powsum.exactmath import binomial
from tests.helpers import (
    alternating_power_sum,
    rising_factorial,
    stirling2,
    stirling2_recurrence,
    stirling_power_sum,
)


class TestRisingFactorial:
    @pytest.mark.parametrize("x, j, expected", [(3, 0, 1), (2, 3, 24), (4, 2, 20), (-2, 3, 0)])
    def test_values(self, x, j, expected):
        assert rising_factorial(x, j) == expected

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            rising_factorial(2, -1)

    def test_factorial_binomial_identity_small_range(self):
        # x^(rising j) == j! * C(x+j-1, j) for positive x
        for x in range(1, 21):
            for j in range(11):
                assert rising_factorial(x, j) == math.factorial(j) * binomial(x + j - 1, j)

    @given(x=st.integers(1, 500), j=st.integers(0, 40))
    def test_factorial_binomial_identity_random(self, x, j):
        assert rising_factorial(x, j) == math.factorial(j) * binomial(x + j - 1, j)


class TestStirling2:
    @pytest.mark.parametrize(
        "n, k, expected",
        [(0, 0, 1), (3, 2, 3), (4, 4, 1), (4, 2, 7), (1, 2, 0), (5, 0, 0)],
    )
    def test_values(self, n, k, expected):
        assert stirling2(n, k) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2(0, -1)

    def test_matches_recurrence_oracle(self):
        # the implementation uses the explicit alternating sum, so the
        # two-term recurrence is a fully independent check
        for n in range(16):
            for k in range(n + 1):
                assert stirling2(n, k) == stirling2_recurrence(n, k)

    def test_monomial_expansion_in_rising_factorials(self):
        # x^m == sum_j S(m, j) (-1)^(m-j) x^(rising j)
        for m in range(13):
            for x in range(13):
                expansion = sum(
                    stirling2(m, j) * (-1) ** (m - j) * rising_factorial(x, j)
                    for j in range(m + 1)
                )
                assert expansion == x**m, (m, x)


class TestPowerSumIdentity:
    @pytest.mark.parametrize(
        "m, k, expected",
        [(2, 2, -1), (0, 1, 1), (3, 3, 6)],
    )
    def test_both_sides_on_known_values(self, m, k, expected):
        assert stirling_power_sum(m, k) == expected
        assert alternating_power_sum(m, k) == expected

    def test_sides_agree_exhaustively(self):
        for m in range(13):
            for k in range(1, 14):
                assert alternating_power_sum(m, k) == stirling_power_sum(m, k), (m, k)

    @given(m=st.integers(0, 25), k=st.integers(1, 26))
    def test_sides_agree_random(self, m, k):
        assert alternating_power_sum(m, k) == stirling_power_sum(m, k)

    @pytest.mark.parametrize("fn", [alternating_power_sum, stirling_power_sum])
    def test_domain_errors(self, fn):
        with pytest.raises(ValueError):
            fn(-1, 1)
        with pytest.raises(ValueError):
            fn(0, 0)
