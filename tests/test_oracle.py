"""The ground truth ``direct_sum``, and the addition-chain baseline of
``tests/counting.py`` valued against it."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powsum.costmodel import MAX_CHAIN_TARGET, optimal_chain
from powsum.oracle import direct_sum

from tests.counting import baseline_sum

samples = st.integers(-(10**6), 10**6)


class TestDirectSum:
    @pytest.mark.parametrize(
        "v, K, expected",
        [
            ([3, 1, 4], 2, 17),
            ([5, 7], 0, 12),
            ([], 3, 0),
            ([5], 0, 5),  # 0^0 == 1: the n=0 term survives at K == 0
            ([5], 3, 0),  # ... and vanishes for K >= 1
            ([1, 1, 1, 1], 1, 6),
        ],
    )
    def test_values(self, v, K, expected):
        assert direct_sum(v, K) == expected

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            direct_sum([1], -1)


class TestAdditionChain:
    def test_known_minimal_lengths(self):
        # OEIS A003313, the length of the shortest addition chain, for every
        # target the search accepts
        shortest = [
            0, 1, 2, 2, 3, 3, 4, 3, 4, 4, 5, 4, 5, 5, 5, 4,
            5, 5, 6, 5, 6, 6, 6, 5, 6, 6, 6, 6, 7, 6, 7, 5,
            6, 6, 7, 6, 7, 7, 7, 6, 7, 7, 7, 7, 7, 7, 8, 6,
            7, 7, 7, 7, 8, 7, 8, 7, 8, 8, 8, 7, 8, 8, 8, 6,
        ]
        assert [len(optimal_chain(K)) for K in range(1, MAX_CHAIN_TARGET + 1)] == shortest

    def test_power_seven_needs_four_steps(self):
        assert len(optimal_chain(7)) == 4

    def test_deterministic_lexicographic_winner_for_seven(self):
        # hand-derived: the search tries pairs in lexicographic order over
        # strictly increasing chains, so 1,2,3,4,7 beats 1,2,3,6,7
        assert optimal_chain(7) == ((0, 0), (0, 1), (0, 2), (2, 3))
        assert exponents(optimal_chain(7)) == [1, 2, 3, 4, 7]

    def test_trivial_and_doubling_targets(self):
        assert optimal_chain(1) == ()
        assert len(optimal_chain(2)) == 1
        assert len(optimal_chain(4)) == 2
        assert len(optimal_chain(64)) == 6

    def test_chain_is_valid_for_every_target(self):
        for K in range(1, MAX_CHAIN_TARGET + 1):
            assert exponents(optimal_chain(K))[-1] == K, K

    def test_square_and_multiply_upper_bound(self):
        for K in range(2, MAX_CHAIN_TARGET + 1):
            assert len(optimal_chain(K)) <= 2 * int(math.log2(K)), K

    def test_search_bound_enforced(self):
        with pytest.raises(ValueError):
            optimal_chain(0)
        with pytest.raises(ValueError):
            optimal_chain(MAX_CHAIN_TARGET + 1)


def exponents(steps):
    """Replay a chain's steps into its exponents, starting from 1, checking
    that every step names only positions already built."""
    values = [1]
    for i, (a, b) in enumerate(steps):
        assert 0 <= a <= i and 0 <= b <= i, (i, a, b)
        values.append(values[a] + values[b])
    return values


class TestChainPower:
    """baseline_sum replays the chain on each index: a single 1 at index n
    sums to n**K."""

    @pytest.mark.parametrize(
        "n, K, expected",
        [(2, 7, 128), (3, 4, 81), (10, 1, 10), (0, 5, 0)],
    )
    def test_values(self, n, K, expected):
        assert baseline_sum([0] * n + [1], K)[0] == expected

    def test_matches_naive_power_everywhere(self):
        for K in range(1, 17):
            for n in range(11):
                naive = 1
                for _ in range(K):
                    naive *= n
                assert baseline_sum([0] * n + [1], K)[0] == naive, (K, n)


class TestBaselineSum:
    def test_value_always_equals_direct_sum(self):
        rng = random.Random(31)
        for K in range(9):
            for N in (0, 1, 2, 17):
                v = [rng.randint(-(10**6), 10**6) for _ in range(N)]
                value, _ = baseline_sum(v, K)
                assert value == direct_sum(v, K)

    def test_operation_counts_for_power_seven(self):
        v = list(range(1000))
        value, ops = baseline_sum(v, 7)
        assert value == direct_sum(v, 7)
        assert ops.general_mults == 5000  # (4 chain steps + 1 weight) per sample
        assert ops.additions == 999
        assert ops.constant_mults == 0

    def test_power_zero_needs_no_multiplications(self):
        _, ops = baseline_sum(list(range(10)), 0)
        assert ops.general_mults == 0
        assert ops.additions == 9

    def test_small_example_counts(self):
        value, ops = baseline_sum([3, 1, 4], 2)
        assert value == 17
        assert ops.general_mults == 6
        assert ops.additions == 2

    def test_empty_input(self):
        value, ops = baseline_sum([], 5)
        assert value == 0
        assert (ops.general_mults, ops.constant_mults, ops.additions) == (0, 0, 0)

    @given(v=st.lists(samples, max_size=40), K=st.integers(0, 10))
    def test_value_equality_random(self, v, K):
        assert baseline_sum(v, K)[0] == direct_sum(v, K)
