import math
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsum import coeffs
from powsum.cli import _polynomial_text
from powsum.coeffs import (
    CoefficientSet,
    coefficient_polynomials,
    coefficients_closed,
    signed_differences,
)
from tests.helpers import TABLE_GOLDEN, coefficients_stirling, solve_exact


class TestNumericPaths:
    @pytest.mark.parametrize(
        "K, N, expected",
        [
            (2, 3, (9, -7, 2)),
            (0, 10, (1,)),
            (3, 2, (8, -19, 18, -6)),
            (1, 5, (5, -1)),
            (0, 1, (1,)),
        ],
    )
    def test_known_values_on_both_paths(self, K, N, expected):
        assert coefficients_closed(K, N).coeffs == expected
        assert coefficients_stirling(K, N).coeffs == expected

    def test_cross_path_equality(self):
        for K in range(11):
            for N in range(1, 51):
                assert coefficients_closed(K, N).coeffs == coefficients_stirling(K, N).coeffs

    @pytest.mark.parametrize("K", [11, 24, 33, 40])
    @pytest.mark.parametrize("N", [51, 65537, 10**6 + 3, 10**12])
    def test_cross_path_equality_at_magnitude(self, K, N):
        assert coefficients_closed(K, N).coeffs == coefficients_stirling(K, N).coeffs

    def test_first_coefficient_is_nth_power(self):
        for K in range(9):
            for N in (1, 2, 7, 31):
                assert coefficients_closed(K, N).coeffs[0] == N**K

    def test_last_coefficient_is_signed_factorial(self):
        # the K-th finite difference of a degree-K monomial
        for K in range(9):
            for N in (1, 5, 12):
                assert coefficients_closed(K, N).coeffs[K] == (-1) ** K * math.factorial(K)

    @pytest.mark.parametrize("fn", [coefficients_closed, coefficients_stirling])
    def test_domain_errors(self, fn):
        with pytest.raises(ValueError):
            fn(-1, 5)
        with pytest.raises(ValueError):
            fn(2, 0)

    def test_coefficient_set_length_enforced(self):
        with pytest.raises(ValueError):
            CoefficientSet(2, 3, (1, 2))


class TestCoefficientSetContract:
    """Every caller of the running pattern shares the set coefficients_closed
    keeps, so a set must be a checked, immutable value."""

    @pytest.mark.parametrize("K, N, values", [(-1, 3, ()), (2, 0, (1, 1, 1))])
    def test_constructor_checks_domain(self, K, N, values):
        with pytest.raises(ValueError):
            CoefficientSet(K, N, values)

    @pytest.mark.parametrize("changes", [{"K": -1}, {"N": 0}, {"coeffs": (9, -7)}])
    def test_namedtuple_builders_check_like_the_constructor(self, changes):
        fields = {"K": 2, "N": 3, "coeffs": (9, -7, 2), **changes}
        with pytest.raises(ValueError):
            coefficients_closed(2, 3)._replace(**changes)
        with pytest.raises(ValueError):
            CoefficientSet._make(fields.values())

    @pytest.mark.parametrize(
        "values, first_bad",
        [((9.0, -7, True), "9.0"), ((9, -7.0, 2), "-7.0"), ((9, -7, True), "True")],
    )
    def test_coefficient_that_is_not_exactly_an_int_is_refused(self, values, first_bad):
        # a float or bool coefficient would make finalize's result inexact
        message = f"^coefficients must be ints, got {first_bad}$"
        with pytest.raises(TypeError, match=message):
            CoefficientSet(2, 3, values)
        with pytest.raises(TypeError, match=message):
            coefficients_closed(2, 3)._replace(coeffs=values)

    @pytest.mark.parametrize("field", ["K", "N", "coeffs"])
    def test_fields_cannot_be_assigned(self, field):
        kept = coefficients_closed(2, 3)
        with pytest.raises(AttributeError):
            setattr(kept, field, 5)
        assert coefficients_closed(2, 3) == CoefficientSet(2, 3, (9, -7, 2))

    def test_equal_sets_hash_equal(self):
        coeffs._latest.clear()
        coefficients_closed(4, 6)
        stepped = coefficients_closed(4, 7)  # scanned from the set for N = 6
        fresh = coefficients_stirling(4, 7)
        assert stepped == fresh
        assert hash(stepped) == hash(fresh)
        assert len({stepped, fresh, CoefficientSet(4, 7, fresh.coeffs)}) == 1
        assert CoefficientSet(4, 8, fresh.coeffs) != fresh

    def test_list_argument_is_stored_as_a_tuple(self):
        values = [9, -7, 2]
        built = CoefficientSet(2, 3, values)
        assert built == coefficients_closed(2, 3)
        assert hash(built) == hash(coefficients_closed(2, 3))
        values.append(1)
        assert built.coeffs == (9, -7, 2)

    def test_repr(self):
        text = "CoefficientSet(K=2, N=3, coeffs=(9, -7, 2))"
        assert repr(CoefficientSet(2, 3, (9, -7, 2))) == text
        coeffs._latest.clear()
        coefficients_closed(0, 4)
        assert repr(coefficients_closed(0, 5)) == "CoefficientSet(K=0, N=5, coeffs=(1,))"


class TestStepping:
    @given(st.integers(0, 24), st.integers(1, 10**12), st.integers(0, 50))
    def test_steps_match_stirling(self, K, start, steps):
        coeffs._latest.clear()  # the first call builds a table, the next ones scan
        for N in range(start, start + steps + 1):
            assert coefficients_closed(K, N) == coefficients_stirling(K, N)

    def test_power_zero_stays_one(self):
        coeffs._latest.clear()
        assert coefficients_closed(0, 9) == CoefficientSet(0, 9, (1,))
        assert coefficients_closed(0, 10) == CoefficientSet(0, 10, (1,))

    @pytest.mark.parametrize("K", [1, 2, 7, 24])
    def test_last_coefficient_stays_signed_factorial(self, K):
        coeffs._latest.clear()
        for N in range(5, 9):
            assert coefficients_closed(K, N).coeffs[K] == (-1) ** K * math.factorial(K)

    @given(
        st.integers(1, 10**6),
        st.lists(
            st.tuples(
                st.integers(0, 12),
                st.one_of(
                    st.just(0),  # the same N again
                    st.just(1),  # the running step
                    st.integers(-50, -1),  # back
                    st.integers(2, 10**6),  # ahead
                ),
            ),
            max_size=40,
        ),
    )
    def test_closed_form_calls_in_any_order_match_stirling(self, start, calls):
        coeffs._latest.clear()  # each example starts from an empty memo
        lengths: dict[int, int] = {}
        for K, move in calls:
            N = lengths[K] = max(1, lengths.get(K, start) + move)
            assert coefficients_closed(K, N) == coefficients_stirling(K, N)
        for K, run in coeffs._latest.items():
            assert_one_run(run, K)

    def test_running_pattern_builds_one_table(self, monkeypatch):
        tables = []

        def counting(values):
            tables.append(len(values))
            return signed_differences(values)

        monkeypatch.setattr(coeffs, "signed_differences", counting)
        coeffs._latest.clear()
        for N in range(1, 101):
            coefficients_closed(8, N)
        coefficients_closed(8, 100)
        assert tables == [9]
        run = coeffs._latest[8]
        assert coefficients_closed(8, 50) is run[50 - run[0].N]  # a step back inside the run
        coefficients_closed(8, 52)
        assert tables == [9]
        coefficients_closed(8, 1000)  # a jump past the run
        coefficients_closed(3, 53)  # another power
        assert tables == [9, 9, 4]

    def test_fresh_set_checked_by_the_constructor_kept_set_never(self):
        coeffs._latest.clear()
        with mock.patch.object(coeffs, "_check_domain", wraps=coeffs._check_domain) as check:
            coefficients_closed(8, 20)  # a fresh table
            # checked before the powers are computed, and again by the public
            # constructor that builds the set
            assert check.call_count == 2
            coefficients_closed(8, 20)  # the kept set
            coefficients_closed(8, 21)  # the next run, scanned from the kept set
            coefficients_closed(8, 22)  # inside that run
            assert check.call_count == 2

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(0, 12),
        # sets a run at every K; 0 leaves fewer integers than one set, so
        # a run is one set, as at K >= 1023 by default; None is the default
        sets=st.sampled_from([0, 1, 2, 3, None]),
        start=st.integers(1, 10**6),
        moves=st.lists(
            st.one_of(
                st.just(0),  # the same N again
                st.just(1),  # the running step
                st.integers(-50, -1),  # back
                st.integers(2, 4),  # ahead, inside a run of three
                st.integers(5, 10**6),  # ahead
            ),
            max_size=20,
        ),
    )
    def test_running_pattern_across_run_boundaries(self, K, sets, start, moves):
        integers = coeffs._RUN_INTEGERS if sets is None else sets * (K + 1)
        length = max(1, integers // (K + 1))
        with mock.patch.object(coeffs, "_RUN_INTEGERS", integers):
            coeffs._latest.clear()
            # a fresh table at start, then four runs: three run boundaries
            for N in range(start, start + 3 * length + 2):
                assert coefficients_closed(K, N) == coefficients_stirling(K, N)
            assert len(coeffs._latest[K]) == length
            for move in moves:
                N = max(1, N + move)
                assert coefficients_closed(K, N) == coefficients_stirling(K, N)
        assert_one_run(coeffs._latest[K], K)
        assert len(coeffs._latest[K]) in (1, length)

    def test_power_with_a_run_of_one_set(self):
        K = 1023  # the first power at which a run holds one set by default
        coeffs._latest.clear()
        for N in range(5, 9):  # a fresh table, then three runs
            kept = coefficients_closed(K, N)
            assert coeffs._latest[K] == (kept,)
            assert (kept.K, kept.N) == (K, N)
            assert kept.coeffs[0] == N**K
            assert kept.coeffs[K] == -math.factorial(K)

    def test_threads_sharing_a_power_get_correct_sets(self):
        # close starts keep the threads inside one run, so one thread's
        # scan of the next run races the others' lookups in the last
        K, calls, starts = 8, 300, [1, 2, 3, 5]
        expected = {N: coefficients_stirling(K, N) for s in starts for N in range(s, s + calls)}
        wrong, finished = [], []

        def running(start):
            for N in range(start, start + calls):
                if coefficients_closed(K, N) != expected[N]:
                    wrong.append(N)
            finished.append(start)

        coeffs._latest.clear()
        threads = [threading.Thread(target=running, args=(start,)) for start in starts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == starts
        assert wrong == []
        assert_one_run(coeffs._latest[K], K)

    # True == 1: a bool passed for an int would be kept in the sets built from it
    @pytest.mark.parametrize("K, N", [(8, 5.0), (8.0, 21), (8, True), (True, 3)])
    def test_non_integer_arguments_leave_the_memo_exact(self, K, N):
        coefficients_closed(8, 20)  # the memo holds a set for K = 8
        with pytest.raises(TypeError, match="^(power K|sequence length N) must be an int, got "):
            coefficients_closed(K, N)
        for after in coefficients_closed(8, 6), coefficients_closed(1, 4):
            assert after == coefficients_stirling(after.K, after.N)
            assert type(after.K) is type(after.N) is int
            assert all(type(c) is int for c in after.coeffs)  # floats would compare equal


def assert_one_run(run, K):
    """A kept run is a tuple of sets for K at consecutive lengths."""
    assert type(run) is tuple and run
    assert [s.K for s in run] == [K] * len(run)
    assert [s.N for s in run] == list(range(run[0].N, run[0].N + len(run)))


class TestSignedDifferences:
    @given(values=st.lists(st.integers(-(10**30), 10**30), max_size=20))
    def test_matches_definition(self, values):
        # entry i is sum_{j<=i} (-1)^j C(i, j) values[j]
        expected = [
            sum((-1) ** j * math.comb(i, j) * values[j] for j in range(i + 1))
            for i in range(len(values))
        ]
        assert signed_differences(values) == expected


class TestSymbolicPath:
    def test_golden_table_rows(self):
        for K, row in TABLE_GOLDEN.items():
            assert [_polynomial_text(p) for p in coefficient_polynomials(K)] == row

    def test_symbolic_matches_numeric(self):
        for K in range(9):
            polys = coefficient_polynomials(K)
            for N in range(1, 51):
                numeric = coefficients_closed(K, N).coeffs
                assert tuple(sum(c * N**i for i, c in enumerate(p)) for p in polys) == numeric

    def test_degree_pattern(self):
        for K in range(11):
            polys = coefficient_polynomials(K)
            for k in range(1, K + 2):
                p = polys[k - 1]
                assert len(p) - 1 == K - (k - 1), (K, k)
                assert p[-1] != 0, (K, k)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            coefficient_polynomials(-1)


class TestDefiningIdentity:
    def test_pointwise_on_sample_grid(self):
        # n^K == sum_k c_k * C(N-n+k-2, k-1) for every grid point n
        for K in range(9):
            for N in range(max(1, K + 1), 41):
                cs = coefficients_closed(K, N).coeffs
                for n in range(N):
                    lhs = n**K
                    rhs = sum(
                        cs[k - 1] * math.comb(N - n + k - 2, k - 1) for k in range(1, K + 2)
                    )
                    assert lhs == rhs, (K, N, n)

    def test_pointwise_below_uniqueness_threshold(self):
        # the identity is polynomial in n, so it also holds when N < K+1
        for K in range(1, 7):
            for N in range(1, K + 1):
                cs = coefficients_closed(K, N).coeffs
                for n in range(N):
                    rhs = sum(
                        cs[k - 1] * math.comb(N - n + k - 2, k - 1) for k in range(1, K + 2)
                    )
                    assert rhs == n**K, (K, N, n)


class TestUniqueness:
    def test_solve_recovers_coefficients_at_threshold(self):
        # at N = K+1 the square basis matrix is nonsingular and the exact
        # solve of the grid system reproduces the closed-form coefficients
        for K in range(7):
            N = K + 1
            matrix = [
                [math.comb(N - n + k - 2, k - 1) for k in range(1, K + 2)] for n in range(N)
            ]
            rhs = [n**K for n in range(N)]
            solution = solve_exact(matrix, rhs)  # raises ValueError if singular
            assert solution == list(coefficients_closed(K, N).coeffs)

    def test_grid_system_underdetermined_below_threshold(self):
        # with N = K sample points there are multiple coefficient vectors
        # reproducing n^K on the grid: exhibit a second one
        K, N = 2, 2

        def satisfies_grid(cs):
            return all(
                sum(cs[k - 1] * math.comb(N - n + k - 2, k - 1) for k in range(1, K + 2))
                == n**K
                for n in range(N)
            )

        base = list(coefficients_closed(K, N).coeffs)
        alternative = [base[0] + 1, base[1] - 2, base[2] + 1]  # grid null-space direction
        assert satisfies_grid(base)
        assert satisfies_grid(alternative)
        assert alternative != base
