import io
import random

import pytest

from powsum.cascade import measure_cascade
from powsum.cli import CSV_HEADER, write_csv
from powsum.costmodel import (
    OpCount,
    baseline_sum,
    complexity_table,
    predict_baseline,
    predict_cascade,
)


class TestOpCount:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            OpCount(general_mults=-1)


class TestPredictions:
    @pytest.mark.parametrize(
        "K, N, constant, additions",
        [(2, 256, 3, 767), (0, 1, 1, 0), (7, 1000, 8, 7999)],
    )
    def test_cascade(self, K, N, constant, additions):
        ops = predict_cascade(K, N)
        assert ops.general_mults == 0
        assert ops.constant_mults == constant
        assert ops.additions == additions

    @pytest.mark.parametrize(
        "K, N, general, additions",
        [(7, 100, 500, 99), (1, 50, 50, 49), (0, 10, 0, 9)],
    )
    def test_baseline(self, K, N, general, additions):
        ops = predict_baseline(K, N)
        assert ops.general_mults == general
        assert ops.constant_mults == 0
        assert ops.additions == additions

    def test_baseline_chain_only(self):
        assert complexity_table([7], [100])[0].baseline_chain_only_mults == 400
        assert complexity_table([1], [50])[0].baseline_chain_only_mults == 0
        assert complexity_table([0], [10])[0].baseline_chain_only_mults == 0

    @pytest.mark.parametrize("fn", [predict_cascade, predict_baseline])
    def test_domain_errors(self, fn):
        with pytest.raises(ValueError):
            fn(-1, 10)
        with pytest.raises(ValueError):
            fn(2, 0)


class TestMeasurement:
    def test_cascade_measurement_matches_prediction(self):
        rng = random.Random(17)
        for K in range(7):
            for N in (1, 2, 3, 10, 40):
                v = [rng.randint(-999, 999) for _ in range(N)]
                assert measure_cascade(v, K) == predict_cascade(K, N), (K, N)

    def test_baseline_measurement_matches_prediction(self):
        rng = random.Random(19)
        for K in range(7):
            for N in (1, 2, 3, 10, 40):
                v = [rng.randint(-999, 999) for _ in range(N)]
                assert baseline_sum(v, K)[1] == predict_baseline(K, N), (K, N)

    def test_counts_do_not_depend_on_values(self):
        zeros = measure_cascade([0] * 12, 3)
        huge = measure_cascade([10**30] * 12, 3)
        assert zeros == huge == predict_cascade(3, 12)

    def test_empty_input_measures_zero(self):
        assert measure_cascade([], 4) == OpCount()
        assert baseline_sum([], 4)[1] == OpCount()

    def test_three_sample_counts(self):
        assert measure_cascade([3, 1, 4], 2).additions == 8
        baseline = baseline_sum([3, 1, 4], 2)[1]
        assert baseline.general_mults == 6
        assert baseline.additions == 2


class TestComplexityTable:
    def test_cross_product_shape(self):
        reports = complexity_table([2, 4, 7], [10, 100, 1000])
        assert len(reports) == 9
        assert {(r.K, r.N) for r in reports} == {
            (K, N) for K in (2, 4, 7) for N in (10, 100, 1000)
        }

    def test_single_trivial_report(self):
        (report,) = complexity_table([0], [1])
        assert report.cascade == OpCount(0, 1, 0)
        assert report.baseline == OpCount(0, 0, 0)
        assert report.baseline_chain_only_mults == 0

    def test_cascade_multiplications_independent_of_length(self):
        for K in (2, 4, 7):
            reports = complexity_table([K], [1, 10, 100, 1000, 10**6])
            assert {r.cascade.constant_mults for r in reports} == {K + 1}
            assert {r.cascade.general_mults for r in reports} == {0}

    def test_baseline_multiplications_strictly_increase_with_length(self):
        for K in range(1, 9):
            reports = complexity_table([K], [1, 2, 5, 50, 500])
            mults = [r.baseline.general_mults for r in reports]
            assert mults == sorted(mults) and len(set(mults)) == len(mults)

    def test_extra_additions_are_k_per_sample(self):
        for report in complexity_table(range(9), [1, 7, 64, 200]):
            assert report.cascade.additions - report.baseline.additions == report.K * report.N


class TestCsvOutput:
    def test_header_and_method_rows(self):
        buffer = io.StringIO()
        write_csv(complexity_table([7], [1000]), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "7,1000,cascade,0,8,7999"
        assert lines[2] == "7,1000,baseline,5000,0,999"
        assert lines[3] == "7,1000,baseline_chain_only,4000,0,999"
        assert len(lines) == 4

    def test_row_count(self):
        buffer = io.StringIO()
        write_csv(complexity_table([2, 4, 7], [10, 100]), buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 1 + 3 * 6  # header + three method rows per report
