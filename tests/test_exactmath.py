import pytest

from powsum.exactmath import binomial


class TestBinomial:
    @pytest.mark.parametrize("n, k, expected", [(5, 2, 10), (7, 0, 1), (3, 5, 0), (0, 0, 1)])
    def test_values(self, n, k, expected):
        assert binomial(n, k) == expected

    @pytest.mark.parametrize("n, k", [(-1, 0), (0, -1), (-3, -3)])
    def test_rejects_negative(self, n, k):
        with pytest.raises(ValueError):
            binomial(n, k)

    def test_pascals_rule(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
