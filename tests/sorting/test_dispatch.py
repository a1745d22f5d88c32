"""Unit tests for the Table-1 entropy column."""

from repro.sorting.dispatch import entropy_bits


class TestEntropy:
    def test_entropy_paper_values(self):
        # Table 1's entropy column: log2(range).
        assert abs(entropy_bits(500_000) - 18.9) < 0.05
        assert abs(entropy_bits(1_000_000) - 19.9) < 0.05
        assert abs(entropy_bits(10_000_000) - 23.26) < 0.05
        assert abs(entropy_bits(50_000_000) - 25.58) < 0.05

    def test_entropy_degenerate(self):
        assert entropy_bits(0) == 0.0
        assert entropy_bits(-5) == 0.0
