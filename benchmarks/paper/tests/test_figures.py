"""Unit tests for the ASCII figure renderer."""

from paper.bench.figures import counters_to_bars, render_bars


class TestRenderBars:
    def test_bars_scale_to_maximum(self):
        text = render_bars(
            "t",
            [("g1", "a", 10.0), ("g1", "b", 5.0)],
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert lines[1].count("█") == 2 * lines[2].count("█")

    def test_none_renders_dash(self):
        text = render_bars("t", [("g", "a", None)])
        assert "–" in text

    def test_zero_value(self):
        text = render_bars("t", [("g", "a", 0.0), ("g", "b", 4.0)])
        assert "0.000" in text

    def test_groups_separated_by_blank_line(self):
        text = render_bars(
            "t",
            [("g1", "a", 1.0), ("g2", "a", 1.0)],
        )
        assert "" in text.splitlines()

    def test_empty(self):
        assert render_bars("t", []) == "t"

    def test_unit_suffix(self):
        text = render_bars("t", [("g", "a", 2.0)], unit="ms")
        assert "2.000ms" in text


class TestCountersToBars:
    def test_projection(self):
        rows = [
            ("g", "e1", {"x": 1.0, "y": 2.0}),
            ("g", "e2", None),
        ]
        bars = counters_to_bars(rows, "y")
        assert bars == [("g", "e1", 2.0), ("g", "e2", None)]

    def test_missing_metric_defaults_zero(self):
        bars = counters_to_bars([("g", "e", {})], "nope")
        assert bars == [("g", "e", 0.0)]
