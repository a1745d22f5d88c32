"""Unit tests for the benchmark harness and reporting helpers."""

from paper.bench.harness import (
    ENGINE_FACTORIES,
    RunResult,
    format_table,
    run_engine,
)
from paper.bench.reporting import (
    markdown_table,
    results_matrix,
    speedup_summary,
)
from repro.datasets.chains import subclass_chain


class TestRunResult:
    def test_cell_formats_ms(self):
        result = RunResult("e", "d", "r", seconds=1.2345)
        assert result.cell() == "1,234"

    def test_cell_timeout_dash(self):
        result = RunResult("e", "d", "r", seconds=None)
        assert result.cell() == "–"
        assert result.milliseconds is None
        assert result.throughput is None

    def test_throughput(self):
        result = RunResult("e", "d", "r", seconds=2.0, n_inferred=100)
        assert result.throughput == 50.0


class TestRunEngine:
    def test_all_engines_registered(self):
        assert set(ENGINE_FACTORIES) == {
            "inferray",
            "hashjoin",
            "rete",
            "naive",
        }

    def test_inferray_run(self):
        result = run_engine(
            "inferray",
            "rdfs-default",
            subclass_chain(20),
            dataset_name="chain20",
            warmup=0,
            runs=1,
        )
        assert result.seconds is not None
        assert result.n_inferred == 20 * 19 // 2 - 19
        assert result.dataset == "chain20"

    def test_baseline_run(self):
        result = run_engine(
            "hashjoin", "rdfs-default", subclass_chain(10), warmup=0, runs=1
        )
        assert result.seconds is not None
        assert result.n_total == 10 * 9 // 2

    def test_timeout_marks_dash(self):
        result = run_engine(
            "naive",
            "rdfs-default",
            subclass_chain(60),
            timeout_seconds=-1.0,
            warmup=0,
            runs=1,
        )
        assert result.seconds is None
        assert result.cell() == "–"


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(
            ["name", "ms"], [["a", "1"], ["longer", "22"]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_results_matrix_pivots(self):
        results = [
            RunResult("inferray", "d1", "r", 0.5),
            RunResult("rete", "d1", "r", None),
        ]
        text = results_matrix(results)
        assert "500" in text
        assert "–" in text

    def test_speedup_summary(self):
        results = [
            RunResult("inferray", "d", "r", 1.0),
            RunResult("rete", "d", "r", 10.0),
            RunResult("naive", "d", "r", None),
        ]
        lines = speedup_summary(results)
        assert any("10.0x" in line for line in lines)
        assert any("timed out" in line for line in lines)

    def test_markdown_table(self):
        text = markdown_table(["a", "b"], [["1", "2"]])
        assert text.splitlines()[1] == "|---|---|"
