"""LatencyWindow percentiles and the Prometheus text rendering."""

from repro.serving import LatencyWindow, ServingMetrics


def test_latency_window_empty():
    window = LatencyWindow()
    assert window.percentile(0.5) is None
    assert window.mean is None
    assert window.count == 0


def test_latency_window_percentiles():
    window = LatencyWindow(size=100)
    for value in range(1, 101):  # 1..100
        window.observe(float(value))
    assert window.percentile(0.5) == 50.0
    assert window.percentile(0.99) == 99.0
    assert window.percentile(1.0) == 100.0
    assert window.percentile(0.0) == 1.0
    assert window.count == 100
    assert window.mean == 50.5


def test_latency_window_ring_evicts_old_observations():
    window = LatencyWindow(size=4)
    for value in (100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
        window.observe(value)
    assert window.percentile(0.99) == 1.0  # the 100s rolled out
    assert window.count == 8  # lifetime count keeps growing
    assert window.total == 404.0


def test_flush_summary_and_batching_stats():
    metrics = ServingMetrics()
    assert metrics.flush_summary()["mean_batch"] is None
    metrics.record_flush(0.1, batch=4, triples=40)
    metrics.record_flush(0.3, batch=2, triples=10)
    summary = metrics.flush_summary()
    assert summary["flushes"] == 2
    assert summary["coalesced_mutations"] == 6
    assert summary["flushed_triples"] == 50
    assert summary["mean_batch"] == 3.0
    assert summary["max_batch"] == 4
    assert summary["p50_seconds"] == 0.1
    assert summary["p99_seconds"] == 0.3


def test_render_prometheus_text():
    metrics = ServingMetrics()
    metrics.count_request("query")
    metrics.count_request("query")
    metrics.count_request("add")
    metrics.rejected_total = 3
    metrics.record_flush(0.25, batch=5, triples=50)
    text = metrics.render({"epoch": 7, "queue_depth": 2, "draining": False})
    lines = dict(
        line.rsplit(" ", 1) for line in text.strip().splitlines()
    )
    assert lines["repro_serving_epoch"] == "7"
    assert lines["repro_serving_queue_depth"] == "2"
    assert lines["repro_serving_draining"] == "0"
    assert lines['repro_serving_requests_total{verb="query"}'] == "2"
    assert lines['repro_serving_requests_total{verb="add"}'] == "1"
    assert lines["repro_serving_rejected_total"] == "3"
    assert lines["repro_serving_flush_total"] == "1"
    assert lines['repro_serving_flush_latency_seconds{quantile="0.5"}'] == "0.25"
    assert lines["repro_serving_flush_latency_seconds_count"] == "1"
    # Windows with no observations render no quantile lines at all.
    assert 'read_latency_seconds{quantile="0.5"}' not in text
