"""Smoke test of the pipeline benchmark's harness (tier-1 collects it).

Runs ``run.py --smoke`` — 1/25 of the benchmark's sizes, a sub-second
time budget — and checks the harness, not the numbers: every declared
metric is reported on every workload under its declared unit, the result
line has the contract's shape, spans are well formed, ``--compare``
tells a regression from noise, timings are divided by the machine-speed
yardstick, and ``BENCHMARK.json`` is within the limits the benchmark
driver refuses files outside of.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def smoke(tmp_path, *args):
    report = tmp_path / "report.json"
    out = bench("--smoke", "--work-dir", str(tmp_path), "--json", str(report),
                *args)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    return out, json.loads(report.read_text())["runs"]


def declared(kind):
    return {entry["name"]: entry for entry in DECLARATION[kind]}


def check_runs(runs, kind):
    want = declared(kind)
    assert [r["workload"] for r in runs] == [
        w["name"] for w in DECLARATION["workloads"]
    ]
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["mismatches"]
        assert run["attempted"] >= 1
        assert set(run["metrics"]) == set(want), run["workload"]
        for name, entry in run["metrics"].items():
            assert NAME.fullmatch(name)
            assert entry["unit"] == want[name]["unit"]
            assert isinstance(entry["value"], (int, float))
            assert entry["n"] >= 1
        for key in ("backend", "materialize_mode", "parallel_mode",
                    "python", "numpy", "nproc"):
            assert key in run["resolved"]
        assert run["resolved"]["backend"] == "numpy"
        assert run["resolved"]["materialize_mode"] == "full"


def result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_untraced_smoke_reports_every_end_to_end_metric(tmp_path):
    out, runs = smoke(tmp_path)
    check_runs(runs, "end_to_end")
    results = result_lines(out.stdout)
    assert len(results) == len(DECLARATION["workloads"])
    assert out.stdout.rstrip().splitlines()[-1].startswith('{"correct"')
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(declared("end_to_end"))
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"}
            assert entry["value"] > 0  # end-to-end metrics are never 0
    leftovers = [p.name for p in tmp_path.iterdir() if p.is_dir()]
    assert not leftovers, f"runs left their directories behind: {leftovers}"


def test_traced_smoke_reports_every_per_layer_metric_and_spans(tmp_path):
    _, runs = smoke(tmp_path, "--traced")
    check_runs(runs, "per_layer")
    for run in runs:
        assert run["metrics"]["trace.unattributed_share"]["value"] <= 0.10
        trace = json.loads(
            (tmp_path / f"trace-{run['workload']}.json").read_text()
        )
        spans = {span["id"]: span for span in trace["spans"]}
        assert len(spans) == len(trace["spans"]), "span ids repeat"
        layers = {name.split(".")[0] for name in declared("per_layer")}
        for span in spans.values():
            assert span["start"] <= span["end"]
            assert span["op"] >= 1
            assert span["name"].split(".")[0] in layers | {"pipeline"}
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["op"] == span["op"]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"] + 1e-9
        names = {span["name"] for span in spans.values()}
        assert {"rdf.parse", "dictionary.encode", "store.commit",
                "core.materialize", "closure.prepass", "rules.fire",
                "store.merge", "query.eval", "serving.http_read",
                "serving.http_write"} <= names


def test_benchmark_json_is_within_the_drivers_limits():
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["benchmarks/pipeline"]
    assert DECLARATION["command"][-1] == "benchmarks/pipeline/run.py"
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    names = []
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in DECLARATION["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in DECLARATION["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = declared("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_compare_tells_a_regression_from_noise(tmp_path):
    def runs(values_by_metric):
        n = len(next(iter(values_by_metric.values())))
        return {"runs": [
            {"workload": "ingest-bsbm", "traced": False,
             "metrics": {m: {"value": v[i]} for m, v in values_by_metric.items()}}
            for i in range(n)
        ]}

    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    (tmp_path / "a.json").write_text(json.dumps(runs({
        "ingest_s": steady, "closure_s": steady, "load_s": steady,
    })))
    (tmp_path / "b.json").write_text(json.dumps(runs({
        "ingest_s": steady,
        "closure_s": [v * 1.6 for v in steady],
        "load_s": [0.5, 1.0, 2.0, 1.5, 0.7],
    })))
    out = bench("--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    verdicts = {line.split()[1]: line for line in out.stdout.splitlines()[1:]}
    assert out.returncode == 1, out.stdout
    assert verdicts["ingest_s"].endswith("unchanged")
    assert verdicts["closure_s"].endswith("REGRESSED")
    assert "unresolved" in verdicts["load_s"]


def test_timings_divide_samples_by_the_yardstick(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import speed

    reading = [2 * speed.REFERENCE_S]
    monkeypatch.setattr(speed, "spin", lambda: reading[0])
    timings = speed.Timings()
    with timings.block():
        timings.record("op", 0.3)
        reading[0] = 4 * speed.REFERENCE_S
    # Machine at a third of the reference speed (mean of the reading
    # before and the one after): the sample is a third of its wall time.
    assert timings.samples("op") == [pytest.approx(0.1)]
    assert timings.machine_speed == pytest.approx(1 / 3)

    wall = speed.Timings(normalise=False)
    with wall.block():
        wall.record("op", 0.3)
    assert wall.samples("op") == [0.3]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "pipeline",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py",
         "--workload", "ingest-bsbm", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert not result_lines(out.stdout)
