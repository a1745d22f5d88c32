"""Schema check for the benchmark reports (CI smoke jobs).

Dispatches on the report's ``table`` field — ``table2-rdfs``
(BENCH_table2.json, inference times), ``serving`` (BENCH_serving.json,
server latency/QPS) or ``hybrid-closure`` (BENCH_hybrid.json, memsim
counters plus the full-vs-hybrid resident-closure comparison) — and
validates in two layers:

1. **Structural invariants** — the assertions the smoke job has always
   made (records present, inferray cells infer something).
2. **Baseline schema diff** — the fresh report's key structure is
   compared against the committed baseline report, so a bench-harness
   refactor that silently drops a section or renames a field fails CI
   instead of rotting the bench trajectory.

Usage:
    python benchmarks/check_bench_schema.py FRESH.json [--baseline BENCH_table2.json]
    python benchmarks/check_bench_schema.py FRESH.json --baseline BENCH_serving.json
"""

import argparse
import json
import sys


def _schema(value, path="$"):
    """The key structure of a JSON value, as a set of typed paths.

    Lists are schema'd through their first element (records in one
    report section are homogeneous); scalars reduce to their type name,
    with int/float unified (a ``speedup`` may serialize as either).
    """
    if isinstance(value, dict):
        paths = {path + "{}"}
        for key, item in value.items():
            paths |= _schema(item, f"{path}.{key}")
        return paths
    if isinstance(value, list):
        paths = {path + "[]"}
        if value:
            paths |= _schema(value[0], path + "[*]")
        return paths
    if isinstance(value, bool):
        return {f"{path}:bool"}
    if isinstance(value, (int, float)):
        return {f"{path}:number"}
    if value is None:
        return {f"{path}:null"}
    return {f"{path}:{type(value).__name__}"}


def _normalize(paths):
    """Drop value-level type suffixes where null/number may alternate
    (timeouts serialize measured fields as null)."""
    out = set()
    for p in paths:
        for suffix in (":null", ":number"):
            if p.endswith(suffix):
                p = p[: -len(suffix)] + ":value"
                break
        out.add(p)
    return out


def _dynamic_key(path):
    """Paths keyed by data-dependent names are compared per-section,
    not literally: backend legs are keyed by backend name."""
    return ".backends." in path


def _check_latency_block(block, context):
    for key in ("n", "p50_ms", "p99_ms", "mean_ms", "qps", "errors"):
        assert key in block, (context, key, sorted(block))
    assert block["n"] > 0, (context, "no requests completed")
    assert block["errors"] == 0, (context, block["errors"])
    assert block["p50_ms"] > 0, (context, block)
    assert block["p99_ms"] >= block["p50_ms"], (context, block)
    assert block["qps"] > 0, (context, block)


def check_serving_structure(report):
    assert report["table"] == "serving", report.get("table")
    config = report["config"]
    for key in ("readers", "writers", "queue_depth", "ruleset", "backend"):
        assert key in config, (key, sorted(config))

    phases = report["phases"]
    assert set(phases) >= {"read_only", "mixed"}, sorted(phases)
    _check_latency_block(phases["read_only"]["read"], "read_only.read")
    assert "write" not in phases["read_only"], "read-only phase wrote"
    _check_latency_block(phases["mixed"]["read"], "mixed.read")
    _check_latency_block(phases["mixed"]["write"], "mixed.write")
    assert phases["mixed"]["write"]["rejected_429"] >= 0

    server = report["server"]
    for key in ("epoch_final", "n_triples_final", "flush", "queue"):
        assert key in server, (key, sorted(server))
    flush = server["flush"]
    # The mixed phase wrote, so the writer must have flushed — and
    # coalescing means flushes never exceed mutations.
    assert flush["flushes"] >= 1, flush
    assert flush["failures"] == 0, flush
    assert flush["coalesced_mutations"] >= flush["flushes"], flush
    assert server["epoch_final"] >= 2, server["epoch_final"]
    queue = server["queue"]
    assert queue["depth"] == 0, "queue not drained before sampling"
    assert queue["enqueued_total"] >= flush["coalesced_mutations"], (
        queue,
        flush,
    )
    return phases["read_only"]["read"]["n"] + phases["mixed"]["read"]["n"]


def check_hybrid_structure(report):
    assert report["table"] == "hybrid-closure", report.get("table")
    memsim = report["memsim"]
    assert memsim, "no memsim rows emitted"
    for row in memsim:
        for key in ("chain", "engine", "inferred", "counters"):
            assert key in row, (key, sorted(row))
    inferray = [r for r in memsim if r["engine"] == "inferray"]
    assert inferray, "no inferray memsim rows"
    assert all(
        r["bytes_per_triple"] and r["bytes_per_triple"] > 0 for r in inferray
    ), inferray

    hybrid = report["hybrid"]
    for key in ("dataset", "modes", "answers_match", "comparison"):
        assert key in hybrid, (key, sorted(hybrid))
    assert hybrid["answers_match"] is True, "hybrid answers diverge from full"
    modes = hybrid["modes"]
    assert set(modes) == {"full", "hybrid"}, sorted(modes)
    for mode, row in modes.items():
        for key in (
            "stored_triples",
            "entailed_triples",
            "memory_bytes",
            "bytes_per_triple",
            "flush_seconds",
            "absorbed_rules",
        ):
            assert key in row, (mode, key, sorted(row))
    full, hyb = modes["full"], modes["hybrid"]
    # The point of the mode: same entailed closure from a smaller,
    # cheaper resident store.
    assert hyb["entailed_triples"] == full["entailed_triples"], modes
    assert hyb["stored_triples"] < full["stored_triples"], modes
    assert hyb["bytes_per_triple"] < full["bytes_per_triple"], modes
    assert hyb["flush_seconds"] < full["flush_seconds"], modes
    assert hyb["absorbed_rules"] > 0, modes
    comparison = hybrid["comparison"]
    for key in (
        "stored_triples_ratio",
        "bytes_per_triple_ratio",
        "flush_speedup",
    ):
        assert key in comparison, (key, sorted(comparison))
        assert comparison[key] is not None and comparison[key] > 0, comparison

    check_backends_section(report["backends"])
    return len(memsim)


#: The compressed backend must keep the resident closure at least this
#: much smaller than the flat baseline on every memory-curve dataset.
COMPRESSION_RATIO_FLOOR = 4.0


def check_backends_section(backends):
    """Gates for the kernel-backend memory-curve section.

    The two hard promises of the compressed backend: closures at least
    :data:`COMPRESSION_RATIO_FLOOR` times smaller than the flat
    baseline, and **byte-identical answers** — every backend leg of a
    dataset must report the same closure hash.
    """
    for key in ("ruleset", "baseline_backend", "datasets"):
        assert key in backends, (key, sorted(backends))
    assert backends["datasets"], "no backend memory-curve datasets"
    for row in backends["datasets"]:
        for key in ("dataset", "scale", "n_asserted", "backends",
                    "comparison"):
            assert key in row, (row.get("dataset"), key, sorted(row))
        legs = row["backends"]
        assert "compressed" in legs, (row["dataset"], sorted(legs))
        assert backends["baseline_backend"] in legs, (
            row["dataset"], sorted(legs),
        )
        hashes = set()
        for backend, leg in legs.items():
            for key in (
                "n_triples", "resident_bytes", "bytes_per_triple",
                "compression_ratio", "wall_seconds", "answers_sha256",
            ):
                assert key in leg, (row["dataset"], backend, key)
            assert leg["n_triples"] > 0, (row["dataset"], backend)
            assert leg["resident_bytes"] > 0, (row["dataset"], backend)
            hashes.add(leg["answers_sha256"])
        comparison = row["comparison"]
        assert comparison["answers_match"] is True, (
            f"{row['dataset']}: backend closures diverge"
        )
        assert len(hashes) == 1, (
            f"{row['dataset']}: backend closure hashes diverge: {hashes}"
        )
        assert comparison["resident_ratio"] is not None and (
            comparison["resident_ratio"] >= COMPRESSION_RATIO_FLOOR
        ), (
            f"{row['dataset']}: compressed closure only "
            f"{comparison['resident_ratio']}x smaller than "
            f"{comparison['baseline']} (floor {COMPRESSION_RATIO_FLOOR}x)"
        )


def check_structure(report):
    assert report["table"] == "table2-rdfs", report.get("table")
    results = report["results"]
    assert results, "no benchmark records emitted"
    for record in results:
        for key in ("dataset", "backend", "ruleset", "seconds", "n_inferred"):
            assert key in record, (key, record)
    inferray = [r for r in results if r["engine"] == "inferray"]
    assert inferray, "no inferray cells"
    assert all(
        r["n_inferred"] > 0 for r in inferray if not r["timeout"]
    ), inferray
    return len(results)


def check_against_baseline(report, baseline):
    fresh = {p for p in _normalize(_schema(report)) if not _dynamic_key(p)}
    base = {p for p in _normalize(_schema(baseline)) if not _dynamic_key(p)}
    missing = base - fresh
    added = fresh - base
    if missing:
        raise AssertionError(
            "report schema lost fields present in the committed "
            f"baseline: {sorted(missing)}"
        )
    return added


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="freshly generated report JSON")
    parser.add_argument(
        "--baseline",
        default="BENCH_table2.json",
        help="committed baseline to schema-diff against "
        "(default: BENCH_table2.json)",
    )
    args = parser.parse_args(argv)
    with open(args.report, encoding="utf-8") as handle:
        report = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert report.get("table") == baseline.get("table"), (
        "report/baseline table mismatch:",
        report.get("table"),
        baseline.get("table"),
    )

    if report.get("table") == "hybrid-closure":
        n_rows = check_hybrid_structure(report)
        added = check_against_baseline(report, baseline)
        comparison = report["hybrid"]["comparison"]
        print(
            f"OK: {n_rows} memsim rows; hybrid stores "
            f"{comparison['stored_triples_ratio']:.2f}x the triples at "
            f"{comparison['bytes_per_triple_ratio']:.2f}x the "
            f"bytes/triple, flush speedup "
            f"{comparison['flush_speedup']:.2f}x; answers match"
        )
        for row in report["backends"]["datasets"]:
            cmp_row = row["comparison"]
            print(
                f"    {row['dataset']}-{row['scale']}: compressed "
                f"{cmp_row['resident_ratio']:.2f}x smaller than "
                f"{cmp_row['baseline']} at {cmp_row['wall_ratio']:.2f}x "
                f"wall; answer hashes identical"
            )
        if added:
            print(f"note: fields added vs baseline: {sorted(added)}")
        return 0

    if report.get("table") == "serving":
        n_reads = check_serving_structure(report)
        added = check_against_baseline(report, baseline)
        mixed = report["phases"]["mixed"]
        flush = report["server"]["flush"]
        print(
            f"OK: {n_reads} reads; mixed read p50 "
            f"{mixed['read']['p50_ms']:.2f} ms / p99 "
            f"{mixed['read']['p99_ms']:.2f} ms @ "
            f"{mixed['read']['qps']:.0f} q/s; "
            f"{flush['flushes']} flushes coalescing "
            f"{flush['coalesced_mutations']} mutations"
        )
        if added:
            print(f"note: fields added vs baseline: {sorted(added)}")
        return 0

    n_records = check_structure(report)
    added = check_against_baseline(report, baseline)
    print(f"OK: {n_records} records")
    if added:
        print(f"note: fields added vs baseline: {sorted(added)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
