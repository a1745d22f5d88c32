#!/usr/bin/env python3
"""Pipeline ledger: one benchmark from an N-Triples file to an HTTP answer.

    python benchmarks/pipeline/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke] [--runs N]
        [--json PATH] [--work-dir DIR]
    python benchmarks/pipeline/run.py --compare A.json B.json

Builds each workload from its seed, runs it against the default
configuration with every ``REPRO_*`` variable scrubbed, checks the
outputs, and prints every metric by name with its unit.  ``--trace 0``
(default) reports the end-to-end metrics; ``--trace 1`` walks the same
path layer by layer, reports the per-layer metrics and writes
``trace-<workload>.json``.  After each workload the last line printed is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See README.md beside this file for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SMOKE_SCALE = 1 / 25
SMOKE_SECONDS = 0.8


def prepare_environment() -> str:
    """Scrub every REPRO_* knob and make ``repro`` importable from the
    checkout's own ``src``; returns numpy's version.

    Must run before anything imports ``repro``: the package reads its
    environment defaults at import and at construction time, and the
    benchmark measures the default configuration, not the caller's.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"pipeline bench: {source}/repro not found — run from a checkout "
            "of the repository, the benchmark measures its source tree"
        )
    sys.path.insert(0, str(source))
    try:
        import numpy
    except ImportError:
        raise SystemExit(
            "pipeline bench: numpy is not importable; the default "
            "configuration (backend=auto → numpy) cannot be measured"
        )
    return numpy.__version__


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time the measured stages share "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="1/25 of the default sizes and a sub-second "
                             "budget: checks the harness, not the system")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds SEED, SEED+1, …")
    parser.add_argument("--json", metavar="PATH",
                        help="append every run to this report file")
    parser.add_argument("--work-dir", metavar="DIR",
                        help="where inputs, stores, WALs and traces go "
                             "(default: a fresh directory beside run.py)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child-ingest", nargs=2, metavar=("FILE", "RULESET"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def print_run(run, traced: bool, described: dict) -> None:
    print(f"== {run.workload}  seed={run.seed} scale={run.scale:g} "
          f"seconds={run.seconds:g} {'traced' if traced else 'untraced'}")
    print("   " + " ".join(f"{k}={v}" for k, v in run.resolved.items()))
    for name, entry in described.items():
        q = entry["quartiles"]
        spread = f"q1={q[0]:.5g} q3={q[1]:.5g}" if q else ""
        print(f"   {name:<34} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"n={entry['n']:<5} {spread}")
    tally = run.tally
    print(f"   operations: {tally.attempted} attempted, {tally.failed} failed")
    for mismatch in tally.mismatches:
        print(f"   MISMATCH: {mismatch}")


def append_report(path: str, record: dict) -> None:
    document = {"runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(HERE))
    import report

    if args.compare:
        return report.compare(*args.compare)

    numpy_version = prepare_environment()
    import layers
    import stages
    from speed import Timings
    from workloads import WORKLOADS

    if args.child_ingest:
        return stages.child_ingest(*args.child_ingest)

    declaration = report.load_declaration()
    traced = bool(args.trace or args.traced)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else declaration["run_seconds"]
    names = args.workload or [w["name"] for w in declaration["workloads"]]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"pipeline bench: unknown workload(s) {unknown}; "
                         f"known: {sorted(WORKLOADS)}")

    # Everything a run writes goes into a directory of its own under the
    # base, removed when the run ends (a WAL or checkpoint left behind
    # would be replayed by the next run's server); traces stay in the base.
    if args.work_dir is None:
        base = str(HERE / "_work")
    else:
        base = os.path.abspath(args.work_dir)
    os.makedirs(base, exist_ok=True)

    all_correct = True
    for offset in range(args.runs):
        for name in names:
            run = stages.Run(
                workload=name,
                seed=args.seed + offset,
                seconds=seconds,
                scale=SMOKE_SCALE if args.smoke else 1.0,
                work_dir=tempfile.mkdtemp(prefix=f"{name}-", dir=base),
                timings=Timings(normalise=not traced),
            )
            run.resolved.update(
                python=platform.python_version(),
                numpy=numpy_version,
                nproc=os.cpu_count(),
            )
            try:
                if traced:
                    layers.run_traced(run, base)
                else:
                    stages.run_untraced(run)
            finally:
                shutil.rmtree(run.work_dir, ignore_errors=True)
            report.check_names(run.metrics, "per_layer" if traced else "end_to_end")
            described = run.metrics.describe()
            print_run(run, traced, described)
            tally = run.tally
            all_correct = all_correct and tally.correct
            if args.json:
                append_report(args.json, {
                    "workload": name, "seed": run.seed, "traced": traced,
                    "seconds": seconds, "scale": run.scale,
                    "resolved": run.resolved, "metrics": described,
                    "correct": tally.correct,
                    "attempted": tally.attempted, "failed": tally.failed,
                    "mismatches": tally.mismatches,
                })
            print(json.dumps({
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    n: {"value": e["value"], "unit": e["unit"]}
                    for n, e in described.items()
                },
            }), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
