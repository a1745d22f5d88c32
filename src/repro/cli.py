"""Command-line interface over the :class:`repro.Store` facade.

Usage (installed as a module; mirrors the original Inferray's
stand-alone reasoner, extended with the serving-grade store verbs):

    python -m repro infer data.nt --ruleset rdfs-plus -o closed.nt
    python -m repro stats data.nt --ruleset rdfs-default
    python -m repro rules --ruleset rho-df
    python -m repro save data.nt -o closure.store
    python -m repro load closure.store -o closed.nt
    python -m repro query closure.store "?s rdf:type ?t"
    python -m repro query data.nt "?x rdfs:subClassOf ?y"

``query`` and ``load`` accept either a serialized store file (from
``save`` — reloaded in O(read), no inference re-run) or a plain
N-Triples/Turtle file (materialized on the fly).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.engine import MATERIALIZE_MODES
from .core.scheduler import PARALLEL_MODES
from .core.store_api import Store, StoreFormatError, is_store_file
from .kernels import BACKEND_NAMES, KernelUnavailableError
from .query.bgp import BGPSyntaxError, parse_bgp
from .rdf.ntriples import write_file
from .rules.rulesets import RULESET_NAMES, ruleset_rule_names
from .rules.table5 import BY_NAME


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help="kernel backend for the pair-array hot paths "
        "(default: auto, which is numpy unless $REPRO_KERNELS names another)",
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="workers for the parallel rule scheduler "
        "(0 = all cores; default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--parallel-mode",
        choices=PARALLEL_MODES,
        default=None,
        help="executor for --workers > 1: 'thread' always uses the "
        "thread pool; 'auto' lets the scheduler's cost model pick "
        "sequential/thread per flush from the estimated work and the "
        "kernel backend (default: $REPRO_PARALLEL_MODE or auto)",
    )


def _add_ruleset_argument(
    parser: argparse.ArgumentParser, *, default: Optional[str] = "rdfs-default"
) -> None:
    parser.add_argument(
        "--ruleset",
        choices=RULESET_NAMES,
        default=default,
        help="rule fragment to materialize under (default: rdfs-default)",
    )


def _add_materialize_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--materialize",
        choices=MATERIALIZE_MODES,
        default=None,
        help="entailment mode: 'full' stores the whole closure, "
        "'hybrid' absorbs the hierarchy rules into the LiteMat-style "
        "interval encoding and answers them at query time "
        "(default: $REPRO_MATERIALIZE or full)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Inferray reproduction: forward-chaining RDF materialization"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    infer_cmd = commands.add_parser(
        "infer", help="materialize an N-Triples file"
    )
    infer_cmd.add_argument("input", help="input N-Triples file")
    infer_cmd.add_argument(
        "-o",
        "--output",
        help="write the closure as N-Triples (default: stdout)",
    )
    infer_cmd.add_argument(
        "--inferred-only",
        action="store_true",
        help="emit only the derived triples, not the input",
    )
    _add_ruleset_argument(infer_cmd)
    _add_materialize_argument(infer_cmd)
    _add_backend_argument(infer_cmd)
    _add_workers_argument(infer_cmd)
    infer_cmd.add_argument(
        "--timeout", type=float, default=None,
        help="abort after this many seconds",
    )

    stats_cmd = commands.add_parser(
        "stats", help="materialize and print statistics only"
    )
    stats_cmd.add_argument("input", help="input N-Triples file")
    _add_ruleset_argument(stats_cmd)
    _add_materialize_argument(stats_cmd)
    _add_backend_argument(stats_cmd)
    _add_workers_argument(stats_cmd)

    rules_cmd = commands.add_parser(
        "rules", help="list the rules of a fragment (paper Table 5)"
    )
    _add_ruleset_argument(rules_cmd)

    save_cmd = commands.add_parser(
        "save",
        help="materialize a dataset and serialize the closed store",
    )
    save_cmd.add_argument("input", help="input N-Triples/Turtle file")
    save_cmd.add_argument(
        "-o", "--output", required=True,
        help="serialized store file to write",
    )
    _add_ruleset_argument(save_cmd)
    _add_materialize_argument(save_cmd)
    _add_backend_argument(save_cmd)
    _add_workers_argument(save_cmd)

    load_cmd = commands.add_parser(
        "load",
        help="reload a serialized store (no inference) and inspect it",
    )
    load_cmd.add_argument("input", help="store file written by 'save'")
    load_cmd.add_argument(
        "-o", "--output",
        help="also dump the closure as N-Triples to this path",
    )
    load_cmd.add_argument(
        "--inferred-only",
        action="store_true",
        help="with -o: dump only the derived triples",
    )
    _add_materialize_argument(load_cmd)
    _add_backend_argument(load_cmd)

    query_cmd = commands.add_parser(
        "query",
        help="run a BGP query over a store file or a dataset",
    )
    query_cmd.add_argument(
        "input",
        help="serialized store (from 'save') or N-Triples/Turtle file",
    )
    query_cmd.add_argument(
        "pattern",
        nargs="+",
        help="BGP pattern(s), e.g. '?s rdf:type ?t' "
        "(several arguments are joined with ' . ')",
    )
    query_cmd.add_argument(
        "--limit", type=int, default=None,
        help="print at most this many solutions",
    )
    _add_ruleset_argument(query_cmd, default=None)
    _add_materialize_argument(query_cmd)
    _add_backend_argument(query_cmd)
    _add_workers_argument(query_cmd)

    serve_cmd = commands.add_parser(
        "serve",
        help="serve a dataset or store file over HTTP "
        "(query/add/remove/stats/health/metrics)",
    )
    serve_cmd.add_argument(
        "input",
        help="serialized store (from 'save') or N-Triples/Turtle file",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks an ephemeral one)",
    )
    serve_cmd.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="pending write batches before 429 back-pressure",
    )
    serve_cmd.add_argument(
        "--retained-epochs", type=int, default=8, metavar="N",
        help="snapshot epochs kept pinnable via ?epoch=N",
    )
    serve_cmd.add_argument(
        "--flush-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock bound per materialization flush "
        "(failed flushes keep the writes queued and retry)",
    )
    serve_cmd.add_argument(
        "--read-workers", type=int, default=4, metavar="N",
        help="threads answering BGP queries",
    )
    serve_cmd.add_argument(
        "--read-timeout", type=float, default=30.0, metavar="SECONDS",
        help="slowloris guard: a started request must finish arriving "
        "within this window or gets 408 (0 disables)",
    )
    serve_cmd.add_argument(
        "--wal", default=None, metavar="PATH",
        help="write-ahead log: append each accepted mutation here before "
        "acknowledging; replayed on boot so kill -9 loses nothing",
    )
    serve_cmd.add_argument(
        "--wal-fsync", default="always", choices=["always", "batch", "never"],
        help="WAL fsync policy: per append (always), at checkpoints "
        "(batch), or left to the OS (never)",
    )
    serve_cmd.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="where checkpoints save the store "
        "(default: <WAL path>.checkpoint); loaded instead of INPUT "
        "on boot when present",
    )
    serve_cmd.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint (atomic save + WAL truncation) after every "
        "N-th successful flush",
    )
    _add_ruleset_argument(serve_cmd, default=None)
    _add_materialize_argument(serve_cmd)
    _add_backend_argument(serve_cmd)
    _add_workers_argument(serve_cmd)

    return parser


def _open_store(args: argparse.Namespace) -> Store:
    """A Store from either a serialized store or a raw dataset file."""
    ruleset = getattr(args, "ruleset", None)
    workers = getattr(args, "workers", None)
    parallel_mode = getattr(args, "parallel_mode", None)
    materialize = getattr(args, "materialize", None)
    if is_store_file(args.input):
        options = {
            "backend": args.backend,
            "workers": workers,
            "parallel_mode": parallel_mode,
        }
        if ruleset:
            options["ruleset"] = ruleset
        if materialize:
            options["materialize"] = materialize
        return Store.load(args.input, **options)
    return Store.from_file(
        args.input,
        ruleset=ruleset or "rdfs-default",
        backend=args.backend,
        workers=workers,
        parallel_mode=parallel_mode,
        materialize=materialize,
    )


def _run_infer(args: argparse.Namespace) -> int:
    with Store(
        ruleset=args.ruleset,
        backend=args.backend,
        timeout_seconds=args.timeout,
        workers=args.workers,
        parallel_mode=args.parallel_mode,
        materialize=args.materialize,
    ) as store:
        loaded = store.add_file(args.input)
        store.materialize()
        triples = (
            store.inferred() if args.inferred_only else store.triples()
        )
        if args.output:
            count = write_file(triples, args.output)
            print(
                f"{args.input}: {loaded} asserted -> "
                f"{store.n_triples} total; "
                f"wrote {count} triples to {args.output}",
                file=sys.stderr,
            )
        else:
            for triple in triples:
                print(triple.n3())
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    store = Store(
        ruleset=args.ruleset,
        backend=args.backend,
        workers=args.workers,
        parallel_mode=args.parallel_mode,
        materialize=args.materialize,
    )
    loaded = store.add_file(args.input)
    try:
        stats = store.materialize()
    finally:
        store.close()
    print(f"kernel backend:    {store.engine.kernels.name}")
    print(f"materialize mode:  {store.materialize_mode} "
          f"({len(store.absorbed_rules)} absorbed rule(s))")
    if store.hybrid_fallback:
        print(f"hybrid fallback:   {store.hybrid_fallback}")
    print(f"workers:           {stats.workers} "
          f"({stats.parallel_mode}, {stats.n_waves} scheduler wave(s))")
    if stats.parallel_decision is not None:
        print(f"executor pick:     {stats.parallel_decision['reason']}")
    # In hybrid mode the entailed closure is larger than what is
    # stored: report the entailed counts (what queries answer), plus
    # the reduced resident closure.
    n_entailed = store.n_triples
    print(f"input triples:     {loaded}")
    print(f"inferred triples:  {n_entailed - stats.n_input}")
    print(f"total triples:     {n_entailed}")
    if stats.n_total != n_entailed:
        print(f"stored triples:    {stats.n_total} (reduced closure)")
    print(f"iterations:        {stats.iterations}")
    print(f"closure pairs:     {stats.closure_pairs}")
    print(f"wall time:         {stats.total_seconds * 1000:.1f} ms")
    print(f"  closure:         {stats.closure_seconds * 1000:.1f} ms")
    print(f"  rule firing:     {stats.inference_seconds * 1000:.1f} ms")
    print(f"  merge/dedup:     {stats.merge_seconds * 1000:.1f} ms")
    print(f"throughput:        {stats.triples_per_second:,.0f} inferred/s")
    if stats.workers > 1:
        print(
            f"rule-firing speedup: {stats.parallel_speedup:.2f}x "
            f"({stats.rule_busy_seconds * 1000:.1f} ms busy across "
            f"{stats.workers} {stats.parallel_mode} workers)"
        )
    if stats.per_rule:
        print("per-rule emissions (raw, pre-dedup):")
        for name, count in sorted(
            stats.per_rule.items(), key=lambda item: -item[1]
        ):
            print(f"  {name:12s} {count}")
    if stats.per_iteration:
        print("per-iteration (raw derived -> new after merge, merge time):")
        for number, record in enumerate(stats.per_iteration, 1):
            print(
                f"  {number:<4d} {record.derived:>10d} -> {record.new:<10d} "
                f"{record.merge_seconds * 1000:.1f} ms"
            )
    return 0


def _run_rules(args: argparse.Namespace) -> int:
    names = ruleset_rule_names(args.ruleset)
    print(f"{args.ruleset}: {len(names)} rules")
    for name in names:
        entry = BY_NAME[name]
        print(f"  #{entry.number:<3d} {name:12s} class={entry.paper_class}")
    return 0


def _run_save(args: argparse.Namespace) -> int:
    store = Store(
        ruleset=args.ruleset,
        backend=args.backend,
        workers=args.workers,
        parallel_mode=args.parallel_mode,
        materialize=args.materialize,
    )
    loaded = store.add_file(args.input)
    try:
        stats = store.materialize()
        written = store.save(args.output)
    finally:
        store.close()
    print(
        f"{args.input}: {loaded} asserted -> {store.n_triples} total "
        f"({store.n_triples - stats.n_input} inferred); wrote "
        f"{written:,} bytes to {args.output}",
        file=sys.stderr,
    )
    return 0


def _run_load(args: argparse.Namespace) -> int:
    if not os.path.exists(args.input):
        print(f"repro: {args.input}: no such file", file=sys.stderr)
        return 2
    if not is_store_file(args.input):
        print(
            f"repro: {args.input} is not a serialized store "
            "(write one with 'repro save')",
            file=sys.stderr,
        )
        return 2
    load_options = {"backend": args.backend}
    if args.materialize:
        load_options["materialize"] = args.materialize
    store = Store.load(args.input, **load_options)
    if args.output:
        try:
            triples = (
                store.inferred() if args.inferred_only else store.triples()
            )
            count = write_file(triples, args.output)
        finally:
            store.close()
        print(
            f"{args.input}: wrote {count} triples to {args.output}",
            file=sys.stderr,
        )
        return 0
    try:
        n_asserted = len(store.asserted())
        n_triples = store.n_triples
        memory = store.memory_bytes()
    finally:
        store.close()
    print(f"store file:        {args.input}")
    print(f"ruleset:           {store.engine.ruleset_name}")
    print(f"materialize mode:  {store.materialize_mode} "
          f"({len(store.absorbed_rules)} absorbed rule(s))")
    print(f"kernel backend:    {store.engine.kernels.name}")
    print(f"total triples:     {n_triples}")
    print(f"asserted triples:  {n_asserted}")
    print(f"inferred triples:  {n_triples - n_asserted}")
    print(f"memory:            {memory:,} bytes")
    print(f"materialized:      {store.engine.is_materialized}")
    return 0


def _run_query(args: argparse.Namespace) -> int:
    try:
        patterns = parse_bgp(" . ".join(args.pattern))
    except BGPSyntaxError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    store = _open_store(args)
    variables = []
    for pattern in patterns:
        for var in pattern.variables():
            if var not in variables:
                variables.append(var)
    try:
        solutions = store.query(patterns)
    finally:
        store.close()
    if args.limit is not None:
        solutions = solutions[: args.limit]
    if variables:
        print("\t".join(f"?{var.name}" for var in variables))
        for solution in solutions:
            print(
                "\t".join(solution[var.name].n3() for var in variables)
            )
    else:
        # Fully ground pattern: ASK semantics.
        print("true" if solutions else "false")
    print(f"{len(solutions)} solution(s)", file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from .serving import WriteAheadLog, run as run_server

    wal = None
    checkpoint_path = args.checkpoint
    if args.wal:
        checkpoint_path = checkpoint_path or f"{args.wal}.checkpoint"
        if os.path.exists(checkpoint_path) and is_store_file(
            checkpoint_path
        ):
            # The checkpoint already folds in every mutation the WAL
            # truncated away; booting from INPUT instead would silently
            # roll those acknowledged writes back.
            print(
                f"repro: booting from checkpoint {checkpoint_path} "
                f"(instead of {args.input})",
                file=sys.stderr,
            )
            args = argparse.Namespace(**vars(args))
            args.input = checkpoint_path
        wal = WriteAheadLog(args.wal, fsync_policy=args.wal_fsync)
        if wal.depth:
            print(
                f"repro: WAL {args.wal} holds {wal.depth} "
                "un-checkpointed mutation(s); replaying on boot",
                file=sys.stderr,
            )
    store = _open_store(args)
    if args.flush_timeout is not None:
        from dataclasses import replace

        store.config = replace(
            store.config, timeout_seconds=args.flush_timeout
        )
    store.materialize()
    print(
        f"repro: closure ready ({store.n_triples} triples, "
        f"ruleset={store.engine.ruleset_name}, "
        f"backend={store.engine.kernels.name})",
        file=sys.stderr,
    )

    def announce(host: str, port: int) -> None:
        print(f"repro: serving on http://{host}:{port}", file=sys.stderr)

    return run_server(
        store,
        host=args.host,
        port=args.port,
        announce=announce,
        queue_depth=args.queue_depth,
        retained_epochs=args.retained_epochs,
        read_workers=args.read_workers,
        read_timeout=args.read_timeout,
        wal=wal,
        checkpoint_path=checkpoint_path,
        checkpoint_every=args.checkpoint_every,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "infer": _run_infer,
        "stats": _run_stats,
        "rules": _run_rules,
        "save": _run_save,
        "load": _run_load,
        "query": _run_query,
        "serve": _run_serve,
    }
    try:
        return handlers[args.command](args)
    except (KernelUnavailableError, StoreFormatError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"repro: {error.filename or error}: no such file",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, the
        # POSIX-CLI convention.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
