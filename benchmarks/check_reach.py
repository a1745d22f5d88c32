#!/usr/bin/env python3
"""Reach ratchet: every function in ``src/repro`` is called by a user
surface, or is named in ``reach_allow.txt`` with a reason.

    python benchmarks/check_reach.py [--list-unreached]

Runs each user surface as a subprocess with a profiling
``sitecustomize.py`` first on ``PYTHONPATH``: it installs
``sys.setprofile`` / ``threading.setprofile`` hooks that record every
code object entered, and writes the ``src/repro`` ones to a file about
once a second and at exit.  The surfaces:

* the pipeline ledger, ``--smoke`` at ``--trace 0`` and ``--trace 1``
  (its own ``repro serve`` and CLI children run without the hook: the
  ledger gives them a ``PYTHONPATH`` of their own);
* the CLI — ``infer`` under every ruleset × backend × entailment mode,
  ``.nt`` and ``.ttl`` input with lines only the cursor parser reads,
  ``save`` / ``load`` / ``query`` per backend and mode over several
  pattern shapes, ``stats`` and ``rules``;
* ``repro serve``, driven here over ``/health``, ``/stats``,
  ``/metrics``, ``/query`` (GET and POST), ``/add`` and ``/remove``, in
  full mode from a store file (with a WAL and checkpoints, then booted
  again over a torn log), in hybrid mode from an N-Triples file with
  keyed lookups, and in full mode on the python kernels;
* every script in ``examples/``;
* the paper scripts (Tables 1–4, Figures 7–8, both ablations) at
  ``--smoke`` size, as CI runs them.

Functions are listed from the AST of ``src/repro`` and keyed by file,
first line (decorators included) and name, which is how a code object
names itself.  The check fails on a function that is neither reached
nor listed, and on a list entry that names no function.  A listed
function that was reached is reported, not failed: some are reached
in only some runs.

``reach_allow.txt`` holds one ``<reason> <path>::<qualified name>``
line per kept function (``#`` starts a comment); the reasons are the
closed set :data:`REASONS`.  Needs numpy, like the ledger.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW_LIST = HERE / "reach_allow.txt"

#: Why a function no surface reaches is kept.
REASONS = {
    "kernel-contract": "part of the KernelBackend contract (a method, or "
                       "a branch of one) that the surfaces run on some "
                       "backends or id ranges only",
    "test-oracle": "an oracle, or a generated input, the test suites "
                   "check the product against",
    "error-path": "runs only on bad input, after a failed flush, or "
                  "with an injected fault",
    "timing": "reached in only some of three runs",
    "item-1": "awaits ROADMAP item 1 (the thread executor's verdict)",
    "item-2c": "awaits ROADMAP item 2(c) (a hybrid ledger leg)",
    "item-19": "awaits ROADMAP item 19 (the store-file format)",
}

RULESETS = ("rho-df", "rdfs-default", "rdfs-full", "rdfs-plus",
            "rdfs-plus-full")
BACKENDS = ("python", "numpy", "compressed")
MODES = ("full", "hybrid")
BOOT_TIMEOUT = 120.0
#: The paper's tables and figures at their smallest size, as CI runs them.
PAPER_SCRIPTS = (
    "bench_table1_sorting.py", "bench_table2_rdfs.py",
    "bench_table3_rdfsplus.py", "bench_table4_closure.py",
    "bench_fig7_memory_closure.py", "bench_fig8_memory_rdfsplus.py",
    "bench_ablation_closure.py", "bench_ablation_oscache.py",
)

HOOK = '''\
import atexit, os, sys, threading

_codes = set()
_path = os.path.join(
    os.environ["REACH_OUT"], "%d-%s.txt" % (os.getpid(), os.urandom(4).hex())
)
_package = os.environ["REACH_PACKAGE"]


def _profile(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _dump():
    lines = {
        "%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno,
                            code.co_name)
        for code in list(_codes)
        if code.co_filename.startswith(_package)
    }
    with open(_path + ".tmp", "w") as out:
        out.writelines(sorted(lines))
    os.replace(_path + ".tmp", _path)


def _every_second():
    while True:
        threading.Event().wait(1.0)
        _dump()


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
threading.Thread(target=_every_second, daemon=True).start()
'''

Key = Tuple[str, int, str]


# ----------------------------------------------------------------------
# What exists: every function of src/repro, by AST
# ----------------------------------------------------------------------
def list_functions() -> Dict[Key, str]:
    """(path relative to the repo, first line, name) → qualified name,
    for every ``def`` under ``src/repro``."""
    functions: Dict[Key, str] = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                qualname = prefix + child.name
                functions[path, first, child.name] = qualname
                walk(child, path, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for source in sorted(PACKAGE.rglob("*.py")):
        path = source.relative_to(ROOT).as_posix()
        walk(ast.parse(source.read_text(), str(source)), path, "")
    return functions


def read_allow_list() -> Dict[str, str]:
    """``path::qualname`` → reason, from :data:`ALLOW_LIST`."""
    entries: Dict[str, str] = {}
    for number, line in enumerate(ALLOW_LIST.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] not in REASONS:
            raise SystemExit(
                f"{ALLOW_LIST.name}:{number}: expected '<reason> "
                f"<path>::<name>' with a reason from {sorted(REASONS)}"
            )
        reason, name = fields
        if name in entries:
            raise SystemExit(f"{ALLOW_LIST.name}:{number}: {name} twice")
        entries[name] = reason
    return entries


# ----------------------------------------------------------------------
# What runs: the surfaces, each under the hook
# ----------------------------------------------------------------------
class Surfaces:
    def __init__(self, work: Path):
        self.work = work
        self.out = work / "reach"
        self.out.mkdir()
        hook = work / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        self.env = dict(os.environ)
        for name in [n for n in self.env if n.startswith("REPRO_")]:
            del self.env[name]
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]),
            REACH_OUT=str(self.out),
            REACH_PACKAGE=str(PACKAGE.resolve()),
        )

    def run(self, *argv: str, timeout: float = 600) -> None:
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *argv], env=self.env, cwd=str(self.work),
            capture_output=True, text=True, timeout=timeout,
        )
        if done.returncode != 0:
            raise SystemExit(
                f"check_reach: {' '.join(argv)} exited "
                f"{done.returncode}\n{done.stdout[-2000:]}"
                f"{done.stderr[-4000:]}"
            )
        label = "dataset" if argv[0] == "-c" else " ".join(argv)
        print(f"  {time.perf_counter() - started:6.1f} s  {label}",
              flush=True)

    def reached(self) -> Set[Key]:
        keys: Set[Key] = set()
        for dump in self.out.glob("*.txt"):
            for line in dump.read_text().splitlines():
                filename, first, name = line.split("\t")
                path = Path(filename).resolve().relative_to(ROOT.resolve())
                keys.add((path.as_posix(), int(first), name))
        return keys

    # -- the surfaces ---------------------------------------------------
    def datasets(self) -> Tuple[Path, Path]:
        """A small dataset with every schema shape the rulesets read, as
        N-Triples and as Turtle."""
        self.run("-c", DATASET_SCRIPT, str(self.work))
        return self.work / "data.nt", self.work / "data.ttl"

    def ledger(self) -> None:
        for trace in ("0", "1"):
            self.run(
                str(ROOT / "benchmarks" / "pipeline" / "run.py"), "--smoke",
                "--trace", trace, "--work-dir", str(self.work / "ledger"),
            )

    def cli(self, nt: Path, ttl: Path) -> None:
        repro = ("-m", "repro")
        for ruleset in RULESETS:
            for backend in BACKENDS:
                for mode in MODES:
                    self.run(
                        *repro, "infer", str(nt), "-o", "closure.nt",
                        "--ruleset", ruleset, "--backend", backend,
                        "--materialize", mode,
                    )
        self.run(*repro, "infer", str(ttl), "--inferred-only")
        self.run(*repro, "infer", str(nt), "--workers", "2",
                 "-o", "closure.nt")
        self.run(*repro, "stats", str(ttl), "--materialize", "hybrid")
        self.run(*repro, "rules", "--ruleset", "rdfs-plus")
        for mode in MODES:
            store = f"{mode}.store"
            self.run(*repro, "save", str(nt), "-o", store,
                     "--materialize", mode, "--backend", "compressed")
            self.run(*repro, "load", store)
            for backend in BACKENDS:
                options = ("--backend", backend, "--materialize", mode)
                self.run(*repro, "load", store, "-o", "loaded.nt",
                         "--inferred-only", *options)
                for query in QUERIES:
                    self.run(*repro, "query", store, query, "--limit", "5",
                             *options)
        self.run(*repro, "query", str(ttl), QUERIES[1])

    def serve(self, nt: Path) -> None:
        with_wal = ["full.store", "--wal", "serve.wal", "--wal-fsync",
                    "batch", "--checkpoint-every", "2"]
        self._serve(with_wal)
        # Reboot over a log whose last append a crash tore: recovery
        # truncates the torn bytes away.
        with open(self.work / "serve.wal", "ab") as log:
            log.write(b"\0" * 5)
        self._serve(with_wal)
        self._serve([str(nt), "--materialize", "hybrid"])
        # The reference kernels under small served writes.
        self._serve([str(nt), "--backend", "python"])

    def _serve(self, args: List[str]) -> None:
        started = time.perf_counter()
        log = self.work / "serve.log"
        with open(log, "w") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *args,
                 "--port", "0"],
                env=self.env, cwd=str(self.work),
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        try:
            deadline = time.monotonic() + BOOT_TIMEOUT
            while True:
                found = re.search(r"serving on (http://\S+)", log.read_text())
                if found:
                    break
                if process.poll() is not None or time.monotonic() > deadline:
                    raise SystemExit(
                        f"check_reach: serve {args} never booted\n"
                        + log.read_text()[-4000:]
                    )
                time.sleep(0.1)
            drive_server(found.group(1))
        finally:
            # SIGTERM drains and returns from main: the hook's exit dump
            # records the last calls.
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=BOOT_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                raise SystemExit(f"check_reach: serve {args} did not stop")
        if process.returncode != 0:
            raise SystemExit(
                f"check_reach: serve {args} exited {process.returncode}\n"
                + log.read_text()[-4000:]
            )
        print(f"  {time.perf_counter() - started:6.1f} s  serve "
              f"{' '.join(args)}", flush=True)

    def examples(self) -> None:
        for script in sorted((ROOT / "examples").glob("*.py")):
            self.run(str(script))

    def paper_scripts(self) -> None:
        for script in PAPER_SCRIPTS:
            self.run(str(ROOT / "benchmarks" / script), "--smoke")


DATASET_SCRIPT = '''\
import re
import sys
from pathlib import Path
from repro.datasets import bsbm_like, lubm_like
from repro.rdf import OWL, RDF, RDFS, XSD, BlankNode, Literal, Triple, iri
from repro.rdf.ntriples import write_file

ex = lambda name: iri("http://example.org/" + name)
triples = lubm_like(1, seed=3) + bsbm_like(40)
triples += [
    Triple(ex("knows"), RDF.type, OWL.SymmetricProperty),
    Triple(ex("ancestor"), RDF.type, OWL.TransitiveProperty),
    Triple(ex("parentOf"), OWL.inverseOf, ex("childOf")),
    Triple(ex("parentOf"), RDFS.subPropertyOf, ex("ancestor")),
    Triple(ex("hasId"), RDF.type, OWL.FunctionalProperty),
    Triple(ex("idOf"), RDF.type, OWL.InverseFunctionalProperty),
    Triple(ex("Person"), OWL.equivalentClass, ex("Human")),
    Triple(ex("kin"), OWL.equivalentProperty, ex("knows")),
    Triple(ex("a"), ex("knows"), ex("b")),
    Triple(ex("a"), ex("parentOf"), ex("b")),
    Triple(ex("b"), ex("parentOf"), ex("c")),
    Triple(ex("a"), ex("hasId"), ex("id1")),
    Triple(ex("a"), ex("hasId"), ex("id2")),
    Triple(ex("x"), ex("idOf"), ex("i9")),
    Triple(ex("y"), ex("idOf"), ex("i9")),
    Triple(ex("a"), OWL.sameAs, ex("a2")),
    Triple(ex("a"), RDF.type, ex("Person")),
    # Escapes put a line outside the fast subset: the cursor parser
    # reads it.
    Triple(BlankNode("b1"), ex("label"), Literal('say "hi"', None, "en-GB")),
    Triple(BlankNode("b0"), ex("label"), Literal("7", XSD.prefix + "integer")),
]
work = Path(sys.argv[1])
write_file(triples, str(work / "data.nt"))


def turtle(term):
    found = re.fullmatch(r"<http://example\\.org/(\\w+)>", term.n3())
    return "ex:" + found.group(1) if found else term.n3()


with open(work / "data.ttl", "w") as out:
    out.write("@prefix ex: <http://example.org/> .\\n")
    for t in triples:
        out.write(" ".join(map(turtle, t)) + " .\\n")
'''

#: The pattern shapes the CLI query reads: a variable predicate, a
#: class keyed by object joined on, a constant subject, keyed and fully
#: bound hierarchy lookups, a variable repeated in one pattern, and a
#: pattern whose both ends an earlier one binds (a row filter).
LUBM = "<http://example.org/lubm#{}>".format
QUERIES = (
    "?s ?p ?o",
    f"?x a {LUBM('Person')} . ?x {LUBM('memberOf')} ?o",
    "<http://example.org/a> ?p ?o",
    f"?q rdfs:subPropertyOf {LUBM('memberOf')} . "
    f"{LUBM('headOf')} rdfs:subPropertyOf {LUBM('memberOf')} . "
    f"?c rdfs:subClassOf {LUBM('Person')}",
    "?y ?r ?y",
    f"?x {LUBM('headOf')} ?o . ?x {LUBM('worksFor')} ?o",
)


def drive_server(base: str) -> None:
    """Every endpoint once or more, reads before and after writes."""

    def call(path: str, body: Optional[bytes] = None) -> bytes:
        request = urllib.request.Request(base + path, data=body)
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read()

    def query(text: str, **params) -> dict:
        params["q"] = text
        return json.loads(call("/query?" + urllib.parse.urlencode(params)))

    call("/health")
    call("/query", json.dumps({"query": "?s ?p ?o", "limit": 5}).encode())
    for text in ("?s ?p ?o", "?c rdfs:subClassOf ?d", "?p rdfs:domain ?c"):
        query(text, limit=20)
    # An answer of more rows than one render slice (the server's
    # RENDER_SLICE_ROWS, 2,048), so the render yields between slices:
    # the product of every type row with every subclass row.
    product = query("?x a ?c . ?d rdfs:subClassOf ?e", limit=-1)
    if product["returned"] <= 2048:
        raise SystemExit("check_reach: the answer fits one render slice")
    # Keyed lookups, by object, by subject and fully bound: in hybrid
    # mode each is answered from the interval encoding.
    for row in query("?x a ?c . ?c rdfs:subClassOf ?d", limit=1)["solutions"]:
        query(f"?y a {row['d']}")
        query(f"{row['x']} ?p ?o")
        query(f"{row['x']} a {row['d']}")
        query(f"?x a {row['c']} . ?x ?p ?o", limit=10)
    for row in query("?p rdfs:domain ?c", limit=1)["solutions"]:
        query(f"{row['p']} rdfs:domain ?c")
        query(f"?q rdfs:domain {row['c']}")
    # A sub-property fact too: rederiving what its removal overdeletes
    # checks ⟨s headOf o⟩ with both ends bound, a row filter.
    triples = (
        b"<http://example.org/reach/s> "
        b"<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        b"<http://example.org/reach/C> .\n"
        b"<http://example.org/reach/s> <http://example.org/lubm#headOf> "
        b"<http://example.org/reach/o> .\n"
    )
    for _ in range(2):
        call("/add?wait=1", triples)
        query("?x a <http://example.org/reach/C>", epoch=1)
        call("/remove?wait=1", triples)
    call("/stats")
    call("/metrics")


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--list-unreached", action="store_true",
        help="print every unreached function, listed or not",
    )
    args = parser.parse_args(argv)
    functions = list_functions()
    allowed = read_allow_list()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="check-reach-") as work:
        surfaces = Surfaces(Path(work))
        nt, ttl = surfaces.datasets()
        surfaces.ledger()
        surfaces.cli(nt, ttl)
        surfaces.serve(nt)
        surfaces.examples()
        surfaces.paper_scripts()
        reached = surfaces.reached()
    by_name: Dict[str, List[Key]] = {}
    for key, qualname in functions.items():
        by_name.setdefault(f"{key[0]}::{qualname}", []).append(key)
    unreached = sorted(key for key in functions if key not in reached)
    unlisted = [
        key for key in unreached
        if f"{key[0]}::{functions[key]}" not in allowed
    ]
    stale = sorted(name for name in allowed if name not in by_name)
    listed_but_reached = sorted(
        name for name in allowed
        if name in by_name and all(key in reached for key in by_name[name])
    )
    print(
        f"check_reach: {len(functions)} functions, "
        f"{len(functions) - len(unreached)} reached, "
        f"{len(unreached)} unreached ({len(allowed)} allow-list entries: "
        + ", ".join(
            f"{n} {reason}"
            for reason, n in sorted(Counter(allowed.values()).items())
        )
        + f") in {time.perf_counter() - started:.0f} s"
    )
    if args.list_unreached:
        for key in unreached:
            print(f"  unreached  {key[0]}:{key[1]}  {functions[key]}")
    for name in listed_but_reached:
        print(f"  note: listed but reached in this run: {name}")
    for key in unlisted:
        print(f"  FAIL unreached and not listed: {key[0]}::{functions[key]} "
              f"(line {key[1]})")
    for name in stale:
        print(f"  FAIL allow-list entry names no function: {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
