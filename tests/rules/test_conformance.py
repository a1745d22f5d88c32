"""RDFS entailment conformance mini-suite.

Each fixture under ``tests/fixtures/conformance/`` is a pair of
N-Triples files: ``<name>.in.nt`` (the input graph, with a
``# ruleset: <name>`` directive on the first line) and
``<name>.out.nt`` (the *exact* set of entailed triples the engine must
add — no more, no less).  The suite pins:

* subClassOf / subPropertyOf transitivity (incl. cycles),
* domain / range typing and their schema-level closure,
* the ρdf subset boundaries (SCM-DOM1 / SCM-RNG1 absent: fixtures
  07/08/10 assert the *reduced* entailment set under ``rho-df``),
* RDFS-Plus equality/property semantics (sameAs cliques,
  equivalentClass, transitive/symmetric/inverse/functional properties),
* the RDFS-Full axiomatic rules (RDFS4/8/10).

Every fixture runs on every kernel backend, so the conformance answers
double as backend-agreement checks.
"""

import glob
import os

import pytest

from repro.core.engine import InferrayEngine
from repro.rdf.ntriples import parse_file
from repro.rules.rulesets import RULESET_NAMES

FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "conformance"
)

BACKENDS = ["python", "numpy", "compressed"]

FIXTURES = sorted(
    os.path.basename(path)[: -len(".in.nt")]
    for path in glob.glob(os.path.join(FIXTURE_DIR, "*.in.nt"))
)


def fixture_paths(name):
    return (
        os.path.join(FIXTURE_DIR, f"{name}.in.nt"),
        os.path.join(FIXTURE_DIR, f"{name}.out.nt"),
    )


def fixture_ruleset(in_path):
    with open(in_path, encoding="utf-8") as handle:
        first = handle.readline()
    assert first.startswith("# ruleset:"), (
        f"{in_path} must open with a '# ruleset: <name>' directive"
    )
    ruleset = first.split(":", 1)[1].strip()
    assert ruleset in RULESET_NAMES, ruleset
    return ruleset


def test_suite_is_populated():
    assert len(FIXTURES) >= 15
    for name in FIXTURES:
        in_path, out_path = fixture_paths(name)
        assert os.path.exists(out_path), f"missing {out_path}"
        assert list(parse_file(out_path)), f"{out_path} is empty"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_conformance(name, backend):
    in_path, out_path = fixture_paths(name)
    ruleset = fixture_ruleset(in_path)
    asserted = set(parse_file(in_path))
    expected = set(parse_file(out_path))
    assert expected, "expected entailments must be non-empty"
    assert not (expected & asserted), (
        "expected entailments must not repeat asserted triples"
    )

    engine = InferrayEngine(ruleset, backend=backend)
    engine.load_file(in_path)
    engine.materialize()
    closure = set(engine.triples())

    missing = (asserted | expected) - closure
    extra = closure - (asserted | expected)
    assert closure == asserted | expected, (
        f"{name} ({ruleset}, {backend}): "
        f"missing={sorted(t.n3() for t in missing)[:5]} "
        f"extra={sorted(t.n3() for t in extra)[:5]}"
    )
