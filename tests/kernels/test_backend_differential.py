"""Cross-backend differential suite (ISSUE 1).

Every ruleset × generated dataset is materialized under every kernel
backend; the closures must be *identical*: same sorted triple list, same
``MaterializationStats.n_inferred`` and the same θ counts
(``closure_pairs`` from the pre-pass, the θ rules' ``per_rule`` from
re-closures inside the fixed point).  The pure-Python backend is the
reference semantics; the NumPy backend and the compressed backend
(which composes over the NumPy kernels) must be indistinguishable from
it on every workload shape we generate (deep chains, trees, sameAs
cliques and transitive cycles that stress the θ closure, a subClassOf
edge added after the first flush, LUBM-mini's schema-heavy mix,
BSBM-mini's instance-heavy mix).
"""

import pytest

from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.datasets.chains import (
    sameas_chain,
    subclass_chain,
    subclass_tree,
    subproperty_chain,
    transitive_property_chain,
)
from repro.datasets.lubm import lubm_like
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.rules.rulesets import RULESET_NAMES

def _node(prefix, index):
    return IRI(f"http://example.org/{prefix}/n{index}")


def _sameas_cliques():
    """Three disjoint sameAs cliques, one member used as data."""
    return (
        sameas_chain(4, prefix="sa")
        + sameas_chain(5, prefix="sb")
        + sameas_chain(3, prefix="sc")
        + [Triple(_node("sa", 0), _node("rel", 0), _node("sb", 2))]
    )


def _transitive_cycle():
    """An owl:TransitiveProperty chain whose tail loops back (n4 … n11)."""
    follows = IRI("http://example.org/tchain/follows")
    return transitive_property_chain(12) + [
        Triple(_node("tchain", 11), follows, _node("tchain", 4))
    ]


#: name → dataset factory (small enough that the full ruleset × dataset
#: × backend product stays fast, varied enough to hit every rule class).
DATASETS = {
    "chain": lambda: subclass_chain(60),
    "subprop-chain": lambda: subproperty_chain(25),
    "trans-chain": lambda: transitive_property_chain(20),
    "trans-cycle": _transitive_cycle,
    "sameas-chain": lambda: sameas_chain(8),
    "sameas-cliques": _sameas_cliques,
    "tree": lambda: subclass_tree(2, 5),
    "chain+tree-then-edge": lambda: (
        subclass_chain(30) + subclass_tree(2, 3)
        + [Triple(IRI("http://example.org/i0"), RDF.type, _node("chain", 0))]
    ),
    "lubm-mini": lambda: lubm_like(1),
    "bsbm-mini": lambda: bsbm_like(120),
}

#: name → triples added by ``materialize_incremental`` after the first
#: flush: subClassOf edges, so ThetaRule.apply re-closes the property
#: (joining the chain onto the tree, and looping the chain's tail).
ADDED_LATER = {
    "chain+tree-then-edge": [
        Triple(_node("chain", 29), RDFS.subClassOf, _node("tree", 0)),
        Triple(_node("chain", 29), RDFS.subClassOf, _node("chain", 20)),
    ],
}

_data_cache = {}
_reference_cache = {}


def _dataset(name):
    if name not in _data_cache:
        _data_cache[name] = DATASETS[name]()
    return _data_cache[name]


def _materialize(ruleset, dataset_name, backend):
    engine = InferrayEngine(ruleset, backend=backend)
    engine.load_triples(_dataset(dataset_name))
    stats = engine.materialize()
    if dataset_name in ADDED_LATER:
        stats = engine.materialize_incremental(ADDED_LATER[dataset_name])
    assert engine.kernels.name == backend
    triples = sorted(triple.n3() for triple in engine.triples())
    theta = {
        rule.name: stats.per_rule.get(rule.name, 0)
        for rule in engine.rules
        if rule.rule_class == "theta"
    }
    return triples, stats.n_inferred, stats.closure_pairs, theta


def _reference(ruleset, dataset_name):
    key = (ruleset, dataset_name)
    if key not in _reference_cache:
        _reference_cache[key] = _materialize(ruleset, dataset_name, "python")
    return _reference_cache[key]


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
@pytest.mark.parametrize("ruleset", RULESET_NAMES)
def test_numpy_backend_matches_python(ruleset, dataset_name):
    expected = _reference(ruleset, dataset_name)
    assert _materialize(ruleset, dataset_name, "numpy") == expected


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
@pytest.mark.parametrize("ruleset", RULESET_NAMES)
def test_compressed_backend_matches_python(ruleset, dataset_name):
    expected = _reference(ruleset, dataset_name)
    assert _materialize(ruleset, dataset_name, "compressed") == expected


def test_differential_covers_nontrivial_closures():
    """Guard: the reference runs actually infer something, and the θ
    cases reach the closure code they are there for."""
    _, inferred, closure_pairs, _ = _reference("rdfs-default", "chain")
    assert inferred > 1000  # 60-node chain closure is quadratic
    assert closure_pairs == 60 * 59 // 2
    _, inferred, _, _ = _reference("rdfs-full", "bsbm-mini")
    assert inferred > 0
    for name in ("trans-cycle", "sameas-cliques"):
        _, _, closure_pairs, _ = _reference("rdfs-plus", name)
        assert closure_pairs > 0
    # The late edges re-close subClassOf inside the fixed point.
    _, _, closure_pairs, theta = _reference(
        "rdfs-default", "chain+tree-then-edge"
    )
    assert closure_pairs == 0 and sum(theta.values()) > 0
