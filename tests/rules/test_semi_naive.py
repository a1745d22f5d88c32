"""The delta discipline of the fixed point.

* one join leg while Δ is main (a batch run's first iteration);
* the rules over a θ-closed schema that re-feed their own output get a
  delta without it (:func:`repro.rules.classes.self_fed_rules`);
* ``MaterializationStats.per_iteration`` shows where the work went.

Closures are checked against the hash-join oracle wherever a trim could
lose something.
"""

import pytest

from repro.baselines.hashjoin import HashJoinEngine
from repro.core.engine import InferrayEngine
from repro.datasets.chains import subclass_tree, subproperty_chain
from repro.dictionary.encoding import Dictionary
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS
from repro.rules.classes import ThetaRule, self_fed_rules, shaped_rule
from repro.rules.rulesets import get_ruleset
from repro.rules.spec import Description, Vocab
from repro.rules.table5 import BY_NAME, make_rules
from repro.store.triple_store import TripleStore


def ex(name):
    return IRI(f"ex:{name}")


def materialized(rules, triples):
    engine = InferrayEngine(rules)
    engine.load_triples(triples)
    return engine, engine.materialize()


def oracle_closure(rule_names, triples):
    oracle = HashJoinEngine(rule_names)
    oracle.load_triples(triples)
    oracle.materialize()
    return oracle.as_decoded_set()


def iterative_rule(name):
    return shaped_rule(name, BY_NAME["SCM-SCO"].description)


def self_fed_names(rules):
    trims = self_fed_rules(rules)
    return {rules[i].name: schema for i, schema in trims.items()}


class TestOneLegWhileDeltaIsMain:
    """Every two-leg executor fires once over main on a batch run's
    first iteration; the counts are what one leg emits (two legs would
    double the iteration-1 share)."""

    @pytest.mark.parametrize(
        "rules, triples, expected",
        [
            (
                make_rules(["CAX-SCO"]),
                [
                    Triple(ex("x"), RDF.type, ex("A")),
                    Triple(ex("y"), RDF.type, ex("A")),
                    Triple(ex("A"), RDFS.subClassOf, ex("B")),
                ],
                {"CAX-SCO": 2},
            ),
            (
                make_rules(["PRP-SPO1"]),
                [
                    Triple(ex("p"), RDFS.subPropertyOf, ex("q")),
                    Triple(ex("x"), ex("p"), ex("y")),
                ],
                {"PRP-SPO1": 1},
            ),
            (
                make_rules(["PRP-INV1"]),
                [
                    Triple(ex("p"), OWL.inverseOf, ex("q")),
                    Triple(ex("x"), ex("p"), ex("y")),
                ],
                {"PRP-INV1": 1},
            ),
            (
                make_rules(["PRP-DOM"]),
                [
                    Triple(ex("p"), RDFS.domain, ex("C")),
                    Triple(ex("x"), ex("p"), ex("y")),
                    Triple(ex("z"), ex("p"), ex("w")),
                ],
                {"PRP-DOM": 2},
            ),
            (
                # Iteration 1 reverses ⟨x p y⟩ once; iteration 2's
                # (main types × Δ) leg reverses the new ⟨y p x⟩ back.
                make_rules(["PRP-SYMP"]),
                [
                    Triple(ex("p"), RDF.type, OWL.SymmetricProperty),
                    Triple(ex("x"), ex("p"), ex("y")),
                ],
                {"PRP-SYMP": 2},
            ),
            (
                [iterative_rule("TRANS")],
                [
                    Triple(ex("A"), RDFS.subClassOf, ex("B")),
                    Triple(ex("B"), RDFS.subClassOf, ex("C")),
                ],
                {"TRANS": 1},
            ),
        ],
        ids=["alpha", "copy", "copy-reversed", "domain", "symmetric",
             "iterative-theta"],
    )
    def test_exact_counts(self, rules, triples, expected):
        engine, stats = materialized(rules, triples)
        assert stats.per_rule == expected
        names = ["SCM-SCO" if name == "TRANS" else name for name in expected]
        assert set(engine.triples()) == oracle_closure(names, triples)

    def test_incremental_first_iteration_keeps_both_legs(self):
        # A delta is not main, so both legs run: (ΔS × main types)
        # carries the new edge over y's old type, (main S × Δ types) the
        # old edge over x's new type.
        engine, _ = materialized(
            make_rules(["CAX-SCO"]),
            [
                Triple(ex("A"), RDFS.subClassOf, ex("B")),
                Triple(ex("y"), RDF.type, ex("C")),
            ],
        )
        engine.materialize_incremental(
            [
                Triple(ex("x"), RDF.type, ex("A")),
                Triple(ex("C"), RDFS.subClassOf, ex("D")),
            ]
        )
        closure = set(engine.triples())
        assert Triple(ex("x"), RDF.type, ex("B")) in closure
        assert Triple(ex("y"), RDF.type, ex("D")) in closure


class TestBatchJoinsOneLeg:
    @staticmethod
    def store_and_vocab():
        dictionary = Dictionary()
        vocab = Vocab(dictionary)
        store = TripleStore(backend="python")
        classes = [dictionary.encode_resource(ex(f"C{i}")) for i in range(3)]
        things = [dictionary.encode_resource(ex(f"x{i}")) for i in range(5)]
        store.add_encoded(
            [(classes[0], vocab.subClassOf, classes[1]),
             (classes[1], vocab.subClassOf, classes[2])]
            + [(x, vocab.type, classes[0]) for x in things]
        )
        return store, vocab

    def test_batch_join_input_is_one_leg(self):
        # The pairs the legs a firing joins hold: one leg while Δ is
        # main, both legs over a delta view of the same rows.
        store, vocab = self.store_and_vocab()
        (rule,) = make_rules(["CAX-SCO"])

        def join_input(new):
            return sum(
                table1.n_pairs + table2.n_pairs
                for table1, table2 in rule._tables(new, store, vocab)
            )

        one_leg = store.table_size(vocab.subClassOf) + store.table_size(
            vocab.type
        )
        assert join_input(store) == one_leg == 7
        assert join_input(store.share_view()) == 2 * one_leg


class TestSelfFedRules:
    def test_rdfs_default_shapes(self):
        assert self_fed_names(get_ruleset("rdfs-default")) == {
            "CAX-SCO": "subClassOf",
            "PRP-SPO1": "subPropertyOf",
            "SCM-DOM1": "subClassOf",
            "SCM-DOM2": "subPropertyOf",
            "SCM-RNG1": "subClassOf",
            "SCM-RNG2": "subPropertyOf",
        }

    def test_rdfs_plus_excludes_reversing_and_unclosed_schemas(self):
        names = self_fed_names(get_ruleset("rdfs-plus"))
        # inverseOf copies reverse; equivalentClass/Property have no θ.
        for name in ("PRP-INV1", "PRP-INV2", "PRP-EQP1", "PRP-EQP2",
                     "CAX-EQC1", "CAX-EQC2", "EQ-REP", "PRP-DOM"):
            assert name not in names
        assert names["CAX-SCO"] == "subClassOf"
        assert names["PRP-SPO1"] == "subPropertyOf"

    def test_nothing_trims_without_the_closing_theta_rule(self):
        assert self_fed_rules(make_rules(["CAX-SCO", "PRP-SPO1"])) == {}
        assert self_fed_names(make_rules(["CAX-SCO", "SCM-SPO"])) == {}
        assert self_fed_names(
            [iterative_rule("T")]
            + make_rules(["CAX-SCO"])
        ) == {}

    def test_shape_not_name_decides(self):
        theta = ThetaRule("SCM-SCO", BY_NAME["SCM-SCO"].description)
        body = "?c1 subClassOf ?c2 . ?x type ?c1"
        # CAX-SCO's shape under another name qualifies ...
        renamed = shaped_rule("MINE", Description.of(body, "?x type ?c2"))
        # ... a head that does not write back into the data atom's
        # property, or moves the wrong variable, does not.
        elsewhere = shaped_rule("CAX-SCO", Description.of(body, "?x member ?c2"))
        flipped = shaped_rule("CAX-SCO", Description.of(body, "?c2 type ?x"))
        reversing = shaped_rule("PRP-SPO1", Description.of(
            "?p1 subPropertyOf ?p2 . ?x ?p1 ?y", "?y ?p2 ?x"
        ))
        assert self_fed_names([theta, renamed, elsewhere, flipped,
                               reversing]) == {"MINE": "subClassOf"}

    def test_backward_copy_over_a_closed_schema_qualifies(self):
        # ⟨p1 ⊑ p2⟩ moves a p2 row down to p1: its echo through ⟨p0 ⊑ p1⟩
        # is d′'s row through the composite ⟨p0 ⊑ p2⟩, so trimming it
        # loses nothing.
        backward = shaped_rule("DOWN", Description.of(
            "?p1 subPropertyOf ?p2 . ?x ?p2 ?y", "?x ?p1 ?y"
        ))
        rules = [backward] + make_rules(["SCM-SPO"])
        assert self_fed_names(rules) == {"DOWN": "subPropertyOf"}
        data = [
            Triple(ex("a"), RDFS.subPropertyOf, ex("b")),
            Triple(ex("b"), RDFS.subPropertyOf, ex("c")),
            Triple(ex("c"), RDFS.subPropertyOf, ex("d")),
            Triple(ex("x"), ex("d"), ex("y")),
        ]
        engine, _ = materialized(rules, data)
        untrimmed = InferrayEngine(rules)
        untrimmed.scheduler.self_fed = {}
        untrimmed.load_triples(data)
        untrimmed.materialize()
        assert Triple(ex("x"), ex("a"), ex("y")) in set(engine.triples())
        assert set(engine.triples()) == set(untrimmed.triples())

    def test_cax_sco_alone_still_climbs_the_chain(self):
        # No SCM-SCO: the chain is never closed, so x a B (iteration 1)
        # must stay in CAX-SCO's next delta to reach C.
        rules = make_rules(["CAX-SCO"])
        engine, stats = materialized(
            rules,
            [
                Triple(ex("x"), RDF.type, ex("A")),
                Triple(ex("A"), RDFS.subClassOf, ex("B")),
                Triple(ex("B"), RDFS.subClassOf, ex("C")),
            ],
        )
        assert engine.scheduler.self_fed == {}
        assert Triple(ex("x"), RDF.type, ex("C")) in set(engine.triples())

    def test_schema_table_is_never_trimmed(self):
        # PRP-SPO1 writes ⟨a subPropertyOf b⟩ itself (q ⊑ subPropertyOf);
        # those rows must reach its ΔS leg to copy a into b.
        rules = make_rules(["PRP-SPO1", "SCM-SPO"])
        data = [
            Triple(ex("q"), RDFS.subPropertyOf, RDFS.subPropertyOf),
            Triple(ex("a"), ex("q"), ex("b")),
            Triple(ex("x"), ex("a"), ex("y")),
        ]
        engine, _ = materialized(rules, data)
        assert self_fed_names(rules) == {"PRP-SPO1": "subPropertyOf"}
        assert Triple(ex("x"), ex("b"), ex("y")) in set(engine.triples())
        assert set(engine.triples()) == oracle_closure(
            ["PRP-SPO1", "SCM-SPO"], data
        )


N = "http://example.org/"


def node(prefix, k):
    return IRI(f"{N}{prefix}/n{k}")


#: A sub-property chain with facts at the bottom, a class tree with
#: typed leaves, and a domain on the chain's top property.
CHAIN_PLUS_TREE = subproperty_chain(4, prefix="p") + subclass_tree(
    2, prefix="t"
) + [
    Triple(ex("a"), node("p", 0), ex("b")),
    Triple(ex("c"), node("p", 0), ex("d")),
    Triple(ex("i0"), RDF.type, node("t", 3)),
    Triple(ex("i1"), RDF.type, node("t", 5)),
    Triple(node("p", 3), RDFS.domain, node("t", 4)),
]


class TestPerIteration:
    def test_rows_pinned_on_chain_plus_tree(self):
        engine, stats = materialized("rdfs-default", CHAIN_PLUS_TREE)
        rows = [(row.derived, row.new) for row in stats.per_iteration]
        assert rows == [(15, 15), (32, 12), (18, 0)]
        assert len(rows) == stats.iterations
        assert sum(row.derived for row in stats.per_iteration) == sum(
            stats.per_rule.values()
        )
        assert sum(row.merge_seconds for row in stats.per_iteration) == (
            pytest.approx(stats.merge_seconds)
        )

    def test_trim_lowers_iteration_two_not_the_closure(self):
        trimmed, trimmed_stats = materialized("rdfs-default", CHAIN_PLUS_TREE)
        untrimmed = InferrayEngine("rdfs-default")
        untrimmed.scheduler.self_fed = {}
        untrimmed.load_triples(CHAIN_PLUS_TREE)
        untrimmed_stats = untrimmed.materialize()
        assert untrimmed_stats.per_iteration[1].derived == 44
        assert trimmed_stats.per_iteration[1].derived == 32
        assert trimmed_stats.per_rule["PRP-SPO1"] < (
            untrimmed_stats.per_rule["PRP-SPO1"]
        )
        assert set(trimmed.triples()) == set(untrimmed.triples())

    def test_incremental_flush_records_its_iterations(self):
        engine, _ = materialized("rdfs-default", CHAIN_PLUS_TREE)
        stats = engine.materialize_incremental(
            [Triple(ex("e"), node("p", 1), ex("f"))]
        )
        assert len(stats.per_iteration) == stats.iterations
        assert stats.per_iteration[-1].new == 0
