"""The evaluator's plan: pattern order and the probe-or-merge choice."""

import pytest

from oracle import TupleAtATimeQuery, multiset
from repro import Store
from repro.query import bgp
from repro.query.bgp import Query, parse_bgp
from repro.rdf.terms import IRI, Triple

NS = "http://example.org/"


def ex(name):
    return IRI(NS + name)


def edges(predicate, pairs):
    return [Triple(ex(s), ex(predicate), ex(o)) for s, o in pairs]


@pytest.fixture(scope="module")
def store():
    """Tables of known size and no schema (closure = what is asserted):
    ``big`` 200 rows (every s to hub0/hub1), ``mid`` 20 rows, ``small``
    3 rows, ``other`` 5 rows over terms nothing else mentions."""
    triples = (
        edges("big", [(f"s{i}", f"hub{i % 2}") for i in range(200)])
        + edges("mid", [(f"s{i}", f"m{i % 4}") for i in range(20)])
        + edges("small", [("s1", "t"), ("s2", "t"), ("s3", "u")])
        + edges("other", [(f"a{i}", f"b{i}") for i in range(5)])
    )
    return Store(triples, ruleset="rho-df")


def planned(query, store):
    """The patterns in the order ``query.evaluate(store)`` takes them,
    as written when a constant was never encoded."""
    view, dictionary = bgp._id_view(store)
    compiled = query._compile(dictionary)
    if compiled is None:
        return list(query.patterns)
    order = bgp._Evaluation(view, dictionary).order(compiled)
    return [query.patterns[i] for i in order]


def plan(store, text):
    query = Query(parse_bgp(text))
    return [query.patterns.index(p) for p in planned(query, store)]


class TestOrder:
    def test_smallest_table_first(self, store):
        text = f"?x <{NS}big> ?h . ?x <{NS}mid> ?m . ?x <{NS}small> ?t"
        assert plan(store, text) == [2, 1, 0]

    def test_a_slice_counts_as_its_length(self, store):
        # big sliced by hub0 has 100 rows: after mid (20), before
        # nothing else; sliced by subject it has 1: before everything.
        text = f"?x <{NS}big> <{NS}hub0> . ?x <{NS}mid> ?m"
        assert plan(store, text) == [1, 0]
        text = f"<{NS}s7> <{NS}big> ?h . ?x <{NS}small> ?t . ?x <{NS}mid> ?m"
        assert plan(store, text)[0] == 0

    def test_no_cross_product_while_a_connected_pattern_remains(self, store):
        # other (5 rows) is smaller than mid and big but shares no
        # variable with them: it goes last, not second.
        text = (f"?x <{NS}small> ?t . ?a <{NS}other> ?b . "
                f"?x <{NS}big> ?h . ?x <{NS}mid> ?m")
        assert plan(store, text) == [0, 3, 2, 1]

    def test_connection_runs_through_any_position(self, store):
        # ?p joins the predicate of one pattern to the subject of
        # another; ?t chains object to subject.
        text = (f"?a <{NS}other> ?b . ?x <{NS}small> ?t . "
                f"?t ?p ?z . ?x <{NS}mid> ?m")
        order = plan(store, text)
        assert order[0] == 1 and order[-1] == 0

    def test_ground_patterns_go_first(self, store):
        text = (f"?x <{NS}mid> ?m . <{NS}s1> <{NS}small> <{NS}t> . "
                f"?x <{NS}small> ?t")
        assert plan(store, text) == [1, 2, 0]

    def test_single_pattern_and_unknown_constant(self, store):
        assert plan(store, f"?x <{NS}big> ?h") == [0]
        # Nothing can match: the patterns come back as written.
        assert plan(store, f"?x <{NS}big> ?h . ?x <{NS}nope> ?y") == [0, 1]

    def test_plan_is_the_order_evaluate_takes(self, store, monkeypatch):
        text = f"?x <{NS}big> ?h . ?x <{NS}mid> ?m . ?x <{NS}small> ?t"
        query = Query(parse_bgp(text))
        taken = []
        extend = bgp._Evaluation.extend

        def spy(self, table, s, p, o):
            taken.append(p)
            return extend(self, table, s, p, o)

        monkeypatch.setattr(bgp._Evaluation, "extend", spy)
        assert len(query.evaluate(store)) == 3
        id_of = store.engine.dictionary.id_of
        assert taken == [id_of(p.predicate) for p in planned(query, store)]


class TestProbeOrMerge:
    def test_rule(self):
        rows = bgp._ROWS_PER_PROBE
        assert bgp._use_probes(1, rows + 1)
        assert not bgp._use_probes(1, rows)
        assert bgp._use_probes(3, 3 * rows + 1)
        assert not bgp._use_probes(3, 3 * rows)
        assert not bgp._use_probes(0, 0)

    #: (second pattern, the rows of ``many`` given the size the rule
    #: looks at: the table's, or the constant's slice of it, and
    #: whether the pattern binds nothing new — a row filter, taken at
    #: every size).
    VARIANTS = {
        "new companion": (
            "?x <{ns}many> ?z",
            lambda n: [(f"k{i % 3}", f"z{i}") for i in range(n)],
            False,
        ),
        "keyed on the object": (
            "?z <{ns}many> ?x",
            lambda n: [(f"z{i}", f"k{i % 3}") for i in range(n)],
            False,
        ),
        "constant companion": (
            "?x <{ns}many> <{ns}c>",
            lambda n: [(f"k{i}", "c") for i in range(n)],
            True,
        ),
        "both bound": (
            "?x <{ns}many> ?y",
            lambda n: [(f"k{i % 3}", f"o{i // 3}") for i in range(n)],
            True,
        ),
    }

    @pytest.mark.parametrize("probes", [False, True])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_both_sides_of_the_rule_agree(self, variant, probes, monkeypatch):
        second, many_rows, filters = self.VARIANTS[variant]
        few = [("k0", "o0"), ("k1", "o1")]
        size = len(few) * bgp._ROWS_PER_PROBE + (1 if probes else 0)
        store = Store(
            edges("few", few) + edges("many", many_rows(size)),
            ruleset="rho-df",
        )
        calls, searched = [], []
        probe = bgp._Evaluation.probe

        def spy(self, *args):
            calls.append(args)
            return probe(self, *args)

        monkeypatch.setattr(bgp._Evaluation, "probe", spy)
        patterns = parse_bgp((f"?x <{NS}few> ?y . " + second).format(ns=NS))
        query = Query(patterns)
        assert planned(query, store)[0].predicate == ex("few")
        # The read view of either mode: its row filter is ``present``.
        view, dictionary = bgp._id_view(store)
        present = type(view).present

        def present_spy(self, *args):
            searched.append(args)
            return present(self, *args)

        monkeypatch.setattr(type(view), "present", present_spy)
        answers = multiset(query.execute(store))
        if filters:
            # One lookup per bound row, in the second pattern's table.
            assert not calls and len(searched) == 1
            property_id, subjects, objects = searched[0]
            assert property_id == dictionary.id_of(ex("many"))
            assert len(subjects) == len(objects) == len(few)
        else:
            assert len(calls) == (1 if probes else 0) and not searched
        assert answers == multiset(TupleAtATimeQuery(patterns).execute(store))
        assert answers
