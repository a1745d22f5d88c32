"""Unit tests for the rule dependency graph: read/write sets and feeds."""

import pytest

from repro.rules.depgraph import ANY, RuleDependencyGraph, rule_io
from repro.rules.rulesets import RULESET_NAMES, get_ruleset
from repro.rules.table5 import make_rules


class TestRuleIO:
    def test_alpha_rule_io(self):
        (rule,) = make_rules(["CAX-SCO"])
        io = rule_io(rule)
        assert io.reads == {"subClassOf", "type"}
        assert io.writes == {"type"}

    def test_theta_subclass_io(self):
        (rule,) = make_rules(["SCM-SCO"])
        io = rule_io(rule)
        assert io.reads == {"subClassOf"}
        assert io.writes == {"subClassOf"}

    def test_property_copy_reads_any(self):
        (rule,) = make_rules(["PRP-SPO1"])
        io = rule_io(rule)
        assert "subPropertyOf" in io.reads
        assert ANY in io.reads
        assert io.writes == {ANY}

    def test_domain_rule_writes_type_only(self):
        (rule,) = make_rules(["PRP-DOM"])
        io = rule_io(rule)
        assert io.writes == {"type"}
        assert ANY in io.reads

    def test_functional_rule_writes_sameas(self):
        (rule,) = make_rules(["PRP-FP"])
        assert rule_io(rule).writes == {"sameAs"}

    def test_trivial_expand_writes_head_properties(self):
        (rule,) = make_rules(["RDFS8"])
        io = rule_io(rule)
        assert io.reads == {"type"}
        assert io.writes == {"subClassOf"}

    def test_unknown_rule_class_is_conservative(self):
        from repro.rules.spec import Rule

        class Exotic(Rule):
            def apply(self, ctx):  # pragma: no cover
                pass

        io = rule_io(Exotic("EXOTIC"))
        assert io.reads == {ANY}
        assert io.writes == {ANY}

    def test_wildcard_feeds_everything(self):
        spo1, cax = make_rules(["PRP-SPO1", "CAX-SCO"])
        assert rule_io(spo1).feeds(rule_io(cax))
        assert rule_io(cax).feeds(rule_io(spo1))  # via ANY reads

    def test_disjoint_io_does_not_feed(self):
        cax, scm_sco = make_rules(["CAX-SCO", "SCM-SCO"])
        # CAX-SCO writes type; SCM-SCO reads only subClassOf.
        assert not rule_io(cax).feeds(rule_io(scm_sco))
        assert rule_io(scm_sco).feeds(rule_io(cax))


class TestRuleDependencyGraph:
    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_feeds_agrees_with_rule_io(self, ruleset):
        rules = get_ruleset(ruleset)
        graph = RuleDependencyGraph(rules)
        assert graph.io == [rule_io(rule) for rule in rules]
        for i, producer in enumerate(graph.io):
            assert graph.feeds(i) == [
                j
                for j, consumer in enumerate(graph.io)
                if producer.feeds(consumer)
            ]

    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_fed_by_inverts_feeds(self, ruleset):
        graph = RuleDependencyGraph(get_ruleset(ruleset))
        n = len(graph.rules)
        for j in range(n):
            assert graph.fed_by(j) == [
                i for i in range(n) if j in graph.feeds(i)
            ]

    def test_chain_feeds_one_way(self):
        # SCM-SPO writes subPropertyOf, which SCM-DOM2 reads; each rule
        # reads its own output; PRP-DOM reads ANY, so all three feed
        # it, but it writes type, which neither of the other two reads.
        rules = make_rules(["SCM-SPO", "SCM-DOM2", "PRP-DOM"])
        graph = RuleDependencyGraph(rules)
        assert graph.feeds(0) == [0, 1, 2]
        assert graph.feeds(1) == [1, 2]
        assert graph.feeds(2) == [2]
        assert graph.fed_by(2) == [0, 1, 2]
