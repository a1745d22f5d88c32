"""Unit tests for the rule dependency graph and wave stratification."""

import pytest

from repro.rules.depgraph import ANY, RuleDependencyGraph, rule_io
from repro.rules.rulesets import RULESET_NAMES, get_ruleset
from repro.rules.table5 import make_rules


def wave_names(graph):
    """The stratification with rule names instead of indexes."""
    return [[graph.rules[i].name for i in wave] for wave in graph.stratify()]


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


class TestStratification:
    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_waves_partition_the_rules(self, ruleset):
        rules = get_ruleset(ruleset)
        graph = RuleDependencyGraph(rules)
        waves = graph.stratify()
        flattened = [i for wave in waves for i in wave]
        assert sorted(flattened) == list(range(len(rules)))
        assert len(set(flattened)) == len(rules)

    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_cross_component_edges_point_forward(self, ruleset):
        graph = RuleDependencyGraph(get_ruleset(ruleset))
        waves = graph.stratify()
        wave_of = {
            i: number for number, wave in enumerate(waves) for i in wave
        }
        comp_of = {}
        for comp_index, members in enumerate(graph.sccs()):
            for member in members:
                comp_of[member] = comp_index
        for producer, consumer in graph.edges():
            if comp_of[producer] == comp_of[consumer]:
                assert wave_of[producer] == wave_of[consumer]
            else:
                assert wave_of[producer] < wave_of[consumer]

    def test_full_rulesets_are_mutually_recursive(self):
        # RDFS is recursive through the schema vocabulary: the analysis
        # must discover one big component (that recursion is why
        # Algorithm 1 iterates), i.e. a single maximal-parallelism wave.
        graph = RuleDependencyGraph(get_ruleset("rdfs-default"))
        assert len(graph.stratify()) == 1

    def test_custom_rule_list_stratifies(self):
        # SCM-SCO feeds CAX-SCO, but CAX-SCO (writes type) does not
        # feed SCM-SCO (reads subClassOf only): two ordered waves.
        rules = make_rules(["SCM-SCO", "CAX-SCO"])
        graph = RuleDependencyGraph(rules)
        assert wave_names(graph) == [["SCM-SCO"], ["CAX-SCO"]]

    def test_three_layer_chain(self):
        # SCM-SPO closes subPropertyOf; SCM-DOM2 consumes subPropertyOf
        # and writes domain; PRP-DOM consumes domain and writes type —
        # but PRP-DOM reads ANY, which SCM-DOM2's 'domain' feeds...
        # and PRP-DOM writes type, which neither earlier rule reads, so
        # the chain is acyclic and must layer into three waves.
        rules = make_rules(["SCM-SPO", "SCM-DOM2", "PRP-DOM"])
        graph = RuleDependencyGraph(rules)
        waves = wave_names(graph)
        assert waves == [["SCM-SPO"], ["SCM-DOM2"], ["PRP-DOM"]]

    def test_stratification_is_deterministic(self):
        rules = get_ruleset("rdfs-plus")
        first = RuleDependencyGraph(rules).stratify()
        second = RuleDependencyGraph(rules).stratify()
        assert first == second
