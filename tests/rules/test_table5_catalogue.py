"""Validate the Table-5 catalogue structure and ruleset composition."""

import pytest

from repro.rules.rulesets import (
    RULESET_NAMES,
    get_ruleset,
    ruleset_rule_names,
)
from repro.rules.spec import Rule
from repro.rules.table5 import BY_NAME, TABLE5, make_rules


class TestCatalogueStructure:
    def test_38_rows(self):
        assert len(TABLE5) == 38

    def test_row_numbers_sequential(self):
        assert [entry.number for entry in TABLE5] == list(range(1, 39))

    def test_names_unique(self):
        names = [entry.name for entry in TABLE5]
        assert len(set(names)) == 38

    def test_by_name_lookup(self):
        assert BY_NAME["CAX-SCO"].number == 3
        assert BY_NAME["PRP-TRP"].paper_class == "theta"

    def test_every_factory_builds_a_rule(self):
        for entry in TABLE5:
            (rule,) = make_rules([entry.name])
            assert isinstance(rule, Rule)
            assert entry.description in rule.descriptions

    def test_paper_class_labels(self):
        # Spot checks against the paper's class column.
        assert BY_NAME["CAX-EQC1"].paper_class == "alpha"
        assert BY_NAME["SCM-EQC2"].paper_class == "beta"
        assert BY_NAME["PRP-DOM"].paper_class == "gamma"
        assert BY_NAME["PRP-EQP1"].paper_class == "delta"
        assert BY_NAME["EQ-REP-S"].paper_class == "same-as"
        assert BY_NAME["SCM-SCO"].paper_class == "theta"
        assert BY_NAME["RDFS4"].paper_class == "trivial"

    @pytest.mark.parametrize("ruleset", RULESET_NAMES)
    def test_executors_report_their_entrys_class(self, ruleset):
        # One label per rule: the catalogue's (PRP-SPO1 is gamma).
        for rule in get_ruleset(ruleset):
            entries = [e for e in TABLE5 if e.description in rule.descriptions]
            assert entries
            assert {e.paper_class for e in entries} == {rule.rule_class}
        (spo1,) = make_rules(["PRP-SPO1"])
        assert spo1.rule_class == "gamma"

    def test_eqrep_rows_share_executor(self):
        rules = make_rules(["EQ-REP-S", "EQ-REP-P", "EQ-REP-O"])
        assert len(rules) == 1
        assert rules[0].name == "EQ-REP"


class TestRulesetComposition:
    def test_rho_df_members(self):
        # ρdf: the 8 filled-circle rows of the ρDF column.
        assert set(ruleset_rule_names("rho-df")) == {
            "CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1",
            "SCM-DOM2", "SCM-RNG2", "SCM-SCO", "SCM-SPO",
        }

    def test_rdfs_default_members(self):
        assert set(ruleset_rule_names("rdfs-default")) == {
            "CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1",
            "SCM-DOM1", "SCM-DOM2", "SCM-RNG1", "SCM-RNG2",
            "SCM-SCO", "SCM-SPO",
        }

    def test_rdfs_full_adds_halfcircle_rules(self):
        full = set(ruleset_rule_names("rdfs-full"))
        default = set(ruleset_rule_names("rdfs-default"))
        assert full - default == {
            "RDFS4", "RDFS6", "RDFS8", "RDFS10", "RDFS12", "RDFS13",
        }

    def test_rdfs_plus_has_29_rows(self):
        assert len(ruleset_rule_names("rdfs-plus")) == 29

    def test_rdfs_plus_full_adds_scm_cls_dp_op_rdfs4(self):
        plus = set(ruleset_rule_names("rdfs-plus"))
        full = set(ruleset_rule_names("rdfs-plus-full"))
        assert full - plus == {"SCM-CLS", "SCM-DP", "SCM-OP", "RDFS4"}

    def test_rho_df_subset_of_rdfs_default(self):
        assert set(ruleset_rule_names("rho-df")) <= set(
            ruleset_rule_names("rdfs-default")
        )

    def test_all_names_resolvable(self):
        for name in RULESET_NAMES:
            rules = get_ruleset(name)
            assert rules
            assert all(isinstance(rule, Rule) for rule in rules)

    def test_unknown_ruleset_rejected(self):
        with pytest.raises(ValueError):
            ruleset_rule_names("owl-dl")
