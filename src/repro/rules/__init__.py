"""Rule machinery: Table-5 catalogue, executors and rulesets (paper §4.4)."""

from .classes import (
    FunctionalPropertyRule,
    JoinRule,
    OneAtomRule,
    SameAsRule,
    SchemaRule,
    ThetaRule,
    shaped_rule,
)
from .depgraph import ANY, RuleDependencyGraph, RuleIO, rule_io
from .rulesets import (
    RULESET_NAMES,
    get_ruleset,
    ruleset_rule_names,
)
from .spec import Description, Rule, RuleContext, Vocab, table_or_none
from .table5 import BY_NAME, TABLE5, RuleEntry, make_rules

__all__ = [
    "ANY",
    "BY_NAME",
    "Description",
    "FunctionalPropertyRule",
    "JoinRule",
    "OneAtomRule",
    "RULESET_NAMES",
    "Rule",
    "RuleContext",
    "RuleDependencyGraph",
    "RuleEntry",
    "RuleIO",
    "SameAsRule",
    "SchemaRule",
    "TABLE5",
    "ThetaRule",
    "Vocab",
    "get_ruleset",
    "make_rules",
    "rule_io",
    "ruleset_rule_names",
    "shaped_rule",
    "table_or_none",
]
