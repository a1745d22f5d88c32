"""Unit tests for the resolved datalog rules and unification helpers."""

import pytest

from repro.baselines.datalog import (
    Atom,
    datalog_ruleset,
    is_var,
    match_atom,
    substitute,
)
from repro.dictionary.encoding import Dictionary
from repro.rules.spec import Vocab
from repro.rules.table5 import TABLE5


@pytest.fixture(scope="module")
def vocab():
    return Vocab(Dictionary())


def resolved_rule(name, vocab):
    (rule,) = datalog_ruleset([name], vocab)
    return rule


class TestForms:
    def test_every_table5_rule_has_a_form(self, vocab):
        for entry in TABLE5:
            rule = resolved_rule(entry.name, vocab)
            assert rule.name == entry.name
            assert rule.body and rule.heads

    def test_head_variables_bound_by_body(self, vocab):
        for entry in TABLE5:
            rule = resolved_rule(entry.name, vocab)
            body_vars = {
                v for atom in rule.body for v in atom.variables()
            }
            head_vars = {
                v for atom in rule.heads for v in atom.variables()
            }
            assert head_vars <= body_vars, rule.name

    def test_constants_resolve_through_vocab(self, vocab):
        rule = resolved_rule("CAX-SCO", vocab)
        assert rule.body == (
            Atom("?c1", vocab.subClassOf, "?c2"),
            Atom("?x", vocab.type, "?c1"),
        )
        assert rule.heads == (Atom("?x", vocab.type, "?c2"),)

    def test_not_equal_vars_in_body(self, vocab):
        for entry in TABLE5:
            rule = resolved_rule(entry.name, vocab)
            body_vars = {
                v for atom in rule.body for v in atom.variables()
            }
            for var_a, var_b in rule.not_equal:
                assert {var_a, var_b} <= body_vars

    def test_ruleset_builder(self, vocab):
        rules = datalog_ruleset(["CAX-SCO", "PRP-DOM"], vocab)
        assert [r.name for r in rules] == ["CAX-SCO", "PRP-DOM"]

    def test_fp_has_inequality(self, vocab):
        rule = resolved_rule("PRP-FP", vocab)
        assert rule.not_equal == (("?y1", "?y2"),)
        assert len(rule.body) == 3


class TestUnification:
    def test_is_var(self):
        assert is_var("?x")
        assert not is_var(42)

    def test_match_fresh_bindings(self):
        atom = Atom("?s", 100, "?o")
        bindings = match_atom(atom, (1, 100, 2), {})
        assert bindings == {"?s": 1, "?o": 2}

    def test_match_constant_mismatch(self):
        atom = Atom("?s", 100, "?o")
        assert match_atom(atom, (1, 200, 2), {}) is None

    def test_match_existing_binding_consistent(self):
        atom = Atom("?s", 100, "?o")
        assert match_atom(atom, (1, 100, 2), {"?s": 1}) == {"?s": 1, "?o": 2}
        assert match_atom(atom, (1, 100, 2), {"?s": 9}) is None

    def test_match_repeated_variable(self):
        atom = Atom("?x", 100, "?x")
        assert match_atom(atom, (7, 100, 7), {}) == {"?x": 7}
        assert match_atom(atom, (7, 100, 8), {}) is None

    def test_match_does_not_mutate_input(self):
        bindings = {"?s": 1}
        match_atom(Atom("?s", 100, "?o"), (1, 100, 2), bindings)
        assert bindings == {"?s": 1}

    def test_substitute(self):
        atom = Atom("?s", "?p", 5)
        ground = substitute(atom, {"?s": 1, "?p": 2})
        assert ground == Atom(1, 2, 5)

    def test_substitute_partial(self):
        atom = Atom("?s", "?p", "?o")
        assert substitute(atom, {"?s": 1}) == Atom(1, "?p", "?o")
