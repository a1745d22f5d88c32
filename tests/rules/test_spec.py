"""Unit tests for the rule-spec layer: Vocab, RuleContext, helpers."""

import pytest

from repro.dictionary.encoding import Dictionary, PROPERTY_BASE
from repro.kernels.python_backend import PYTHON_KERNELS
from repro.rules.spec import RuleContext, Vocab, table_or_none
from repro.store.triple_store import InferredBuffers, TripleStore


class TestVocab:
    def setup_method(self):
        self.dictionary = Dictionary()
        self.vocab = Vocab(self.dictionary)

    def test_schema_properties_in_property_half(self):
        for attr in (
            "type", "subClassOf", "subPropertyOf", "domain", "range",
            "member", "sameAs", "equivalentClass", "equivalentProperty",
            "inverseOf",
        ):
            assert self.vocab[attr] <= PROPERTY_BASE

    def test_markers_in_resource_half(self):
        for attr in (
            "Resource", "rdfsClass", "Literal", "Datatype",
            "TransitiveProperty", "SymmetricProperty",
            "FunctionalProperty", "InverseFunctionalProperty",
            "Thing", "Nothing", "owlClass",
        ):
            assert self.vocab[attr] > PROPERTY_BASE

    def test_attribute_and_item_access_agree(self):
        assert self.vocab.type == self.vocab["type"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            _ = self.vocab.nonexistent

    def test_idempotent_against_same_dictionary(self):
        again = Vocab(self.dictionary)
        assert again.type == self.vocab.type
        assert again.Resource == self.vocab.Resource


class TestRuleContext:
    def test_count_accumulates(self):
        ctx = RuleContext(
            main=TripleStore(),
            new=TripleStore(),
            out=InferredBuffers(),
            vocab=Vocab(Dictionary()),
            kernels=PYTHON_KERNELS,
        )
        ctx.count("R", 3)
        ctx.count("R", 2)
        ctx.count("S", 0)  # zero emissions are not recorded
        assert ctx.stats == {"R": 5}


class TestHelpers:
    def test_table_or_none(self):
        store = TripleStore()
        assert table_or_none(store, 123) is None
        assert table_or_none(store, None) is None
        store.add_encoded([(1, 123, 2)])
        assert table_or_none(store, 123) is not None
        # Empty (created but unpopulated) tables read as None.
        store.get_or_create(456)
        assert table_or_none(store, 456) is None
