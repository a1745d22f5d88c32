"""Rule machinery core: resolved vocabulary, rule context, base class.

Rules operate entirely on dictionary-encoded ids.  A :class:`Vocab`
resolves every constant appearing in Table 5 (schema properties and
marker classes) to its id once per engine, so rule executors never touch
strings.  A :class:`RuleContext` carries the Algorithm-1 stores of the
current iteration plus the output buffers rules emit into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..dictionary.encoding import Dictionary
from ..kernels import KernelBackend
from ..kernels.python_backend import PYTHON_KERNELS
from ..rdf.vocabulary import OWL, RDF, RDFS
from ..store.triple_store import InferredBuffers, TripleStore


class Vocab:
    """Dictionary-resolved ids for every constant used by Table 5.

    Attribute names mirror the vocabulary local names; schema *property*
    constants are registered in the dense property space, marker
    *classes* in the resource space.
    """

    _PROPERTY_TERMS = {
        "type": RDF.type,
        "subClassOf": RDFS.subClassOf,
        "subPropertyOf": RDFS.subPropertyOf,
        "domain": RDFS.domain,
        "range": RDFS.range,
        "member": RDFS.member,
        "sameAs": OWL.sameAs,
        "equivalentClass": OWL.equivalentClass,
        "equivalentProperty": OWL.equivalentProperty,
        "inverseOf": OWL.inverseOf,
    }

    _RESOURCE_TERMS = {
        "Resource": RDFS.Resource,
        "rdfsClass": RDFS.Class,
        "Literal": RDFS.Literal,
        "Datatype": RDFS.Datatype,
        "ContainerMembershipProperty": RDFS.ContainerMembershipProperty,
        "Property": RDF.Property,
        "owlClass": OWL.Class,
        "Thing": OWL.Thing,
        "Nothing": OWL.Nothing,
        "TransitiveProperty": OWL.TransitiveProperty,
        "SymmetricProperty": OWL.SymmetricProperty,
        "FunctionalProperty": OWL.FunctionalProperty,
        "InverseFunctionalProperty": OWL.InverseFunctionalProperty,
        "DatatypeProperty": OWL.DatatypeProperty,
        "ObjectProperty": OWL.ObjectProperty,
    }

    def __init__(self, dictionary: Dictionary):
        self._ids: Dict[str, int] = {}
        for attr, term in self._PROPERTY_TERMS.items():
            self._ids[attr] = dictionary.encode_property(term)
        for attr, term in self._RESOURCE_TERMS.items():
            self._ids[attr] = dictionary.encode_resource(term)

    def __getattr__(self, attr: str) -> int:
        try:
            return self._ids[attr]
        except KeyError:
            raise AttributeError(f"unknown vocabulary constant {attr!r}")

    def __getitem__(self, attr: str) -> int:
        return self._ids[attr]

    def __contains__(self, attr: str) -> bool:
        return attr in self._ids


@dataclass
class RuleContext:
    """Per-iteration state handed to every rule's ``apply``.

    ``main`` already contains everything derived up to the previous
    iteration (including ``new`` — Algorithm 1 merges before looping);
    ``new`` is the delta that must participate in every join, giving the
    semi-naive evaluation the paper describes ("Inferray takes two
    inputs: existing triples and newly-inferred triples").  ``new`` is
    ``main`` itself on a batch run's first iteration, and, for a rule
    over a closed schema that re-feeds its own output, a read-only view
    of the delta without that rule's last output (see
    :func:`repro.rules.classes.self_fed_rules`).
    """

    main: TripleStore
    new: TripleStore
    out: InferredBuffers
    vocab: Vocab
    iteration: int = 1
    theta_prepass_done: bool = False
    stats: Dict[str, int] = field(default_factory=dict)
    #: Kernel backend rule executors run their bulk passes on; the
    #: engine passes its own, the default is the pure-Python reference.
    kernels: KernelBackend = field(default=PYTHON_KERNELS)

    def count(self, rule_name: str, emitted: int) -> None:
        """Accumulate per-rule emission counters (observability)."""
        if emitted:
            self.stats[rule_name] = self.stats.get(rule_name, 0) + emitted


class Rule:
    """Base class: a named Table-5 rule with a class label.

    Subclasses implement :meth:`apply`, reading ``ctx.main`` /
    ``ctx.new`` and emitting raw pairs into ``ctx.out``.  Emitting
    duplicates is fine — the Figure-5 merge removes them; emitting
    *already-known* triples is also fine but wasteful, so executors use
    the delta store wherever the join shape allows.
    """

    #: Table-5 class label: alpha, beta, gamma, delta, same-as, theta,
    #: functional, or trivial.
    rule_class = "trivial"

    def __init__(self, name: str):
        self.name = name

    def apply(self, ctx: RuleContext) -> None:
        """Fire the rule once for the current iteration."""
        raise NotImplementedError

    def estimate_join_input(
        self,
        *,
        main: TripleStore,
        new: TripleStore,
        vocab: Vocab,
    ) -> Optional[int]:
        """Estimated pairs this firing will scan, or ``None`` (unknown).

        The executor-selection cost model sums these estimates over the
        catalogue (floored by the committed store size, which covers
        rules that return ``None``) to decide whether a materialization
        is big enough for the thread pool to pay off.  Implementations
        must stay O(1) table-size lookups — the estimate runs before
        *every* flush.
        """
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ({self.rule_class})>"


def table_or_none(store: TripleStore, property_id: Optional[int]):
    """The non-empty table for a property id, else ``None``."""
    if property_id is None:
        return None
    table = store.table(property_id)
    if table is None or not table:
        return None
    return table
