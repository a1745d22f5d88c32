"""Rule machinery core: descriptions, resolved vocabulary, rule context,
base class.

A :class:`Description` states one Table-5 rule as data: body atoms and
head atoms over :class:`Vocab` names and ``?variables``.  Rules fire
entirely on dictionary-encoded ids: a :class:`Vocab` resolves every
constant appearing in Table 5 (schema properties and marker classes) to
its id once per engine, so executors touch no term strings.  A
:class:`RuleContext` carries the Algorithm-1 stores of the current
iteration plus the output buffers rules emit into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..dictionary.encoding import Dictionary
from ..kernels import KernelBackend
from ..rdf.vocabulary import OWL, RDF, RDFS
from ..store.triple_store import InferredBuffers, TripleStore


#: One triple pattern: each position a Vocab name or a ``?variable``.
Atom = Tuple[str, str, str]


def is_var(term: str) -> bool:
    """True for a ``?variable`` of a description."""
    return term.startswith("?")


@dataclass(frozen=True)
class Description:
    """body₁ ∧ … ∧ bodyₙ [∧ v≠w …] → head₁ ∧ … ∧ headₘ, as data.

    The one statement of a rule's shape: executors are built from it
    and read it once, and the dependency graph, the self-fed test, the
    hybrid planner and the datalog oracle read it instead of executor
    attributes.
    """

    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    not_equal: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def of(cls, body: str, head: str, not_equal=()) -> "Description":
        """Parse ``"?c1 subClassOf ?c2 . ?x type ?c1"``-style atoms."""

        def atoms(text: str) -> Tuple[Atom, ...]:
            return tuple(tuple(atom.split()) for atom in text.split(" . "))

        return cls(atoms(body), atoms(head), tuple(not_equal))


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
    #: Kernel backend rule executors run their bulk passes on.
    kernels: KernelBackend
    iteration: int = 1
    stats: Dict[str, int] = field(default_factory=dict)

    def count(self, rule_name: str, emitted: int) -> None:
        """Accumulate per-rule emission counters (observability)."""
        if emitted:
            self.stats[rule_name] = self.stats.get(rule_name, 0) + emitted


class Rule:
    """Base class: a named rule executor with a class label.

    ``descriptions`` are what the executor fires (empty for a custom
    rule, which the dependency graph then treats conservatively);
    ``rule_class`` is the Table-5 class label (alpha, beta, gamma,
    delta, same-as, theta, functional, trivial), taken from the
    catalogue entry.  Subclasses implement :meth:`apply`, reading
    ``ctx.main`` / ``ctx.new`` and emitting raw pairs into ``ctx.out``.
    Emitting duplicates is fine — the Figure-5 merge removes them;
    emitting *already-known* triples is also fine but wasteful, so
    executors use the delta store wherever the join shape allows.
    """

    def __init__(
        self,
        name: str,
        descriptions: Sequence[Description] = (),
        rule_class: str = "custom",
    ):
        self.name = name
        self.descriptions: Tuple[Description, ...] = tuple(descriptions)
        self.rule_class = rule_class

    def prepass(self, ctx: RuleContext) -> int:
        """Close over the loaded data before the fixed point (engine
        line 2); pairs emitted.  Only θ executors have work here."""
        return 0

    def recloses(self, ctx: RuleContext) -> Sequence[int]:
        """Properties a firing over ``ctx`` re-closes whole (θ only)."""
        return ()


def table_or_none(store: TripleStore, property_id: Optional[int]):
    """The non-empty table for a property id, else ``None``."""
    if property_id is None:
        return None
    table = store.table(property_id)
    if table is None or not table:
        return None
    return table
