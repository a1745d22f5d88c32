"""W3C vocabularies used by the rule sets: RDF, RDFS, OWL, XSD.

Every constant is an :class:`repro.rdf.terms.IRI`.  The names mirror the
local names of the specs (``RDFS.subClassOf`` etc.) so rule definitions in
:mod:`repro.rules.table5` read like the paper's Table 5.
"""

from __future__ import annotations

from .terms import IRI

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
_OWL_NS = "http://www.w3.org/2002/07/owl#"
_XSD_NS = "http://www.w3.org/2001/XMLSchema#"


class _Namespace:
    """A vocabulary namespace; attribute access mints IRIs lazily.

    ``ns.term`` and ``ns["term"]`` both return ``IRI(prefix + "term")``.
    Known terms are also set eagerly as class attributes in the concrete
    namespaces below so they are discoverable and typo-safe.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix

    @property
    def prefix(self) -> str:
        """The namespace IRI prefix string."""
        return self._prefix

    def term(self, local: str) -> IRI:
        """Mint the IRI for a local name under this namespace."""
        return IRI(self._prefix + local)


class _RDF(_Namespace):
    type: IRI
    Property: IRI
    langString: IRI
    first: IRI
    rest: IRI
    nil: IRI

    def __init__(self) -> None:
        super().__init__(_RDF_NS)
        self.type = self.term("type")
        self.Property = self.term("Property")
        self.langString = self.term("langString")
        self.first = self.term("first")
        self.rest = self.term("rest")
        self.nil = self.term("nil")


class _RDFS(_Namespace):
    subClassOf: IRI
    subPropertyOf: IRI
    domain: IRI
    range: IRI
    member: IRI
    label: IRI
    comment: IRI
    seeAlso: IRI
    isDefinedBy: IRI
    Resource: IRI
    Class: IRI
    Literal: IRI
    Datatype: IRI
    ContainerMembershipProperty: IRI

    def __init__(self) -> None:
        super().__init__(_RDFS_NS)
        self.subClassOf = self.term("subClassOf")
        self.subPropertyOf = self.term("subPropertyOf")
        self.domain = self.term("domain")
        self.range = self.term("range")
        self.member = self.term("member")
        self.label = self.term("label")
        self.comment = self.term("comment")
        self.seeAlso = self.term("seeAlso")
        self.isDefinedBy = self.term("isDefinedBy")
        self.Resource = self.term("Resource")
        self.Class = self.term("Class")
        self.Literal = self.term("Literal")
        self.Datatype = self.term("Datatype")
        self.ContainerMembershipProperty = self.term(
            "ContainerMembershipProperty"
        )


class _OWL(_Namespace):
    sameAs: IRI
    equivalentClass: IRI
    equivalentProperty: IRI
    inverseOf: IRI
    TransitiveProperty: IRI
    SymmetricProperty: IRI
    FunctionalProperty: IRI
    InverseFunctionalProperty: IRI
    Class: IRI
    DatatypeProperty: IRI
    ObjectProperty: IRI
    Thing: IRI
    Nothing: IRI

    def __init__(self) -> None:
        super().__init__(_OWL_NS)
        self.sameAs = self.term("sameAs")
        self.equivalentClass = self.term("equivalentClass")
        self.equivalentProperty = self.term("equivalentProperty")
        self.inverseOf = self.term("inverseOf")
        self.TransitiveProperty = self.term("TransitiveProperty")
        self.SymmetricProperty = self.term("SymmetricProperty")
        self.FunctionalProperty = self.term("FunctionalProperty")
        self.InverseFunctionalProperty = self.term("InverseFunctionalProperty")
        self.Class = self.term("Class")
        self.DatatypeProperty = self.term("DatatypeProperty")
        self.ObjectProperty = self.term("ObjectProperty")
        self.Thing = self.term("Thing")
        self.Nothing = self.term("Nothing")


class _XSD(_Namespace):
    string: IRI
    integer: IRI
    decimal: IRI
    double: IRI
    boolean: IRI
    dateTime: IRI

    def __init__(self) -> None:
        super().__init__(_XSD_NS)
        self.string = self.term("string")
        self.integer = self.term("integer")
        self.decimal = self.term("decimal")
        self.double = self.term("double")
        self.boolean = self.term("boolean")
        self.dateTime = self.term("dateTime")


RDF = _RDF()
RDFS = _RDFS()
OWL = _OWL()
XSD = _XSD()

#: Schema properties whose subjects/objects denote *properties*.  The
#: dictionary promotes these terms to the dense property id space at load
#: time (see DESIGN.md §6 "Property promotion").
PROPERTY_POSITION_PREDICATES = {
    RDFS.subPropertyOf: ("subject", "object"),
    OWL.equivalentProperty: ("subject", "object"),
    OWL.inverseOf: ("subject", "object"),
    RDFS.domain: ("subject",),
    RDFS.range: ("subject",),
}

#: Objects of rdf:type that mark the *subject* as a property.
PROPERTY_MARKING_TYPES = {
    RDF.Property,
    OWL.TransitiveProperty,
    OWL.SymmetricProperty,
    OWL.FunctionalProperty,
    OWL.InverseFunctionalProperty,
    OWL.DatatypeProperty,
    OWL.ObjectProperty,
    RDFS.ContainerMembershipProperty,
}
