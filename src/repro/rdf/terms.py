"""RDF term model: IRIs, literals, blank nodes and triples.

The paper operates on dictionary-encoded 64-bit integers, but the public
API accepts and returns *decoded* RDF terms.  This module provides the
minimal, immutable term model shared by the parser, the dictionary and
the engines.

Terms are interned-friendly: they are hashable frozen objects whose
equality follows RDF 1.1 semantics (IRIs compare by string, literals by
lexical form + datatype + language tag, blank nodes by local label).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union


@dataclass(frozen=True)
class IRI:
    """An IRI reference, stored as its full string (no namespace split).

    Terms are frozen dataclasses rather than NamedTuples so that
    equality is type-discriminating: ``IRI("a") != BlankNode("a")``.
    """

    value: str

    def n3(self) -> str:
        """Render in N-Triples syntax: ``<http://example.org/a>``."""
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BlankNode:
    """A blank node with a document-scoped label (``_:b0``)."""

    label: str

    def n3(self) -> str:
        """Render in N-Triples syntax: ``_:b0``."""
        return f"_:{self.label}"


@dataclass(frozen=True)
class Literal:
    """An RDF literal: lexical form, optional datatype IRI, optional language.

    A literal carries *either* a language tag (then its datatype is
    rdf:langString per RDF 1.1) *or* a datatype IRI; plain literals get
    xsd:string.  Both fields default to ``None`` so that equality is
    purely structural.
    """

    lexical: str
    datatype: Union[str, None] = None
    language: Union[str, None] = None

    def n3(self) -> str:
        """Render in N-Triples syntax with escaping."""
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype and self.datatype != _XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

_XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

#: Any RDF term usable in a triple.
Term = Union[IRI, BlankNode, Literal]

#: Terms allowed in the subject position.
SubjectTerm = Union[IRI, BlankNode]


class Triple(NamedTuple):
    """An RDF triple ⟨subject, predicate, object⟩.

    Predicate must be an :class:`IRI`; the subject an IRI or blank node;
    the object any term.  Validation is performed by :func:`make_triple`
    rather than in the constructor so that internal fast paths can skip it.
    """

    subject: SubjectTerm
    predicate: IRI
    object: Term

    def n3(self) -> str:
        """Render as one N-Triples statement (without trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


class TermError(ValueError):
    """Raised when a triple is built from ill-typed terms."""


def make_triple(subject: Term, predicate: Term, obj: Term) -> Triple:
    """Validate and build a :class:`Triple`.

    Raises
    ------
    TermError
        If the subject is a literal or the predicate is not an IRI.
    """
    if isinstance(subject, Literal):
        raise TermError(f"literal {subject!r} cannot be a subject")
    if not isinstance(predicate, IRI):
        raise TermError(f"predicate must be an IRI, got {predicate!r}")
    if not isinstance(obj, (IRI, BlankNode, Literal)):
        raise TermError(f"object must be an RDF term, got {obj!r}")
    return Triple(subject, predicate, obj)


def iri(value: str) -> IRI:
    """Shorthand constructor used pervasively in tests and examples."""
    return IRI(value)


def term_to_record(term: Term) -> list:
    """A JSON-serializable record for a term (see :func:`term_from_record`).

    The record is a small tagged list — ``["i", value]`` for IRIs,
    ``["b", label]`` for blank nodes, ``["l", lexical, datatype,
    language]`` for literals — used by the store persistence format.
    """
    if isinstance(term, IRI):
        return ["i", term.value]
    if isinstance(term, BlankNode):
        return ["b", term.label]
    if isinstance(term, Literal):
        return ["l", term.lexical, term.datatype, term.language]
    raise TermError(f"cannot serialize non-term {term!r}")


def term_from_record(record) -> Term:
    """Rebuild a term from a :func:`term_to_record` record."""
    kind = record[0]
    if kind == "i":
        return IRI(record[1])
    if kind == "b":
        return BlankNode(record[1])
    if kind == "l":
        return Literal(record[1], record[2], record[3])
    raise TermError(f"unknown term record kind {kind!r}")
