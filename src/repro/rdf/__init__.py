"""RDF substrate: terms, vocabularies, N-Triples and Turtle I/O."""

from .ntriples import (
    NTriplesError,
    parse,
    parse_file,
    serialize,
    write_file,
)
from .turtle import TurtleError, parse_turtle, parse_turtle_file
from .terms import (
    BlankNode,
    IRI,
    Literal,
    SubjectTerm,
    Term,
    TermError,
    Triple,
    iri,
    make_triple,
)
from .vocabulary import OWL, RDF, RDFS, XSD

__all__ = [
    "BlankNode",
    "IRI",
    "Literal",
    "NTriplesError",
    "OWL",
    "RDF",
    "RDFS",
    "SubjectTerm",
    "Term",
    "TermError",
    "TurtleError",
    "Triple",
    "XSD",
    "iri",
    "make_triple",
    "parse",
    "parse_file",
    "parse_turtle",
    "parse_turtle_file",
    "serialize",
    "write_file",
]
