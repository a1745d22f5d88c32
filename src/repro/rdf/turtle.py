"""A pragmatic Turtle subset parser (release convenience, not in paper).

The paper's datasets ship as N-Triples (:mod:`repro.rdf.ntriples` is
the benchmark loader), but downstream users overwhelmingly author
schemas in Turtle.  This module parses the subset that covers everyday
ontology files:

* ``@prefix`` / SPARQL-style ``PREFIX`` declarations,
* prefixed names (``rdfs:subClassOf``) and IRIs (``<…>``),
* the ``a`` keyword for ``rdf:type``,
* predicate lists (``;``) and object lists (``,``),
* blank node labels (``_:b0``),
* literals with language tags, datatypes, and the numeric/boolean
  shorthands (``42``, ``4.2``, ``true``).

Not supported (raise :class:`TurtleError`): ``@base``/relative IRIs,
anonymous blank nodes ``[...]``, collections ``(...)`` and multi-line
(triple-quoted) strings.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Tuple, Union

from .terms import BlankNode, IRI, Literal, Term, Triple, make_triple
from .vocabulary import RDF, XSD

class TurtleError(ValueError):
    """Raised on unsupported or malformed Turtle input."""


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>"{}|^`\\\x00-\x20]*>)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<prefix_decl>@prefix\b|PREFIX\b)
  | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<dtype>\^\^)
  | (?P<bnode>_:[A-Za-z0-9_.-]+)
  | (?P<pname>[A-Za-z_][\w.-]*)?:(?P<plocal>[\w.-]*)
  | (?P<number>[+-]?(?:\d+\.\d+|\d+))
  | (?P<keyword>\b(?:a|true|false)\b)
  | (?P<punct>[;,.])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

Token = Tuple[str, str, int]  # (kind, text, line)


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind in ("ws", "comment"):
            line += value.count("\n")
            continue
        if kind == "bad":
            raise TurtleError(f"line {line}: unexpected character {value!r}")
        if kind == "plocal":
            # pname group matched (possibly empty prefix part).
            kind = "qname"
            value = match.group(0)
        tokens.append((kind, value, line))
        line += value.count("\n")
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.prefixes: Dict[str, str] = {}

    def _error(self, message: str) -> TurtleError:
        if self.pos < len(self.tokens):
            kind, value, line = self.tokens[self.pos]
            return TurtleError(f"line {line}: {message} (at {value!r})")
        return TurtleError(f"{message} (at end of input)")

    def _peek(self) -> Union[Token, None]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of input")
        self.pos += 1
        return token

    def _expect(self, kind: str, value: Union[str, None] = None) -> Token:
        token = self._next()
        if token[0] != kind or (value is not None and token[1] != value):
            raise self._error(f"expected {value or kind}")
        return token

    # ------------------------------------------------------------------
    def _resolve_qname(self, qname: str) -> IRI:
        prefix, _, local = qname.partition(":")
        namespace = self.prefixes.get(prefix)
        if namespace is None:
            raise self._error(f"undeclared prefix {prefix!r}:")
        return IRI(namespace + local)

    def _parse_prefix_declaration(self, sparql_style: bool) -> None:
        name_token = self._next()
        if name_token[0] != "qname" or not name_token[1].endswith(":"):
            raise self._error("expected 'prefix:' in @prefix declaration")
        prefix = name_token[1][:-1]
        iri_token = self._expect("iri")
        self.prefixes[prefix] = iri_token[1][1:-1]
        if not sparql_style:
            self._expect("punct", ".")

    def _parse_term(self, *, as_object: bool) -> Term:
        kind, value, line = self._next()
        if kind == "iri":
            return IRI(value[1:-1])
        if kind == "qname":
            return self._resolve_qname(value)
        if kind == "bnode":
            return BlankNode(value[2:])
        if kind == "keyword" and value == "a":
            return RDF.type
        if not as_object:
            raise self._error("expected IRI, prefixed name or blank node")
        if kind == "string":
            lexical = _unescape_string(value[1:-1], line)
            peeked = self._peek()
            if peeked is not None and peeked[0] == "langtag":
                self._next()
                return Literal(lexical, language=peeked[1][1:])
            if peeked is not None and peeked[0] == "dtype":
                self._next()
                datatype = self._parse_term(as_object=False)
                if not isinstance(datatype, IRI):
                    raise self._error("datatype must be an IRI")
                return Literal(lexical, datatype=datatype.value)
            return Literal(lexical)
        if kind == "number":
            datatype = XSD.decimal if "." in value else XSD.integer
            return Literal(value, datatype=datatype.value)
        if kind == "keyword" and value in ("true", "false"):
            return Literal(value, datatype=XSD.boolean.value)
        raise self._error("expected a term")

    def parse(self) -> Iterator[Triple]:
        while self._peek() is not None:
            kind, value, _ = self._peek()
            if kind == "prefix_decl":
                self._next()
                self._parse_prefix_declaration(
                    sparql_style=(value == "PREFIX")
                )
                continue
            subject = self._parse_term(as_object=False)
            while True:  # predicate lists (';')
                predicate = self._parse_term(as_object=False)
                if not isinstance(predicate, IRI):
                    raise self._error("predicate must be an IRI")
                while True:  # object lists (',')
                    obj = self._parse_term(as_object=True)
                    yield make_triple(subject, predicate, obj)
                    token = self._expect("punct")
                    if token[1] == ",":
                        continue
                    break
                if token[1] == ";":
                    peeked = self._peek()
                    if peeked is not None and peeked[0] == "punct" and (
                        peeked[1] == "."
                    ):
                        token = self._next()  # trailing ';' before '.'
                        break
                    continue
                break
            if token[1] != ".":
                raise self._error("expected '.' at end of statement")


_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


_HEX_RE = re.compile(r"[0-9A-Fa-f]+")


def _unescape_string(raw: str, line: int) -> str:
    """Resolve a string token's escapes; ``line`` locates a bad one.

    The tokenizer guarantees a character after every backslash.  A
    ``\\u`` / ``\\U`` escape needs exactly 4 / 8 hex digits naming a
    Unicode code point (``int(x, 16)`` alone is laxer: signs,
    underscores, fewer digits).
    """
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        esc = raw[i + 1]
        if esc in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[esc])
            i += 2
        elif esc in ("u", "U"):
            width = 4 if esc == "u" else 8
            escape = raw[i: i + 2 + width]
            digits = escape[2:]
            if not (
                len(digits) == width and _HEX_RE.fullmatch(digits)
                and int(digits, 16) <= 0x10FFFF
            ):
                raise TurtleError(
                    f"line {line}: bad \\{esc} escape {escape!r} "
                    f"(needs {width} hex digits naming a code point)"
                )
            out.append(chr(int(digits, 16)))
            i += len(escape)
        else:
            raise TurtleError(f"line {line}: bad string escape \\{esc}")
    return "".join(out)


def parse_turtle(text: str) -> Iterator[Triple]:
    """Parse a Turtle document (subset — see module docstring)."""
    yield from _Parser(_tokenize(text)).parse()


def parse_turtle_file(path: str) -> Iterator[Triple]:
    """Parse a Turtle file from disk (UTF-8)."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from parse_turtle(handle.read())
