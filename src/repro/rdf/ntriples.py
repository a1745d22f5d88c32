"""Streaming N-Triples parser and serializer (RDF 1.1 N-Triples).

The parser is line-oriented and allocation-light: comments and blank
lines are skipped, and a statement line becomes three *interned* terms —
each distinct term of a parse is built once, however often it occurs.
It covers the full N-Triples grammar used by the benchmark datasets:
IRIREF, blank node labels, literals with escapes, language tags and
datatype IRIs.

There is one parse entry point, :func:`_scan`.  A compiled pattern
covering the escape-free subset of the grammar sits in front of the
cursor parser (:class:`_LineParser`): a line it matches is split into
three tokens, looked up in the parse's token table, and never reaches
the cursor; any other line — escapes, comments, blanks, everything
malformed — goes to the cursor parser, which therefore still produces
every diagnostic.  :func:`parse` and :func:`parse_file` wrap the
entry point into ``Triple`` objects;
:func:`read_columns` returns the same statements as columns of table
indexes, which is what the bulk load path
(:func:`repro.dictionary.encoding.encode_columns`) consumes.

It deliberately does *not* attempt Turtle prefixes — the paper's datasets
are distributed as N-Triples, and keeping the grammar small keeps the
loader fast, which matters because loading time is part of the measured
pipeline for some systems.
"""

from __future__ import annotations

import io
import re
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    TextIO,
    Tuple,
    Union,
)

from .terms import BlankNode, IRI, Literal, Term, Triple


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input, with line diagnostics."""

    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line


def _is_ascii_alpha(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_ascii_alnum(ch: str) -> bool:
    return _is_ascii_alpha(ch) or "0" <= ch <= "9"


_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _unescape(raw: str, line_no: int, line: str) -> str:
    """Resolve ``\\n``-style and ``\\uXXXX``/``\\UXXXXXXXX`` escapes."""
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise NTriplesError("dangling escape", line_no, line)
        esc = raw[i + 1]
        if esc in _ESCAPES:
            out.append(_ESCAPES[esc])
            i += 2
        elif esc in ("u", "U"):
            width = 4 if esc == "u" else 8
            digits = raw[i + 2 : i + 2 + width]
            # UCHAR requires *exactly* 4 (\u) or 8 (\U) hex digits; a
            # truncated escape must not silently decode from whatever
            # characters follow, and bad hex must carry line context.
            if len(digits) < width:
                raise NTriplesError(
                    f"truncated \\{esc} escape (needs {width} hex digits)",
                    line_no,
                    line,
                )
            if not all(d in "0123456789abcdefABCDEF" for d in digits):
                # int(x, 16) is laxer than HEX (signs, underscores).
                raise NTriplesError(
                    f"invalid hex digits in \\{esc} escape: {digits!r}",
                    line_no,
                    line,
                )
            codepoint = int(digits, 16)
            try:
                out.append(chr(codepoint))
            except (ValueError, OverflowError):
                # chr() raises OverflowError past the C-int range and
                # ValueError past U+10FFFF — both are the same grammar
                # violation here.
                raise NTriplesError(
                    f"\\{esc} escape out of Unicode range: {digits!r}",
                    line_no,
                    line,
                ) from None
            i += 2 + width
        else:
            raise NTriplesError(f"bad escape \\{esc}", line_no, line)
    return "".join(out)


#: What IRIREF forbids outside a ``UCHAR`` escape (N-Triples grammar:
#: ``[^#x00-#x20<>"{}|^`\\]``), as the inside of a character class.
#: The statement pattern and the cursor parser both build on it, so
#: the two cannot disagree on what an IRI may contain.
_IRI_FORBIDDEN = r'\x00-\x20<>"{}|^`\\'

#: The longest legal prefix of an IRIREF body.
_IRI_BODY = re.compile(
    rf"(?:[^{_IRI_FORBIDDEN}]|\\u[0-9A-Fa-f]{{4}}|\\U[0-9A-Fa-f]{{8}})*"
)


class _TermTable(dict):
    """The terms of one parse, each built once and numbered densely.

    Maps a token — the characters that spell a term in the input,
    ``<...>``, ``_:...`` or ``"..."`` with its suffix — to the position
    of its term in ``terms`` (first-seen order).  Two spellings of one
    term (``"a"`` and ``"\\u0061"``) get two entries holding equal
    terms; consumers that need one id per term key by the term.

    ``table[token]`` builds the term of a token not seen before, which
    only works for tokens of the escape-free subset (what
    :data:`_STATEMENT` captures); the cursor parser builds its own terms
    and registers them with :meth:`add`.
    """

    __slots__ = ("terms",)

    def __init__(self) -> None:
        super().__init__()
        self.terms: List[Term] = []

    def __missing__(self, token: str) -> int:
        return self.add(token, _term_from_token(token))

    def add(self, token: str, term: Term) -> int:
        position = self[token] = len(self.terms)
        self.terms.append(term)
        return position


class _LineParser:
    """Cursor-based parser over a single statement line."""

    def __init__(self, line: str, line_no: int, table: _TermTable):
        self.line = line
        self.line_no = line_no
        self.table = table
        self.pos = 0

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(message, self.line_no, self.line)

    def skip_ws(self) -> None:
        line = self.line
        pos = self.pos
        while pos < len(line) and line[pos] in " \t":
            pos += 1
        self.pos = pos

    def parse_term(self, *, as_object: bool) -> int:
        """Parse the next term (literals only when ``as_object``);
        returns its position in the table."""
        self.skip_ws()
        start = self.pos
        if start >= len(self.line):
            raise self.error("unexpected end of statement")
        ch = self.line[start]
        if ch == "<":
            term: Term = self._parse_iri()
        elif ch == "_":
            term = self._parse_bnode()
        elif ch == '"':
            if not as_object:
                raise self.error("literal in subject/predicate position")
            term = self._parse_literal()
        else:
            raise self.error(f"unexpected character {ch!r}")
        token = self.line[start : self.pos]
        known = self.table.get(token)
        return self.table.add(token, term) if known is None else known

    def _parse_iri(self) -> IRI:
        end = self.line.find(">", self.pos + 1)
        if end == -1:
            raise self.error("unterminated IRI")
        raw = self.line[self.pos + 1 : end]
        legal = _IRI_BODY.match(raw).end()
        if legal != len(raw):
            if raw.startswith(("\\u", "\\U"), legal):
                # A malformed UCHAR: _unescape names what is wrong.
                _unescape(raw[legal:], self.line_no, self.line)
            raise self.error(f"character {raw[legal]!r} not allowed in IRI")
        self.pos = end + 1
        return IRI(_unescape(raw, self.line_no, self.line))

    def _parse_bnode(self) -> BlankNode:
        if not self.line.startswith("_:", self.pos):
            raise self.error("expected blank node label")
        start = self.pos + 2
        end = start
        line = self.line
        # Stop at line terminators too: stream lines keep their '\n',
        # and a label running into it would hide a trailing '.' from
        # the give-back below.
        while end < len(line) and line[end] not in " \t\r\n":
            end += 1
        # BLANK_NODE_LABEL permits '.' only *inside* a label, never at
        # its end — `_:b1.` is the label `b1` followed by the statement
        # terminator, so give trailing dots back to the cursor.
        while end > start and line[end - 1] == ".":
            end -= 1
        if end == start:
            raise self.error("empty blank node label")
        self.pos = end
        return BlankNode(line[start:end])

    def _parse_literal(self) -> Literal:
        # Find the closing quote, honouring backslash escapes.
        line = self.line
        i = self.pos + 1
        while True:
            end = line.find('"', i)
            if end == -1:
                raise self.error("unterminated literal")
            backslashes = 0
            j = end - 1
            while j >= 0 and line[j] == "\\":
                backslashes += 1
                j -= 1
            if backslashes % 2 == 0:
                break
            i = end + 1
        lexical = _unescape(
            line[self.pos + 1 : end], self.line_no, self.line
        )
        self.pos = end + 1
        if self.pos < len(line) and line[self.pos] == "@":
            # LANGTAG ::= '@' [a-zA-Z]+ ('-' [a-zA-Z0-9]+)* — ASCII
            # only (str.isalnum() would admit '@été'), and the primary
            # subtag is alphabetic (no digit-leading tags like '@1fr').
            start = self.pos + 1
            end = start
            while end < len(line) and _is_ascii_alpha(line[end]):
                end += 1
            if end == start:
                raise self.error("empty or non-alphabetic language tag")
            while end < len(line) and line[end] == "-":
                sub_start = end + 1
                sub_end = sub_start
                while sub_end < len(line) and _is_ascii_alnum(line[sub_end]):
                    sub_end += 1
                if sub_end == sub_start:
                    raise self.error("empty language subtag")
                end = sub_end
            self.pos = end
            return Literal(lexical, language=line[start:end])
        if line.startswith("^^", self.pos):
            self.pos += 2
            if self.pos >= len(line) or line[self.pos] != "<":
                raise self.error("datatype must be an IRI")
            datatype = self._parse_iri()
            return Literal(lexical, datatype=datatype.value)
        return Literal(lexical)

    def expect_dot(self) -> None:
        self.skip_ws()
        if self.pos >= len(self.line) or self.line[self.pos] != ".":
            raise self.error("expected '.' terminator")
        self.pos += 1
        self.skip_ws()
        if self.pos < len(self.line) and not self.line[
            self.pos :
        ].lstrip().startswith("#"):
            if self.line[self.pos :].strip():
                raise self.error("trailing content after '.'")


def _parse_statement(
    line: str, line_no: int, table: _TermTable
) -> Union[Tuple[int, int, int], None]:
    """Cursor-parse one line into ``table`` positions; ``None`` for
    blanks and comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parser = _LineParser(line, line_no, table)
    subject = parser.parse_term(as_object=False)
    predicate = parser.parse_term(as_object=False)
    if not isinstance(table.terms[predicate], IRI):
        raise parser.error("predicate must be an IRI")
    obj = parser.parse_term(as_object=True)
    parser.expect_dot()
    return subject, predicate, obj


# ----------------------------------------------------------------------
# The escape-free subset, matched in one step
# ----------------------------------------------------------------------
_IRIREF = rf"<[^{_IRI_FORBIDDEN}]*>"
# The cursor parser takes a label up to the next blank and gives
# trailing dots back; the lookahead pins the same split, so the pattern
# cannot backtrack into a shorter label the cursor would not produce.
_BNODE = r"_:[^ \t\r\n]*[^ \t\r\n.](?=\.*(?:[ \t\r\n]|\Z))"
_LITERAL = (
    r'"[^"\\]*"'
    rf"(?:@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*|\^\^{_IRIREF})?"
)

#: A statement with no escape in any term.  Blanks are spelled as the
#: cursor parser spells them (ASCII space and tab, never ``\s``).  Every
#: line this matches, the cursor parser accepts with the same three
#: terms — tests/rdf/test_ntriples_differential.py holds it to that.
_STATEMENT = re.compile(
    rf"[ \t]*({_IRIREF}|{_BNODE})"
    rf"[ \t]*({_IRIREF})"
    rf"[ \t]*({_IRIREF}|{_BNODE}|{_LITERAL})"
    r"[ \t]*\.[ \t]*(?:#[^\r\n]*)?[\r\n]*\Z"
)


def _term_from_token(token: str) -> Term:
    """The term a :data:`_STATEMENT` group spells (nothing to unescape)."""
    head = token[0]
    if head == "<":
        return IRI(token[1:-1])
    if head == "_":
        return BlankNode(token[2:])
    close = token.rindex('"')
    lexical = token[1:close]
    suffix = token[close + 1 :]
    if not suffix:
        return Literal(lexical)
    if suffix[0] == "@":
        return Literal(lexical, language=suffix[1:])
    return Literal(lexical, datatype=suffix[3:-1])


def _scan(
    lines: Iterable[str], table: _TermTable, first_line_no: int = 1
) -> Iterator[Tuple[int, int, int]]:
    """The parse entry point: one ``(s, p, o)`` of ``table`` positions
    per statement line, in input order."""
    match = _STATEMENT.match
    line_no = first_line_no - 1
    for line in lines:
        line_no += 1
        found = match(line)
        if found is None:
            statement = _parse_statement(line, line_no, table)
            if statement is not None:
                yield statement
            continue
        s_token, p_token, o_token = found.groups()
        yield table[s_token], table[p_token], table[o_token]


def parse(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Parse N-Triples from a string or text stream, yielding triples.

    A term spelled the same way twice in one parse is one object: the
    table that interns them lives as long as the iteration.

    >>> list(parse('<http://a> <http://p> "x" .'))
    [Triple(subject=IRI(value='http://a'), ...)]
    """
    stream: TextIO
    if isinstance(source, str):
        stream = io.StringIO(source)
    else:
        stream = source
    table = _TermTable()
    terms = table.terms
    for s, p, o in _scan(stream, table):
        yield Triple(terms[s], terms[p], terms[o])


def _open(path: str) -> TextIO:
    # utf-8-sig: a byte-order mark opening the file is not a character
    # of its first statement.
    return open(path, "r", encoding="utf-8-sig")


def parse_file(path: str) -> Iterator[Triple]:
    """Parse an N-Triples file from disk (UTF-8), streaming."""
    with _open(path) as handle:
        yield from parse(handle)


class TermColumns(NamedTuple):
    """A parsed file as columns: statement ``i`` is ``(terms[subjects[i]],
    terms[predicates[i]], terms[objects[i]])``."""

    terms: List[Term]
    subjects: List[int]
    predicates: List[int]
    objects: List[int]


def read_columns(path: str) -> TermColumns:
    """:func:`parse_file` without a :class:`Triple` per statement.

    The whole file is read before anything is returned, so a malformed
    line raises with nothing handed over.
    """
    table = _TermTable()
    subjects: List[int] = []
    predicates: List[int] = []
    objects: List[int] = []
    with _open(path) as handle:
        for s, p, o in _scan(handle, table):
            subjects.append(s)
            predicates.append(p)
            objects.append(o)
    return TermColumns(table.terms, subjects, predicates, objects)


def serialize(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "".join(t.n3() + "\n" for t in triples)


def write_file(triples: Iterable[Triple], path: str) -> int:
    """Write triples to an N-Triples file; returns the statement count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for triple in triples:
            handle.write(triple.n3())
            handle.write("\n")
            count += 1
    return count
