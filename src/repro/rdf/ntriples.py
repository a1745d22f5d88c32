"""Streaming N-Triples parser and serializer (RDF 1.1 N-Triples).

Comments and blank lines are skipped, and a statement line becomes
three *interned* terms — each distinct term of a parse is built once,
however often it occurs.  It covers the full N-Triples grammar used by
the benchmark datasets: IRIREF, blank node labels, literals with
escapes, language tags and datatype IRIs.

There is one parse entry point, :func:`_scan_text`, and it works a
block of text at a time: about :data:`BLOCK_CHARS` characters, ending
on a line boundary.  A block in canonical form — every line exactly
``s p o .``, single spaces, no comment — is split by ``str.split``, and
its tokens are looked up in the parse's term table column-wise in C;
the table checks a token the first time it sees it (:data:`_TOKEN`),
and a per-block check of term kinds rejects a literal subject or a
non-IRI predicate.  Any other block goes line by line through
:func:`_scan`, where a compiled pattern covering the escape-free subset
of the grammar (:data:`_STATEMENT`) sits in front of the cursor parser
(:class:`_LineParser`): a line it matches is split into three tokens,
and any other line — escapes, comments, blanks, everything malformed —
goes to the cursor parser, which therefore still produces every
diagnostic, with its line number.  :func:`parse` and
:func:`parse_file` wrap the entry point into ``Triple`` objects;
:func:`read_columns` returns the same statements as int64 columns of
table positions, which is what the bulk load path
(:func:`repro.dictionary.encoding.encode_columns`) consumes.

Lines end at ``\\n``, ``\\r\\n`` or a bare ``\\r`` (universal newlines) on
both the file and the string route, and a byte-order mark opening the
text is skipped.

It deliberately does *not* attempt Turtle prefixes — the paper's datasets
are distributed as N-Triples, and keeping the grammar small keeps the
loader fast, which matters because loading time is part of the measured
pipeline for some systems.
"""

from __future__ import annotations

import io
import re
from array import array
from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
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

    ``table[token]`` builds the term of a token not seen before, after
    checking that it spells one term of the escape-free subset
    (:data:`_TOKEN`; :class:`_NotCanonical` if not).  The cursor parser
    builds its own terms and registers them with :meth:`add`.
    ``heads[i]`` is the first character of the token of ``terms[i]``
    (``<``, ``_`` or ``"``): its kind, as a byte.
    """

    __slots__ = ("terms", "heads")

    def __init__(self) -> None:
        super().__init__()
        self.terms: List[Term] = []
        self.heads = bytearray()

    def __missing__(self, token: str) -> int:
        if _TOKEN.fullmatch(token) is None:
            raise _NotCanonical(token)
        return self.add(token, _term_from_token(token))

    def add(self, token: str, term: Term) -> int:
        position = self[token] = len(self.terms)
        self.terms.append(term)
        self.heads.append(ord(token[0]))
        return position

    def truncate(self, size: int, tokens: Iterable[str]) -> None:
        """Forget the terms from position ``size`` on, every one of which
        ``tokens`` spells."""
        for token in tokens:
            if self.get(token, -1) >= size:
                del self[token]
        del self.terms[size:]
        del self.heads[size:]


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


#: One term token of the escape-free subset, in any position: what the
#: term table checks a token against before building its term.
_TOKEN = re.compile(f"{_IRIREF}|{_BNODE}|{_LITERAL}")


class _NotCanonical(Exception):
    """A block of text the block scan cannot take: it goes line by line."""


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


#: Characters per block of :func:`_scan_text`, before the block is
#: extended to the end of its last line.
BLOCK_CHARS = 1 << 18

_LITERAL_HEAD = ord('"')
_IRI_HEAD = ord("<")


def _blocks(stream: TextIO) -> Iterator[str]:
    """The text of ``stream`` in blocks of about :data:`BLOCK_CHARS`
    characters, each ending on a line boundary (or the end)."""
    while True:
        block = stream.read(BLOCK_CHARS)
        if not block:
            return
        if not block.endswith("\n"):
            block += stream.readline()
        yield block


def _canonical(text: str, table: _TermTable):
    """The flat ``s p o …`` table positions of ``text`` (lines that each
    end in ``\\n``) if every line is exactly ``s p o .`` with single
    spaces; else ``None``, with ``table`` as it was.

    The counts pin the shape.  With ``n`` line ends `` .\\n``, ``3 * n``
    spaces, ``4 * n`` tokens and ``4 * n`` whitespace characters in all
    (the length count), the whitespace is those spaces and the ``n``
    newlines: one blank between neighbouring tokens, and every line
    ending in a dot.  A dot spells no term, so once the other tokens
    spell terms the dots are every fourth token: each line is
    ``T T T .``.  That line is what the cursor parser reads as three
    terms exactly when each ``T`` spells a term of the kind its position
    takes: the table checks the spelling of each new token, and the kind
    check the position.
    """
    import numpy as np

    n = text.count(" .\n")
    if text.count(" ") != 3 * n:
        return None
    tokens = text.split()
    if len(tokens) != 4 * n or sum(map(len, tokens)) + 4 * n != len(text):
        return None
    del tokens[3::4]  # the dots, if the block is canonical
    mark = len(table.terms)
    try:
        positions = np.fromiter(
            map(table.__getitem__, tokens), np.int64, len(tokens)
        )
    except _NotCanonical:
        table.truncate(mark, tokens)
        return None
    heads = np.frombuffer(table.heads, np.uint8)
    wrong_kind = (heads[positions[0::3]] == _LITERAL_HEAD).any() or (
        heads[positions[1::3]] != _IRI_HEAD
    ).any()
    del heads  # a live view would pin the bytearray's size
    if wrong_kind:
        table.truncate(mark, tokens)
        return None
    return positions


def _scan_text(stream: TextIO, table: _TermTable) -> Iterator[object]:
    """The parse entry point: per block of ``stream``, the flat
    ``s p o …`` int64 ``table`` positions of its statements, in input
    order.  A block :func:`_canonical` cannot take goes line by line
    through :func:`_scan`, which raises on the first malformed line."""
    import numpy as np

    line_no = 1
    for block in _blocks(stream):
        text = block if block.endswith("\n") else block + "\n"
        positions = _canonical(text, table)
        if positions is None:
            flat = array("q")
            lines = io.StringIO(block, newline="\n")
            for statement in _scan(lines, table, line_no):
                flat.extend(statement)
            positions = np.frombuffer(flat, np.int64)
            line_no += text.count("\n")
        else:
            line_no += len(positions) // 3
        yield positions


def parse(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Parse N-Triples from a string or text stream, yielding triples.

    A term spelled the same way twice in one parse is one object: the
    table that interns them lives as long as the iteration.  Triples
    come a block of text at a time, so a malformed line raises before
    any statement of its block is yielded.  A stream's lines end at
    ``\\n`` only: open it with universal newlines, as ``open`` does by
    default.

    >>> list(parse('<http://a> <http://p> "x" .'))
    [Triple(subject=IRI(value='http://a'), ...)]
    """
    stream: TextIO
    if isinstance(source, str):
        # As a file is read: universal newlines, no byte-order mark.
        stream = io.StringIO(source.removeprefix("\ufeff"), newline=None)
    else:
        stream = source
    table = _TermTable()
    terms = table.terms
    for positions in _scan_text(stream, table):
        values = iter(positions.tolist())
        for s, p, o in zip(values, values, values):
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
    terms[predicates[i]], terms[objects[i]])``; the three columns are
    int64 arrays."""

    terms: List[Term]
    subjects: Sequence[int]
    predicates: Sequence[int]
    objects: Sequence[int]


def read_columns(path: str) -> TermColumns:
    """:func:`parse_file` without a :class:`Triple` per statement.

    The whole file is read before anything is returned, so a malformed
    line raises with nothing handed over.
    """
    import numpy as np

    table = _TermTable()
    flat = array("q")
    with _open(path) as handle:
        for positions in _scan_text(handle, table):
            flat.frombytes(positions.tobytes())
    flat = np.frombuffer(flat, np.int64)
    return TermColumns(table.terms, flat[0::3], flat[1::3], flat[2::3])


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
