"""The statement pattern against the cursor parser, line by line.

``ntriples._STATEMENT`` answers for the escape-free subset of the
grammar before the cursor parser is consulted.  That is only sound if
every line it matches is a line the cursor parser accepts, with the
same three terms; these tests run both on the same lines and compare.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import bsbm_like, lubm_like, subclass_tree
from repro.rdf import ntriples
from repro.rdf.ntriples import NTriplesError, parse, serialize
from repro.rdf.terms import Triple
from test_ntriples import parse_line

CONFORMANCE = Path(__file__).resolve().parents[1] / "fixtures" / "conformance"


def pattern_parse(line):
    """What the pattern alone makes of a line (``None``: no match)."""
    found = ntriples._STATEMENT.match(line)
    if found is None:
        return None
    return Triple(*map(ntriples._term_from_token, found.groups()))


def cursor_parse(line, line_no=1):
    """What the cursor parser alone makes of a line."""
    table = ntriples._TermTable()
    statement = ntriples._parse_statement(line, line_no, table)
    if statement is None:
        return None
    return Triple(*(table.terms[position] for position in statement))


def outcome(parser, line, line_no):
    """A parse result in comparable form: the triple, or the error."""
    try:
        return ("ok", parser(line, line_no))
    except NTriplesError as error:
        return ("error", str(error), error.line_no)


def check_line(line, line_no=1):
    """Pattern ⊆ cursor on this line, and the public entry agrees."""
    expected = outcome(cursor_parse, line, line_no)
    matched = pattern_parse(line)
    if matched is not None:
        assert expected == ("ok", matched), (
            f"pattern matched {line!r} as {matched!r}; "
            f"the cursor parser says {expected!r}"
        )
    assert outcome(parse_line, line, line_no) == expected
    return matched is not None


# ----------------------------------------------------------------------
# Generated lines
# ----------------------------------------------------------------------
# Three kinds, in comparable shares: well-formed statements without an
# escape (the pattern's subset), well-formed statements with escapes
# (the cursor parser's alone), and lines with something wrong in them.
#
# Characters a term may hold that are not line breaks to the parser but
# are to str.splitlines(), plus a few beyond ASCII.
_ODD_IN_IRI = "\x85\u2028\u2029\xa0é\U0001f600"
_ODD = "\x0b\x0c\x1c" + _ODD_IN_IRI


def _joined(pieces, max_size):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


def _well_formed_terms(escapes):
    """(subject-or-object IRIs and blank nodes, literals) — all legal;
    with ``escapes`` some spell characters as ECHAR / UCHAR."""
    iri_pieces = list("abcXYZ019:/#._-~%") + list(_ODD_IN_IRI)
    lexical_pieces = list("abc 012.#<>@^\t{}|`'") + list(_ODD)
    datatypes = ["^^<http://dt/a>", "^^<>"]
    if escapes:
        # Repeated: about every other piece drawn is an escape.
        iri_pieces += ["\\u00e9", "\\U0001F600", "\\u0020"] * 8
        lexical_pieces += [
            '\\"', "\\\\", "\\n", "\\t", "\\'", "\\u0041", "\\U0001F600",
        ] * 4
        datatypes += ["^^<http://dt/\\u00e9>"]
    iri = _joined(iri_pieces, 12).map(lambda body: f"<http://x/{body}>")
    iri = st.one_of(iri, iri, st.just("<>"))
    bnode = st.one_of(
        st.text(alphabet="ab01_-", min_size=1, max_size=6).map("_:".__add__),
        st.sampled_from(["_:b1", "_:b.1", "_:a..b", "_:0", "_:é"]),
    )
    suffix = st.sampled_from(
        ["", "", "@en", "@en-GB", "@en-us-2020"] + datatypes
    )
    literal = st.tuples(_joined(lexical_pieces, 10), suffix).map(
        lambda parts: f'"{parts[0]}"{parts[1]}'
    )
    return iri, bnode, literal


_blank = st.sampled_from(["", " ", "  ", "\t", " \t "])
_end = st.sampled_from(
    ["", "\n", "\r\n", "\r", " ", " # note", "# note\n", " # x\n", "\n\n",
     " # a\rb"]
)


@st.composite
def well_formed_lines(draw, escapes):
    """A statement the grammar accepts, blanks and comment included."""
    iri, bnode, literal = _well_formed_terms(escapes)
    subject = draw(st.one_of(iri, bnode))
    obj = draw(st.one_of(iri, bnode, literal, literal))
    # A blank-node label runs to the next blank: one must follow it,
    # except that dots ending the label are given back as the '.'.
    after_subject = draw(_blank) or (" " if subject[0] == "_" else "")
    before_dot, end = draw(_blank), draw(_end)
    if obj[0] == "_" and not before_dot and end.startswith("#"):
        end = " " + end
    return (
        draw(_blank) + subject + after_subject + draw(iri)
        + draw(_blank) + obj + before_dot + "." + end
    )


_iri_body = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ019:/#._-~%") + list(' <"{}|^`\t') + list(_ODD)
    ),
    max_size=12,
)
_uchar = st.sampled_from(
    ["\\u00e9", "\\U0001F600", "\\u00E", "\\u12zz", "\\UFFFFFFFF", "\\t", "\\"]
)
_iri = st.one_of(
    _iri_body.map(lambda body: f"<http://x/{body}>"),
    st.tuples(_iri_body, _uchar, _iri_body).map(
        lambda parts: "<http://x/" + "".join(parts) + ">"
    ),
    st.just("<>"),
    st.just("<http://x/unterminated"),
)
_bnode = st.one_of(
    st.text(alphabet="ab01._-", min_size=0, max_size=6).map("_:".__add__),
    st.sampled_from(["_:b1", "_:b.1", "_:b1.", "_:b..", "_:", "_b", "_:é"]),
)
_lexical = _joined(
    list("abc 012.#<>@^\t") + list(_ODD)
    + ['\\"', "\\\\", "\\n", "\\u0041", "\\U0001F600", "\\u00", "\\x", "\\"],
    10,
)
_suffix = st.sampled_from(
    ["", "@en", "@en-GB", "@en-us-2020", "@", "@1fr", "@en-", "@été",
     "^^<http://dt/a>", "^^<http://d t>", "^^<http://dt/\\u00e9>", "^^dt",
     "^", "^^", "@en^^<http://dt/a>"]
)
_literal = st.tuples(_lexical, _suffix).map(
    lambda parts: f'"{parts[0]}"{parts[1]}'
)
_gap = st.sampled_from(["", " ", "  ", "\t", " \t ", "\x0b", "\xa0"])
_tail = st.sampled_from(
    ["", "\n", "\r\n", "\r", " ", " # note", "# note\n", " # x\n",
     " extra", " .", "\n\n", " # a\rb"]
)


@st.composite
def doubtful_lines(draw):
    """Statement-shaped, every part drawn from legal and illegal
    spellings alike: terms in the wrong position, forbidden characters,
    broken escapes, odd blanks, a missing or doubled '.'."""
    subject = draw(st.one_of(_iri, _bnode, _literal))
    predicate = draw(st.one_of(_iri, _iri, _bnode))
    obj = draw(st.one_of(_iri, _bnode, _literal, _literal))
    gaps = [draw(_gap) for _ in range(4)]
    dot = draw(st.sampled_from([".", ".", ".", "", ".."]))
    return (
        gaps[0] + subject + gaps[1] + predicate + gaps[2] + obj
        + gaps[3] + dot + draw(_tail)
    )


@st.composite
def slipped_lines(draw):
    """A well-formed line with one character dropped or doubled: most
    malformed input is that."""
    line = draw(well_formed_lines(draw(st.booleans())))
    slip = draw(st.integers(min_value=0, max_value=len(line) - 1))
    if draw(st.booleans()):
        return line[:slip] + line[slip + 1 :]
    return line[:slip] + line[slip] + line[slip:]


def statement_lines():
    return st.one_of(
        well_formed_lines(False),
        well_formed_lines(True),
        doubtful_lines(),
        slipped_lines(),
    )


@settings(max_examples=1500, deadline=None)
@given(statement_lines(), st.integers(min_value=1, max_value=10**6))
def test_generated_lines_agree(line, line_no):
    check_line(line, line_no)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_text_agrees(line):
    check_line(line)


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(well_formed_lines))
def test_well_formed_lines_are_accepted(line):
    """The generator's well-formed half is what it says: without that,
    the agreement above would mostly compare error messages."""
    assert outcome(cursor_parse, line, 1)[0] == "ok"


def test_generator_reaches_both_sides():
    """The strategy is not vacuous: pattern hits, cursor-only statements
    and rejected lines each make up a real share of what it yields."""
    seen = {"pattern": 0, "cursor": 0, "error": 0}

    # derandomize: the shares below are the same on every run.
    @settings(max_examples=600, deadline=None, database=None,
              derandomize=True)
    @given(statement_lines())
    def tally(line):
        if pattern_parse(line) is not None:
            seen["pattern"] += 1
        elif outcome(cursor_parse, line, 1)[0] == "ok":
            seen["cursor"] += 1
        else:
            seen["error"] += 1

    tally()
    total = sum(seen.values())
    assert all(count >= total // 10 for count in seen.values()), seen


# ----------------------------------------------------------------------
# Fixed lines: the subset's edges
# ----------------------------------------------------------------------
IN_SUBSET = [
    "<http://a> <http://p> <http://b> .",
    "<http://a><http://p><http://b>.",
    "\t<http://a>\t<http://p>\t<http://b>\t.\t\n",
    "_:s <http://p> _:o .",
    "_:s.t <http://p> _:o.u .",
    "<http://a> <http://p> _:b1.",
    "<http://a> <http://p> _:b1.\n",
    '<http://a> <http://p> "" .',
    '<http://a> <http://p> "x y\tz" .',
    '<http://a> <http://p> "x"@en-us-2020 .',
    '<http://a> <http://p> "5"^^<http://dt> .',
    '<http://a> <http://p> "\x0b\x85 " .',
    "<http://a> <http://p> <http://b> .# note",
    "<http://a> <http://p> <http://b> . # note   more\r\n",
    "<> <> <> .",
]

OUTSIDE_SUBSET_BUT_LEGAL = [
    "",
    "   \n",
    "# comment",
    '<http://a> <http://p> "say \\"hi\\"" .',
    '<http://a> <http://p> "tab\\there" .',
    "<http://x/\\u00e9> <http://p> <http://b> .",
    '<http://a> <http://p> "x"^^<http://dt/\\u00e9> .',
    "<http://a> <http://p> <http://b> . # a\rb",
]

REJECTED = [
    "_:s. <http://p> <http://b> .",
    "<http://a> <http://p> _:b... .",
    "_:a<http://p> <http://o> .",
    "<http://a> <http://p> _:b1. .",
    '<http://a> <http://p> "x"@en- .',
    '<http://a> <http://p> "x"@en^^<http://dt> .',
    '<http://a> <http://p> "x"^ .',
    "<http://a> <http://p> <http://b> . extra",
    "<http://a> <http://p> <http://b> .\n<http://c> <http://p> <http://d> .",
    "\x0b<http://a> <http://p> <http://b> .",
    "<http://a>\xa0<http://p> <http://b> .",
    "<http://a> _:p <http://b> .",
    '"lit" <http://p> <http://b> .',
]


@pytest.mark.parametrize("line", IN_SUBSET)
def test_in_subset(line):
    assert check_line(line)


@pytest.mark.parametrize("line", OUTSIDE_SUBSET_BUT_LEGAL)
def test_legal_lines_left_to_the_cursor(line):
    assert not check_line(line)
    parse_line(line)  # accepted (a triple, or None for blank/comment)


@pytest.mark.parametrize("line", REJECTED)
def test_rejected_lines_never_match(line):
    assert not check_line(line)
    with pytest.raises(NTriplesError):
        parse_line(line)


# ----------------------------------------------------------------------
# Real documents
# ----------------------------------------------------------------------
def _document_lines():
    documents = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(CONFORMANCE.glob("*.nt"))
    }
    documents["bsbm_like"] = serialize(bsbm_like(40))
    documents["lubm_like"] = serialize(lubm_like(3))
    documents["subclass_tree"] = serialize(subclass_tree(5))
    return documents


DOCUMENTS = _document_lines()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_documents_agree_line_by_line(name):
    lines = DOCUMENTS[name].splitlines(keepends=True)
    matched = sum(
        check_line(line, line_no) for line_no, line in enumerate(lines, 1)
    )
    statements = [t for t in parse(DOCUMENTS[name])]
    if name in ("bsbm_like", "lubm_like", "subclass_tree"):
        # The benchmark inputs are generator output: the pattern must
        # carry all of it, or the load path's gain is not what runs.
        assert matched == len(statements) == len(lines)


def test_error_line_numbers_survive_the_pattern():
    """A bad line after many pattern-matched ones reports its own
    position and text."""
    good = "<http://a> <http://p> <http://b> .\n"
    document = good * 41 + "<http://a> <http://p> <http://b c> .\n" + good
    with pytest.raises(NTriplesError) as excinfo:
        list(parse(document))
    assert excinfo.value.line_no == 42
    assert "'<http://a> <http://p> <http://b c> .'" in str(excinfo.value)


def test_parse_interns_terms_within_one_parse():
    document = (
        "<http://a> <http://p> <http://b> .\n"
        '<http://b> <http://p> "\\u0061" .\n'
        '<http://b> <http://p> "\\u0061" .\n'
        "<http://a> <http://p> <http://b> .\n"
    )
    first, second, third, fourth = parse(document)
    assert first == fourth and first.subject is fourth.subject
    assert first.object is second.subject is fourth.object
    assert first.predicate is second.predicate is third.predicate
    assert second.object is third.object  # cursor-parsed terms too
