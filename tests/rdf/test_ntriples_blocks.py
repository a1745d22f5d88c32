"""The block scan against the per-line scan, over whole documents.

``ntriples._scan_text`` splits a block of canonical lines with
``str.split`` and hands any other block to ``ntriples._scan`` line by
line.  That is only sound if the result never depends on where the
blocks fall: ``read_columns`` and ``parse`` must give the statements,
the term numbering and the ``NTriplesError`` (message and line number)
that the per-line scan gives over the same lines.  The block size is
patched down to a few lines so that boundaries fall everywhere.
"""

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import ntriples
from repro.rdf.ntriples import NTriplesError, parse, read_columns

# ----------------------------------------------------------------------
# The reference and the two routes, as comparable outcomes
# ----------------------------------------------------------------------
def per_line(text):
    """The per-line scan over ``text``'s lines, split as a file is read:
    ``("ok", terms, flat positions)`` or ``("error", message, line)``."""
    table = ntriples._TermTable()
    lines = io.StringIO(text.removeprefix("\ufeff"), newline=None)
    try:
        flat = [p for statement in ntriples._scan(lines, table)
                for p in statement]
    except NTriplesError as error:
        return ("error", str(error), error.line_no)
    return ("ok", table.terms, flat)


def by_columns(path):
    try:
        columns = read_columns(str(path))
    except NTriplesError as error:
        return ("error", str(error), error.line_no)
    flat = [
        p for statement in zip(
            columns.subjects.tolist(), columns.predicates.tolist(),
            columns.objects.tolist(),
        ) for p in statement
    ]
    return ("ok", columns.terms, flat)


def by_triples(text):
    """``parse(text)`` with its terms numbered by object identity, in
    first-seen order — the per-line scan's numbering when one spelling
    is one object."""
    try:
        triples = list(parse(text))
    except NTriplesError as error:
        return ("error", str(error), error.line_no)
    numbers, terms = {}, []
    flat = []
    for term in (term for triple in triples for term in triple):
        if id(term) not in numbers:
            numbers[id(term)] = len(terms)
            terms.append(term)
        flat.append(numbers[id(term)])
    return ("ok", terms, flat)


def check_document(text, block_chars, tmp_path):
    path = tmp_path / "doc.nt"
    path.write_bytes(text.encode("utf-8"))
    expected = per_line(text)
    with mock.patch.object(ntriples, "BLOCK_CHARS", block_chars):
        assert by_columns(path) == expected
        assert by_triples(text) == expected
    return expected[0]


# ----------------------------------------------------------------------
# Generated documents
# ----------------------------------------------------------------------
# Terms the block route takes, and terms it must leave to the per-line
# scan: spaces, U+00A0 and U+2028 inside a term, escapes.  A small pool,
# so that tokens repeat across lines and blocks.
_IRIS = ["<http://x/a>", "<http://x/b>", "<http://x/p>", "<>",
         "<http://x/\xa0>", "<http://x/a\u2028b>", "<http://x/\\u00e9>"]
_BNODES = ["_:b1", "_:b.2", "_:é"]
_LITERALS = ['"x"', '"y"@en', '"5"^^<http://x/dt>', '""', '"a b"',
             '"\xa0"', '"l\u2028s"', '"\\u0061"', '"a"', '"t\\"q"']

_ODD_LINES = [
    "<http://x/a>\t<http://x/p>\t<http://x/b>\t.",
    "<http://x/a>  <http://x/p>   <http://x/b>  .",
    " <http://x/a> <http://x/p> <http://x/b> .",
    "<http://x/a> <http://x/p> <http://x/b> . ",
    "<http://x/a> <http://x/p> <http://x/b> . # note",
    "# comment",
    "",
    "   ",
    "<http://x/a> <http://x/p> _:b1.",
    "<http://x/a> <http://x/p> _:b1. .",
    '"lit" <http://x/p> <http://x/b> .',
    "<http://x/a> _:p <http://x/b> .",
    '<http://x/a> "p" <http://x/b> .',
    "<http://x/a>\xa0<http://x/p> <http://x/b> .",
    "<http://x/a>\x0b<http://x/p> <http://x/b> .",
    "<http://x/a> <http://x/p> <http://x/b>",
    "<http://x/a> <http://x/p> . .",
    ". <http://x/p> <http://x/b> .",
    # The realigning pair: four tokens a line on average, a dot every
    # fourth token, and still not two statements.
    "<http://x/s> <http://x/p> <http://x/o> . <http://x/a>\n"
    "<http://x/p> <http://x/o> .",
]

_canonical_lines = st.builds(
    "{} {} {} .".format,
    st.sampled_from(_IRIS + _BNODES),
    st.sampled_from(_IRIS[:4]),
    st.sampled_from(_IRIS + _BNODES + _LITERALS),
)
# Mostly canonical lines with every term legal in its position, so that
# whole blocks pass; then any term anywhere, then the odd lines.
_lines = st.one_of(
    st.builds(
        "{} {} {} .".format,
        st.sampled_from(_IRIS[:3] + _BNODES[:2]),
        st.sampled_from(_IRIS[:3]),
        st.sampled_from(_IRIS[:3] + _BNODES[:2] + _LITERALS[:4]),
    ),
    _canonical_lines,
    st.sampled_from(_ODD_LINES),
)
_ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def documents(draw):
    lines = draw(st.lists(st.tuples(_lines, _ends), max_size=14))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    if draw(st.integers(0, 5)) == 0:
        text = "\ufeff" + text
    return text


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(documents(), st.sampled_from([1, 16, 40, 90, 200, 1 << 18]))
def test_blocks_agree_with_the_per_line_scan(work, text, block_chars):
    check_document(text, block_chars, work)


def test_generated_documents_take_both_routes(work):
    """Not vacuous: whole canonical blocks, blocks that fall back and
    documents that fail each make up a real share of what is drawn."""
    seen = {"block": 0, "fallback": 0, "error": 0}
    canonical = ntriples._canonical

    def tally(text, table):
        positions = canonical(text, table)
        seen["fallback" if positions is None else "block"] += 1
        return positions

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(documents())
    def draw(text):
        with mock.patch.object(ntriples, "BLOCK_CHARS", 40), \
                mock.patch.object(ntriples, "_canonical", tally):
            try:
                list(parse(text))
            except NTriplesError:
                seen["error"] += 1

    draw()
    total = sum(seen.values())
    assert all(count >= total // 10 for count in seen.values()), seen


# ----------------------------------------------------------------------
# Fixed documents: each check of the block route has a case that needs it
# ----------------------------------------------------------------------
A = "<http://x/a> <http://x/p> <http://x/b> .\n"

NEEDS_A_CHECK = {
    # The line-end count: the lines realign into two statements.
    "realigning pair": (
        "<http://x/s> <http://x/p> <http://x/o> . <http://x/a>\n"
        "<http://x/p> <http://x/o> .\n"
    ),
    # The length count: a no-break space stands in for a blank, and a
    # doubled space elsewhere makes the space count come out right.
    "no-break space": "<http://x/a>\xa0<http://x/p> <http://x/b> .\n"
                      "<http://x/a>  <http://x/p> <http://x/b> .\n",
    # The space count: one whitespace character a gap, but not a blank.
    "vertical tab": "<http://x/a>\x0b<http://x/p> <http://x/b> .\n",
    # A dot in a term slot: lines of 3 and 5 tokens.
    "short then long": (
        "<http://x/a> <http://x/p> .\n"
        "<http://x/a> <http://x/p> <http://x/b> <http://x/c> .\n"
    ),
    # The token check on first sight.
    "escape": '<http://x/a> <http://x/p> "\\u0061" .\n',
    "bad iri": "<http://x/a> <http://x/p> <http://x/b<c> .\n",
    "trailing-dot label": "_:b1. <http://x/p> <http://x/b> .\n",
    # The kind check.
    "literal subject": '"x" <http://x/p> <http://x/b> .\n',
    "blank-node predicate": "<http://x/a> _:p <http://x/b> .\n",
    "literal predicate": '<http://x/a> "p" <http://x/b> .\n',
}


@pytest.mark.parametrize("name", sorted(NEEDS_A_CHECK))
@pytest.mark.parametrize("block_chars", [1, 1 << 18])
def test_each_check_has_a_case(name, block_chars, tmp_path):
    # Canonical lines around the case: its block is otherwise taken.
    text = A * 3 + NEEDS_A_CHECK[name] + A * 3
    check_document(text, block_chars, tmp_path)


@pytest.mark.parametrize("name", sorted(NEEDS_A_CHECK))
def test_a_rejected_block_leaves_the_table_as_it_was(name):
    """A block turned down after some of its tokens were interned takes
    them back, so the per-line scan numbers them first-seen again."""
    table = ntriples._TermTable()
    table["<http://x/a>"]
    text = NEEDS_A_CHECK[name]
    assert ntriples._canonical(text, table) is None
    assert dict(table) == {"<http://x/a>": 0}
    assert table.terms == [ntriples._term_from_token("<http://x/a>")]
    assert table.heads == bytearray(b"<")


def test_canonical_block_is_taken_whole():
    table = ntriples._TermTable()
    text = A + '_:b1 <http://x/p> "x"@en .\n' + A
    positions = ntriples._canonical(text, table)
    assert positions.tolist() == [0, 1, 2, 3, 1, 4, 0, 1, 2]
    assert table.heads == bytearray(b'<<<_"')


def test_error_line_numbers_count_every_block(tmp_path):
    text = A * 50 + "<http://x/a> <http://x/p> .\n" + A * 5
    outcome = check_document(text, 100, tmp_path)
    assert outcome == "error"
    with pytest.raises(NTriplesError) as excinfo:
        list(parse(text))
    assert excinfo.value.line_no == 51
