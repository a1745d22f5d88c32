"""Unit and property-based tests for the N-Triples parser/serializer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import ntriples
from repro.rdf.ntriples import (
    NTriplesError,
    parse,
    parse_file,
    serialize,
    write_file,
)
from repro.rdf.terms import BlankNode, IRI, Literal, Triple


def parse_line(line, line_no=1):
    """One line, numbered ``line_no``, through the parse entry point;
    ``None`` for a blank or a comment."""
    table = ntriples._TermTable()
    for ids in ntriples._scan((line,), table, line_no):
        return Triple(*(table.terms[i] for i in ids))
    return None


class TestParseBasics:
    def test_simple_triple(self):
        t = parse_line("<http://a> <http://p> <http://b> .")
        assert t == Triple(IRI("http://a"), IRI("http://p"), IRI("http://b"))

    def test_blank_line_returns_none(self):
        assert parse_line("   \n") is None

    def test_comment_returns_none(self):
        assert parse_line("# a comment") is None

    def test_trailing_comment_allowed(self):
        t = parse_line("<a> <p> <b> . # trailing")
        assert t.object == IRI("b")

    def test_bnode_subject_and_object(self):
        t = parse_line("_:x <http://p> _:y .")
        assert t.subject == BlankNode("x")
        assert t.object == BlankNode("y")

    def test_plain_literal(self):
        t = parse_line('<a> <p> "hello" .')
        assert t.object == Literal("hello")

    def test_language_literal(self):
        t = parse_line('<a> <p> "bonjour"@fr .')
        assert t.object == Literal("bonjour", language="fr")

    def test_subtagged_language(self):
        t = parse_line('<a> <p> "hi"@en-GB .')
        assert t.object == Literal("hi", language="en-GB")

    def test_datatyped_literal(self):
        t = parse_line('<a> <p> "5"^^<http://dt> .')
        assert t.object == Literal("5", datatype="http://dt")

    def test_escaped_quote_in_literal(self):
        t = parse_line('<a> <p> "say \\"hi\\"" .')
        assert t.object == Literal('say "hi"')

    def test_escaped_backslash_before_quote(self):
        t = parse_line('<a> <p> "back\\\\" .')
        assert t.object == Literal("back\\")

    def test_newline_tab_escapes(self):
        t = parse_line('<a> <p> "l1\\nl2\\t!" .')
        assert t.object == Literal("l1\nl2\t!")

    def test_unicode_escapes(self):
        t = parse_line('<a> <p> "\\u00e9\\U0001F600" .')
        assert t.object == Literal("é😀")


class TestParseErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "<a> <p> <b>",  # missing dot
            "<a> <p> .",  # missing object
            '"lit" <p> <b> .',  # literal subject
            "<a> _:p <b> .",  # bnode predicate
            "<a> <p> <b> . extra",  # trailing garbage
            "<a <p> <b> .",  # unterminated IRI
            '<a> <p> "open .',  # unterminated literal
            '<a> <p> "x"@ .',  # empty language
            '<a> <p> "x"^^dt .',  # non-IRI datatype
        ],
    )
    def test_malformed(self, line):
        with pytest.raises(NTriplesError):
            parse_line(line)

    def test_error_carries_line_number(self):
        doc = "<a> <p> <b> .\nbroken line\n"
        with pytest.raises(NTriplesError) as excinfo:
            list(parse(doc))
        assert excinfo.value.line_no == 2


class TestGrammarConformance:
    """Regression tests for N-Triples grammar violations (ISSUE 9).

    Three parser bugs: blank-node labels swallowing the statement
    terminator, ``\\uXXXX``/``\\UXXXXXXXX`` escapes decoding from
    truncated or non-HEX slices, and language tags accepting non-ASCII
    or digit-leading primary subtags.
    """

    def test_bnode_label_does_not_swallow_terminator(self):
        # BLANK_NODE_LABEL may contain '.' but never end with one:
        # `_:b1.` is the label `b1` followed by the '.' terminator.
        t = parse_line("<http://a> <http://p> _:b1.")
        assert t.object == BlankNode("b1")

    def test_bnode_trailing_dot_parses_from_stream(self):
        # Stream lines keep their '\n'; the label scan must stop there
        # or the trailing '.' never reaches the terminator give-back.
        triples = list(parse("<http://a> <http://p> _:b1.\n"))
        assert triples[0].object == BlankNode("b1")

    def test_bnode_label_keeps_interior_dots(self):
        t = parse_line("<http://a> <http://p> _:b1.x .")
        assert t.object == BlankNode("b1.x")

    def test_bnode_label_multiple_trailing_dots(self):
        # `_:b...` → label `b`, then the terminator; the extra dots are
        # trailing garbage, not part of the label.
        with pytest.raises(NTriplesError):
            parse_line("<http://a> <http://p> _:b... .")

    def test_bnode_subject_trailing_dot_is_syntax_error(self):
        # In subject position the returned '.' lands where a predicate
        # is required — the old parser silently made it part of the
        # label; now it is a proper syntax error.
        with pytest.raises(NTriplesError):
            parse_line("_:s. <http://p> <http://b> .")

    @pytest.mark.parametrize(
        "line",
        [
            '<a> <p> "\\u00e" .',  # 3 of 4 hex digits
            '<a> <p> "\\u00" .',  # truncated mid-escape
            '<a> <p> "\\U0001F60" .',  # 7 of 8 hex digits
            '<a> <p> "x\\u12zz" .',  # non-hex characters
            '<a> <p> "x\\u+123" .',  # int(x, 16) laxness: sign
            '<a> <p> "x\\u12_3" .',  # int(x, 16) laxness: underscore
            '<a> <p> "\\UFFFFFFFF" .',  # beyond U+10FFFF
            '<a> <p> "tail\\" .',  # dangling backslash
        ],
    )
    def test_bad_numeric_escapes_rejected(self, line):
        with pytest.raises(NTriplesError):
            parse_line(line)

    def test_supplementary_plane_escape_roundtrips(self):
        t = parse_line('<http://a> <http://p> "\\U0001F600" .')
        assert t.object == Literal("😀")
        assert list(parse(serialize([t]))) == [t]

    def test_uppercase_hex_digits_accepted(self):
        t = parse_line('<a> <p> "\\u00E9\\U0001F600" .')
        assert t.object == Literal("é😀")

    def test_escape_in_iri(self):
        t = parse_line("<http://x/\\u00e9> <http://p> <http://b> .")
        assert t.subject == IRI("http://x/é")

    def test_dangling_escape_at_end_of_iri(self):
        with pytest.raises(NTriplesError):
            parse_line("<http://a\\> <http://p> <http://b> .")

    @pytest.mark.parametrize(
        "line",
        [
            '<a> <p> "x"@été .',  # non-ASCII primary subtag
            '<a> <p> "x"@1fr .',  # digit-leading primary subtag
            '<a> <p> "x"@en- .',  # empty subtag
            '<a> <p> "x"@-en .',  # leading hyphen
        ],
    )
    def test_malformed_language_tags_rejected(self, line):
        with pytest.raises(NTriplesError):
            parse_line(line)

    def test_language_tag_digit_subtags_allowed(self):
        # Digits are fine in *secondary* subtags ('-' [a-zA-Z0-9]+).
        t = parse_line('<a> <p> "x"@en-us-2020 .')
        assert t.object == Literal("x", language="en-us-2020")

    def test_comment_after_dot_without_space(self):
        t = parse_line("<http://a> <http://p> <http://b> .# comment")
        assert t.object == IRI("http://b")

    @pytest.mark.parametrize(
        "line",
        [
            "<http://a b> <http://p> <http://o> .",  # space
            '<a"b> <http://p> <http://o> .',  # quote
            '<http://a> <http://p> "x"^^<d t> .',  # in a datatype IRI
            "<http://a> <http://p{> <http://o> .",
            "<http://a> <http://p}> <http://o> .",
            "<http://a> <http://p> <http://o|o> .",
            "<http://a> <http://p> <http://o^o> .",
            "<http://a> <http://p> <http://o`o> .",
            "<http://a<b> <http://p> <http://o> .",
            "<http://a\tb> <http://p> <http://o> .",  # raw tab
            "<http://a\x00b> <http://p> <http://o> .",
            "<http://a\\b> <http://p> <http://o> .",  # backslash, no UCHAR
            "<http://a\\tb> <http://p> <http://o> .",  # ECHAR is not UCHAR
        ],
    )
    def test_iriref_forbidden_characters_rejected(self, line):
        # IRIREF ::= '<' ([^#x00-#x20<>"{}|^`\] | UCHAR)* '>' — the
        # old parser took everything up to '>'.
        with pytest.raises(NTriplesError) as excinfo:
            parse_line(line, 7)
        assert excinfo.value.line_no == 7

    def test_iriref_forbidden_character_allowed_as_uchar(self):
        t = parse_line("<http://a\\u0020b> <http://p> <http://o> .")
        assert t.subject == IRI("http://a b")

    def test_iriref_bad_uchar_keeps_its_diagnostic(self):
        with pytest.raises(NTriplesError, match="truncated"):
            parse_line("<http://a\\u00e> <http://p> <http://o> .")
        with pytest.raises(NTriplesError, match="invalid hex"):
            parse_line("<http://a\\u12zz> <http://p> <http://o> .")


class TestDocuments:
    def test_multi_line_document(self):
        doc = """
        # header comment
        <http://a> <http://p> <http://b> .
        <http://a> <http://p> "lit"@en .
        """
        triples = list(parse(doc))
        assert len(triples) == 2

    def test_serialize_roundtrip(self):
        triples = [
            Triple(IRI("http://a"), IRI("http://p"), IRI("http://b")),
            Triple(BlankNode("n0"), IRI("http://p"), Literal("x\ny")),
            Triple(IRI("http://a"), IRI("http://q"),
                   Literal("v", language="en")),
            Triple(IRI("http://a"), IRI("http://q"),
                   Literal("5", datatype="http://dt")),
        ]
        assert list(parse(serialize(triples))) == triples

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.nt")
        triples = [
            Triple(IRI("http://a"), IRI("http://p"), IRI("http://b")),
            Triple(IRI("http://c"), IRI("http://p"), Literal("lit")),
        ]
        count = write_file(triples, path)
        assert count == 2
        assert list(parse_file(path)) == triples

    def test_file_with_byte_order_mark(self, tmp_path):
        # Editors on Windows write UTF-8 with a BOM; it is not part of
        # the first statement.
        path = tmp_path / "bom.nt"
        path.write_bytes(
            b"\xef\xbb\xbf<http://a> <http://p> <http://b> .\n"
            b"<http://c> <http://p> \"lit\" .\n"
        )
        assert list(parse_file(str(path))) == [
            Triple(IRI("http://a"), IRI("http://p"), IRI("http://b")),
            Triple(IRI("http://c"), IRI("http://p"), Literal("lit")),
        ]


def _both_routes(text, tmp_path):
    """``text`` parsed as a string and as the file holding it: each an
    outcome, the triples or the error's message and line number."""
    path = tmp_path / "doc.nt"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for route in (lambda: parse(text), lambda: parse_file(str(path))):
        try:
            outcomes.append(("ok", list(route())))
        except NTriplesError as error:
            outcomes.append(("error", str(error), error.line_no))
    return outcomes


class TestStringRouteSplitsLinesAsFiles:
    """A string is split into lines as a file is read: universal
    newlines, and an opening byte-order mark skipped."""

    A, B, C, D = (IRI(f"http://{n}") for n in "abcd")

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"])
    def test_line_ends(self, end, tmp_path):
        text = f"<http://a> <http://b> <http://c> .{end}" \
               f"<http://a> <http://b> <http://d> ."
        expected = [Triple(self.A, self.B, self.C),
                    Triple(self.A, self.B, self.D)]
        assert _both_routes(text, tmp_path) == [("ok", expected)] * 2

    def test_byte_order_mark(self, tmp_path):
        text = "\ufeff<http://a> <http://b> <http://c> .\n"
        expected = [Triple(self.A, self.B, self.C)]
        assert _both_routes(text, tmp_path) == [("ok", expected)] * 2

    def test_mixed_line_ends_number_errors_alike(self, tmp_path):
        text = (
            "<http://a> <http://b> <http://c> .\r"
            "# comment\r\n"
            "<http://a> <http://b> .\r"
        )
        string, file = _both_routes(text, tmp_path)
        assert string == file
        assert string[0] == "error" and string[2] == 3

    def test_byte_order_mark_only_opening_the_text(self):
        with pytest.raises(NTriplesError):
            list(parse("<http://a> <http://b> <http://c> .\n\ufeff"
                       "<http://a> <http://b> <http://d> .\n"))


_iri_strategy = st.builds(
    IRI,
    st.text(
        alphabet=st.characters(
            blacklist_characters="<>\"{}|^`\\\x00\n\r\t ",
            min_codepoint=33,
            max_codepoint=126,
        ),
        min_size=1,
        max_size=30,
    ).map(lambda s: "http://x/" + s),
)

_literal_strategy = st.builds(
    Literal,
    st.text(max_size=40),
    st.one_of(st.none(), st.just("http://dt/a")),
    st.one_of(st.none(), st.just("en"), st.just("en-GB")),
).filter(lambda lit: not (lit.datatype and lit.language))

_bnode_strategy = st.builds(
    BlankNode,
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
            min_size=1, max_size=10),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(
            Triple,
            st.one_of(_iri_strategy, _bnode_strategy),
            _iri_strategy,
            st.one_of(_iri_strategy, _bnode_strategy, _literal_strategy),
        ),
        max_size=10,
    )
)
def test_roundtrip_property(triples):
    """serialize → parse is the identity for arbitrary term content."""
    assert list(parse(serialize(triples))) == triples
