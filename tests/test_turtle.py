import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dingotk.terms import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    RDF_FIRST,
    RDF_LANG_STRING,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    Triple,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    escape_string,
)
from dingotk.turtle import (
    RelativeIriError,
    TurtleParseError,
    UndefinedPrefixError,
    parse_turtle,
    serialize_turtle,
    term_renderer,
    tokenize,
    turtle_chunks,
)
from dingotk.isomorphism import graph_isomorphic

from conftest import embedded
from lexer_reference import reference_tokenize
from support import random_graph

DINGO = "https://w3id.org/dingo#"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_triple_document():
    g = parse_turtle(f'@prefix d: <{DINGO}> . <http://x/p1> a d:Project .')
    assert len(g) == 1
    assert Triple(IRI("http://x/p1"), RDF_TYPE, IRI(DINGO + "Project")) in g
    assert g.prefixes == {"d": DINGO}


def test_parse_empty_document():
    g = parse_turtle("")
    assert len(g) == 0
    assert dict(g.prefixes) == {}


def test_parse_comments_and_whitespace_only():
    assert len(parse_turtle("# nothing here\n   \n# more\n")) == 0


def test_leading_bom_and_crlf_are_tolerated():
    doc = '﻿@prefix d: <https://w3id.org/dingo#> .\r\n<http://x/p> a d:Project .\r\n'
    assert len(parse_turtle(doc)) == 1


def test_sparql_style_directives():
    g = parse_turtle(f'PREFIX d: <{DINGO}>\nBASE <http://x/>\n<p1> a d:Project .')
    assert Triple(IRI("http://x/p1"), RDF_TYPE, IRI(DINGO + "Project")) in g


def test_predicate_and_object_lists():
    g = parse_turtle(
        "@prefix ex: <http://ex.org/> ."
        "ex:s ex:p ex:a, ex:b ; ex:q ex:c ."
    )
    assert len(g) == 3


def test_literal_shorthands():
    g = parse_turtle(
        '@prefix ex: <http://ex.org/> .'
        'ex:s ex:p 42, -7, 3.14, .5, 1.0e3, true, false, "plain", "tagged"@en-GB .'
    )
    objects = {t.object for t in g.triples}
    assert Literal("42", XSD_INTEGER) in objects
    assert Literal("-7", XSD_INTEGER) in objects
    assert Literal("3.14", XSD_DECIMAL) in objects
    assert Literal(".5", XSD_DECIMAL) in objects
    assert Literal("1.0e3", XSD_DOUBLE) in objects
    assert Literal("true", XSD_BOOLEAN) in objects
    assert Literal("false", XSD_BOOLEAN) in objects
    assert Literal("plain", XSD_STRING) in objects
    assert Literal("tagged", RDF_LANG_STRING, "en-GB") in objects


def test_datatyped_literal_and_escapes():
    g = parse_turtle(
        '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .'
        '<http://x/s> <http://x/p> "2019-01-01"^^xsd:date, "tab\\there\\nnl", "\\u00e9" .'
    )
    objects = {t.object for t in g.triples}
    assert Literal("2019-01-01", "http://www.w3.org/2001/XMLSchema#date") in objects
    assert Literal("tab\there\nnl", XSD_STRING) in objects
    assert Literal("é", XSD_STRING) in objects


def test_triple_quoted_strings():
    g = parse_turtle('<http://x/s> <http://x/p> """line one\nline "two"""" .')
    (t,) = g.triples
    assert t.object == Literal('line one\nline "two"', XSD_STRING)


def test_blank_node_labels_are_canonicalized_in_first_appearance_order():
    g = parse_turtle(
        "<http://x/a> <http://x/p> _:zebra . "
        "_:alpha <http://x/p> _:zebra . "
    )
    labels = {b.label for b in g.blank_nodes()}
    assert labels == {"b0", "b1"}
    # zebra was seen first, so it becomes b0
    assert Triple(IRI("http://x/a"), IRI("http://x/p"), BlankNode("b0")) in g
    assert Triple(BlankNode("b1"), IRI("http://x/p"), BlankNode("b0")) in g


def test_anonymous_blank_nodes_and_property_lists():
    g = parse_turtle(
        "<http://x/s> <http://x/p> [] . "
        "[ <http://x/q> 1 ] <http://x/p> 2 . "
        "<http://x/t> <http://x/p> [ <http://x/q> 3 ; <http://x/r> 4 ] ."
    )
    assert len(g.blank_nodes()) == 3
    assert len(g) == 6


def test_collections():
    g = parse_turtle("<http://x/s> <http://x/p> (1 2) , () .")
    assert Triple(IRI("http://x/s"), IRI("http://x/p"), RDF_NIL) in g
    firsts = [t for t in g.triples if t.predicate == RDF_FIRST]
    rests = [t for t in g.triples if t.predicate == RDF_REST]
    assert len(firsts) == 2 and len(rests) == 2


def test_nested_subject_blank_nodes_are_numbered_in_opening_order():
    # a fresh node at '[', the head at '(', each further cell before its element
    g = parse_turtle("( [ <http://x/p> 1 ] ( 2 ) ) <http://x/q> [ ] .")
    b = [BlankNode(f"b{i}") for i in range(5)]
    assert set(g.triples) == {
        Triple(b[1], IRI("http://x/p"), Literal("1", XSD_INTEGER)),
        Triple(b[0], RDF_FIRST, b[1]),
        Triple(b[0], RDF_REST, b[2]),
        Triple(b[2], RDF_FIRST, b[3]),
        Triple(b[2], RDF_REST, RDF_NIL),
        Triple(b[3], RDF_FIRST, Literal("2", XSD_INTEGER)),
        Triple(b[3], RDF_REST, RDF_NIL),
        Triple(b[0], IRI("http://x/q"), b[4]),
    }


def test_bracketed_subject_may_stand_alone_but_empty_ones_may_not():
    assert len(parse_turtle("[ <http://x/p> 1 ] .")) == 1
    for document in ("[ ] .", "( ) .", "( 1 ) ."):
        with pytest.raises(TurtleParseError, match="expected predicate"):
            parse_turtle(document)


def test_deep_blank_node_property_list_nest_parses():
    depth = 100_000
    g = parse_turtle(
        "<http://x/s> <http://x/p> " + "[ <http://x/p> " * depth + "1" + " ]" * depth + " ."
    )
    assert len(g) == depth + 1
    assert Triple(BlankNode(f"b{depth - 1}"), IRI("http://x/p"), Literal("1", XSD_INTEGER)) in g


def test_deep_collection_nest_parses():
    depth = 10_000
    g = parse_turtle("<http://x/s> <http://x/p> " + "( " * depth + "1" + " )" * depth + " .")
    assert len(g) == 2 * depth + 1  # each level: rdf:first and rdf:rest of one cell
    assert Triple(BlankNode(f"b{depth - 1}"), RDF_FIRST, Literal("1", XSD_INTEGER)) in g


def test_duplicate_triples_deduplicate():
    g = parse_turtle("<http://x/s> <http://x/p> 1 . <http://x/s> <http://x/p> 1 .")
    assert len(g) == 1


def test_base_resolution():
    g = parse_turtle("@base <http://x/dir/> . <leaf> <http://x/p> <../up> .")
    subjects = {t.subject for t in g.triples}
    assert IRI("http://x/dir/leaf") in subjects
    (t,) = g.triples
    assert t.object == IRI("http://x/up")


def test_parse_with_external_base_argument():
    g = parse_turtle("<leaf> <http://x/p> 1 .", base="http://x/dir/")
    (t,) = g.triples
    assert t.subject == IRI("http://x/dir/leaf")


# -- one term object per distinct IRI or literal in a parse ------------------


def _terms(g: Graph) -> list:
    return [term for t in g.triples for term in t]


def test_prefix_redefined_mid_document_expands_to_a_new_iri():
    g = parse_turtle(
        "@prefix ex: <http://one/> . ex:s ex:p ex:x .\n"
        "@prefix ex: <http://two/> . ex:s ex:p ex:x .\n"
    )
    assert g.triples == {
        Triple(IRI("http://one/s"), IRI("http://one/p"), IRI("http://one/x")),
        Triple(IRI("http://two/s"), IRI("http://two/p"), IRI("http://two/x")),
    }


def test_base_changed_mid_document_resolves_the_same_relative_iri_anew():
    g = parse_turtle(
        "@base <http://one/> . <s> <http://x/p> <x> .\n"
        "@base <http://two/> . <s> <http://x/p> <x> .\n"
    )
    assert g.triples == {
        Triple(IRI("http://one/s"), IRI("http://x/p"), IRI("http://one/x")),
        Triple(IRI("http://two/s"), IRI("http://x/p"), IRI("http://two/x")),
    }


INTERNING_DOC = """
@prefix ex: <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p "v", 1, 2.5, true, "w"@en, "d"^^ex:dt ; ex:q <http://x/t> .
<http://x/t> ex:p "v", 1, 2.5, true, "w"@en, "d"^^<http://x/dt> ; ex:q ex:s ;
    ex:r "1"^^xsd:integer, "2.5"^^xsd:decimal, "true"^^xsd:boolean .
"""


def test_equal_terms_within_one_parse_are_one_object():
    g = parse_turtle(INTERNING_DOC + "ex:t a ex:T . ex:s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ex:T .")
    first: dict = {}
    for term in _terms(g):
        assert first.setdefault(term, term) is term, term
    assert len(first) < len(_terms(g)) / 2


def test_separate_parses_share_no_term_object():
    g1, g2 = parse_turtle(INTERNING_DOC), parse_turtle(INTERNING_DOC)
    assert g1 == g2
    assert not {id(term) for term in _terms(g1)} & {id(term) for term in _terms(g2)}


def test_literals_differing_in_datatype_or_language_stay_apart():
    g = parse_turtle(
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        '<http://x/a> <http://x/p> 1 . <http://x/b> <http://x/p> "1"^^xsd:integer .\n'
        '<http://x/c> <http://x/p> "1" . <http://x/d> <http://x/p> "1"@en .\n'
    )
    a, b, c, d = (g.value(IRI(f"http://x/{n}"), IRI("http://x/p")) for n in "abcd")
    assert a == b == Literal("1", XSD_INTEGER)
    assert c == Literal("1") and d == Literal("1", RDF_LANG_STRING, "en")
    assert len({a, b, c, d}) == 3


def test_undefined_prefix_error_position():
    with pytest.raises(UndefinedPrefixError) as err:
        parse_turtle("<http://x/s> <http://x/p> nope:thing .")
    assert err.value.line == 1
    assert err.value.column == 27
    assert "nope:" in str(err.value)


def test_relative_iri_without_base_error():
    with pytest.raises(RelativeIriError):
        parse_turtle("<rel> <http://x/p> 1 .")


def test_syntax_errors_carry_position_and_token():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle("<http://x/s> <http://x/p>\n  %% .")
    assert err.value.line == 2
    doc = '<http://x/s> <http://x/p> "unterminated'
    with pytest.raises(TurtleParseError):
        parse_turtle(doc)
    with pytest.raises(TurtleParseError) as err2:
        parse_turtle("<http://x/s> <http://x/p> 1 ")  # missing final dot
    assert "expected" in str(err2.value)


# (document, error class, line, column, message): each lexer error, with
# multi-line inputs and errors in the middle of a token
LEXER_ERRORS = [
    ('<http://x/s>\n  <http://x/p> <http://x/o', TurtleParseError, 2, 27, "unterminated IRI"),
    ('<http://x/s> <http://x/p\n> <http://x/o> .', TurtleParseError, 1, 25, "newline inside IRI"),
    ('<http://x/s> <http://x/p> "abc\n" .', TurtleParseError, 1, 31, "unterminated string"),
    ('<http://x/s>\r\n<http://x/p> "a\\tb\rc" .', TurtleParseError, 2, 19, "unterminated string"),
    ('<http://x/s> <http://x/p> """one\ntwo ""', TurtleParseError, 2, 7,
     "unterminated triple-quoted string"),
    ("<http://x/s> <http://x/p> '''one\n''", TurtleParseError, 2, 3,
     "unterminated triple-quoted string"),
    ("<http://x/s> <http://x/\\q> .", TurtleParseError, 1, 25, "invalid escape '\\q' in IRI"),
    ('<http://x/s> <http://x/p>\n  "a\\u0041\\qb" .', TurtleParseError, 2, 12,
     "invalid string escape '\\q'"),
    ('<http://x/s> <http://x/p> "end\\', TurtleParseError, 1, 32, "invalid string escape '\\'"),
    ("@prefix ex: <http://x/> .\nex:s ex:p ex:a\\qb .", TurtleParseError, 2, 15,
     "invalid name escape '\\q'"),
    ("<http://x/s> <http://x/p>\n  foo.\\q .", TurtleParseError, 2, 7, "invalid name escape '\\q'"),
    ('<http://x/s> <http://x/p> "\\u12G4" .', TurtleParseError, 1, 32, "truncated numeric escape"),
    ("<http://x/s> <http://x/\\U0001F60> .", TurtleParseError, 1, 33, "truncated numeric escape"),
    ("<http://x/s>\n<http://x/p> '''a\n\\U0000004' .", TurtleParseError, 3, 10,
     "truncated numeric escape"),
    ('<http://x/s> <http://x/p> "x"@ .', TurtleParseError, 1, 31,
     "expected language tag or directive after '@'"),
    ("\n@1prefix", TurtleParseError, 2, 2, "expected language tag or directive after '@'"),
    ('<http://x/s> <http://x/p> "x"^<http://x/t> .', TurtleParseError, 1, 30,
     "unexpected '^' (at '^')"),
    ("<http://x/s> <http://x/p> -.x .", TurtleParseError, 1, 27, "malformed number"),
    ("<http://x/s>\n<http://x/p> ²", TurtleParseError, 2, 14, "malformed number"),
    ("<http://x/s> <http://x/p> .² .", TurtleParseError, 1, 27, "malformed number"),
    ("<http://x/s> <http://x/p> 1² .", TurtleParseError, 1, 28, "malformed number"),
    ("<http://x/s> <http://x/p> +. .", TurtleParseError, 1, 27, "malformed number"),
    # Turtle numbers are ASCII digits; "\u0661"... are Arabic-Indic ones
    ("<http://x/s> <http://x/p> \u0661\u0662 .", TurtleParseError, 1, 27, "malformed number"),
    ("<http://x/s> <http://x/p> \u0663.\u0665 .", TurtleParseError, 1, 27, "malformed number"),
    ("<http://x/s> <http://x/p> -\u0661 .", TurtleParseError, 1, 27, "malformed number"),
    ("<http://x/s> <http://x/p> 1e\u0661 .", TurtleParseError, 1, 28,
     "unexpected bare word (at 'e\u0661')"),
    ("_:. <http://x/p> 1 .", TurtleParseError, 1, 3, "empty blank node label"),
    ("<http://x/s> <http://x/p> _: .", TurtleParseError, 1, 29, "empty blank node label"),
    ("<http://x/s> <http://x/p>\n   hello .", TurtleParseError, 2, 4,
     "unexpected bare word (at 'hello')"),
    ("<http://x/s> <http://x/p> {} .", TurtleParseError, 1, 27, "unexpected character '{' (at '{')"),
    ("\n\n  +x", TurtleParseError, 3, 3, "unexpected character '+' (at '+')"),
    ('\ufeff<http://x/s>\n <http://x/p> "\U0001F600\U0001F600\\q" .', TurtleParseError, 2, 19,
     "invalid string escape '\\q'"),
    ('# comment "\n\t<http://x/s> <http://x/p> ~ .', TurtleParseError, 2, 28,
     "unexpected character '~' (at '~')"),
    ("<http://x/s> @prefix", TurtleParseError, 1, 14, "expected predicate (at 'at_prefix')"),
    ('<http://x/s> <http://x/p> "x" ', TurtleParseError, 1, 31,
     "expected '.' after triples (at 'eof')"),
    ('<http://x/s> <http://x/p> "x"^^"y" .', TurtleParseError, 1, 32,
     "expected datatype IRI after '^^' (at 'y')"),
    ("<http://x/s> <http://x/p>\n  ex:o .", UndefinedPrefixError, 2, 3,
     "undefined prefix 'ex:' (at 'ex:o')"),
    ("<http://x/s> <http://x/p> <o> .", RelativeIriError, 1, 27,
     "relative IRI 'o' without a base (at 'o')"),
    ('<http://x/s> <http://x/p> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .',
     TurtleParseError, 1, 32,
     "rdf:langString literal requires a language tag (at 'http://www.w3.org/1999/02/22-rdf-syntax-ns#langString')"),
    ("<http://x/s> <http://x/p>\n  <http://a/b c> .", TurtleParseError, 2, 3,
     "IRI contains forbidden character ' ': 'http://a/b c' (at 'http://a/b c')"),
    ("@prefix <http://a/> .", TurtleParseError, 1, 9, "expected prefix name (at 'http://a/')"),
    ("@base ex:x .", TurtleParseError, 1, 7, "expected base IRI (at 'ex:x')"),
]


@pytest.mark.parametrize("document, cls, line, column, message", LEXER_ERRORS)
def test_lexer_errors_carry_message_and_position(document, cls, line, column, message):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(document)
    assert type(err.value) is cls
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize(
    "document, line, column, escape",
    [
        ('<http://x/s> <http://x/p> "\\U00110000" .', 1, 28, "\\U00110000"),
        ('<http://x/s> <http://x/p> "ok \\uD800" .', 1, 31, "\\uD800"),
        ("<http://x/s> <http://x/p> '''a\n\\U0000dfff''' .", 2, 1, "\\U0000dfff"),
        ("<http://x/\\udc00> <http://x/p> 1 .", 1, 11, "\\udc00"),
        ("<http://x/s>\n<http://x/\\U7FFFFFFF> 1 .", 2, 11, "\\U7FFFFFFF"),
    ],
)
def test_numeric_escapes_outside_unicode_scalar_values_are_positioned_errors(
    document, line, column, escape
):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(document)
    assert (err.value.line, err.value.column) == (line, column)
    assert f"numeric escape '{escape}' is not a Unicode character" in str(err.value)


@pytest.mark.parametrize(
    "document, cls, column, message",
    [
        ("<http://a/b> <http://a/c> ; ; . $$", TurtleParseError, 27, "expected object (at ';')"),
        ("<http://a/b> <http://a/c> ; $", TurtleParseError, 27, "expected object (at ';')"),
        ("<http://a/b> $ ; ; .", TurtleParseError, 14, "unexpected character '$' (at '$')"),
        ("@prefix e:x <http://x/> $", TurtleParseError, 9,
         "prefix declaration must end with ':' (at 'e:x')"),
        ("@base <rel> $", RelativeIriError, 7, "relative IRI 'rel' without a base (at 'rel')"),
        ('<http://a/b> <http://a/c> "x"^^"y" $', TurtleParseError, 32,
         "expected datatype IRI after '^^' (at 'y')"),
        ("<http://a/b> <http://a/c> ex:o $", UndefinedPrefixError, 27,
         "undefined prefix 'ex:' (at 'ex:o')"),
    ],
)
def test_first_error_in_document_order_is_reported(document, cls, column, message):
    # a grammar error before a lexical error wins, and the other way round
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(document)
    assert type(err.value) is cls
    assert str(err.value) == f"line 1, column {column}: {message}"


@pytest.mark.parametrize(
    "document, line, column, prefix",
    [
        ("@prefix dé: <http://x/> .", 1, 9, "dé"),
        ("<http://x/s> <http://x/p> 1 .\nPREFIX a.: <http://x/>", 2, 8, "a."),
        ("# comment\n  @prefix -a: <http://x/> .", 2, 11, "-a"),
        ("@prefix a..b: <http://x/> .", 1, 9, "a..b"),
    ],
)
def test_a_prefix_outside_the_prefix_name_form_is_an_error_at_its_name(document, line, column, prefix):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(document)
    assert type(err.value) is TurtleParseError
    assert (err.value.line, err.value.column) == (line, column)
    message = f"invalid prefix name: {prefix!r} (at {prefix + ':'!r})"
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_every_prefix_name_form_is_declared_and_used():
    g = parse_turtle("@prefix : <http://x/> . PREFIX a.b_-1: <http://y/>\n:s a.b_-1:p :o .")
    assert g.prefixes == {"": "http://x/", "a.b_-1": "http://y/"}
    assert g.triples == {Triple(IRI("http://x/s"), IRI("http://y/p"), IRI("http://x/o"))}


def test_parse_peak_memory_stays_near_the_graph_it_builds():
    # the parser reads tokens as it goes, so no token list adds to the peak
    g = random_graph(random.Random(1), max_triples=100_000, max_blanks=8)
    assert len(g) >= 10_000
    text = serialize_turtle(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parsed = parse_turtle(text)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed) == len(g)
    assert peak - before <= 1.5 * (live - before)


def test_numeric_escapes_next_to_the_excluded_ranges_parse():
    g = parse_turtle('<http://x/s> <http://x/p> "\\uD7FF\\uE000\\U0010FFFF" .')
    (t,) = g.triples
    assert t.object == Literal("\ud7ff\ue000\U0010ffff", XSD_STRING)


def test_blank_label_running_to_end_of_document():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle("<http://x/s> <http://x/p> _:b1")
    assert (err.value.line, err.value.column) == (1, 31)
    assert "expected '.' after triples" in str(err.value)
    with pytest.raises(TurtleParseError, match="empty blank node label"):
        parse_turtle("<http://x/s> <http://x/p> _:..")


def test_parser_totality_fuzz():
    # every input must yield a Graph or a positioned TurtleParseError
    rng = random.Random(99)
    alphabet = '<>"\'@#.;,()[]^\\ \n\t_:aZ09%+-{}|`~é漢'
    for _ in range(400):
        document = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            parse_turtle(document)
        except TurtleParseError as exc:
            assert exc.line >= 1 and exc.column >= 1


def _lexed(tokenize, text: str) -> tuple:
    """The tokens read before the end or the first error, and that error."""
    tokens = []
    try:
        for token in tokenize(text):
            tokens.append(token)
    except TurtleParseError as exc:
        return tokens, (type(exc), str(exc))
    return tokens, None


# pieces that start or end tokens in more than one way: names that start
# with "-", "_", ":", "%", "\" or a non-ASCII letter or digit, numbers and
# their near misses, quote runs, and a token of every other kind
LEXER_PIECES = [
    "-", "_", ":", "%", "\\", "\\-", "\\q", "%20", "é", "漢", "١", "٣.", "²", ".5", "-.",
    "+", "1", "1e5", "0.", "e", ".", ";", ",", "[", "]", "(", ")", '""""', '"', "'''", "'", "a",
    "ex", "x:", "_:", "b", "true", "PREFIX", "base", "@", "@en", "@prefix", "^^", "^", "<", ">",
    "<http://x/>", "#c\n", " ", "\n", "\r", "\t", "{", "~",
]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=24).map("".join))
def test_tokenizer_reads_what_the_reference_order_reads(text):
    # most texts end at an early error, so each suffix is read too, and every
    # position starts a token
    for start in range(len(text)):
        assert _lexed(tokenize, text[start:]) == _lexed(reference_tokenize, text[start:])


@pytest.mark.parametrize(
    "text",
    [embedded("dingo.ttl"), embedded("example_instances.ttl"), *(row[0] for row in LEXER_ERRORS)],
)
def test_tokenizer_reads_the_bundled_files_and_error_rows_as_the_reference_does(text):
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


def test_a_lexical_error_is_found_without_searching_past_it():
    # each "<" opens an IRI that reads to the end and never closes, so a
    # scan that looked past the first one for the next token would take
    # quadratic time
    document = "<http://x/s> <http://x/p> " + "<" * 100_000
    start = time.process_time()
    with pytest.raises(TurtleParseError, match=f"^line 1, column {len(document) + 1}: unterminated IRI$"):
        parse_turtle(document)
    assert time.process_time() - start < 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_empty_graph_with_prefix():
    text = serialize_turtle(Graph([], {"d": DINGO}))
    assert text == f"@prefix d: <{DINGO}> .\n"


def test_serialize_empty_graph_is_empty_text():
    assert serialize_turtle(Graph()) == ""


def test_serialize_prefixes_sorted_and_type_as_a():
    g = parse_turtle(
        f"@prefix z: <http://z.example/> . @prefix a: <http://a.example/> ."
        f"<http://x/s> a z:T ; z:p a:v ."
    )
    text = serialize_turtle(g)
    lines = text.splitlines()
    assert lines[0] == "@prefix a: <http://a.example/> ."
    assert lines[1] == "@prefix z: <http://z.example/> ."
    assert " a z:T" in text
    assert "rdf-syntax-ns#type" not in text


def test_serialize_is_deterministic_for_equal_graphs():
    triples = [
        Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("v")),
        Triple(IRI("http://x/s"), RDF_TYPE, IRI(DINGO + "Project")),
        Triple(BlankNode("q"), IRI("http://x/p"), Literal("w", XSD_INTEGER)),
    ]
    g1 = Graph(triples, {"d": DINGO})
    g2 = Graph(list(reversed(triples)), {"d": DINGO})
    assert g1 == g2
    assert serialize_turtle(g1) == serialize_turtle(g2)


def test_numbers_are_written_bare_only_in_ascii_digits():
    s, p = IRI("http://x/s"), IRI("http://x/p")
    # "\u0661" is the Arabic-Indic one: a Unicode decimal, but not an XSD digit
    for lexical, datatype, written in [
        ("12", XSD_INTEGER, "12"),
        ("1.5", XSD_DECIMAL, "1.5"),
        ("1e1", XSD_DOUBLE, "1e1"),
        ("\u0661\u0662", XSD_INTEGER, f'"\u0661\u0662"^^<{XSD_INTEGER}>'),
        ("\u0661.5", XSD_DECIMAL, f'"\u0661.5"^^<{XSD_DECIMAL}>'),
        ("\u0661e1", XSD_DOUBLE, f'"\u0661e1"^^<{XSD_DOUBLE}>'),
        # a final newline is not part of a bare number
        ("12\n", XSD_INTEGER, f'"12\\n"^^<{XSD_INTEGER}>'),
        ("1.5\n", XSD_DECIMAL, f'"1.5\\n"^^<{XSD_DECIMAL}>'),
        ("1e1\n", XSD_DOUBLE, f'"1e1\\n"^^<{XSD_DOUBLE}>'),
    ]:
        g = Graph([Triple(s, p, Literal(lexical, datatype))])
        text = serialize_turtle(g)
        assert text == f"<http://x/s> <http://x/p> {written} .\n"
        assert parse_turtle(text) == g


@pytest.mark.parametrize(
    "graph",
    [
        Graph(),
        Graph(prefixes={"x": "http://x/", "d": DINGO}),
        random_graph(random.Random(23), max_triples=200),
    ],
    ids=["empty", "prefixes-only", "random"],
)
def test_turtle_chunks_join_to_the_serialization(graph):
    chunks = list(turtle_chunks(graph))
    assert "".join(chunks) == serialize_turtle(graph)
    assert all(chunk.endswith("\n") for chunk in chunks)
    # one per @prefix line, the blank line after them, one per subject
    subjects = len({t.subject for t in graph})
    assert len(chunks) == len(graph.prefixes) + (1 if graph.prefixes and graph else 0) + subjects


def test_serializer_escapes_strings():
    g = Graph([Triple(IRI("http://x/s"), IRI("http://x/p"), Literal('a "b"\n\tc\\d'))])
    text = serialize_turtle(g)
    assert '\\"b\\"' in text and "\\n" in text and "\\t" in text and "\\\\d" in text
    reparsed = parse_turtle(text)
    assert reparsed.triples == g.triples


def _escape_string_per_character(text: str) -> str:
    """The per-character escaper the serializer used before, kept as the reference."""
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
    parts = []
    for c in text:
        if c in escapes:
            parts.append(escapes[c])
        elif ord(c) < 0x20 or ord(c) == 0x7F:
            parts.append(f"\\u{ord(c):04X}")
        else:
            parts.append(c)
    return "".join(parts)


ESCAPE_TEXTS = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0, max_codepoint=0x7F),
        st.sampled_from(['"', "\\", "\b", "\f", "\x7f"]),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
    )
)


@settings(max_examples=300, derandomize=True, database=None)
@given(ESCAPE_TEXTS)
def test_escape_string_matches_the_per_character_reference(text):
    assert escape_string(text) == _escape_string_per_character(text)
    assert repr(Literal(text)) == f'"{_escape_string_per_character(text)}"'


@settings(max_examples=100, derandomize=True, database=None)
@given(ESCAPE_TEXTS)
def test_memoized_renderer_repeats_its_text(text):
    prefixes = {"x": "http://x/"}
    terms = [
        Literal(text),
        Literal(text, "http://x/dt"),
        Literal(text, RDF_LANG_STRING, "en"),
        IRI("http://x/local"),
        IRI("http://y/local"),
        BlankNode("b0"),
    ]
    render = term_renderer(prefixes)
    once = [render(t) for t in terms]
    assert once[0] == f'"{_escape_string_per_character(text)}"'
    assert [render(t) for t in terms] == once
    # an equal but separately built term renders the same
    assert [render(Literal(t.lexical, t.datatype, t.language)) for t in terms[:3]] == once[:3]
    assert once == [term_renderer(prefixes)(t) for t in terms]


# pieces of numerals and booleans, and what must not slip into a bare one:
# line breaks, space, quotes, a backslash and digits outside 0-9
SHORTHAND_PIECES = [
    "0", "7", "12", "+", "-", ".", "e", "E", "true", "false",
    "\n", "\r", " ", '"', "'", "\\", "\u0661", "\uff12", "\u00b2",
]
SHORTHAND_LITERALS = st.builds(
    Literal,
    st.one_of(st.text(max_size=8), st.lists(st.sampled_from(SHORTHAND_PIECES), max_size=6).map("".join)),
    st.sampled_from([XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN]),
)


@settings(max_examples=400, derandomize=True, database=None)
@given(st.lists(SHORTHAND_LITERALS, max_size=6))
def test_canonical_turtle_is_a_fixpoint_for_any_lexical_form(literals):
    s = IRI("http://x/s")
    g = Graph(Triple(s, IRI(f"http://x/p{i % 2}"), literal) for i, literal in enumerate(literals))
    text = serialize_turtle(g)
    assert parse_turtle(text) == g
    assert serialize_turtle(parse_turtle(text)) == text


def test_literal_lexical_forms_survive_round_trip():
    # "01" is not normalized to "1"; lexical comparison is exact
    g = Graph(
        [
            Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("01", XSD_INTEGER)),
            Triple(IRI("http://x/s"), IRI("http://x/q"), Literal("1", XSD_INTEGER)),
        ]
    )
    reparsed = parse_turtle(serialize_turtle(g))
    assert reparsed.triples == g.triples
    assert Literal("01", XSD_INTEGER) != Literal("1", XSD_INTEGER)


def test_round_trip_preserves_prefix_map():
    g = Graph(
        [Triple(IRI(DINGO + "Project"), RDF_TYPE, IRI("http://www.w3.org/2002/07/owl#Class"))],
        {"d": DINGO, "owl": "http://www.w3.org/2002/07/owl#"},
    )
    reparsed = parse_turtle(serialize_turtle(g))
    assert dict(reparsed.prefixes) == dict(g.prefixes)


def test_round_trip_random_sample():
    rng = random.Random(5150)
    for _ in range(40):
        g = random_graph(rng)
        text = serialize_turtle(g)
        reparsed = parse_turtle(text)
        assert graph_isomorphic(reparsed, g), text
        # parsing the same bytes twice gives the same graph, labels included
        assert parse_turtle(text) == reparsed
