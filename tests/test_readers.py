"""Turtle, shape files and mapping files read IRIs and prefixed names with one
lexer and one resolver, so each reader accepts the same terms, reads them as
the same IRI and gives the same reason and token for the same fault.

A term is read by each reader in the place that takes an IRI: the object of
a Turtle triple, the target of a shape and the class of a mapping entity,
with the prefix `ex:` bound to the same namespace in all three.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dingotk.ingest import MappingParseError, parse_mapping
from dingotk.shapes import ShapeParseError, parse_shapes
from dingotk.terms import IRI, PositionedError
from dingotk.turtle import parse_turtle

EX = "http://x/"


def turtle_reads(term: str) -> IRI:
    graph = parse_turtle(f"@prefix ex: <{EX}> .\n<{EX}s> <{EX}p> {term} .\n")
    (triple,) = graph.triples
    return triple.object


def shape_file_reads(term: str) -> IRI:
    ((target, _),) = parse_shapes(f"prefix ex: <{EX}>\nshape S target {term} {{ }}\n").target_map
    return target


def mapping_reads(term: str) -> IRI:
    text = f"prefix ex: <{EX}>\nbase <{EX}base/>\ncolumns id\nentity E {term} {{\n    key id\n}}\n"
    return parse_mapping(text).entities[0].entity_class


READERS = [turtle_reads, shape_file_reads, mapping_reads]


def mapping_reads_entity(name: str):
    return parse_mapping(f"base <{EX}>\ncolumns id\nentity {name} <{EX}C> {{\n    key id\n}}\n")


def read_by_each(term: str) -> list:
    """What each reader makes of the term: its IRI, or "error" for an error
    with a line and column; any other exception fails the test."""
    found = []
    for read in READERS:
        try:
            found.append(read(term))
        except PositionedError:
            found.append("error")
    return found


@pytest.mark.parametrize(
    "term, iri",
    [
        (r"ex:a\-b", EX + "a-b"),
        (r"ex:a\~b\.c", EX + "a~b.c"),
        ("<http://x/\\u0041>", EX + "A"),
        ("<http://x/\\U0001F600>", EX + "\U0001F600"),
        ("ex:a:b", EX + "a:b"),
        ("ex:a.b", EX + "a.b"),
        ("ex:%41", EX + "%41"),
        ("ex:", EX),
    ],
)
def test_escapes_and_colons_read_as_turtle_reads_them(term, iri):
    assert read_by_each(term) == [IRI(iri)] * 3


@pytest.mark.parametrize("term", ["ex:a.", "ex:a/b", "ex:a#b", "ex:a~b", r"ex:a\qb", "<http://x/a b>", "<a>"])
def test_names_and_iris_outside_turtle_are_errors_in_every_reader(term):
    assert read_by_each(term) == ["error"] * 3


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (parse_shapes, "shape S target <http://x/a b> { }", ShapeParseError,
         "line 1, column 16: IRI contains forbidden character ' ': 'http://x/a b' (at 'http://x/a b')"),
        (parse_shapes, f"prefix ex: <{EX}>\nshape S target ex:a/b {{ }}", ShapeParseError,
         "line 2, column 20: unexpected character '/' (at '/')"),
        (parse_mapping, "entity E <http://x/\\q> {", MappingParseError,
         "line 1, column 21: invalid escape '\\q' in IRI"),
    ],
)
def test_an_iri_fault_is_reported_where_turtle_reports_it(parse, text, error, message):
    with pytest.raises(error) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["Té", "1a", "a.b", "a:b"])
def test_declared_names_have_one_form_in_both_readers(name):
    with pytest.raises(ShapeParseError, match="invalid shape name"):
        parse_shapes(f"shape {name} {{ }}")
    with pytest.raises(MappingParseError, match="invalid entity name"):
        mapping_reads_entity(name)


def test_every_declared_name_form_reads_in_both_readers():
    for name in ["_", "a", "A_b-1", "Grant_Shape"]:
        assert set(parse_shapes(f"shape {name} {{ }}\nshape R {{ <{EX}p> @{name} }}").shapes) == {name, "R"}
        assert mapping_reads_entity(name).entities[0].name == name


# pieces of local names and IRI bodies: name characters, the characters
# Turtle allows in neither, escapes that it reads and ones that it rejects
LOCAL_PIECES = ["a", "Z", "0", "_", "-", ".", ":", "%", "%4F", "é", "\\-", "\\.", "\\~", "\\#", "\\q", "/", "#", "~"]
IRI_PIECES = ["a", "/", "#", ".", "é", " ", "{", "^", "\\u0041", "\\U0001F600", "\\uD800", "\\q", "\\u00"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(LOCAL_PIECES), max_size=6).map(lambda pieces: "ex:" + "".join(pieces)),
        st.lists(st.sampled_from(IRI_PIECES), max_size=6).map(lambda pieces: f"<{EX}{''.join(pieces)}>"),
    )
)
def test_the_three_readers_accept_the_same_terms_as_the_same_iris(term):
    first, *others = read_by_each(term)
    assert others == [first, first], term


def turtle_declares(directive: str) -> None:
    parse_turtle(f"@{directive} .\n")


def shape_file_declares(directive: str) -> None:
    parse_shapes(f"{directive}\n")


def mapping_declares(directive: str) -> None:
    parse_mapping(f"{directive}\nbase <{EX}base/>\ncolumns id\nentity E <{EX}C> {{\n    key id\n}}\n")


def fault_of(read, text: str) -> tuple:
    """(reason, token) of the error that reading the text raises."""
    with pytest.raises(PositionedError) as err:
        read(text)
    return err.value.reason, err.value.token


@pytest.mark.parametrize(
    "fault, term, directive",
    [
        ("relative IRI 'C' without a base", "<C>", "prefix ex: <C>"),
        ("undefined prefix 'nope:'", "nope:C", None),
        ("invalid prefix name: 'd.'", None, f"prefix d.: <{EX}>"),
        ("prefix declaration must end with ':'", None, f"prefix d:e <{EX}>"),
        ("expected prefix name", None, f"prefix <{EX}> <{EX}>"),
    ],
)
def test_the_three_readers_give_one_reason_for_each_fault(fault, term, directive):
    if term is not None:
        assert {fault_of(read, term)[0] for read in READERS} == {fault}
    if directive is not None:
        declares = [turtle_declares, shape_file_declares, mapping_declares]
        assert {fault_of(read, directive)[0] for read in declares} == {fault}


def test_every_reader_quotes_the_token_it_stops_at():
    for read in READERS:
        assert [fault_of(read, term) for term in ["<C>", "nope:C", "<http://x/a b>"]] == [
            ("relative IRI 'C' without a base", "C"),
            ("undefined prefix 'nope:'", "nope:C"),
            ("IRI contains forbidden character ' ': 'http://x/a b'", "http://x/a b"),
        ]
