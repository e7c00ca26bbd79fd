import random
import sys
from pathlib import Path

import pytest

from dingotk.ontology import DINGO_BASE, DingoTerms, load_ontology
from dingotk.shapes import (
    Shape,
    ShapeParseError,
    ShapeRefError,
    ShapeSchema,
    TripleConstraint,
    UNBOUNDED,
    ValueCheck,
    parse_shapes,
    validate,
)
from dingotk.terms import Graph, IRI, Literal, RDF_TYPE, Triple, XSD_DATE, XSD_STRING
from dingotk.turtle import parse_turtle

from shape_fixtures import CONFORMANT, CUSTOM_SHAPES, FIXTURES, NONCONFORMANT

D = DingoTerms()
GOLDEN_DIR = Path(__file__).parent / "golden"
EX = "http://ex.org/"


# ---------------------------------------------------------------------------
# shape language
# ---------------------------------------------------------------------------


def test_parse_empty_document():
    schema = parse_shapes("")
    assert schema.shapes == {}
    assert schema.target_map == []


def test_parse_single_constraint_exact_one():
    schema = parse_shapes(
        f"shape S target <{EX}C> {{ <{EX}p> iri {{1,1}} }}"
    )
    shape = schema.shapes["S"]
    assert shape.constraints == (
        TripleConstraint(IRI(EX + "p"), 1, 1, ValueCheck("iri")),
    )
    assert schema.target_map == [(IRI(EX + "C"), "S")]


@pytest.mark.parametrize(
    "min_count, max_count, message",
    [(-1, None, "min_count must be non-negative"), (2, 1, "min_count exceeds max_count")],
)
def test_a_constraint_rejects_impossible_cardinalities(min_count, max_count, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TripleConstraint(IRI(EX + "p"), min_count, max_count)


def test_parse_cardinality_shorthands():
    text = (
        f"shape S target <{EX}C> {{\n"
        f"  <{EX}a> any ? ;\n"
        f"  <{EX}b> any * ;\n"
        f"  <{EX}c> any + ;\n"
        f"  <{EX}d> any {{3}} ;\n"
        f"  <{EX}e> any {{2,5}} ;\n"
        f"  <{EX}f> any {{2,}} ;\n"
        f"  <{EX}g> any ;\n"
        f"  <{EX}h> any {{ 2 }} ;\n"
        f"  <{EX}i> any {{0,}} ;\n"
        f"  <{EX}j> any {{ 2 , }} ;\n"
        f"  <{EX}k> any {{ 1 , 3 }}\n"
        f"}}"
    )
    bounds = {
        c.predicate.value[-1]: (c.min_count, c.max_count)
        for c in parse_shapes(text).shapes["S"].constraints
    }
    assert bounds == {
        "a": (0, 1),
        "b": (0, UNBOUNDED),
        "c": (1, UNBOUNDED),
        "d": (3, 3),
        "e": (2, 5),
        "f": (2, UNBOUNDED),
        "g": (1, 1),
        "h": (2, 2),
        "i": (0, UNBOUNDED),
        "j": (2, UNBOUNDED),
        "k": (1, 3),
    }


def test_parse_prefixed_names_and_value_checks():
    text = (
        f"prefix d: <{DINGO_BASE}>\n"
        f"prefix xsd: <http://www.w3.org/2001/XMLSchema#>\n"
        "shape G target d:Grant closed {\n"
        "  d:start_time literal xsd:date ? ;\n"
        "  d:administered_by class d:FundingAgency * ;\n"
        "  d:funds @P *\n"
        "}\n"
        "shape P target d:Project { }\n"
    )
    schema = parse_shapes(text)
    grant_shape = schema.shapes["G"]
    assert grant_shape.closed
    checks = {c.predicate: c.check for c in grant_shape.constraints}
    assert checks[D.start_time] == ValueCheck("datatype", "http://www.w3.org/2001/XMLSchema#date")
    assert checks[D.administered_by] == ValueCheck("class", D.FundingAgency.value)
    assert checks[D.funds] == ValueCheck("shape", "P")
    assert schema.shapes["P"].constraints == ()
    # a class check builds its IRI once, however many values it reads
    class_check = checks[D.administered_by]
    assert class_check.class_iri == D.FundingAgency
    assert class_check.class_iri is class_check.class_iri


def test_unresolved_shape_ref_is_an_error():
    with pytest.raises(ShapeRefError):
        parse_shapes(f"shape S target <{EX}C> {{ <{EX}p> @Ghost }}")


def test_duplicate_constraint_predicate_is_an_error():
    with pytest.raises(ShapeParseError):
        parse_shapes(f"shape S target <{EX}C> {{ <{EX}p> any ; <{EX}p> iri }}")


def test_syntax_error_carries_line():
    with pytest.raises(ShapeParseError) as err:
        parse_shapes("shape S target <http://ex.org/C>\n{ what ever }")
    assert err.value.line == 2


def test_min_greater_than_max_rejected():
    with pytest.raises(ShapeParseError) as err:
        parse_shapes(f"shape S target <{EX}C> {{\n <{EX}p> any {{3,1}} }}")
    assert str(err.value) == "line 2, column 24: cardinality '{3,1}' has min > max"
    assert (err.value.line, err.value.column) == (2, 24)


def test_undefined_prefix_in_shape_file():
    for text, line, column in [
        ("shape S target nope:C { }", 1, 16),
        ("prefix ex: <http://ex.org/>\nshape S {\n ex:p class nope:C }", 3, 13),
    ]:
        with pytest.raises(ShapeParseError) as err:
            parse_shapes(text)
        assert str(err.value) == f"line {line}, column {column}: undefined prefix 'nope:' (at 'nope:C')"
        assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("shape S target <C> { }", 1, 16, "relative IRI 'C' without a base (at 'C')"),
        ("shape S {\n\n <p> any }", 3, 2, "relative IRI 'p' without a base (at 'p')"),
        ("\nprefix ex: <rel/>", 2, 12, "relative IRI 'rel/' without a base (at 'rel/')"),
        (
            f"shape S target <{EX}a{{b> {{ }}",
            1,
            16,
            f"IRI contains forbidden character '{{': '{EX}a{{b' (at '{EX}a{{b')",
        ),
        ("shape S target C { }", 1, 16, "expected an IRI (at 'C')"),
    ],
)
def test_unresolvable_iri_in_shape_file(text, line, column, message):
    with pytest.raises(ShapeParseError) as err:
        parse_shapes(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("shape 1bad { }", 1, 7, "invalid shape name '1bad'"),
        ("shape S { }\nshape S { }", 2, 7, "duplicate shape name 'S'"),
        (f"shape S target <{EX}C>\n ;", 2, 2, "expected '{' to open shape body (at ';')"),
        # a "<" opens an IRI, which Turtle's lexer reads to its first fault
        ("shape S {\n < }", 2, 5, "unterminated IRI"),
        ("shape S {\n @1 }", 2, 2, "unexpected character '@' (at '@')"),
        (f"shape S {{\n <{EX}p> 42 }}", 2, 20, "expected a value check (at '42')"),
        # cardinality bounds are ASCII digits; "\u0662" is an Arabic-Indic two
        (f"shape S {{\n <{EX}p> any {{\u0662}} }}", 2, 24, "malformed cardinality"),
        (f"shape S {{\n <{EX}p> any {{1,\u0662}} }}", 2, 24, "malformed cardinality"),
        (f"shape S {{\n <{EX}p> any {{x}} }}", 2, 24, "malformed cardinality"),
        (f"shape S {{ <{EX}p> any\n\n {{1,x}} }}", 3, 2, "malformed cardinality"),
        (f"shape S {{ <{EX}p> iri {{\n 1 }} ; <{EX}q> any {{ }} }}", 2, 30, "malformed cardinality"),
        # prefix names outside the form that Turtle reads, with Turtle's messages
        (f"shape S {{ }}\nprefix 1x.: <{EX}>", 2, 8, "expected prefix name (at '1')"),
        (f"shape S {{ }}\nprefix a:b: <{EX}>", 2, 8, "prefix declaration must end with ':' (at 'a:b:')"),
        *(
            (f"shape S {{ }}\nprefix {name}: <{EX}>", 2, 8, f"invalid prefix name: {name!r} (at {name + ':'!r})")
            for name in ["d.", "dé", "-a", "a..b"]
        ),
    ],
)
def test_shape_file_syntax_errors_name_their_line(text, line, column, message):
    with pytest.raises(ShapeParseError) as err:
        parse_shapes(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_prefix_names_are_those_turtle_reads():
    schema = parse_shapes(f"prefix : <{EX}>\nprefix a.b_-1: <{EX}>\nshape S target :C {{ a.b_-1:p any }}")
    assert schema.target_map == [(IRI(EX + "C"), "S")]
    assert schema.shapes["S"].constraints[0].predicate == IRI(EX + "p")


@pytest.mark.parametrize("card", ["{%s}", "{1,%s}"], ids=["min", "max"])
def test_cardinality_past_the_int_digit_limit_names_its_line(card):
    digits = "1" * 5000
    text = f"shape S {{\n <{EX}p> any {card % digits} }}"
    # interpreters without the limit, or with it off (0), convert any length
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit < len(digits):
        with pytest.raises(ShapeParseError) as err:
            parse_shapes(text)
        assert str(err.value) == "line 2, column 24: cardinality bound has too many digits"
        assert (err.value.line, err.value.column) == (2, 24)
    else:
        (constraint,) = parse_shapes(text).shapes["S"].constraints
        assert int(digits) in (constraint.min_count, constraint.max_count)


# ---------------------------------------------------------------------------
# validation engine
# ---------------------------------------------------------------------------


def simple_schema():
    ttl = (
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        f"<{EX}C> a owl:Class . <{EX}Sub> a owl:Class ; rdfs:subClassOf <{EX}C> .\n"
        f"<{EX}Other> a owl:Class .\n"
    )
    return load_ontology(parse_turtle(ttl))


def test_empty_data_graph_is_conformant(snapshot_schema, dingo_shapes):
    report = validate(Graph(), snapshot_schema, dingo_shapes)
    assert report.conformant
    assert report.violations == []


def test_empty_shape_schema_is_always_conformant(snapshot_schema):
    data = parse_turtle(f'<{EX}n> <{EX}p> "v" .')
    assert validate(data, snapshot_schema, ShapeSchema()).conformant


def test_missing_required_beneficiary(snapshot_schema, dingo_shapes):
    data = parse_turtle(f"@prefix d: <{DINGO_BASE}> . <{EX}g> a d:Grant .")
    report = validate(data, snapshot_schema, dingo_shapes)
    assert not report.conformant
    (violation,) = report.violations
    assert violation.code == "missing-required"
    assert violation.predicate == D.has_beneficiary
    assert violation.focus == IRI(EX + "g")


def test_subsumption_targets_subclass_instances(snapshot_schema, dingo_shapes):
    # a Fellowship is a Grant, so GrantShape applies
    data = parse_turtle(f"@prefix d: <{DINGO_BASE}> . <{EX}f> a d:Fellowship .")
    report = validate(data, snapshot_schema, dingo_shapes)
    codes = [v.code for v in report.violations]
    assert codes == ["missing-required"]


def test_report_order_is_canonical(snapshot_schema, dingo_shapes):
    data = parse_turtle(
        f"@prefix d: <{DINGO_BASE}> .\n"
        f"<{EX}b> a d:Grant . <{EX}a> a d:Grant ; d:start_time \"x\" .\n"
    )
    report = validate(data, snapshot_schema, dingo_shapes)
    focuses = [v.focus.value for v in report.violations]
    assert focuses == sorted(focuses)
    again = validate(data, snapshot_schema, dingo_shapes)
    assert report.violations == again.violations


def test_violation_focus_and_shape_soundness(snapshot_schema, dingo_shapes):
    for name in NONCONFORMANT:
        ttl, shapes_key, _ = FIXTURES[name]
        data = parse_turtle(ttl)
        shapes = (
            dingo_shapes if shapes_key is None else parse_shapes(CUSTOM_SHAPES[shapes_key])
        )
        report = validate(data, snapshot_schema, shapes)
        for v in report.violations:
            assert v.focus in data.nodes()
            assert v.shape in shapes.shapes


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_has_expected_codes(name, snapshot_schema, dingo_shapes):
    ttl, shapes_key, expected = FIXTURES[name]
    data = parse_turtle(ttl)
    shapes = dingo_shapes if shapes_key is None else parse_shapes(CUSTOM_SHAPES[shapes_key])
    report = validate(data, snapshot_schema, shapes)
    assert sorted(v.code for v in report.violations) == sorted(expected)
    assert report.conformant == (not expected)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_report_matches_golden(name, snapshot_schema, dingo_shapes):
    ttl, shapes_key, _ = FIXTURES[name]
    data = parse_turtle(ttl)
    shapes = dingo_shapes if shapes_key is None else parse_shapes(CUSTOM_SHAPES[shapes_key])
    report = validate(data, snapshot_schema, shapes)
    golden = (GOLDEN_DIR / f"{name}.txt").read_text("utf-8")
    assert "\n".join(report.lines()) + "\n" == golden


def test_corpus_size_meets_contract():
    assert len(CONFORMANT) >= 6
    assert len(NONCONFORMANT) >= 8


def test_dangling_shape_ref_reported_not_raised():
    schema = simple_schema()
    shapes = ShapeSchema(
        shapes={
            "S": Shape("S", (TripleConstraint(IRI(EX + "p"), 0, None, ValueCheck("shape", "Ghost")),))
        },
        target_map=[(IRI(EX + "C"), "S")],
    )
    data = Graph(
        [
            Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "C")),
            Triple(IRI(EX + "n"), IRI(EX + "p"), Literal("v")),
        ]
    )
    report = validate(data, schema, shapes)
    assert [v.code for v in report.violations] == ["dangling-shape-ref"]


def test_a_target_naming_an_undefined_shape_checks_nothing():
    shapes = ShapeSchema(shapes={}, target_map=[(IRI(EX + "C"), "Ghost")])
    data = Graph([Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "C"))])
    report = validate(data, simple_schema(), shapes)
    assert report.conformant
    assert report.lines() == validate(data, simple_schema(), ShapeSchema()).lines()


def test_unregistered_target_class_falls_back_to_direct_typing():
    # the target class is unknown to the ontology schema: no subsumption,
    # but directly typed nodes are still checked
    shapes = parse_shapes(f"shape S target <{EX}Mystery> {{ <{EX}p> any + }}")
    data = Graph(
        [
            Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "Mystery")),
        ]
    )
    report = validate(data, simple_schema(), shapes)
    assert [v.code for v in report.violations] == ["missing-required"]
    report_no_schema = validate(data, None, shapes)
    assert [v.code for v in report_no_schema.violations] == ["missing-required"]


def test_class_check_reads_direct_types_without_a_schema_or_outside_it():
    shapes = parse_shapes(
        f"shape S target <{EX}C> {{ <{EX}p> class <{EX}Mystery> * ; <{EX}q> class <{EX}C> * }}"
    )
    data = Graph(
        [
            Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "C")),
            Triple(IRI(EX + "n"), IRI(EX + "p"), IRI(EX + "mystery")),
            Triple(IRI(EX + "n"), IRI(EX + "p"), IRI(EX + "other")),
            Triple(IRI(EX + "n"), IRI(EX + "q"), IRI(EX + "sub")),
            Triple(IRI(EX + "mystery"), RDF_TYPE, IRI(EX + "Mystery")),
            Triple(IRI(EX + "other"), RDF_TYPE, IRI(EX + "Other")),
            Triple(IRI(EX + "sub"), RDF_TYPE, IRI(EX + "Sub")),
        ]
    )

    def wrong_classes(schema):
        report = validate(data, schema, shapes)
        assert {v.code for v in report.violations} == {"wrong-class"}
        return [v.message.split()[1] for v in report.violations]

    # Mystery is outside the schema, so only a node typed Mystery itself has it
    assert wrong_classes(simple_schema()) == [f"<{EX}other>"]
    # with no schema, Sub is not known to be below C either
    assert wrong_classes(None) == [f"<{EX}other>", f"<{EX}sub>"]


def test_ref_to_targetless_shape_accepts_anything():
    schema = simple_schema()
    shapes = parse_shapes(
        f"shape S target <{EX}C> {{ <{EX}p> @Util * }}\n"
        f"shape Util {{ <{EX}q> any ? }}\n"
    )
    data = Graph(
        [
            Triple(IRI(EX + "n"), RDF_TYPE, IRI(EX + "C")),
            Triple(IRI(EX + "n"), IRI(EX + "p"), Literal("anything")),
        ]
    )
    assert validate(data, schema, shapes).conformant


# ---------------------------------------------------------------------------
# randomized oracle + monotonicity
# ---------------------------------------------------------------------------

ORACLE_SHAPES = parse_shapes(
    f"""
prefix ex: <{EX}>
prefix xsd: <http://www.w3.org/2001/XMLSchema#>

shape CShape target ex:C {{
    ex:name literal xsd:string {{1,2}} ;
    ex:link @OtherShape * ;
    ex:kind iri ?
}}

shape OtherShape target ex:Other closed {{
    ex:name literal xsd:string ?
}}

shape SubShape target ex:Sub {{
    ex:score class ex:Other +
}}
"""
)


def _oracle_closure(schema, cls):
    # independent fixed-point closure over direct superclass edges
    closure = set()
    while True:
        frontier = set()
        for member in closure | {cls}:
            if member in schema.classes:
                frontier |= schema.classes[member].direct_superclasses
        new = frontier - closure
        if not new:
            return closure
        closure |= new


def _oracle_is_instance(schema, data, node, cls):
    for t in data.triples:
        if t.subject == node and t.predicate == RDF_TYPE:
            if t.object == cls or cls in _oracle_closure(schema, t.object):
                return True
    return False


def _oracle_validate(schema, data, shapes):
    """Independent checker enumerating all (target, node, constraint) pairs."""
    found = set()
    for cls, shape_name in shapes.target_map:
        shape = shapes.shapes[shape_name]
        focuses = {
            t.subject
            for t in data.triples
            if t.predicate == RDF_TYPE and _oracle_is_instance(schema, data, t.subject, cls)
        }
        for node in focuses:
            for c in shape.constraints:
                values = {t.object for t in data.triples if t.subject == node and t.predicate == c.predicate}
                if len(values) < c.min_count:
                    found.add((node, shape_name, c.predicate, "missing-required"))
                if c.max_count is not None and len(values) > c.max_count:
                    found.add((node, shape_name, c.predicate, "cardinality-exceeded"))
                for value in values:
                    check = c.check
                    if check.kind == "iri" and not isinstance(value, IRI):
                        found.add((node, shape_name, c.predicate, "wrong-value-kind"))
                    elif check.kind == "datatype":
                        if not isinstance(value, Literal):
                            found.add((node, shape_name, c.predicate, "wrong-value-kind"))
                        elif value.datatype != check.argument:
                            found.add((node, shape_name, c.predicate, "wrong-datatype"))
                    elif check.kind == "class":
                        if isinstance(value, Literal) or not _oracle_is_instance(
                            schema, data, value, IRI(check.argument)
                        ):
                            found.add((node, shape_name, c.predicate, "wrong-class"))
                    elif check.kind == "shape":
                        targets = [ci for ci, n in shapes.target_map if n == check.argument]
                        if targets and not any(
                            not isinstance(value, Literal)
                            and _oracle_is_instance(schema, data, value, ci)
                            for ci in targets
                        ):
                            found.add((node, shape_name, c.predicate, "wrong-class"))
            if shape.closed:
                allowed = {c.predicate for c in shape.constraints} | {RDF_TYPE}
                for t in data.triples:
                    if t.subject == node and t.predicate not in allowed:
                        found.add((node, shape_name, t.predicate, "closed-shape-extra-predicate"))
    return found


def _random_oracle_graph(rng):
    classes = [IRI(EX + "C"), IRI(EX + "Sub"), IRI(EX + "Other")]
    predicates = [IRI(EX + "name"), IRI(EX + "link"), IRI(EX + "kind"), IRI(EX + "score"),
                  IRI(EX + "noise")]
    nodes = [IRI(f"{EX}n{i}") for i in range(rng.randrange(1, 6))]
    triples = []
    for node in nodes:
        for cls in rng.sample(classes, k=rng.randrange(0, 3)):
            triples.append(Triple(node, RDF_TYPE, cls))
        for _ in range(rng.randrange(0, 6)):
            predicate = rng.choice(predicates)
            roll = rng.random()
            if roll < 0.4:
                value = rng.choice(nodes)
            elif roll < 0.7:
                value = Literal(rng.choice(["a", "b"]), XSD_STRING)
            else:
                value = Literal("2020-01-01", XSD_DATE)
            triples.append(Triple(node, predicate, value))
    return Graph(triples)


def test_validate_agrees_with_exhaustive_oracle_on_random_graphs():
    schema = simple_schema()
    rng = random.Random(4242)
    for _ in range(100):
        data = _random_oracle_graph(rng)
        report = validate(data, schema, ORACLE_SHAPES)
        got = {(v.focus, v.shape, v.predicate, v.code) for v in report.violations}
        assert got == _oracle_validate(schema, data, ORACLE_SHAPES)


def test_removing_violating_triple_never_adds_value_violations():
    schema = simple_schema()
    rng = random.Random(99)
    bad_codes = {"cardinality-exceeded", "wrong-value-kind", "wrong-datatype", "wrong-class"}
    examined = 0
    while examined < 40:
        data = _random_oracle_graph(rng)
        report = validate(data, schema, ORACLE_SHAPES)
        value_violations = [
            v for v in report.violations if v.code in bad_codes and v.predicate is not None
        ]
        if not value_violations:
            continue
        examined += 1
        violation = value_violations[0]
        offending = data.match(violation.focus, violation.predicate, None)
        smaller = Graph(data.triples - {offending[0]}, data.prefixes)
        before = {(v.focus, v.shape, v.predicate, v.code) for v in report.violations}
        after = {
            (v.focus, v.shape, v.predicate, v.code)
            for v in validate(smaller, schema, ORACLE_SHAPES).violations
        }
        introduced = {entry for entry in after - before if entry[3] in bad_codes}
        assert introduced == set()


def test_adding_triples_never_fixes_cardinality_exceeded():
    schema = simple_schema()
    rng = random.Random(123)
    examined = 0
    while examined < 40:
        data = _random_oracle_graph(rng)
        report = validate(data, schema, ORACLE_SHAPES)
        exceeded = {
            (v.focus, v.shape, v.predicate, v.code)
            for v in report.violations
            if v.code == "cardinality-exceeded"
        }
        if not exceeded:
            continue
        examined += 1
        extra = Graph(
            set(data.triples)
            | {Triple(IRI(EX + "fresh"), IRI(EX + "noise"), Literal(str(rng.random())))},
            data.prefixes,
        )
        after = {
            (v.focus, v.shape, v.predicate, v.code)
            for v in validate(extra, schema, ORACLE_SHAPES).violations
        }
        assert exceeded <= after


# ---------------------------------------------------------------------------
# default shapes
# ---------------------------------------------------------------------------


def test_default_shapes_cover_every_principal_class(snapshot_schema, dingo_shapes):
    targets = {cls for cls, _ in dingo_shapes.target_map}
    assert targets == {
        D.Project,
        D.Grant,
        D.FundingAgency,
        D.FundingScheme,
        D.Person,
        D.Organisation,
        D.Role,
        D.Criterion,
    }
    assert len(dingo_shapes.target_map) == 8


def test_default_shapes_accept_worked_examples(snapshot_schema, dingo_shapes):
    from conftest import embedded

    data = parse_turtle(embedded("example_instances.ttl"))
    report = validate(data, snapshot_schema, dingo_shapes)
    assert report.conformant, report.lines()
