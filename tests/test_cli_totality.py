"""Every CLI command over generated input ends in an exit code, never an exception.

Turtle documents are built from grammar pieces (terms, verbs, ';', ',', '.',
'[ ]'/'( )' nests up to about 2 000 levels deep, and prefix declarations,
most of names outside the prefix-name form), then hit with single-token
deletions and insertions, and fed to the commands that read Turtle,
`query temporal-check` included; a `convert` that exits 2 must name the
line and column of its error. Mapping files, shape files and CSV
and JSON tables are generated and mutated the same way and fed to `ingest`
(with `--delimiter` and `--base`) and `validate --shapes`. A `validate
--shapes` of valid data, and an `ingest` of each mapping over an empty
table, that exits 2 must name the line and column of the shape or mapping
file's error too. Whole argument lists are drawn from command names, flags,
the bundled files, a file that is not UTF-8 and junk text.
"""

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import dingotk
from dingotk.cli import run

PREFIXES = (
    "@prefix ex: <http://x/> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    "@prefix d: <https://w3id.org/dingo#> .\n"
)
# the classes the bundled shapes target, so that validate --ontology can get past loading
CLASSES = "".join(
    f"d:{name} a owl:Class .\n"
    for name in (
        "Project", "Grant", "FundingScheme", "FundingAgency", "Person", "Organisation", "Role", "Criterion"
    )
)
NODES = [
    "<http://x/a>", "ex:b", "owl:Class", "owl:Restriction", "d:Grant", "d:Project", "_:l1", "_:l2", "[]", "()"
]
LITERALS = [
    '"s"', '"s"@en', '"t"@en', '"5"^^xsd:integer', '"2020-01"^^xsd:gYearMonth', '"x"^^<http://x/dt>',
    "1", "-2.5", "1e3", "true",
]
VERBS = [
    "a", "ex:p", "<http://x/q>", "rdfs:subClassOf", "owl:onProperty", "rdfs:label", "d:funds",
    "d:has_beneficiary",
]
DINGO = "https://w3id.org/dingo#"
# only inserted, as a single-token edit
STRAYS = [".", ";", ",", "[", "]", "(", ")", "und:x", "<rel>", "@en", "^^"]
# prefix declarations, most with names outside Turtle's prefix-name form
DECLARATIONS = [
    ["@prefix", "dé:", "<http://x/>", "."], ["@prefix", "a.:", "<http://x/>", "."], ["PREFIX", "-a:", "<http://x/>"],
    ["PREFIX", ":", "<http://x/>"],
]

nodes = st.sampled_from(NODES)
terms = st.sampled_from(NODES + LITERALS)
verbs = st.sampled_from(VERBS)


@st.composite
def nests(draw, max_depth):
    """Tokens of one '[ ]'/'( )' nest; a short pattern of levels repeats to its depth."""
    depth = draw(st.integers(1, max_depth))
    levels = draw(
        st.lists(
            st.tuples(st.sampled_from(["[", "[;", "(", "(+"]), verbs, terms),
            min_size=1,
            max_size=3,
        )
    )
    opening, closing = [], []  # closing: one group per level, innermost last
    for i in range(depth):
        shape, verb, sibling = levels[i % len(levels)]
        if shape == "[":
            opening += ["[", verb]
            closing.append(["]"])
        elif shape == "[;":  # the nest, then one more pair
            opening += ["[", verb]
            closing.append([";", verb, sibling, "]"])
        elif shape == "(":
            opening.append("(")
            closing.append([")"])
        else:  # a sibling element after the nest
            opening.append("(")
            closing.append([sibling, ")"])
    return opening + [draw(terms)] + [token for group in reversed(closing) for token in group]


objects = st.one_of(terms.map(lambda t: [t]), nests(4))


@st.composite
def statements(draw):
    tokens = draw(st.one_of(nodes.map(lambda t: [t]), nests(4)))  # the subject
    for k in range(draw(st.integers(1, 3))):
        if k:
            tokens.append(";")
        tokens.append(draw(verbs))
        for j in range(draw(st.integers(1, 2))):
            if j:
                tokens.append(",")
            tokens += draw(objects)
    return tokens + ["."]


def mutated(draw, tokens: list, pool: list) -> list:
    """`tokens` after up to two single-token deletions or insertions from `pool`."""
    tokens = list(tokens)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        if tokens and at < len(tokens) and draw(st.booleans()):
            del tokens[at]
        else:
            tokens.insert(at, draw(st.sampled_from(pool)))
    return tokens


@st.composite
def documents(draw):
    pieces = st.one_of(statements(), statements(), st.sampled_from(DECLARATIONS))
    tokens = [token for piece in draw(st.lists(pieces, max_size=3)) for token in piece]
    if draw(st.booleans()):  # one deep nest, as a subject or as an object of a documented class
        nest, verb = draw(nests(2000)), draw(verbs)
        tokens += draw(st.sampled_from([nest + [verb, "1", "."], ["d:Project", verb] + nest + ["."]]))
    tokens = mutated(draw, tokens, STRAYS + NODES + LITERALS + VERBS)
    return PREFIXES + CLASSES + " ".join(tokens) + "\n"


def commands(path):
    return [
        ["convert", path],
        ["validate", path],
        ["validate", path, "--ontology", path],
        ["stats", path],
        ["docgen", path],
        ["query", "grants-of", path, "--node", "http://x/a", "--ontology", path],
        ["query", "temporal-check", path],
    ]


def may_exit_1(argv) -> bool:
    """Exit 1 means a nonconformant validate or temporal findings; nothing else may use it."""
    return argv[0] == "validate" or argv[:2] == ["query", "temporal-check"]


def totality_settings(max_examples: int):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


@totality_settings(30)
@given(documents())
@example(PREFIXES + CLASSES + "d:Project ex:p " + "[ ex:p " * 2000 + "1" + " ; a d:Grant ]" * 2000 + " .\n")
@example(PREFIXES + CLASSES + "d:Project rdfs:subClassOf " + "( " * 2000 + "1" + " _:l1 )" * 2000 + " .\n")
@example(
    PREFIXES + CLASSES + 'd:Grant rdfs:label "s", "s"@en ; rdfs:comment "c", "c"@de .\n'
    '<http://x/i> a d:Grant ; rdfs:label "s", "s"@en .\n'
)
def test_every_command_ends_in_an_exit_code(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.ttl")
        Path(path).write_text(document, encoding="utf-8")
        for argv in commands(path):
            assert_exit_code(argv)


def assert_exit_code(argv, positioned: bool = False) -> None:
    """Runs argv; with `positioned` (always for `convert`), an exit 2 must
    name the line and column of its input error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in ({0, 1, 2, 3} if may_exit_1(argv) else {0, 2, 3}), argv
    assert "Traceback" not in err.getvalue()
    if code == 2 and (positioned or argv[0] == "convert"):
        assert re.match(r"error: line [0-9]+, column [0-9]+: ", err.getvalue()), err.getvalue()


# -- ingest: mapping files and CSV or JSON tables ------------------------------

COLUMNS = ["id", "title", "start", "amount", "ref", "lang"]
VALUE_KINDS = [
    "string", "string@en", "string@", "string@x-", "date", "date format %d/%m/%Y", "date format %",
    "decimal", "ref E0", "ref E1", "ref Nope", "ref", "blob",
]
PREDICATES = ["d:title", "d:funds", "<http://x/p>", "<rel>", "und:p", "d:"]
CELLS = [
    "", "x", "t1", "t2", "2020", "2020-01", "2020-13", "2019-02-30", "2020-02-29", "01/02/2020",
    "1.5", "-3", ".5", "1e3", "a b", "a,b", 'q"q', "line\nbreak", "é", "\ufeffx", "%2F/#?",
]
MAPPING_STRAYS = [
    "{", "}", "->", ":", ",", "key", "map", "entity", "columns", "base", "prefix", "d:Grant",
    "<http://x/>", "<rel>", "#", "@",
]


@st.composite
def mapping_texts(draw):
    lines = [["prefix", "d:", f"<{DINGO}>"]]
    base = draw(st.sampled_from(["<http://x/base/>", "<http://x/b#>", "<rel/>", None]))
    if base:
        lines.append(["base", base])
    columns = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True))
    lines.append(["columns", ", ".join(columns)])
    for n in range(draw(st.integers(1, 2))):
        lines.append(["entity", f"E{n}", draw(st.sampled_from(["d:Grant", "d:Project", "<http://x/C>"])), "{"])
        lines.append(["key", ", ".join(draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2)))])
        for _ in range(draw(st.integers(0, 3))):
            lines.append([
                "map", draw(st.sampled_from(columns)), "->", draw(st.sampled_from(PREDICATES)), ":",
                draw(st.sampled_from(VALUE_KINDS)),
            ])
        lines.append(["}"])
    # mutate whole lines and single tokens
    lines = mutated(draw, lines, [[t] for t in MAPPING_STRAYS])
    words = mutated(draw, [" ".join(line) for line in lines], MAPPING_STRAYS)
    return "\n".join(words) + "\n"


@st.composite
def tables(draw, delimiter):
    """(file suffix, text) of a CSV table joined with `delimiter`, or a JSON one."""
    header = draw(st.lists(st.sampled_from(COLUMNS + ["", "extra"]), min_size=1, max_size=5))
    rows = draw(
        st.lists(st.lists(st.sampled_from(CELLS), min_size=0, max_size=6), max_size=4)
    )
    if draw(st.booleans()):
        def cell(value):
            quote = any(c in value for c in (delimiter, '"', "\n")) or draw(st.booleans())
            return '"' + value.replace('"', '""') + '"' if quote else value

        lines = [delimiter.join(cell(c) for c in line) for line in [header, *rows]]
        return ".csv", "\n".join(mutated(draw, lines, ['"', "", "x" + delimiter, "\x00"])) + "\n"
    scalars = st.sampled_from([*CELLS, 1, -2.5, True, None, [], {"k": 1}])
    records = [
        {column: draw(scalars) for column in draw(st.lists(st.sampled_from(COLUMNS), max_size=4))}
        for _ in rows
    ]
    text = json.dumps(draw(st.sampled_from([records, records, {"a": 1}, [1, "x"], []])))
    chars = mutated(draw, list(text), list('[]{},:"') + ["\\"])
    return ".json", "".join(chars)


@st.composite
def ingest_cases(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t", "|", '"']))
    suffix, table = draw(tables(delimiter))
    options = []
    if draw(st.booleans()):
        options += ["--delimiter", draw(st.sampled_from([delimiter, ",", ";", "\n"]))]
    if draw(st.booleans()):
        options += ["--base", draw(st.sampled_from(["http://override.example/", "urn:x:", "rel/", "http://x/a b", ""]))]
    if draw(st.booleans()):
        options += ["--input-format", draw(st.sampled_from(["csv", "json"]))]
    return draw(mapping_texts()), suffix, table, options + ["--format", draw(st.sampled_from(["text", "json"]))]


def run_ingest(mapping, suffix, table, options) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        mapping_path, table_path = Path(tmp) / "m.mapping", Path(tmp) / f"rows{suffix}"
        mapping_path.write_text(mapping, encoding="utf-8")
        table_path.write_text(table, encoding="utf-8")
        assert_exit_code(["ingest", str(table_path), "--mapping", str(mapping_path), *options])
        # over an empty table, only the mapping can be at fault
        empty = Path(tmp) / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert_exit_code(["ingest", str(empty), "--mapping", str(mapping_path)], positioned=True)


THING_MAPPING = "prefix d: <http://x/>\nbase <http://x/>\ncolumns id, name\nentity T d:T {\nkey id\n}\n"


@totality_settings(60)
@given(ingest_cases())
@example((THING_MAPPING, ".csv", "id,name\nt1," + "x" * 131_073 + "\n", []))  # over the csv field limit
@example((THING_MAPPING, ".csv", "id,name\nt1,\x00\n", []))  # NUL: an error before Python 3.11
def test_ingest_ends_in_an_exit_code(case):
    run_ingest(*case)


# -- validate --shapes: shape files ---------------------------------------------

SHAPE_DATA = (
    f"@prefix d: <{DINGO}> .\n"
    "@prefix x: <http://x/> .\n"
    "x:p a d:Project ; d:funded_by x:g ; d:title \"P\" .\n"
    "x:g a d:Grant ; d:funds x:p ; d:has_beneficiary x:o ;\n"
    "    d:start_time \"2020-01-01\"^^<http://www.w3.org/2001/XMLSchema#date> .\n"
    "x:o a d:Organisation .\n"
    "x:s a d:FundingScheme ; d:subscheme_of x:s .\n"
)
CHECKS = [
    ["any"], ["iri"], ["literal", "xsd:date"], ["literal", "<http://x/dt>"], ["class", "d:Project"],
    ["class", "d:Nope"], ["@S0"], ["@S1"], ["@Missing"], ["literal"], ["class"],
]
CARDINALITIES = ["", "?", "*", "+", "{0}", "{1}", "{2,}", "{1,3}", "{3,1}", "{ 2 , 5 }"]
SHAPE_STRAYS = [
    "{", "}", ";", "shape", "target", "closed", "prefix", "d:", "@S0", "{1,", "<rel>", "und:x", "xsd:",
    "#", "?",
]


@st.composite
def shape_texts(draw):
    tokens = ["prefix", "d:", f"<{DINGO}>\n", "prefix", "xsd:", "<http://www.w3.org/2001/XMLSchema#>\n"]
    for n in range(draw(st.integers(0, 2))):
        tokens += ["shape", f"S{n}"]
        if draw(st.booleans()):
            tokens.append("closed")
        target = draw(st.sampled_from(["d:Project", "d:Grant", "d:FundingScheme", "d:Nope", "<http://x/C>"]))
        tokens += ["target", target, "{"]
        predicates = st.sampled_from(["d:funds", "d:title", "d:funded_by", "d:start_time", "<http://x/p>"])
        for k, predicate in enumerate(draw(st.lists(predicates, max_size=3, unique=True))):
            if k:
                tokens.append(";")
            tokens.append(predicate)
            tokens += draw(st.sampled_from(CHECKS))
            tokens.append(draw(st.sampled_from(CARDINALITIES)))
        tokens.append("}\n")
    return " ".join(mutated(draw, tokens, SHAPE_STRAYS)) + "\n"


@totality_settings(60)
@given(shape_texts())
def test_validate_with_generated_shapes_ends_in_an_exit_code(shapes):
    with tempfile.TemporaryDirectory() as tmp:
        data, shape_file = Path(tmp) / "data.ttl", Path(tmp) / "s.shapes"
        data.write_text(SHAPE_DATA, encoding="utf-8")
        shape_file.write_text(shapes, encoding="utf-8")
        # the data and the ontology read cleanly, so an exit 2 is the shape file's
        assert_exit_code(["validate", str(data), "--shapes", str(shape_file)], positioned=True)
        assert_exit_code(["validate", str(data), "--shapes", str(shape_file), "--format", "json"], positioned=True)


# -- random argv: command names, flags, bundled files and junk ----------------

BUNDLED = Path(dingotk.__file__).parent / "data"
# relative to a scratch directory holding copies of the bundled files, so
# that an --out drawn from these overwrites only a copy
FILES = sorted(p.name for p in BUNDLED.iterdir()) + ["not-utf8.ttl", "not-utf8.csv", "missing.ttl", "subdir"]
WORDS = [
    "convert", "stats", "validate", "ingest", "query", "docgen", "grants-of", "projects-of", "ancestry",
    "criteria", "participants", "beneficiaries", "non-beneficiary-participants", "temporal-check",
]
FLAGS = [
    "--out", "--base", "--format", "--shapes", "--ontology", "--mapping", "--delimiter", "--input-format",
    "--node", "--inherited", "-h", "--help", "--", "-", "--nope",
]
VALUES = [
    "text", "json", "csv", ",", ";", "", "::", "http://x/", "urn:x:", "rel/", "http://x/a b", "_:b0", "_:",
    "<https://w3id.org/dingo#g1>", "\udcff", "a\x00b",
]


@st.composite
def argvs(draw):
    word = st.one_of(
        st.sampled_from(WORDS), st.sampled_from(FLAGS), st.sampled_from(FILES), st.sampled_from(VALUES),
        st.text(max_size=6),
    )
    option = st.tuples(st.sampled_from(FLAGS), st.one_of(st.sampled_from(FILES), st.sampled_from(VALUES)))
    argv = [w for part in draw(st.lists(st.one_of(word.map(lambda w: (w,)), option), max_size=5)) for w in part]
    if draw(st.sampled_from([True, True, False])):  # most lists should reach a command
        command = draw(st.sampled_from(WORDS[:6]))
        subquery = [draw(st.sampled_from(WORDS[6:]))] if command == "query" else []
        argv = [command, *subquery, draw(st.sampled_from(FILES)), *argv]
    return argv


@totality_settings(150)
@given(argvs())
@example(["convert", "not-utf8.ttl"])
@example(["ingest", "not-utf8.csv", "--mapping", "example_grants.mapping"])
@example(["ingest", "example_grants.csv", "--mapping", "not-utf8.ttl"])
@example(["docgen", "subdir", "--out", "subdir"])
@example(["query", "grants-of", "example_instances.ttl", "--node", "_:"])
def test_random_argv_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name in os.listdir(BUNDLED):
            shutil.copy(BUNDLED / name, tmp)
        for name in ("not-utf8.ttl", "not-utf8.csv"):
            (Path(tmp) / name).write_bytes(b"@prefix x: <http://x/> .\nx:a x:b \"\xff\xfe\xc3\" .\n")
        (Path(tmp) / "subdir").mkdir()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
    # exit 1 is for a nonconformant validate or temporal findings only
    assert code in {0, 2, 3} or (code == 1 and ("validate" in argv or "temporal-check" in argv)), argv
    assert "Traceback" not in err.getvalue()
