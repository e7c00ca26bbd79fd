"""Every CLI command over generated Turtle ends in an exit code, never an exception.

Documents are built from grammar pieces (terms, verbs, ';', ',', '.', and
'[ ]'/'( )' nests up to about 2 000 levels deep), then hit with single-token
deletions and insertions, and fed to the commands that read Turtle,
`query temporal-check` included.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

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
    '"s"', '"t"@en', '"5"^^xsd:integer', '"2020-01"^^xsd:gYearMonth', '"x"^^<http://x/dt>',
    "1", "-2.5", "1e3", "true",
]
VERBS = [
    "a", "ex:p", "<http://x/q>", "rdfs:subClassOf", "owl:onProperty", "rdfs:label", "d:funds",
    "d:has_beneficiary",
]
# only inserted, as a single-token edit
STRAYS = [".", ";", ",", "[", "]", "(", ")", "und:x", "<rel>", "@en", "^^"]

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


@st.composite
def documents(draw):
    tokens = [token for statement in draw(st.lists(statements(), max_size=3)) for token in statement]
    if draw(st.booleans()):  # one deep nest, as a subject or as an object of a documented class
        nest, verb = draw(nests(2000)), draw(verbs)
        tokens += draw(st.sampled_from([nest + [verb, "1", "."], ["d:Project", verb] + nest + ["."]]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        if tokens and at < len(tokens) and draw(st.booleans()):
            del tokens[at]
        else:
            tokens.insert(at, draw(st.sampled_from(STRAYS + NODES + LITERALS + VERBS)))
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


@settings(
    max_examples=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(documents())
@example(PREFIXES + CLASSES + "d:Project ex:p " + "[ ex:p " * 2000 + "1" + " ; a d:Grant ]" * 2000 + " .\n")
@example(PREFIXES + CLASSES + "d:Project rdfs:subClassOf " + "( " * 2000 + "1" + " _:l1 )" * 2000 + " .\n")
def test_every_command_ends_in_an_exit_code(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.ttl")
        Path(path).write_text(document, encoding="utf-8")
        for argv in commands(path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in ({0, 1, 2, 3} if may_exit_1(argv) else {0, 2, 3}), argv
            assert "Traceback" not in err.getvalue()
