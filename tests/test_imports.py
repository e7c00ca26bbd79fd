"""Import boundaries: `import dingotk` loads no submodule, each CLI command
loads only the modules it runs, no module reaches into a sibling's private
names or imports a name it never uses, only `terms` reads a graph's index
layout or spells the name forms and the position arithmetic, the shape and
mapping readers compile no pattern at import, only `turtle` expands prefixed
names or resolves relative IRIs, and no regex literal ends in a "$" anchor.

The subprocess checks start fresh interpreters, because this test process
has long since imported every module.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dingotk
from dingotk.terms import DECLARED_NAME, LANGUAGE_TAG, PREFIX_NAME

SRC = Path(dingotk.__file__).resolve().parents[1]
DATA = SRC / "dingotk" / "data"
# what `import dingotk.cli` may load, and so every command too
CLI_BASE = {"dingotk", "dingotk.cli", "dingotk.ontology", "dingotk.terms", "dingotk.turtle"}


def loaded_after(code: str) -> set:
    """The dingotk modules a fresh interpreter holds after running `code`."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'dingotk')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_dingotk_loads_no_submodule():
    assert loaded_after("import dingotk") == {"dingotk"}


def test_submodules_are_attributes_after_a_bare_import():
    code = (
        "import sys, dingotk\n"
        "assert dingotk.shapes is sys.modules['dingotk.shapes']\n"
        "assert dingotk.dates is sys.modules['dingotk.dates']\n"
        "assert dingotk.turtle.parse_turtle is dingotk.parse_turtle"
    )
    assert {"dingotk.shapes", "dingotk.dates", "dingotk.turtle"} <= loaded_after(code)


def test_import_cli_loads_only_what_every_command_needs():
    assert loaded_after("import dingotk.cli") == CLI_BASE


EXAMPLE = str(DATA / "example_instances.ttl")


@pytest.mark.parametrize(
    "argv, own",
    [
        pytest.param(["stats"], set(), id="stats"),
        pytest.param(["convert", EXAMPLE], set(), id="convert"),
        pytest.param(["validate", EXAMPLE], {"dingotk.shapes"}, id="validate"),
        pytest.param(
            ["ingest", str(DATA / "example_grants.csv"), "--mapping", str(DATA / "example_grants.mapping")],
            {"dingotk.ingest", "dingotk.dates"},
            id="ingest",
        ),
        pytest.param(
            ["query", "grants-of", EXAMPLE, "--node", "http://example.org/data/project-qsense"],
            {"dingotk.queries", "dingotk.dates"},
            id="query-grants-of",
        ),
        pytest.param(
            ["query", "temporal-check", EXAMPLE], {"dingotk.queries", "dingotk.dates"}, id="query-temporal-check"
        ),
        pytest.param(["docgen"], {"dingotk.docgen"}, id="docgen"),
    ],
)
def test_each_command_loads_only_its_own_modules(argv, own):
    # the console-script entry, with the command's output thrown away
    code = (
        "import contextlib, io, sys\n"
        "from dingotk.cli import main\n"
        f"sys.argv = ['dingotk', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        main()\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
    )
    assert loaded_after(code) == CLI_BASE | own


def test_every_exported_name_is_the_object_its_module_defines():
    for name in dingotk.__all__:
        module = importlib.import_module("dingotk." + dingotk._MODULE_OF[name])
        assert getattr(dingotk, name) is getattr(module, name), name


def test_star_import_binds_all_exports():
    namespace: dict = {}
    exec("from dingotk import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(dingotk.__all__)
    assert all(namespace[name] is getattr(dingotk, name) for name in dingotk.__all__)


def test_dir_lists_exports_and_submodules():
    listed = dir(dingotk)
    assert set(dingotk.__all__) <= set(listed)
    assert {"__version__", "shapes", "queries", "docgen", "ingest"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_names_raise_the_standard_errors():
    with pytest.raises(AttributeError, match=r"^module 'dingotk' has no attribute 'no_such_name'$"):
        dingotk.no_such_name  # noqa: B018
    assert not hasattr(dingotk, "no_such_name")
    with pytest.raises(ImportError, match=r"^cannot import name 'no_such_name' from 'dingotk'"):
        exec("from dingotk import no_such_name", {})


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_sibling_uses(source: str) -> list:
    """`_private` names that the source takes from another dingotk module.

    Both forms count: `from .terms import _x` and `from . import terms`
    followed by `terms._x`.
    """
    found = []
    siblings = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "dingotk"
        ):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif not node.module or node.module == "dingotk":
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _is_private(node.attr)
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_the_private_name_check_sees_both_forms():
    source = (
        "from .terms import IRI, _checked_prefixes\n"
        "from . import ingest\n"
        "from dingotk.turtle import __doc__\n"
        "rows = ingest._MappingParser\n"
        "own = _local\n"
    )
    assert private_sibling_uses(source) == [
        "line 1: imports _checked_prefixes",
        "line 4: reads ingest._MappingParser",
    ]


@pytest.mark.parametrize("path", sorted((SRC / "dingotk").glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_a_private_name_of_a_sibling(path):
    assert private_sibling_uses(path.read_text("utf-8")) == []


# the members of `terms.Graph` that hold or read its index layout
GRAPH_LAYOUT = {"_spo", "_pos", "_lookup", "_len"}


def graph_layout_reads(source: str) -> list:
    """Attribute reads of Graph's layout members, on any object."""
    return [
        f"line {node.lineno}: reads .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in GRAPH_LAYOUT
    ]


def test_the_layout_check_sees_attribute_reads_on_any_object():
    source = "g._lookup(s, None, None)\nn = data._len\nother._spo.get(s)\n_pos = 1\n"
    assert sorted(graph_layout_reads(source)) == [
        "line 1: reads ._lookup",
        "line 2: reads ._len",
        "line 3: reads ._spo",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "dingotk").glob("*.py") if p.name != "terms.py"), ids=lambda p: p.name
)
def test_only_terms_reads_the_graph_index_layout(path):
    assert graph_layout_reads(path.read_text("utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "dingotk").glob("*.py") if p.name != "terms.py"), ids=lambda p: p.name
)
def test_only_terms_spells_the_name_forms_and_the_position_arithmetic(path):
    # readers embed the `.pattern` of `PREFIX_NAME`, `LANGUAGE_TAG` and
    # `DECLARED_NAME`, and call `line_and_column`
    source = path.read_text("utf-8")
    for text in (PREFIX_NAME.pattern, LANGUAGE_TAG.pattern, DECLARED_NAME.pattern, 'rfind("\\n"'):
        assert text not in source


def module_level_compiles(source: str) -> list:
    """Calls to `re.compile` that run when the module is imported: outside
    every function body."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compile"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
        ):
            found.append(f"line {node.lineno}: re.compile")
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_the_compile_check_sees_module_and_class_level_calls_only():
    source = (
        "import re\n"
        "A = re.compile('a')\n"
        "class C:\n"
        "    B = {'b': re.compile('b')}\n"
        "    def f(self):\n"
        "        return re.compile('c')\n"
        "g = lambda: re.compile('d')\n"
    )
    assert sorted(module_level_compiles(source)) == ["line 2: re.compile", "line 4: re.compile"]


@pytest.mark.parametrize("name", ["shapes.py", "ingest.py"])
def test_the_shape_and_mapping_readers_compile_no_pattern_at_import(name):
    # they read Turtle's tokens, whose pattern `turtle` compiles
    assert module_level_compiles((SRC / "dingotk" / name).read_text("utf-8")) == []


# what resolves an IRI token: `turtle.TokenReader._resolve` alone calls them
RESOLVERS = {"expand_name", "urljoin"}


def resolver_calls(source: str) -> list:
    """Calls of `expand_name` or `urljoin`, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RESOLVERS:
                found.append(f"line {node.lineno}: calls {name}")
    return found


def test_the_resolver_check_sees_bare_and_attribute_calls():
    source = (
        "from urllib.parse import urljoin\n"
        "from . import terms\n"
        "a = urljoin(base, raw)\n"
        "b = terms.expand_name(name, prefixes)\n"
        "c = expand_name\n"
        "d = urllib.parse.urljoin(x, y)\n"
    )
    assert resolver_calls(source) == [
        "line 3: calls urljoin",
        "line 4: calls expand_name",
        "line 6: calls urljoin",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "dingotk").glob("*.py") if p.name != "turtle.py"), ids=lambda p: p.name
)
def test_only_turtle_resolves_iris(path):
    # the three readers expand prefixed names and resolve relative IRIs in
    # one place, so each reads a name or IRI as the others do
    assert resolver_calls(path.read_text("utf-8")) == []


def unused_imports(source: str) -> list:
    """Names the source imports and never reads; `from __future__` is exempt.

    A read is any load of the bound name, attribute chains included, so
    `import os.path` counts as used by `os.sep`.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: imports {name}" for line, name in bound if name not in read]


def test_the_unused_import_check_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "from .terms import IRI, Literal as L, Graph\n"
        "def f(g: Graph) -> None:\n"
        "    from . import shapes\n"
        "    return os.sep, IRI\n"
    )
    assert unused_imports(source) == [
        "line 2: imports json",
        "line 3: imports L",
        "line 5: imports shapes",
    ]


@pytest.mark.parametrize("path", sorted((SRC / "dingotk").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text("utf-8")) == []


def dollar_anchored_patterns(source: str) -> list:
    """Pattern literals given to an `re` function that end in an unescaped "$".

    "$" also matches before a final newline, so a whole-string check is
    spelled `fullmatch` with no anchors. The literal read is the pattern
    argument itself, the last operand of a `+` concatenation, or the last
    piece of an f-string.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.args
        ):
            continue
        tail = node.args[0]
        while isinstance(tail, ast.BinOp) and isinstance(tail.op, ast.Add):
            tail = tail.right
        if isinstance(tail, ast.JoinedStr) and tail.values:
            tail = tail.values[-1]
        if not (isinstance(tail, ast.Constant) and isinstance(tail.value, str)):
            continue
        body = tail.value
        # an even run of backslashes before the "$" escapes only itself
        if body.endswith("$") and (len(body) - 1 - len(body[:-1].rstrip("\\"))) % 2 == 0:
            found.append(f"line {node.lineno}: re.{node.func.attr} pattern ends in '$'")
    return found


def test_the_dollar_check_sees_compiled_matched_and_concatenated_patterns():
    source = (
        'A = re.compile(r"^a+$")\n'
        'B = re.match(r"^[a-z]+$", s)\n'
        'C = re.compile(r"^entity\\s+(" + _IRI + r")\\s*\\{$")\n'
        'D = re.compile(rf"{x}$", re.VERBOSE)\n'
        'E = re.compile(r"a\\$")\n'
        'F = re.fullmatch(r"[a-z]+", s)\n'
        'G = re.search(r"a\\\\$", s)\n'
        'H = re.compile(_NAME)\n'
    )
    assert dollar_anchored_patterns(source) == [
        "line 1: re.compile pattern ends in '$'",
        "line 2: re.match pattern ends in '$'",
        "line 3: re.compile pattern ends in '$'",
        "line 4: re.compile pattern ends in '$'",
        "line 7: re.search pattern ends in '$'",
    ]


@pytest.mark.parametrize("path", sorted((SRC / "dingotk").glob("*.py")), ids=lambda p: p.name)
def test_no_pattern_ends_in_a_dollar_anchor(path):
    assert dollar_anchored_patterns(path.read_text("utf-8")) == []
