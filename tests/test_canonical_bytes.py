"""The bytes of `convert` and `validate --format json` on a seeded corpus, pinned.

The corpus comes from perfbench/corpus.py, loaded read-only from its file so
the benchmark's package is neither imported nor changed. A change to the
lexer, the parser, the index, the writer or the validator that moves a single
output byte fails here; one that is meant to must name the contract it
changes and update the hashes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dingotk.cli import run

CORPUS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
SEED, TRIPLES = 17, 20_000

# sha1 of each output, computed with the lexer, validator and writer that came
# before the ones this test was added with
CONVERT_SHA1 = "50d401e866f63c9717aa33bdb3ee196db2b696fc"
VALIDATE_JSON_SHA1 = "0ddbf3e92331a0072888d2e46a17c409ed2b4ec7"


def _load_corpus_module():
    name = "_bench_corpus"
    spec = importlib.util.spec_from_file_location(name, CORPUS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class bodies run
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    model = _load_corpus_module().generate_corpus(SEED, TRIPLES)
    assert len(model.triples) >= TRIPLES
    path = tmp_path_factory.mktemp("corpus") / "corpus.ttl"
    path.write_text(model.text, encoding="utf-8")
    return path


def _sha1(data: str) -> str:
    return hashlib.sha1(data.encode("utf-8")).hexdigest()


def test_convert_bytes_are_pinned(corpus_file, tmp_path):
    out = tmp_path / "canon.ttl"
    assert run(["convert", str(corpus_file), "--out", str(out)]) == 0
    assert _sha1(out.read_text("utf-8")) == CONVERT_SHA1


def test_validate_json_bytes_are_pinned(corpus_file, capsys):
    code = run(["validate", str(corpus_file), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")  # the corpus carries injected defects
    assert _sha1(captured.out) == VALIDATE_JSON_SHA1
