"""The bytes of `convert` and `validate --format json` on a seeded corpus, and of
`docgen` on the bundled ontology, pinned.

The corpus comes from perfbench/corpus.py (`support.load_corpus_module`). A
change to the lexer, the parser, the index, the writer, the validator, the
schema or the documentation generator that moves a single output byte fails
here; one that is meant to must name the contract it changes and update the
hashes.
"""

from __future__ import annotations

import hashlib

import pytest

from dingotk.cli import run

from support import load_corpus_module

SEED, TRIPLES = 17, 20_000

# sha1 of each output, computed with the lexer, validator and writer that came
# before the ones this test was added with
CONVERT_SHA1 = "50d401e866f63c9717aa33bdb3ee196db2b696fc"
VALIDATE_JSON_SHA1 = "0ddbf3e92331a0072888d2e46a17c409ed2b4ec7"
# computed with the schema that still copied property domains, ranges and
# superproperties for the documentation generator
DOCGEN_SHA1 = "ebe3339cc5b3f11e820ae357241e945480029461"


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    model = load_corpus_module().generate_corpus(SEED, TRIPLES)
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


def test_bundled_docgen_bytes_are_pinned(capsys):
    assert run(["docgen"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha1(captured.out) == DOCGEN_SHA1
