"""dingotk: a linked-data toolkit for the DINGO research-funding ontology.

The public names below are exported lazily (PEP 562): ``import dingotk``
loads no submodule, and each name imports its module on first use, so a
program pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package exports from it; every submodule
# listed is also reachable as an attribute (``dingotk.shapes``)
_EXPORTS = {
    "terms": ("BlankNode", "DingoError", "Graph", "IRI", "Literal", "Term", "Triple"),
    "turtle": ("TurtleParseError", "parse_turtle", "serialize_turtle"),
    "isomorphism": ("BlankNodeLimitError", "graph_isomorphic"),
    "ontology": (
        "DINGO_BASE", "DingoTerms", "Mapping", "OntologySchema", "SubclassCycleError",
        "load_ontology",
    ),
    "queries": (
        "FundingLink", "Participation", "SchemeCycleError", "TemporalViolation",
        "UntypedNodeWarning", "beneficiaries_of", "check_temporal", "criteria_for_scheme",
        "funding_links", "grants_funding_project", "non_beneficiary_participants",
        "participants_with_roles", "projects_funded_by", "scheme_ancestry",
    ),
    "shapes": (
        "Shape", "ShapeSchema", "TripleConstraint", "ValidationReport", "ValueCheck",
        "default_dingo_shapes", "parse_shapes", "validate",
    ),
    "ingest": ("MappingSpec", "ingest_table", "mint_iri", "parse_mapping"),
    "docgen": ("DocModel", "extract_doc_model", "render_html"),
    "dates": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule also binds it here, so this runs once per name
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
