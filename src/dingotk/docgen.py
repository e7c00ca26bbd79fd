"""Extract a documentation model from an OWL graph and render it as HTML.

The model carries classes, properties, individuals, annotations, axioms and
namespaces. The schema names the terms, property kinds and mappings; all else
is read from the graph, each relation through one (relation, predicate) table
per kind of entry, named targets before anonymous ones. Rendering produces
one self-contained HTML5 document with a table of contents, one section per
term and intra-document links wherever the target term is itself documented.
Output bytes are a pure function of the model, which keeps golden-file tests
honest.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from typing import Optional

from .ontology import (
    MAPPING_PREDICATES,
    OntologySchema,
    OWL_EQUIVALENT_CLASS,
    OWL_EQUIVALENT_PROPERTY,
    OWL_NS,
    RDFS_COMMENT,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASS_OF,
    RDFS_SUBPROPERTY_OF,
)
from .terms import (
    BlankNode,
    DCT_NS,
    Graph,
    IRI,
    Literal,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    Term,
    term_sort_key,
)
from .turtle import term_renderer

DCT_TITLE = IRI(DCT_NS + "title")
DCT_DESCRIPTION = IRI(DCT_NS + "description")
OWL_VERSION_INFO = IRI(OWL_NS + "versionInfo")

_AXIOM_KINDS = {
    RDFS_SUBCLASS_OF: "subclass-of",
    RDFS_SUBPROPERTY_OF: "subproperty-of",
    OWL_EQUIVALENT_CLASS: "equivalent-class",
    OWL_EQUIVALENT_PROPERTY: "equivalent-property",
    RDFS_DOMAIN: "domain",
    RDFS_RANGE: "range",
}

# predicates an entry shows in its own rows, so not again as annotations
_STRUCTURAL_PREDICATES = {RDF_TYPE, RDFS_LABEL, RDFS_COMMENT} | set(_AXIOM_KINDS) | set(MAPPING_PREDICATES)

# (relation, predicate) of the rows each kind of entry reads from the graph
_CLASS_RELATIONS = (("superclass", RDFS_SUBCLASS_OF),)
_PROPERTY_RELATIONS = (
    ("domain", RDFS_DOMAIN),
    ("range", RDFS_RANGE),
    ("superproperty", RDFS_SUBPROPERTY_OF),
)


@dataclass(frozen=True)
class OntologyHeader:
    iri: Optional[str]
    title: str
    version: str
    description: str


@dataclass
class DocEntry:
    iri: IRI
    anchor: str
    kind: str  # class / object-property / datatype-property / annotation-property / individual
    labels: list = field(default_factory=list)  # (text, language)
    comments: list = field(default_factory=list)
    relations: list = field(default_factory=list)  # (relation name, IRI or pretty text)
    annotations: list = field(default_factory=list)  # (predicate IRI, rendered text, IRI or None)


@dataclass(frozen=True)
class AxiomEntry:
    kind: str
    subject: IRI
    object_text: str
    object_iri: Optional[IRI]  # set when the object is a plain IRI


@dataclass
class DocModel:
    header: OntologyHeader
    class_entries: list
    property_entries: list
    individual_entries: list
    axiom_entries: list
    namespaces: list  # (prefix, iri)


def local_name(iri: IRI) -> str:
    return re.split(r"[#/]", iri.value.rstrip("#/"))[-1]


def _blank_layout(g: Graph, node: BlankNode, render) -> tuple:
    """(brackets, separator, children) for one anonymous node.

    An RDF collection lists its elements; any other node lists its
    predicate-object pairs. A child is (text before it, term).
    """
    if g.objects(node, RDF_FIRST) and g.objects(node, RDF_REST):
        elements = []
        cells: set = set()
        current: Term = node
        while isinstance(current, BlankNode) and current not in cells:
            cells.add(current)
            heads = g.objects(current, RDF_FIRST)
            if not heads:
                break
            elements.append(("", heads[0]))
            current = g.value(current, RDF_REST) or RDF_NIL
        return "()", " ", iter(elements)
    pairs = [
        ("a " if t.predicate == RDF_TYPE else render(t.predicate) + " ", t.object)
        for t in g.match(node, None, None)
    ]
    return "[]", " ; ", iter(pairs)


def _pretty_blank(g: Graph, node: BlankNode, render) -> str:
    """Inline Turtle-ish rendering of an anonymous node structure.

    One walk over an explicit stack, so depth is bounded by memory only. A
    node already on the current path renders as its label, which ends
    cycles; a node shared by siblings renders in full each time.
    """
    path = {node}
    stack = [(node, "", *_blank_layout(g, node, render), [])]
    while True:
        node, before, brackets, separator, children, parts = stack[-1]
        for child_before, term in children:
            if not isinstance(term, BlankNode):
                parts.append(child_before + render(term))
            elif term in path:
                parts.append(f"{child_before}_:{term.label}")
            else:
                path.add(term)
                stack.append((term, child_before, *_blank_layout(g, term, render), []))
                break
        else:
            stack.pop()
            path.remove(node)
            text = f"{before}{brackets[0]} {separator.join(parts)} {brackets[1]}"
            if not stack:
                return text
            stack[-1][-1].append(text)


def _first_literal(g: Graph, subject: Term, *predicates: IRI) -> str:
    literals = (o for p in predicates for o in g.objects(subject, p) if isinstance(o, Literal))
    return next((o.lexical for o in literals), "")


def _texts(g: Graph, subject: Term, predicate: IRI) -> list:
    """(lexical, language) of each literal object, by text, then untagged
    before tagged, then by tag."""
    pairs = [(o.lexical, o.language) for o in g.objects(subject, predicate) if isinstance(o, Literal)]
    return sorted(pairs, key=lambda pair: (pair[0], pair[1] or ""))


def extract_doc_model(g: Graph, schema: OntologySchema) -> DocModel:
    """One documentation entry per registered class/property, plus
    individuals typed by registered classes, structured axioms, and the
    document's namespaces."""
    render = term_renderer(g.prefixes)

    def pretty(node: BlankNode) -> str:
        return _pretty_blank(g, node, render)

    onto = schema.ontology_iri
    header = OntologyHeader(
        iri=onto.value if onto else None,
        title=_first_literal(g, onto, DCT_TITLE, RDFS_LABEL) if onto else "",
        version=_first_literal(g, onto, OWL_VERSION_INFO) if onto else "",
        description=_first_literal(g, onto, DCT_DESCRIPTION, RDFS_COMMENT) if onto else "",
    )

    def shown(o: Term) -> tuple:
        """(text, IRI or None) of an object; only an IRI links."""
        if isinstance(o, BlankNode):
            return pretty(o), None
        return render(o), o if isinstance(o, IRI) else None

    def relation_rows(iri: IRI, table: tuple, info) -> list:
        """The rows of each (relation, predicate) of table, named targets
        before anonymous ones, then the mappings of the schema entry info."""
        rows = [
            (name, o if isinstance(o, IRI) else pretty(o))
            for name, predicate in table
            for o in g.objects(iri, predicate)
            if not isinstance(o, Literal)
        ]
        return rows + [(m.kind, m.target) for m in info.mappings]

    used_anchors: set = set()

    def new_entry(iri: IRI, prefix: str, kind: str, relations: list) -> DocEntry:
        """The entry for iri; anchors are handed out in call order."""
        base = prefix + "-" + re.sub(r"[^A-Za-z0-9_-]", "-", local_name(iri))
        anchor = base
        counter = 2
        while anchor in used_anchors:
            anchor = f"{base}-{counter}"
            counter += 1
        used_anchors.add(anchor)
        return DocEntry(
            iri=iri,
            anchor=anchor,
            kind=kind,
            labels=_texts(g, iri, RDFS_LABEL),
            comments=_texts(g, iri, RDFS_COMMENT),
            relations=relations,
            annotations=[
                (t.predicate, *shown(t.object))
                for t in g.match(iri, None, None)
                if t.predicate not in _STRUCTURAL_PREDICATES
            ],
        )

    class_entries = [
        new_entry(iri, "class", "class", relation_rows(iri, _CLASS_RELATIONS, info))
        for iri, info in sorted(schema.classes.items(), key=lambda item: term_sort_key(item[0]))
    ]
    property_entries = [
        new_entry(iri, "prop", info.kind or "property", relation_rows(iri, _PROPERTY_RELATIONS, info))
        for iri, info in sorted(schema.properties.items(), key=lambda item: term_sort_key(item[0]))
    ]

    typed = {
        t.subject
        for t in g.find(None, RDF_TYPE, None)
        if isinstance(t.subject, IRI) and t.object in schema.classes
    }
    individual_entries = []
    for iri in sorted(typed - schema.classes.keys() - schema.properties.keys(), key=term_sort_key):
        types = [("type", o) for o in g.objects(iri, RDF_TYPE) if isinstance(o, IRI)]
        individual_entries.append(new_entry(iri, "ind", "individual", types))

    axiom_entries = sorted(
        (
            AxiomEntry(kind, t.subject, *shown(t.object))
            for predicate, kind in _AXIOM_KINDS.items()
            for t in g.find(None, predicate, None)
            if isinstance(t.subject, IRI) and not isinstance(t.object, Literal)
        ),
        key=lambda a: (term_sort_key(a.subject), a.kind, a.object_text),
    )

    return DocModel(
        header=header,
        class_entries=class_entries,
        property_entries=property_entries,
        individual_entries=individual_entries,
        axiom_entries=axiom_entries,
        namespaces=sorted(g.prefixes.items()),
    )


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       line-height: 1.5; color: #1a1a1a; }
h1, h2, h3 { font-weight: 600; }
h2 { border-bottom: 2px solid #e0e0e0; padding-bottom: .3rem; margin-top: 2.5rem; }
code, .iri { font-family: ui-monospace, monospace; font-size: .9em; color: #444; }
section.entry { border-left: 3px solid #e8e8e8; padding-left: 1rem; margin: 1.5rem 0; }
dl { display: grid; grid-template-columns: 11rem 1fr; gap: .2rem .8rem; }
dt { font-weight: 600; color: #555; }
dd { margin: 0; }
.lang { color: #888; font-size: .85em; }
nav ul { columns: 2; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ddd; padding: .3rem .6rem; text-align: left; }
"""


def _esc(text: str) -> str:
    return html.escape(text, quote=True)


# an entry is named by its first label in this language, else its first label
_DISPLAY_LANGUAGE = "en"


def _display_name(entry: DocEntry) -> str:
    for text, language in entry.labels:
        if language == _DISPLAY_LANGUAGE:
            return text
    return entry.labels[0][0] if entry.labels else local_name(entry.iri)


def _labeled_values(pairs: list) -> str:
    """(text, language) pairs, each tag after its text."""
    return "; ".join(
        _esc(text) + (f' <span class="lang">({_esc(language)})</span>' if language else "")
        for text, language in pairs
    )


class _HtmlWriter:
    def __init__(self, model: DocModel) -> None:
        self.model = model
        # (heading, anchor, entries) of each entry section, in document order
        self.sections = (
            ("Classes", "classes", model.class_entries),
            ("Properties", "properties", model.property_entries),
            ("Individuals", "individuals", model.individual_entries),
        )
        self.anchors = {entry.iri: entry.anchor for _, _, entries in self.sections for entry in entries}
        self.out: list = []

    def value(self, text: str, iri: Optional[IRI] = None) -> str:
        """text as a link to iri, in the page where iri is documented, or as
        code where there is no IRI."""
        label = _esc(text)
        if iri is None:
            return f"<code>{label}</code>"
        if iri in self.anchors:
            return f'<a href="#{self.anchors[iri]}">{label}</a>'
        return f'<a href="{_esc(iri.value)}" class="external">{label}</a>'

    def _entry(self, entry: DocEntry) -> None:
        name = _display_name(entry)
        self.out.append(f'<section class="entry" id="{entry.anchor}">')
        self.out.append(f"<h3>{_esc(name)}</h3>")
        self.out.append(f'<p class="iri"><code>{_esc(entry.iri.value)}</code> — {entry.kind}</p>')
        texts = (("Labels", entry.labels), ("Comments", entry.comments))
        rows = [(key, _labeled_values(pairs)) for key, pairs in texts if pairs]
        for relation, target in entry.relations:
            text, iri = (local_name(target), target) if isinstance(target, IRI) else (target, None)
            rows.append((relation, self.value(text, iri)))
        for predicate, text, target in entry.annotations:
            rows.append((local_name(predicate), self.value(text, target)))
        if rows:
            self.out.append("<dl>")
            for key, value in rows:
                self.out.append(f"<dt>{_esc(key)}</dt><dd>{value}</dd>")
            self.out.append("</dl>")
        self.out.append("</section>")

    def _table(self, anchor: str, heading: str, columns: tuple, rows: list) -> None:
        """A section of one table of rendered cells; no table where no rows."""
        self.out.append(f'<section id="{anchor}"><h2>{heading}</h2>')
        if rows:
            self.out.append("<table><tr>" + "".join(f"<th>{c}</th>" for c in columns) + "</tr>")
            self.out += ["<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows]
            self.out.append("</table>")
        self.out.append("</section>")

    def render(self) -> str:
        model = self.model
        title = model.header.title or "Ontology documentation"
        self.out.append("<!DOCTYPE html>")
        self.out.append('<html lang="en">')
        self.out.append("<head>")
        self.out.append('<meta charset="utf-8">')
        self.out.append(f"<title>{_esc(title)}</title>")
        self.out.append(f"<style>{_STYLE}</style>")
        self.out.append("</head>")
        self.out.append("<body>")
        self.out.append("<header>")
        self.out.append(f"<h1>{_esc(title)}</h1>")
        meta = []
        if model.header.iri:
            meta.append(f"<code>{_esc(model.header.iri)}</code>")
        if model.header.version:
            meta.append(f"version {_esc(model.header.version)}")
        if meta:
            self.out.append(f'<p class="iri">{" — ".join(meta)}</p>')
        if model.header.description:
            self.out.append(f"<p>{_esc(model.header.description)}</p>")
        self.out.append("</header>")

        self.out.append("<nav><h2>Contents</h2><ul>")
        for heading, anchor, entries in self.sections:
            self.out.append(f'<li><a href="#{anchor}">{heading}</a> ({len(entries)})')
            if entries:
                self.out.append("<ul>")
                for entry in entries:
                    self.out.append(f'<li><a href="#{entry.anchor}">{_esc(_display_name(entry))}</a></li>')
                self.out.append("</ul>")
            self.out.append("</li>")
        self.out.append(f'<li><a href="#axioms">Axioms</a> ({len(model.axiom_entries)})</li>')
        self.out.append(f'<li><a href="#namespaces">Namespaces</a> ({len(model.namespaces)})</li>')
        self.out.append("</ul></nav>")

        for heading, anchor, entries in self.sections:
            self.out.append(f'<section id="{anchor}"><h2>{heading}</h2>')
            for entry in entries:
                self._entry(entry)
            self.out.append("</section>")

        axioms = [
            (self.value(local_name(a.subject), a.subject), _esc(a.kind),
             self.value(a.object_text, a.object_iri))
            for a in model.axiom_entries
        ]
        self._table("axioms", "Axioms", ("Subject", "Axiom", "Object"), axioms)
        namespaces = [(self.value(prefix + ":"), self.value(ns)) for prefix, ns in model.namespaces]
        self._table("namespaces", "Namespaces", ("Prefix", "Namespace"), namespaces)

        self.out.append("</body>")
        self.out.append("</html>")
        return "\n".join(self.out) + "\n"


def render_html(model: DocModel) -> str:
    """Deterministic single-file HTML5 for a documentation model."""
    return _HtmlWriter(model).render()
