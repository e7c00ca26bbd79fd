"""Extract a documentation model from an OWL graph and render it as HTML.

The model carries classes, properties, individuals, annotations, axioms and
namespaces; rendering produces one self-contained HTML5 document with a table
of contents, one section per term and intra-document links wherever the
target term is itself documented. Output bytes are a pure function of the
model, which keeps golden-file tests honest.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from typing import Optional

from .ontology import (
    MAPPING_PREDICATES,
    OntologySchema,
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
OWL_ONTOLOGY_TYPE = IRI(OWL_NS + "Ontology")

_STRUCTURAL_PREDICATES = {
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_COMMENT,
    RDFS_SUBCLASS_OF,
    RDFS_SUBPROPERTY_OF,
    RDFS_DOMAIN,
    RDFS_RANGE,
} | set(MAPPING_PREDICATES)

_AXIOM_KINDS = {
    RDFS_SUBCLASS_OF: "subclass-of",
    RDFS_SUBPROPERTY_OF: "subproperty-of",
    IRI(OWL_NS + "equivalentClass"): "equivalent-class",
    IRI(OWL_NS + "equivalentProperty"): "equivalent-property",
    RDFS_DOMAIN: "domain",
    RDFS_RANGE: "range",
}


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
            rests = g.objects(current, RDF_REST)
            current = rests[0] if rests else RDF_NIL
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
    for predicate in predicates:
        for value in g.objects(subject, predicate):
            if isinstance(value, Literal):
                return value.lexical
    return ""


def extract_doc_model(g: Graph, schema: OntologySchema) -> DocModel:
    """One documentation entry per registered class/property, plus
    individuals typed by registered classes, structured axioms, and the
    document's namespaces."""
    render = term_renderer(g.prefixes)

    onto = schema.ontology_iri
    header = OntologyHeader(
        iri=onto.value if onto else None,
        title=_first_literal(g, onto, DCT_TITLE, RDFS_LABEL) if onto else "",
        version=_first_literal(g, onto, OWL_VERSION_INFO) if onto else "",
        description=_first_literal(g, onto, DCT_DESCRIPTION, RDFS_COMMENT) if onto else "",
    )

    used_anchors: set = set()

    def make_anchor(prefix: str, iri: IRI) -> str:
        base = prefix + "-" + re.sub(r"[^A-Za-z0-9_-]", "-", local_name(iri))
        anchor = base
        counter = 2
        while anchor in used_anchors:
            anchor = f"{base}-{counter}"
            counter += 1
        used_anchors.add(anchor)
        return anchor

    def other_annotations(iri: IRI) -> list:
        out = []
        for t in g.match(iri, None, None):
            if t.predicate in _STRUCTURAL_PREDICATES:
                continue
            if isinstance(t.object, BlankNode):
                out.append((t.predicate, _pretty_blank(g, t.object, render), None))
            else:
                target = t.object if isinstance(t.object, IRI) else None
                out.append((t.predicate, render(t.object), target))
        return out

    class_entries = []
    for iri in sorted(schema.classes, key=term_sort_key):
        info = schema.classes[iri]
        entry = DocEntry(iri=iri, anchor=make_anchor("class", iri), kind="class")
        entry.labels = list(info.labels)
        entry.comments = list(info.comments)
        for sup in sorted(info.direct_superclasses, key=term_sort_key):
            entry.relations.append(("superclass", sup))
        for blank in info.anonymous_superclasses:
            entry.relations.append(("superclass", _pretty_blank(g, blank, render)))
        for m in info.mappings:
            entry.relations.append((m.kind, m.target))
        entry.annotations = other_annotations(iri)
        class_entries.append(entry)

    property_entries = []
    for iri in sorted(schema.properties, key=term_sort_key):
        info = schema.properties[iri]
        entry = DocEntry(iri=iri, anchor=make_anchor("prop", iri), kind=info.kind or "property")
        entry.labels = list(info.labels)
        entry.comments = list(info.comments)
        for dom in sorted(info.domains, key=term_sort_key):
            entry.relations.append(("domain", dom))
        for rng in sorted(info.ranges, key=term_sort_key):
            entry.relations.append(("range", rng))
        for t in g.match(iri, RDFS_DOMAIN, None):
            if isinstance(t.object, BlankNode):
                entry.relations.append(("domain", _pretty_blank(g, t.object, render)))
        for t in g.match(iri, RDFS_RANGE, None):
            if isinstance(t.object, BlankNode):
                entry.relations.append(("range", _pretty_blank(g, t.object, render)))
        for sup in sorted(info.direct_superproperties, key=term_sort_key):
            entry.relations.append(("superproperty", sup))
        for blank in info.anonymous_superproperties:
            entry.relations.append(("superproperty", _pretty_blank(g, blank, render)))
        for m in info.mappings:
            entry.relations.append((m.kind, m.target))
        entry.annotations = other_annotations(iri)
        property_entries.append(entry)

    individual_entries = []
    documented = set(schema.classes) | set(schema.properties)
    for t in sorted(g.match(None, RDF_TYPE, None), key=lambda t: term_sort_key(t.subject)):
        subject = t.subject
        if not isinstance(subject, IRI) or subject in documented:
            continue
        if not isinstance(t.object, IRI) or t.object not in schema.classes:
            continue
        documented.add(subject)
        entry = DocEntry(iri=subject, anchor=make_anchor("ind", subject), kind="individual")
        entry.labels = sorted(
            (o.lexical, o.language) for o in g.objects(subject, RDFS_LABEL) if isinstance(o, Literal)
        )
        entry.comments = sorted(
            (o.lexical, o.language)
            for o in g.objects(subject, RDFS_COMMENT)
            if isinstance(o, Literal)
        )
        for declared in g.objects(subject, RDF_TYPE):
            if isinstance(declared, IRI):
                entry.relations.append(("type", declared))
        entry.annotations = other_annotations(subject)
        individual_entries.append(entry)

    axiom_entries = []
    for predicate, kind in _AXIOM_KINDS.items():
        for t in g.match(None, predicate, None):
            if not isinstance(t.subject, IRI):
                continue
            if isinstance(t.object, IRI):
                axiom_entries.append(AxiomEntry(kind, t.subject, render(t.object), t.object))
            elif isinstance(t.object, BlankNode):
                axiom_entries.append(AxiomEntry(kind, t.subject, _pretty_blank(g, t.object, render), None))
    axiom_entries.sort(key=lambda a: (term_sort_key(a.subject), a.kind, a.object_text))

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
    if entry.labels:
        return entry.labels[0][0]
    return local_name(entry.iri)


class _HtmlWriter:
    def __init__(self, model: DocModel) -> None:
        self.model = model
        self.anchors = {}
        for entry in model.class_entries + model.property_entries + model.individual_entries:
            self.anchors[entry.iri] = entry.anchor
        self.out: list = []

    def link(self, iri: IRI, text: Optional[str] = None) -> str:
        label = _esc(text if text is not None else iri.value)
        if iri in self.anchors:
            return f'<a href="#{self.anchors[iri]}">{label}</a>'
        return f'<a href="{_esc(iri.value)}" class="external">{label}</a>'

    def _labeled_values(self, pairs: list) -> str:
        rendered = []
        for text, language in pairs:
            tag = f' <span class="lang">({_esc(language)})</span>' if language else ""
            rendered.append(f"{_esc(text)}{tag}")
        return "; ".join(rendered)

    def _entry(self, entry: DocEntry) -> None:
        name = _display_name(entry)
        self.out.append(f'<section class="entry" id="{entry.anchor}">')
        self.out.append(f"<h3>{_esc(name)}</h3>")
        self.out.append(f'<p class="iri"><code>{_esc(entry.iri.value)}</code> — {entry.kind}</p>')
        rows = []
        if entry.labels:
            rows.append(("Labels", self._labeled_values(entry.labels)))
        if entry.comments:
            rows.append(("Comments", self._labeled_values(entry.comments)))
        for relation, target in entry.relations:
            if isinstance(target, IRI):
                rows.append((relation, self.link(target, local_name(target))))
            else:
                rows.append((relation, f"<code>{_esc(target)}</code>"))
        for predicate, text, target in entry.annotations:
            value = self.link(target, text) if target is not None else f"<code>{_esc(text)}</code>"
            rows.append((local_name(predicate), value))
        if rows:
            self.out.append("<dl>")
            for key, value in rows:
                self.out.append(f"<dt>{_esc(key)}</dt><dd>{value}</dd>")
            self.out.append("</dl>")
        self.out.append("</section>")

    def _toc_group(self, title: str, anchor: str, entries: list) -> None:
        self.out.append(
            f'<li><a href="#{anchor}">{_esc(title)}</a> ({len(entries)})'
        )
        if entries:
            self.out.append("<ul>")
            for entry in entries:
                name = _display_name(entry)
                self.out.append(f'<li><a href="#{entry.anchor}">{_esc(name)}</a></li>')
            self.out.append("</ul>")
        self.out.append("</li>")

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
        self._toc_group("Classes", "classes", model.class_entries)
        self._toc_group("Properties", "properties", model.property_entries)
        self._toc_group("Individuals", "individuals", model.individual_entries)
        self.out.append(f'<li><a href="#axioms">Axioms</a> ({len(model.axiom_entries)})</li>')
        self.out.append(f'<li><a href="#namespaces">Namespaces</a> ({len(model.namespaces)})</li>')
        self.out.append("</ul></nav>")

        self.out.append('<section id="classes"><h2>Classes</h2>')
        for entry in model.class_entries:
            self._entry(entry)
        self.out.append("</section>")

        self.out.append('<section id="properties"><h2>Properties</h2>')
        for entry in model.property_entries:
            self._entry(entry)
        self.out.append("</section>")

        self.out.append('<section id="individuals"><h2>Individuals</h2>')
        for entry in model.individual_entries:
            self._entry(entry)
        self.out.append("</section>")

        self.out.append('<section id="axioms"><h2>Axioms</h2>')
        if model.axiom_entries:
            self.out.append("<table><tr><th>Subject</th><th>Axiom</th><th>Object</th></tr>")
            for axiom in model.axiom_entries:
                subject = self.link(axiom.subject, local_name(axiom.subject))
                if axiom.object_iri is not None:
                    obj = self.link(axiom.object_iri, axiom.object_text)
                else:
                    obj = f"<code>{_esc(axiom.object_text)}</code>"
                self.out.append(
                    f"<tr><td>{subject}</td><td>{_esc(axiom.kind)}</td><td>{obj}</td></tr>"
                )
            self.out.append("</table>")
        self.out.append("</section>")

        self.out.append('<section id="namespaces"><h2>Namespaces</h2>')
        if model.namespaces:
            self.out.append("<table><tr><th>Prefix</th><th>Namespace</th></tr>")
            for prefix, namespace in model.namespaces:
                self.out.append(
                    f"<tr><td><code>{_esc(prefix)}:</code></td>"
                    f"<td><code>{_esc(namespace)}</code></td></tr>"
                )
            self.out.append("</table>")
        self.out.append("</section>")

        self.out.append("</body>")
        self.out.append("</html>")
        return "\n".join(self.out) + "\n"


def render_html(model: DocModel) -> str:
    """Deterministic single-file HTML5 for a documentation model."""
    return _HtmlWriter(model).render()
