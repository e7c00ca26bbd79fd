"""Ontology schema registry: classes, properties, hierarchy and mappings.

load_ontology digests an OWL/RDFS graph into an OntologySchema that the
validator, query and documentation layers share: the classes and properties,
the named class hierarchy, property kinds and mappings. Labels, comments,
domains, ranges, superproperties and anonymous targets stay in the graph,
where docgen reads them. Schemas are read-only after loading; concurrent
readers are safe. `subclasses_of` fills one set per class on first use and
keeps it; two threads that race store equal sets and either one is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .terms import (
    DingoError,
    Graph,
    IRI,
    OWL_NS,
    RDFS_NS,
    RDF_TYPE,
    SKOS_NS,
    term_sort_key,
    triple_sort_key,
)

DINGO_BASE = "https://w3id.org/dingo#"

OWL_ONTOLOGY = IRI(OWL_NS + "Ontology")
OWL_CLASS = IRI(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = IRI(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = IRI(OWL_NS + "DatatypeProperty")
OWL_ANNOTATION_PROPERTY = IRI(OWL_NS + "AnnotationProperty")
OWL_EQUIVALENT_CLASS = IRI(OWL_NS + "equivalentClass")
OWL_EQUIVALENT_PROPERTY = IRI(OWL_NS + "equivalentProperty")
RDFS_SUBCLASS_OF = IRI(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTY_OF = IRI(RDFS_NS + "subPropertyOf")
RDFS_DOMAIN = IRI(RDFS_NS + "domain")
RDFS_RANGE = IRI(RDFS_NS + "range")
RDFS_LABEL = IRI(RDFS_NS + "label")
RDFS_COMMENT = IRI(RDFS_NS + "comment")

MAPPING_PREDICATES = {
    IRI(SKOS_NS + "exactMatch"): "skos-exact",
    IRI(SKOS_NS + "closeMatch"): "skos-close",
    IRI(SKOS_NS + "broadMatch"): "skos-broad",
    IRI(SKOS_NS + "narrowMatch"): "skos-narrow",
    IRI(SKOS_NS + "relatedMatch"): "skos-related",
    OWL_EQUIVALENT_CLASS: "owl-equivalent-class",
    OWL_EQUIVALENT_PROPERTY: "owl-equivalent-property",
}

PROPERTY_KINDS = {
    OWL_OBJECT_PROPERTY: "object-property",
    OWL_DATATYPE_PROPERTY: "datatype-property",
    OWL_ANNOTATION_PROPERTY: "annotation-property",
}


class UnknownClassError(DingoError):
    pass


class UnknownTermError(DingoError):
    pass


class SubclassCycleError(DingoError):
    def __init__(self, members: Iterable[IRI]) -> None:
        self.members = tuple(sorted(members, key=term_sort_key))
        names = ", ".join(m.value for m in self.members)
        super().__init__(f"strict subclass cycle among: {names}")


class PropertyKindConflictError(DingoError):
    pass


@dataclass(frozen=True)
class Mapping:
    kind: str
    target: IRI


@dataclass
class ClassInfo:
    iri: IRI
    direct_superclasses: set = field(default_factory=set)
    mappings: list = field(default_factory=list)
    declared: bool = False


@dataclass
class PropertyInfo:
    iri: IRI
    kind: Optional[str] = None  # object- / datatype- / annotation-property
    mappings: list = field(default_factory=list)
    declared: bool = False


@dataclass(frozen=True)
class OntologyStats:
    class_count: int
    property_count: int
    namespace_count: int
    own_namespace: Optional[str]
    counting_rule: str


COUNTING_RULE = (
    "named IRIs declared owl:Class (classes) or owl:ObjectProperty/"
    "owl:DatatypeProperty/owl:AnnotationProperty (properties) whose IRI "
    "starts with the ontology IRI; blank nodes and external terms excluded"
)


class OntologySchema:
    """Registry of an ontology's classes and properties."""

    def __init__(
        self,
        classes: dict,
        properties: dict,
        namespaces: dict,
        ontology_iri: Optional[IRI] = None,
    ) -> None:
        self.classes = classes
        self.properties = properties
        self.namespaces = namespaces
        self.ontology_iri = ontology_iri
        # parent -> its registered direct subclasses, the reverse of
        # ClassInfo.direct_superclasses
        self._direct_subclasses: dict = {}
        for iri, info in classes.items():
            for parent in info.direct_superclasses:
                self._direct_subclasses.setdefault(parent, []).append(iri)
        self._subclass_sets: dict = {}  # class -> frozenset, filled by subclasses_of

    def superclass_closure(self, class_iri: IRI) -> set:
        """All classes transitively reachable via direct superclass edges."""
        if class_iri not in self.classes:
            raise UnknownClassError(f"unknown class: {class_iri.value}")
        classes = self.classes
        return _reachable(
            class_iri, lambda c: classes[c].direct_superclasses if c in classes else ()
        )

    def subclasses_of(self, class_iri: IRI) -> frozenset:
        """All registered classes whose superclass closure holds class_iri.

        The set is walked down the direct-subclass index on first use and
        kept for the schema's lifetime.
        """
        found = self._subclass_sets.get(class_iri)
        if found is None:
            if class_iri not in self.classes:
                raise UnknownClassError(f"unknown class: {class_iri.value}")
            children = self._direct_subclasses
            found = frozenset(_reachable(class_iri, lambda c: children.get(c, ())))
            self._subclass_sets[class_iri] = found
        return found

    def instances_of(self, data: Graph, class_iri: IRI) -> set:
        """Subjects typed as class_iri or any of its registered subclasses."""
        below = self.subclasses_of(class_iri)
        return {
            t.subject
            for t in data.match(None, RDF_TYPE, None)
            if t.object == class_iri or t.object in below
        }

    def mappings_of(self, iri: IRI) -> list:
        """Cross-ontology mappings of a registered class or property.

        Order follows the canonical triple order of the source graph; the
        parsed Graph is a set, so document order is not recoverable.
        """
        if iri in self.classes:
            return list(self.classes[iri].mappings)
        if iri in self.properties:
            return list(self.properties[iri].mappings)
        raise UnknownTermError(f"not a registered class or property: {iri.value}")

    def stats(self) -> OntologyStats:
        own = self.ontology_iri.value if self.ontology_iri else None

        def in_own(iri: IRI) -> bool:
            if own is None:
                return True
            return iri.value.startswith(own) and len(iri.value) > len(own)

        class_count = sum(1 for c in self.classes.values() if c.declared and in_own(c.iri))
        property_count = sum(1 for p in self.properties.values() if p.declared and in_own(p.iri))
        return OntologyStats(
            class_count=class_count,
            property_count=property_count,
            namespace_count=len(self.namespaces),
            own_namespace=own,
            counting_rule=COUNTING_RULE,
        )


def _reachable(start: Any, successors: Callable[[Any], Iterable]) -> set:
    """Every node a walk along successors reaches from start, start excluded."""
    seen: set = set()
    stack = [start]
    while stack:
        for node in successors(stack.pop()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    seen.discard(start)
    return seen


def _check_class_cycles(classes: dict, equivalences: list) -> None:
    # union-find over declared equivalences; mutually equivalent classes may
    # legitimately subclass each other
    parent: dict = {c: c for c in classes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in equivalences:
        if a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

    edges: dict = {}
    for iri, info in classes.items():
        source = find(iri)
        for sup in info.direct_superclasses:
            target = find(sup)
            if source != target:
                edges.setdefault(source, set()).add(target)

    roots = sorted({find(c) for c in classes}, key=term_sort_key)
    cycle = find_cycle(roots, lambda node: sorted(edges.get(node, ()), key=term_sort_key))
    if cycle is not None:
        cycle_reps = set(cycle)
        raise SubclassCycleError([c for c in classes if find(c) in cycle_reps])


def find_cycle(roots: Iterable, successors: Callable[[Any], Iterable]) -> Optional[list]:
    """The first cycle a depth-first walk from roots meets, or None.

    The walk visits roots and each node's successors in the order given. It
    is iterative (three colours and an explicit stack), so the depth of a
    chain is not bounded by the recursion limit. A cycle comes back as the
    path from the node the back edge reaches to the node it leaves.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    for root in roots:
        if color.get(root, WHITE) != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [iter(successors(root))]
        while stack:
            for child in stack[-1]:
                state = color.get(child, WHITE)
                if state == GRAY:
                    return path[path.index(child) :]
                if state == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append(iter(successors(child)))
                    break
            else:
                color[path.pop()] = BLACK
                stack.pop()
    return None


def load_ontology(g: Graph) -> OntologySchema:
    """Build an OntologySchema from OWL/RDFS declaration triples.

    Subclass edges to blank nodes (anonymous class expressions) stay in the
    graph and out of the hierarchy; both IRI ends of a subproperty edge
    register as properties. Raises SubclassCycleError for strict subclass
    cycles (equivalence-collapsed) and PropertyKindConflictError for
    contradictory property declarations.
    """
    classes: dict = {}
    properties: dict = {}

    def entry(registry: dict, iri: IRI, info: Callable) -> Any:
        """The entry of iri in registry, made by info on first sight."""
        if iri not in registry:
            registry[iri] = info(iri=iri)
        return registry[iri]

    ontology_iri = next((s for s in g.subjects(RDF_TYPE, OWL_ONTOLOGY) if isinstance(s, IRI)), None)

    for t in g.match(None, RDF_TYPE, OWL_CLASS):
        if isinstance(t.subject, IRI):
            entry(classes, t.subject, ClassInfo).declared = True

    for type_iri, kind in PROPERTY_KINDS.items():
        for t in g.match(None, RDF_TYPE, type_iri):
            if not isinstance(t.subject, IRI):
                continue
            info = entry(properties, t.subject, PropertyInfo)
            if info.kind is not None and info.kind != kind:
                raise PropertyKindConflictError(
                    f"{t.subject.value} declared both {info.kind} and {kind}"
                )
            info.kind = kind
            info.declared = True

    for t in g.match(None, RDFS_SUBCLASS_OF, None):
        if not isinstance(t.subject, IRI):
            continue
        info = entry(classes, t.subject, ClassInfo)
        if isinstance(t.object, IRI):
            if t.object == t.subject:
                raise SubclassCycleError([t.subject])
            info.direct_superclasses.add(t.object)
            entry(classes, t.object, ClassInfo)

    for t in g.match(None, RDFS_SUBPROPERTY_OF, None):
        if isinstance(t.subject, IRI):
            entry(properties, t.subject, PropertyInfo)
            if isinstance(t.object, IRI):
                entry(properties, t.object, PropertyInfo)

    # an OWL equivalence maps terms of its own kind only; SKOS maps both kinds
    registries = {"owl-equivalent-class": (classes,), "owl-equivalent-property": (properties,)}
    equivalences = []
    mapping_triples = [t for predicate in MAPPING_PREDICATES for t in g.match(None, predicate, None)]
    for t in sorted(mapping_triples, key=triple_sort_key):
        if not isinstance(t.subject, IRI) or not isinstance(t.object, IRI):
            continue
        kind = MAPPING_PREDICATES[t.predicate]
        if kind == "owl-equivalent-class":
            equivalences.append((t.subject, t.object))
        for registry in registries.get(kind, (classes, properties)):
            if t.subject in registry:
                registry[t.subject].mappings.append(Mapping(kind, t.object))

    _check_class_cycles(classes, equivalences)

    return OntologySchema(
        classes=classes,
        properties=properties,
        namespaces=dict(g.prefixes),
        ontology_iri=ontology_iri,
    )


class DingoTerms:
    """Well-known DINGO terms minted against a configurable base IRI."""

    def __init__(self, base: str = DINGO_BASE) -> None:
        self.base = base
        mint = lambda local: IRI(base + local)  # noqa: E731
        # principal classes
        self.Project = mint("Project")
        self.Grant = mint("Grant")
        self.FundingAgency = mint("FundingAgency")
        self.FundingScheme = mint("FundingScheme")
        self.Role = mint("Role")
        self.Person = mint("Person")
        self.Organisation = mint("Organisation")
        self.Criterion = mint("Criterion")
        self.Participation = mint("Participation")
        self.UniversityOrganisation = mint("UniversityOrganisation")
        # funding relations (both orientations are recognized by queries)
        self.funds = mint("funds")
        self.funded_by = mint("funded_by")
        self.has_beneficiary = mint("has_beneficiary")
        self.beneficiary_of = mint("beneficiary_of")
        self.has_participant = mint("has_participant")
        self.participates_in = mint("participates_in")
        self.has_participation = mint("has_participation")
        self.participant = mint("participant")
        self.in_role = mint("in_role")
        self.has_role = mint("has_role")
        self.has_criterion = mint("has_criterion")
        self.criterion_of = mint("criterion_of")
        self.subscheme_of = mint("subscheme_of")
        self.has_subscheme = mint("has_subscheme")
        self.administered_by = mint("administered_by")
        self.administers = mint("administers")
        self.awarded_under = mint("awarded_under")
        self.product_or_material_produced = mint("product_or_material_produced")
        # temporal and descriptive properties
        self.start_time = mint("start_time")
        self.end_time = mint("end_time")
        self.inception = mint("inception")
        self.title = mint("title")
        self.funded_amount = mint("funded_amount")
        self.country_code = mint("country_code")
        self.criterion_text = mint("criterion_text")
        self.family_name = mint("family_name")
        self.given_name = mint("given_name")
        self.decision_date = mint("decision_date")
        # well-known role individuals
        self.principal_investigator = mint("principal_investigator")
        self.co_investigator = mint("co_investigator")
        self.host_institution_role = mint("host_institution_role")
        self.grant_signatory = mint("grant_signatory")
