"""Seeded synthetic funding data with a ground-truth model.

Everything here is derived from a seed with `random.Random`, so one seed gives
byte-identical Turtle text, CSV text and query plan. The expected answers
(funding links, ancestry, criteria, participants, beneficiaries, violations,
temporal findings, ingest failures) come from the generator's own model,
never from dingotk.

Terms in the model are plain Python values: an IRI is its string, a literal is
a ``(lexical, datatype)`` tuple and a blank node is a ``("_", id)`` tuple.
"""

from __future__ import annotations

import calendar
import csv
import io
import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass, field

DINGO = "https://w3id.org/dingo#"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
EX = "http://example.org/bench/"
INGEST_BASE = "http://example.org/grants/"

XSD_STRING = XSD + "string"
XSD_DATE = XSD + "date"
XSD_DECIMAL = XSD + "decimal"
XSD_GYEAR = XSD + "gYear"
XSD_GYEARMONTH = XSD + "gYearMonth"

PREFIXES = {"dingo": DINGO, "xsd": XSD, "ex": EX}


def d(local: str) -> str:
    return DINGO + local


PROJECT_TYPES = (d("Project"), d("ResearchProject"))
GRANT_TYPES = (d("Grant"), d("ResearchGrant"))
ORG_TYPES = (d("Organisation"), d("UniversityOrganisation"))
SCHEME_TYPES = (d("FundingScheme"), d("FundingProgramme"))
CRITERION_TYPES = (d("Criterion"), d("EligibilityCriterion"), d("EvaluationCriterion"))
ROLES = (d("principal_investigator"), d("co_investigator"))

_WORDS = (
    "quantum sensing coral reef resilience medieval manuscripts protein folding urban "
    "mobility glacier dynamics dark matter language acquisition soil microbiomes battery "
    "chemistry epidemic modelling ancient genomics Zürich Genève Kraków Malmö"
).split()


def _title(rng: random.Random, words: int = 3) -> str:
    text = " ".join(rng.choice(_WORDS) for _ in range(words))
    if rng.random() < 0.02:
        text += ' "extended"'  # exercises string escapes end to end
    return text.capitalize()


# ---------------------------------------------------------------------------
# partial dates (an independent re-statement of the README's date semantics)
# ---------------------------------------------------------------------------

_DATE_RE = re.compile(r"^(\d{4})(?:-(\d{2})(?:-(\d{2}))?)?$")


def _date_parts(lexical: str):
    m = _DATE_RE.match(lexical)
    if not m:
        return None
    parts = [int(g) for g in m.groups() if g is not None]
    if len(parts) >= 2 and not 1 <= parts[1] <= 12:
        return None
    if len(parts) == 3 and not 1 <= parts[2] <= calendar.monthrange(parts[0], parts[1])[1]:
        return None
    return tuple(parts)


def _start_after_end(start: tuple, end: tuple) -> bool:
    n = min(len(start), len(end))
    return start[:n] > end[:n]


def _iso(year: int, month: int, day: int) -> str:
    return f"{year:04d}-{month:02d}-{day:02d}"


# ---------------------------------------------------------------------------
# the funding corpus
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    text: str
    triples: list  # (s, p, o) model triples, blank nodes as ("_", id)
    projects: list
    grants: list
    schemes: list
    typed: dict  # node -> rdf:type IRI (untyped nodes absent)
    grants_of: dict  # project -> set of grants
    projects_of: dict  # grant -> set of projects
    beneficiaries: dict  # grant -> set of agents
    participants: dict  # project -> set of (agent, role or None)
    parent: dict  # scheme -> parent scheme or None
    criteria: dict  # scheme -> set of criteria
    violations: Counter  # (focus, shape, predicate, code) -> count
    temporal: set  # (node, start property, end property, start lex, end lex, code)
    defects: Counter  # injected defect kind -> count

    def ancestry(self, scheme: str) -> list:
        out = []
        node = self.parent[scheme]
        while node is not None:
            out.append(node)
            node = self.parent[node]
        return out

    def inherited_criteria(self, scheme: str) -> set:
        found = set(self.criteria[scheme])
        for node in self.ancestry(scheme):
            found |= self.criteria[node]
        return found

    def non_beneficiaries(self, project: str) -> set:
        agents = {agent for agent, _ in self.participants[project]}
        for grant in self.grants_of[project]:
            agents -= self.beneficiaries[grant]
        return agents


def _scheme_chain_length(rng: random.Random) -> int:
    # mostly a few levels, with a tail of chains tens of levels deep
    if rng.random() < 0.9:
        return rng.choices((1, 2, 3, 4), weights=(4, 3, 2, 1))[0]
    return rng.randint(10, 40)


class _Builder:
    """Accumulates model triples and Turtle statements side by side."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.triples: list = []
        self.blocks: list = []  # one Turtle statement per entry
        self.blank_count = 0

    def term(self, value) -> str:
        if isinstance(value, str):
            for prefix, ns in (("ex", EX), ("dingo", DINGO)):
                if value.startswith(ns) and self.rng.random() < 0.9:
                    return f"{prefix}:{value[len(ns):]}"
            return f"<{value}>"
        lexical, datatype = value
        escaped = lexical.replace("\\", "\\\\").replace('"', '\\"')
        if datatype == XSD_STRING:
            return f'"{escaped}"'
        if datatype == XSD_DECIMAL:
            return lexical
        if datatype.startswith(XSD):
            return f'"{escaped}"^^xsd:{datatype[len(XSD):]}'
        return f'"{escaped}"^^<{datatype}>'

    def statement(self, subject: str, pairs: list, blanks: tuple = ()) -> None:
        """`pairs` are (predicate, [objects]); `blanks` are (predicate, [(p, o)])."""
        parts = []
        for predicate, objects in pairs:
            for obj in objects:
                self.triples.append((subject, predicate, obj))
            verb = "a" if predicate == RDF_TYPE else self.term(predicate)
            parts.append(f"{verb} " + ", ".join(self.term(o) for o in objects))
        for predicate, inner in blanks:
            node = ("_", self.blank_count)
            self.blank_count += 1
            self.triples.append((subject, predicate, node))
            body = " ; ".join(f"{self.term(p)} {self.term(o)}" for p, o in inner)
            for p, o in inner:
                self.triples.append((node, p, o))
            parts.append(f"{self.term(predicate)} [ {body} ]")
        self.blocks.append(f"{self.term(subject)} " + " ;\n    ".join(parts) + " .")


def generate_corpus(seed: int, target_triples: int) -> Corpus:
    rng = random.Random(f"corpus:{seed}:{target_triples}")
    b = _Builder(rng)
    typed: dict = {}
    scale = max(1, target_triples // 40)  # about 40 triples per project unit

    for role in ROLES:
        b.statement(role, [(RDF_TYPE, [d("ProjectRole")])])

    # criteria pool
    criteria_pool = [f"{EX}criterion-{i}" for i in range(max(4, scale // 4))]
    for c in criteria_pool:
        typed[c] = rng.choice(CRITERION_TYPES)
        b.statement(c, [(RDF_TYPE, [typed[c]]), (d("criterion_text"), [(_title(rng, 5), XSD_STRING)])])

    # scheme forest built from chains
    schemes: list = []
    parent: dict = {}
    criteria: dict = {}
    n_schemes = max(8, scale // 3)
    while len(schemes) < n_schemes:
        above = rng.choice(schemes) if schemes and rng.random() < 0.5 else None
        for _ in range(_scheme_chain_length(rng)):
            s = f"{EX}scheme-{len(schemes)}"
            schemes.append(s)
            parent[s] = above
            typed[s] = rng.choice(SCHEME_TYPES)
            criteria[s] = set(rng.sample(criteria_pool, rng.choice((0, 0, 1, 1, 2, 3))))
            pairs = [(RDF_TYPE, [typed[s]]), (d("title"), [(_title(rng), XSD_STRING)])]
            forward = [c for c in sorted(criteria[s]) if rng.random() < 0.7]
            if forward:
                pairs.append((d("has_criterion"), forward))
            if above is not None and rng.random() < 0.7:
                pairs.append((d("subscheme_of"), [above]))
            elif above is not None:
                b.statement(above, [(d("has_subscheme"), [s])])
            b.statement(s, pairs)
            for c in sorted(criteria[s]):
                if c not in forward:
                    b.statement(c, [(d("criterion_of"), [s])])
            above = s

    # agents
    persons = [f"{EX}person-{i}" for i in range(scale)]
    person_roles: dict = {}
    for p in persons:
        typed[p] = d("Person")
        roles = [rng.choice(ROLES)] if rng.random() < 0.5 else []
        person_roles[p] = roles
        pairs = [
            (RDF_TYPE, [d("Person")]),
            (d("family_name"), [(rng.choice(_WORDS).capitalize(), XSD_STRING)]),
            (d("given_name"), [(rng.choice(_WORDS).capitalize(), XSD_STRING)]),
        ]
        if roles:
            pairs.append((d("has_role"), roles))
        b.statement(p, pairs)
    orgs = [f"{EX}org-{i}" for i in range(max(4, scale // 4))]
    for o in orgs:
        typed[o] = rng.choice(ORG_TYPES)
        person_roles[o] = []
        b.statement(o, [
            (RDF_TYPE, [typed[o]]),
            (d("title"), [(_title(rng, 2), XSD_STRING)]),
            (d("country_code"), [(rng.choice(("CH", "DE", "FR", "AU", "US")), XSD_STRING)]),
        ])
    agencies = [f"{EX}agency-{i}" for i in range(max(2, scale // 50))]
    roots = [s for s in schemes if parent[s] is None]
    for a in agencies:
        typed[a] = d("FundingAgency")
        b.statement(a, [
            (RDF_TYPE, [d("FundingAgency")]),
            (d("title"), [(_title(rng, 2), XSD_STRING)]),
            (d("offers"), sorted(rng.sample(roots, min(2, len(roots))))),
        ])
    agents = persons + orgs

    projects: list = []
    grants: list = []
    grants_of: dict = {}
    projects_of: dict = {}
    beneficiaries: dict = {}
    participants: dict = {}
    violations: Counter = Counter()
    temporal: set = set()
    defects: Counter = Counter()
    dated: list = []  # (node, shape or None, start literal, end literal or None)

    def dates(node: str, shape) -> list:
        year = rng.randint(2010, 2022)
        start = _iso(year, rng.randint(1, 12), rng.randint(1, 28))
        end_year = year + rng.randint(1, 5)
        roll = rng.random()
        if roll < 0.02:
            end_year = year - rng.randint(1, 3)
            defects["start-after-end"] += 1
        end = _iso(end_year, rng.randint(1, 12), rng.randint(1, 28))
        start_lit = (start, XSD_DATE)
        roll = rng.random()
        if roll < 0.015:
            start_lit = (start[:4], XSD_GYEAR)
            defects["wrong-date-datatype"] += 1
        elif roll < 0.03:
            start_lit = (start, XSD_STRING)
            defects["wrong-date-datatype"] += 1
        elif roll < 0.035:
            start_lit = (f"{year:04d}-02-30", XSD_DATE)
            defects["impossible-date"] += 1
        has_end = shape != "GrantShape" or rng.random() < 0.9
        end_lit = (end, XSD_DATE) if has_end else None
        dated.append((node, shape, start_lit, end_lit))
        pairs = [(d("start_time"), [start_lit])]
        if end_lit:
            pairs.append((d("end_time"), [end_lit]))
        return pairs

    n = 0
    while len(b.triples) < target_triples:
        project = f"{EX}project-{n}"
        n += 1
        projects.append(project)
        grants_of[project] = set()
        participants[project] = set()
        untyped = rng.random() < 0.02
        pairs = [] if untyped else [(RDF_TYPE, [rng.choice(PROJECT_TYPES)])]
        if not untyped:
            typed[project] = pairs[0][1][0]
        pairs.append((d("title"), [(_title(rng), XSD_STRING)]))
        pairs += dates(project, None if untyped else "ProjectShape")
        direct = rng.sample(agents, rng.randint(1, 3))
        forward = sorted(a for a in direct if rng.random() < 0.8)
        if forward:
            pairs.append((d("has_participant"), forward))
        for agent in direct:
            if person_roles[agent]:
                participants[project] |= {(agent, r) for r in person_roles[agent]}
            else:
                participants[project].add((agent, None))
        blanks = []
        for _ in range(rng.choice((0, 1, 1, 2))):
            agent = rng.choice(persons)
            inner = [(RDF_TYPE, d("Participation")), (d("participant"), agent)]
            role = rng.choice(ROLES + (None,))
            if role:
                inner.append((d("in_role"), role))
            blanks.append((d("has_participation"), inner))
            participants[project].add((agent, role))
        reverse_grants = []
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            grant = f"{EX}grant-{len(grants)}"
            grants.append(grant)
            typed[grant] = rng.choice(GRANT_TYPES)
            funded = [project]
            if rng.random() < 0.05 and len(projects) > 1:
                funded.append(rng.choice(projects[:-1]))
            projects_of[grant] = set(funded)
            for p in funded:
                grants_of[p].add(grant)
            gpairs = [
                (RDF_TYPE, [typed[grant]]),
                (d("title"), [(_title(rng), XSD_STRING)]),
                (d("funded_amount"), [(f"{rng.randint(50, 3000)}000.{rng.randint(0, 99):02d}", XSD_DECIMAL)]),
                (d("awarded_under"), [rng.choice(schemes)]),
            ]
            gpairs += dates(grant, "GrantShape")
            if rng.random() < 0.5:
                gpairs.append((d("administered_by"), [rng.choice(agencies)]))
            forward_funds = sorted(p for p in funded if p != project or rng.random() < 0.7)
            if forward_funds:
                gpairs.append((d("funds"), forward_funds))
            if project not in forward_funds:
                reverse_grants.append(grant)
            for p in forward_funds:
                if p not in typed:
                    violations[(grant, "GrantShape", d("funds"), "wrong-class")] += 1
            if rng.random() < 0.03:
                beneficiaries[grant] = set()
                defects["grant-without-beneficiary"] += 1
                violations[(grant, "GrantShape", d("has_beneficiary"), "missing-required")] += 1
                b.statement(grant, gpairs)
            else:
                pool = direct if rng.random() < 0.7 else orgs
                chosen = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
                beneficiaries[grant] = set(chosen)
                gpairs.append((d("has_beneficiary"), [chosen[0]]))
                b.statement(grant, gpairs)
                for agent in chosen[1:]:
                    b.statement(agent, [(d("beneficiary_of"), [grant])])
        if reverse_grants:
            pairs.append((d("funded_by"), sorted(reverse_grants)))
        b.statement(project, pairs, tuple(blanks))
        for agent in direct:
            if agent not in forward:
                b.statement(agent, [(d("participates_in"), [project])])

    for node, shape, start_lit, end_lit in dated:
        if shape is not None and start_lit[1] != XSD_DATE:
            violations[(node, shape, d("start_time"), "wrong-datatype")] += 1
        if end_lit is None:
            continue
        start, end = _date_parts(start_lit[0]), _date_parts(end_lit[0])
        pair = (d("start_time"), d("end_time"))
        if start is None or end is None:
            temporal.add((node, *pair, start_lit[0], end_lit[0], "unparseable-date"))
        elif _start_after_end(start, end):
            temporal.add((node, *pair, start_lit[0], end_lit[0], "start-after-end"))

    header = "\n".join(f"@prefix {p}: <{ns}> ." for p, ns in PREFIXES.items())
    text = header + "\n\n" + "\n".join(b.blocks) + "\n"
    return Corpus(
        text=text,
        triples=b.triples,
        projects=projects,
        grants=grants,
        schemes=schemes,
        typed=typed,
        grants_of=grants_of,
        projects_of=projects_of,
        beneficiaries=beneficiaries,
        participants=participants,
        parent=parent,
        criteria=criteria,
        violations=violations,
        temporal=temporal,
        defects=defects,
    )


# ---------------------------------------------------------------------------
# the grants table for ingest
# ---------------------------------------------------------------------------

INGEST_COLUMNS = (
    "grant_id grant_title start_date end_date amount project_id project_title "
    "org_id org_name org_country scheme_id scheme_title"
).split()

_BAD_DATES = ("31/12/2019", "2019-13-01", "2019-02-30", "2019-14", "soon")
_BAD_AMOUNTS = ("1,200.00", "n/a", "12k", "EUR 300000")


@dataclass
class Table:
    text: str
    rows: int
    triples: set  # expected (s, p, o) model triples
    failures: set  # (row, column) of cells that must fail conversion
    skipped_cells: int
    failures_by_reason: Counter = field(default_factory=Counter)


def _ingest_date(raw: str):
    parts = _date_parts(raw)
    datatype = {1: XSD_GYEAR, 2: XSD_GYEARMONTH, 3: XSD_DATE}[len(parts)]
    return (raw, datatype)


def generate_table(seed: int, rows: int) -> Table:
    rng = random.Random(f"table:{seed}:{rows}")
    mint = lambda kind, key: f"{INGEST_BASE}{kind}/{key}"  # noqa: E731
    projects = [(f"proj-{i:05d}", _title(rng)) for i in range(max(2, rows * 2 // 3))]
    orgs = [(f"org-{i:04d}", _title(rng, 2), rng.choice(("CH", "DE", "AU"))) for i in range(max(2, rows // 25))]
    schemes = [(f"scheme-{i:03d}", _title(rng)) for i in range(max(2, rows // 150))]
    triples: set = set()
    failures: set = set()
    by_reason: Counter = Counter()
    skipped = 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(INGEST_COLUMNS)
    for row in range(1, rows + 1):
        gid = f"g-{row:06d}"
        pid, ptitle = rng.choice(projects)
        oid, oname, country = rng.choice(orgs)
        sid, stitle = rng.choice(schemes)
        year = rng.randint(2010, 2022)
        precision = rng.choices((3, 2, 1), weights=(90, 6, 4))[0]
        start = _iso(year, rng.randint(1, 12), rng.randint(1, 28))[: (4, 7, 10)[precision - 1]]
        end = _iso(year + rng.randint(1, 5), rng.randint(1, 12), rng.randint(1, 28))
        amount = f"{rng.randint(50, 3000)}000.00"
        if rng.random() < 0.01:
            start = rng.choice(_BAD_DATES)
        if rng.random() < 0.03:
            end = ""
        elif rng.random() < 0.01:
            end = rng.choice(_BAD_DATES)
        if rng.random() < 0.01:
            amount = rng.choice(_BAD_AMOUNTS)
        title = _title(rng) + (", renewal" if rng.random() < 0.05 else "")
        writer.writerow([gid, title, start, end, amount, pid, ptitle, oid, oname, country, sid, stitle])

        grant = mint("grant", gid)
        triples |= {
            (grant, RDF_TYPE, d("Grant")),
            (grant, d("title"), (title, XSD_STRING)),
            (grant, d("funds"), mint("project", pid)),
            (grant, d("has_beneficiary"), mint("organisation", oid)),
            (grant, d("awarded_under"), mint("fundingscheme", sid)),
            (mint("project", pid), RDF_TYPE, d("Project")),
            (mint("project", pid), d("title"), (ptitle, XSD_STRING)),
            (mint("organisation", oid), RDF_TYPE, d("Organisation")),
            (mint("organisation", oid), d("title"), (oname, XSD_STRING)),
            (mint("organisation", oid), d("country_code"), (country, XSD_STRING)),
            (mint("fundingscheme", sid), RDF_TYPE, d("FundingScheme")),
            (mint("fundingscheme", sid), d("title"), (stitle, XSD_STRING)),
        }
        for column, raw, predicate in (("start_date", start, "start_time"), ("end_date", end, "end_time")):
            if raw == "":
                skipped += 1
            elif _date_parts(raw) is None:
                failures.add((row, column))
                by_reason["bad-date"] += 1
            else:
                triples.add((grant, d(predicate), _ingest_date(raw)))
        if re.fullmatch(r"\d+\.\d+", amount):
            triples.add((grant, d("funded_amount"), (amount, XSD_DECIMAL)))
        else:
            failures.add((row, "amount"))
            by_reason["bad-amount"] += 1
    return Table(buf.getvalue(), rows, triples, failures, skipped, by_reason)


# ---------------------------------------------------------------------------
# the query plan
# ---------------------------------------------------------------------------

# Queries of each kind in every block of 1000 consecutive queries. The plan
# shuffles each block, so every prefix of whole blocks has exactly these
# shares. The weights put the median well inside the cheapest kind and the
# 99th percentile inside the kinds that scan `instances_of`, away from any
# boundary between two kinds (see perfbench/README.md).
QUERY_MIX = (
    ("beneficiaries_of", 798),
    ("participants_with_roles", 60),
    ("scheme_ancestry", 60),
    ("criteria_for_scheme", 55),
    ("grants_funding_project", 10),
    ("projects_funded_by", 8),
    ("non_beneficiary_participants", 7),
    ("check_temporal", 2),
)
QUERY_BLOCK = sum(n for _, n in QUERY_MIX)

_FOCUS = {
    "beneficiaries_of": "grants",
    "criteria_for_scheme": "schemes",
    "scheme_ancestry": "schemes",
    "participants_with_roles": "projects",
    "grants_funding_project": "projects",
    "projects_funded_by": "grants",
    "non_beneficiary_participants": "projects",
    "check_temporal": None,
}


def query_plan(seed: int, corpus: Corpus, blocks: int) -> list:
    """`blocks` × 1000 (kind, focus) pairs; focus nodes follow a Zipf-like skew."""
    rng = random.Random(f"plan:{seed}")
    ranked = {}
    for pool in ("grants", "schemes", "projects"):
        nodes = list(getattr(corpus, pool))
        rng.shuffle(nodes)
        ranked[pool] = (nodes, list(itertools.accumulate(1.0 / (i + 1) ** 1.1 for i in range(len(nodes)))))
    block = [kind for kind, n in QUERY_MIX for _ in range(n)]
    plan = []
    for _ in range(blocks):
        rng.shuffle(block)
        for kind in block:
            pool = _FOCUS[kind]
            if pool is None:
                plan.append((kind, None))
            else:
                nodes, cumulative = ranked[pool]
                plan.append((kind, rng.choices(nodes, cum_weights=cumulative)[0]))
    return plan


def expected_answer(corpus: Corpus, kind: str, focus):
    """The answer a query must give, in the model's plain-value form."""
    if kind == "beneficiaries_of":
        return corpus.beneficiaries[focus]
    if kind == "criteria_for_scheme":
        return corpus.inherited_criteria(focus)
    if kind == "scheme_ancestry":
        return corpus.ancestry(focus)
    if kind == "participants_with_roles":
        return corpus.participants[focus]
    if kind == "grants_funding_project":
        return corpus.grants_of[focus]
    if kind == "projects_funded_by":
        return corpus.projects_of[focus]
    if kind == "non_beneficiary_participants":
        return corpus.non_beneficiaries(focus)
    return corpus.temporal


def expects_untyped_warning(corpus: Corpus, kind: str, focus) -> bool:
    """Queries that take a schema warn when the focus lacks the expected type."""
    # non_beneficiary_participants silences the warning of its inner call
    return kind == "grants_funding_project" and focus not in corpus.typed


# ---------------------------------------------------------------------------
# an independent reader for canonical Turtle output
# ---------------------------------------------------------------------------

_CANON_TOKEN = re.compile(
    r'\s*(?:(?P<str>"(?:[^"\\]|\\.)*")(?:\^\^(?P<dt>\S+?)(?=[\s,;]|$)|@(?P<lang>[A-Za-z-]+))?'
    r"|(?P<punct>[,;])|(?P<word>[^\s,;]+))"
)
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}


def _unescape(body: str) -> str:
    return re.sub(r"\\(u[0-9A-Fa-f]{4}|.)", lambda m: _UNESCAPE.get(m.group(1)) or chr(int(m.group(1)[1:], 16)), body)


def read_canonical(text: str) -> list:
    """Triples of the canonical form `serialize_turtle` promises to write.

    Handles exactly that layout: `@prefix` lines, then one statement per
    subject with `;` between predicates and `,` between objects.
    """
    prefixes: dict = {}
    triples: list = []

    def expand(word: str):
        if word.startswith("<"):
            return word[1:-1]
        if word.startswith("_:"):
            return ("_", word[2:])
        if word == "a":
            return RDF_TYPE
        if re.fullmatch(r"[+-]?\d*\.\d+", word):
            return (word, XSD_DECIMAL)
        prefix, local = word.split(":", 1)
        return prefixes[prefix] + local

    body_start = 0
    for m in re.finditer(r"^@prefix (\S*): <([^>]*)> \.\n", text, re.M):
        prefixes[m.group(1)] = m.group(2)
        body_start = m.end()
    for statement in re.split(r" \.\n", text[body_start:]):
        statement = statement.strip()
        if not statement:
            continue
        tokens = []
        pos = 0
        while pos < len(statement):
            m = _CANON_TOKEN.match(statement, pos)
            pos = m.end()
            if m.group("str") is not None:
                lexical = _unescape(m.group("str")[1:-1])
                if m.group("lang"):
                    tokens.append((lexical, "lang:" + m.group("lang")))
                else:
                    tokens.append((lexical, expand(m.group("dt")) if m.group("dt") else XSD_STRING))
            elif m.group("punct"):
                tokens.append(m.group("punct"))
            elif m.group("word"):
                tokens.append(expand(m.group("word")))
        subject, predicate = tokens[0], tokens[1]
        expect_object = True
        for tok in tokens[2:]:
            if tok == ";":
                predicate = None
            elif tok == ",":
                expect_object = True
            elif predicate is None:
                predicate = tok
                expect_object = True
            elif expect_object:
                triples.append((subject, predicate, tok))
                expect_object = False
            else:
                raise ValueError(f"malformed canonical statement near {tok!r}")
    return triples


def blank_canonical(triples) -> Counter:
    """Multiset of triples with each blank node replaced by its description.

    Valid for graphs whose blank nodes only point at non-blank terms, which
    is all the generator writes.
    """
    described: dict = {}
    for s, p, o in triples:
        if isinstance(s, tuple) and s[0] == "_":
            described.setdefault(s, []).append((p, o))
    sig = {node: ("_", tuple(sorted(map(repr, pairs)))) for node, pairs in described.items()}
    out: Counter = Counter()
    for s, p, o in triples:
        out[(sig.get(s, s), p, sig.get(o, o) if isinstance(o, tuple) else o)] += 1
    return out
