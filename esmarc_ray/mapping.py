"""Declarative entity mapping and per-record orchestration.

The mapping table mirrors the reference's single most important structure —
the ``entities`` dict of ``"{single|multi}:{target}": spec`` rows
(reference esmarc/esmarc.py:39-237) — with this engine's extractor functions
as the callables.  :func:`map_record` reimplements ``process_line``
(reference esmarc/processing.py:29-61): classify → run every mapping row →
dynamic ``_key`` re-keying → isBasedOn stamp → sameAs backpatch → sanitize →
arity normalization.

:func:`doc_to_triples` flattens the mapped JSON-LD document into
``(subj, pred, obj, obj_kind)`` rows — the engine's spine representation;
dynamic predicates ("children", "spouse", …) are just ``pred`` values here,
which neutralizes the reference's dynamic output keys.
"""

from __future__ import annotations

from typing import Any, Callable

from esmarc_ray.config import DEFAULT_CONFIG, EngineConfig
from esmarc_ray.fields import dates, ids, misc, names, notes, publishing, relations, subjects, titles
from esmarc_ray.kernel import classify_entity, compile_get, marc_get
from esmarc_ray.values import collapse, merge_value, to_json

CONTEXT_URL = "https://raw.githubusercontent.com/slub/esmarc/master/conf/context.jsonld"

# -- shared row groups (identical across entity classes in the reference) ----


def _common_rows(schema_type: str) -> dict:
    return {
        "single:@type": f"http://schema.org/{schema_type}",
        "single:@context": CONTEXT_URL,
        "single:@id": {ids.record_id: "001"},
        "single:identifier": {marc_get: "001"},
        "single:dateCreated": {dates.date_created: ["008"]},
        "single:_isil": {ids.record_isil: "003"},
        "single:_ppn": {marc_get: "001"},
        "single:dateModified": {dates.date_modified: "005"},
        "multi:sameAs": {misc.same_as: ["035..a", "670..u"]},
    }


ENTITY_MAPPINGS: dict[str, dict] = {
    "resources": {
        "single:@type": "http://schema.org/CreativeWork",
        "single:@context": CONTEXT_URL,
        "single:@id": {ids.record_id: "001"},
        "multi:identifier": {ids.property_value_identifiers: "024"},
        "single:offers": {publishing.offers: ["924..b", "001"]},
        "single:_isil": {ids.record_isil: ["003", "852..a", "924..b"]},
        "single:_ppn": {marc_get: "001"},
        "single:_sourceID": {marc_get: "980..b"},
        "single:dateModified": {dates.date_modified: "005"},
        "multi:sameAs": {misc.same_as: ["016", "035..a"]},
        "single:title": {titles.title_object: ["130", "210", "240", "245", "246", "247", "249", "501", "505", "700", "710", "711", "730"]},
        "single:preferredName": {names.preferred_name: ["245..a", "245..b"]},
        "multi:contributor": {names.contributors: ["100", "110", "111", "700", "710", "711"]},
        "single:Thesis": {marc_get: ["502..a", "502..b", "502..c", "502..d"]},
        "multi:genre": {misc.genre: "655..a"},
        "single:license": {marc_get: "540..a"},
        "single:numberOfPages": {misc.number_of_pages: ["300..a", "300..b", "300..c", "300..d", "300..e", "300..f", "300..g"]},
        "single:pageStart": {marc_get: "773..q"},
        "single:issueNumber": {marc_get: "773..l"},
        "single:volumeNumer": {marc_get: "773..v"},
        "multi:locationCreated": {subjects.authority_node_if_4: "551^4:orth"},
        "multi:relatedTo": {relations.related_to: "500..0"},
        "multi:about": {subjects.about_nodes: ["936", "084", "083", "082", "655"]},
        "multi:description": {marc_get: ["520..a"]},
        "multi:mentions": {subjects.mention_nodes: ["600", "610", "611", "630", "648", "650", "651", "653", "655", "689"]},
        "multi:relatedEvent": {subjects.authority_node: "711"},
        "single:physical_description": {publishing.physical_description: ["300", "533"]},
        "multi:collection": {publishing.collection: ["084..a", "935..a"]},
        "single:editionStatement": {publishing.edition_statement: "250"},
        "single:reproductionType": {marc_get: "533..a"},
        "single:editionSequence": {publishing.edition_sequence: "362"},
        "single:cartographicData": {misc.cartographic_data: "255"},
        "multi:additionalInfo": {notes.footnotes: ["242", "385", "500", "502", "508", "511", "515", "518", "521", "533", "535", "538", "546", "555", "561", "563", "937"]},
        "multi:classifications": {subjects.classification_nodes: ["050._0", "082.0_", "082.04", "084.__"]},
        "single:accessMode": {publishing.access_mode: "007"},
        "multi:identifiedBy": {ids.identified_by: ["015", "020", "022", "024", "026", "028", "030", "035", "088", "510", "770", "772", "773", "775", "776", "780", "785", "787", "800", "810", "811", "811", "830"]},
        "multi:language": {notes.language: "041..a"},
        "multi:originalLanguage": {notes.language: "041..h"},
        "multi:seriesStatement": {relations.series_statement: "490"},
        "multi:partOfSeries": {relations.part_of_series: ["776", "800", "810", "811", "830"]},
        "multi:isPartOf": {relations.is_part_of: ["245", "773"]},
        "multi:reproductionSeriesStatement": {publishing.reproduction_series_statement: "533..f"},
        "multi:relations": {relations.relations_of: ["770", "772", "775", "776", "780", "785", "787"]},
        "multi:usageInfo": {publishing.usage_info: ["506.*", "540.__"]},
        "multi:publisher": {publishing.publisher: ["533", "264"]},
        "multi:originalPublisher": {publishing.original_publisher: ["533", "264"]},
        "single:datePublished": {dates.date_published: ["008", "533", "534", "264"]},
        "multi:location": {publishing.publish_location: "751"},
    },
    "works": {
        **_common_rows("CreativeWork"),
        "multi:sameAs": {misc.same_as: ["035..a", "670..u"]},
        "single:preferredName": {names.preferred_name: ["100..t", "110..t", "130..t", "111..t", "130..a"]},
        "single:alternativeHeadline": {marc_get: ["245..c"]},
        "multi:alternateName": {marc_get: ["400..t", "410..t", "411..t", "430..t", "240..a", "240..p", "246..a", "246..b", "245..p", "249..a", "249..b", "730..a", "730..p", "740..a", "740..p", "920..t"]},
        "multi:author": {subjects.authority_node: "500"},
        "multi:contributor": {subjects.authority_node: "700"},
        "single:datePublished": {marc_get: ["130..f", "260..c", "264..c", "362..a"]},
        "single:Thesis": {marc_get: ["502..a", "502..b", "502..c", "502..d"]},
        "multi:issn": {marc_get: ["022..a", "022..y", "022..z", "029..a", "490..x", "730..x", "773..x", "776..x", "780..x", "785..x", "800..x", "810..x", "811..x", "830..x"]},
        "multi:isbn": {marc_get: ["020..a", "022..a", "022..z", "776..z", "780..z", "785..z"]},
        "single:genre": {marc_get: "655..a"},
        "single:hasPart": {marc_get: "773..g"},
        "single:isPartOf": {marc_get: ["773..t", "773..s", "773..a"]},
        "single:license": {marc_get: "540..a"},
        "multi:inLanguage": {marc_get: ["377..a", "041..a", "041..d", "130..l", "730..l"]},
        "single:numberOfPages": {misc.number_of_pages: ["300..a", "300..b", "300..c", "300..d", "300..e", "300..f", "300..g"]},
        "single:pageStart": {marc_get: "773..q"},
        "single:issueNumber": {marc_get: "773..l"},
        "single:volumeNumer": {marc_get: "773..v"},
        "single:locationCreated": {subjects.authority_node_if_4: "551^orth"},
        "multi:relatedTo": {relations.related_to: "500"},
        "single:dateOfEstablishment": {dates.start_date: "548^datb,dats"},
        "single:dateOfTermination": {dates.end_date: "548^datb,dats"},
    },
    "persons": {
        **_common_rows("Person"),
        "single:preferredName": {names.preferred_name: "100..a"},
        "single:gender": {misc.gender: "375..a"},
        "multi:alternateName": {marc_get: ["400..a", "400..c"]},
        "multi:relatedTo": {relations.related_to: "500..0"},
        "multi:hasOccupation": {subjects.authority_node: "550"},
        "single:birthPlace": {subjects.authority_node_if_4: "551^ortg"},
        "single:deathPlace": {subjects.authority_node_if_4: "551^orts"},
        "single:workLocation": {subjects.authority_node_if_4: "551^ortw"},
        "multi:honorificPrefix": [{subjects.authority_node_if_4: "550^adel"}, {subjects.authority_node_if_4: "550^akad"}],
        "multi:about": {subjects.about_nodes: ["936", "084", "083", "082", "655"]},
        "single:periodOfActivityStart": {dates.start_date: "548^datw,datz"},
        "single:periodOfActivityEnd": {dates.end_date: "548^datw,datz"},
        # duplicate birth/deathDate rows in the reference dict literal:
        # the later "548^datl,datx" spec wins (esmarc.py:143-149)
        "single:birthDate": {dates.start_date: "548^datl,datx"},
        "single:deathDate": {dates.end_date: "548^datl,datx"},
    },
    "organizations": {
        **_common_rows("Organization"),
        "single:preferredName": {names.preferred_name: "110..a+b"},
        "multi:alternateName": {marc_get: "410..a+b"},
        "single:additionalType": {subjects.authority_node_if_4: "550^obin"},
        "single:parentOrganization": {subjects.authority_node_if_4: "551^adue"},
        "single:location": {subjects.authority_node_if_4: "551^orta"},
        "single:fromLocation": {subjects.authority_node_if_4: "551^geoa"},
        "single:areaServed": {subjects.authority_node_if_4: "551^geow"},
        "multi:about": {subjects.about_nodes: ["936", "084", "083", "082", "655"]},
        "single:dateOfEstablishment": {dates.start_date: "548^datb"},
        "single:dateOfTermination": {dates.end_date: "548^datb"},
    },
    "geo": {
        **_common_rows("Place"),
        "single:preferredName": {names.preferred_name: "151..a"},
        "multi:alternateName": {marc_get: "451..a"},
        "single:description": {subjects.authority_node: "551"},
        "single:geo": {misc.geo_coordinates: {"longitude": ["034..d", "034..e"], "latitude": ["034..f", "034..g"]}},
        "single:adressRegion": {marc_get: "043..c"},
        "multi:about": {subjects.about_nodes: ["936", "084", "083", "082", "655"]},
        "single:dateOfEstablishment": {dates.start_date: "548^datb,dats"},
        "single:dateOfTermination": {dates.end_date: "548^datb,dats"},
    },
    "topics": {
        **_common_rows("Thing"),
        "single:preferredName": {names.topic_preferred_name: "150"},
        "multi:alternateName": {marc_get: "450..a+x"},
        "single:description": {marc_get: "679..a"},
        "multi:additionalType": {subjects.authority_node: "550"},
        "multi:location": {subjects.authority_node_if_4: "551^orta"},
        "multi:fromLocation": {subjects.authority_node_if_4: "551^geoa"},
        "multi:areaServed": {subjects.authority_node_if_4: "551^geow"},
        "multi:contentLocation": {subjects.authority_node_if_4: "551^punk"},
        "multi:participant": {subjects.authority_node_if_4: "551^bete"},
        "multi:relatedTo": {subjects.authority_node_if_4: "551^vbal"},
        "multi:about": {subjects.about_nodes: ["936", "084", "083", "082", "655"]},
        "single:dateOfEstablishment": {dates.start_date: "548^datb"},
        "single:dateOfTermination": {dates.end_date: "548^datb"},
    },
    "events": {
        **_common_rows("Event"),
        "single:preferredName": {names.preferred_name: ["111..a"]},
        "multi:alternateName": {marc_get: ["411..a"]},
        "single:location": {subjects.authority_node_if_4: "551^ortv"},
        "single:startDate": {dates.start_date: "548^datv"},
        "single:endDate": {dates.end_date: "548^datv"},
        "single:adressRegion": {marc_get: "043..c"},
        "multi:about": {subjects.about_nodes: ["936", "084", "083", "082", "655"]},
    },
}


# -- compiled per-entity plans ------------------------------------------------
#
# Each entity's rows compile once per process into a plan: per row its
# target, the "related" flag, a tag gate and a call ``fn(record, arg, entity,
# config)`` giving the row's value.  What the reference re-derives per record
# and per row — the row key split, the spec's shape dispatch (reference
# process_field, processing.py:7-25), the marc_get spec parse, the arity
# rule's substring scan over the row keys (helperfunc.py:36-48) — is
# resolved here.  tests/mapping_oracle.py keeps the generic interpreter, and
# tests/test_mapping_compiled.py holds the plan to it.


def _get_row(record: dict, get: Callable[[dict], Any], entity: str, config: EngineConfig) -> Any:
    return get(record)


def _constant_row(record: dict, value: str, entity: str, config: EngineConfig) -> str:
    return value


def _list_row(record: dict, parts: list, entity: str, config: EngineConfig) -> Any:
    return collapse([collapse(fn(record, arg, entity, config)) for fn, arg in parts])


def _compile_spec(spec: Any, entity: str) -> tuple[Callable, Any]:
    """One mapping-row spec → ``(fn, arg)``; the row's value is
    ``collapse(fn(record, arg, entity, config))``, the reference's
    ``process_field`` result."""
    if isinstance(spec, str):
        return _constant_row, spec
    if isinstance(spec, dict) and len(spec) == 1:
        ((function, parameter),) = spec.items()
        if function is marc_get:
            return _get_row, compile_get(parameter)
        return function, parameter
    if isinstance(spec, list) and spec:
        return _list_row, [_compile_spec(element, entity) for element in spec]
    raise ValueError(f"unsupported mapping spec for {entity}: {spec!r}")


def source_tags(entities: list[str] | None = None) -> set[str]:
    """MARC tags the mapping spec actually reads — the engine's projection
    pushdown set (reference ``get_source_include_str``, helperfunc.py:21-33,
    which always adds "079" for the classifier).  Spans of other tags can be
    pruned before decode without changing any emitted value."""
    tags = {"079"}

    def add_spec(spec: Any) -> None:
        if isinstance(spec, str):
            tag = spec.split("^")[0][:3]
            if len(tag) == 3 and tag.isdigit():
                tags.add(tag)
        elif isinstance(spec, list):
            for element in spec:
                add_spec(element)
        elif isinstance(spec, dict):
            for value in spec.values():
                add_spec(value)

    for entity, rows in ENTITY_MAPPINGS.items():
        if entities is not None and entity not in entities:
            continue
        for value in rows.values():
            if isinstance(value, dict):
                for spec in value.values():
                    add_spec(spec)
    return tags


# Row gate invariant: a field function may only read MARC tags whose 3-digit
# prefixes appear in its mapping-row parameter (every current function obeys
# this — the row params deliberately enumerate the full tag set, e.g. the
# identified_by row lists all 23 tags its body touches).  A future function
# that reads tags beyond its parameter must be added here to opt out of the
# absent-tag row skip.  Functions that emit a DEFAULT with no tag input (like
# notes.language's "und" fallback) are caught automatically by the
# empty-record probe in :func:`_gate_for`.  The oracle test evaluates every
# row ungated, so it catches violations.
_GATE_EXEMPT: set = set()


def _gate_tags(spec: Any) -> tuple | None:
    """Static tags a mapping row can read, or None if not gateable.

    Gateable: every leaf parameter is a tag-shaped spec (3 leading digits) and
    no involved function is in ``_GATE_EXEMPT``.  String constants, bare
    callables, and non-tag parameters are NOT gateable (always evaluated)."""

    def leaves(param: Any, out: set) -> bool:
        if isinstance(param, str):
            tag = param[:3]
            if len(param) >= 3 and tag.isdigit():
                out.add(tag)
                return True
            return False
        if isinstance(param, list):
            return all(leaves(p, out) for p in param)
        if isinstance(param, dict):
            return all(leaves(v, out) for v in param.values())
        return False

    tags: set = set()
    if isinstance(spec, dict):
        for fn, param in spec.items():
            if fn in _GATE_EXEMPT or not leaves(param, tags):
                return None
    elif isinstance(spec, list):
        for element in spec:
            sub = _gate_tags(element)
            if sub is None:
                return None
            tags.update(sub)
    else:  # constant or bare callable
        return None
    return tuple(sorted(tags)) if tags else None


def _gate_for(spec: Any, fn: Callable, arg: Any, entity: str) -> tuple | None:
    gate = _gate_tags(spec)
    if gate is None:
        return None
    # empty-record probe: a row that still yields a value with NO tags present
    # (e.g. notes.language's "und" fallback) must never be skipped; an
    # exception here is conservative — ungated, so real records keep the
    # reference's error semantics
    try:
        if collapse(fn({}, arg, entity, DEFAULT_CONFIG)):
            return None
    except Exception:
        return None
    return gate


def _arity_rule(entity: str, key: str) -> tuple[bool, ...]:
    """The arity actions for one doc key, True = single, False = multi: one
    per mapping row key that contains ``key`` (helperfunc.py:36-48)."""
    actions = []
    for row_key in ENTITY_MAPPINGS[entity]:
        if key in row_key:
            if "single" in row_key:
                actions.append(True)
            elif "multi" in row_key:
                actions.append(False)
    return tuple(actions)


class _EntityPlan:
    __slots__ = ("entity", "rows", "arity")

    def __init__(self, entity: str):
        self.entity = entity
        rows = []
        for row_key, spec in ENTITY_MAPPINGS[entity].items():
            target = row_key.split(":")[1]
            fn, arg = _compile_spec(spec, entity)
            rows.append((target, "related" in target, _gate_for(spec, fn, arg, entity), fn, arg))
        self.rows = tuple(rows)
        # doc key -> arity actions; the row targets up front, dynamic keys
        # (re-keyed relations, isBasedOn) on first sight
        self.arity = {row[0]: _arity_rule(entity, row[0]) for row in rows}

    def finish(self, doc: dict) -> dict:
        """The reference's clean-up passes (drop falsy entries and None
        elements, helperfunc.py:51-86) fused with the arity rule, in one pass
        over the top-level keys."""
        arity = self.arity
        out = {}
        for key, value in doc.items():
            if key is None or not value:
                continue
            if type(value) is not str:
                value = _clean(value)
            actions = arity.get(key)
            if actions is None:
                actions = arity[key] = _arity_rule(self.entity, key)
            for single in actions:
                if single:
                    value = collapse(value)
                elif not isinstance(value, list):
                    value = [value]
            out[key] = value
        return out


def _clean(obj: Any) -> Any:
    """Rebuild a doc value without falsy dict entries, None dict keys and
    None list elements; lists keep their other falsy elements, and an entry
    that only becomes empty while it is cleaned is kept.  Mapping functions
    build their values from dicts, lists and scalars only."""
    kind = type(obj)
    if kind is dict:
        out = {}
        for k, v in obj.items():
            if v and k is not None:
                kind = type(v)
                if kind is str:
                    out[k] = v
                elif kind is dict:  # one level inlined: most nodes nest dicts
                    out[k] = {
                        k2: v2 if type(v2) is str else _clean(v2)
                        for k2, v2 in v.items()
                        if v2 and k2 is not None
                    }
                else:
                    out[k] = _clean(v)
        return out
    if kind is list:
        return [x if type(x) is str or not x else _clean(x) for x in obj if x is not None]
    return obj


_PLANS: dict[str, _EntityPlan] = {}


def _plan(entity: str) -> _EntityPlan:
    plan = _PLANS.get(entity)
    if plan is None:
        plan = _PLANS[entity] = _EntityPlan(entity)
    return plan


# -- whole-record orchestration (reference process_line, processing.py:29-61) -

_get_001 = compile_get("001")


def map_record(
    record: dict, config: EngineConfig = DEFAULT_CONFIG, source_index: str | None = None
) -> dict[str, dict] | None:
    """Map one record → {entity_class: JSON-LD doc}, or None (dropped)."""
    entity = classify_entity(record)
    if not entity:
        return None
    if source_index is None:
        source_index = config.source_index
    plan = _plan(entity)
    doc: dict = {}
    present = record.keys()
    for target, related, gate, fn, arg in plan.rows:
        if gate is not None and present.isdisjoint(gate):
            continue  # none of the row's source tags present — provably empty
        value = fn(record, arg, entity, config)
        if isinstance(value, list) and len(value) == 1:
            value = value[0]  # collapse; a falsy value is skipped either way
        if not value:
            continue
        if related and isinstance(value, dict) and "_key" in value:
            predicate = value.pop("_key")
            doc[predicate] = merge_value(doc.get(predicate), value)
        elif related and isinstance(value, list) and any("_key" in x for x in value):
            for element in value:
                if "_key" in element:
                    predicate = element.pop("_key")
                    doc[predicate] = merge_value(doc.get(predicate), element)
        else:
            previous = doc.get(target)
            doc[target] = merge_value(previous, value) if previous else value
    if not doc:
        return None
    if source_index:
        doc["isBasedOn"] = config.target_id + "source/" + source_index + "/" + _get_001(record)
    if isinstance(doc.get("sameAs"), list):
        for n, link in enumerate(doc["sameAs"]):
            doc["sameAs"][n]["isBasedOn"]["@id"] = doc["isBasedOn"]
            publisher = doc["sameAs"][n].get("publisher")
            if publisher and publisher["abbr"] == "BSZ":
                record_ppn = _get_001(record)
                doc["sameAs"][n]["@id"] = (
                    f"https://swb.bsz-bw.de/DB=2.1/PPNSET?PPN={record_ppn}"
                )
    return {entity: plan.finish(doc)}


# -- triple spine ------------------------------------------------------------

TRIPLE_COLUMNS = ("subj", "pred", "obj", "obj_kind", "entity_class", "doc_id")


def doc_to_triple_columns(
    doc_id: str, entity: str, doc: dict, cols: dict[str, list]
) -> None:
    """Flatten a mapped JSON-LD doc to (subj, pred, obj, obj_kind) rows,
    appended straight into the six output column lists (``cols`` keyed by
    :data:`TRIPLE_COLUMNS`) — the hot flatten stage pays no per-row dicts.

    ``obj_kind``: "literal" for strings, "node" for nested objects (canonical
    JSON), "list" never appears — list values emit one triple per element.
    The subject is the doc's @id (falling back to the doc_id).
    """
    subj = doc.get("@id") or doc_id
    subj_l, pred_l, obj_l = cols["subj"], cols["pred"], cols["obj"]
    kind_l, ent_l, did_l = cols["obj_kind"], cols["entity_class"], cols["doc_id"]
    for pred, value in doc.items():
        if pred == "@id":
            continue
        for element in value if isinstance(value, list) else [value]:
            if isinstance(element, (dict, list)):
                obj = to_json(element)
                kind = "node"
            else:
                obj = str(element)
                kind = "literal"
            subj_l.append(subj)
            pred_l.append(pred)
            obj_l.append(obj)
            kind_l.append(kind)
            ent_l.append(entity)
            did_l.append(doc_id)


def doc_to_triples(doc_id: str, entity: str, doc: dict) -> list[dict[str, str]]:
    """Row form of :func:`doc_to_triple_columns`: one dict per triple."""
    cols: dict[str, list] = {name: [] for name in TRIPLE_COLUMNS}
    doc_to_triple_columns(doc_id, entity, doc, cols)
    return [dict(zip(TRIPLE_COLUMNS, row)) for row in zip(*cols.values())]
