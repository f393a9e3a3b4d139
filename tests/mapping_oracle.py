"""The generic mapping-table interpreter, kept as the test oracle.

This is how ``map_record`` ran before the mapping table was compiled into
per-entity plans (``esmarc_ray.mapping``): every row of ``ENTITY_MAPPINGS``
is walked by :func:`evaluate_row` (reference ``process_field``,
processing.py:7-25) over a plain record dict, then the reference's clean-up
passes and the substring arity rule run over the whole document
(helperfunc.py:36-86).  No row is gated, so
it is the reference's ``process_line`` (processing.py:29-61) as written.

``tests/test_mapping_compiled.py`` asserts that the compiled plan gives the
same output, or raises the same exception, on every record it is fed.
"""

from __future__ import annotations

from typing import Any

from esmarc_ray.config import DEFAULT_CONFIG, EngineConfig
from esmarc_ray.kernel import classify_entity, marc_get
from esmarc_ray.mapping import ENTITY_MAPPINGS
from esmarc_ray.values import collapse, merge_value


def evaluate_row(record: dict, spec: Any, entity: str, config: EngineConfig) -> Any:
    results = []
    if isinstance(spec, dict):
        for function, parameter in spec.items():
            if function is marc_get:
                results.append(marc_get(record, parameter, entity))
            else:
                results.append(function(record, parameter, entity, config))
    elif isinstance(spec, str):
        return spec
    elif isinstance(spec, list):
        for element in spec:
            results.append(collapse(evaluate_row(record, element, entity, config)))
    elif callable(spec):
        return collapse(spec(record, entity))
    if results:
        return collapse(results)
    return None


def remove_none(obj: Any) -> Any:
    """Rebuild dropping None keys/values/elements recursively (helperfunc.py:51-61)."""
    if isinstance(obj, (list, tuple, set)):
        return type(obj)(remove_none(x) for x in obj if x is not None)
    if isinstance(obj, dict):
        return type(obj)(
            (remove_none(k), remove_none(v))
            for k, v in obj.items()
            if k is not None and v is not None
        )
    return obj


def sanitize(obj: Any) -> Any:
    """``remove_none(remove_empty(obj))`` (helperfunc.py:51-86) in one
    traversal that builds new containers instead of editing in place.

    Dict entries with falsy values or None keys are dropped BEFORE recursion
    (a child that becomes empty during cleaning is kept, matching
    remove_empty); lists keep falsy non-None elements; tuples and sets see
    only remove_none semantics (remove_empty recurses into dicts and lists
    only).
    """
    if isinstance(obj, dict):
        return {k: sanitize(v) if v else v for k, v in obj.items() if k is not None and v}
    if isinstance(obj, list):
        return [sanitize(x) if x else x for x in obj if x is not None]
    if isinstance(obj, (tuple, set)):
        return remove_none(obj)
    return obj


def apply_arity(doc: dict, entity: str) -> dict:
    """Enforce the declared single/multi arity via the reference's substring
    match over mapping keys (helperfunc.py:36-48)."""
    for key in list(doc):
        for row_key in ENTITY_MAPPINGS[entity]:
            if key in row_key:
                value = doc[key]
                if "single" in row_key:
                    doc[key] = collapse(value)
                elif "multi" in row_key and not isinstance(value, list):
                    doc[key] = [value]
    return doc


def map_record(
    record: dict, config: EngineConfig = DEFAULT_CONFIG, source_index: str | None = None
) -> dict[str, dict] | None:
    """Map one record → {entity_class: JSON-LD doc}, or None (dropped)."""
    entity = classify_entity(record)
    if not entity:
        return None
    if source_index is None:
        source_index = config.source_index
    doc: dict = {}
    for row_key, spec in ENTITY_MAPPINGS[entity].items():
        target = row_key.split(":")[1]
        value = collapse(evaluate_row(record, spec, entity, config))
        if not value:
            continue
        if "related" in target and isinstance(value, dict) and "_key" in value:
            predicate = value.pop("_key")
            doc[predicate] = merge_value(doc.get(predicate), value)
        elif "related" in target and isinstance(value, list) and any("_key" in x for x in value):
            for element in value:
                if "_key" in element:
                    predicate = element.pop("_key")
                    doc[predicate] = merge_value(doc.get(predicate), element)
        else:
            doc[target] = merge_value(doc.get(target), value)
    if not doc:
        return None
    if source_index:
        doc["isBasedOn"] = (
            config.target_id + "source/" + source_index + "/" + marc_get(record, "001")
        )
    if isinstance(doc.get("sameAs"), list):
        for n, link in enumerate(doc["sameAs"]):
            doc["sameAs"][n]["isBasedOn"]["@id"] = doc["isBasedOn"]
            publisher = doc["sameAs"][n].get("publisher")
            if publisher and publisher["abbr"] == "BSZ":
                record_ppn = marc_get(record, "001")
                doc["sameAs"][n]["@id"] = (
                    f"https://swb.bsz-bw.de/DB=2.1/PPNSET?PPN={record_ppn}"
                )
    return {entity: apply_arity(sanitize(doc), entity)}
