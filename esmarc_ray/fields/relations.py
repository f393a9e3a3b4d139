"""Series / part-of / relation extractors.

Semantics: reference esmarc/relatedTo.py:9-218.  The dynamic-predicate
``relatedTo`` emits a ``_key`` that the mapping layer re-keys into the final
predicate (reference processing.py:40-49) — in triple form that key simply
becomes the ``pred`` value.
"""

from __future__ import annotations

from esmarc_ray.config import DEFAULT_CONFIG
from esmarc_ray.fields.ids import authority_uri, mint_uri
from esmarc_ray.fields.titles import title_object
from esmarc_ray.kernel import marc_get, subfield_sets
from esmarc_ray.lookups import RELATION_BY_CODE
from esmarc_ray.values import collapse, merge_value


def series_statement(record: dict, tag, entity: str, config=DEFAULT_CONFIG):
    """490 ind 0_ name/position nodes (reference relatedTo.py:9-20)."""
    out = []
    for sset in subfield_sets(record, tag, "0_"):
        node = {"name": sset.get("a"), "position": sset.get("v")}
        out.append(node)
    return out or None


def part_of_series(record: dict, tags, entity: str, config=DEFAULT_CONFIG):
    """776/800/810/811/830 series membership (reference relatedTo.py:23-60).

    776 occurrences are restricted to indicator ``1_``.
    """
    out = []
    for tag in tags:
        field = marc_get(record, tag)
        if isinstance(field, dict):
            field = [field]
        if not field:
            continue
        for occurrence in field:
            for indicator, subfields in occurrence.items():
                if tag == "776" and indicator != "1_":
                    continue
                sset: dict = {}
                node: dict = {}
                for subfield in subfields:
                    for code, value in subfield.items():
                        sset[code] = merge_value(sset.get(code), value)
                if sset.get("w"):
                    links = [sset["w"]] if isinstance(sset["w"], str) else sset["w"]
                    sset["w"] = links
                    for item in links:
                        if item.startswith("(DE-627"):
                            node["@id"] = f"{config.target_id}resources/{item[8:]}"
                if sset.get("a") and not sset.get("t"):
                    node["name"] = sset["a"]
                elif sset.get("a") and sset.get("t"):
                    node["name"] = f"{sset['t']} / {sset['a']}"
                elif sset.get("t"):
                    node["name"] = sset["t"]
                if sset.get("v"):
                    node["position"] = sset["v"]
                elif sset.get("9"):
                    node["position"] = sset["9"]
                if node:
                    out.append(node)
    return out or None


def is_part_of(record: dict, tags, entity: str, config=DEFAULT_CONFIG):
    """773 ind 08/18 host-item links (reference relatedTo.py:63-101).

    The ind-18 branch re-runs the full title assembly on the record.
    """
    out = []
    for indicator in ("08", "18"):
        for sset in subfield_sets(record, "773", indicator):
            node: dict = {}
            if sset.get("w"):
                links = [sset["w"]] if isinstance(sset["w"], str) else sset["w"]
                sset["w"] = links
                for item in links:
                    if item.startswith("(DE-627"):
                        node["@id"] = f"{config.target_id}resources/{item[8:]}"
            if isinstance(sset.get("g"), str):
                sset["g"] = [sset["g"]]
            if sset.get("g"):
                node["position"] = ", ".join(sset["g"])
            if indicator == "08":
                if sset.get("a") and not sset.get("t"):
                    node["name"] = sset["a"]
                elif sset.get("a") and sset.get("t"):
                    node["name"] = f"{sset['t']} / {sset['a']}"
                elif sset.get("t"):
                    node["name"] = sset["t"]
                if isinstance(sset.get("d"), str):
                    sset["d"] = [sset["d"]]
                if sset.get("d"):
                    node["publisherNote"] = ", ".join(sset["d"])
                node["displayLabel"] = sset.get("i")
            elif indicator == "18":
                title = title_object(
                    record,
                    ["130", "210", "240", "245", "246", "247", "249", "501", "505", "700", "710", "711", "730"],
                    entity,
                    config,
                )
                node["mainTitle"] = title.get("mainTitle")
                if isinstance(title.get("partStatement"), list):
                    node["partStatement"] = title["partStatement"][0]
                node["name"] = "{}. {}".format(title.get("mainTitle"), node.get("partStatement"))
            if node.get("@id"):
                out.append(node)
    return out or None


def relations_of(record: dict, tags, entity: str, config=DEFAULT_CONFIG):
    """770-787 ind 0* linked-resource relations (reference relatedTo.py:104-127)."""
    out = []
    for sset in subfield_sets(record, tags, "0*"):
        node: dict = {}
        if sset.get("w"):
            links = [sset["w"]] if isinstance(sset["w"], str) else sset["w"]
            sset["w"] = links
            for item in links:
                if item.startswith("(DE-627"):
                    node["@id"] = f"{config.target_id}resources/{item[8:]}"
        if sset.get("a") and not sset.get("t"):
            node["name"] = sset["a"]
        elif sset.get("a") and sset.get("t"):
            node["name"] = f"{sset['t']} / {sset['a']}"
        elif sset.get("t"):
            node["name"] = sset["t"]
        if sset.get("i"):
            node["relationType"] = sset["i"]
        if node:
            out.append(node)
    return out or None


def _route_zero(node: dict, zeros, entity_class: str, split_eq: bool, config) -> None:
    """$0 routing into @id / sameAs / identifier (reference relatedTo.py:158-178,194-214)."""
    uri = authority_uri(zeros)
    if isinstance(uri, str) and uri.startswith(config.base_id):
        node["@id"] = mint_uri(zeros, entity_class, config)
    elif isinstance(uri, str) and uri.startswith("http") and not uri.startswith(config.base_id):
        node["sameAs"] = uri
    elif isinstance(uri, str):
        node["identifier"] = zeros if split_eq else uri
    elif isinstance(uri, list):
        node["sameAs"] = None
        node["identifier"] = None
        for elem in uri:
            if elem and isinstance(elem, str) and elem.startswith(config.base_id):
                node["@id"] = mint_uri(elem.split("=")[-1], entity_class, config)
            elif elem and isinstance(elem, str) and elem.startswith("http") and not elem.startswith(config.base_id):
                node["sameAs"] = merge_value(node["sameAs"], elem)
            elif elem:
                node["identifier"] = merge_value(node["identifier"], elem)


def related_to(record: dict, spec: str, entity: str, config=DEFAULT_CONFIG):
    """GND relator-coded relations with dynamic predicate via ``_key``.

    Reference relatedTo.py:130-218.  The linked-entity class starts as
    "persons" and sticks at "works" once any $t occurrence is seen — that
    cross-occurrence carry-over is reference behavior, preserved.
    """
    tag = spec[:3]
    data: list = []
    entity_class = "persons"
    if tag not in record:
        return None
    for occurrence in record[tag]:
        for subfields in occurrence.values():
            sset: dict = {}
            node: dict = {}
            for subfield in subfields:
                for code, value in subfield.items():
                    sset[code] = merge_value(sset.get(code), value)
            if sset.get("a") and not sset.get("t"):
                node["name"] = sset.get("a")
            elif sset.get("a") and sset.get("t"):
                node["name"] = sset.get("t")
                node["author"] = sset.get("a")
                entity_class = "works"
            elif sset.get("t"):
                node["name"] = sset.get("t")
                entity_class = "works"
            nine = sset.get("9")
            if isinstance(nine, str) and nine in RELATION_BY_CODE:
                node["_key"] = RELATION_BY_CODE[nine]
                if sset.get("0"):
                    _route_zero(node, sset.get("0"), entity_class, split_eq=False, config=config)
                data.append(node)
            elif isinstance(nine, list):
                for elem in nine:
                    if elem.startswith("v"):
                        for code, predicate in RELATION_BY_CODE.items():
                            if code.lower() in elem.lower():
                                node["_key"] = predicate
                                break
                    elif [c for c in RELATION_BY_CODE if c.lower() in elem.lower()]:
                        for code in RELATION_BY_CODE:
                            if code.lower() in elem.lower():
                                node["_key"] = RELATION_BY_CODE[code]
                    elif not node.get("_key"):
                        node["_key"] = "relatedTo"
                if sset.get("0"):
                    _route_zero(node, sset.get("0"), entity_class, split_eq=True, config=config)
                data.append(node)
    return collapse(data) if data else None
