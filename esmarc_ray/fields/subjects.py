"""Authority-link nodes, subjects, classifications, mentions.

Semantics: reference esmarc/subfields.py:9-125, esmarc/about.py:7-81,
esmarc/classifications.py:7-152.  ``mentions`` is the mention-detection stage
of the KG pipeline; goldens exist at reference tests/out/mentions/*.
"""

from __future__ import annotations

from esmarc_ray.config import DEFAULT_CONFIG
from esmarc_ray.fields.ids import authority_uri, mint_uri
from esmarc_ray.kernel import marc_get, subfield_sets
from esmarc_ray.lookups import (
    CLASSIFICATION_SCHEMES,
    ENTITY_BY_CODE,
    MENTION_FIELD_MAP,
    MENTION_TYPE_BY_CODE,
    SCHEMA_TYPE_BY_CODE,
)
from esmarc_ray.values import collapse, copy_tree, merge_value

# tag -> default linked-entity class for authority nodes (subfields.py:50-62)
_AUTHORITY_TAG_CLASS = {
    "100": "persons",
    "700": "persons",
    "500": "persons",
    "711": "events",
    "110": "swb",
    "710": "swb",
    "689": "topics",
    "550": "topics",
    "551": "geo",
    "655": "topics",
    "830": "resources",
}


def authority_node(record: dict, tag: str, entity: str, config=DEFAULT_CONFIG):
    """Generic authority-link node builder (reference get_subfield, subfields.py:46-125)."""
    entity_class = _AUTHORITY_TAG_CLASS.get(tag)
    data: list = []
    for sset in subfield_sets(record, tag, "*"):
        node: dict = {}
        if sset.get("t"):
            # work-title link; handled by the title machinery instead
            continue
        for type_code_key in ("D", "d"):
            if isinstance(sset.get(type_code_key), str):
                node["@type"] = "http://schema.org/"
                code = sset[type_code_key]
                if code in ENTITY_BY_CODE and code in SCHEMA_TYPE_BY_CODE:
                    node["@type"] += SCHEMA_TYPE_BY_CODE[code]
                    entity_class = ENTITY_BY_CODE[code]
                else:
                    node.pop("@type")
        if entity_class == "resources":
            if sset.get("w") and not sset.get("0"):
                sset["0"] = sset.get("w")
            if sset.get("v"):
                node["position"] = sset["v"]
        if sset.get("0"):
            zeros = sset["0"]
            if isinstance(zeros, list) and entity_class == "persons":
                for n, elem in enumerate(zeros):
                    if elem and "DE-576" in elem:
                        zeros.pop(n)
            uri = authority_uri(sset.get("0"))
            if isinstance(uri, str) and uri.startswith(config.base_id) and entity_class != "resources":
                node["@id"] = mint_uri(uri, entity_class, config)
            elif isinstance(uri, str) and uri.startswith(config.base_id) and entity_class == "resources":
                node["sameAs"] = config.base_id + mint_uri(uri, entity_class, config).split("/")[-1]
            elif isinstance(uri, str) and uri.startswith("http") and not uri.startswith(config.base_id):
                node["sameAs"] = uri
            elif isinstance(uri, str):
                node["identifier"] = uri
            elif isinstance(uri, list):
                node["sameAs"] = None
                node["identifier"] = None
                for elem in uri:
                    if isinstance(elem, str) and elem.startswith(config.base_id):
                        node["@id"] = mint_uri(elem, entity_class, config)
                    elif isinstance(elem, str) and elem.startswith("http") and not elem.startswith(config.base_id):
                        node["sameAs"] = merge_value(node["sameAs"], elem)
                    elif elem:
                        node["identifier"] = merge_value(node["identifier"], elem)
        name = sset.get("a")
        if isinstance(name, str) and len(name) > 1:
            node["name"] = name
        elif isinstance(name, list):
            for elem in name:
                if len(elem) > 1:
                    node["name"] = merge_value(node.get("name"), elem)
        if sset.get("i"):
            node["description"] = sset["i"]
        if sset.get("n") and entity_class == "events":
            node["position"] = sset["n"]
        if node:
            data = merge_value(data, node)
    return collapse(data) if data else None


def authority_nodes(record: dict, tags, entity: str, config=DEFAULT_CONFIG):
    """Multi-tag wrapper (reference get_subfields, subfields.py:30-43)."""
    if isinstance(tags, list):
        data: list = []
        for tag in tags:
            data = merge_value(data, authority_node(record, tag, entity, config))
        return collapse(data)
    if isinstance(tags, str):
        return authority_node(record, tags, entity, config)
    return None


def authority_node_if_4(record: dict, spec: str, entity: str, config=DEFAULT_CONFIG):
    """Authority node filtered on a $4 relator code (reference subfields.py:9-27).

    ``551^ortg`` keeps only occurrences whose $4 contains "ortg" (substring).
    Quirk preserved: a spec written ``551^4:orth`` yields the literal code
    "4:orth" which never substring-matches → never emits (SURVEY.md §2.3
    get_subfield_if_4 row; reference esmarc.py:61).
    """
    tag, _, code4 = spec.rpartition("^")
    data = None
    for sset in subfield_sets(record, tag, "*"):
        if sset.get("4") and code4 in sset.get("4"):
            # only record[tag] is read (via subfield_sets) and mutated below,
            # so deep-copy just that field instead of the whole record
            pruned = dict(record)
            pruned[tag] = copy_tree(record[tag])
            for i, occurrence in enumerate(pruned[tag]):
                # the reference assumes indicator "__" here; any other
                # indicator raises (record drop) — subfields.py:20-23
                for elem in occurrence.get("__"):
                    if elem.get("4") and code4 != elem["4"]:
                        del pruned[tag][i]["__"]
            # note the reversed accumulator order (reference subfields.py:24-25)
            data = merge_value(authority_nodes(pruned, tag, entity, config), data)
    return collapse(data) if data else None


def about_nodes(record: dict, tags, entity: str, config=DEFAULT_CONFIG):
    """schema.org/about from RVK (936/084), DDC (082/083), 655 (reference about.py:7-39)."""
    out: list = []
    for tag in tags:
        if tag in ("936", "084"):
            data = marc_get(record, tag)
            if isinstance(data, list):
                for elem in data:
                    out.append(_rvk_node(elem))
            elif isinstance(data, dict):
                out.append(_rvk_node(data))
        elif tag in ("082", "083"):
            data = marc_get(record, tag + "..a")
            if isinstance(data, list):
                for elem in data:
                    if isinstance(elem, str):
                        out.append(_ddc_node(elem))
                    elif isinstance(elem, list):
                        for final in elem:
                            out.append(_ddc_node(final))
            elif isinstance(data, (dict, str)):
                out.append(_ddc_node(data))
        elif tag == "655":
            out.append(authority_node(record, tag, entity, config))
    return out if out else None


def _ddc_node(value):
    return {
        "identifier": {"@type": "PropertyValue", "propertyID": "DDC", "value": value},
        "@id": "http://purl.org/NET/decimalised#c" + value[:3],
    }


def _rvk_node(occurrence):
    if "rv" not in occurrence:
        return None
    sset: dict = {}
    for subfield in occurrence["rv"]:
        for code, value in subfield.items():
            sset[code] = merge_value(sset.get(code), value)
    node: dict = {}
    zeros = sset.get("0")
    if isinstance(zeros, str):
        zeros = [zeros]
    if isinstance(zeros, list):
        node["sameAs"] = []
        for elem in zeros:
            if isinstance(elem, str):
                uri = authority_uri(elem)
                if uri:
                    node["sameAs"].append(uri)
    if "a" in sset:
        node["@id"] = (
            "https://rvk.uni-regensburg.de/api/json/ancestors/"
            + sset["a"].replace(" ", "%20")
        )
        node["identifier"] = {"@type": "PropertyValue", "propertyID": "RVK", "value": sset["a"]}
    if "b" in sset:
        node["name"] = sset["b"]
    if "k" in sset:
        node["keywords"] = sset["k"]
    return node


def _merge_classification(data: list, entry: dict) -> list:
    """Merge by scheme name, appending new codeValues (reference classifications.py:7-17)."""
    if not data:
        return [entry]
    for n, item in enumerate(data):
        if entry["name"] == item["name"]:
            if entry["CategoryCodes"][0] not in item["CategoryCodes"]:
                data[n]["CategoryCodes"].append(entry["CategoryCodes"][0])
            return data
    data.append(entry)
    return data


def classification_nodes(record: dict, specs, entity: str, config=DEFAULT_CONFIG):
    """CategoryCodeSet nodes from 050/082/084 (reference get_class, classifications.py:20-51)."""
    data: list = []
    for spec in specs:  # e.g. "084.__"
        tag, _, indicator = spec.partition(".")
        for sset in subfield_sets(record, tag, indicator):
            values = sset.get("a")
            if not values:
                continue
            if isinstance(values, str):
                values = [values]
            for item in values:
                entry = None
                if spec in CLASSIFICATION_SCHEMES:
                    entry = copy_tree(CLASSIFICATION_SCHEMES[spec])
                elif sset.get("2") in CLASSIFICATION_SCHEMES:
                    entry = copy_tree(CLASSIFICATION_SCHEMES[sset["2"]])
                if entry:
                    entry["CategoryCodes"][0]["codeValue"] = item
                    if entry["CategoryCodes"][0].get("@id"):
                        entry["CategoryCodes"][0]["@id"] += item
                    data = _merge_classification(data, entry)
    return data if data else None


def mention_nodes(record: dict, tags, entity: str, config=DEFAULT_CONFIG):
    """Typed mention nodes from the 6XX subject fields (reference get_mentions,
    classifications.py:54-152; goldens tests/out/mentions/*)."""
    data: list = []
    for tag in tags:
        for sset in subfield_sets(record, tag, "*"):
            node: dict = {}
            if tag == "689":
                if sset.get("5"):
                    continue
                if sset.get("A") == "z":
                    node["@type"] = "ChronologicalSubject"
                elif sset.get("D"):
                    node["@type"] = MENTION_TYPE_BY_CODE[sset["D"]]
                    if sset.get("0"):
                        zeros = [sset["0"]] if isinstance(sset["0"], str) else sset["0"]
                        sset["0"] = zeros
                        for item in zeros:
                            if item.startswith("(DE-627") and sset.get("D") in ENTITY_BY_CODE:
                                node["@id"] = "{}{}/{}".format(
                                    config.target_id, ENTITY_BY_CODE[sset["D"]], item.split(")")[1]
                                )
                            if item.startswith("(DE-588"):
                                node["sameAs"] = "https://d-nb.info/gnd/" + item.split(")")[1]
            if tag in MENTION_FIELD_MAP:
                node["@type"] = MENTION_FIELD_MAP[tag]["@type"]
                if tag in ("610", "611") and (sset.get("c") or sset.get("d")):
                    node["@type"] = "Event"
                if sset.get("0"):
                    zeros = [sset["0"]] if isinstance(sset["0"], str) else sset["0"]
                    sset["0"] = zeros
                    for item in zeros:
                        if item.startswith("(DE-627"):
                            if tag in ("610", "611") and (sset.get("c") or sset.get("d")):
                                node["@id"] = f"{config.target_id}events/{item.split(')')[1]}"
                            elif MENTION_FIELD_MAP[tag].get("@id"):
                                node["@id"] = "{}{}/{}".format(
                                    config.target_id, MENTION_FIELD_MAP[tag]["@id"], item.split(")")[1]
                                )
                        if item.startswith("(DE-588"):
                            node["sameAs"] = "https://d-nb.info/gnd/" + item.split(")")[1]
            if sset.get("a"):
                if tag.startswith("65") and isinstance(sset["a"], list):
                    for item in sset["a"]:
                        node["preferredName"] = item
                        node["name"] = item
                        entry = copy_tree(node)
                        if entry not in data:
                            data.append(entry)
                    continue
                node["preferredName"] = sset["a"]
                node["name"] = sset["a"]
            if tag == "600":
                if sset.get("b"):
                    node["preferredName"] += f" {sset['b']}"
                    node["name"] += f" {sset['b']}"
                if sset.get("c"):
                    node["preferredName"] += f", {sset['c']}"
                    node["name"] += f", {sset['c']}"
                if sset.get("d"):
                    node["preferredName"] += f" ({sset['d']})"
            if node.get("@type") == "Organisation":
                if sset.get("b"):
                    node["preferredName"] += f", {sset['b']}"
                    node["name"] += f", {sset['b']}"
                if sset.get("g"):
                    node["preferredName"] += f", {sset['g']}"
                if sset.get("e"):
                    node["name"] += f", {sset['e']}"
            if node.get("@type") == "Event":
                for code in ("n", "d", "c", "e", "g"):
                    if sset.get(code):
                        node["preferredName"] += f", {sset[code]}"
            if tag == "630" or (tag == "689" and sset.get("D") in ("g", "u")):
                if sset.get("p"):
                    node["preferredName"] += f" / {sset['p']}"
                    node["name"] += f" / {sset['p']}"
                if sset.get("n"):
                    node["preferredName"] += f" <{sset['n']}>"
            if (tag in ("630", "650") or (tag == "689" and sset.get("D") in ("g", "u", "s"))) and sset.get("g"):
                node["name"] += f" <{sset['g']}>"
                node["preferredName"] += f" <{sset['g']}>"
            if sset.get("n") and (tag in ("610", "611", "630") or (tag == "689" and sset.get("D") in ("b", "u", "f"))):
                node["position"] = []
                numbers = [sset["n"]] if isinstance(sset["n"], str) else sset["n"]
                sset["n"] = numbers
                for item in numbers:
                    node["position"].append(item[1:] if item.startswith("(") else item)
            if sset.get("d") and (tag in ("600", "610", "611") or (tag == "689" and sset.get("D") in ("f", "n", "p"))):
                node["date"] = sset["d"][1:] if sset["d"].startswith("(") else sset["d"]
            if sset.get("g") and (tag in ("610", "611", "630", "650") or (tag == "689" and sset.get("D") in ("b", "f", "s", "u"))):
                node["additionalInformation"] = sset["g"]
            if node not in data:
                data.append(node)
    return data if data else None
