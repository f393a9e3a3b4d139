"""Identifier & URI extractors.

Semantics: reference esmarc/id.py:7-299.  One deliberate deviation: the
reference dedups several value lists via ``list(set(...))`` (id.py:115,132,…)
whose order depends on the per-process string-hash seed; this engine uses
insertion-order-stable dedup instead (SURVEY.md §7.3 "order-unstable sites").
The parity gate compares those lists order-insensitively.
"""

from __future__ import annotations

from esmarc_ray.config import DEFAULT_CONFIG, EngineConfig
from esmarc_ray.kernel import marc_get, subfield_sets
from esmarc_ray.lookups import IDENTIFIER_URI_PREFIXES, ISIL_AUTHORITIES
from esmarc_ray.values import as_list, merge_value


def authority_uri(token):
    """``(DE-588)1231111151`` → ``https://d-nb.info/gnd/1231111151``.

    Reference gnd2uri + uri2url (id.py:7-37): ISIL-prefixed tokens resolve
    through the authority table; ``(DE-576)`` deliberately maps to None;
    anything unparseable → None.  Lists map element-wise.
    """
    if isinstance(token, list):
        return [authority_uri(item) for item in token]
    try:
        if token and "(DE-" in token:
            isil = "(" + token.split(")")[0][1:] + ")"
            number = token.split(")")[1].upper()
            if isil == "(DE-576)":
                return None
            if number and isil in ISIL_AUTHORITIES:
                return ISIL_AUTHORITIES[isil]["@id"] + number
    except Exception:
        return None
    return None


def mint_uri(raw_id: str, entity: str, config: EngineConfig = DEFAULT_CONFIG):
    """Mint the target entity URI ``<target_id><entity>/<ppn>`` (id.py:40-50)."""
    if raw_id.startswith(config.base_id):
        raw_id = raw_id.split(config.base_id)[1]
    if config.target_id and entity and raw_id:
        return f"{config.target_id}{entity}/{raw_id}"
    return None


def record_id(record: dict, spec, entity: str, config: EngineConfig = DEFAULT_CONFIG):
    """@id from 001 (reference getid, id.py:53-59)."""
    raw = marc_get(record, spec)
    if raw:
        return mint_uri(raw, entity, config)
    return None


def record_isil(record: dict, spec, entity: str, config: EngineConfig = DEFAULT_CONFIG):
    """First value whose ``(X)`` form is a known authority (id.py:62-72)."""
    value = marc_get(record, spec)
    if isinstance(value, str) and f"({value})" in ISIL_AUTHORITIES:
        return value
    if isinstance(value, list):
        for item in value:
            if f"({item})" in ISIL_AUTHORITIES:
                return item
    return None


def property_value_identifiers(record: dict, spec, entity: str, config=DEFAULT_CONFIG):
    """024 $2-keyed PropertyValue identifiers (urn/hdl/doi); id.py:75-90."""
    out = []
    for sset in subfield_sets(record, spec, "*"):
        scheme, value = sset.get("2"), sset.get("a")
        if scheme and value and scheme in IDENTIFIER_URI_PREFIXES:
            out.append(
                {
                    "@id": f"{IDENTIFIER_URI_PREFIXES[scheme]}{value}",
                    "@type": "PropertyValue",
                    "propertyID": scheme,
                    "value": value,
                }
            )
    return out or None


def _stable_dedup(values: list) -> list:
    """Order-stable replacement for the reference's list(set(...)) sites."""
    return list(dict.fromkeys(values))


def _listify_dedup(node: dict, keys: tuple[str, ...]) -> None:
    """Normalize scalar → [scalar] and dedup lists in place (id.py:110-115 pattern)."""
    for key in keys:
        if key in node:
            value = node[key]
            if isinstance(value, str):
                node[key] = [value]
            elif isinstance(value, list):
                node[key] = _stable_dedup(value)


# linking-entry fields whose $z holds related ISBNs, with their indicators
_RELATED_ISBN_FIELDS = (
    ("770", "*"), ("772", "*"), ("773", "*"), ("775", "*"),
    ("776", ["08", "1_"]), ("780", "*"), ("785", "*"), ("787", "00"),
)
# fields whose $x holds related ISSNs
_RELATED_ISSN_TAGS = ["770", "772", "773", "775", "776", "780", "785", "787", "800", "810", "811", "830"]


def identified_by(record: dict, specs, entity: str, config=DEFAULT_CONFIG):
    """All typed identifier nodes of a resource (ISBN/ISSN/…); id.py:93-299."""
    data: list[dict] = []

    isbn: dict = {"@type": "ISBN"}
    for sset in subfield_sets(record, "020", "*"):
        if sset.get("a"):
            isbn["validValues"] = merge_value(isbn.get("validValues"), sset.get("a"))
        if sset.get("z"):
            isbn["invalidValues"] = merge_value(isbn.get("invalidValues"), sset.get("z"))
    for tag, indicator in _RELATED_ISBN_FIELDS:
        for sset in subfield_sets(record, tag, indicator):
            if sset.get("z"):
                isbn["relatedValues"] = merge_value(isbn.get("relatedValues"), sset.get("z"))
    _listify_dedup(isbn, ("validValues", "relatedValues", "invalidValues"))
    if isbn.get("validValues") or isbn.get("relatedValues") or isbn.get("invalidValues"):
        data.append(isbn)

    issn: dict = {"@type": "ISSN"}
    for sset in subfield_sets(record, "022", "*"):
        if sset.get("a"):
            issn["validValues"] = merge_value(issn.get("validValues"), sset.get("a"))
        if sset.get("y"):
            issn["invalidValues"] = merge_value(issn.get("invalidValues"), sset.get("y"))
    for sset in subfield_sets(record, _RELATED_ISSN_TAGS, "*"):
        if "x" in sset:
            issn["relatedValues"] = merge_value(issn.get("relatedValues"), sset.get("x"))
    _listify_dedup(issn, ("validValues", "relatedValues", "invalidValues"))
    if issn.get("validValues") or issn.get("relatedValues") or issn.get("invalidValues"):
        data.append(issn)

    ismn: dict = {"@type": "ISMN"}
    for sset in subfield_sets(record, "022", "2_"):
        if sset.get("a"):
            ismn["validValues"] = merge_value(ismn.get("validValues"), sset.get("a"))
        if sset.get("z"):
            ismn["invalidValues"] = merge_value(ismn.get("invalidValues"), sset.get("z"))
    _listify_dedup(ismn, ("validValues", "invalidValues"))
    if ismn.get("validValues") or ismn.get("invalidValues"):
        data.append(ismn)

    upc: dict = {"@type": "UPC"}
    for sset in subfield_sets(record, "022", "1_"):
        if sset.get("a"):
            upc["validValues"] = merge_value(upc.get("validValues"), sset.get("a"))
    _listify_dedup(upc, ("validValues",))
    if upc.get("validValues"):
        data.append(upc)

    ean: dict = {"@type": "EAN"}
    for sset in subfield_sets(record, "024", "3_"):
        if sset.get("a"):
            ean["validValues"] = merge_value(ean.get("validValues"), sset.get("a"))
    _listify_dedup(ean, ("validValues",))
    if ean.get("validValues"):
        data.append(ean)

    for sset in subfield_sets(record, "024", "8_"):
        unspecified: dict = {"@type": "Unspecified Number"}
        if sset.get("q"):
            unspecified["label"] = merge_value(unspecified.get("label"), sset.get("q"))
        if sset.get("a"):
            unspecified["validValues"] = merge_value(unspecified.get("validValues"), sset.get("a"))
        _listify_dedup(unspecified, ("validValues", "label"))
        if unspecified.get("validValues") and unspecified not in data:
            data.append(unspecified)

    for sset in subfield_sets(record, "028", "*"):
        order: dict = {"@type": "Order Number"}
        if sset.get("q"):
            order["label"] = merge_value(order.get("label"), sset.get("q"))
        if sset.get("a"):
            order["validValues"] = merge_value(order.get("validValues"), sset.get("a"))
        if sset.get("b"):
            order["publisher"] = merge_value(order.get("publisher"), sset.get("b"))
        _listify_dedup(order, ("validValues", "label", "publisher"))
        if order.get("validValues") and order not in data:
            data.append(order)

    for sset in subfield_sets(record, "088", "*"):
        report: dict = {"@type": "Report Number"}
        if sset.get("a"):
            report["validValues"] = merge_value(report.get("validValues"), sset.get("a"))
        _listify_dedup(report, ("validValues",))
        if report.get("validValues") and report not in data:
            data.append(report)

    nbn: dict = {"@type": "NBN", "validValues": None}
    for sset in subfield_sets(record, "015", "*"):
        if sset.get("2") == "dnb" and sset.get("a"):
            nbn["validValues"] = sset["a"]
            if isinstance(nbn["validValues"], str):
                nbn["validValues"] = [nbn["validValues"]]
            if nbn not in data:
                data.append(nbn)

    vd_ssets = list(subfield_sets(record, "024", "7_"))  # read, never edited, below
    for vd_year in ("16", "17", "18"):
        vd: dict = {"@type": f"VD-{vd_year}", "validValues": None}
        for sset in vd_ssets:
            if vd_year in ("17", "18"):
                if sset.get("z") and sset.get("2") == f"vd{vd_year}":
                    vd["invalidValues"] = sset["z"]
                    if isinstance(vd["invalidValues"], str):
                        vd["invalidValues"] = [vd["invalidValues"]]
            if sset.get("2") == f"vd{vd_year}" and sset.get("a"):
                vd["validValues"] = sset["a"]
                if isinstance(vd["validValues"], str):
                    vd["validValues"] = [vd["validValues"]]
                if vd not in data:
                    data.append(vd)

    fingerprint: dict = {"@type": "Fingerprint Hash", "validValues": None}
    for sset in subfield_sets(record, "026", "*"):
        if sset.get("e"):
            fingerprint["validValues"] = sset["e"]
            if isinstance(fingerprint["validValues"], str):
                fingerprint["validValues"] = [fingerprint["validValues"]]
            if fingerprint not in data:
                data.append(fingerprint)

    oclc: dict = {"@type": "OCLC", "validValues": None}
    for sset in subfield_sets(record, "035", "*"):
        value = sset.get("a")
        if value and isinstance(value, str) and value.startswith("(OCoLC)"):
            oclc["validValues"] = merge_value(oclc.get("validValues"), value.split(")")[1])
    if isinstance(oclc["validValues"], str):
        oclc["validValues"] = [oclc["validValues"]]
    if oclc not in data:
        # quirk preserved: the reference appends the OCLC node even when empty
        # (id.py:274-275 has no validValues guard)
        data.append(oclc)

    bibref: dict = {"@type": "Bibliografic References", "validValues": None}
    for sset in subfield_sets(record, "510", "*"):
        if sset.get("a"):
            bibref["validValues"] = merge_value(bibref.get("validValues"), sset["a"])
    if isinstance(bibref["validValues"], str):
        bibref["validValues"] = [bibref["validValues"]]
    if bibref.get("validValues") and bibref not in data:
        data.append(bibref)

    coden: dict = {"@type": "CODEN", "validValues": None}
    for sset in subfield_sets(record, "030", "*"):
        if sset.get("a"):
            coden["validValues"] = merge_value(coden.get("validValues"), sset["a"])
    if isinstance(coden["validValues"], str):
        coden["validValues"] = [coden["validValues"]]
    if coden.get("validValues") and coden not in data:
        data.append(coden)

    return data or None
