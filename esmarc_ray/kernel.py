"""Record-level extraction kernel.

Reimplements the reference's core MARC accessors over the decoded nested
record dict (semantics: reference esmarc/marc.py:17-127):

* :func:`marc_values`  — path generator ``tag..code`` (marc.py:17-37)
* :func:`marc_get`     — scalar path get incl. ``a+b`` join variant (marc.py:40-80)
* :func:`subfield_sets`— per-occurrence subfield grouping with indicator
  predicate (marc.py:83-114); note the reference's ``!``-negation branch is
  dead code (the condition at marc.py:109 makes any ``!`` pattern
  unsatisfiable) — replicated by simply not supporting ``!``.
* :func:`classify_entity` — 079$b dispatch (marc.py:117-127)

These run per-document inside ``map_batches``; the batch boundary is Arrow,
the per-record semantics are order-sensitive string assembly that cannot be
vectorized without changing observable output (SURVEY.md §7.3).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from esmarc_ray.lookups import ENTITY_BY_CODE
from esmarc_ray.values import adjacent_uniq, collapse, merge_value


def marc_values(record: dict, spec: str) -> Iterator[Any]:
    """Yield all values of ``tag..code`` in record order, ignoring indicators.

    A bare 3-char spec present as a top-level key yields the raw field value
    (string or list) — that is how control fields are fetched.
    """
    if len(spec) == 3 and spec in record:
        yield record.get(spec)
        return
    field = record.get(spec[:3])
    code = spec[-1]
    if isinstance(field, list):
        for occurrence in field:
            if isinstance(occurrence, dict):
                for subfields in occurrence.values():
                    if isinstance(subfields, list):
                        for subfield in subfields:
                            if code in subfield:
                                yield subfield[code]


def _joined_get(record: dict, spec: str) -> Any:
    """The ``tag..a+b`` variant: join subfield groups with ". " per occurrence."""
    tag = spec[:3]
    if tag not in record:
        return None
    codes = spec.split(".")[-1].split("+")
    data = None
    for occurrence in record[tag]:
        for subfields in occurrence.values():
            sset: dict[str, Any] = {}
            for subfield in subfields:
                for code, value in subfield.items():
                    sset[code] = merge_value(sset.get(code), value)
            parts: list[str] = []
            for code in codes:
                value = sset.get(code)
                if isinstance(value, str):
                    parts.append(value)
                elif isinstance(value, list):
                    parts.append(". ".join(value))
            joined = ". ".join(parts)
            if joined:
                data = merge_value(data, joined)
    return collapse(data) if data else None


def marc_get(record: dict, spec: str | list[str], entity: str | None = None) -> Any:
    """Scalar-or-list get of one spec or a list of specs.

    Results from multiple specs merge with dedup; list results get an
    adjacent-dedup pass (order-sensitive, reference marc.py:78-79).
    """
    key = spec if isinstance(spec, str) else tuple(spec)
    get = _GETTERS.get(key)
    if get is None:
        get = _GETTERS[key] = compile_get(spec)
    return get(record)


# spec (a list spec as a tuple) -> its compiled accessor
_GETTERS: dict[Any, Callable[[dict], Any]] = {}


def compile_get(spec: str | list[str]) -> Callable[[dict], Any]:
    """``marc_get(record, spec)`` as a one-argument accessor, with the spec
    parsed once."""
    if isinstance(spec, str) and "+" in spec:
        return lambda record: _joined_get(record, spec)
    if isinstance(spec, str):
        tag = spec[:3]

        def get(record: dict) -> Any:
            if tag not in record:
                return None
            values = list(marc_values(record, spec))
            if len(values) == 1 and type(values[0]) is str:
                return values[0] or None
            return _finish_get(collapse(values))

        return get
    parts = [(one[:3], one) for one in spec]

    def get_merged(record: dict) -> Any:
        acc: Any = []
        for tag, one in parts:
            if tag in record:
                acc = merge_value(acc, collapse(list(marc_values(record, one))))
        return _finish_get(acc)

    return get_merged


def _finish_get(acc: Any) -> Any:
    if acc:
        if isinstance(acc, list):
            acc = adjacent_uniq(acc)
        return collapse(acc)
    return None


def _indicator_matches(pattern: str, indicator: str) -> bool:
    """Indicator predicate: '*' all, exact match, or 'x*' first-char prefix.

    Mirrors the (convoluted) condition at reference marc.py:109; ``!``
    patterns never match there, so they are rejected here as well.
    """
    if pattern.startswith("!"):
        return False
    if pattern == "*" or pattern == indicator:
        return True
    return len(pattern) == 2 and pattern[1] == "*" and pattern[0] == indicator[0]


def subfield_sets(
    record: dict, tags: str | list[str], indicators: str | list[str] = "*"
) -> Iterable[dict[str, Any]]:
    """Group each matching field occurrence's subfields into {code: scalar-or-list}.

    One dict per (occurrence, matching indicator pattern) — a single
    occurrence CAN be yielded more than once when several patterns match,
    exactly like the reference's nested pattern loop (marc.py:101-114).
    """
    if isinstance(tags, str):
        if len(tags) == 3 and tags not in record:
            return ()  # the hot case: most tags a row reads are absent
        tags = [tags]
    ind_list = [indicators] if isinstance(indicators, str) else list(indicators)
    return _subfield_sets(record, tags, ind_list)


def _subfield_sets(
    record: dict, tag_list: list[str], ind_list: list[str]
) -> Iterator[dict[str, Any]]:
    for tag in tag_list:
        if len(tag) == 3:
            # inlined marc_get for a bare tag (the hot case): fetch → adjacent
            # occurrence dedup → single-element collapse, same algebra without
            # the generator/merge layers
            field = record.get(tag)
            if isinstance(field, list):
                field = adjacent_uniq(field)
                if len(field) == 1:
                    field = field[0]
        else:
            field = marc_get(record, tag)
        if isinstance(field, dict):
            field = [field]
        if not field:
            continue
        for occurrence in field:
            for indicator, subfields in occurrence.items():
                for pattern in ind_list:
                    if _indicator_matches(pattern, indicator):
                        sset: dict[str, Any] = {}
                        for subfield in subfields:
                            for code, value in subfield.items():
                                sset[code] = merge_value(sset.get(code), value)
                        yield sset


def classify_entity(record: dict) -> str | None:
    """Entity class from 079$b; absent → "resources"; unknown code → None (drop).

    Reference: esmarc/marc.py:117-127 with the code table at
    lookup_tables/entities.py:1-9.
    """
    code = marc_get(record, "079..b")
    if code in ENTITY_BY_CODE:
        return ENTITY_BY_CODE[code]
    if not code:
        return "resources"
    return None
