"""Scalar-or-list value algebra.

The reference's entire "type system" is two helpers from its external
``es2json`` dependency (declared at reference setup.py:44, used at ~60 sites,
e.g. esmarc/processing.py:20-25,38 and esmarc/marc.py:54,66,75):

* ``ArrayOrSingleValue`` — collapse a 1-element list to its element, empty
  to None (here: :func:`collapse`)
* ``litter`` — merge a value into a possibly-scalar accumulator, producing
  a deduplicated list (here: :func:`merge_value`)

These are reimplemented from observed call-site semantics.  The engine keeps
values as lists internally wherever it can and only collapses at the
serialization boundary, but the mapping functions must reproduce the
reference's emission byte-for-byte, so the same algebra is available here.
"""

from __future__ import annotations

import copy
import json
from json.encoder import c_make_encoder, encode_basestring
from typing import Any


if c_make_encoder is None:  # pragma: no cover - CPython always builds _json
    raise ImportError("esmarc_ray needs the C accelerator of the json module (_json)")

# ``JSONEncoder.encode`` builds a new C encoder on every call; this one is
# built once with the arguments ``json.dumps(value, sort_keys=True,
# ensure_ascii=False)`` passes it: no indent, ": " / ", " separators,
# sort_keys, no skipkeys, allow_nan.  ``markers=None`` turns off cycle
# detection — docs and nodes are trees.
_iterencode = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring, None, ": ", ", ", True, False, True
)


def to_json(value: Any) -> str:
    """The engine's canonical JSON text of a doc or node: byte-identical to
    ``json.dumps(value, sort_keys=True, ensure_ascii=False)``."""
    if isinstance(value, str):  # as JSONEncoder.encode does
        return encode_basestring(value)
    return "".join(_iterencode(value, 0))


def collapse(value: Any) -> Any:
    """Collapse list-of-one to the element; empty/falsy containers to None.

    Scalars (including non-empty strings and dicts) pass through unchanged.
    Mirrors the reference's ``ArrayOrSingleValue`` at every observed call site.
    """
    kind = type(value)
    if kind is str or kind is dict:
        return value or None
    if kind is list:
        if len(value) == 1:
            return value[0]
        return value or None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if not value:
        return None
    if isinstance(value, list):
        if len(value) == 1:
            return value[0]
        return value
    return value


def merge_value(acc: Any, item: Any) -> Any:
    """Merge ``item`` into accumulator ``acc``; dedup, preserve first-seen order.

    * falsy ``acc`` → return ``item`` unchanged (scalar stays scalar)
    * otherwise ``acc`` is promoted to a list and ``item`` (or each element of
      a list ``item``) is appended if not already present.

    Mirrors the reference's ``es2json.litter``.
    """
    if not acc:
        return item
    if isinstance(acc, (str, dict)):
        acc = [acc]
    if isinstance(item, (str, dict)):
        if item not in acc:
            acc.append(item)
    elif isinstance(item, list):
        for element in item:
            if element not in acc:
                acc.append(element)
    elif item is not None and item not in acc:
        acc.append(item)
    return acc


def as_list(value: Any) -> list:
    """Normalize scalar-or-list to a list ([] for None)."""
    if value is None:
        return []
    if isinstance(value, list):
        return value
    return [value]


def first(value: Any) -> Any:
    """First element of a scalar-or-list value (None for empty)."""
    if isinstance(value, list):
        return value[0] if value else None
    return value


def is_intlike(value: Any) -> bool:
    """True when ``value`` parses as an int (reference: es2json.isint)."""
    try:
        int(value)
        return True
    except (TypeError, ValueError):
        return False


def adjacent_uniq(items: list) -> list:
    """Drop *adjacent* duplicates, preserving order.

    The reference dedups ``getmarc`` results this way (esmarc/marc.py:5-14,
    applied at marc.py:78-79); it is order-sensitive and NOT a set-dedup.
    """
    out: list = []
    previous: Any = object()
    for item in items:
        if item == previous:
            continue
        out.append(item)
        previous = item
    return out


def copy_tree(value: Any) -> Any:
    """Deep copy of JSON-shaped data: new dicts and lists all the way down,
    strings and other scalars shared.

    On data in which no container is reachable twice — parsed JSON, decoded
    records, freshly built mapping nodes — this is ``copy.deepcopy``'s result
    without its memo bookkeeping; any other type is handed to
    ``copy.deepcopy``.
    """
    kind = type(value)
    if kind is dict:
        return {k: v if type(v) is str else copy_tree(v) for k, v in value.items()}
    if kind is list:
        return [v if type(v) is str else copy_tree(v) for v in value]
    if kind is str or value is None or kind is int or kind is float or kind is bool:
        return value
    return copy.deepcopy(value)
