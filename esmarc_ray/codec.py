"""Span codec: interleaved text+media document rows ↔ nested MARC21-JSON.

The engine's physical input is a table of interleaved documents
(BASELINE.json ``input_hint``)::

    doc_id : string
    spans  : list<struct<kind:string, text:string, media_ref:string, offset:int32>>

One span per leader / control-value / subfield occurrence, in record order.
``kind`` grammar (FIXTURES.md §1, extended with an occurrence ordinal so that
consecutive same-tag occurrences stay distinguishable)::

    ldr                          MARC leader (_LEADER)
    meta:<key>                   other top-level string metadata (_FORMAT, _TYPE, ...)
    ctl:<tag>                    control field 001-009; one span per value
    sub:<tag>:<ind>:<code>:<occ> one data-subfield occurrence; <ind> is the
                                 2-char indicator pair (blank → "_"); <occ> is
                                 the 0-based occurrence ordinal of <tag>
    media                        interleaved media reference derived from the
                                 immediately preceding sub:856:<ind>:u span

The decoded form is exactly the reference's nested record dict (hardcoded
traversal in reference esmarc/marc.py:17-37; live shape e.g.
reference tests/in/1405783028)::

    {"001": "...",                       # bare string
     "003": ["DE-627"],                  # control fields: list of strings
     "264": [{"_1": [{"a": "..."}, ...]}],  # data: list of {ind: [{code: val}]}
     "_LEADER": "...", "_FORMAT": "MarcXchange"}

Per-row invariant (the north rule's span-sequence equality): for every row,
``encode_record(decode_spans(spans)) == spans`` on (kind, text, media_ref,
order) — media spans are derived deterministically from 856$u so the
round-trip reproduces them bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

DOCUMENT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)


def _is_control_tag(tag: str) -> bool:
    return len(tag) == 3 and tag.isdigit() and tag < "010"


def encode_record(record: dict[str, Any]) -> list[dict[str, Any]]:
    """Encode one nested MARC21-JSON record into an ordered span list."""
    spans: list[dict[str, Any]] = []

    def emit(kind: str, text: str = "", media_ref: str = "") -> None:
        spans.append(
            {"kind": kind, "text": text, "media_ref": media_ref, "offset": len(spans)}
        )

    tag_occurrences: dict[str, int] = {}
    for key, value in record.items():
        if key == "_LEADER":
            emit("ldr", value)
        elif key.startswith("_"):
            emit(f"meta:{key}", value)
        elif _is_control_tag(key):
            if isinstance(value, str):
                emit(f"ctl:{key}", value)
            else:
                for item in value:
                    emit(f"ctl:{key}", item)
        else:
            # data field: list of single-key {indicator: [ {code: value}, ... ]}
            for occurrence in value:
                occ = tag_occurrences.get(key, 0)
                tag_occurrences[key] = occ + 1
                for indicator, subfields in occurrence.items():
                    for subfield in subfields:
                        for code, text in subfield.items():
                            for scalar in text if isinstance(text, list) else [text]:
                                emit(f"sub:{key}:{indicator}:{code}:{occ}", scalar)
                                if key == "856" and code == "u":
                                    emit("media", "", scalar)
    return spans


# Parsed-kind memo: the kind vocabulary is tiny (a few thousand distinct
# strings across millions of spans), so each kind's split/dispatch happens
# once per process instead of once per span.
# kind -> ("sub", tag, indicator, code, (tag, occ)) | ("ctl", tag) | ("ldr",)
#         | ("meta", key) | ("media",)
_KIND_CACHE: dict[str, tuple] = {}


def _parse_kind(kind: str) -> tuple:
    parsed = _KIND_CACHE.get(kind)
    if parsed is None:
        if kind == "ldr":
            parsed = ("ldr",)
        elif kind == "media":
            parsed = ("media",)
        elif kind.startswith("meta:"):
            parsed = ("meta", kind[5:])
        elif kind.startswith("ctl:"):
            parsed = ("ctl", kind[4:])
        elif kind.startswith("sub:"):
            _, tag, indicator, code, occ_str = kind.split(":")
            parsed = ("sub", tag, indicator, code, (tag, int(occ_str)))
        else:  # pragma: no cover - unknown kinds are a data error
            raise ValueError(f"unknown span kind: {kind!r}")
        _KIND_CACHE[kind] = parsed
    return parsed


def _decode_step(kind: str, keep_tags: "set[str] | None") -> tuple | None:
    """What decoding does with one span kind: its parsed form, or None when
    the span is dropped (a media span, or a field pruned by ``keep_tags``)."""
    parsed = _parse_kind(kind)
    family = parsed[0]
    if family == "media":
        # media spans are derived from 856$u on encode; dropped on decode
        return None
    if keep_tags is not None:
        if family == "sub" and parsed[1] not in keep_tags:
            return None
        if family == "ctl" and parsed[1] not in keep_tags and parsed[1] != "001":
            return None
    return parsed


def _decode_parallel(steps: list, texts: list, lo: int, hi: int) -> dict[str, Any]:
    """Shared decode body over parallel (decode step, text) arrays [lo, hi)."""
    record: dict[str, Any] = {}
    # (tag, occ) -> subfield list; insertion-ordered
    occurrences: dict[tuple[str, int], list] = {}
    for i in range(lo, hi):
        step = steps[i]
        if step is None:
            continue
        family = step[0]
        if family == "sub":
            sublist = occurrences.get(step[4])
            if sublist is None:
                sublist = occurrences[step[4]] = []
                record.setdefault(step[1], []).append({step[2]: sublist})
            sublist.append({step[3]: texts[i]})
        elif family == "ctl":
            tag = step[1]
            if tag == "001":
                # 001 is the one bare-string control field in the source shape
                record["001"] = texts[i]
            else:
                record.setdefault(tag, []).append(texts[i])
        elif family == "ldr":
            record["_LEADER"] = texts[i]
        else:  # meta
            record[step[1]] = texts[i]
    return record


def decode_spans(
    spans: Iterable[dict[str, Any]], keep_tags: "set[str] | None" = None
) -> dict[str, Any]:
    """Decode an ordered span list back into the nested record dict.

    ``media`` spans are dropped (they are derived from 856$u on encode).
    ``keep_tags`` prunes control/data fields to the given tag set — the
    engine's projection pushdown (spans of unread tags never build Python
    structure; pair with :func:`esmarc_ray.mapping.source_tags`).
    """
    ordered = sorted(spans, key=lambda s: s["offset"])
    steps = [_decode_step(s["kind"], keep_tags) for s in ordered]
    texts = [s["text"] for s in ordered]
    return _decode_parallel(steps, texts, 0, len(steps))


def records_to_table(docs: Iterable[tuple[str, dict[str, Any]]]) -> pa.Table:
    """Build a document Arrow table from (doc_id, record) pairs."""
    ids: list[str] = []
    span_lists: list[list[dict[str, Any]]] = []
    for doc_id, record in docs:
        ids.append(doc_id)
        span_lists.append(encode_record(record))
    return pa.Table.from_arrays(
        [pa.array(ids, pa.string()), pa.array(span_lists, pa.list_(SPAN_STRUCT))],
        schema=DOCUMENT_SCHEMA,
    )


def batch_to_records(
    batch: pa.Table | pa.RecordBatch, keep_tags: "set[str] | None" = None
) -> list[tuple[str, dict[str, Any]]]:
    """Decode a pyarrow batch of (doc_id, spans) into (doc_id, record) pairs.

    Hot path of the parse stage: the list<struct> column is flattened ONCE
    and only its primitive children are materialized, through numpy (an order
    of magnitude cheaper than ``to_pylist``).  The kind column is
    dictionary-encoded, so each distinct kind is parsed (and checked against
    ``keep_tags``, the projection pruning) once per batch.  Spans are stored
    in offset order by the writer; a vectorized monotonicity check finds (and
    the row decode sorts) any row that violates it.
    """
    col = batch.column("spans")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten()
    kinds = flat.field("kind")
    offsets = flat.field("offset")
    if kinds.null_count or offsets.null_count:
        raise ValueError("span kind and offset must not be null")
    doc_ids = _strings(batch.column("doc_id"))
    list_offsets = col.offsets.to_numpy()
    # for a sliced ListArray, .offsets index the UNSLICED child while
    # .flatten() is rebased to 0 — rebase explicitly so a RecordBatch /
    # sliced-Array caller can't read shifted spans
    if len(list_offsets) and list_offsets[0] != 0:
        list_offsets = list_offsets - list_offsets[0]
    encoded = pc.dictionary_encode(kinds)
    vocabulary = [_decode_step(kind, keep_tags) for kind in _strings(encoded.dictionary)]
    steps = [vocabulary[i] for i in encoded.indices.to_numpy().tolist()]
    texts = _strings(flat.field("text"))
    span_offsets = offsets.to_numpy()
    # spans i, i+1 out of order inside one row: i+1 is not a row start
    bad = np.flatnonzero(span_offsets[:-1] >= span_offsets[1:]) + 1
    unsorted_rows = set(
        (np.searchsorted(list_offsets, bad[~np.isin(bad, list_offsets)], side="right") - 1).tolist()
    )
    bounds = list_offsets.tolist()
    out: list[tuple[str, dict[str, Any]]] = []
    for row, doc_id in enumerate(doc_ids):
        lo, hi = bounds[row], bounds[row + 1]
        if row in unsorted_rows:
            row_offsets = span_offsets[lo:hi].tolist()
            order = [lo + j for j in sorted(range(hi - lo), key=row_offsets.__getitem__)]
            record = _decode_parallel(
                [steps[i] for i in order], [texts[i] for i in order], 0, hi - lo
            )
        else:
            record = _decode_parallel(steps, texts, lo, hi)
        out.append((doc_id, record))
    return out


def _strings(array: pa.Array | pa.ChunkedArray) -> list:
    """A string column as a list of str (None for nulls), through numpy."""
    return array.to_numpy(zero_copy_only=False).tolist()
