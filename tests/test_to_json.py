"""``values.to_json`` is byte-identical to ``json.dumps(v, sort_keys=True,
ensure_ascii=False)``: on the stored mapping snapshots, on every node value
and doc of a generated 2,000-doc corpus, and on edge values."""

from __future__ import annotations

import copy
import json

import pytest

from esmarc_ray.values import to_json

from test_mapping_snapshots import _load


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, ensure_ascii=False)


EDGE_VALUES = [
    "",
    "plain",
    'quote " backslash \\ slash /',
    "control \x00\x01\x1f\x7f \n\r\t\b\f",
    "non-BMP \U0001F600 \U00010348, BMP ß €",
    "lone surrogate \ud800",
    0,
    -7,
    2**70,
    1e16,
    1.5e-300,
    0.1,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    True,
    False,
    None,
    [],
    {},
    [[]],
    {"": {}},
    [1, "a", None, True, 2.5, [{}], {"k": []}],
    {"b": 1, "a": {"d": [1, {"z": None, "y": "\U0001F600"}], "c": ""}},
    {'key "quoted"': 1, "key\nnewline": 2, "ключ": 3, "\U0001F600": 4, "\x00": 5},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=lambda v: repr(v)[:40])
def test_to_json_edge_values(value):
    assert to_json(value) == _dumps(value)


def test_to_json_top_level_str_goes_through_encode_basestring():
    assert to_json("a b") == '"a b"' == _dumps("a b")


def test_to_json_rejects_what_json_dumps_rejects():
    for bad in ({"a": object()}, {1j}, [b"bytes"]):
        with pytest.raises(TypeError):
            to_json(bad)


def test_to_json_on_snapshot_docs():
    rows = _load()
    assert rows
    for row in rows:
        for doc in (row["mapped"] or {}).values():
            assert to_json(doc) == _dumps(doc), row["doc_id"]


def _node_values(doc: dict):
    """Every element the triple flatten serializes as a node."""
    for value in doc.values():
        for element in value if isinstance(value, list) else [value]:
            if isinstance(element, (dict, list)):
                yield element


def test_to_json_on_every_node_value_of_a_generated_corpus():
    from esmarc_ray.config import DEFAULT_CONFIG
    from esmarc_ray.corpus import CorpusSpec, make_record
    from esmarc_ray.mapping import map_record

    spec = CorpusSpec(n_docs=2000, seed=42)
    docs = nodes = 0
    for idx in range(spec.n_docs):
        doc_id, record = make_record(idx, spec)
        try:
            mapped = map_record(copy.deepcopy(record), DEFAULT_CONFIG)
        except Exception:  # dead-lettered by extract; nothing to serialize
            continue
        for doc in (mapped or {}).values():
            docs += 1
            assert to_json(doc) == _dumps(doc), doc_id
            for node in _node_values(doc):
                nodes += 1
                assert to_json(node) == _dumps(node), doc_id
    assert docs == 2000 and nodes > 30_000
