"""Differential test: the compiled ``map_record`` against the generic
interpreter it replaced (``tests/mapping_oracle.py``).

Both run on a fresh copy of every record: the compiled plan with tag-gated
rows and compiled ``marc_get`` accessors, the oracle walking every row.
Outputs must be equal — including ``None`` for a dropped record — and a
record that fails must fail with the same exception type and message in
both, since the pipeline writes that message into its dead-letter rows.

The oracle calls the same kernel and field functions as the plan, so the
corpus test also pins a sha256 of the outcomes, computed with the generic
interpreter and kernel before the plan replaced them: a change inside a field
function or the kernel shows there even when both sides move together.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pathlib

import pytest

from esmarc_ray.codec import batch_to_records, records_to_table
from esmarc_ray.config import DEFAULT_CONFIG
from esmarc_ray.corpus import CorpusSpec, make_record
from esmarc_ray.mapping import map_record, source_tags
from tests import mapping_oracle

SNAPSHOTS = pathlib.Path(__file__).resolve().parent / "fixtures" / "map_record_snapshots.jsonl"


def _outcome(fn, record):
    try:
        return "ok", json.dumps(fn(copy.deepcopy(record), DEFAULT_CONFIG), sort_keys=True)
    except Exception as exc:  # the pipeline dead-letters these
        return "error", f"{type(exc).__name__}: {exc}"


def _assert_same(records):
    """Compiled == oracle on every record; returns the kinds of outcome seen
    and the sha256 of the compiled outcomes in record order."""
    seen = set()
    digest = hashlib.sha256()
    for doc_id, record in records:
        compiled = _outcome(map_record, record)
        oracle = _outcome(mapping_oracle.map_record, record)
        assert compiled == oracle, doc_id
        seen.add(compiled[0] if compiled[0] == "error" else compiled[1] == "null")
        digest.update(f"{doc_id}\t{compiled[0]}\t{compiled[1]}\n".encode())
    return seen, digest.hexdigest()


# sha256 of ``doc_id \t outcome kind \t JSON or error`` lines over the 2,000
# records of each seed, from the generic interpreter over the kernel and field
# functions as they were before the compiled plan; the records as generated
# and as the codec decodes them (pruned to source_tags()) give the same lines
PINNED_CORPUS_DIGESTS = {
    1: "9fcf2e40b26c55b2aa245cf6a1d782f015ef4a152820a9d7dad86044793c83bc",
    2: "7ee7d54fef8cbffeda9410dc0754bdc78880754b03c9ed3f7c5fd287cc6e4985",
    3: "55e175d89fe0e46e87f44509d16ebb48b767e93686cd32838a80c7dbec9302c3",
    4: "9862574f922196b9fa89451898ed474369305e01fdd6327e08e976dc307879ee",
    5: "efe587a2ab511efa054d4b745649cdc96854f0f36af77a4ee22ac6e3ddcf7847",
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_compiled_plan_matches_oracle_on_corpus(seed):
    spec = CorpusSpec(n_docs=2000, seed=seed)
    records = [make_record(idx, spec) for idx in range(spec.n_docs)]
    _, generated = _assert_same(records)
    _, decoded = _assert_same(batch_to_records(records_to_table(records), source_tags()))
    assert generated == decoded == PINNED_CORPUS_DIGESTS[seed]
    classes = {next(iter(out)) for out in (map_record(copy.deepcopy(r)) for _, r in records) if out}
    assert classes == {"resources", "persons", "topics", "organizations", "geo", "works", "events"}


def test_compiled_plan_matches_oracle_on_decoded_spans():
    """The pipeline's path: records as the span codec decodes them."""
    spec = CorpusSpec(n_docs=400, seed=6)
    table = records_to_table(make_record(idx, spec) for idx in range(spec.n_docs))
    _assert_same(batch_to_records(table))


def test_compiled_plan_matches_oracle_on_snapshot_records():
    rows = [json.loads(line) for line in SNAPSHOTS.read_text().splitlines()]
    assert len(rows) == 26
    _assert_same((row["doc_id"], row["record"]) for row in rows)


def test_compiled_plan_matches_oracle_on_reference_records(reference_records):
    _assert_same(sorted(reference_records.items()))


def _edge_records():
    """Records that hit the drop, the dead-letter and the copy-guarded rows,
    and field shapes the codec never produces."""
    spec = CorpusSpec(n_docs=26, seed=11)
    base = {idx: make_record(idx, spec)[1] for idx in range(13)}
    resource, person, topic = base[0], base[6], base[8]
    out = []

    def variant(name, record, **changes):
        record = copy.deepcopy(record)
        for key, value in changes.items():
            if value is None:
                record.pop(key, None)
            else:
                record[key] = value
        out.append((name, record))

    variant("unknown-079-drops", person, **{"079": [{"__": [{"b": "zz"}]}]})
    variant("empty-record", {})
    variant("no-008-raises", person, **{"008": None})
    variant("no-007-raises", resource, **{"007": None})
    variant("list-date-raises", person, **{"548": [{"__": [{"a": "1900"}, {"a": "1901"}, {"4": "datl"}, {"i": "exakt"}]}]})
    variant("date-without-i-raises", topic, **{"548": [{"__": [{"a": "1900"}, {"4": "datb"}]}]})
    # the _isil row's list spec merges 852$a/924$b into the record's own 003
    # list (the reference's litter aliasing)
    variant("isil-aliasing", resource, **{"852": [{"__": [{"a": "DE-14"}]}], "924": [{"__": [{"b": "DE-15"}, {"b": "DE-14"}]}]})
    # repeated subfield codes: merged list values in the subfield sets
    variant(
        "repeated-codes",
        resource,
        **{
            "650": [{"_7": [{"a": "Chemie"}, {"a": "Physik"}, {"0": "(DE-588)1"}, {"0": "(DE-627)2"}]}],
            "245": [{"10": [{"a": "T"}, {"n": "1"}, {"n": "2"}, {"p": "A"}, {"p": "B"}, {"p": "C"}]}],
            "773": [{"18": [{"w": "(DE-627)9"}, {"g": "x"}, {"g": "y"}]}, {"08": [{"w": "(DE-627)8"}, {"t": "H"}, {"a": "A"}]}],
        },
    )
    variant("adjacent-duplicate-occurrences", resource, **{"700": resource.get("700", []) * 2})
    # identified_by reads its 024-7_ subfield sets once for all three VD years
    variant(
        "vd-identifiers",
        resource,
        **{"024": [{"7_": [{"a": "VD17 1:2"}, {"2": "vd17"}, {"z": "bad"}]}, {"7_": [{"a": "VD18 9"}, {"2": "vd18"}]}]},
    )
    # the $4-filtered authority rows deep-copy the field they prune
    variant("authority-4-filter", person, **{"551": [{"__": [{"a": "Ort"}, {"4": "ortg"}, {"0": "(DE-588)3"}]}, {"__": [{"a": "Ort2"}, {"4": "orts"}]}]})
    variant("authority-4-other-indicator-raises", person, **{"551": [{"_1": [{"a": "Ort"}, {"4": "ortg"}]}]})
    # shapes the codec never produces: both answer, or raise, alike
    variant("field-as-dict", resource, **{"100": {"1_": [{"a": "Name"}]}})
    variant("subfield-as-str", resource, **{"700": [{"1_": ["a"]}]})
    variant("list-valued-subfield", resource, **{"700": [{"1_": [{"a": ["X", "Y"]}, {"0": ["(DE-588)5"]}]}]})
    variant("occurrence-as-str", resource, **{"490": ["oops"]})
    variant("empty-field", resource, **{"689": []})
    variant("control-field-string", resource, **{"003": "DE-627"})
    return out


def test_compiled_plan_matches_oracle_on_edge_records():
    seen, _ = _assert_same(_edge_records())
    assert {"error", True, False} <= seen  # raised, dropped and mapped cases


def test_map_record_leaves_the_lookup_tables_alone():
    """Mapping output never shares containers with the lookup tables or the
    record: editing it must not leak into the next record."""
    spec = CorpusSpec(n_docs=13, seed=3)
    first = map_record(make_record(0, spec)[1])
    again = json.dumps(map_record(make_record(0, spec)[1]), sort_keys=True)
    for doc in first.values():
        for value in doc.values():
            for node in value if isinstance(value, list) else [value]:
                if isinstance(node, dict):
                    node.clear()
    assert json.dumps(map_record(make_record(0, spec)[1]), sort_keys=True) == again
