"""Per-record ``map_record`` snapshots: the mapping gate that needs no
reference checkout.

``tests/fixtures/map_record_snapshots.jsonl`` holds, one JSON line per
record, a fixed-seed ``esmarc_ray.corpus`` record (two full class-mix
cycles, so all 7 entity classes) and the ``map_record`` output the engine
gave for it.  The inputs are stored, not regenerated, so the gate moves only
when the mapping does.  Regenerate — only for an intended mapping change —
with ``PYTHONPATH=. python3 tests/test_mapping_snapshots.py``.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from esmarc_ray.config import DEFAULT_CONFIG
from esmarc_ray.mapping import map_record

SNAPSHOTS = pathlib.Path(__file__).resolve().parent / "fixtures" / "map_record_snapshots.jsonl"
SNAPSHOT_SEED = 7
SNAPSHOT_DOCS = 26  # two cycles of corpus._MIX (13 slots)
ENTITY_CLASSES = {"resources", "persons", "topics", "organizations", "geo", "works", "events"}


def _load() -> list[dict]:
    # a missing file collects no per-record cases; the coverage test fails
    if not SNAPSHOTS.exists():
        return []
    return [json.loads(line) for line in SNAPSHOTS.read_text().splitlines()]


def test_snapshots_cover_every_entity_class():
    rows = _load()
    assert len(rows) == SNAPSHOT_DOCS
    assert {cls for row in rows for cls in row["mapped"] or {}} == ENTITY_CLASSES


@pytest.mark.parametrize("row", _load(), ids=lambda row: row["doc_id"])
def test_map_record_matches_snapshot(row):
    # a fresh record per call: map_record may append into the record's own
    # field lists (the reference's aliasing), see conftest.reference_records
    produced = map_record(copy.deepcopy(row["record"]), DEFAULT_CONFIG)
    assert json.loads(json.dumps(produced)) == row["mapped"]


def _generate() -> list[dict]:
    from esmarc_ray.corpus import CorpusSpec, make_record

    spec = CorpusSpec(n_docs=SNAPSHOT_DOCS, seed=SNAPSHOT_SEED)
    rows = []
    for idx in range(spec.n_docs):
        doc_id, record = make_record(idx, spec)
        mapped = map_record(copy.deepcopy(record), DEFAULT_CONFIG)
        rows.append({"doc_id": doc_id, "record": record, "mapped": mapped})
    return rows


if __name__ == "__main__":
    SNAPSHOTS.write_text(
        "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in _generate())
    )
    print(f"wrote {SNAPSHOTS}")
