"""Codec gates: the canonicalize exchange's zstd pack/unpack round-trip, and
zstd on every parquet table ``run_kg_pipeline`` persists."""

from __future__ import annotations

import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from esmarc_ray.corpus import CorpusSpec, link_tables, write_corpus
from esmarc_ray.pipelines.kg import run_kg_pipeline
from esmarc_ray.stages.canonicalize import _pack_compress, _unpack_rows

# part 0: multibyte UTF-8 and an empty doc_json among non-empty ones;
# part 1: one row; part 2: every payload empty (a zero-byte blob)
_ROWS = [
    ("d1", 0, '{"name": "Görlitz — Zwickau"}'),
    ("d2", 2, ""),
    ("d3", 0, ""),
    ("d4", 1, '{"name": "日本語 🦉"}'),
    ("d5", 0, '{"name": "plain"}'),
    ("d6", 2, ""),
    ("d7", 0, '{"name": "ß"}'),
]


def _doc_batch(with_extras: bool) -> pa.Table:
    n = len(_ROWS)
    columns = {
        "doc_id": pa.array([r[0] for r in _ROWS], pa.string()),
        "entity_class": pa.array([("persons", "geo", "works")[i % 3] for i in range(n)], pa.string()),
        "canon_key": pa.array([f"k{i % 3}" for i in range(n)], pa.string()),
        "doc_json": pa.array([r[2] for r in _ROWS], pa.string()),
        "gnd_ids": pa.array([[f"g{i}"] * (i % 3) for i in range(n)], pa.list_(pa.string())),
        "error": pa.array([None if i % 2 else f"e{i}" for i in range(n)], pa.string()),
        "__part": pa.array([r[1] for r in _ROWS], pa.int32()),
    }
    if with_extras:
        columns["salt"] = pa.array([i % 4 for i in range(n)], pa.int32())
        columns["n_links_added"] = pa.array(range(n), pa.int64())
    return pa.table(columns)


@pytest.mark.parametrize("with_extras", [False, True], ids=["plain", "salt+links"])
def test_exchange_pack_unpack_round_trip(with_extras):
    batch = _doc_batch(with_extras)
    packed = _pack_compress(batch)
    assert packed.column("__part").to_pylist() == [0, 1, 2]
    assert packed.column("packed_lens").to_pylist()[2] == [0, 0]

    unpacked = _unpack_rows(packed)
    by_part = np.argsort(batch.column("__part").to_numpy(), kind="stable")
    expected = batch.take(pa.array(by_part)).drop_columns(["__part"])
    assert unpacked.schema.names == expected.schema.names
    assert unpacked.to_pylist() == expected.to_pylist()


def test_exchange_pack_unpack_empty_batch():
    empty = _doc_batch(False).slice(0, 0)
    assert _unpack_rows(_pack_compress(empty)).num_rows == 0


def _compressions(path: pathlib.Path) -> set[str]:
    meta = pq.ParquetFile(path).metadata
    return {
        meta.row_group(g).column(c).compression
        for g in range(meta.num_row_groups)
        for c in range(meta.num_columns)
    }


def test_kg_outputs_are_zstd(ray_session, tmp_path):
    spec = CorpusSpec(n_docs=60, seed=5)
    write_corpus(str(tmp_path / "in"), spec, rows_per_file=30)
    run_kg_pipeline(
        str(tmp_path / "in"), str(tmp_path / "out"),
        link_tables=link_tables(spec), num_shards=2, jsonld=True,
    )
    for sub in ("docs", "triples", "canonical"):
        files = sorted((tmp_path / "out" / sub).rglob("*.parquet"))
        assert files, sub
        for path in files:
            assert _compressions(path) == {"ZSTD"}, path
