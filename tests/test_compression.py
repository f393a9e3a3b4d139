"""Codec gate: zstd on every parquet table ``run_kg_pipeline`` persists."""

from __future__ import annotations

import pathlib

import pyarrow.parquet as pq

from esmarc_ray.corpus import CorpusSpec, link_tables, write_corpus
from esmarc_ray.pipelines.kg import run_kg_pipeline


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
