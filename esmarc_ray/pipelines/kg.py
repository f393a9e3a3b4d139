"""End-to-end KG-construction pipeline.

    read spans → extract + entity-link (one fused task map) → canonicalize
    (batch-local pre-combine, one hash-partitioned merge) → triples →
    sorted partitioned write

Resume model (north rule: "resumable from checkpoint with per-partition
lineage"):

* the embarrassingly-parallel half (extract+link) runs per INPUT SHARD —
  a group of input files — each writing an intermediate docs table under
  ``work_dir/docs/shard=K/`` through the same manifest sink as the triples
  (unpartitioned, ``materialize.DOCS``): manifest (row count, rows per
  class, content hash) + _SUCCESS; a rerun skips a shard only while its
  files still hold exactly the recorded row count;
* the wide half (canonicalize → sort → materialize) streams over the
  intermediate docs tables (much smaller than the raw spans) and writes the
  final triple table with its own manifest + marker (with ``jsonld=True``
  the ``canonical/`` checkpoint too, through the docs sink).  It reads the
  docs (and, with ``jsonld=True``, ``canonical/``) back with
  :func:`esmarc_ray.io.read_checkpoint`: one block per file phase 1 wrote,
  so the block count — and with it every later stage's task count — follows
  the checkpoint's files, not Ray's 1-MiB default read split.

Both phases read one block per parquet row group, the writer's unit
(:func:`esmarc_ray.io.read_parquet_row_groups`): a span shard of up to
2,048 docs (one group) runs phase 1 as one read, extract, link and write
task, and a larger file gets one extract task per group.

Dead letters (``_error`` and ``_dropped`` docs) stop at the docs
checkpoint: canonicalize drops them, so the run manifest's
``dead_letters`` counts, folded from the docs shards' manifests, are the
only place they surface after phase 1.

Everything between stages is streaming Dataset execution — no driver-side
materialization of data, only of file lists and manifests.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import ray
import ray.data

from esmarc_ray.config import DEFAULT_CONFIG, EngineConfig
from esmarc_ray.io import read_checkpoint, read_documents
from esmarc_ray.stages.canonicalize import canonicalize
from esmarc_ray.stages.extract import docs_to_triples, extract_docs
from esmarc_ray.stages.link import build_link_indexes, link_entities
from esmarc_ray.stages.materialize import (
    DOCS,
    materialize_buckets,
    materialize_shard,
    shard_is_complete,
)


def _input_shards(input_path: str, num_shards: int) -> list[list[str]]:
    files = sorted(str(p) for p in pathlib.Path(input_path).glob("*.parquet"))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_path}")
    num_shards = min(num_shards, len(files))
    return [files[i::num_shards] for i in range(num_shards)]


def _dead_letters(docs_dir: pathlib.Path, num_shards: int) -> dict[str, int]:
    """``_error`` and ``_dropped`` row counts over every docs shard, built or
    resumed alike, folded from the shards' manifests (no data is read)."""
    counts = {"_error": 0, "_dropped": 0}
    for k in range(num_shards):
        manifest = json.loads((docs_dir / f"shard={k:05d}" / "_manifest.json").read_text())
        for cls in counts:
            counts[cls] += manifest["rows_per_class"].get(cls, 0)
    return counts


def extract_and_link(
    spans: ray.data.Dataset,
    *,
    config: EngineConfig = DEFAULT_CONFIG,
    indexes_ref: "ray.ObjectRef | None" = None,
    link_concurrency: int | None = None,
) -> ray.data.Dataset:
    """The KG DAG's narrow half: extract entity docs from span rows, then
    link them against ``indexes_ref`` (``ray.put(build_link_indexes(...))``)
    when one is given.  ``run_kg_pipeline`` and ``__ray_entry__.entry()``
    both build their docs with this."""
    docs = extract_docs(spans, config)
    if indexes_ref is not None:
        docs = link_entities(docs, indexes_ref, concurrency=link_concurrency)
    return docs


def run_kg_pipeline(
    input_path: str,
    out_dir: str,
    *,
    config: EngineConfig = DEFAULT_CONFIG,
    link_tables: dict | None = None,
    num_shards: int = 4,
    resume: bool = True,
    link_concurrency: int | None = None,
    jsonld: bool = False,
    query: "list | str | None" = None,
    triple_shards: int = 1,
) -> dict:
    """Run (or resume) the full pipeline; returns the run manifest.

    ``query`` is a pushed-down source prefilter (pandas/pyarrow ``filters``
    DNF; see :func:`esmarc_ray.io.compile_query_filter`) — the engine's
    counterpart of the reference CLI's ES query body (reference
    esmarc/cli.py:31-34).  ``link_concurrency`` caps the link map only (see
    :func:`esmarc_ray.stages.link.link_entities`); ``None`` lets it fuse
    with extract."""
    out = pathlib.Path(out_dir)
    docs_dir = out / "docs"
    triples_dir = out / "triples"
    indexes_ref = None  # built on the first shard that is not resumed

    # ---- phase 1: extract + link, per input shard (resumable) --------------
    shards = _input_shards(input_path, num_shards)
    shard_status = []
    for k, files in enumerate(shards):
        shard_dir = docs_dir / f"shard={k:05d}"
        if resume and shard_is_complete(shard_dir):
            shard_status.append({"shard": k, "status": "skipped(resume)"})
            continue
        if link_tables is not None and indexes_ref is None:
            indexes_ref = ray.put(build_link_indexes(link_tables))
        docs = extract_and_link(
            read_documents(files, query=query),
            config=config,
            indexes_ref=indexes_ref,
            link_concurrency=link_concurrency,
        )
        # the one sink: an incomplete shard dir is wiped first, the files
        # get deterministic names, and the manifest and marker hold the
        # written row count that resume checks (shard_is_complete)
        materialize_shard(docs, shard_dir, inputs=files, sort=False, table=DOCS)
        shard_status.append({"shard": k, "status": "built"})

    # ---- phase 2: canonicalize + materialize (wide, streaming) -------------
    doc_files = sorted(str(p) for p in docs_dir.glob("shard=*/*.parquet"))
    docs_ds = read_checkpoint(doc_files)
    canonical = canonicalize(docs_ds, precombine=True)
    jsonld_summary = None
    if jsonld:
        # two consumers of the canonical stream (LDJ sink + triples) — park
        # it in a parquet checkpoint so the wide phase runs once, not twice
        canon_dir = out / "canonical"
        canon_manifest = materialize_shard(canonical, canon_dir, sort=False, table=DOCS)
        canonical = read_checkpoint(sorted(str(p) for p in canon_dir.glob("*.parquet")))

        from esmarc_ray.io import write_jsonld

        # write_jsonld file names are unique per run — wipe the sink dir
        # (materialize_shard does the same for canonical/ and the triple
        # shards) or a resumed run would accumulate a second copy of every
        # .ldj stream
        jsonld_dir = out / "jsonld"
        if jsonld_dir.exists():
            shutil.rmtree(jsonld_dir)
        files_manifest = write_jsonld(canonical, str(jsonld_dir)).to_pandas()
        jsonld_summary = {
            "n_files": int(len(files_manifest)),
            "n_docs": int(files_manifest["n_docs"].sum()),
            "classes": sorted(files_manifest["entity_class"].unique().tolist()),
        }
    triples = docs_to_triples(canonical)
    if triple_shards > 1:
        # 100-TB wide-phase shape: per-bucket lineage + resumability — a
        # resumed run drops completed buckets BEFORE the sort and rebuilds
        # only the missing ones (see materialize_buckets)
        manifest = materialize_buckets(
            triples, triples_dir, num_buckets=triple_shards,
            inputs=doc_files, sort=True, resume=resume,
        )
    else:
        manifest = materialize_shard(
            triples, triples_dir / "shard=00000", inputs=doc_files, sort=True
        )

    run_manifest = {
        "input_path": input_path,
        "num_shards": len(shards),
        "shards": shard_status,
        "dead_letters": _dead_letters(docs_dir, len(shards)),
        "triples": manifest,
    }
    if jsonld_summary is not None:
        run_manifest["canonical"] = {"row_count": canon_manifest["row_count"]}
        run_manifest["jsonld"] = jsonld_summary
    (out / "_run_manifest.json").write_text(json.dumps(run_manifest, indent=1, sort_keys=True))
    return run_manifest
