"""Extraction stage: span documents → mapped entity docs → triples.

Stateless ``map_batches`` over zero-copy Arrow batches (the Ray-Data
re-expression of the reference's per-record worker pool,
reference esmarc/esmarc.py:268-322).  Failure semantics: the reference
appends a traceback to errors.txt and silently drops the record
(esmarc.py:320-322); here a failed record becomes a visible dead-letter row
with ``entity_class="_error"`` so drops are auditable downstream
(SURVEY.md §2.1 error sink row).
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator

import pyarrow as pa
import ray.data

from esmarc_ray.codec import batch_to_records
from esmarc_ray.config import DEFAULT_CONFIG, EngineConfig
from esmarc_ray.mapping import doc_to_triple_columns, map_record
from esmarc_ray.values import to_json

DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("entity_class", pa.string()),
        ("canon_key", pa.string()),
        ("doc_json", pa.string()),
        ("gnd_ids", pa.list_(pa.string())),
        ("error", pa.string()),
    ]
)

TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_kind", pa.string()),
        ("entity_class", pa.string()),
        ("doc_id", pa.string()),
    ]
)

_GND_RE = re.compile(r"https?://d-nb\.info/gnd/([^\"\s/]+)")


def doc_gnd_ids(doc: dict) -> list[str]:
    """GND ids reachable from the doc's sameAs links (the entity-link join key;
    reference enrichment/entityfacts.py:79-86 parses the same URIs)."""
    ids: list[str] = []
    same_as = doc.get("sameAs")
    if isinstance(same_as, dict):
        same_as = [same_as]
    for link in same_as or []:
        target = link.get("@id") if isinstance(link, dict) else link
        if isinstance(target, str):
            m = _GND_RE.match(target)
            if m and m.group(1) not in ids:
                ids.append(m.group(1))
    return ids


def canonical_key(doc_id: str, doc: dict) -> str:
    """Normalized entity key for canonicalization (SURVEY.md §2.5):
    GND id from sameAs > ISIL+PPN > @id > doc_id."""
    gnd = doc_gnd_ids(doc)
    if gnd:
        return f"gnd:{gnd[0]}"
    isil, ppn = doc.get("_isil"), doc.get("_ppn")
    if isil and ppn:
        return f"isil:{isil}:{ppn}"
    return f"id:{doc.get('@id', doc_id)}"


# Rows decoded per slice of an extract block.  Ray hands the extract UDF
# whole read blocks (one per span row group, up to 2,048 docs), and the
# decoded MARC records of a slice stay alive until its doc rows are built:
# decoding a 4,096-row batch at once cost +100 MB RSS, 512-row slices cost
# nothing measurable (ROADMAP "Measured and rejected").
_DECODE_ROWS = 512

# Docs per flatten batch.  Flatten runs behind canonicalize's final merge,
# whose per-partition outputs are small blocks: taking each whole, one
# flatten task per partition, made perfbench's ``resume_rebuild`` slower
# (2,000 docs, 2-CPU Ray sessions on a 1-CPU host: build_s 2.06 -> 2.19 s
# and 2.19 -> 2.39 s).
_FLATTEN_ROWS = 4096


def make_extract_fn(config: EngineConfig = DEFAULT_CONFIG, *, prune: bool = True):
    """Batch fn: (doc_id, spans) block → one doc table per
    :data:`_DECODE_ROWS`-row slice of it, one row per emitted entity doc.

    ``prune=True`` applies mapping-derived projection pushdown: spans of MARC
    tags no mapping row reads are skipped at decode (the engine analogue of
    the reference's ES ``_source`` includes, helperfunc.py:21-33)."""
    from esmarc_ray.mapping import source_tags

    keep_tags = source_tags() if prune else None

    def extract_slice(batch: pa.Table) -> pa.Table:
        rows: dict[str, list] = {name: [] for name in DOC_SCHEMA.names}

        def emit(doc_id, entity, canon, doc_json, gnd_ids, error):
            rows["doc_id"].append(doc_id)
            rows["entity_class"].append(entity)
            rows["canon_key"].append(canon)
            rows["doc_json"].append(doc_json)
            rows["gnd_ids"].append(gnd_ids)
            rows["error"].append(error)

        for doc_id, record in batch_to_records(batch, keep_tags):
            try:
                result = map_record(record, config)
            except Exception as exc:
                emit(doc_id, "_error", "", "", [], f"{type(exc).__name__}: {exc}")
                continue
            if not result:
                # unknown 079$b → classified drop (reference marc.py:126-127)
                emit(doc_id, "_dropped", "", "", [], "")
                continue
            for entity, doc in result.items():
                emit(
                    doc_id,
                    entity,
                    canonical_key(doc_id, doc),
                    to_json(doc),
                    doc_gnd_ids(doc),
                    "",
                )
        return pa.Table.from_pydict(rows, schema=DOC_SCHEMA)

    def extract(block: pa.Table) -> Iterator[pa.Table]:
        for start in range(0, block.num_rows, _DECODE_ROWS):
            yield extract_slice(block.slice(start, _DECODE_ROWS))

    return extract


def extract_docs(
    documents: ray.data.Dataset,
    config: EngineConfig = DEFAULT_CONFIG,
    *,
    prune: bool = True,
) -> ray.data.Dataset:
    """Span documents → entity-doc dataset (incl. _error/_dropped rows).

    The map takes whole blocks, so a read block is one extract task and
    the read fuses with it (``ReadParquet->MapBatches(extract)``): a
    batch size would make Ray keep any map that can change the row count,
    such as the read, apart.  The UDF decodes each block in
    :data:`_DECODE_ROWS`-row slices."""
    return documents.map_batches(
        make_extract_fn(config, prune=prune),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def docs_to_triples(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Entity docs → (subj, pred, obj) triple dataset, in batches of
    :data:`_FLATTEN_ROWS` docs.  An ``_error`` row
    becomes one ``pred="_error"`` triple and a ``_dropped`` row none.
    ``run_kg_pipeline`` and ``entry()`` pass canonicalized docs, which hold
    neither: canonicalize drops dead letters, and the pipeline counts them
    from its docs checkpoint (the run manifest's ``dead_letters``)."""

    def flatten(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {name: [] for name in TRIPLE_SCHEMA.names}
        for doc_id, entity, doc_json, error in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("entity_class").to_pylist(),
            batch.column("doc_json").to_pylist(),
            batch.column("error").to_pylist(),
        ):
            if entity == "_dropped":
                continue
            if entity == "_error":
                cols["subj"].append(doc_id)
                cols["pred"].append("_error")
                cols["obj"].append(error)
                cols["obj_kind"].append("literal")
                cols["entity_class"].append(entity)
                cols["doc_id"].append(doc_id)
            else:
                doc_to_triple_columns(doc_id, entity, json.loads(doc_json), cols)
        return pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)

    return docs.map_batches(
        flatten,
        batch_format="pyarrow",
        batch_size=_FLATTEN_ROWS,
        zero_copy_batch=True,
    )
