"""Dataset sources/sinks.

Physical format: Parquet.  :func:`read_documents` and :func:`write_table`
also take ``format="lance"`` and use ``ray.data.read_lance`` /
``Dataset.write_lance`` when the ``lance`` package is installed.  The KG
pipeline's own sinks (``stages/materialize.py``) write parquet only: their
manifests come from the parquet write tasks, and the pipeline's input
shards are the ``*.parquet`` files of its input directory.

Projection pushdown: readers accept ``columns`` so only the needed columns
leave storage (the engine equivalent of the reference's ES ``_source``
includes projection, reference helperfunc.py:21-33).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pyarrow as pa
import ray.data

try:  # pragma: no cover - not installed in this sandbox
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False

# the one parquet codec of every table the KG pipeline persists: the phase-1
# docs checkpoint, the canonical/ checkpoint and the triple shards (see
# stages/materialize.py) — zstd is about half snappy's size on this data,
# and no slower to write or read back
PARQUET_COMPRESSION = "zstd"

# Long text and JSON columns: nearly every value is distinct, so a
# dictionary only adds a page for zstd to compress a second time.
PLAIN_COLUMNS = frozenset({"obj", "doc_json"})
# The triple table's sort keys, the only columns a reader can prune row
# groups on.  Min/max statistics of the JSON columns are whole documents,
# repeated in every page header.
STATISTICS_COLUMNS = frozenset({"subj", "pred"})


@dataclass(frozen=True)
class ParquetEncoding:
    """The parquet encoding policy of one table role: zstd at ``zstd_level``
    in data pages of ``data_page_size`` bytes, no dictionary for
    :data:`PLAIN_COLUMNS`, statistics only for :data:`STATISTICS_COLUMNS`."""

    zstd_level: int
    data_page_size: int

    def write_options(self, schema: pa.Schema) -> dict[str, Any]:
        """``pyarrow.parquet.write_table`` keyword arguments for ``schema``."""
        # the options name leaf columns: a list column's values are "<name>.list.element"
        leaves = [
            (f.name, f"{f.name}.list.element" if pa.types.is_list(f.type) else f.name)
            for f in schema
        ]
        return {
            "compression": PARQUET_COMPRESSION,
            "compression_level": self.zstd_level,
            "data_page_size": self.data_page_size,
            "use_dictionary": [leaf for name, leaf in leaves if name not in PLAIN_COLUMNS],
            "write_statistics": [leaf for name, leaf in leaves if name in STATISTICS_COLUMNS],
        }


# The triple table is the durable product every consumer reads, written
# once: of zstd levels 1-9 x 1/8-MiB pages, the smallest output whose sink
# write CPU stays clearly within 1 ms per 1k triples of level 1 (+0.5 to
# +0.7 ms); levels 7-9 measured +0.8 to +1.2 ms (ROADMAP "Measured and
# rejected").
TRIPLE_ENCODING = ParquetEncoding(zstd_level=6, data_page_size=8 << 20)
# The docs/ and canonical/ checkpoints sit on the critical path between the
# phases and are read once: the fastest level, parquet's default pages.
CHECKPOINT_ENCODING = ParquetEncoding(zstd_level=1, data_page_size=1 << 20)


def compile_query_filter(query: Any) -> Any:
    """Compile a JSON query prefilter to a pyarrow Expression.

    The engine counterpart of the reference CLI's arbitrary ES query body
    (reference esmarc/cli.py:31-34): instead of an ES DSL dict it takes the
    standard pandas/pyarrow ``filters`` DNF — ``[[col, op, value], ...]``
    (conjunction) or a list of such lists (disjunction of conjunctions), with
    ops ``== != < > <= >= in not in``.  The compiled expression is pushed
    into the parquet/lance scan, so row groups whose column statistics
    exclude the predicate never leave storage.
    """
    import pyarrow.parquet as pq

    clauses = query_clauses(query)
    return pq.filters_to_expression(clauses) if clauses else None


def query_clauses(query: Any) -> list[list[tuple]]:
    """A JSON query prefilter (see :func:`compile_query_filter`) as a
    disjunction of conjunctions of ``(col, op, value)`` tuples; ``[]`` for
    no prefilter."""
    if isinstance(query, str):
        import json

        query = json.loads(query)
    if not query:
        return []
    if all(isinstance(f, (list, tuple)) and len(f) == 3 and isinstance(f[0], str) for f in query):
        return [[tuple(f) for f in query]]
    return [[tuple(f) for f in clause] for clause in query]


def read_parquet_row_groups(paths: str | list[str], **kwargs: Any) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with one block per parquet row group (at
    least one), unless the caller passes ``override_num_blocks``.

    The row group is the writer's unit: span corpora are written in
    2,048-row groups, the pipeline's checkpoints one group per file.  Ray's
    own split follows the session's CPUs and a size estimate, not the
    input: in a 2-CPU session it cut a 2,000-doc span file (one group) into
    4 blocks, and the first extract task then waited for a newly spawned
    worker while the read held the only warm one.  The group count is read
    from the footers on the driver; Ray still reads a file in one task and
    cuts its output into the blocks (and splits a block above
    ``DataContext.target_max_block_size``)."""
    if "override_num_blocks" not in kwargs:
        import pyarrow.parquet as pq

        # the files Ray reads: a list of one directory is that directory
        files = paths[0] if not isinstance(paths, str) and len(paths) == 1 else paths
        fragments = pq.ParquetDataset(files, partitioning=None).fragments
        kwargs["override_num_blocks"] = max(1, sum(f.num_row_groups for f in fragments))
    return ray.data.read_parquet(paths, **kwargs)


def read_documents(
    path: str | list[str],
    *,
    columns: list[str] | None = None,
    query: Any = None,
    format: str = "parquet",
    **kwargs: Any,
) -> ray.data.Dataset:
    """Read the interleaved span-document table (doc_id, spans).

    ``query`` is a prefilter (see :func:`compile_query_filter`) pushed into
    the scan; the CLI's ``-idfile`` / ``-id`` arrive as its
    ``("doc_id", "in", ids)`` conjunct (``cli.restrict_to_ids``).  As
    parquet the read is one block per row group
    (:func:`read_parquet_row_groups`): a shard of up to 2,048 docs is one
    block, so phase 1 runs one extract task on the session's warm worker.
    A read with a query keeps the same blocks: Ray cuts a file's filtered
    rows into its row-group count of blocks, so a selective query leaves
    some of them empty.
    """
    if columns is None:
        columns = ["doc_id", "spans"]
    predicate = compile_query_filter(query) if query is not None else None
    if predicate is not None:
        kwargs["filter"] = predicate
    if format == "lance" and HAVE_LANCE:
        return ray.data.read_lance(path, columns=columns, **kwargs)
    return read_parquet_row_groups(path, columns=columns, **kwargs)


def read_checkpoint(files: list[str]) -> ray.data.Dataset:
    """Read back a parquet checkpoint the pipeline wrote itself: one block
    per row group (:func:`read_parquet_row_groups`), which is one block per
    file, since the sink writes each block as one single-group file.

    The writer already sized those files, one per write task.  Ray's default
    read split would cut them into blocks of at least 1 MiB, and every extra
    block costs its own combiner, exchange, merge, sort and write tasks.
    """
    return read_parquet_row_groups(files)


def write_table(ds: ray.data.Dataset, path: str, *, format: str = "parquet", **kwargs: Any) -> None:
    """Write ``ds`` under ``path``.  As parquet it is a docs-shaped table
    without a manifest: unpartitioned, through the pipeline's one parquet
    sink at :data:`CHECKPOINT_ENCODING`, one deterministically named file
    per block.  ``run_kg_pipeline``'s checkpoints (``docs/``,
    ``canonical/``) do not come through here: they are written with
    ``materialize_shard(..., sort=False, table=DOCS)``, which adds the
    manifest and marker.  ``kwargs`` are ``write_lance`` options."""
    if format == "lance" and HAVE_LANCE:
        ds.write_lance(path, **kwargs)
    else:
        # materialize imports this module
        from esmarc_ray.stages.materialize import DOCS, ManifestParquetSink

        ds.write_datasink(ManifestParquetSink(path, DOCS.partition_cols, table=DOCS))


def write_jsonld(
    docs: ray.data.Dataset,
    out_dir: str,
    *,
    class_column: str = "entity_class",
    doc_column: str = "doc_json",
    compress: bool = False,
) -> ray.data.Dataset:
    """Reference-format sink: per-entity-class line-delimited JSON-LD.

    Layout matches the reference consumer contract
    (``{prefix}{entity}/{worker}-records.ldj[.gz]``, reference
    esmarc/esmarc.py:311-319) so a downstream of the reference can switch
    without changes — but each Ray block writes its OWN uniquely-named file
    (no append-mode contention, so re-running into a fresh dir is idempotent
    where the reference's append sink duplicates).

    Streams block-by-block; returns the small per-file manifest Dataset
    ``(entity_class, path, n_docs)`` — consume it to drive the write.
    """
    import gzip
    import pathlib
    import uuid

    import pyarrow as pa
    import pyarrow.compute as pc

    base = pathlib.Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        out = {"entity_class": [], "path": [], "n_docs": []}
        classes = pc.unique(batch.column(class_column)).to_pylist()
        for cls in classes:
            rows = batch.filter(pc.equal(batch.column(class_column), cls))
            cls_dir = base / str(cls)
            cls_dir.mkdir(parents=True, exist_ok=True)
            name = f"{uuid.uuid4().hex}-records.ldj" + (".gz" if compress else "")
            path = cls_dir / name
            payload = ("\n".join(rows.column(doc_column).to_pylist()) + "\n").encode()
            if compress:
                with gzip.open(path, "wb") as f:
                    f.write(payload)
            else:
                path.write_bytes(payload)
            out["entity_class"].append(str(cls))
            out["path"].append(str(path))
            out["n_docs"].append(rows.num_rows)
        return pa.Table.from_pydict(out)

    return docs.map_batches(write_block, batch_format="pyarrow", zero_copy_batch=True)


def upsert_partitioned(
    ds: ray.data.Dataset,
    store_dir: str,
    key_cols: list[str],
    *,
    num_buckets: int = 64,
    sort_within: "list[str] | None" = None,
) -> "Any":
    """Incremental merge of new rows into a hash-bucketed parquet store —
    the delta-maintenance sink for a continuously-rebuilt KG: a daily
    increment touches (and rewrites) ONLY the buckets its keys hash into;
    everything else is untouched bytes on disk.

    Layout: ``{store}/bucket={k}/part-0.parquet`` with bucket =
    siphash(key_cols) % num_buckets.  Each touched bucket's reducer reads
    the existing bucket file, unions the incoming rows, keeps the LAST
    writer per key (upsert semantics — incoming replaces stored), sorts by
    ``sort_within`` (default: the key) for deterministic bytes, and
    rewrites the file.  Raise ``num_buckets`` with store size so a bucket
    stays worker-sized; the per-bucket rewrite is the unit of both
    parallelism and incremental cost.

    Returns a pandas manifest (bucket, n_rows) of the TOUCHED buckets.
    """
    import pathlib

    import pandas as pd

    from esmarc_ray.ops.relational import hash_partition, partitioned_final

    base = pathlib.Path(store_dir)
    base.mkdir(parents=True, exist_ok=True)
    order = list(sort_within or key_cols)

    def merge_bucket(incoming: "pd.DataFrame") -> "pd.DataFrame":
        bucket = int(hash_partition(incoming.iloc[:1], key_cols, num_buckets)[0])
        bucket_dir = base / f"bucket={bucket}"
        path = bucket_dir / "part-0.parquet"
        if path.exists():
            existing = pd.read_parquet(path)
            # upsert: incoming rows REPLACE stored rows with the same key
            merged = pd.concat([existing, incoming], ignore_index=True)
            merged = merged.drop_duplicates(key_cols, keep="last")
        else:
            bucket_dir.mkdir(parents=True, exist_ok=True)
            merged = incoming.drop_duplicates(key_cols, keep="last")
        merged = merged.sort_values(order).reset_index(drop=True)
        merged.to_parquet(path, index=False)
        return pd.DataFrame({"bucket": [bucket], "n_rows": [len(merged)]})

    manifest = partitioned_final(ds, key_cols, merge_bucket, num_buckets).to_pandas()
    if manifest.empty:  # empty increment touches nothing
        return pd.DataFrame({"bucket": pd.Series(dtype="int64"),
                             "n_rows": pd.Series(dtype="int64")})
    return manifest.sort_values("bucket").reset_index(drop=True)


def read_partitioned_store(
    store_dir: str, *, columns: "list[str] | None" = None
) -> ray.data.Dataset:
    """Read every bucket of an :func:`upsert_partitioned` store back as one
    Dataset (bucket files are self-contained parquet)."""
    return ray.data.read_parquet(store_dir, columns=columns)


def merge_agg_store(
    partials: "Any",
    store_dir: str,
    key_cols: list[str],
    sum_cols: list[str],
    *,
    num_buckets: int = 64,
) -> "Any":
    """Incremental AGGREGATE store: fold new per-key partials into a
    hash-bucketed parquet store by ADDITION (not replacement — the
    aggregate-state counterpart of :func:`upsert_partitioned`): the
    continuous-aggregation / backfill sink, e.g. a day's per-customer order
    partials merged into the all-time table.  A delta rewrites only the
    buckets its keys hash into; stored rows stay mergeable partials, so a
    read never rescans history.  Returns the touched-bucket manifest."""
    import pathlib

    import pandas as pd

    from esmarc_ray.ops.relational import hash_partition, partitioned_final

    base = pathlib.Path(store_dir)
    base.mkdir(parents=True, exist_ok=True)

    def merge_bucket(incoming: "pd.DataFrame") -> "pd.DataFrame":
        bucket = int(hash_partition(incoming.iloc[:1], key_cols, num_buckets)[0])
        bucket_dir = base / f"bucket={bucket}"
        path = bucket_dir / "part-0.parquet"
        if path.exists():
            incoming = pd.concat([pd.read_parquet(path), incoming],
                                 ignore_index=True)
        else:
            bucket_dir.mkdir(parents=True, exist_ok=True)
        merged = incoming.groupby(key_cols, as_index=False)[sum_cols].sum()
        merged = merged.sort_values(key_cols).reset_index(drop=True)
        merged.to_parquet(path, index=False)
        return pd.DataFrame({"bucket": [bucket], "n_rows": [len(merged)]})

    manifest = partitioned_final(
        partials, key_cols, merge_bucket, num_buckets
    ).to_pandas()
    if manifest.empty:  # empty increment touches nothing
        return pd.DataFrame({"bucket": pd.Series(dtype="int64"),
                             "n_rows": pd.Series(dtype="int64")})
    return manifest.sort_values("bucket").reset_index(drop=True)


def write_ntriples(
    triples: "ray.data.Dataset",
    out_dir: str,
    *,
    pred_namespace: str = "https://schema.org/",
) -> "ray.data.Dataset":
    """RDF N-Triples sink over the triple table — the line-oriented
    canonical RDF serialization (complementing the reference-format JSON-LD
    sink): one ``<subj> <pred> <obj>|"literal" .`` line per triple.  Bare
    predicate names qualify under ``pred_namespace``; node-kind objects
    whose payload carries an internal ``@id`` serialize as URI terms, every
    other object as an escaped literal (N-Triples ``\\``/``"``/newline/tab
    escapes, so a triple is ALWAYS one line).

    Each block writes its own uniquely-named ``.nt`` file (idempotent into
    a fresh dir, no append contention — same layout contract as
    :func:`write_jsonld`).  Returns the small (path, n_triples) manifest
    Dataset; consume it to drive the write.  The vectorized escape chain is
    pandas ``str.replace`` (order: backslash first)."""
    import pathlib
    import re
    import uuid

    import pandas as pd

    base = pathlib.Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    id_re = re.compile(r'"@id": "(https://data\.slub-dresden\.de/[a-z]+/[^"]+)"')

    def write_block(batch: pd.DataFrame) -> pd.DataFrame:
        node = batch["obj_kind"] == "node"
        uri = pd.Series("", index=batch.index)
        if node.any():
            uri[node] = (
                batch.loc[node, "obj"].str.extract(id_re, expand=False).fillna("")
            )
        lit = (
            batch["obj"].fillna("")
            .str.replace("\\", "\\\\", regex=False)
            .str.replace('"', '\\"', regex=False)
            .str.replace("\n", "\\n", regex=False)
            .str.replace("\r", "\\r", regex=False)
            .str.replace("\t", "\\t", regex=False)
        )
        obj_term = ('"' + lit + '"').where(uri == "", "<" + uri + ">")
        lines = (
            "<" + batch["subj"].astype(str) + "> <" + pred_namespace
            + batch["pred"].astype(str) + "> " + obj_term + " ."
        )
        path = base / f"{uuid.uuid4().hex}.nt"
        path.write_text("\n".join(lines.tolist()) + "\n", encoding="utf-8")
        return pd.DataFrame({"path": [str(path)], "n_triples": [len(batch)]})

    return triples.map_batches(write_block, batch_format="pandas")
