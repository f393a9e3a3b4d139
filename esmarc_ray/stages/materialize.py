"""Graph materialize: sorted, partitioned, resumable triple-table sink.

Contrast with the reference's sink (append-mode per-worker .ldj files that
DUPLICATE output on rerun, reference esmarc/esmarc.py:311-319): here every
shard writes to its own directory with a lineage manifest and an atomic
``_SUCCESS`` checkpoint marker; a resumed run skips shards whose marker
validates, so resumed output == clean-run output (tested).

The lineage manifest (per-class row counts + order-insensitive content hash)
is computed ON the write path: :class:`ManifestParquetSink` is a Ray
``Datasink`` whose write tasks return per-(partition, file) stat partials
alongside writing the hive-partitioned parquet, and the driver folds those
tiny partials into the manifest.  One pass over the triples — at 100 TB the
output is written once and never re-read for lineage (the previous design
re-read the entire freshly-written shard to compute the same numbers).

The phase-1 docs checkpoint goes through the same sink (:data:`DOCS`):
unpartitioned, its content hash over every doc column, and the cheaper
checkpoint encoding.  Each table's parquet encoding is
``esmarc_ray.io.ParquetEncoding`` (:data:`TRIPLES`, :data:`DOCS`).

Layout of a triple shard::

    out_dir/
      shard=00000/
        entity_class=resources/ *.parquet   (partitioned, sorted within shard)
        ...
        _manifest.json    {inputs, row counts per class, content hash}
        _SUCCESS          (written last — the checkpoint marker)
      _run_manifest.json  (driver-side: shard list + per-shard status)
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time
import zlib
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data import Datasink

from esmarc_ray.io import CHECKPOINT_ENCODING, TRIPLE_ENCODING, ParquetEncoding
from esmarc_ray.ops.relational import hash_partition
from esmarc_ray.stages.extract import DOC_SCHEMA

# the columns a triple's content hash covers
TRIPLE_HASH_COLUMNS = ("subj", "pred", "obj")


@dataclass(frozen=True)
class ShardTable:
    """What the sink needs to know about the table a shard holds: its hive
    partition columns, the columns its content hash covers and its parquet
    encoding."""

    partition_cols: tuple[str, ...]
    hash_cols: tuple[str, ...]
    encoding: ParquetEncoding


TRIPLES = ShardTable(("entity_class",), TRIPLE_HASH_COLUMNS, TRIPLE_ENCODING)
# unpartitioned: phase 2 reads one block per docs file
DOCS = ShardTable((), tuple(DOC_SCHEMA.names), CHECKPOINT_ENCODING)


def _as_text(column: pa.ChunkedArray) -> pa.ChunkedArray:
    if pa.types.is_list(column.type):
        column = pc.binary_join(column, "\x1e")
    return pc.fill_null(pc.cast(column, pa.string()), "None")


def _xor_crc(batch: pa.Table, columns: tuple[str, ...] = TRIPLE_HASH_COLUMNS) -> int:
    """Order-insensitive content hash of a block over ``columns``.

    For the triple columns this matches the historical driver-side
    definition exactly (crc32 over ``subj\\x1fpred\\x1fobj``, xor-folded), so
    manifests stay byte-identical across the write-path rewrite.  A list
    column's values are joined with ``\\x1e``.  The row join is vectorized in
    Arrow; only the crc itself loops, over the block's pre-joined bytes.
    """
    joined = pc.binary_join_element_wise(
        *(_as_text(batch.column(name)) for name in columns), "\x1f"
    )
    xor_crc = 0
    for buf in joined.cast(pa.binary()).to_numpy(zero_copy_only=False):
        xor_crc ^= zlib.crc32(buf)
    return xor_crc


def _class_counts(batch: pa.Table) -> dict[str, int]:
    grouped = batch.group_by("entity_class").aggregate([("entity_class", "count")])
    return dict(
        zip(
            (str(c) for c in grouped.column("entity_class").to_pylist()),
            grouped.column("entity_class_count").to_pylist(),
        )
    )


class ManifestParquetSink(Datasink):
    """Hive-partitioned parquet sink whose write tasks ALSO return the
    lineage-manifest partials (row count, per-class counts, xor-crc, and the
    seconds its ``pq.write_table`` took) for every (partition value, file)
    they write.

    This fuses the manifest pass into the write: the driver folds one small
    dict per written file instead of re-reading the whole output.  File
    names are deterministic per (task_idx, block, partition combo), so a
    retried write task overwrites its own files rather than duplicating.
    ``table`` sets the content hash's columns and the parquet encoding;
    with no ``partition_cols`` every block is one file in ``out_dir``.
    """

    def __init__(
        self,
        out_dir: str | pathlib.Path,
        partition_cols: list[str] | tuple[str, ...],
        *,
        table: ShardTable = TRIPLES,
    ) -> None:
        self.out_dir = str(out_dir)
        self.partition_cols = list(partition_cols)
        self.table = table
        self.partials: list[dict] = []

    def write(self, blocks, ctx) -> list[dict]:
        import pyarrow.parquet as pq

        results: list[dict] = []
        base = pathlib.Path(self.out_dir)
        for bi, block in enumerate(blocks):
            if not isinstance(block, pa.Table):
                block = pa.Table.from_pandas(block)
            if block.num_rows == 0:
                continue
            # with no partition columns: one combo, the whole block
            combos = block.group_by(self.partition_cols).aggregate([])
            for j in range(combos.num_rows):
                mask = None
                part: dict[str, object] = {}
                for col in self.partition_cols:
                    val = combos.column(col)[j]
                    part[col] = val.as_py()
                    # pc.equal(col, null) is all-null and filter() treats
                    # null as false — a null partition value would silently
                    # drop its rows; route it through is_null like hive's
                    # __HIVE_DEFAULT_PARTITION__ instead
                    if part[col] is None:
                        m = pc.is_null(block.column(col))
                    else:
                        m = pc.equal(block.column(col), val)
                    mask = m if mask is None else pc.and_(mask, m)
                sub = block if mask is None else block.filter(mask)
                part_dir = base.joinpath(
                    *(
                        f"{c}=__HIVE_DEFAULT_PARTITION__"
                        if part[c] is None else f"{c}={part[c]}"
                        for c in self.partition_cols
                    )
                )
                part_dir.mkdir(parents=True, exist_ok=True)
                path = part_dir / f"part-{ctx.task_idx:05d}-{bi}-{j}.parquet"
                # no schema metadata (pandas' index notes): Ray's schema
                # unification cannot hash a schema that carries any
                data = sub.drop_columns(self.partition_cols).replace_schema_metadata(None)
                t_write = time.perf_counter()
                pq.write_table(data, path, **self.table.encoding.write_options(data.schema))
                write_seconds = time.perf_counter() - t_write
                if "entity_class" in part:
                    counts = {str(part["entity_class"]): sub.num_rows}
                elif "entity_class" in sub.column_names:
                    counts = _class_counts(sub)
                else:
                    counts = {}
                results.append(
                    {
                        "part": part,
                        "n_rows": sub.num_rows,
                        "class_counts": counts,
                        "xor_crc": _xor_crc(sub, self.table.hash_cols),
                        "write_seconds": write_seconds,
                    }
                )
        return results

    def on_write_complete(self, write_result) -> None:
        self.partials = [
            p for task_ret in write_result.write_returns for p in task_ret
        ]


def _fold_manifest(
    partials: list[dict],
    shard_path: pathlib.Path,
    inputs: list[str] | None,
    execution_seconds: float,
) -> dict:
    """Fold per-file write partials into one shard's manifest + marker.

    The driver touches one small dict per written file, never the triples.
    ``metrics.write_seconds`` sums the partials' own file-write times;
    ``metrics.execution_seconds`` is the wall span of the streaming
    execution that the write drives (every stage upstream of the sink).
    """
    counts: dict[str, int] = {}
    content_hash = 0
    n_rows = 0
    for part in partials:
        n_rows += part["n_rows"]
        content_hash ^= part["xor_crc"]
        for cls, cnt in part["class_counts"].items():
            counts[cls] = counts.get(cls, 0) + cnt
    manifest = {
        "inputs": inputs or [],
        "row_count": n_rows,
        "rows_per_class": counts,
        "content_hash": content_hash,
        # per-partition metrics (north rule: lineage + metrics per shard)
        "metrics": {
            "write_seconds": round(sum(p["write_seconds"] for p in partials), 3),
            "execution_seconds": round(execution_seconds, 3),
            "bytes_written": sum(
                f.stat().st_size for f in shard_path.rglob("*.parquet")
            ),
            "n_files": sum(1 for _ in shard_path.rglob("*.parquet")),
        },
    }
    (shard_path / "_manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True)
    )
    (shard_path / "_SUCCESS").write_text(json.dumps({"rows": n_rows}))
    return manifest


def materialize_shard(
    triples: ray.data.Dataset,
    shard_dir: str | pathlib.Path,
    *,
    inputs: list[str] | None = None,
    sort: bool = True,
    table: ShardTable = TRIPLES,
) -> dict:
    """Sort + partition-write one shard of ``table`` (the triples, or the
    phase-1 docs with ``sort=False, table=DOCS``); manifest then marker.

    An existing (necessarily incomplete or stale) shard dir is wiped first —
    the write is idempotent, never appending like the reference sink does.
    The manifest partials come back from the write tasks themselves (see
    :class:`ManifestParquetSink`), so the shard is written once and never
    re-read.
    """
    shard_path = pathlib.Path(shard_dir)
    if shard_path.exists():
        shutil.rmtree(shard_path)
    shard_path.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    if sort:
        triples = triples.sort(["entity_class", "subj", "pred"])
    sink = ManifestParquetSink(shard_path, table.partition_cols, table=table)
    triples.write_datasink(sink)
    return _fold_manifest(sink.partials, shard_path, inputs, time.perf_counter() - t_start)


def materialize_buckets(
    triples: ray.data.Dataset,
    out_dir: str | pathlib.Path,
    *,
    num_buckets: int = 16,
    inputs: list[str] | None = None,
    sort: bool = True,
    resume: bool = True,
) -> dict:
    """Bucketed, PER-BUCKET-resumable production sink — the wide phase's
    100-TB shape: output splits into ``num_buckets`` hash(subj) ranges,
    each written sorted with its OWN lineage manifest + ``_SUCCESS``
    marker, all in ONE pass (a single global sort on (bucket,
    entity_class, subj, pred) then a hive write partitioned by
    (bucket, entity_class), whose write tasks return the per-bucket
    manifest partials — no read-back pass).

    A resumed run drops completed buckets' rows BEFORE the sort, so the
    expensive half of the wide phase (range exchange + write) scales with
    the MISSING buckets only, and rebuilds exactly those; per-bucket
    manifests make resumed output == clean output (gated by
    tests/test_pipeline.py::test_bucketed_materialize_resume and the
    ``triple_bucket_resume`` oracle).  Bucket assignment is the engine's
    standard deterministic hash, so reruns route rows identically.
    Each bucket's ``metrics.write_seconds`` sums its own files' write
    times; ``metrics.execution_seconds`` is the one pass's wall span.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def bdir(k: int) -> pathlib.Path:
        return out / f"bucket={k}"

    done = [
        k for k in range(num_buckets) if resume and shard_is_complete(bdir(k))
    ]
    todo = sorted(set(range(num_buckets)) - set(done))
    status = {
        "num_buckets": num_buckets,
        "skipped": done,
        "built": todo,
        "buckets": {},
    }
    for k in done:
        status["buckets"][str(k)] = json.loads(
            (bdir(k) / "_manifest.json").read_text()
        )
    if not todo:
        return status

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = hash_partition(batch, "subj", num_buckets)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    keyed = triples.map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True
    )
    if done:
        done_arr = pa.array(done, pa.int32())

        def drop_done(batch: pa.Table) -> pa.Table:
            mask = pc.invert(pc.is_in(batch.column("bucket"), value_set=done_arr))
            return batch.filter(mask)

        keyed = keyed.map_batches(
            drop_done, batch_format="pyarrow", zero_copy_batch=True
        )
    for k in todo:
        shutil.rmtree(bdir(k), ignore_errors=True)
    t0 = time.perf_counter()
    if sort:
        keyed = keyed.sort(["bucket", "entity_class", "subj", "pred"])
    sink = ManifestParquetSink(out, ["bucket", "entity_class"])
    keyed.write_datasink(sink)
    execution_seconds = time.perf_counter() - t0
    by_bucket: dict[int, list[dict]] = {}
    for part in sink.partials:
        by_bucket.setdefault(int(part["part"]["bucket"]), []).append(part)
    for k in todo:
        bdir(k).mkdir(parents=True, exist_ok=True)  # empty bucket is valid
        status["buckets"][str(k)] = _fold_manifest(
            by_bucket.get(k, []), bdir(k), inputs, execution_seconds
        )
    return status


def parquet_rows(path: str | pathlib.Path) -> int:
    """Rows in every ``*.parquet`` file under ``path`` (searched
    recursively), summed from the parquet footers — no data is read."""
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(p).num_rows for p in pathlib.Path(path).rglob("*.parquet"))


def shard_is_complete(shard_dir: str | pathlib.Path) -> bool:
    """A shard (docs shard or triple bucket) is complete when its manifest
    and ``_SUCCESS`` marker agree on a real row count and the parquet files
    now under it hold exactly that many rows.  A lost or a stray file, or a
    legacy ``-1`` count, makes it incomplete, so resume rebuilds it."""
    shard_path = pathlib.Path(shard_dir)
    if not (shard_path / "_SUCCESS").exists() or not (shard_path / "_manifest.json").exists():
        return False
    try:
        manifest = json.loads((shard_path / "_manifest.json").read_text())
        marker = json.loads((shard_path / "_SUCCESS").read_text())
        rows = manifest["row_count"]
        return rows == marker["rows"] and rows >= 0 and parquet_rows(shard_path) == rows
    except (ValueError, KeyError, TypeError, OSError, pa.ArrowException):
        return False
