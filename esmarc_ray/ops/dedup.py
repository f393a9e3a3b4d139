"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale notes (100 TB framing):

* exact: hash-partitioned groupby on the key; per-group keep-first — one
  shuffle of (key, doc_id) width, not of the payload;
* MinHash+LSH: signatures computed batch-local (numpy), then only the tiny
  (band, band_hash, doc_id) rows shuffle; candidate verification is fully
  distributed (hash semi-join for candidate docs, two hash joins to meet
  each pair with its shingle arrays, connected components for clustering —
  nothing collects to the driver);
* SimHash: 64-bit signatures bucketed by 16-bit chunks (hamming ≤ 3 within
  4 chunks guarantees one exact chunk match);
* embedding: random-hyperplane LSH buckets, exact cosine verify per bucket.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from esmarc_ray.config import derive_width
from esmarc_ray.ops.relational import partitioned_final

_MERSENNE = np.uint64((1 << 61) - 1)


# -- exact ---------------------------------------------------------------------


@derive_width
def exact_dedup(
    docs: ray.data.Dataset,
    key_column: str = "text",
    id_column: str = "doc_id",
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Keep the smallest ``id_column`` row per distinct ``key_column`` value.

    Hash-partitioned on the key (one reducer call per PARTITION, not per
    key — a per-key ``map_groups`` pays one UDF task per distinct value,
    which is nearly one per row on mostly-unique corpora)."""

    def keep_first(part: pd.DataFrame) -> pd.DataFrame:
        return part.sort_values([key_column, id_column]).drop_duplicates(key_column)

    return partitioned_final(docs, [key_column], keep_first, num_partitions)


def dedup_against_store(
    docs: ray.data.Dataset,
    store_dir: str,
    *,
    key_column: str = "text",
    id_column: str = "doc_id",
    num_buckets: int = 64,
    update_store: bool = True,
) -> ray.data.Dataset:
    """Incremental exact dedup of a NEW batch against a persisted corpus
    store — the continuous-crawl shape: yesterday's 100 TB never reshuffles;
    today's increment pays only (its own shuffle + a read of the store
    buckets it hashes into).

    Store layout: ``{store}/bucket={k}/part-*.parquet`` holding one
    ``content_md5`` (+ provenance ``id``) row per known document, bucket =
    ``int(md5[:8], 16) % num_buckets`` — engine-independent, so any reader
    can probe it.  Each per-bucket task set-probes ONLY its own bucket's
    hash column, drops incoming rows already known, keeps the smallest id
    per new hash (intra-batch dedup), and — with ``update_store`` —
    APPENDS the surviving hashes as a new part file: no bucket rewrite, so
    incremental cost scales with the increment, never the store.

    Returns the kept rows (original columns + ``content_md5``), ready to
    flow into the rest of the pipeline.
    """
    import glob as globmod
    import hashlib
    import pathlib
    import uuid

    base = pathlib.Path(store_dir)
    base.mkdir(parents=True, exist_ok=True)

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        md5s = [
            hashlib.md5(str(v).encode("utf-8")).hexdigest()
            for v in batch[key_column].fillna("")
        ]
        batch = batch.copy()
        batch["content_md5"] = md5s
        batch["__bucket"] = pd.array(
            [int(h[:8], 16) % num_buckets for h in md5s], dtype="int32"
        )
        return batch

    def probe_bucket(group: pd.DataFrame) -> pd.DataFrame:
        bucket = int(group["__bucket"].iloc[0])
        bucket_dir = base / f"bucket={bucket}"
        known: set = set()
        for path in sorted(globmod.glob(str(bucket_dir / "part-*.parquet"))):
            known.update(pd.read_parquet(path, columns=["content_md5"])["content_md5"])
        fresh = group[~group["content_md5"].isin(known)]
        # intra-increment dedup: smallest id wins per new hash
        fresh = fresh.sort_values(["content_md5", id_column]).drop_duplicates(
            "content_md5"
        )
        if update_store and len(fresh):
            bucket_dir.mkdir(parents=True, exist_ok=True)
            part = bucket_dir / f"part-{uuid.uuid4().hex}.parquet"
            fresh[["content_md5", id_column]].rename(
                columns={id_column: "id"}
            ).to_parquet(part, index=False)
        return fresh.drop(columns="__bucket")

    return (
        docs.map_batches(add_hash, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(probe_bucket, batch_format="pandas")
    )


# -- shingles + MinHash ----------------------------------------------------------


def _shingle_hashes(text: str, width: int = 3) -> np.ndarray:
    """Hashes of word ``width``-grams (the Jaccard universe of a doc)."""
    words = text.split()
    if len(words) < width:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + width]) for i in range(len(words) - width + 1)]
    return np.unique(
        np.array([zlib.crc32(s.encode()) for s in shingles], dtype=np.uint64)
    )


class _MinHasher:
    """Stateful per-actor minhash parameters (seeded once, reused per batch)."""

    def __init__(self, num_perm: int, bands: int, shingle_width: int, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_width = shingle_width

    def signature(self, text: str) -> np.ndarray:
        hashes = _shingle_hashes(text, self.shingle_width)
        # (shingles × perms) universal hashing, column-min
        projected = (hashes[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
        return projected.min(axis=0)

    def __call__(self, batch) -> pd.DataFrame:
        """flat_map-style: one output row per (doc, band).

        Accepts a pyarrow Table (preferred: one zero-copy → pylist
        conversion) or a pandas frame; output columns are assembled with
        numpy repeat/tile instead of per-row list appends.  Hash values are
        bit-identical to the historical per-row path: crc32 over the exact
        same band-chunk bytes of the same signatures."""
        import pyarrow as pa

        if isinstance(batch, pa.Table):
            ids = batch.column("doc_id").to_pylist()
            texts = batch.column("text").to_pylist()
        else:
            ids = batch["doc_id"].tolist()
            texts = batch["text"].fillna("").tolist()
        n = len(ids)
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        for i, text in enumerate(texts):
            sigs[i] = self.signature(text or "")
        view = sigs.reshape(n, self.bands, self.rows_per_band)
        band_hash = np.empty(n * self.bands, dtype=np.int64)
        k = 0
        for i in range(n):
            row = view[i]
            for band in range(self.bands):
                band_hash[k] = zlib.crc32(row[band].tobytes())
                k += 1
        return pd.DataFrame(
            {
                # note: no dtype=object — int ids must stay int64 so the
                # emitted pair columns keep their historical dtype
                "doc_id": pd.Series(ids).repeat(self.bands).reset_index(drop=True),
                "band": np.tile(np.arange(self.bands, dtype=np.int64), n),
                "band_hash": band_hash,
            }
        )


import functools


@functools.lru_cache(maxsize=8)
def _minhasher_for(num_perm: int, bands: int, shingle_width: int) -> _MinHasher:
    """Per-process memoized minhash parameters: the state is a few KB of
    seeded RNG constants, so the signature stage runs as a plain TASK pool
    (scales with the cluster) instead of a capped actor pool — an actor
    pool here starved the hottest stage at 2 actors regardless of CPUs."""
    return _MinHasher(num_perm=num_perm, bands=bands, shingle_width=shingle_width)


def _signature_batch(
    batch: pd.DataFrame, *, num_perm: int, bands: int, shingle_width: int
) -> pd.DataFrame:
    return _minhasher_for(num_perm, bands, shingle_width)(batch)


def minhash_candidates(
    docs: ray.data.Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_width: int = 3,
    concurrency: int | tuple[int, int] | None = None,
    num_partitions: int | None = None,
    max_bucket_size: int = 1000,
) -> ray.data.Dataset:
    """LSH candidate pairs: docs sharing any (band, band_hash) bucket.

    Returns a dataset of (doc_a, doc_b) with doc_a < doc_b, deduplicated.
    ``concurrency=None`` (default) runs the signature stage as a plain task
    pool — it autoscales to every free CPU; pass an int to cap the task
    pool, or a (min, max) tuple to run it as an autoscaling actor pool
    (Ray rejects tuple concurrency on plain functions, so the tuple form
    routes through the ``_MinHasher`` callable class).

    **Hot-bucket self-protection**: a degenerate band bucket (millions of
    empty/boilerplate docs sharing one signature) would emit O(|bucket|²)
    pairs.  Buckets larger than ``max_bucket_size`` fall back to a STAR
    pattern — every member pairs with the bucket's smallest doc_id only —
    bounding emission at O(|bucket|) while keeping the bucket one connected
    component for downstream clustering.  Precision caveat: two members of
    an oversized bucket that are near-dups of each other but NOT of the hub
    lose their direct candidate edge; in practice oversized buckets are
    boilerplate-identical, where the star is exact.  Gated by
    tests/test_ops.py::test_minhash_hot_bucket_bounded (10k identical docs).

    ``num_partitions=None`` derives the shuffle width from the input size /
    cluster (esmarc_ray.config.derive_partitions) instead of freezing it.
    """
    from esmarc_ray.config import dataset_size_hint, derive_partitions
    if isinstance(concurrency, tuple):
        bands_ds = docs.map_batches(
            _MinHasher,
            fn_constructor_kwargs={
                "num_perm": num_perm, "bands": bands, "shingle_width": shingle_width,
            },
            batch_format="pyarrow",
            zero_copy_batch=True,
            concurrency=concurrency,
        )
    else:
        kwargs = dict(
            fn_kwargs={
                "num_perm": num_perm, "bands": bands, "shingle_width": shingle_width,
            },
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if concurrency is not None:
            kwargs["concurrency"] = concurrency
        bands_ds = docs.map_batches(_signature_batch, **kwargs)

    if num_partitions is None:
        num_partitions = derive_partitions(dataset_size_hint(docs))

    def partition_pairs(part: pa.Table) -> pa.Table:
        """Vectorized bucket → pair expansion: dedupe + sort puts each
        (band, band_hash) bucket into a contiguous ascending-doc_id run;
        pair index arrays are built per RUN-SIZE class with one
        triu_indices broadcast each (no per-group Python loop), then one
        Arrow take gathers the doc ids.  Ascending runs make doc_a < doc_b
        by construction — same output as the historical row loop."""
        tbl = part.group_by(["band", "band_hash", "doc_id"]).aggregate([])
        tbl = tbl.sort_by(
            [("band", "ascending"), ("band_hash", "ascending"),
             ("doc_id", "ascending")]
        )
        band = tbl.column("band").to_numpy(zero_copy_only=False)
        bh = tbl.column("band_hash").to_numpy(zero_copy_only=False)
        ids = tbl.column("doc_id")
        if len(band) == 0:
            return pa.table({"doc_a": ids, "doc_b": ids})
        change = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
        starts = np.concatenate(
            [[0], np.flatnonzero(change) + 1, [len(band)]]
        ).astype(np.int64)
        sizes = np.diff(starts)
        run_starts = starts[:-1]
        ia_parts: list[np.ndarray] = []
        ib_parts: list[np.ndarray] = []
        for s in np.unique(sizes):
            if s < 2:
                continue
            s = int(s)
            origins = run_starts[sizes == s]
            if s > max_bucket_size:
                # oversized bucket: O(n) star to the smallest member
                # instead of O(n²) all-pairs (see docstring)
                ia_parts.append(np.repeat(origins, s - 1))
                ib_parts.append(
                    (origins[:, None] + np.arange(1, s)).ravel()
                )
            else:
                i, j = np.triu_indices(s, 1)
                ia_parts.append((origins[:, None] + i).ravel())
                ib_parts.append((origins[:, None] + j).ravel())
        if not ia_parts:
            empty = ids.take(pa.array([], pa.int64()))
            return pa.table({"doc_a": empty, "doc_b": empty})
        ia = pa.array(np.concatenate(ia_parts), pa.int64())
        ib = pa.array(np.concatenate(ib_parts), pa.int64())
        return pa.table({"doc_a": ids.take(ia), "doc_b": ids.take(ib)})

    pairs = partitioned_final(
        bands_ds, ["band", "band_hash"], partition_pairs, num_partitions,
        batch_format="pyarrow",
    )

    def distinct_pairs(part: pa.Table) -> pa.Table:
        return part.group_by(["doc_a", "doc_b"]).aggregate([]).select(
            ["doc_a", "doc_b"]
        )

    return partitioned_final(
        pairs, ["doc_a", "doc_b"], distinct_pairs, num_partitions,
        batch_format="pyarrow",
    )


def verify_jaccard(
    docs: ray.data.Dataset,
    candidate_pairs: list[tuple],
    *,
    threshold: float = 0.8,
    shingle_width: int = 3,
) -> list[tuple]:
    """Exact n-gram-Jaccard verification of LSH candidates.

    The candidate id-set is broadcast; only candidate docs leave the scan.
    Returns [(doc_a, doc_b, jaccard)] with jaccard ≥ threshold.
    """
    needed = {d for pair in candidate_pairs for d in pair}
    shingle_sets: dict = {}
    filtered = docs.map_batches(
        lambda b: b[b["doc_id"].isin(needed)], batch_format="pandas"
    )
    for batch in filtered.iter_batches(batch_format="pandas"):
        for doc_id, text in zip(batch["doc_id"], batch["text"].fillna("")):
            shingle_sets[doc_id] = set(_shingle_hashes(text, shingle_width).tolist())
    confirmed = []
    for a, b in candidate_pairs:
        sa, sb = shingle_sets.get(a), shingle_sets.get(b)
        if not sa or not sb:
            continue
        j = len(sa & sb) / len(sa | sb)
        if j >= threshold:
            confirmed.append((a, b, j))
    return confirmed


@derive_width
def _distinct_on(ds: ray.data.Dataset, columns: list[str], num_partitions: int | None = None) -> ray.data.Dataset:
    """Distributed DISTINCT over ``columns`` (hash-partitioned, one reducer
    per partition) — ``Dataset.unique`` collects to the driver, this doesn't."""

    def local_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[columns].drop_duplicates()

    return partitioned_final(
        ds.map_batches(local_distinct, batch_format="pandas"),
        columns,
        lambda p: p.drop_duplicates(columns),
        num_partitions,
    )


def shingle_table(
    docs: ray.data.Dataset, *, shingle_width: int = 3
) -> ray.data.Dataset:
    """(doc_id, shingles:binary) — each doc's sorted-unique shingle hash set
    as raw uint64 bytes.  Bytes, not list/ndarray: ndarray cells become Ray's
    tensor extension type, which Arrow's join cannot carry as a payload
    column; plain binary joins fine and np.frombuffer is zero-copy."""

    def compute(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "shingles": [
                    _shingle_hashes(t, shingle_width).tobytes()
                    for t in batch["text"].fillna("")
                ],
            }
        )

    return docs.map_batches(compute, batch_format="pandas")


@derive_width
def verify_jaccard_ds(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    shingle_width: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distributed exact n-gram-Jaccard verification of candidate pairs.

    Nothing touches the driver: candidate ids come from a distributed
    DISTINCT over the pair table, candidate docs via a hash semi-join, and
    each pair meets its two shingle arrays through two hash joins — so pair
    count and candidate-doc count can both exceed driver memory (the
    broadcast variant :func:`verify_jaccard` is the small-candidate-set
    shortcut).  Returns (doc_a, doc_b, jaccard) with jaccard ≥ threshold.
    """
    from esmarc_ray.ops.relational import partitioned_join

    def _rename(ds: ray.data.Dataset, mapping: dict) -> ray.data.Dataset:
        # Dataset.rename_columns requires Arrow blocks; these are pandas
        return ds.map_batches(lambda b: b.rename(columns=mapping), batch_format="pandas")

    # pairs feeds three consumers (two id projections + the join); without a
    # barrier the lazy DAG re-runs the whole candidate pipeline per consumer.
    # Candidate pairs are two-id rows — tiny next to the corpus.
    pairs = pairs.materialize()
    ids_a = _rename(pairs.select_columns(["doc_a"]), {"doc_a": "doc_id"})
    ids_b = _rename(pairs.select_columns(["doc_b"]), {"doc_b": "doc_id"})
    needed = _distinct_on(ids_a.union(ids_b), ["doc_id"], num_partitions)
    # semi-join + both pair joins use the task-only partitioned_join: Ray's
    # native JoinOperator reserves an aggregator actor pool per join, and a
    # chain of three can exceed the cluster's CPUs and stall the executor
    cand_docs = partitioned_join(
        docs.select_columns(["doc_id", "text"]), needed, "doc_id",
        left_cols=["text"], right_cols=[], num_partitions=num_partitions,
    )
    # consumed twice (sh_a / sh_b); bounded by candidate-doc count and the
    # object store spills if large
    shingles = shingle_table(cand_docs, shingle_width=shingle_width).materialize()

    sh_a = _rename(shingles, {"doc_id": "doc_a", "shingles": "sh_a"})
    sh_b = _rename(shingles, {"doc_id": "doc_b", "shingles": "sh_b"})
    joined = partitioned_join(
        partitioned_join(
            pairs, sh_a, "doc_a",
            left_cols=["doc_b"], right_cols=["sh_a"], num_partitions=num_partitions,
        ),
        sh_b, "doc_b",
        left_cols=["doc_a", "sh_a"], right_cols=["sh_b"], num_partitions=num_partitions,
    )

    def jaccard(batch: pd.DataFrame) -> pd.DataFrame:
        scores = []
        for raw_a, raw_b in zip(batch["sh_a"], batch["sh_b"]):
            sa = np.frombuffer(raw_a, dtype=np.uint64)
            sb = np.frombuffer(raw_b, dtype=np.uint64)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            scores.append(inter / union if union else 0.0)
        out = batch[["doc_a", "doc_b"]].copy()
        out["jaccard"] = scores
        return out[out["jaccard"] >= threshold]

    return joined.map_batches(jaccard, batch_format="pandas")


def minhash_dedup(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    broadcast_pair_limit: int = 100_000,
    **lsh_kwargs,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Full near-dup pipeline: LSH candidates → exact verify → duplicate
    clusters → keep the smallest doc_id per cluster.

    Returns (deduped docs dataset, confirmed (doc_a, doc_b, jaccard) dataset).

    Plan choice by candidate count (the pairs table is materialized either
    way, so the count is free): at or below ``broadcast_pair_limit`` pairs,
    verification broadcasts the id-set and clusters with a driver union-find
    — seconds of overhead instead of the distributed plan's many stages.
    Above it, everything stays a Dataset op: distributed verify (hash joins,
    :func:`verify_jaccard_ds`), connected components, hash anti-join — pairs,
    shingles and clusters never collect to the driver.
    """
    from esmarc_ray.ops.graph import connected_components

    pairs = minhash_candidates(docs, **lsh_kwargs).materialize()
    if pairs.count() <= broadcast_pair_limit:
        pair_list = [(r["doc_a"], r["doc_b"]) for r in pairs.take_all()]
        confirmed_rows = verify_jaccard(docs, pair_list, threshold=threshold)
        parent: dict = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, _ in confirmed_rows:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        drop_ids = {x for x in parent if find(x) != x}
        deduped = docs.map_batches(
            lambda b: b[~b["doc_id"].isin(drop_ids)], batch_format="pandas"
        )
        confirmed = ray.data.from_pandas(
            pd.DataFrame(confirmed_rows, columns=["doc_a", "doc_b", "jaccard"])
        )
        return deduped, confirmed

    # confirmed pairs feed both the return value and the component pass
    confirmed = verify_jaccard_ds(docs, pairs, threshold=threshold).materialize()
    components = connected_components(confirmed, u="doc_a", v="doc_b")
    # nodes whose component representative is some other (smaller) id → drop.
    # connected_components stringifies node ids, so the anti-join matches on a
    # stringified temp key rather than guessing the docs' id dtype.
    drop = components.filter(expr="node != component").map_batches(
        lambda b: pd.DataFrame({"__key": b["node"], "__drop": 1}),
        batch_format="pandas",
    )

    # hash anti-join: docs minus drop (the drop set can be a large fraction
    # of the corpus, so no broadcast)
    from esmarc_ray.ops.relational import partitioned_join

    doc_cols = [c for c in docs.columns() if c != "__key"]
    keyed = docs.map_batches(
        lambda b: b.assign(__key=b["doc_id"].astype(str)), batch_format="pandas"
    )
    deduped = (
        partitioned_join(
            keyed, drop, "__key",
            left_cols=doc_cols, right_cols=["__drop"], how="left",
        )
        .map_batches(lambda b: b[b["__drop"].isna()], batch_format="pandas")
        .drop_columns(["__key", "__drop"])
    )
    return deduped, confirmed


def duplicate_clusters(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    broadcast_pair_limit: int = 100_000,
    **lsh_kwargs,
) -> ray.data.Dataset:
    """Near-duplicate cluster membership: one (node, component) row per doc
    that belongs to a confirmed duplicate cluster (node ids stringified, the
    component is the cluster's minimal member id).  Docs with no near-dup
    never appear.  Same size-based plan switch as :func:`minhash_dedup`:
    small pair sets verify broadcast + driver union-find, large ones stay
    fully distributed (hash joins + connected components).
    """
    from esmarc_ray.ops.graph import connected_components

    pairs = minhash_candidates(docs, **lsh_kwargs).materialize()
    if pairs.count() <= broadcast_pair_limit:
        pair_list = [(r["doc_a"], r["doc_b"]) for r in pairs.take_all()]
        confirmed_rows = verify_jaccard(docs, pair_list, threshold=threshold)
        parent: dict = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, _ in confirmed_rows:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        rows = pd.DataFrame(
            {"node": [str(x) for x in parent], "component": [str(find(x)) for x in parent]}
        )
        return ray.data.from_pandas(rows)
    confirmed = verify_jaccard_ds(docs, pairs, threshold=threshold).materialize()
    return connected_components(confirmed, u="doc_a", v="doc_b")


def dedup_keep_best(
    docs: ray.data.Dataset,
    *,
    quality_column: str,
    id_column: str = "doc_id",
    threshold: float = 0.8,
    broadcast_pair_limit: int = 100_000,
    **lsh_kwargs,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """Quality-aware near-dup dedup: per duplicate cluster keep the HIGHEST
    ``quality_column`` doc (ties → smallest id) instead of the smallest id —
    the pretraining-data curation policy (drop the worse copy, not the
    later one).  Returns (deduped docs, (node, component) cluster table).

    Fully distributed: cluster membership joins back to the docs with a
    hash-partitioned join; un-clustered docs stream through untouched; the
    per-cluster argmax is a partial-pruned top-1 per group.
    """
    from esmarc_ray.ops.relational import partitioned_join, topk_per_group

    clusters = duplicate_clusters(
        docs,
        threshold=threshold,
        broadcast_pair_limit=broadcast_pair_limit,
        **lsh_kwargs,
    )

    def to_join_key(b: pd.DataFrame) -> pd.DataFrame:
        if "node" not in b.columns:  # schema-less empty batch
            return pd.DataFrame({"__key": pd.Series(dtype="object"),
                                 "__comp": pd.Series(dtype="object")})
        return pd.DataFrame({"__key": b["node"], "__comp": b["component"]})

    clusters_keyed = clusters.map_batches(to_join_key, batch_format="pandas")
    doc_cols = list(docs.columns())
    keyed = docs.map_batches(
        lambda b: b.assign(__key=b[id_column].astype(str)), batch_format="pandas"
    )
    joined = partitioned_join(
        keyed, clusters_keyed, "__key",
        left_cols=doc_cols, right_cols=["__comp"], how="left",
    )
    loners = joined.map_batches(
        lambda b: b[b["__comp"].isna()][doc_cols], batch_format="pandas"
    )
    clustered = joined.map_batches(
        lambda b: b[b["__comp"].notna()], batch_format="pandas"
    )
    best = topk_per_group(
        clustered, ["__comp"], [quality_column, id_column], 1, descending=True
    ).map_batches(lambda b: b[doc_cols], batch_format="pandas")
    deduped = loners.union(best)
    return deduped, clusters


# -- SimHash ---------------------------------------------------------------------


def _simhash(text: str) -> int:
    words = text.split()
    if not words:
        return 0
    hashes = np.array([zlib.crc32(w.encode()) for w in words], dtype=np.uint64)
    bits = ((hashes[:, None] >> np.arange(32, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    weights = (2 * bits - 1).sum(axis=0)
    high = np.array([zlib.crc32((w + "#").encode()) for w in words], dtype=np.uint64)
    bits_hi = ((high[:, None] >> np.arange(32, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    weights_hi = (2 * bits_hi - 1).sum(axis=0)
    sig = 0
    for i in range(32):
        if weights[i] > 0:
            sig |= 1 << i
        if weights_hi[i] > 0:
            sig |= 1 << (32 + i)
    return sig


def simhash_signatures(docs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    def add_sig(batch: pd.DataFrame) -> pd.DataFrame:
        batch["simhash"] = batch["text"].fillna("").map(_simhash).astype("uint64")
        return batch

    return docs.map_batches(add_sig, batch_format="pandas", **kwargs)


@derive_width
def hamming_near_dups(
    sigs: ray.data.Dataset,
    *,
    id_column: str = "doc_id",
    sig_column: str = "simhash",
    max_hamming: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Near-dup pairs over ANY 64-bit signature column (SimHash text
    fingerprints, perceptual image hashes, …): candidate generation by
    chunk buckets + exact per-bucket hamming verify, everything
    hash-partitioned.  Returns (doc_a, doc_b, hamming), distinct.

    The pigeonhole guarantee needs ``n_chunks ≥ max_hamming + 1`` (hamming ≤
    h over n chunks ⇒ at least one chunk identical only when n > h), so the
    chunk count scales with the requested radius: 4 16-bit chunks up to
    hamming 3, more (narrower) chunks — and therefore denser candidate
    buckets — for larger radii, up to the 64-bit limit."""
    if max_hamming >= 64:
        raise ValueError(f"max_hamming={max_hamming} exceeds the 64-bit signature")
    n_chunks = max(4, max_hamming + 1)
    base_bits = 64 // n_chunks

    def _chunk_spec(c: int) -> tuple[int, int]:
        shift = c * base_bits
        width = base_bits if c < n_chunks - 1 else 64 - base_bits * (n_chunks - 1)
        return shift, (1 << width) - 1

    def chunk_rows(batch: pd.DataFrame) -> pd.DataFrame:
        sig = batch[sig_column].to_numpy().astype("uint64")
        ids = batch[id_column].to_numpy()
        frames = []
        for c in range(n_chunks):
            shift, mask = _chunk_spec(c)
            frames.append(pd.DataFrame({
                "id": ids,
                "chunk": np.full(len(ids), c, dtype="int64"),
                "chunk_val": ((sig >> np.uint64(shift)) & np.uint64(mask)).astype("int64"),
                "sig": sig,
            }))
        return pd.concat(frames, ignore_index=True)

    def partition_pairs(part: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_a": [], "doc_b": [], "hamming": []}
        for _, group in part.groupby(["chunk", "chunk_val"], sort=False):
            rows = group.drop_duplicates("id").sort_values("id")
            ids = rows["id"].tolist()
            hs = rows["sig"].tolist()
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = bin(int(hs[i]) ^ int(hs[j])).count("1")
                    if d <= max_hamming:
                        out["doc_a"].append(ids[i])
                        out["doc_b"].append(ids[j])
                        out["hamming"].append(d)
        return pd.DataFrame(out)

    pairs = partitioned_final(
        sigs.map_batches(chunk_rows, batch_format="pandas"),
        ["chunk", "chunk_val"],
        partition_pairs,
        num_partitions,
    )
    # a pair found via several chunk buckets repeats with the SAME hamming
    # (it is a function of the two signatures), so a distributed DISTINCT
    # over all three columns dedups exactly — no driver collection
    return _distinct_on(pairs, ["doc_a", "doc_b", "hamming"])


def simhash_near_dups(docs: ray.data.Dataset, max_hamming: int = 3) -> ray.data.Dataset:
    """Candidate generation by 16-bit chunk buckets + exact hamming verify.

    Returns a Dataset (doc_a, doc_b, hamming), deduplicated distributively."""
    sigs = simhash_signatures(docs).select_columns(["doc_id", "simhash"])
    return hamming_near_dups(
        sigs, id_column="doc_id", sig_column="simhash", max_hamming=max_hamming
    )


# -- embedding near-dup -----------------------------------------------------------


def embedding_near_dups(
    embeddings: ray.data.Dataset,
    *,
    threshold: float = 0.95,
    n_planes: int = 12,
    n_tables: int = 8,
    seed: int = 11,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    num_partitions: int | None = None,
    max_bucket_size: int = 5000,
) -> ray.data.Dataset:
    """Cosine near-dup via random-hyperplane LSH + exact verify.

    Returns a Dataset (vec_a, vec_b, cosine) with vec_a < vec_b, deduplicated
    distributively.

    ``n_tables`` independent hyperplane sets raise recall: a pair at angle θ
    collides in one table with (1 - θ/π)^n_planes, and in ≥1 of T tables with
    1-(1-p)^T — at cosine 0.95 and (12 planes, 8 tables) that is ≈0.93.
    Candidate rows are (table, bucket, id); only ids+vectors shuffle.

    Hot-bucket self-protection: a (table, bucket) group larger than
    ``max_bucket_size`` (near-identical embedding pileup) would need an
    O(|bucket|²) similarity matrix; it falls back to hub-star verification —
    every member scored exactly against the bucket's smallest id only, O(n)
    time and memory, connectivity preserved for downstream clustering.
    ``num_partitions=None`` derives the shuffle width from input size /
    cluster instead of freezing it.
    """
    from esmarc_ray.config import dataset_size_hint, derive_partitions
    rngs = [np.random.RandomState(seed + t) for t in range(n_tables)]
    planes_per_table: list[np.ndarray | None] = [None] * n_tables

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(batch[vector_column].to_numpy())
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        normalized = mat / np.clip(norms, 1e-9, None)
        frames = []
        for t in range(n_tables):
            if planes_per_table[t] is None:
                planes_per_table[t] = rngs[t].randn(mat.shape[1], n_planes)
            signs = (mat @ planes_per_table[t]) > 0
            keys = (signs * (1 << np.arange(n_planes))).sum(axis=1)
            frames.append(
                pd.DataFrame(
                    {
                        id_column: batch[id_column],
                        "table": t,
                        "bucket": keys.astype("int64"),
                        "vec": list(normalized),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    def bucket_pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, group in part.groupby(["table", "bucket"], sort=False):
            if len(group) < 2:
                continue
            ids = group[id_column].to_numpy()
            if len(ids) > max_bucket_size:
                # oversized bucket: exact hub-star scoring, O(n) not O(n²)
                order = np.argsort(ids)
                ids = ids[order]
                mat = np.stack(group["vec"].to_numpy()[order])
                sims = mat[1:] @ mat[0]
                keep = sims >= threshold
                if keep.any():
                    outs.append(
                        pd.DataFrame(
                            {
                                "vec_a": np.full(int(keep.sum()), ids[0]),
                                "vec_b": ids[1:][keep],
                                "cosine": sims[keep],
                            }
                        )
                    )
                continue
            mat = np.stack(group["vec"].to_numpy())
            sims = mat @ mat.T
            ii, jj = np.where(np.triu(sims, 1) >= threshold)
            if len(ii):
                outs.append(
                    pd.DataFrame({"vec_a": ids[ii], "vec_b": ids[jj], "cosine": sims[ii, jj]})
                )
        if not outs:
            return pd.DataFrame({"vec_a": pd.Series(dtype="int64"),
                                 "vec_b": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        return pd.concat(outs, ignore_index=True)

    if num_partitions is None:
        num_partitions = derive_partitions(dataset_size_hint(embeddings))

    def canonical_order(batch: pd.DataFrame) -> pd.DataFrame:
        lo = batch[["vec_a", "vec_b"]].min(axis=1)
        hi = batch[["vec_a", "vec_b"]].max(axis=1)
        batch["vec_a"], batch["vec_b"] = lo, hi
        return batch

    pairs_ds = partitioned_final(
        embeddings.map_batches(bucket, batch_format="pandas"),
        ["table", "bucket"],
        bucket_pairs,
        num_partitions,
    ).map_batches(canonical_order, batch_format="pandas")
    # cross-table repeats carry the bit-identical cosine (same dot product),
    # so distributed DISTINCT over all three columns dedups exactly
    return _distinct_on(pairs_ds, ["vec_a", "vec_b", "cosine"])


def semantic_dedup(
    embeddings: ray.data.Dataset,
    *,
    threshold: float = 0.95,
    n_clusters: int = 64,
    sample_limit: int = 20_000,
    seed: int = 17,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023): k-means
    cluster the embedding space, then within each cluster drop every item
    whose cosine to an already-kept item exceeds ``threshold`` (scan order:
    ascending id ⇒ deterministic; the kept item is the cluster's earliest).

    Returns (kept ids, dup table (vec_id, dup_of, cosine)).

    Plan: coarse quantizer trained on a driver sample (small, like IVF),
    assignment batch-local, per-cluster O(c²) similarity confined to a
    ``map_groups`` task.  Partitioning assumption at scale: one cluster's
    vectors fit a task — size ``n_clusters ∝ N/√budget`` so c stays bounded;
    unlike all-pairs, cross-cluster comparisons are never materialized (the
    SemDeDup approximation: near-dups straddling a k-means boundary are
    missed, the paper's accepted recall trade).
    """
    from esmarc_ray.ops.similarity import IvfIndex

    index = IvfIndex(n_cells=n_clusters, seed=seed).train(
        # cluster quality barely moves SemDeDup recall; skip the distributed
        # Lloyd refinement passes and keep the cheap sample-seeded quantizer
        embeddings, sample_limit=sample_limit, vector_column=vector_column,
        refine_iters=0,
    )
    assigned = index.assign(
        embeddings, id_column=id_column, vector_column=vector_column
    )

    def cluster_dedup(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(id_column)
        mat = np.stack(group[vector_column].to_numpy()).astype(np.float32)
        mat /= np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-9, None)
        ids = group[id_column].to_numpy()
        sims = mat @ mat.T
        kept_idx: list[int] = []
        rows = {"vec_id": [], "dup_of": [], "cosine": [], "__kept": []}
        for i in range(len(ids)):
            hit = None
            if kept_idx:
                against = sims[i, kept_idx]
                j = int(np.argmax(against))
                if against[j] >= threshold:
                    hit = (kept_idx[j], float(against[j]))
            if hit is None:
                kept_idx.append(i)
                rows["vec_id"].append(ids[i])
                # None, not an int sentinel: with string ids a mixed
                # int/str object column fails the pandas→Arrow conversion
                rows["dup_of"].append(None)
                rows["cosine"].append(1.0)
                rows["__kept"].append(True)
            else:
                rows["vec_id"].append(ids[i])
                rows["dup_of"].append(ids[hit[0]])
                rows["cosine"].append(hit[1])
                rows["__kept"].append(False)
        out = pd.DataFrame(rows)
        # pin dup_of to a NULLABLE dtype matching the id column: a plain
        # object column that happens to be all-None in one cluster becomes
        # an Arrow null-typed block and conflicts with sibling blocks
        if pd.api.types.is_integer_dtype(group[id_column].dtype):
            out["dup_of"] = out["dup_of"].astype("Int64")
        else:
            out["dup_of"] = out["dup_of"].astype("string")
        return out

    marked = assigned.groupby("cell").map_groups(
        cluster_dedup, batch_format="pandas"
    ).materialize()
    kept = marked.filter(expr="__kept == True").select_columns(["vec_id"])
    dups = marked.filter(expr="__kept == False").select_columns(
        ["vec_id", "dup_of", "cosine"]
    )
    return kept, dups


# -- exact token-set Jaccard ----------------------------------------------------


def _pair_intersections(
    docs: ray.data.Dataset,
    *,
    id_column: str,
    text_column: str,
    max_doc_freq: "int | None",
    num_partitions: int,
) -> ray.data.Dataset:
    """EXACT token-set intersection counts — see :func:`jaccard_pairs` — the
    hash-verified anchor of the near-dup family (MinHash/SimHash approximate
    this; their candidate sets are judged against it).

    Plan (all distributed, nothing driver-side):

    1. tokenize batch-local → distinct ``(token, doc_id, n_tok)`` rows,
       where ``n_tok`` is the doc's token-set size carried WITH each row so
       no sizes join is needed later;
    2. hash-partition on token; per partition a vectorized pandas self-merge
       emits co-occurring ``doc_a < doc_b`` pairs, locally pre-counted;
    3. one combiner-based groupby sums intersection counts per pair;
    4. callers finalize batch-local (Jaccard or containment + filter).

    Scale: the shuffle carries only (token, id, int) rows and pre-counted
    pair rows.  The worst case is a token shared by d docs → d²/2 pairs;
    ``max_doc_freq`` drops tokens above a document-frequency cap (stopwords
    carry ~no Jaccard signal but dominate pair cost).  Default ``None`` is
    fully exact and matches the SQL oracle; at 100 TB set a cap and note
    the (tiny, one-sided) undercount.

    Tokenization contract (must match the DuckDB oracle): lowercase, split
    on non-``[a-z0-9]`` runs, drop empties, distinct per doc.
    """
    import re

    from esmarc_ray.ops.relational import partial_groupby_agg

    pat = re.compile(r"[a-z0-9]+")

    def tokenize(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        toks: list[str] = []
        sizes: list[int] = []
        for i, t in zip(batch[id_column], batch[text_column]):
            s = set(pat.findall((t or "").lower()))
            ids.extend([i] * len(s))
            toks.extend(s)
            sizes.extend([len(s)] * len(s))
        return pd.DataFrame({"token": toks, id_column: ids, "n_tok": sizes})

    tokens = docs.map_batches(tokenize, batch_format="pandas")

    def emit_pairs(part: pd.DataFrame) -> pd.DataFrame:
        if max_doc_freq is not None:
            df_counts = part.groupby("token")["token"].transform("size")
            part = part[df_counts <= max_doc_freq]
        m = part.merge(part, on="token", suffixes=("_a", "_b"))
        m = m[m[f"{id_column}_a"] < m[f"{id_column}_b"]]
        if m.empty:
            return pd.DataFrame(
                {"doc_a": pd.Series(dtype=part[id_column].dtype),
                 "doc_b": pd.Series(dtype=part[id_column].dtype),
                 "n_a": pd.Series(dtype="int64"),
                 "n_b": pd.Series(dtype="int64"),
                 "inter_part": pd.Series(dtype="int64")}
            )
        m = m.rename(
            columns={f"{id_column}_a": "doc_a", f"{id_column}_b": "doc_b",
                     "n_tok_a": "n_a", "n_tok_b": "n_b"}
        )
        # local pre-count: a pair repeats within the partition once per
        # shared token that hashed here — combine before the wide groupby
        return (
            m.groupby(["doc_a", "doc_b", "n_a", "n_b"], as_index=False)
            .size()
            .rename(columns={"size": "inter_part"})
        )

    pairs = partitioned_final(tokens, ["token"], emit_pairs, num_partitions)
    return partial_groupby_agg(
        pairs,
        ["doc_a", "doc_b"],
        {"inter": ("inter_part", "sum"), "n_a": ("n_a", "max"), "n_b": ("n_b", "max")},
    )


@derive_width
def jaccard_pairs(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.5,
    id_column: str = "doc_id",
    text_column: str = "text",
    max_doc_freq: int | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """EXACT token-set Jaccard similarity pairs ≥ ``threshold`` — the
    hash-verified anchor of the near-dup family (see
    :func:`_pair_intersections` for the shared distributed plan and the
    tokenization contract)."""
    summed = _pair_intersections(
        docs, id_column=id_column, text_column=text_column,
        max_doc_freq=max_doc_freq, num_partitions=num_partitions,
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        union = batch["n_a"] + batch["n_b"] - batch["inter"]
        j = batch["inter"] / union
        batch = batch[j >= threshold].copy()
        # deterministic half-up rounding (pandas .round is half-even while
        # DuckDB round() is half-away — floor(x*1e6+0.5) agrees everywhere)
        batch["jaccard"] = (
            np.floor(batch["inter"] / (batch["n_a"] + batch["n_b"] - batch["inter"])
                     * 1e6 + 0.5) / 1e6
        )
        return batch[["doc_a", "doc_b", "jaccard"]]

    return summed.map_batches(finalize, batch_format="pandas")


@derive_width
def containment_pairs(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    id_column: str = "doc_id",
    text_column: str = "text",
    max_doc_freq: int | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """EXACT token-set CONTAINMENT pairs: ``|A∩B| / min(|A|, |B|)`` ≥
    ``threshold`` — catches excerpt/quote duplication (a short doc fully
    contained in a long one scores containment 1.0 but tiny Jaccard, so
    resemblance-based dedup misses it entirely).

    Same distributed plan as :func:`jaccard_pairs` (shared token-partition
    intersection counting; only the finalizer differs), same tokenization
    contract, same SQL-oracle checkability.
    """
    summed = _pair_intersections(
        docs, id_column=id_column, text_column=text_column,
        max_doc_freq=max_doc_freq, num_partitions=num_partitions,
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        denom = np.minimum(batch["n_a"], batch["n_b"])
        c = batch["inter"] / denom
        batch = batch[c >= threshold].copy()
        batch["containment"] = (
            np.floor(
                batch["inter"] / np.minimum(batch["n_a"], batch["n_b"]) * 1e6 + 0.5
            ) / 1e6
        )
        return batch[["doc_a", "doc_b", "containment"]]

    return summed.map_batches(finalize, batch_format="pandas")


def _unionfind_drop_ids(edges) -> set:
    """Union-find over (a, b) edges merging toward the MIN id; returns the
    ids whose component representative is some other (smaller) id — the
    same keep rule as the distributed connected-components path."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x for x in parent if find(x) != x}


@derive_width
def jaccard_dedup(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.9,
    id_column: str = "doc_id",
    text_column: str = "text",
    max_doc_freq: int | None = None,
    num_partitions: int | None = None,
    broadcast_pair_limit: int = 100_000,
) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """EXACT near-dup removal: :func:`jaccard_pairs` → connected components
    → keep the smallest id per component (same keep rule as
    :func:`minhash_dedup`, but deterministic and fully SQL-checkable — the
    whole pipeline has a DuckDB formulation incl. a recursive-CTE closure).

    Returns (deduped docs, confirmed pair table).  Same size-gated plan
    switch as :func:`minhash_dedup`: at or under ``broadcast_pair_limit``
    pairs the clustering is a driver union-find over the (tiny) pair table
    — near-similarity graphs of templated corpora form long CHAINS, whose
    diameter makes round-based label propagation pay one Ray round per hop;
    union-find collapses that in milliseconds.  Above the limit everything
    stays a Dataset op (distributed components + hash anti-join).
    """
    from esmarc_ray.ops.graph import connected_components
    from esmarc_ray.ops.relational import partitioned_join

    pairs = jaccard_pairs(
        docs, threshold=threshold, id_column=id_column, text_column=text_column,
        max_doc_freq=max_doc_freq, num_partitions=num_partitions,
    ).materialize()
    if pairs.count() <= broadcast_pair_limit:
        drop_ids = _unionfind_drop_ids(
            (r["doc_a"], r["doc_b"]) for r in pairs.take_all()
        )
        deduped = docs.map_batches(
            lambda b: b[~b[id_column].isin(drop_ids)], batch_format="pandas"
        )
        return deduped, pairs
    components = connected_components(pairs, u="doc_a", v="doc_b")
    drop = components.filter(expr="node != component").map_batches(
        lambda b: pd.DataFrame({"__key": b["node"], "__drop": 1}),
        batch_format="pandas",
    )
    doc_cols = list(docs.columns())
    keyed = docs.map_batches(
        lambda b: b.assign(__key=b[id_column].astype(str)), batch_format="pandas"
    )
    deduped = (
        partitioned_join(
            keyed, drop, "__key",
            left_cols=doc_cols, right_cols=["__drop"],
            how="left", num_partitions=num_partitions,
        )
        .map_batches(lambda b: b[b["__drop"].isna()], batch_format="pandas")
        .drop_columns(["__key", "__drop"])
    )
    return deduped, pairs


@derive_width
def duplicate_window_spans(
    docs: ray.data.Dataset,
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
    window: int = 32,
    stride: int = 16,
    min_docs: int = 2,
    top_k: int = 100,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact duplicate-substring detection, window-sampled: the signal from
    "Deduplicating Training Data Makes Language Models Better" (Lee et al.
    2022) without the suffix array — every ``window``-char span at ``stride``
    offsets is hashed out by CONTENT, and spans seen in ≥ ``min_docs``
    distinct documents surface, ranked by document frequency.

    Scale shape: the span table shuffles ONCE hash-partitioned by span text
    (each span's copies co-locate, so the distinct-doc count is
    partition-exact); per-batch ``drop_duplicates`` pre-shrinks repeated
    spans within a doc before the exchange.  The per-doc window walk is a
    Python loop over ``len/stride`` slices — string slicing has no Arrow
    kernel; the loop count is bounded by stride, not corpus size.  Fully
    SQL-expressible (``generate_series`` + ``substr``), so the whole operator
    hash-checks against DuckDB."""
    from esmarc_ray.ops.text import _det_topk

    def spans(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        wins: list[str] = []
        for did, txt in zip(batch[id_column], batch[text_column].fillna("")):
            for i in range(0, max(len(txt) - window + 1, 0), stride):
                ids.append(did)
                wins.append(txt[i : i + window])
        return pd.DataFrame({id_column: ids, "win": wins}).drop_duplicates()

    def final(part: pd.DataFrame) -> pd.DataFrame:
        g = (
            part.drop_duplicates()
            .groupby("win", as_index=False)
            .agg(n_docs=(id_column, "nunique"))
        )
        g["n_docs"] = g["n_docs"].astype("int64")
        return g[g["n_docs"] >= min_docs]

    counts = partitioned_final(
        docs.select_columns([id_column, text_column]).map_batches(
            spans, batch_format="pandas"
        ),
        ["win"],
        final,
        num_partitions=num_partitions,
    )
    return _det_topk(counts, top_k, "n_docs", ["win"])


@derive_width
def ppjoin_pairs(
    docs: ray.data.Dataset,
    *,
    threshold: float = 0.8,
    id_column: str = "doc_id",
    text_column: str = "text",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Prefix-filtered set-similarity join (the PPJoin idea, Xiao et al.
    2008): returns EXACTLY the rows of :func:`jaccard_pairs` — (doc_a,
    doc_b, jaccard ≥ threshold), same tokenization contract — but generates
    candidates only from each document's PREFIX tokens under the global
    (doc-frequency asc, token asc) order.  Two docs with Jaccard ≥ t must
    share a token among their first ``|T| - ceil(t·|T|) + 1`` rarest tokens,
    so the frequent tokens that dominate the all-token plan's pair blowup
    never emit a pair here; a candidate's Jaccard is then verified exactly.

    Scale plan (all distributed, no driver vocabulary): (1) distinct
    (token, doc) rows; (2) combiner doc-frequency per token; (3) one
    hash-join attaches df to each token row; (4) one doc-partitioned pass
    sorts each doc's tokens by (df, token) and keeps the prefix; (5) prefix
    tokens hash-partition and self-merge into candidate pairs (distinct);
    (6) each pair meets its two token sets through two hash joins and
    verifies exactly.  The ceil in the prefix length is computed as
    ``ceil(t·n − 1e-9)`` so float noise can only LENGTHEN the prefix (never
    lose a pair)."""
    import re

    from esmarc_ray.ops.relational import partial_groupby_agg, partitioned_join

    pat = re.compile(r"[a-z0-9]+")

    def tokenize(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        toks: list[str] = []
        sizes: list[int] = []
        for i, t in zip(batch[id_column], batch[text_column]):
            s = set(pat.findall((t or "").lower()))
            ids.extend([i] * len(s))
            toks.extend(s)
            sizes.extend([len(s)] * len(s))
        return pd.DataFrame({"token": toks, "doc_id": ids, "n_tok": sizes})

    tokens = docs.map_batches(tokenize, batch_format="pandas").materialize()
    dfreq = partial_groupby_agg(
        tokens.select_columns(["token", "doc_id"]),
        ["token"],
        {"df": ("doc_id", "count")},
        num_partitions=num_partitions,
    )
    ranked = partitioned_join(
        tokens, dfreq, "token",
        left_cols=["doc_id", "n_tok"], right_cols=["df"],
        num_partitions=num_partitions,
    )

    def take_prefix(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["doc_id", "df", "token"], kind="mergesort")
        rank = part.groupby("doc_id").cumcount().to_numpy()
        n = part["n_tok"].to_numpy(dtype="float64")
        p = n - np.ceil(threshold * n - 1e-9) + 1
        return part.loc[rank < p, ["token", "doc_id"]]

    prefixes = partitioned_final(
        ranked, ["doc_id"], take_prefix, num_partitions=num_partitions
    )

    def emit_cands(part: pd.DataFrame) -> pd.DataFrame:
        m = part.merge(part, on="token", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        return m[["doc_id_a", "doc_id_b"]].drop_duplicates().rename(
            columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"}
        )

    candidates = _distinct_on(
        partitioned_final(prefixes, ["token"], emit_cands, num_partitions),
        ["doc_a", "doc_b"],
        num_partitions,
    )

    def tok_sets(batch: pd.DataFrame) -> pd.DataFrame:
        # re-tokenize from the doc row (NOT from the token table: a block
        # split could sever a doc's token rows across batches)
        return pd.DataFrame(
            {
                "doc_id": batch[id_column],
                "toks": [
                    "\x1f".join(sorted(set(pat.findall((t or "").lower()))))
                    for t in batch[text_column]
                ],
            }
        )

    sets = docs.map_batches(tok_sets, batch_format="pandas")

    sa = sets.map_batches(
        lambda b: b.rename(columns={"doc_id": "doc_a", "toks": "toks_a"}),
        batch_format="pandas",
    )
    sb = sets.map_batches(
        lambda b: b.rename(columns={"doc_id": "doc_b", "toks": "toks_b"}),
        batch_format="pandas",
    )
    joined = partitioned_join(
        partitioned_join(
            candidates, sa, "doc_a",
            left_cols=["doc_b"], right_cols=["toks_a"],
            num_partitions=num_partitions,
        ),
        sb, "doc_b",
        left_cols=["doc_a", "toks_a"], right_cols=["toks_b"],
        num_partitions=num_partitions,
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        js = np.empty(len(batch), dtype="float64")
        for i, (ta, tb) in enumerate(zip(batch["toks_a"], batch["toks_b"])):
            a = set(ta.split("\x1f"))
            b = set(tb.split("\x1f"))
            inter = len(a & b)
            union = len(a) + len(b) - inter
            js[i] = inter / union if union else 0.0
        # the union-schema joins leave id columns object-dtyped; restore the
        # native dtype so the output is column-identical to jaccard_pairs
        out = batch[["doc_a", "doc_b"]].infer_objects()
        out["jaccard"] = np.floor(js * 1e6 + 0.5) / 1e6
        return out[np.asarray(js) >= threshold]

    return joined.map_batches(verify, batch_format="pandas")
