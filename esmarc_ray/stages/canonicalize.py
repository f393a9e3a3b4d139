"""Canonicalization: merge entity docs that share a normalized entity key.

The reference has NO cross-record operators (SURVEY.md §2.5) — this stage is
the north rule's addition.  Design:

* key: ``canon_key`` computed at extract time (GND id > ISIL+PPN > @id);
* skew: head entities (ubiquitous GND subjects) make a naive
  ``groupby(canon_key)`` shuffle hot — so the production plan PRE-COMBINES:
  a batch-local merge collapses each input batch's duplicate keys before
  the one hash-partitioned final merge, so a hot key reaches its reducer
  as at most one partial per source batch.  The ``precombine=False``
  alternatives are a salted two-phase merge (``salt = hash(doc_id) %
  n_salts`` splits a hot key across reducers, then a final merge on
  ``canon_key`` alone) and the unsalted single-shuffle reference.
  Associative + commutative merge ⇒ every plan agrees bit-for-bit (tested).
* merge semantics: representative = smallest doc_id (deterministic);
  predicates union with order-stable dedup; the merged doc records its
  members under ``_merged_from``.

Physical plan: the natural ``groupby(canon_key).map_groups(merge)`` spends
one UDF task + one Arrow table per group — ruinous with ~1 group per input
row (millions of one-doc entities).  Instead every merge is one
``ops.relational.partitioned_final`` call, the engine's one exchange: it
hash-partitions the plain doc rows on ``hash(key) % num_partitions`` and
groups on the PARTITION id — so the shuffle moves the same bytes but the
reducer runs once per partition — and merges all key-runs inside a
partition in plain Python.
``num_partitions`` bounds reducer memory at ~|input|/P rows; at cluster
scale raise it with the data (it is the analogue of Spark's
``spark.sql.shuffle.partitions``).
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from esmarc_ray.config import derive_width
from esmarc_ray.ops.relational import (
    PART,
    hash_partition,
    partitioned_final,
    reduce_partitions,
)
from esmarc_ray.stages.extract import DOC_SCHEMA
from esmarc_ray.values import merge_value, to_json

MERGEABLE = ("sameAs", "about", "mentions", "_merged_from")


def _dedup_key(value) -> str:
    """Canonical identity of a JSON value for set-based union dedup."""
    if isinstance(value, str):
        return "s:" + value
    return "j:" + to_json(value)


def merge_docs(docs: list[tuple[str, dict]]) -> tuple[str, dict]:
    """Merge docs about one real-world entity; returns (doc_id, merged doc).

    Associative/commutative up to the deterministic representative choice:
    the smallest doc_id's doc wins scalar fields; list-valued link/subject
    predicates union (order-stable dedup); members are tracked.

    Union dedup is SET-keyed on the canonical JSON of each element — a
    linear-scan ``not in`` here is quadratic in group size and turns a head
    entity (10^4+ docs behind one GND key) into a straggler task.

    Plan-invariance: whenever a union actually GROWS the representative's
    list, the result is re-sorted by the element dedup key.  That makes the
    merged list a pure function of the element SET — any merge tree (unsalted
    single-phase, salted two-phase, block-local pre-combine) yields either
    the representative's raw order (nothing added) or ``sorted(final set)``,
    so every plan agrees bit-for-bit regardless of how docs were grouped.
    """
    docs = sorted(docs, key=lambda pair: pair[0])
    rep_id, merged = docs[0][0], dict(docs[0][1])
    members = merged.pop("_merged_from", None) or [rep_id]
    member_set = set(members)
    seen: dict[str, set[str]] = {}
    grew: set[str] = set()

    def union_into(pred: str, value) -> None:
        acc = merged[pred]
        if not isinstance(acc, list):
            acc = [acc]
            merged[pred] = acc
        if pred not in seen:
            seen[pred] = {_dedup_key(x) for x in acc}
        keys = seen[pred]
        for element in value if isinstance(value, list) else [value]:
            key = _dedup_key(element)
            if key not in keys:
                keys.add(key)
                acc.append(element)
                grew.add(pred)

    for doc_id, doc in docs[1:]:
        for member in doc.get("_merged_from") or [doc_id]:
            if member not in member_set:
                member_set.add(member)
                members.append(member)
        for pred, value in doc.items():
            if pred in ("@id", "_merged_from"):
                continue
            if pred not in merged:
                merged[pred] = value
                seen.pop(pred, None)
            elif pred in MERGEABLE or isinstance(merged.get(pred), list):
                union_into(pred, value)
            # scalar conflict: representative wins (deterministic)
    for pred in grew:
        merged[pred] = sorted(merged[pred], key=_dedup_key)
    if len(members) > 1 or docs[0][1].get("_merged_from"):
        merged["_merged_from"] = sorted(members)
    return rep_id, merged


def _merge_partition(batch: pa.Table) -> pa.Table:
    """One reducer call per hash partition: merge every (canon_key[, salt])
    run inside it.  Plain-Python grouping — no per-group Arrow overhead.

    Also serves as the BATCH-LOCAL combiner of the pre-combine plan (applied
    via plain ``map_batches`` before any shuffle): same associative merge,
    zero-copy pass-through when a batch holds no duplicate keys.

    Takes and emits ``DOC_SCHEMA`` rows (plus ``n_links_added`` after
    linking, and on input the salted plan's ``salt``, which it drops)."""
    names = batch.schema.names
    keys = batch.column("canon_key").to_pylist()
    if len(set(keys)) == len(keys):
        # fast path: every key unique — pass through (normalizing the link
        # stage's int32 n_links_added so block schemas stay consistent)
        if "salt" in names:
            batch = batch.drop_columns(["salt"])
        if "n_links_added" in batch.schema.names:
            i = batch.schema.get_field_index("n_links_added")
            if batch.schema.field(i).type != pa.int64():
                batch = batch.set_column(
                    i, "n_links_added", batch.column(i).cast(pa.int64())
                )
        return batch
    salts = batch.column("salt").to_pylist() if "salt" in names else None
    doc_ids = batch.column("doc_id").to_pylist()
    doc_jsons = batch.column("doc_json").to_pylist()
    gnd_lists = batch.column("gnd_ids").to_pylist()
    classes = batch.column("entity_class").to_pylist()
    has_links = "n_links_added" in names
    links = batch.column("n_links_added").to_pylist() if has_links else None

    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault((key, salts[i]) if salts else key, []).append(i)

    out = {
        "doc_id": [], "entity_class": [], "canon_key": [],
        "doc_json": [], "gnd_ids": [], "error": [],
    }
    if has_links:
        out["n_links_added"] = []
    for group_key, idxs in groups.items():
        canon = group_key[0] if salts else group_key
        if len(idxs) == 1:
            i = idxs[0]
            rep_id, doc_json, gnd_union = doc_ids[i], doc_jsons[i], list(gnd_lists[i] or [])
            n_links = links[i] if has_links else 0
        else:
            pairs = [(doc_ids[i], json.loads(doc_jsons[i])) for i in idxs]
            rep_id, merged = merge_docs(pairs)
            doc_json = to_json(merged)
            gnd_union: list = []
            for i in idxs:
                gnd_union = merge_value(gnd_union, list(gnd_lists[i] or []))
            gnd_union = gnd_union if isinstance(gnd_union, list) else [gnd_union]
            # canonical order — plan-invariant under any merge tree
            gnd_union = sorted(gnd_union)
            n_links = sum(links[i] or 0 for i in idxs) if has_links else 0
        out["doc_id"].append(rep_id)
        out["entity_class"].append(classes[idxs[0]])
        out["canon_key"].append(canon)
        out["doc_json"].append(doc_json)
        out["gnd_ids"].append(gnd_union)
        out["error"].append("")
        if has_links:
            out["n_links_added"].append(int(n_links))

    schema = DOC_SCHEMA
    if has_links:
        schema = schema.append(pa.field("n_links_added", pa.int64()))
    return pa.Table.from_pydict(out, schema=schema)


@derive_width
def closure_keys(
    docs: ray.data.Dataset,
    *,
    num_partitions: int | None = None,
    max_rounds: int = 8,
) -> ray.data.Dataset:
    """sameAs-closure key rewrite: (canon_key, canon_root) for every key that
    is transitively linked to another through a shared identifier.

    Builds the bipartite key↔identifier graph (one edge per GND id a doc
    carries), runs distributed connected components (ops/graph.py), and maps
    each component to its minimal member canon_key.  Keys with no shared
    identifier never enter the graph and keep their own key (left join in
    :func:`canonicalize`).
    """
    import pandas as pd

    from esmarc_ray.ops.graph import connected_components

    def to_edges(batch: pa.Table) -> pa.Table:
        # zero-copy Arrow list flatten (same list_parent_indices pattern as
        # pipelines/media.py::media_refs) — no per-doc Python loop
        gnds = batch.column("gnd_ids")
        if isinstance(gnds, pa.ChunkedArray):
            gnds = gnds.combine_chunks()
        flat = pc.list_flatten(gnds)
        parents = pc.list_parent_indices(gnds)
        us = pc.take(batch.column("canon_key"), parents)
        vs = pc.binary_join_element_wise("xid:gnd:", pc.cast(flat, pa.string()), "")
        return pa.table({"u": pc.cast(us, pa.string()), "v": vs})

    edges = docs.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
    comp = connected_components(
        edges, num_partitions=num_partitions, max_rounds=max_rounds
    )
    _keys_schema = pa.schema([("node", pa.string()), ("component", pa.string())])
    _reps_schema = pa.schema([("component", pa.string()), ("canon_root", pa.string())])

    def keep_keys(batch: "pd.DataFrame") -> pa.Table:
        kept = batch[~batch["node"].str.startswith("xid:")]
        return pa.Table.from_pydict(
            {"node": kept["node"].tolist(), "component": kept["component"].tolist()},
            schema=_keys_schema,
        )

    keys_only = comp.map_batches(keep_keys, batch_format="pandas")

    def partial_min(batch: "pd.DataFrame") -> "pd.DataFrame":
        return batch.groupby("component", as_index=False, sort=False)["node"].min()

    def final_min(part: "pd.DataFrame") -> pa.Table:
        # one vectorized min per PARTITION of components (hash-partitioned),
        # not one Ray map_groups dispatch per component
        out = part.groupby("component", as_index=False, sort=False)["node"].min()
        return pa.Table.from_pydict(
            {"component": out["component"].tolist(), "canon_root": out["node"].tolist()},
            schema=_reps_schema,
        )

    reps = partitioned_final(
        keys_only.map_batches(partial_min, batch_format="pandas"),
        ["component"],
        final_min,
        num_partitions=num_partitions,
    )

    # keys_only ⋈ reps on component — tag-union-partition join (Dataset.join
    # crashes on hash partitions that receive no left-side blocks in this Ray
    # version, so the repo's own partitioned-join pattern is used instead)
    def tag(side: str, payload: str):
        def fn(df: "pd.DataFrame") -> "pd.DataFrame":
            return pd.DataFrame(
                {
                    "component": df["component"], "payload": df[payload], "side": side,
                    PART: hash_partition(df, "component", num_partitions),
                }
            )

        return fn

    def join_partition(part: "pd.DataFrame") -> "pd.DataFrame":
        keys = part[part["side"] == "k"][["component", "payload"]].rename(
            columns={"payload": "canon_key"}
        )
        rep = part[part["side"] == "r"][["component", "payload"]].rename(
            columns={"payload": "canon_root"}
        )
        if keys.empty or rep.empty:
            return pd.DataFrame(
                {"canon_key": pd.Series(dtype="object"), "canon_root": pd.Series(dtype="object")}
            )
        merged = keys.merge(rep, on="component", how="inner")
        return merged[["canon_key", "canon_root"]]

    tagged = keys_only.map_batches(tag("k", "node"), batch_format="pandas").union(
        reps.map_batches(tag("r", "canon_root"), batch_format="pandas")
    )
    return reduce_partitions(tagged, join_partition)


# the alias map this worker process resolved last: (map object id, dict) —
# at most one entry, replaced when a later rewrite broadcasts another map.
# Keyed by the ref's id, not the ref, so an idle worker does not keep the
# map pinned in the object store (same pattern as stages/link.py).
_CACHED_ALIASES: tuple[bytes, dict] | None = None


def _rewrite_batch(batch: pa.Table, *, mapping_ref: ray.ObjectRef) -> pa.Table:
    """Task-pool UDF: rewrite canon_key through the broadcast closure map.

    The map holds only ALIASED keys (canon_root != canon_key), i.e. one entry
    per merged-away entity key — broadcast once via ``ray.put`` and resolved
    once per worker process.  When the alias table outgrows
    ``broadcast_limit`` rows, :func:`_rewrite_keys` switches to the fully
    distributed co-partitioned rewrite instead."""
    global _CACHED_ALIASES
    key = mapping_ref.binary()
    if _CACHED_ALIASES is None or _CACHED_ALIASES[0] != key:
        _CACHED_ALIASES = None  # drop the old map before resolving the new one
        _CACHED_ALIASES = (key, ray.get(mapping_ref))
    mapping = _CACHED_ALIASES[1]
    rewritten = [mapping.get(k, k) for k in batch.column("canon_key").to_pylist()]
    return batch.set_column(
        batch.schema.get_field_index("canon_key"),
        "canon_key",
        pa.array(rewritten, pa.string()),
    )


def _rewrite_keys_distributed(
    docs: ray.data.Dataset, mapping: ray.data.Dataset, num_partitions: int
) -> ray.data.Dataset:
    """Fully distributed closure key-rewrite: docs and the (canon_key →
    canon_root) mapping co-hash-partition on canon_key; each partition builds
    its local alias dict and rewrites its doc rows — the alias table never
    touches the driver, so a closure over 10^12 docs streams like any other
    shuffle.  Implemented as the repo's tag-union-partition join (Ray's
    native join reserves actor pools per join; see partitioned_join)."""
    doc_schema = docs.schema().base_schema

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.append_column("canon_root", pa.nulls(n, pa.string()))
        batch = batch.append_column("__side", pa.array(["d"] * n, pa.string()))
        return batch.append_column(
            PART,
            pa.array(hash_partition(batch, "canon_key", num_partitions), pa.int32()),
        )

    def tag_map(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols: dict = {}
        for field in doc_schema:
            cols[field.name] = (
                batch.column("canon_key") if field.name == "canon_key" else pa.nulls(n, field.type)
            )
        cols["canon_root"] = batch.column("canon_root")
        cols["__side"] = pa.array(["m"] * n, pa.string())
        cols[PART] = pa.array(
            hash_partition(batch, "canon_key", num_partitions), pa.int32()
        )
        return pa.Table.from_pydict(cols)

    def rewrite(part: pa.Table) -> pa.Table:
        sides = part.column("__side").to_pylist()
        keys = part.column("canon_key").to_pylist()
        roots = part.column("canon_root").to_pylist()
        alias = {
            k: r for k, r, s in zip(keys, roots, sides) if s == "m" and r and r != k
        }
        doc_rows = [i for i, s in enumerate(sides) if s == "d"]
        part = part.take(pa.array(doc_rows, pa.int64()))
        rewritten = [alias.get(k, k) for k in (keys[i] for i in doc_rows)]
        part = part.set_column(
            part.schema.get_field_index("canon_key"), "canon_key",
            pa.array(rewritten, pa.string()),
        )
        return part.drop_columns(["canon_root", "__side"])

    tagged = docs.map_batches(
        tag_docs, batch_format="pyarrow", zero_copy_batch=True
    ).union(mapping.map_batches(tag_map, batch_format="pyarrow"))
    return reduce_partitions(tagged, rewrite, batch_format="pyarrow")


def _rewrite_keys(docs: ray.data.Dataset, mapping: ray.data.Dataset,
                  num_partitions: int, *,
                  broadcast_limit: int = 2_000_000) -> ray.data.Dataset:
    """Replace each doc's canon_key with its closure representative.

    Hybrid plan: the alias table (one row per merged-away entity key) is
    usually tiny, so up to ``broadcast_limit`` rows it broadcasts via
    ``ray.put`` and the rewrite is a shuffle-free task map; past the
    limit the rewrite runs as a co-partitioned distributed join
    (:func:`_rewrite_keys_distributed`) and nothing materializes driver-side.
    """
    mapping = mapping.materialize()
    if mapping.count() > broadcast_limit:
        return _rewrite_keys_distributed(docs, mapping, num_partitions)
    mapping_df = mapping.to_pandas()
    aliases = mapping_df[mapping_df["canon_key"] != mapping_df["canon_root"]]
    alias_ref = ray.put(dict(zip(aliases["canon_key"], aliases["canon_root"])))
    return docs.map_batches(
        _rewrite_batch,
        fn_kwargs={"mapping_ref": alias_ref},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def canonicalize(
    docs: ray.data.Dataset,
    *,
    n_salts: int = 16,
    salted: bool = True,
    precombine: bool = False,
    num_partitions: int | None = None,
    closure: bool = False,
) -> ray.data.Dataset:
    """Canonical merge on ``canon_key``; one production plan, same algebra
    as its two reference alternatives:

    * ``precombine=True`` (production: ``run_kg_pipeline``, ``entry()``): a
      BATCH-LOCAL combiner (``map_batches`` of the same associative merge,
      zero shuffle) collapses each batch's duplicate keys — a head entity at
      x% corpus frequency shrinks by its per-batch occupancy — then ONE
      hash-partitioned final merge.  Neutralizes head-key stragglers
      without a frequency sketch; ``n_salts`` and ``salted`` are ignored.
    * ``precombine=False, salted=True``: two-phase salted partial (``n_salts``
      salts per key) → final merge, two full shuffles.
    * ``precombine=False, salted=False``: single-shuffle variant — the
      correctness reference the other plans are tested against.

    ``closure=True`` first rewrites keys through the sameAs/identifier
    connected components, so entities transitively linked via shared GND ids
    merge even when their direct keys differ (north rule's sameAs closure).

    ``num_partitions=None`` derives the exchange width from the input size /
    cluster (``esmarc_ray.config.derive_partitions``, floored at 256 so the
    flagship merge never narrows below its tuned dev width).
    """
    if num_partitions is None:
        from esmarc_ray.config import dataset_size_hint, derive_partitions

        num_partitions = max(256, derive_partitions(dataset_size_hint(docs)))
    live = docs.filter(
        expr="entity_class != '_error' and entity_class != '_dropped'"
    )
    if closure:
        mapping = closure_keys(live, num_partitions=max(16, num_partitions // 16))
        live = _rewrite_keys(live, mapping, num_partitions=max(16, num_partitions // 16))
    if precombine:
        # batch-local combiner (Ray fuses it with the exchange's tag step)
        live = live.map_batches(
            _merge_partition, batch_format="pyarrow", zero_copy_batch=True
        )
    elif salted:

        def add_salt(batch: pa.Table) -> pa.Table:
            salts = hash_partition(batch, "doc_id", n_salts)
            return batch.append_column("salt", pa.array(salts, pa.int32()))

        live = partitioned_final(
            live.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True),
            ["canon_key", "salt"], _merge_partition, num_partitions,
            batch_format="pyarrow",
        )
    return partitioned_final(
        live, ["canon_key"], _merge_partition, num_partitions, batch_format="pyarrow"
    )
