"""Canonicalization: merge entity docs that share a normalized entity key.

The reference has NO cross-record operators (SURVEY.md §2.5) — this stage is
the north rule's addition.  Design:

* key: ``canon_key`` computed at extract time (GND id > ISIL+PPN > @id);
* one schema: :func:`canonicalize` drops dead letters and projects and
  casts its input to exactly ``DOC_SCHEMA`` once, so every merge step takes
  and emits that one schema.  Columns a reader or an earlier stage adds (a
  checkpoint's hive ``shard``, the linker's ``n_links_added``) and parquet's
  ``list<element>`` spelling of ``gnd_ids`` never reach the exchange;
* skew: head entities (ubiquitous GND subjects) make a naive
  ``groupby(canon_key)`` shuffle hot — so the production plan PRE-COMBINES:
  a batch-local merge collapses each input batch's duplicate keys before
  the one hash-partitioned final merge, so a hot key reaches its reducer
  as at most one partial per source batch.  ``precombine=False`` is the
  single-shuffle reference the tests hold the production plan to.
  Associative + commutative merge ⇒ both plans agree bit-for-bit (tested).
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

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from esmarc_ray.config import derive_width
from esmarc_ray.ops.relational import PART, hash_partition, partitioned_final, reduce_partitions
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
    merged list a pure function of the element SET — any merge tree (the
    single-shuffle reference, the block-local pre-combine) yields either
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
    """One reducer call per hash partition: merge every canon_key run
    inside it.  Plain-Python grouping — no per-group Arrow overhead.

    Also serves as the BATCH-LOCAL combiner of the pre-combine plan (applied
    via plain ``map_batches`` before any shuffle): same associative merge,
    zero-copy pass-through when a batch holds no duplicate keys.

    Takes and emits exactly ``DOC_SCHEMA`` rows on both paths: the
    pass-through returns its input, which :func:`canonicalize` has already
    projected onto that schema."""
    keys = batch.column("canon_key").to_pylist()
    if len(set(keys)) == len(keys):
        return batch
    doc_ids = batch.column("doc_id").to_pylist()
    doc_jsons = batch.column("doc_json").to_pylist()
    gnd_lists = batch.column("gnd_ids").to_pylist()
    classes = batch.column("entity_class").to_pylist()

    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)

    out: dict[str, list] = {name: [] for name in DOC_SCHEMA.names}
    for canon, idxs in groups.items():
        if len(idxs) == 1:
            i = idxs[0]
            rep_id, doc_json, gnd_union = doc_ids[i], doc_jsons[i], list(gnd_lists[i] or [])
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
        out["doc_id"].append(rep_id)
        out["entity_class"].append(classes[idxs[0]])
        out["canon_key"].append(canon)
        out["doc_json"].append(doc_json)
        out["gnd_ids"].append(gnd_union)
        out["error"].append("")
    return pa.Table.from_pydict(out, schema=DOC_SCHEMA)


@derive_width
def closure_keys(
    docs: ray.data.Dataset,
    *,
    num_partitions: int | None = None,
    max_rounds: int = 8,
) -> ray.data.Dataset:
    """sameAs-closure key map: (canon_key, canon_root) for every key that
    carries a GND id, where keys transitively linked through shared
    identifiers share one root.

    Builds the bipartite key↔identifier graph (one edge per GND id a doc
    carries, identifier nodes spelled ``xid:gnd:<id>``) and runs distributed
    connected components (ops/graph.py).  Its label is already the root:
    the component's min node in string order, and every key (``gnd:``,
    ``id:``, ``isil:``) sorts before every ``xid:`` node, so the label is
    the component's min canon_key.  Keys with no GND id never enter the
    graph and keep their own key (see :func:`_rewrite_keys`).
    """
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

    def keep_keys(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.invert(pc.starts_with(batch.column("node"), "xid:")))
        return pa.table({"canon_key": kept.column("node"), "canon_root": kept.column("component")})

    edges = docs.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
    comp = connected_components(edges, num_partitions=num_partitions, max_rounds=max_rounds)
    return comp.map_batches(keep_keys, batch_format="pyarrow")


def _rewrite_keys(
    docs: ray.data.Dataset, mapping: ray.data.Dataset, num_partitions: int
) -> ray.data.Dataset:
    """Replace each doc's canon_key with its closure root.

    Docs and the aliased rows of the (canon_key → canon_root) ``mapping``
    co-hash-partition on canon_key; each partition builds its local alias
    dict and rewrites its doc rows, so the alias table never touches the
    driver.  Implemented as the repo's tag-union-partition join (Ray's
    native join reserves actor pools per join; see partitioned_join)."""

    def tag_docs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.append_column("canon_root", pa.nulls(n, pa.string()))
        batch = batch.append_column("__side", pa.array(["d"] * n, pa.string()))
        return batch.append_column(
            PART,
            pa.array(hash_partition(batch, "canon_key", num_partitions), pa.int32()),
        )

    def tag_map(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.not_equal(batch.column("canon_key"), batch.column("canon_root")))
        n = batch.num_rows
        cols = {field.name: pa.nulls(n, field.type) for field in DOC_SCHEMA}
        cols["canon_key"] = batch.column("canon_key")
        cols["canon_root"] = batch.column("canon_root")
        cols["__side"] = pa.array(["m"] * n, pa.string())
        cols[PART] = pa.array(hash_partition(batch, "canon_key", num_partitions), pa.int32())
        return pa.table(cols)

    def rewrite(part: pa.Table) -> pa.Table:
        sides = part.column("__side").to_pylist()
        keys = part.column("canon_key").to_pylist()
        roots = part.column("canon_root").to_pylist()
        alias = {k: r for k, r, s in zip(keys, roots, sides) if s == "m"}
        doc_rows = [i for i, s in enumerate(sides) if s == "d"]
        part = part.take(pa.array(doc_rows, pa.int64()))
        rewritten = [alias.get(keys[i], keys[i]) for i in doc_rows]
        part = part.set_column(
            part.schema.get_field_index("canon_key"), "canon_key",
            pa.array(rewritten, pa.string()),
        )
        return part.drop_columns(["canon_root", "__side"])

    tagged = docs.map_batches(
        tag_docs, batch_format="pyarrow", zero_copy_batch=True
    ).union(mapping.map_batches(tag_map, batch_format="pyarrow"))
    return reduce_partitions(tagged, rewrite, batch_format="pyarrow")


_DEAD_LETTERS = pa.array(["_error", "_dropped"])


def _live_doc_rows(batch: pa.Table) -> pa.Table:
    """Drop dead letters and project the rest onto exactly ``DOC_SCHEMA``."""
    live = batch.filter(pc.invert(pc.is_in(batch.column("entity_class"), value_set=_DEAD_LETTERS)))
    return live.select(DOC_SCHEMA.names).cast(DOC_SCHEMA)


def canonicalize(
    docs: ray.data.Dataset,
    *,
    n_salts: int = 16,
    salted: bool = True,
    precombine: bool = False,
    num_partitions: int | None = None,
    closure: bool = False,
) -> ray.data.Dataset:
    """Canonical merge on ``canon_key``; emits exactly ``DOC_SCHEMA``
    blocks, one row per entity.  One production plan and its reference:

    * ``precombine=True`` (production: ``run_kg_pipeline``, ``entry()``): a
      BATCH-LOCAL combiner (``map_batches`` of the same associative merge,
      zero shuffle) collapses each batch's duplicate keys — a head entity at
      x% corpus frequency shrinks by its per-batch occupancy — then ONE
      hash-partitioned final merge.  Neutralizes head-key stragglers
      without a frequency sketch.
    * ``precombine=False``: the final merge alone — the correctness
      reference the production plan is tested against.

    ``n_salts`` and ``salted`` are ignored: they name a salted two-phase
    plan that no longer exists, and stay accepted only because the
    benchmark's staged trace still passes them.

    The input's dead letters (``_error``, ``_dropped``) are dropped and the
    rest is projected and cast to ``DOC_SCHEMA`` once, before any merge.

    ``closure=True`` first rewrites keys through the sameAs/identifier
    connected components (:func:`closure_keys`, :func:`_rewrite_keys`), so
    entities transitively linked via shared GND ids merge even when their
    direct keys differ (north rule's sameAs closure).

    ``num_partitions=None`` derives the exchange width from the input size /
    cluster (``esmarc_ray.config.derive_partitions``, floored at 256 so the
    flagship merge never narrows below its tuned dev width).
    """
    if num_partitions is None:
        from esmarc_ray.config import dataset_size_hint, derive_partitions

        num_partitions = max(256, derive_partitions(dataset_size_hint(docs)))
    live = docs.map_batches(_live_doc_rows, batch_format="pyarrow", zero_copy_batch=True)
    if closure:
        width = max(16, num_partitions // 16)
        live = _rewrite_keys(live, closure_keys(live, num_partitions=width), width)
    if precombine:
        # batch-local combiner (Ray fuses it with the exchange's tag step)
        live = live.map_batches(
            _merge_partition, batch_format="pyarrow", zero_copy_batch=True
        )
    return partitioned_final(
        live, ["canon_key"], _merge_partition, num_partitions, batch_format="pyarrow"
    )
