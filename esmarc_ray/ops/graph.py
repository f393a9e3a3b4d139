"""Distributed graph operators: connected components and PageRank over an edge list.

Used for the sameAs closure in canonicalization (north rule: canonical keys
are "GND ID, ISIL, sameAs closure"): entities transitively linked through
shared identifiers must merge even when their direct keys differ.

Algorithm: min-label propagation fused with pointer jumping — every node
starts labeled with itself; each round every node takes the minimum of
(a) its own label, (b) its neighbors' labels (one-hop propagation), and
(c) its label's label (pointer-jump shortcut).  (b) spans new nodes, (c)
halves the remaining pointer-chain depth, so rounds needed ≈ log2(diameter)
instead of diameter — long similarity CHAINS (templated corpora) converge
as fast as the star-shaped sameAs closure.

Both updates are computed in ONE co-partitioned exchange per round: edge
rows keyed by src, jump-query rows keyed by the current label, label rows
keyed by node, all hash-partitioned on the key and resolved with a pandas
merge inside each partition (one reducer call per partition, never per
key).  A second exchange takes the per-node min.  Only the two-string-column
label table shuffles per round; the tagged edge table is materialized once
outside the loop.  Converged when an order-insensitive checksum of the
(node, label) set stops changing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from esmarc_ray.config import derive_width
from esmarc_ray.ops.relational import (
    PART,
    hash_partition,
    partitioned_final,
    reduce_partitions,
)


_EMPTY = {"node": pd.Series(dtype="object"), "label": pd.Series(dtype="object")}

# pagerank-internal sentinel row: \x1f cannot appear in str()-derived node
# ids, so a real node can never collide with it
_DANGLING = "\x1fdangling\x1f"


def _label_checksum(labels: ray.data.Dataset) -> int:
    """Order-insensitive checksum of (node, label): wraparound SUM of
    64-bit siphash row hashes.  NOT xor-of-crc32 — crc32 is affine over
    GF(2), so xor-aggregating it collides SYSTEMATICALLY on same-length
    label tables (two different propagation rounds hashed equal and broke
    the convergence loop early)."""

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(
            batch["node"] + "\x1f" + batch["label"], index=False
        ).to_numpy()
        return pd.DataFrame({"h": [int(np.sum(h, dtype=np.uint64))]})

    acc = 0
    for row in labels.map_batches(per_batch, batch_format="pandas").take_all():
        acc = (acc + int(row["h"])) & 0xFFFFFFFFFFFFFFFF  # wraparound add
    return acc


def _min_by_node(ds: ray.data.Dataset, num_partitions: int) -> ray.data.Dataset:
    """(node, label) → one row per node with the min label (hash-partitioned)."""

    def node_min(frame: pd.DataFrame) -> pd.DataFrame:
        return frame.groupby("node", as_index=False, sort=False)["label"].min()

    return partitioned_final(
        ds.map_batches(node_min, batch_format="pandas"), ["node"], node_min,
        num_partitions,
    )


@derive_width
def connected_components(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
    max_rounds: int = 8,
) -> ray.data.Dataset:
    """Connected components of the undirected graph given by ``edges``.

    Returns a Dataset (node, component) where component = min node id (string
    order) of the node's component.  ``max_rounds`` bounds the propagation.

    Each round fuses one-hop label propagation with a pointer-jumping
    shortcut in a single co-partitioned exchange (see module docstring):
    propagation spans neighbors, shortcutting halves the remaining pointer
    depth, so rounds needed ≈ log2(diameter) — the default ``max_rounds=8``
    covers diameters up to ~2^8 (long similarity chains from templated
    corpora included), while the star-shaped sameAs closure still converges
    in 2-3 rounds.  Exactly two shuffles per round (resolve + per-node min),
    each moving only two-string-column tables; every intermediate referenced
    more than once is materialized so no lineage re-executes.
    """

    def to_directed(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "src", v: "dst"})
        rev = batch[[u, v]].rename(columns={v: "src", u: "dst"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out["src"] = out["src"].astype(str)
        out["dst"] = out["dst"].astype(str)
        return out

    directed = edges.map_batches(to_directed, batch_format="pandas")

    def tag_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["src"],
                "other": batch["dst"],
                "side": "e",
                PART: hash_partition(batch, "src", num_partitions),
            }
        )

    # the tagged edge table never changes across rounds — shuffle-tag it once
    tagged_edges = directed.map_batches(tag_edges, batch_format="pandas").materialize()
    if tagged_edges.count() == 0:
        # empty edge list (e.g. a near-dup verify pass that rejected every
        # candidate): nothing to propagate — return an empty label table
        # instead of looping groupby over an empty union.  Explicit Arrow
        # schema: from_pandas drops the columns of an all-object empty frame.
        import pyarrow as pa

        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.string()),
                      "component": pa.array([], pa.string())})
        )

    def init_labels(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": batch["src"], "label": batch["src"]})

    labels = _min_by_node(
        directed.map_batches(init_labels, batch_format="pandas"), num_partitions
    ).materialize()

    def tag_labels_and_queries(batch: pd.DataFrame) -> pd.DataFrame:
        # one pass over labels emits BOTH row kinds: the label row itself
        # (key = node) and the pointer-jump query (key = current label,
        # asking "what is my label's label?")
        lab = pd.DataFrame(
            {
                "key": batch["node"],
                "other": batch["label"],
                "side": "l",
                PART: hash_partition(batch, "node", num_partitions),
            }
        )
        q = pd.DataFrame(
            {
                "key": batch["label"],
                "other": batch["node"],
                "side": "q",
                PART: hash_partition(batch, "label", num_partitions),
            }
        )
        return pd.concat([lab, q], ignore_index=True)

    def resolve(part: pd.DataFrame) -> pd.DataFrame:
        """One partition of the fused exchange: label rows pass through as
        (node, label) candidates; edge rows become (dst, label-of-src);
        query rows become (node, label-of-label).  All three feed the
        per-node min — labels only ever decrease within a component."""
        lab = part[part["side"] == "l"][["key", "other"]]
        out = [pd.DataFrame({"node": lab["key"], "label": lab["other"]})]
        if not lab.empty:
            lut = lab.rename(columns={"other": "label"})
            for side in ("e", "q"):
                rows = part[part["side"] == side][["key", "other"]]
                if rows.empty:
                    continue
                merged = rows.merge(lut, on="key", how="inner")
                out.append(
                    pd.DataFrame({"node": merged["other"], "label": merged["label"]})
                )
        res = pd.concat(out, ignore_index=True)
        return res if not res.empty else pd.DataFrame(_EMPTY)

    checksum = _label_checksum(labels)
    for _ in range(max_rounds):
        tagged = tagged_edges.union(
            labels.map_batches(tag_labels_and_queries, batch_format="pandas")
        )
        msgs = reduce_partitions(tagged, resolve)
        new_labels = (
            _min_by_node(msgs, num_partitions)
            .repartition(num_partitions)
            .materialize()
        )
        new_checksum = _label_checksum(new_labels)
        labels = new_labels
        if new_checksum == checksum:
            break
        checksum = new_checksum

    return labels.map_batches(
        lambda b: b.rename(columns={"label": "component"}), batch_format="pandas"
    )


@derive_width
def pagerank(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    damping: float = 0.85,
    n_iter: int = 10,
    num_partitions: int | None = None,
    seeds: list[str] | None = None,
) -> ray.data.Dataset:
    """Distributed PageRank over a directed edge list — entity importance in
    the constructed KG (rank entities by how much reference mass flows into
    them through triples).

    ``seeds``: optional personalization set — teleport AND dangling mass
    are redistributed uniformly over the seed nodes instead of all nodes
    (personalized PageRank: rank = proximity to the seeds, the KG
    "related entities" / random-walk-with-restart primitive).  Seeds must
    be node ids present in the edge list.

    Same machinery as :func:`connected_components`: the tagged edge table is
    shuffled ONCE outside the loop; each iteration co-partitions the
    two-column (node, rank) table with it (tag-union-partition), computes
    per-destination contribution sums ``rank/out_degree`` with one vectorized
    merge per PARTITION, and re-adds the teleport term.  Dangling mass
    (nodes with no out-edges) is redistributed uniformly — its scalar sum is
    the only thing that touches the driver each round (one aggregate row).
    Returns (node, rank) with ranks summing to 1.
    """
    import pyarrow as pa

    def to_edges(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[[u, v]].rename(columns={u: "src", v: "dst"})
        out["src"] = out["src"].astype(str)
        out["dst"] = out["dst"].astype(str)
        return out

    dir_edges = edges.map_batches(to_edges, batch_format="pandas").materialize()

    # out-degree per src (combiner), then tag each edge with its src degree
    def deg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("src", as_index=False, sort=False).size()
        return out.rename(columns={"size": "deg"})

    def tag_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["src"],
                "other": batch["dst"],
                "side": "e",
                "val": 0.0,
                PART: hash_partition(batch, "src", num_partitions),
            }
        )

    tagged_edges = dir_edges.map_batches(tag_edges, batch_format="pandas").materialize()

    # node universe: every src and dst once
    def both_sides(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": pd.concat([batch["src"], batch["dst"]], ignore_index=True)}
        )

    def node_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.drop_duplicates("node")

    nodes = partitioned_final(
        dir_edges.map_batches(both_sides, batch_format="pandas").map_batches(
            node_partial, batch_format="pandas"
        ),
        ["node"],
        node_partial,
        num_partitions,
    ).materialize()
    n_nodes = nodes.count()

    degrees = partitioned_final(
        dir_edges.map_batches(deg_partial, batch_format="pandas"),
        ["src"],
        lambda p: p.groupby("src", as_index=False, sort=False)["deg"].sum(),
        num_partitions,
    ).materialize()

    seed_set = frozenset(str(s) for s in seeds) if seeds is not None else None
    if seed_set is not None and not seed_set:
        raise ValueError("pagerank: seeds must be non-empty when given")

    if seed_set is None:
        init = 1.0 / n_nodes
        ranks = nodes.map_batches(
            lambda b: pd.DataFrame({"node": b["node"], "rank": init}),
            batch_format="pandas",
        ).materialize()
    else:
        seed_init = 1.0 / len(seed_set)
        ranks = nodes.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b["node"],
                    "rank": np.where(b["node"].isin(seed_set), seed_init, 0.0),
                }
            ),
            batch_format="pandas",
        ).materialize()

    def tag_deg(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["src"],
                "other": "",
                "side": "d",
                "val": batch["deg"].astype("float64"),
                PART: hash_partition(batch, "src", num_partitions),
            }
        )

    tagged_deg = degrees.map_batches(tag_deg, batch_format="pandas").materialize()

    for _ in range(n_iter):

        def tag_ranks(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": batch["node"],
                    "other": "",
                    "side": "r",
                    "val": batch["rank"],
                    PART: hash_partition(batch, "node", num_partitions),
                }
            )

        def contribute(part: pd.DataFrame) -> pd.DataFrame:
            """One co-partition: rank/deg per src, fanned to its out-edges;
            src rows with NO degree row emit their rank as dangling mass."""
            r = part[part["side"] == "r"][["key", "val"]].rename(
                columns={"val": "rank"}
            )
            d = part[part["side"] == "d"][["key", "val"]].rename(
                columns={"val": "deg"}
            )
            e = part[part["side"] == "e"][["key", "other"]]
            rd = r.merge(d, on="key", how="left")
            dangling = float(rd.loc[rd["deg"].isna(), "rank"].sum())
            out = [pd.DataFrame({"node": [_DANGLING], "contrib": [dangling]})]
            live = rd[rd["deg"].notna()]
            if not e.empty and not live.empty:
                m = e.merge(live, on="key", how="inner")
                contrib = (
                    pd.DataFrame(
                        {"node": m["other"], "contrib": m["rank"] / m["deg"]}
                    )
                    .groupby("node", as_index=False, sort=False)["contrib"]
                    .sum()
                )
                out.append(contrib)
            return pd.concat(out, ignore_index=True)

        tagged = tagged_edges.union(tagged_deg).union(
            ranks.map_batches(tag_ranks, batch_format="pandas")
        )
        # repartition before materializing: sort-based groupby emits one
        # block per RefBundle, and feeding those back into the next round's
        # union grows the per-round task count linearly (driver scheduling
        # cost then quadratically over the loop) — same pitfall as the
        # isPartOf closure; a small coalesce per round keeps it flat
        sums = (
            reduce_partitions(tagged, contribute)
            .repartition(num_partitions)
            .materialize()
        )
        dangling_total = sum(
            row["contrib"]
            for row in sums.map_batches(
                lambda b: b[b["node"] == _DANGLING], batch_format="pandas"
            ).take_all()
        )
        if seed_set is None:
            base = (1.0 - damping) / n_nodes + damping * dangling_total / n_nodes
            seed_base = None
        else:
            base = 0.0
            seed_base = (
                (1.0 - damping) + damping * dangling_total
            ) / len(seed_set)

        # new rank = base + damping * inbound contributions (nodes with no
        # inbound rows simply get base) — tag-union-partition against nodes
        def tag_contrib(batch: pd.DataFrame) -> pd.DataFrame:
            kept = batch[batch["node"] != _DANGLING]
            return pd.DataFrame(
                {
                    "key": kept["node"],
                    "side": "c",
                    "val": kept["contrib"],
                    PART: hash_partition(kept, "node", num_partitions),
                }
            )

        def tag_nodes(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": batch["node"],
                    "side": "n",
                    "val": 0.0,
                    PART: hash_partition(batch, "node", num_partitions),
                }
            )

        def apply_update(part: pd.DataFrame) -> pd.DataFrame:
            c = (
                part[part["side"] == "c"]
                .groupby("key", as_index=False, sort=False)["val"]
                .sum()
            )
            n = part[part["side"] == "n"][["key"]]
            m = n.merge(c, on="key", how="left")
            rank = base + damping * m["val"].fillna(0.0)
            if seed_base is not None:
                rank = rank + np.where(m["key"].isin(seed_set), seed_base, 0.0)
            return pd.DataFrame({"node": m["key"], "rank": rank})

        ranks = (
            reduce_partitions(
                sums.map_batches(tag_contrib, batch_format="pandas").union(
                    nodes.map_batches(tag_nodes, batch_format="pandas")
                ),
                apply_update,
            )
            .repartition(num_partitions)
            .materialize()
        )

    return ranks


@derive_width
def triangle_count(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
) -> int:
    """Global triangle count of the undirected simple graph in ``edges``.

    Degree-ordered orientation (Schank/Wagner): every edge points from its
    (degree, id)-smaller endpoint to the larger, so each triangle is counted
    exactly once AND the wedge fan-out per node is bounded by its ORIENTED
    out-degree — O(√m) on skewed graphs, which keeps the hub node from
    generating degree² wedge candidates (the failure mode of naive id-
    ordered counting on power-law graphs).

    Three co-partitioned exchanges: (1) degrees joined onto both endpoints,
    (2) wedges built per oriented source, (3) wedge candidates matched
    against the oriented edge set on the composite key.  Self-loops and
    duplicate/reverse edges are dropped up front.
    """

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[u].astype(str)
        b = batch[v].astype(str)
        lo = a.where(a < b, b)
        hi = b.where(a < b, a)
        out = pd.DataFrame({"a": lo, "b": hi})
        return out[out["a"] != out["b"]].drop_duplicates()

    from esmarc_ray.ops.dedup import _distinct_on

    und = _distinct_on(
        edges.map_batches(undirect, batch_format="pandas"), ["a", "b"],
        num_partitions=num_partitions,
    ).materialize()

    # degree per node: each undirected edge contributes to both endpoints
    def deg_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": pd.concat([batch["a"], batch["b"]], ignore_index=True)}
        )

    def deg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("node", as_index=False, sort=False).size()
        return out.rename(columns={"size": "deg"})

    def deg_final(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("node", as_index=False, sort=False)["deg"].sum()

    from esmarc_ray.ops.relational import partitioned_join

    degrees = partitioned_final(
        und.map_batches(deg_rows, batch_format="pandas").map_batches(
            deg_partial, batch_format="pandas"
        ),
        ["node"],
        deg_final,
        num_partitions=num_partitions,
    ).materialize()

    # join degree onto both endpoints, then orient by (deg, id)
    with_da = partitioned_join(
        und, degrees.map_batches(
            lambda b: b.rename(columns={"node": "a", "deg": "deg_a"}),
            batch_format="pandas",
        ),
        "a", left_cols=["b"], right_cols=["deg_a"],
        num_partitions=num_partitions,
    )
    with_both = partitioned_join(
        with_da, degrees.map_batches(
            lambda b: b.rename(columns={"node": "b", "deg": "deg_b"}),
            batch_format="pandas",
        ),
        "b", left_cols=["a", "deg_a"], right_cols=["deg_b"],
        num_partitions=num_partitions,
    )

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        da = batch["deg_a"].astype("int64")
        db = batch["deg_b"].astype("int64")
        a_first = (da < db) | ((da == db) & (batch["a"] < batch["b"]))
        return pd.DataFrame(
            {
                "lo": batch["a"].where(a_first, batch["b"]),
                "hi": batch["b"].where(a_first, batch["a"]),
                "deg_lo": da.where(a_first, db),
                "deg_hi": db.where(a_first, da),
            }
        )

    oriented = with_both.map_batches(orient, batch_format="pandas").materialize()

    # wedges per oriented source: for each lo, all (deg,id)-ordered pairs of
    # its out-neighbors form candidate closing edges
    def wedges(part: pd.DataFrame) -> pd.DataFrame:
        # ONE ROW PER WEDGE (never dedup: two wedges from different sources
        # closing the same edge are two distinct triangles).  Keeping only
        # the (deg, id)-ordered direction of each neighbor pair emits each
        # wedge exactly once, already oriented like the edge set.
        m = part.merge(part, on="lo", suffixes=("_1", "_2"))
        keep = (m["deg_hi_1"] < m["deg_hi_2"]) | (
            (m["deg_hi_1"] == m["deg_hi_2"]) & (m["hi_1"] < m["hi_2"])
        )
        m = m[keep]
        if not len(m):
            return pd.DataFrame(
                {"lo": pd.Series(dtype="object"), "hi": pd.Series(dtype="object")}
            )
        return pd.DataFrame({"lo": m["hi_1"], "hi": m["hi_2"]})

    candidates = partitioned_final(oriented, ["lo"], wedges, num_partitions)

    def tag_side(side: str):
        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            key = batch["lo"].astype(str) + "\x1f" + batch["hi"].astype(str)
            return pd.DataFrame(
                {
                    "key": key,
                    "side": side,
                    PART: hash_partition(batch, ["lo", "hi"], num_partitions),
                }
            )

        return tag

    def count_matches(part: pd.DataFrame) -> pd.DataFrame:
        edge_keys = set(part.loc[part["side"] == "e", "key"])
        n = int(part.loc[part["side"] == "c", "key"].isin(edge_keys).sum())
        return pd.DataFrame({"n": [n]})

    matched = reduce_partitions(
        candidates.map_batches(tag_side("c"), batch_format="pandas").union(
            oriented.map_batches(tag_side("e"), batch_format="pandas")
        ),
        count_matches,
    )
    return int(sum(row["n"] for row in matched.take_all()))


@derive_width
def predicate_cooccurrence(
    triples: ray.data.Dataset,
    k: int = 50,
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Top-k predicate pairs that co-occur on the same subject document,
    per entity class — the KG schema-analysis view (which properties travel
    together predicts mapping gaps and type confusions).

    Scale shape: batch-local distinct on (doc_id, class, pred) first (a
    combiner — repeated predicates never leave their batch), then ONE
    hash-partition shuffle on doc_id so each document's predicate set meets
    in a single reducer (no assumption that a document's triples share a
    block), pair counts re-aggregate through the partial groupby, and the
    cut is the deterministic distributed top-k (n desc, keys asc).
    """
    from itertools import combinations

    from esmarc_ray.ops.relational import partial_groupby_agg
    from esmarc_ray.ops.text import _det_topk

    def local_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["doc_id", "entity_class", "pred"]].drop_duplicates()

    def pairs_per_doc(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()
        rows: dict[tuple, int] = {}
        for (_, cls), grp in part.groupby(["doc_id", "entity_class"], sort=False):
            for a, b in combinations(sorted(set(grp["pred"])), 2):
                key = (cls, a, b)
                rows[key] = rows.get(key, 0) + 1
        if not rows:
            return pd.DataFrame(
                {"entity_class": [], "pred_a": [], "pred_b": [], "n_docs": []}
            )
        keys = list(rows.keys())
        return pd.DataFrame(
            {
                "entity_class": [x[0] for x in keys],
                "pred_a": [x[1] for x in keys],
                "pred_b": [x[2] for x in keys],
                "n_docs": list(rows.values()),
            }
        )

    distinct = triples.map_batches(local_distinct, batch_format="pandas")
    pair_partials = partitioned_final(
        distinct, ["doc_id"], pairs_per_doc, num_partitions=num_partitions
    )
    totals = partial_groupby_agg(
        pair_partials,
        ["entity_class", "pred_a", "pred_b"],
        {"n_docs": ("n_docs", "sum")},
    )
    return _det_topk(totals, k, "n_docs", ["entity_class", "pred_a", "pred_b"])


@derive_width
def bfs_hops(
    edges: ray.data.Dataset,
    sources: list,
    *,
    u: str = "u",
    v: str = "v",
    max_hops: int = 3,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Multi-source BFS hop distances over the undirected edge list: returns
    (node, hops) for every node reachable within ``max_hops`` of any source,
    hops = unweighted shortest distance.

    Frontier-expansion rounds, each exactly two co-partitioned exchanges over
    (node)-width tables: (1) the hop-h frontier joins the edge table hash-
    partitioned on the source endpoint to produce candidate neighbors, (2)
    candidates anti-join the settled table partitioned on node — already-
    settled nodes keep their (shorter) hop, new nodes settle at h+1.  The
    tagged edge table is materialized ONCE outside the loop; the settled
    table is materialized per round so no lineage re-executes.  Terminates
    early when a round discovers nothing new.
    """

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "s", v: "d"})
        rev = batch[[v, u]].rename(columns={v: "s", u: "d"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out[PART] = hash_partition(out, "s", num_partitions)
        out["kind"] = "e"
        out["hop"] = -1
        return out

    edges_tagged = edges.map_batches(undirect, batch_format="pandas").materialize()

    settled = ray.data.from_pandas(
        pd.DataFrame({"node": pd.Series(sources), "hop": 0})
    ).materialize()

    for h in range(max_hops):
        frontier = settled.filter(expr=f"hop == {h}")
        if frontier.count() == 0:
            break

        def tag_frontier(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"s": batch["node"]})
            out["d"] = batch["node"]  # dtype placeholder, ignored for kind=f
            out[PART] = hash_partition(out, "s", num_partitions)
            out["kind"] = "f"
            out["hop"] = -1
            return out

        def expand(part: pd.DataFrame) -> pd.DataFrame:
            fr = part[part["kind"] == "f"][["s"]].drop_duplicates()
            ed = part[part["kind"] == "e"]
            if fr.empty or ed.empty:
                return pd.DataFrame({"node": pd.Series(dtype=fr["s"].dtype if not fr.empty else "int64")})
            hit = ed.merge(fr, on="s")[["d"]].drop_duplicates()
            return hit.rename(columns={"d": "node"})

        candidates = reduce_partitions(
            edges_tagged.union(
                frontier.map_batches(tag_frontier, batch_format="pandas")
            ),
            expand,
        )

        def tag_cand(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["node"]].drop_duplicates().copy()
            out["hop"] = -1
            out["kind"] = "c"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def tag_settled(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["node", "hop"]].copy()
            out["kind"] = "s"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def resolve(part: pd.DataFrame, new_hop: int = h + 1) -> pd.DataFrame:
            old = part[part["kind"] == "s"][["node", "hop"]]
            cand = part[part["kind"] == "c"][["node"]].drop_duplicates()
            new = cand[~cand["node"].isin(old["node"])].copy()
            new["hop"] = new_hop
            return pd.concat([old, new], ignore_index=True)

        settled = (
            reduce_partitions(
                candidates.map_batches(tag_cand, batch_format="pandas").union(
                    settled.map_batches(tag_settled, batch_format="pandas")
                ),
                resolve,
            )
            .repartition(num_partitions)
            .materialize()
        )

    return settled


@derive_width
def degree_histogram(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Degree distribution (degree, n_nodes) of the undirected simple graph
    given as distinct edge pairs.

    Combiner-shaped: each batch collapses to per-node endpoint counts, one
    hash partition per node computes the exact degree AND its partition's
    per-degree counts (nodes are partition-disjoint, so the local degree
    histogram is exact), then a tiny per-degree merge — shuffle volume is
    O(nodes) then O(distinct degrees), never O(edges)."""

    def endpoint_counts(batch: pd.DataFrame) -> pd.DataFrame:
        s = pd.concat([batch[u], batch[v]], ignore_index=True)
        return s.value_counts().rename_axis("node").reset_index(name="cnt")

    def per_node(part: pd.DataFrame) -> pd.DataFrame:
        deg = part.groupby("node", as_index=False)["cnt"].sum()
        return (
            deg.groupby("cnt", as_index=False)
            .size()
            .rename(columns={"cnt": "degree"})
        )

    def final(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.groupby("degree", as_index=False)["size"]
            .sum()
            .rename(columns={"size": "n_nodes"})
        )

    staged = edges.map_batches(endpoint_counts, batch_format="pandas")
    per = partitioned_final(staged, ["node"], per_node, num_partitions)
    return partitioned_final(per, ["degree"], final, num_partitions=8)


@derive_width
def label_propagation(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    max_rounds: int = 8,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Community detection by synchronous label propagation (LPA): every node
    starts labeled with itself; each round it adopts the MODE of its
    neighbors' labels plus its own (self-vote damps the bipartite
    oscillation synchronous LPA is prone to), ties broken by min label —
    fully deterministic, unlike classic randomized-order LPA.

    Each round is two co-partitioned exchanges of (node, label) tables:
    (1) labels meet the edge table partitioned on the source endpoint and
    fan out one (neighbor, label) vote per edge, (2) votes + own labels
    partition on the voted node and reduce to the per-node mode.  The tagged
    edge table is materialized once; convergence is the order-insensitive
    label checksum (stops early, bounded by ``max_rounds``).

    Returns (node, community).
    """

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "s", v: "d"})
        rev = batch[[v, u]].rename(columns={v: "s", u: "d"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out = out.astype({"s": str, "d": str})
        out["label"] = ""
        out["kind"] = "e"
        out[PART] = hash_partition(out, "s", num_partitions)
        return out

    edges_tagged = edges.map_batches(undirect, batch_format="pandas").materialize()

    def init_labels(batch: pd.DataFrame) -> pd.DataFrame:
        nodes = pd.concat([batch[u], batch[v]], ignore_index=True).astype(str)
        nodes = nodes.drop_duplicates()
        return pd.DataFrame({"node": nodes, "label": nodes})

    labels = _min_by_node(
        edges.map_batches(init_labels, batch_format="pandas"), num_partitions
    ).materialize()
    prev_sum = _label_checksum(labels)

    for _ in range(max_rounds):

        def tag_labels(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {"s": batch["node"], "d": batch["node"], "label": batch["label"]}
            )
            out["kind"] = "l"
            out[PART] = hash_partition(out, "s", num_partitions)
            return out

        def votes(part: pd.DataFrame) -> pd.DataFrame:
            lab = part[part["kind"] == "l"][["s", "label"]]
            ed = part[part["kind"] == "e"][["s", "d"]]
            self_votes = lab.rename(columns={"s": "node"})  # own label counts too
            if ed.empty:
                return self_votes
            nbr = ed.merge(lab, on="s")[["d", "label"]].rename(columns={"d": "node"})
            return pd.concat([self_votes, nbr], ignore_index=True)

        def mode_per_node(part: pd.DataFrame) -> pd.DataFrame:
            cnt = (
                part.groupby(["node", "label"], sort=False)
                .size()
                .reset_index(name="n")
            )
            cnt = cnt.sort_values(["node", "n", "label"], ascending=[True, False, True])
            top = cnt.drop_duplicates("node", keep="first")
            return top[["node", "label"]]

        voted = reduce_partitions(
            edges_tagged.union(
                labels.map_batches(tag_labels, batch_format="pandas")
            ),
            votes,
        )
        labels = (
            partitioned_final(voted, ["node"], mode_per_node, num_partitions)
            .repartition(num_partitions)
            .materialize()
        )
        cur = _label_checksum(labels)
        if cur == prev_sum:
            break
        prev_sum = cur

    def rename(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"label": "community"})

    return labels.map_batches(rename, batch_format="pandas")


@derive_width
def sssp(
    edges: ray.data.Dataset,
    sources: list,
    *,
    u: str = "u",
    v: str = "v",
    weight: str = "w",
    max_rounds: int = 4,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Multi-source shortest WEIGHTED paths (non-negative weights) over the
    undirected edge list: distributed Bellman-Ford with frontier pruning.
    After round r the settled table holds the exact minimum over all paths
    of ≤ r edges (the Bellman-Ford invariant), so ``max_rounds`` is a hop
    bound — exact shortest paths when it reaches the weighted-path hop depth;
    terminates early once a round improves nothing.

    Each round is two co-partitioned exchanges of (node, dist) tables:
    (1) the improved-last-round frontier meets the edge table partitioned on
    the source endpoint and relaxes each incident edge (candidate = dist+w,
    locally min-reduced per neighbor before the shuffle), (2) candidates meet
    the settled table partitioned on node and keep the per-node min, flagging
    improvements as the next frontier.  The tagged edge table materializes
    once; settled materializes per round so no lineage re-executes.

    Returns (node, dist) for every node within ``max_rounds`` hops of a
    source.
    """

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v, weight]].rename(columns={u: "s", v: "d", weight: "w"})
        rev = batch[[v, u, weight]].rename(columns={v: "s", u: "d", weight: "w"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out["kind"] = "e"
        out[PART] = hash_partition(out, "s", num_partitions)
        return out

    edges_tagged = edges.map_batches(undirect, batch_format="pandas").materialize()

    settled = ray.data.from_pandas(
        pd.DataFrame(
            {"node": pd.Series(sources), "dist": 0.0, "improved": True}
        )
    ).materialize()

    for _ in range(max_rounds):
        frontier = settled.filter(expr="improved == True")
        if frontier.count() == 0:
            break

        def tag_frontier(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {"s": batch["node"], "d": batch["node"], "w": batch["dist"]}
            )
            out["kind"] = "f"
            out[PART] = hash_partition(out, "s", num_partitions)
            return out

        def relax(part: pd.DataFrame) -> pd.DataFrame:
            fr = part[part["kind"] == "f"][["s", "w"]].rename(columns={"w": "dist"})
            ed = part[part["kind"] == "e"][["s", "d", "w"]]
            if fr.empty or ed.empty:
                base = ed["d"] if not ed.empty else fr["s"]
                return pd.DataFrame(
                    {"node": base.head(0), "cand": pd.Series(dtype="float64")}
                )
            hit = ed.merge(fr, on="s")
            hit["cand"] = hit["dist"] + hit["w"]
            out = hit.groupby("d", as_index=False)["cand"].min()
            return out.rename(columns={"d": "node"})

        candidates = reduce_partitions(
            edges_tagged.union(
                frontier.map_batches(tag_frontier, batch_format="pandas")
            ),
            relax,
        )

        def tag_cand(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.rename(columns={"cand": "dist"})
            out["kind"] = "c"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def tag_settled(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["node", "dist"]].copy()
            out["kind"] = "s"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def resolve(part: pd.DataFrame) -> pd.DataFrame:
            old = part[part["kind"] == "s"][["node", "dist"]]
            cand = (
                part[part["kind"] == "c"]
                .groupby("node", as_index=False)["dist"]
                .min()
            )
            merged = old.merge(cand, on="node", how="outer", suffixes=("_o", "_c"))
            best = merged[["dist_o", "dist_c"]].min(axis=1)
            improved = merged["dist_o"].isna() | (
                merged["dist_c"].notna() & (merged["dist_c"] < merged["dist_o"])
            )
            return pd.DataFrame(
                {"node": merged["node"], "dist": best, "improved": improved}
            )

        settled = (
            reduce_partitions(
                candidates.map_batches(tag_cand, batch_format="pandas").union(
                    settled.map_batches(tag_settled, batch_format="pandas")
                ),
                resolve,
            )
            .repartition(num_partitions)
            .materialize()
        )

    def drop_flag(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["node", "dist"]]

    return settled.map_batches(drop_flag, batch_format="pandas")


@derive_width
def k_core(
    edges: ray.data.Dataset,
    k: int,
    *,
    u: str = "u",
    v: str = "v",
    max_rounds: int = 20,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """k-core decomposition: the maximal subgraph in which every node has
    degree ≥ k (the standard dense-community / spam-cluster extractor).
    Input must be a simple graph (distinct undirected pairs).

    Iterative distributed peeling: each round (1) recomputes degrees over
    the SURVIVING edge set with the endpoint-count combiner, (2) drops
    under-k nodes and discards their incident edges.  The edge filter
    plan-switches on the surviving-set size: once it fits a broadcast
    (2M nodes) both endpoints filter in ONE stateless map — zero shuffles
    per round; above it, one co-partitioned semi-join per endpoint (the
    scale path).  The edge table shrinks monotonically and is materialized
    per round so no lineage re-executes; terminates at the fixpoint (a
    round that peels nothing) or ``max_rounds``.

    Returns the surviving (node, degree) table — degree within the core.
    """
    from esmarc_ray.ops.relational import partial_groupby_agg, partitioned_semi_join

    broadcast_threshold = 2_000_000

    cur = edges.materialize()

    def endpoint_rows(batch: pd.DataFrame) -> pd.DataFrame:
        s = pd.concat([batch[u], batch[v]], ignore_index=True)
        return s.value_counts().rename_axis("node").reset_index(name="cnt")

    for _ in range(max_rounds):
        degrees = partial_groupby_agg(
            cur.map_batches(endpoint_rows, batch_format="pandas"),
            ["node"],
            {"degree": ("cnt", "sum")},
        ).materialize()
        n_nodes = degrees.count()
        keep = degrees.filter(expr=f"degree >= {k}").materialize()
        n_keep = keep.count()
        if n_keep == n_nodes:
            return keep
        if n_keep <= broadcast_threshold:
            keep_set = set(r["node"] for r in keep.iter_rows())

            def both_in(batch: pd.DataFrame, ks=keep_set) -> pd.DataFrame:
                return batch[batch[u].isin(ks) & batch[v].isin(ks)]

            cur = cur.map_batches(both_in, batch_format="pandas").materialize()
        else:
            cur = partitioned_semi_join(
                partitioned_semi_join(
                    cur, keep, on=u, key_column="node",
                    num_partitions=num_partitions,
                ),
                keep, on=v, key_column="node", num_partitions=num_partitions,
            ).materialize()
        if cur.count() == 0:
            break

    # drained (or max_rounds with an empty graph): no surviving core
    return ray.data.from_pandas(
        pd.DataFrame({"node": pd.Series(dtype="int64"),
                      "degree": pd.Series(dtype="int64")})
    )


@derive_width
def degree_assortativity(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
) -> "pd.DataFrame":
    """Degree assortativity coefficient (Newman 2002: the Pearson
    correlation of endpoint degrees over the orientation list — every
    undirected edge contributes both (deg u, deg v) and (deg v, deg u)) of
    the simple graph given as DISTINCT edge pairs.

    Scale shape: per-node degrees are combiner-shaped (per-batch endpoint
    counts, one hash partition per node — O(nodes) shuffle, as
    degree_histogram); degrees rejoin the edge list one endpoint at a time
    via co-hash-partitioned tag-union joins (the degree table scales with
    the node set, so no broadcast); the correlation folds exact int64
    moment partials (Σdeg, Σdeg², Σ du·dv) — one tiny row per batch reaches
    the driver.  Symmetrization makes the x/y marginals identical, so the
    two-orientation Pearson needs only those three sums."""
    import numpy as np

    from esmarc_ray.ops.relational import partitioned_join

    def endpoint_counts(batch: pd.DataFrame) -> pd.DataFrame:
        s = pd.concat([batch[u], batch[v]], ignore_index=True)
        return s.value_counts().rename_axis("node").reset_index(name="cnt")

    def per_node(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.groupby("node", as_index=False)["cnt"].sum()
            .rename(columns={"cnt": "deg"})
        )

    degrees = partitioned_final(
        edges.map_batches(endpoint_counts, batch_format="pandas"),
        ["node"],
        per_node,
        num_partitions,
    )

    def rekey(old: str, new: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={old: new})

        return fn

    with_du = partitioned_join(
        edges.map_batches(rekey(u, "node"), batch_format="pandas"),
        degrees.map_batches(rekey("deg", "du"), batch_format="pandas"),
        "node",
        left_cols=[v],
        right_cols=["du"],
        num_partitions=num_partitions,
    ).map_batches(rekey("node", u), batch_format="pandas")
    with_both = partitioned_join(
        with_du.map_batches(rekey(v, "node"), batch_format="pandas"),
        degrees.map_batches(rekey("deg", "dv"), batch_format="pandas"),
        "node",
        left_cols=[u, "du"],
        right_cols=["dv"],
        num_partitions=num_partitions,
    )

    def moments(batch: pd.DataFrame) -> pd.DataFrame:
        du = batch["du"].to_numpy(dtype="int64")
        dv = batch["dv"].to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                "e": [len(batch)],
                "sx": [int((du + dv).sum())],
                "sxx": [int((du * du).sum() + (dv * dv).sum())],
                "sxy": [2 * int((du * dv).sum())],
            }
        )

    p = with_both.map_batches(moments, batch_format="pandas").to_pandas()
    n = 2 * int(p["e"].sum())
    sx = int(p["sx"].sum())
    sxx = int(p["sxx"].sum())
    sxy = int(p["sxy"].sum())
    num = float(n) * float(sxy) - float(sx) * float(sx)
    den = float(n) * float(sxx) - float(sx) * float(sx)
    r = num / den if den != 0.0 else float("nan")
    return pd.DataFrame(
        {
            "n_edges": [n // 2],
            "assortativity": [np.floor(r * 1e6 + 0.5) / 1e6],
        }
    )


@derive_width
def landmark_bfs(
    edges: ray.data.Dataset,
    landmarks: list,
    *,
    u: str = "u",
    v: str = "v",
    max_hops: int = 4,
    num_partitions: int | None = None,
    small_graph_limit: int = 200_000,
) -> ray.data.Dataset:
    """Per-landmark BFS distances — the landmark (distance-sketch) labeling
    used to approximate point-to-point shortest paths and closeness at
    scale: returns (lm, node, hop) for every node within ``max_hops`` of
    each landmark, hop = exact unweighted distance to THAT landmark.

    Same frontier-expansion shape as :func:`bfs_hops` but keyed on
    (landmark, node): two co-partitioned exchanges per round, both
    partitioned on the node id so a node's edges and its settled rows for
    ALL landmarks co-locate; the edge table is tagged and materialized once,
    the settled table per round (multiply-referenced intermediates must
    materialize or the round lineage re-executes).  L landmarks cost the
    same number of rounds as one — the frontier just carries L times the
    rows — which is exactly why landmark sketches beat per-source BFS.

    Plan switch (same size-gated pattern as ``jaccard_dedup``'s union-find
    path): an edge table at or under ``small_graph_limit`` rows runs the
    whole BFS vectorized in ONE pass on the collected edge list — the
    round-based plan pays ~2 all-to-all exchanges per hop, which is pure
    fixed overhead on a bounded subgraph (e.g. a cutoff-filtered census
    slice).  Both plans return identical rows (tested)."""
    if edges.count() <= small_graph_limit:
        df = edges.to_pandas()
        return ray.data.from_pandas(
            _bfs_local(df[u].to_numpy(), df[v].to_numpy(), landmarks, max_hops)
        )

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "s", v: "d"})
        rev = batch[[v, u]].rename(columns={v: "s", u: "d"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out["lm"] = out["s"]  # dtype placeholder, ignored for kind=e
        out[PART] = hash_partition(out, "s", num_partitions)
        out["kind"] = "e"
        out["hop"] = -1
        return out

    return _landmark_bfs_rounds(
        edges, landmarks, undirect, max_hops=max_hops,
        num_partitions=num_partitions,
    )


def _bfs_local(us, vs, landmarks: list, max_hops: int) -> pd.DataFrame:
    """Single-pass vectorized BFS over a collected edge list (the
    small-graph plan of :func:`landmark_bfs`): CSR adjacency via one sort +
    searchsorted, frontier expansion with repeat/cumsum gathers — no Python
    loop over edges.  Row-identical to the distributed rounds."""
    s = np.concatenate([us, vs])
    d = np.concatenate([vs, us])
    nodes = np.unique(s)
    order = np.argsort(s, kind="stable")
    si = np.searchsorted(nodes, s[order])
    di = d[order]
    starts = np.searchsorted(si, np.arange(len(nodes) + 1))
    di_idx = np.searchsorted(nodes, di)

    lms, outs, hops = [], [], []
    for lm in landmarks:
        lms.append(lm)
        outs.append(lm)
        hops.append(0)
        pos = np.searchsorted(nodes, lm)
        if pos >= len(nodes) or nodes[pos] != lm:
            continue  # isolated landmark: only its own hop-0 row
        dist = np.full(len(nodes), -1, dtype=np.int64)
        dist[pos] = 0
        frontier = np.array([pos])
        for h in range(1, max_hops + 1):
            cnt = starts[frontier + 1] - starts[frontier]
            total = int(cnt.sum())
            if total == 0:
                break
            base = np.repeat(starts[frontier], cnt)
            offs = np.arange(total) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt
            )
            neigh = np.unique(di_idx[base + offs])
            new = neigh[dist[neigh] == -1]
            if len(new) == 0:
                break
            dist[new] = h
            frontier = new
            lms.extend([lm] * len(new))
            outs.extend(nodes[new].tolist())
            hops.extend([h] * len(new))
    return pd.DataFrame(
        {
            "lm": pd.Series(lms),
            "node": pd.Series(outs),
            "hop": pd.Series(hops, dtype="int64"),
        }
    )


def _landmark_bfs_rounds(
    edges: ray.data.Dataset,
    landmarks: list,
    undirect,
    *,
    max_hops: int,
    num_partitions: int,
) -> ray.data.Dataset:
    """The distributed round-based plan of :func:`landmark_bfs`."""

    edges_tagged = edges.map_batches(undirect, batch_format="pandas").materialize()

    settled = ray.data.from_pandas(
        pd.DataFrame(
            {"lm": pd.Series(landmarks), "node": pd.Series(landmarks), "hop": 0}
        )
    ).materialize()

    for h in range(max_hops):
        frontier = settled.filter(expr=f"hop == {h}")
        if frontier.count() == 0:
            break

        def tag_frontier(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"s": batch["node"], "d": batch["node"],
                                "lm": batch["lm"]})
            out[PART] = hash_partition(out, "s", num_partitions)
            out["kind"] = "f"
            out["hop"] = -1
            return out

        def expand(part: pd.DataFrame) -> pd.DataFrame:
            fr = part[part["kind"] == "f"][["s", "lm"]].drop_duplicates()
            ed = part[part["kind"] == "e"]
            if fr.empty or ed.empty:
                return pd.DataFrame(
                    {
                        "node": pd.Series(dtype="int64"),
                        "lm": pd.Series(dtype="int64"),
                    }
                )
            hit = ed[["s", "d"]].merge(fr, on="s")[["d", "lm"]].drop_duplicates()
            return hit.rename(columns={"d": "node"})

        candidates = reduce_partitions(
            edges_tagged.union(
                frontier.map_batches(tag_frontier, batch_format="pandas")
            ),
            expand,
        )

        def tag_cand(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["node", "lm"]].drop_duplicates().copy()
            out["hop"] = -1
            out["kind"] = "c"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def tag_settled(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["node", "lm", "hop"]].copy()
            out["kind"] = "s"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def resolve(part: pd.DataFrame, new_hop: int = h + 1) -> pd.DataFrame:
            old = part[part["kind"] == "s"][["lm", "node", "hop"]]
            cand = part[part["kind"] == "c"][["lm", "node"]].drop_duplicates()
            new = cand.merge(
                old[["lm", "node"]], on=["lm", "node"], how="left",
                indicator=True,
            )
            new = new[new["_merge"] == "left_only"][["lm", "node"]].copy()
            new["hop"] = new_hop
            return pd.concat([old, new], ignore_index=True)

        settled = (
            reduce_partitions(
                candidates.map_batches(tag_cand, batch_format="pandas").union(
                    settled.map_batches(tag_settled, batch_format="pandas")
                ),
                resolve,
            )
            .repartition(num_partitions)
            .materialize()
        )

    return settled


@derive_width
def wl_refine(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    rounds: int = 2,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Weisfeiler-Lehman label refinement (1-WL / color refinement): nodes
    start as their degree, then each round every node's new label is
    ``md5(own_label || '|' || comma-joined SORTED neighbor labels)`` — the
    canonical neighborhood fingerprint used for graph isomorphism tests,
    structural-role discovery and graph-structure dedup.  Returns
    (node, wl_label) after ``rounds`` rounds.

    Two co-partitioned exchanges per round: (1) labels join the edge table
    on the SOURCE endpoint (every node mails its label to each neighbor),
    (2) messages + own labels tag-union on the node and each partition
    folds sort + join + md5 in one vectorized pass per node group.  The
    md5 per node is a Python string hash — inherent to the operator's
    contract (the oracle re-derives the identical digest in SQL) — but runs
    once per NODE per round, never per edge.  Labels materialize per round
    (multiply-referenced lineage)."""
    import hashlib

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "s", v: "d"})
        rev = batch[[v, u]].rename(columns={v: "s", u: "d"})
        return pd.concat([fwd, rev], ignore_index=True).drop_duplicates()

    und = edges.map_batches(undirect, batch_format="pandas").materialize()

    def degree_part(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("s", as_index=False).size()
        return pd.DataFrame(
            {"node": g["s"], "lab": g["size"].astype("int64").astype(str)}
        )

    from esmarc_ray.ops.relational import partitioned_join

    labels = partitioned_final(
        und, ["s"], degree_part, num_partitions=num_partitions
    ).materialize()

    for _ in range(rounds):
        msgs = partitioned_join(
            und.map_batches(
                lambda b: b.rename(columns={"s": "node"}), batch_format="pandas"
            ),
            labels,
            "node",
            left_cols=["d"],
            right_cols=["lab"],
            num_partitions=num_partitions,
        ).map_batches(
            lambda b: b[["d", "lab"]].rename(
                columns={"d": "node", "lab": "nb_lab"}
            ),
            batch_format="pandas",
        )

        def tag_msgs(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            out["lab"] = ""
            out["kind"] = "m"
            return out

        def tag_own(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            out["nb_lab"] = ""
            out["kind"] = "l"
            return out[["node", "nb_lab", "lab", "kind"]]

        def combine(part: pd.DataFrame) -> pd.DataFrame:
            own = part.loc[part["kind"] == "l", ["node", "lab"]]
            nb = part.loc[part["kind"] == "m", ["node", "nb_lab"]]
            agg = (
                nb.sort_values(["node", "nb_lab"])
                .groupby("node", as_index=False)["nb_lab"]
                .agg(",".join)
            )
            j = own.merge(agg, on="node", how="left")
            j["nb_lab"] = j["nb_lab"].fillna("")
            sig = j["lab"] + "|" + j["nb_lab"]
            j["lab"] = sig.map(
                lambda s: hashlib.md5(s.encode()).hexdigest()
            )
            return j[["node", "lab"]]

        labels = (
            partitioned_final(
                msgs.map_batches(tag_msgs, batch_format="pandas").union(
                    labels.map_batches(tag_own, batch_format="pandas")
                ),
                ["node"],
                combine,
                num_partitions=num_partitions,
            )
            .repartition(num_partitions)
            .materialize()
        )

    return labels.map_batches(
        lambda b: b.rename(columns={"lab": "wl_label"}), batch_format="pandas"
    )


@derive_width
def per_node_triangles(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-node triangle counts + degrees of the undirected simple graph —
    the inputs of the LOCAL clustering coefficient 2T(v)/(deg(v)(deg(v)−1)).
    Same degree-ordered orientation as :func:`triangle_count` (hub-safe
    wedge fan-out), but matched wedges keep their APEX so each found
    triangle credits all three corners; per-node totals then fold as a
    combiner.  Returns (node, deg, n_tri) for every node of degree ≥ 2,
    n_tri = 0 included (a zero coefficient is information)."""

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[u].astype(str)
        b = batch[v].astype(str)
        lo = a.where(a < b, b)
        hi = b.where(a < b, a)
        out = pd.DataFrame({"a": lo, "b": hi})
        return out[out["a"] != out["b"]].drop_duplicates()

    from esmarc_ray.ops.dedup import _distinct_on
    from esmarc_ray.ops.relational import partial_groupby_agg, partitioned_join

    und = _distinct_on(
        edges.map_batches(undirect, batch_format="pandas"), ["a", "b"],
        num_partitions=num_partitions,
    ).materialize()

    def deg_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": pd.concat([batch["a"], batch["b"]], ignore_index=True)}
        )

    def deg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("node", as_index=False, sort=False).size()
        return out.rename(columns={"size": "deg"})

    def deg_final(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("node", as_index=False, sort=False)["deg"].sum()

    degrees = partitioned_final(
        und.map_batches(deg_rows, batch_format="pandas").map_batches(
            deg_partial, batch_format="pandas"
        ),
        ["node"],
        deg_final,
        num_partitions=num_partitions,
    ).materialize()

    with_da = partitioned_join(
        und, degrees.map_batches(
            lambda b: b.rename(columns={"node": "a", "deg": "deg_a"}),
            batch_format="pandas",
        ),
        "a", left_cols=["b"], right_cols=["deg_a"],
        num_partitions=num_partitions,
    )
    with_both = partitioned_join(
        with_da, degrees.map_batches(
            lambda b: b.rename(columns={"node": "b", "deg": "deg_b"}),
            batch_format="pandas",
        ),
        "b", left_cols=["a", "deg_a"], right_cols=["deg_b"],
        num_partitions=num_partitions,
    )

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        da = batch["deg_a"].astype("int64")
        db = batch["deg_b"].astype("int64")
        a_first = (da < db) | ((da == db) & (batch["a"] < batch["b"]))
        return pd.DataFrame(
            {
                "lo": batch["a"].where(a_first, batch["b"]),
                "hi": batch["b"].where(a_first, batch["a"]),
                "deg_lo": da.where(a_first, db),
                "deg_hi": db.where(a_first, da),
            }
        )

    oriented = with_both.map_batches(orient, batch_format="pandas").materialize()

    def wedges(part: pd.DataFrame) -> pd.DataFrame:
        # one row per wedge, apex kept — a matched wedge IS a triangle
        # (apex, lo, hi) and must credit all three corners
        m = part.merge(part, on="lo", suffixes=("_1", "_2"))
        keep = (m["deg_hi_1"] < m["deg_hi_2"]) | (
            (m["deg_hi_1"] == m["deg_hi_2"]) & (m["hi_1"] < m["hi_2"])
        )
        m = m[keep]
        if not len(m):
            return pd.DataFrame(
                {
                    "apex": pd.Series(dtype="object"),
                    "lo": pd.Series(dtype="object"),
                    "hi": pd.Series(dtype="object"),
                }
            )
        return pd.DataFrame({"apex": m["lo"], "lo": m["hi_1"], "hi": m["hi_2"]})

    candidates = partitioned_final(oriented, ["lo"], wedges, num_partitions)

    def tag_side(side: str):
        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            key = batch["lo"].astype(str) + "\x1f" + batch["hi"].astype(str)
            return pd.DataFrame(
                {
                    "key": key,
                    "apex": batch["apex"] if side == "c" else "",
                    "side": side,
                    PART: hash_partition(batch, ["lo", "hi"], num_partitions),
                }
            )

        return tag

    def matched_corners(part: pd.DataFrame) -> pd.DataFrame:
        edge_keys = set(part.loc[part["side"] == "e", "key"])
        c = part[part["side"] == "c"]
        tri = c[c["key"].isin(edge_keys)]
        if not len(tri):
            return pd.DataFrame({"node": pd.Series(dtype="object")})
        corners = pd.concat(
            [
                tri["apex"],
                tri["key"].str.split("\x1f").str[0],
                tri["key"].str.split("\x1f").str[1],
            ],
            ignore_index=True,
        )
        return pd.DataFrame({"node": corners})

    corners = reduce_partitions(
        candidates.map_batches(tag_side("c"), batch_format="pandas").union(
            oriented.map_batches(tag_side("e"), batch_format="pandas")
        ),
        matched_corners,
    )

    tri_counts = partial_groupby_agg(
        corners, ["node"], {"n_tri": ("node", "count")}
    )

    # degrees LEFT-join triangle counts: zero-triangle nodes stay
    out = partitioned_join(
        degrees,
        tri_counts,
        "node",
        left_cols=["deg"],
        right_cols=["n_tri"],
        num_partitions=num_partitions,
        how="left",
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["deg"] >= 2].copy()
        batch["n_tri"] = batch["n_tri"].fillna(0).astype("int64")
        batch["deg"] = batch["deg"].astype("int64")
        return batch[["node", "deg", "n_tri"]]

    return out.map_batches(finish, batch_format="pandas")


@derive_width
def bgp_match(
    triples: "ray.data.Dataset",
    patterns: "list[tuple[str, str, str]]",
    *,
    subj_column: str = "subj",
    pred_column: str = "pred",
    obj_column: str = "obj",
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Basic-graph-pattern matcher — the SPARQL join core: each pattern is a
    ``(subject, predicate, object)`` triple whose terms are either variables
    (``"?name"``) or constants, and the result is the binding table of every
    variable (one column per variable, one row per solution, bag semantics
    like SPARQL BGP matching over a duplicate-free graph).

    Plan: each pattern projects + filters the triple table once (constants
    become vectorized equality filters; variables become renamed columns),
    then patterns fold left-to-right with a hash-partitioned equi-join on
    the (single) shared variable — the classic subject/object join chain.
    Patterns must chain: every pattern after the first shares EXACTLY one
    variable with the bindings accumulated so far (star and path queries
    both satisfy this; a cartesian pattern raises).  Scale shape: one
    shuffle per join on the shared variable, never an all-to-all over
    unjoined bindings.
    """
    from esmarc_ray.ops.relational import partitioned_join

    col_of = {"s": subj_column, "p": pred_column, "o": obj_column}

    def pattern_table(pat):
        s, p, o = pat
        terms = {"s": s, "p": p, "o": o}
        consts = {k: v for k, v in terms.items() if not v.startswith("?")}
        var_cols = {
            col_of[k]: v[1:] for k, v in terms.items() if v.startswith("?")
        }
        if not var_cols:
            raise ValueError("bgp_match: pattern with no variables")

        def project(batch: pd.DataFrame) -> pd.DataFrame:
            mask = pd.Series(True, index=batch.index)
            for k, v in consts.items():
                mask &= batch[col_of[k]] == v
            out = batch.loc[mask, list(var_cols)].rename(columns=var_cols)
            # repeated variable inside one pattern (?x p ?x): equality filter
            if len(set(var_cols.values())) < len(var_cols):
                out = out.loc[:, ~out.columns.duplicated()]
            return out

        return triples.map_batches(project, batch_format="pandas"), set(
            var_cols.values()
        )

    bindings, bound = pattern_table(patterns[0])
    for pat in patterns[1:]:
        tbl, tbl_vars = pattern_table(pat)
        shared = sorted(bound & tbl_vars)
        if len(shared) != 1:
            raise ValueError(
                f"bgp_match: pattern {pat} shares {len(shared)} variables "
                "with the accumulated bindings; exactly 1 required"
            )
        on = shared[0]
        bindings = partitioned_join(
            bindings, tbl, on,
            left_cols=sorted(bound - {on}),
            right_cols=sorted(tbl_vars - {on}),
            num_partitions=num_partitions, how="inner",
        )
        bound |= tbl_vars
    return bindings


@derive_width
def link_prediction_scores(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    min_common: int = 2,
    top_k: int = 100,
    max_center_degree: int | None = None,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Link-prediction scores for NON-adjacent node pairs of a simple
    undirected graph: common-neighbor count, Adamic-Adar (sum of
    1/ln(deg(w)) over shared neighbors w) and neighborhood Jaccard — the
    classical candidate-edge ranking (Liben-Nowell & Kleinberg 2003),
    which in the KG doubles as a "missing sameAs / relatedTo" suggester.

    Precondition: ``edges`` is globally distinct with ``u < v`` per row (a
    simple graph, like ``wl_refine`` / ``degree_assortativity`` take).

    Distributed plan (no driver-side graph):
      1. degrees — combiner partials + one hash-partitioned final;
      2. adjacency rows (center w, neighbor x) co-partitioned with the
         degree table on w (one exchange), so every wedge partition knows
         ln(deg(w)) locally;
      3. per-partition self-merge on w emits one row per wedge (x<y) with
         its Adamic-Adar contribution — hub centers fan out deg(w)^2
         wedges, the inherent cost of exact common-neighbor counting, so
         ``max_center_degree`` optionally skips super-hub centers (the
         standard cap in LP practice; None = exact);
      4. one hash-partitioned groupby (x,y) sums cn and aa exactly;
      5. degrees of both endpoints join back on (two exchanges) for
         Jaccard = cn / (deg(x)+deg(y)-cn);
      6. known edges are anti-joined out co-partitioned on the pair key;
      7. top-k by (cn desc, x, y) — cn is an exact integer, so the cut is
         deterministic under any partitioning — via per-batch local top-k
         folded on the driver (k rows per block, never the pair table).

    Scores are rounded half-up at 1e-6 (repo convention, matches the
    DuckDB oracle's floor(x*1e6+0.5)/1e6).
    """
    from esmarc_ray.ops.relational import partial_groupby_agg, partitioned_join

    edges = edges.map_batches(
        lambda b: b.rename(columns={u: "x", v: "y"})[["x", "y"]],
        batch_format="pandas",
    ).materialize()

    # 1. degree per node (each edge counts once per endpoint)
    degrees = partial_groupby_agg(
        edges,
        ["node"],
        {"deg": ("node", "count")},
        pre_map=lambda b: pd.DataFrame(
            {"node": pd.concat([b["x"], b["y"]], ignore_index=True)}
        ),
        num_partitions=num_partitions,
    ).materialize()

    # 2. adjacency keyed by the wedge CENTER, degree joined on
    adj = edges.map_batches(
        lambda b: pd.DataFrame(
            {
                "w": pd.concat([b["x"], b["y"]], ignore_index=True),
                "n": pd.concat([b["y"], b["x"]], ignore_index=True),
            }
        ),
        batch_format="pandas",
    )
    adj_deg = partitioned_join(
        adj,
        degrees.map_batches(
            lambda b: b.rename(columns={"node": "w", "deg": "deg_w"}),
            batch_format="pandas",
        ),
        "w",
        left_cols=["n"],
        right_cols=["deg_w"],
        num_partitions=num_partitions,
    )

    # 3. wedges per center partition
    def wedges(part: pd.DataFrame) -> pd.DataFrame:
        if max_center_degree is not None:
            part = part[part["deg_w"] <= max_center_degree]
        m = part.merge(part, on="w", suffixes=("_1", "_2"))
        m = m[m["n_1"] < m["n_2"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "x": pd.Series(dtype=part["n"].dtype),
                    "y": pd.Series(dtype=part["n"].dtype),
                    "cn": pd.Series(dtype="int64"),
                    "aa": pd.Series(dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "x": m["n_1"],
                "y": m["n_2"],
                "cn": 1,
                "aa": 1.0 / np.log(m["deg_w_1"].astype("float64")),
            }
        )

    wedge_rows = partitioned_final(adj_deg, ["w"], wedges, num_partitions)

    # 4. sum per candidate pair
    pair_scores = partial_groupby_agg(
        wedge_rows,
        ["x", "y"],
        {"cn": ("cn", "sum"), "aa": ("aa", "sum")},
        num_partitions=num_partitions,
    )
    if min_common > 1:
        pair_scores = pair_scores.filter(expr=f"cn >= {min_common}")

    # 5. endpoint degrees for Jaccard
    with_dx = partitioned_join(
        pair_scores,
        degrees.map_batches(
            lambda b: b.rename(columns={"node": "x", "deg": "deg_x"}),
            batch_format="pandas",
        ),
        "x",
        left_cols=["y", "cn", "aa"],
        right_cols=["deg_x"],
        num_partitions=num_partitions,
    )
    with_both = partitioned_join(
        with_dx,
        degrees.map_batches(
            lambda b: b.rename(columns={"node": "y", "deg": "deg_y"}),
            batch_format="pandas",
        ),
        "y",
        left_cols=["x", "cn", "aa", "deg_x"],
        right_cols=["deg_y"],
        num_partitions=num_partitions,
    )

    # 6. anti-join the known edge set, co-partitioned on the pair key
    def tag_pair(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            key = batch["x"].astype(str) + "\x1f" + batch["y"].astype(str)
            batch["pair_key"] = key
            batch["side"] = side
            batch[PART] = hash_partition(batch, ["x", "y"], num_partitions)
            return batch

        return fn

    def drop_known(part: pd.DataFrame) -> pd.DataFrame:
        known = set(part.loc[part["side"] == "e", "pair_key"])
        cand = part[part["side"] == "c"]
        cand = cand[~cand["pair_key"].isin(known)]
        return cand.drop(columns=["pair_key", "side"])

    candidates = reduce_partitions(
        with_both.map_batches(tag_pair("c"), batch_format="pandas").union(
            edges.map_batches(tag_pair("e"), batch_format="pandas")
        ),
        drop_known,
    )

    # 7. deterministic distributed top-k: local head per block, tiny fold
    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        cols = ["x", "y", "cn", "aa", "deg_x", "deg_y"]
        batch = batch[[c for c in cols if c in batch.columns]]
        return batch.sort_values(
            ["cn", "x", "y"], ascending=[False, True, True]
        ).head(top_k)

    folded = pd.concat(
        [
            b
            for b in candidates.map_batches(
                local_topk, batch_format="pandas"
            ).iter_batches(batch_format="pandas")
        ]
        or [pd.DataFrame(columns=["x", "y", "cn", "aa", "deg_x", "deg_y"])],
        ignore_index=True,
    )
    top = folded.sort_values(
        ["cn", "x", "y"], ascending=[False, True, True]
    ).head(top_k)

    def round6(s: pd.Series) -> pd.Series:
        return np.floor(s.astype("float64") * 1e6 + 0.5) / 1e6

    denom = top["deg_x"].astype("int64") + top["deg_y"].astype("int64") - top[
        "cn"
    ].astype("int64")
    return pd.DataFrame(
        {
            "x": top["x"].to_numpy(),
            "y": top["y"].to_numpy(),
            "cn": top["cn"].astype("int64").to_numpy(),
            "adamic_adar": round6(top["aa"]).to_numpy(),
            "jaccard": round6(
                top["cn"].astype("float64") / denom.astype("float64")
            ).to_numpy(),
        }
    )


@derive_width
def butterfly_count(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Butterfly (bipartite 4-cycle) census of the bipartite graph in
    ``edges`` — THE cohesion primitive of bipartite networks (Wang et al.,
    "Butterfly Counting in Bipartite Networks"): a butterfly is two u-side
    nodes sharing two v-side neighbors.  Returns one row:
    (n_butterflies, n_copaired, max_copair) where n_copaired = u-pairs
    sharing >=1 neighbor and max_copair = the largest shared-neighbor count.

    Plan: distinct edges -> wedges per v-side hash partition (self-merge,
    u1<u2; fan-out is deg(v)^2, the inherent wedge cost — count from the
    LOWER-degree side in the caller when the graph is lopsided) -> one
    hash-partitioned groupby summing shared-neighbor counts c per u-pair ->
    per-batch partials of sum C(c,2) folded driver-side (three small ints
    cross the driver, never the pair table).
    """
    from esmarc_ray.ops.dedup import _distinct_on
    from esmarc_ray.ops.relational import partial_groupby_agg

    dedup = _distinct_on(
        edges.map_batches(
            lambda b: pd.DataFrame({"un": b[u], "vn": b[v]}),
            batch_format="pandas",
        ),
        ["un", "vn"],
        num_partitions=num_partitions,
    )

    def wedges(part: pd.DataFrame) -> pd.DataFrame:
        m = part.merge(part, on="vn", suffixes=("_1", "_2"))
        m = m[m["un_1"] < m["un_2"]]
        if not len(m):
            return pd.DataFrame(
                {
                    "u1": pd.Series(dtype=part["un"].dtype),
                    "u2": pd.Series(dtype=part["un"].dtype),
                    "c": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame({"u1": m["un_1"], "u2": m["un_2"], "c": 1})

    pair_counts = partial_groupby_agg(
        partitioned_final(dedup, ["vn"], wedges, num_partitions),
        ["u1", "u2"],
        {"c": ("c", "sum")},
        num_partitions=num_partitions,
    )

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["c"].astype("int64")
        return pd.DataFrame(
            {
                "bf": [int((c * (c - 1) // 2).sum())],
                "np_": [len(batch)],
                "mx": [int(c.max()) if len(c) else 0],
            }
        )

    bf = npair = mx = 0
    for row in pair_counts.map_batches(
        partials, batch_format="pandas"
    ).take_all():
        bf += int(row["bf"])
        npair += int(row["np_"])
        mx = max(mx, int(row["mx"]))
    return pd.DataFrame(
        {
            "n_butterflies": pd.Series([bf], dtype="int64"),
            "n_copaired": pd.Series([npair], dtype="int64"),
            "max_copair": pd.Series([mx], dtype="int64"),
        }
    )


@derive_width
def hyperball(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    p: int = 7,
    max_t: int = 12,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """HyperBall approximate neighborhood function (Boldi & Vigna, "In-Core
    Computation of Geometric Centralities with HyperBall", 2013): one tiny
    HLL counter per node, per round every node's counter absorbs its
    neighbours' counters (elementwise register max), so after t rounds node
    u's counter estimates ``|ball(u, t)|``.

    Returns a small frame (t, nf, coverage): ``nf`` = Σ_u |ball(u, t)|
    (the graph's neighbourhood function — nf(0)=n, nf(∞)=Σ reachable
    pairs), ``coverage`` = nf(t)/nf(T).  The effective-diameter readout is
    the first t with coverage ≥ 0.9.  Undirected (edges mirrored).

    Scale shape: the state is one 2^p-byte blob per node (p=7 → 128 B),
    hash-partitioned; a round is ONE counter⋈edge co-partition + one
    per-partition vectorized register-max reduce (np.maximum.at over
    factorized node codes) — the same two-exchange loop as
    :func:`connected_components`, with `repartition` before each
    materialize (block-count control).  Convergence: registers are
    monotone, so the loop stops the first round the global register
    checksum is unchanged.  Deterministic (siphash registers, no RNG).
    Not SQL-expressible (register-max fixpoint) — gated by
    tests/test_graph.py::test_hyperball_matches_exact_anf against exact
    BFS pair counts.
    """
    from esmarc_ray.ops.relational import partitioned_join

    m = 1 << p
    alpha = (
        {16: 0.673, 32: 0.697, 64: 0.709}[m]
        if m < 128
        else 0.7213 / (1.0 + 1.079 / m)
    )

    def _estimate(regs: np.ndarray) -> np.ndarray:
        """Rowwise HLL estimate over an (n, m) uint8 register matrix."""
        est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum(axis=1)
        zeros = (regs == 0).sum(axis=1)
        small = (est <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            lin = m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
        return np.where(small, lin, est)

    und = edges.map_batches(
        lambda b: pd.concat(
            [
                pd.DataFrame({"src": b[u].astype(str), "dst": b[v].astype(str)}),
                pd.DataFrame({"src": b[v].astype(str), "dst": b[u].astype(str)}),
            ]
        ).drop_duplicates(),
        batch_format="pandas",
    ).materialize()

    from esmarc_ray.ops.dedup import _distinct_on

    nodes = _distinct_on(
        und.map_batches(
            lambda b: pd.DataFrame({"node": b["src"]}), batch_format="pandas"
        ),
        ["node"],
        num_partitions=num_partitions,
    )

    def init_regs(batch: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(
            batch["node"].astype(str), index=False
        ).to_numpy(dtype=np.uint64)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = h & np.uint64((1 << (64 - p)) - 1)
        rank = np.empty(len(h), dtype=np.uint8)
        zero = rest == 0
        rank[zero] = (64 - p) + 1
        nz = ~zero
        rank[nz] = (
            (64 - p)
            - np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64)
        ).astype(np.uint8)
        regs = np.zeros((len(h), m), dtype=np.uint8)
        regs[np.arange(len(h)), idx] = rank
        return pd.DataFrame(
            {"node": batch["node"], "regs": [r.tobytes() for r in regs]}
        )

    counters = nodes.map_batches(init_regs, batch_format="pandas").materialize()

    def _decode(col) -> np.ndarray:
        vals = list(col)
        if not vals:
            return np.empty((0, m), dtype=np.uint8)
        return np.frombuffer(b"".join(vals), dtype=np.uint8).reshape(-1, m)

    def sum_estimate(cs: ray.data.Dataset) -> tuple[float, int]:
        parts = cs.map_batches(
            lambda b: pd.DataFrame(
                {
                    "s": [float(_estimate(_decode(b["regs"])).sum())],
                    "ck": [
                        int(
                            pd.util.hash_pandas_object(
                                b["regs"], index=False
                            ).to_numpy().sum(dtype=np.uint64)
                        )
                    ],
                }
            ),
            batch_format="pandas",
        ).to_pandas()
        return float(parts["s"].sum()), int(
            np.array(parts["ck"].to_numpy(), dtype=np.uint64).sum(dtype=np.uint64)
        )

    nf = []
    n0, checksum = sum_estimate(counters)
    nf.append(n0)

    for _t in range(max_t):
        # neighbours' counters: counter rows keyed by dst → (src, regs)
        incoming = partitioned_join(
            und,
            counters.map_batches(
                lambda b: b.rename(columns={"node": "dst"}),
                batch_format="pandas",
            ),
            "dst",
            left_cols=["src"],
            right_cols=["regs"],
            num_partitions=num_partitions,
        ).map_batches(
            lambda b: pd.DataFrame({"node": b["src"], "regs": b["regs"]}),
            batch_format="pandas",
        )

        def merge_max(part: pd.DataFrame) -> pd.DataFrame:
            regs = _decode(part["regs"])
            codes, uniq = pd.factorize(part["node"], sort=False)
            acc = np.zeros((len(uniq), m), dtype=np.uint8)
            np.maximum.at(acc, codes, regs)
            return pd.DataFrame(
                {"node": uniq, "regs": [r.tobytes() for r in acc]}
            )

        counters = (
            partitioned_final(
                counters.union(incoming), ["node"], merge_max, num_partitions
            )
            .repartition(num_partitions)
            .materialize()
        )
        total, new_checksum = sum_estimate(counters)
        nf.append(total)
        if new_checksum == checksum:
            break
        checksum = new_checksum

    final = nf[-1]
    return pd.DataFrame(
        {
            "t": np.arange(len(nf), dtype="int64"),
            "nf": np.array(nf, dtype="float64"),
            "coverage": np.array(nf, dtype="float64") / max(final, 1e-12),
        }
    )


@derive_width
def path_eval(
    pairs_of,
    path,
    *,
    max_depth: int = 8,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """SPARQL 1.1 property-path evaluator over edge relations: returns the
    DISTINCT (s, o) pair set the path expression denotes.

    ``pairs_of(pred_name) -> Dataset[(s, o)]`` resolves an atom predicate to
    its edge relation (the caller owns triple-format specifics — e.g.
    extracting internal @id refs from the KG's JSON-LD objects).  ``path``
    is an AST:

    * ``"pred"`` — atom
    * ``("inv", p)`` — ``^p`` (swap s/o)
    * ``("alt", p1, p2, …)`` — ``p1|p2|…`` (union)
    * ``("seq", p1, p2, …)`` — ``p1/p2/…`` (relational composition)
    * ``("plus", p)`` — ``p+`` (transitive closure, ≤ max_depth hops)
    * ``("star", p)`` — ``p*`` (``p+`` ∪ identity over p's node set)

    Every operator is a distributed pair-set algebra: union+DISTINCT
    (hash-partitioned), composition as a mid-node co-partition join, and
    closure as frontier rounds — new pairs found via a pair-key ANTI join
    against the settled set (both sides hash-partitioned, nothing driver-
    side), with ``repartition`` before each round's materialize (block-count
    control) and early exit when a round adds nothing.  The closure's
    shuffle volume is O(result pairs), the inherent cost of reachability
    materialization.

    Oracle pattern (tests + queries): a DuckDB recursive CTE with the same
    depth bound reproduces the pair set exactly — see
    ``__ray_entry__.q_kg_path_query``.
    """
    from esmarc_ray.ops.dedup import _distinct_on
    from esmarc_ray.ops.relational import partitioned_join, partitioned_semi_join

    def dedup(ds: ray.data.Dataset) -> ray.data.Dataset:
        return _distinct_on(ds, ["s", "o"], num_partitions=num_partitions)

    def ev(expr) -> ray.data.Dataset:
        if isinstance(expr, str):
            return pairs_of(expr)
        op = expr[0]
        if op == "inv":
            return ev(expr[1]).map_batches(
                lambda b: pd.DataFrame({"s": b["o"], "o": b["s"]}),
                batch_format="pandas",
            )
        if op == "alt":
            out = ev(expr[1])
            for sub in expr[2:]:
                out = out.union(ev(sub))
            return dedup(out)
        if op == "seq":
            left = ev(expr[1])
            for sub in expr[2:]:
                right = ev(sub).map_batches(
                    lambda b: pd.DataFrame({"mid": b["s"], "o2": b["o"]}),
                    batch_format="pandas",
                )
                left = dedup(
                    partitioned_join(
                        left.map_batches(
                            lambda b: pd.DataFrame({"s": b["s"], "mid": b["o"]}),
                            batch_format="pandas",
                        ),
                        right,
                        "mid",
                        left_cols=["s"],
                        right_cols=["o2"],
                        num_partitions=num_partitions,
                    ).map_batches(
                        lambda b: pd.DataFrame({"s": b["s"], "o": b["o2"]}),
                        batch_format="pandas",
                    )
                )
            return left
        if op in ("plus", "star"):
            base = dedup(ev(expr[1])).materialize()
            total = base
            frontier = base
            for _d in range(max_depth - 1):
                stepped = partitioned_join(
                    frontier.map_batches(
                        lambda b: pd.DataFrame({"s": b["s"], "mid": b["o"]}),
                        batch_format="pandas",
                    ),
                    base.map_batches(
                        lambda b: pd.DataFrame({"mid": b["s"], "o2": b["o"]}),
                        batch_format="pandas",
                    ),
                    "mid",
                    left_cols=["s"],
                    right_cols=["o2"],
                    num_partitions=num_partitions,
                ).map_batches(
                    lambda b: pd.DataFrame({"s": b["s"], "o": b["o2"]}),
                    batch_format="pandas",
                )

                def add_key(batch: pd.DataFrame) -> pd.DataFrame:
                    batch = batch.copy()
                    batch["pk"] = batch["s"].astype(str) + "\x1f" + batch["o"].astype(str)
                    return batch

                stepped_d = (
                    dedup(stepped)
                    .map_batches(add_key, batch_format="pandas")
                    .repartition(num_partitions)
                    .materialize()
                )
                # an empty composition round ends the closure; it also has
                # no schema, which partitioned_semi_join can't take
                if stepped_d.count() == 0:
                    break
                new = (
                    partitioned_semi_join(
                        stepped_d,
                        total.map_batches(add_key, batch_format="pandas"),
                        "pk",
                        anti=True,
                        num_partitions=num_partitions,
                    )
                    .map_batches(
                        lambda b: pd.DataFrame({"s": b["s"], "o": b["o"]}),
                        batch_format="pandas",
                    )
                    .repartition(num_partitions)
                    .materialize()
                )
                if new.count() == 0:
                    break
                total = (
                    total.union(new).repartition(num_partitions).materialize()
                )
                frontier = new
            if op == "star":
                ident = dedup(
                    base.map_batches(
                        lambda b: pd.DataFrame(
                            {
                                "s": pd.concat([b["s"], b["o"]]),
                                "o": pd.concat([b["s"], b["o"]]),
                            }
                        ),
                        batch_format="pandas",
                    )
                )
                total = dedup(total.union(ident))
            return total
        raise ValueError(f"unknown path operator: {expr!r}")

    return ev(path)


@derive_width
def k_truss(
    edges: ray.data.Dataset,
    *,
    k: int = 4,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
    max_rounds: int = 16,
) -> ray.data.Dataset:
    """k-truss decomposition: the maximal subgraph in which every edge is
    supported by ≥ k−2 triangles (Cohen 2008) — the standard cohesive-core
    extraction one notch stronger than k-core (every k-truss is a
    (k−1)-core).  Returns the surviving undirected edge set (a, b), a < b.

    Peeling loop: each round recomputes per-EDGE triangle support with the
    same degree-ordered wedge plan as :func:`triangle_count` (orient edges
    low-degree→high, self-join wedges per source partition, verify the
    closing edge with a key-partitioned match — hub-safe fan-out), then
    drops edges with support < k−2.  Dropping an edge can only reduce other
    edges' support, so the loop repeats until an edge census is stable
    (≤ max_rounds).  Support recomputation per round is the simple
    scale-correct plan (all stages hash-partitioned; the decrement-
    propagation variant trades shuffles for round count and only wins on
    adversarial peel chains).  Gated by
    tests/test_graph.py::test_k_truss_matches_bruteforce and (via
    ``copurchase_ktruss``) a recursive-CTE DuckDB oracle repeating the peel.
    """
    from esmarc_ray.ops.dedup import _distinct_on
    from esmarc_ray.ops.relational import partial_groupby_agg, partitioned_join

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[u].astype(str)
        b = batch[v].astype(str)
        lo = a.where(a < b, b)
        hi = b.where(a < b, a)
        out = pd.DataFrame({"a": lo, "b": hi})
        return out[out["a"] != out["b"]].drop_duplicates()

    und = _distinct_on(
        edges.map_batches(undirect, batch_format="pandas"), ["a", "b"],
        num_partitions=num_partitions,
    ).repartition(num_partitions).materialize()
    n_edges = und.count()
    min_support = k - 2

    for _round in range(max_rounds):
        if n_edges == 0:
            break

        # --- per-edge triangle support over the CURRENT edge set -------- #
        def deg_rows(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"node": pd.concat([batch["a"], batch["b"]], ignore_index=True)}
            )

        degrees = partial_groupby_agg(
            und.map_batches(deg_rows, batch_format="pandas"),
            ["node"],
            {"deg": ("node", "count")},
            num_partitions=num_partitions,
        )

        with_da = partitioned_join(
            und,
            degrees.map_batches(
                lambda b: b.rename(columns={"node": "a", "deg": "deg_a"}),
                batch_format="pandas",
            ),
            "a", left_cols=["b"], right_cols=["deg_a"],
            num_partitions=num_partitions,
        )
        with_both = partitioned_join(
            with_da,
            degrees.map_batches(
                lambda b: b.rename(columns={"node": "b", "deg": "deg_b"}),
                batch_format="pandas",
            ),
            "b", left_cols=["a", "deg_a"], right_cols=["deg_b"],
            num_partitions=num_partitions,
        )

        def orient(batch: pd.DataFrame) -> pd.DataFrame:
            da = batch["deg_a"].astype("int64")
            db = batch["deg_b"].astype("int64")
            a_first = (da < db) | ((da == db) & (batch["a"] < batch["b"]))
            return pd.DataFrame(
                {
                    "lo": batch["a"].where(a_first, batch["b"]),
                    "hi": batch["b"].where(a_first, batch["a"]),
                    "deg_hi": db.where(a_first, da),
                }
            )

        oriented = (
            with_both.map_batches(orient, batch_format="pandas")
            .repartition(num_partitions)
            .materialize()
        )

        def wedges(part: pd.DataFrame) -> pd.DataFrame:
            m = part.merge(part, on="lo", suffixes=("_1", "_2"))
            keep = (m["deg_hi_1"] < m["deg_hi_2"]) | (
                (m["deg_hi_1"] == m["deg_hi_2"]) & (m["hi_1"] < m["hi_2"])
            )
            m = m[keep]
            return pd.DataFrame(
                {"apex": m["lo"], "x": m["hi_1"], "y": m["hi_2"]}
            ).reset_index(drop=True)

        candidates = partitioned_final(oriented, ["lo"], wedges, num_partitions)

        def tag_cand(batch: pd.DataFrame) -> pd.DataFrame:
            lo = batch["x"].where(batch["x"] < batch["y"], batch["y"])
            hi = batch["y"].where(batch["x"] < batch["y"], batch["x"])
            out = pd.DataFrame({"lo": lo, "hi": hi})
            return pd.DataFrame(
                {
                    "key": lo.astype(str) + "\x1f" + hi.astype(str),
                    "apex": batch["apex"],
                    "side": "c",
                    PART: hash_partition(out, ["lo", "hi"], num_partitions),
                }
            )

        def tag_edge(batch: pd.DataFrame) -> pd.DataFrame:
            key = batch["a"].astype(str) + "\x1f" + batch["b"].astype(str)
            return pd.DataFrame(
                {
                    "key": key,
                    "apex": "",
                    "side": "e",
                    PART: hash_partition(batch, ["a", "b"], num_partitions),
                }
            )

        def edge_rows(part: pd.DataFrame) -> pd.DataFrame:
            """Matched triangle (apex, x—y): one support row for EACH of the
            three edges, normalized (min, max)."""
            edge_keys = set(part.loc[part["side"] == "e", "key"])
            c = part[part["side"] == "c"]
            tri = c[c["key"].isin(edge_keys)]
            if not len(tri):
                return pd.DataFrame({"ekey": pd.Series(dtype="object")})
            xy = tri["key"].str.split("\x1f")
            x = xy.str[0]
            y = xy.str[1]
            ap = tri["apex"]
            k1 = ap.where(ap < x, x) + "\x1f" + x.where(ap < x, ap)
            k2 = ap.where(ap < y, y) + "\x1f" + y.where(ap < y, ap)
            return pd.DataFrame(
                {"ekey": pd.concat([tri["key"], k1, k2], ignore_index=True)}
            )

        support_rows = reduce_partitions(
            candidates.map_batches(tag_cand, batch_format="pandas").union(
                und.map_batches(tag_edge, batch_format="pandas")
            ),
            edge_rows,
        )
        support = partial_groupby_agg(
            support_rows, ["ekey"], {"support": ("ekey", "count")},
            num_partitions=num_partitions,
        )

        # --- peel -------------------------------------------------------- #
        def ekey_edges(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["ekey"] = batch["a"].astype(str) + "\x1f" + batch["b"].astype(str)
            return batch

        def keep_fn(batch: pd.DataFrame) -> pd.DataFrame:
            sup = batch["support"].fillna(0).astype("int64")
            kept = batch[sup >= min_support]
            return pd.DataFrame({"a": kept["a"], "b": kept["b"]})

        und = (
            partitioned_join(
                und.map_batches(ekey_edges, batch_format="pandas"),
                support,
                "ekey",
                left_cols=["a", "b"],
                right_cols=["support"],
                num_partitions=num_partitions,
                how="left",
            )
            .map_batches(keep_fn, batch_format="pandas")
            .repartition(num_partitions)
            .materialize()
        )
        n_now = und.count()
        if n_now == n_edges:
            break
        n_edges = n_now

    return und


@derive_width
def hits_scores(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    rounds: int = 2,
    top_k: int = 20,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Unnormalized integer HITS (Kleinberg 1999): with ``a⁽⁰⁾ = 1`` on every
    node, ``h⁽ᵏ⁾ = A a⁽ᵏ⁻¹⁾`` and ``a⁽ᵏ⁾ = Aᵀ h⁽ᵏ⁾`` — every score after any
    number of rounds is an exact INTEGER (entries of ``(A Aᵀ)ᵏ · 1``), so
    distributed evaluation, SQL re-derivation and the textbook algorithm
    agree bit-for-bit regardless of summation order.  The float ℓ₂
    normalization of textbook HITS rescales each vector uniformly and never
    reorders nodes, so the integer top-k IS the HITS top-k.

    Scale shape: each half-round is one co-hash-partitioned equi-join of the
    edge table against the current (node, score) table plus one
    combiner-shaped groupby-sum — ``2·rounds`` shuffles of a table no wider
    than (node, int64), no per-node driver state, no adjacency
    materialization.  Parallel edges keep bag semantics (a duplicated edge
    doubles its contribution) on both engines.

    ``rounds`` is capped at 3: scores grow like ``(n·d_max²)ᵏ`` and round 4
    can overflow int64 on a head-heavy web-scale graph; 2 rounds already
    separates hubs from authorities (and is the classic "one full HITS
    iteration" after the degree bootstrap).

    Returns ``(role, node, score)`` — the deterministic top-k hubs and top-k
    authorities under (score desc, node asc).
    """
    if not 1 <= rounds <= 3:
        raise ValueError("hits_scores: rounds must be in 1..3 (int64 overflow)")

    from esmarc_ray.ops.relational import partial_groupby_agg, partitioned_join

    edges = edges.select_columns([src, dst]).materialize()  # joined 2·rounds times

    # bootstrap: a⁽⁰⁾ = 1 everywhere ⇒ h⁽¹⁾(u) = out-degree(u)
    hubs = partial_groupby_agg(
        edges, [src], {"score": (dst, "count")},
        num_partitions=num_partitions,
    ).map_batches(
        lambda b: b.rename(columns={src: "node"}), batch_format="pandas"
    )

    def _push(scores: ray.data.Dataset, key: str, out_key: str) -> ray.data.Dataset:
        """score(out_key) = Σ score(key) over edges — one join + one sum."""
        relabeled = scores.map_batches(
            lambda b, k=key: b.rename(columns={"node": k}),
            batch_format="pandas",
        )
        joined = partitioned_join(
            edges, relabeled, key,
            left_cols=[out_key], right_cols=["score"],
            num_partitions=num_partitions,
        )
        return partial_groupby_agg(
            joined, [out_key], {"score": ("score", "sum")},
            num_partitions=num_partitions,
        ).map_batches(
            lambda b: b.rename(columns={out_key: "node"}), batch_format="pandas"
        )

    auths = None
    for r in range(rounds):
        if r > 0:
            hubs = _push(auths, dst, src)  # h⁽ʳ⁺¹⁾ = A a⁽ʳ⁾
        # joins key on the edge column name, so relabel node → src/dst
        auths = _push(hubs, src, dst)      # a⁽ʳ⁺¹⁾ = Aᵀ h⁽ʳ⁺¹⁾

    def _topk(ds: ray.data.Dataset, role: str) -> ray.data.Dataset:
        def prune(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.sort_values(
                ["score", "node"], ascending=[False, True]
            ).head(top_k)
            return out

        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch.insert(0, "role", role)
            return batch[["role", "node", "score"]]

        return (
            ds.map_batches(prune, batch_format="pandas")
            .sort(["score", "node"], descending=[True, False])
            .limit(top_k)
            .map_batches(tag, batch_format="pandas")
        )

    return _topk(hubs, "hub").union(_topk(auths, "authority"))


@derive_width
def betweenness(
    edges: ray.data.Dataset,
    sources: list,
    *,
    u: str = "u",
    v: str = "v",
    max_hops: int = 12,
    num_partitions: int | None = None,
    undirected_pairs: bool = False,
) -> ray.data.Dataset:
    """Sampled-source Brandes betweenness centrality over the undirected
    edge list: returns (node, betweenness) with the exact Brandes dependency
    sum restricted to the given ``sources`` (sources = all nodes ⇒ exact
    betweenness; a hash-deterministic sample ⇒ the standard unbiased
    estimator up to the n/k factor, which the caller applies).  Exactness
    additionally requires ``max_hops`` ≥ the graph diameter — shortest
    paths longer than ``max_hops`` are truncated.

    Two distributed phases, both frontier-shaped (never all-pairs):

    * **forward** — multi-source BFS carrying (src, node, dist, sigma) where
      sigma = number of shortest s→node paths: per round one co-partitioned
      expansion join (frontier × edges on the shared endpoint, partial
      sigma-sum inside the partition) and one settle exchange (anti-join vs
      the settled table, summing sigma across partitions).  Early-exits when
      a round settles nothing.
    * **backward** — dependency accumulation level by level, deepest first:
      delta(u) = Σ_{successors w} sigma_u/sigma_w · (1 + delta(w)); each
      round ships only the (1+delta)/sigma ratios of ONE level through the
      edge table and multiplies by the predecessor level's sigma.  delta
      tables for levels ≥ 1 union into the final per-node sum.

    The state tables are (src, node)-keyed but co-partitioned on ``node``
    alone, so the per-round shuffle width is O(frontier × avg-degree) rows
    of four scalar columns — head sources salt themselves across partitions
    because src rides as payload.  ``undirected_pairs=True`` halves the sum
    (each unordered pair counted from both endpoints when sources = all
    nodes — the NetworkX undirected convention).

    Rows-only op (iterative; not SQL-expressible): exactness is gated by
    tests/test_graph.py::test_betweenness_* against a brute-force
    all-pairs Brandes on deterministic fixtures.
    """
    edges_tagged, settled, deepest = _brandes_forward(
        edges, sources, u=u, v=v, max_hops=max_hops,
        num_partitions=num_partitions,
    )
    return _brandes_backward_nodes(
        edges_tagged, settled, deepest,
        num_partitions=num_partitions, undirected_pairs=undirected_pairs,
    )


def _brandes_forward(
    edges: ray.data.Dataset,
    sources: list,
    *,
    u: str,
    v: str,
    max_hops: int,
    num_partitions: int,
):
    """Shared Brandes forward phase: multi-source sigma-BFS.  Returns the
    materialized tagged edge table, the settled (src, node, dist, sigma)
    table and the deepest settled level."""

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "s", v: "d"})
        rev = batch[[v, u]].rename(columns={v: "s", u: "d"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out = out[out["s"] != out["d"]]
        out[PART] = hash_partition(out, "s", num_partitions)
        out["kind"] = "e"
        # placeholder payload columns so every union in the loops is
        # schema-identical (src rides frontier rows only)
        out["src"] = out["s"]
        out["sigma"] = np.nan
        return out[["s", "d", PART, "kind", "src", "sigma"]]

    edges_tagged = edges.map_batches(undirect, batch_format="pandas").materialize()

    src_df = pd.DataFrame({"src": pd.Series(sources)})
    settled = ray.data.from_pandas(
        pd.DataFrame(
            {
                "src": src_df["src"],
                "node": src_df["src"],
                "dist": 0,
                "sigma": np.float64(1.0),
            }
        )
    ).materialize()

    # ---- forward: BFS with path counting --------------------------------
    deepest = 0
    for h in range(max_hops):
        frontier = settled.filter(expr=f"dist == {h}")
        if frontier.count() == 0:
            break
        deepest = h

        def tag_frontier(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "s": batch["node"],
                    "d": batch["node"],
                    PART: hash_partition(batch, "node", num_partitions),
                    "kind": "f",
                    "src": batch["src"],
                    "sigma": batch["sigma"],
                }
            )
            return out

        def expand(part: pd.DataFrame) -> pd.DataFrame:
            fr = part[part["kind"] == "f"]
            ed = part[part["kind"] == "e"]
            if fr.empty or ed.empty:
                return pd.DataFrame(
                    {
                        "src": pd.Series(dtype=fr["src"].dtype if not fr.empty else "object"),
                        "node": pd.Series(dtype="object"),
                        "sigma": pd.Series(dtype="float64"),
                    }
                )
            hit = ed[["s", "d"]].merge(
                fr[["s", "src", "sigma"]], on="s"
            )
            out = (
                hit.groupby(["src", "d"], sort=False)["sigma"].sum().reset_index()
            )
            return out.rename(columns={"d": "node"})

        candidates = reduce_partitions(
            edges_tagged.union(
                frontier.map_batches(tag_frontier, batch_format="pandas")
            ),
            expand,
        )

        def tag_cand(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            out["dist"] = -1
            out["kind"] = "c"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out[["src", "node", "dist", "sigma", "kind", PART]]

        def tag_settled(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["src", "node", "dist", "sigma"]].copy()
            out["kind"] = "s"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out

        def resolve(part: pd.DataFrame, new_dist: int = h + 1) -> pd.DataFrame:
            old = part[part["kind"] == "s"][["src", "node", "dist", "sigma"]]
            cand = part[part["kind"] == "c"]
            if cand.empty:
                return old
            summed = (
                cand.groupby(["src", "node"], sort=False)["sigma"].sum().reset_index()
            )
            seen = old.set_index(["src", "node"]).index
            new = summed[~summed.set_index(["src", "node"]).index.isin(seen)].copy()
            new["dist"] = new_dist
            return pd.concat(
                [old, new[["src", "node", "dist", "sigma"]]], ignore_index=True
            )

        settled = (
            reduce_partitions(
                candidates.map_batches(tag_cand, batch_format="pandas").union(
                    settled.map_batches(tag_settled, batch_format="pandas")
                ),
                resolve,
            )
            .repartition(num_partitions)
            .materialize()
        )

    # True deepest settled level.  When the loop runs all max_hops rounds
    # the final resolve settles nodes at dist == max_hops, which the
    # pre-resolve `deepest` misses — without this their dependency
    # contributions (and output rows) silently vanish from the backward
    # pass.  Paths longer than max_hops remain truncated by construction;
    # callers wanting exact Brandes must size max_hops ≥ graph diameter.
    deepest = int(settled.max("dist"))
    return edges_tagged, settled, deepest


def _brandes_backward_nodes(
    edges_tagged: ray.data.Dataset,
    settled: ray.data.Dataset,
    deepest: int,
    *,
    num_partitions: int,
    undirected_pairs: bool,
) -> ray.data.Dataset:
    # ---- backward: level-by-level dependency accumulation ----------------
    delta_levels: list[ray.data.Dataset] = []
    # delta at the deepest level is 0 (no successors)
    delta_cur = settled.filter(expr=f"dist == {deepest}").map_batches(
        lambda b: b[["src", "node", "sigma"]].assign(delta=np.float64(0.0)),
        batch_format="pandas",
    ).materialize()
    if deepest >= 1:
        delta_levels.append(delta_cur)

    for lvl in range(deepest, 0, -1):
        def tag_ratio(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "s": batch["node"],
                    "d": batch["node"],
                    PART: hash_partition(batch, "node", num_partitions),
                    "kind": "f",
                    "src": batch["src"],
                    "sigma": (1.0 + batch["delta"]) / batch["sigma"],  # ratio rides the sigma slot
                }
            )
            return out

        def push_ratio(part: pd.DataFrame) -> pd.DataFrame:
            fr = part[part["kind"] == "f"]
            ed = part[part["kind"] == "e"]
            if fr.empty or ed.empty:
                return pd.DataFrame(
                    {
                        "src": pd.Series(dtype=fr["src"].dtype if not fr.empty else "object"),
                        "node": pd.Series(dtype="object"),
                        "ratio": pd.Series(dtype="float64"),
                    }
                )
            hit = ed[["s", "d"]].merge(fr[["s", "src", "sigma"]], on="s")
            out = (
                hit.groupby(["src", "d"], sort=False)["sigma"].sum().reset_index()
            )
            return out.rename(columns={"d": "node", "sigma": "ratio"})

        ratios = reduce_partitions(
            edges_tagged.union(
                delta_cur.map_batches(tag_ratio, batch_format="pandas")
            ),
            push_ratio,
        )

        def tag_r(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            out["kind"] = "r"
            out["dist"] = -1
            out["sigma"] = np.nan
            out[PART] = hash_partition(out, "node", num_partitions)
            return out[["src", "node", "ratio", "dist", "kind", PART, "sigma"]]

        def tag_prev(batch: pd.DataFrame, want: int = lvl - 1) -> pd.DataFrame:
            out = batch[["src", "node", "dist", "sigma"]].copy()
            out["ratio"] = np.nan
            out["kind"] = "p"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out[["src", "node", "ratio", "dist", "kind", PART, "sigma"]]

        prev_level = settled.filter(expr=f"dist == {lvl - 1}")

        def mult(part: pd.DataFrame) -> pd.DataFrame:
            r = part[part["kind"] == "r"]
            p = part[part["kind"] == "p"]
            if p.empty:
                return pd.DataFrame(
                    {
                        "src": pd.Series(dtype="object"),
                        "node": pd.Series(dtype="object"),
                        "sigma": pd.Series(dtype="float64"),
                        "delta": pd.Series(dtype="float64"),
                    }
                )
            rs = (
                r.groupby(["src", "node"], sort=False)["ratio"].sum().reset_index()
                if not r.empty
                else pd.DataFrame({"src": [], "node": [], "ratio": []})
            )
            out = p[["src", "node", "sigma"]].merge(rs, on=["src", "node"], how="left")
            out["delta"] = out["sigma"] * out["ratio"].fillna(0.0)
            return out[["src", "node", "sigma", "delta"]]

        delta_cur = (
            reduce_partitions(
                ratios.map_batches(tag_r, batch_format="pandas").union(
                    prev_level.map_batches(tag_prev, batch_format="pandas")
                ),
                mult,
            )
            .repartition(num_partitions)
            .materialize()
        )
        if lvl - 1 >= 1:
            delta_levels.append(delta_cur)

    if not delta_levels:
        return ray.data.from_pandas(
            pd.DataFrame({"node": pd.Series(dtype="object"),
                          "betweenness": pd.Series(dtype="float64")})
        )

    all_delta = delta_levels[0]
    for extra in delta_levels[1:]:
        all_delta = all_delta.union(extra)

    from esmarc_ray.ops.relational import partial_groupby_agg

    bc = partial_groupby_agg(
        all_delta.map_batches(
            lambda b: b[["node", "delta"]], batch_format="pandas"
        ),
        ["node"],
        {"betweenness": ("delta", "sum")},
        num_partitions=num_partitions,
    )
    if undirected_pairs:
        bc = bc.map_batches(
            lambda b: b.assign(betweenness=b["betweenness"] * 0.5),
            batch_format="pandas",
        )
    return bc


@derive_width
def edge_betweenness(
    edges: ray.data.Dataset,
    sources: list,
    *,
    u: str = "u",
    v: str = "v",
    max_hops: int = 12,
    num_partitions: int | None = None,
    undirected_pairs: bool = False,
) -> ray.data.Dataset:
    """Sampled-source Brandes EDGE betweenness — the Girvan–Newman
    community-detection building block (the highest-flow edges are the
    inter-community bridges to cut): returns (a, b, betweenness) per
    undirected edge with a < b, where the flow on DAG edge (u→w) from
    source s is sigma_u/sigma_w · (1 + delta(w)).

    Shares the forward sigma-BFS with :func:`betweenness`
    (``_brandes_forward``); the backward pass ships each level's
    (1+delta)/sigma ratios through the edge table WITHOUT pre-aggregation
    (each surviving row IS one edge's flow for one source), joins the
    predecessor level's sigma, and emits per-edge flow rows alongside the
    per-node delta sums that feed the next level.  Per-round shuffle width
    is O(level-size × avg-degree) rows — wider than the node variant's
    aggregated push by the degree factor, the price of per-edge attribution.

    Rows-only op; exactness gated by
    tests/test_graph.py::test_edge_betweenness_* against the textbook
    accumulation.  ``undirected_pairs=True`` halves the sums (all-sources
    undirected convention, as in NetworkX edge_betweenness_centrality).
    """
    from esmarc_ray.ops.relational import partial_groupby_agg

    edges_tagged, settled, deepest = _brandes_forward(
        edges, sources, u=u, v=v, max_hops=max_hops,
        num_partitions=num_partitions,
    )

    edge_levels: list[ray.data.Dataset] = []
    delta_cur = settled.filter(expr=f"dist == {deepest}").map_batches(
        lambda b: b[["src", "node", "sigma"]].assign(delta=np.float64(0.0)),
        batch_format="pandas",
    ).materialize()

    for lvl in range(deepest, 0, -1):
        def tag_ratio(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "s": batch["node"],
                    "d": batch["node"],
                    PART: hash_partition(batch, "node", num_partitions),
                    "kind": "f",
                    "src": batch["src"],
                    "sigma": (1.0 + batch["delta"]) / batch["sigma"],
                }
            )

        def push_edges(part: pd.DataFrame) -> pd.DataFrame:
            fr = part[part["kind"] == "f"]
            ed = part[part["kind"] == "e"]
            if fr.empty or ed.empty:
                return pd.DataFrame(
                    {
                        "src": pd.Series(dtype=fr["src"].dtype if not fr.empty else "object"),
                        "node": pd.Series(dtype="object"),
                        "v_node": pd.Series(dtype="object"),
                        "ratio": pd.Series(dtype="float64"),
                    }
                )
            hit = ed[["s", "d"]].merge(fr[["s", "src", "sigma"]], on="s")
            # s = the level-lvl node w, d = its neighbor (candidate
            # predecessor u); keep BOTH endpoints so the surviving row is
            # the edge's flow
            return hit.rename(
                columns={"d": "node", "s": "v_node", "sigma": "ratio"}
            )[["src", "node", "v_node", "ratio"]]

        ratios = reduce_partitions(
            edges_tagged.union(
                delta_cur.map_batches(tag_ratio, batch_format="pandas")
            ),
            push_edges,
        )

        def tag_r(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            out["kind"] = "r"
            out["dist"] = -1
            out["sigma"] = np.nan
            out[PART] = hash_partition(out, "node", num_partitions)
            return out[["src", "node", "v_node", "ratio", "dist", "kind", PART, "sigma"]]

        def tag_prev(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["src", "node", "dist", "sigma"]].copy()
            out["v_node"] = out["node"]  # dtype placeholder
            out["ratio"] = np.nan
            out["kind"] = "p"
            out[PART] = hash_partition(out, "node", num_partitions)
            return out[["src", "node", "v_node", "ratio", "dist", "kind", PART, "sigma"]]

        prev_level = settled.filter(expr=f"dist == {lvl - 1}")

        def mult(part: pd.DataFrame) -> pd.DataFrame:
            r = part[part["kind"] == "r"]
            p = part[part["kind"] == "p"]
            if p.empty or r.empty:
                if p.empty:
                    return pd.DataFrame(
                        {
                            "src": pd.Series(dtype="object"),
                            "node": pd.Series(dtype="object"),
                            "v_node": pd.Series(dtype="object"),
                            "sigma": pd.Series(dtype="float64"),
                            "delta": pd.Series(dtype="float64"),
                            "rk": pd.Series(dtype="object"),
                        }
                    )
                out = p[["src", "node", "sigma"]].copy()
                out["v_node"] = out["node"]
                out["delta"] = 0.0
                out["rk"] = "delta"
                return out[["src", "node", "v_node", "sigma", "delta", "rk"]]
            m = r[["src", "node", "v_node", "ratio"]].merge(
                p[["src", "node", "sigma"]], on=["src", "node"]
            )
            m["flow"] = m["sigma"] * m["ratio"]
            edges_out = pd.DataFrame(
                {
                    "src": m["src"],
                    "node": m["node"],
                    "v_node": m["v_node"],
                    "sigma": np.nan,
                    "delta": m["flow"],
                    "rk": "edge",
                }
            )
            dsum = (
                m.groupby(["src", "node"], sort=False)["flow"].sum().reset_index()
            )
            # every predecessor-level node needs a delta row (0 if no flow)
            allp = p[["src", "node", "sigma"]].merge(
                dsum, on=["src", "node"], how="left"
            )
            delta_out = pd.DataFrame(
                {
                    "src": allp["src"],
                    "node": allp["node"],
                    "v_node": allp["node"],
                    "sigma": allp["sigma"],
                    "delta": allp["flow"].fillna(0.0),
                    "rk": "delta",
                }
            )
            return pd.concat([edges_out, delta_out], ignore_index=True)

        combined = (
            reduce_partitions(
                ratios.map_batches(tag_r, batch_format="pandas").union(
                    prev_level.map_batches(tag_prev, batch_format="pandas")
                ),
                mult,
            )
            .repartition(num_partitions)
            .materialize()
        )
        edge_levels.append(combined.filter(expr="rk == 'edge'"))
        delta_cur = combined.filter(expr="rk == 'delta'")

    if not edge_levels:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "a": pd.Series(dtype="object"),
                    "b": pd.Series(dtype="object"),
                    "betweenness": pd.Series(dtype="float64"),
                }
            )
        )

    all_edges = edge_levels[0]
    for extra in edge_levels[1:]:
        all_edges = all_edges.union(extra)

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        a = np.minimum(batch["node"], batch["v_node"])
        b = np.maximum(batch["node"], batch["v_node"])
        return pd.DataFrame({"a": a, "b": b, "delta": batch["delta"]})

    bc = partial_groupby_agg(
        all_edges.map_batches(canon, batch_format="pandas"),
        ["a", "b"],
        {"betweenness": ("delta", "sum")},
        num_partitions=num_partitions,
    )
    if undirected_pairs:
        bc = bc.map_batches(
            lambda b: b.assign(betweenness=b["betweenness"] * 0.5),
            batch_format="pandas",
        )
    return bc


@derive_width
def deterministic_walks(
    edges: ray.data.Dataset,
    start_nodes: list,
    *,
    u: str = "u",
    v: str = "v",
    walk_len: int = 6,
    walks_per_node: int = 2,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """DeepWalk-style walk-corpus generation with a FULLY REPRODUCIBLE
    step rule: from node n at step t of walk w, the next node is

        sorted_neighbors(n)[ ((w*1000003 + t) % 2147483647) * 2654435761
                             % degree(n) ]

    — a hash-mix any SQL engine can evaluate (no wraparound: the product is
    < 2^63), so a DuckDB recursive CTE re-derives every walk EXACTLY and the
    corpus is value-hash oracled, unlike seeded-RNG walks.  Uniformity is
    hash-quality (node2vec p=q=1 shape); the point is a deterministic,
    audit-able sampling corpus for embedding training.

    Returns (walk_id, step, node) with walk_id = start-index ×
    ``walks_per_node`` + j, step 0..walk_len.  Distributed as the standard
    co-partitioned frontier loop: the undirected adjacency table is tagged
    and materialized once; each round one exchange routes walk positions to
    their node's partition, the reducer gathers the hash-chosen neighbor
    from the node's SORTED neighbor run (CSR via sort + searchsorted —
    vectorized, no Python loop over walks).
    """

    def undirect(batch: pd.DataFrame) -> pd.DataFrame:
        fwd = batch[[u, v]].rename(columns={u: "s", v: "d"})
        rev = batch[[v, u]].rename(columns={v: "s", u: "d"})
        out = pd.concat([fwd, rev], ignore_index=True).drop_duplicates()
        out = out[out["s"] != out["d"]]
        out[PART] = hash_partition(out, "s", num_partitions)
        out["kind"] = "e"
        out["walk_id"] = -1
        out["step"] = -1
        return out[["s", "d", PART, "kind", "walk_id", "step"]]

    edges_tagged = edges.map_batches(undirect, batch_format="pandas").materialize()

    rows = []
    for i, n in enumerate(start_nodes):
        for j in range(walks_per_node):
            rows.append({"walk_id": i * walks_per_node + j, "step": 0, "node": n})
    positions = ray.data.from_pandas(pd.DataFrame(rows)).materialize()
    outputs = [positions]

    for t in range(walk_len):
        def tag_pos(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "s": batch["node"],
                    "d": batch["node"],
                    PART: hash_partition(batch, "node", num_partitions),
                    "kind": "w",
                    "walk_id": batch["walk_id"],
                    "step": batch["step"],
                }
            )

        def advance(part: pd.DataFrame) -> pd.DataFrame:
            ed = part[part["kind"] == "e"]
            wk = part[part["kind"] == "w"]
            if wk.empty or ed.empty:
                return pd.DataFrame(
                    {
                        "walk_id": pd.Series(dtype="int64"),
                        "step": pd.Series(dtype="int64"),
                        "node": pd.Series(dtype=ed["d"].dtype if not ed.empty else "int64"),
                    }
                )
            ed = ed.sort_values(["s", "d"], kind="stable")
            nodes_arr = ed["s"].to_numpy()
            nbrs = ed["d"].to_numpy()
            uniq, starts = np.unique(nodes_arr, return_index=True)
            starts = np.append(starts, len(nodes_arr))
            cur = wk["s"].to_numpy()  # tag_pos routes the walk's node via "s"
            pos = np.searchsorted(uniq, cur)
            ok = (pos < len(uniq)) & (uniq[np.clip(pos, 0, len(uniq) - 1)] == cur)
            wkk = wk[ok]
            pos = pos[ok]
            deg = starts[pos + 1] - starts[pos]
            wid = wkk["walk_id"].to_numpy().astype(np.int64)
            stp = wkk["step"].to_numpy().astype(np.int64)
            h = ((wid * 1000003 + stp) % 2147483647) * 2654435761 % deg
            nxt = nbrs[starts[pos] + h]
            return pd.DataFrame(
                {"walk_id": wid, "step": stp + 1, "node": nxt}
            )

        positions = (
            reduce_partitions(
                edges_tagged.union(
                    positions.map_batches(tag_pos, batch_format="pandas")
                ),
                advance,
            )
            .repartition(num_partitions)
            .materialize()
        )
        outputs.append(positions)

    result = outputs[0]
    for ds in outputs[1:]:
        result = result.union(ds)
    return result
