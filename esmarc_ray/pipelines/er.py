"""Composed entity-resolution pipeline: blocking → verify → cluster.

The full ER recipe over any (id, name) table, each stage the repo's own
distributed operator:

1. **blocking** — either canopy pre-blocking
   (`ops.relational.canopy_clusters`: cheap token-Jaccard canopies, the
   scale default) or exact shared-token blocking (``blocking="token"``:
   records are candidates iff they share a whitespace token — fully
   SQL-expressible, so the whole pipeline gets a DuckDB oracle).  Either
   way, only records sharing a block key are ever compared (never
   all-pairs).
2. **pair generation** — per-block-key hash partition, self-merge a<b,
   globally deduped (a pair sharing two block keys is compared once).
3. **verify** — exact Jaro–Winkler on each candidate pair (the expensive
   inner loop runs only on blocked pairs), threshold gate.
4. **cluster** — pointer-jumping connected components over accepted match
   edges; every record gets a canonical cluster id (its cluster's minimal
   record id), singletons included.

Contrast with the reference, which has no cross-record ER at all (its
identity merging is exact-key sameAs only, reference esmarc/esmarc.py
canonicalization); this is the fuzzy-identity counterpart the north rule's
"entity-link scoring" family needs at corpus scale.
"""

from __future__ import annotations

import pandas as pd
import ray.data

from esmarc_ray.config import derive_width



@derive_width
def resolve_entities(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    text_col: str,
    blocking: str = "canopy",
    t1: float = 0.5,
    t2: float = 0.75,
    jw_threshold: float = 0.88,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Run the blocked ER pipeline; returns (id, canon_id, cluster_size).

    ``blocking="canopy"`` (default) blocks on canopy membership;
    ``blocking="token"`` blocks on exact shared whitespace tokens (split on
    a single space, empties dropped — mirrors SQL ``string_split(txt, ' ')``
    so a DuckDB oracle reproduces the candidate set bit-for-bit).

    Deterministic under any partitioning: block keys are deterministic,
    pair verification is pure, and the cluster id is the min record id of
    the component.
    """
    from esmarc_ray.ops.dedup import _distinct_on
    from esmarc_ray.ops.graph import connected_components
    from esmarc_ray.ops.relational import (
        _jaro_winkler,
        canopy_clusters,
        partial_groupby_agg,
        partitioned_final,
        partitioned_join,
    )

    ids_text = ds.map_batches(
        lambda b: pd.DataFrame(
            {"rid": b[id_col].astype(str), "txt": b[text_col].astype(str)}
        ),
        batch_format="pandas",
    ).materialize()

    # 1. blocking → a (rid, bkey, txt) table, one row per block membership
    if blocking == "token":
        def tok_rows(batch: pd.DataFrame) -> pd.DataFrame:
            toks = batch["txt"].str.split(" ")
            out = pd.DataFrame(
                {"rid": batch["rid"], "txt": batch["txt"], "bkey": toks}
            ).explode("bkey")
            out = out[out["bkey"].astype(str) != ""]
            # one membership row per DISTINCT token per record: a repeated
            # token inside one name must not double-enrol the record (the
            # pair would survive the global distinct anyway, but this keeps
            # the shuffle lean)
            return out.drop_duplicates(["rid", "bkey"])[["rid", "bkey", "txt"]]

        with_text = ids_text.map_batches(tok_rows, batch_format="pandas")
    elif blocking == "canopy":
        canopies = canopy_clusters(
            ds, id_col=id_col, text_col=text_col, t1=t1, t2=t2,
            num_partitions=num_partitions,
        ).map_batches(
            lambda b: pd.DataFrame(
                {"rid": b["id"].astype(str), "bkey": b["canopy"].astype(str)}
            ),
            batch_format="pandas",
        )
        # attach the text to each (rid, bkey) row so pair generation is local
        with_text = partitioned_join(
            canopies, ids_text, "rid",
            left_cols=["bkey"], right_cols=["txt"],
            num_partitions=num_partitions,
        )
    else:
        raise ValueError(f"unknown blocking mode: {blocking!r}")

    # 2. per-block-key candidate pairs, globally distinct
    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        m = part.merge(part, on="bkey", suffixes=("_a", "_b"))
        m = m[m["rid_a"] < m["rid_b"]]
        return m[["rid_a", "rid_b", "txt_a", "txt_b"]]

    # distinct on all four columns: a pair sharing two block keys carries
    # the same texts, so this is exactly per-pair dedup (and _distinct_on
    # keeps only the listed columns)
    cand = _distinct_on(
        partitioned_final(with_text, ["bkey"], pairs, num_partitions),
        ["rid_a", "rid_b", "txt_a", "txt_b"],
        num_partitions=num_partitions,
    )

    # 3. verify
    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {"u": pd.Series(dtype="object"), "v": pd.Series(dtype="object")}
            )
        sims = [
            _jaro_winkler(a, b) for a, b in zip(batch["txt_a"], batch["txt_b"])
        ]
        keep = pd.Series(sims, index=batch.index) >= jw_threshold
        return pd.DataFrame(
            {"u": batch.loc[keep, "rid_a"], "v": batch.loc[keep, "rid_b"]}
        )

    edges = cand.map_batches(verify, batch_format="pandas")

    # 4. cluster: CC labels for matched records, singletons keep their id
    labels = connected_components(
        edges, u="u", v="v", num_partitions=num_partitions
    )

    merged = partitioned_join(
        ids_text.map_batches(
            lambda b: b[["rid"]], batch_format="pandas"
        ),
        labels.map_batches(
            lambda b: pd.DataFrame(
                {"rid": b["node"], "canon_id": b["component"]}
            ),
            batch_format="pandas",
        ),
        "rid",
        left_cols=[],
        right_cols=["canon_id"],
        num_partitions=num_partitions,
        how="left",
    ).map_batches(
        lambda b: pd.DataFrame(
            {"id": b["rid"], "canon_id": b["canon_id"].fillna(b["rid"])}
        ),
        batch_format="pandas",
    )

    sizes = partial_groupby_agg(
        merged, ["canon_id"], {"cluster_size": ("id", "count")},
        num_partitions=num_partitions,
    )
    return partitioned_join(
        merged, sizes, "canon_id",
        left_cols=["id"], right_cols=["cluster_size"],
        num_partitions=num_partitions,
    ).map_batches(
        lambda b: b[["id", "canon_id", "cluster_size"]],
        batch_format="pandas",
    )
