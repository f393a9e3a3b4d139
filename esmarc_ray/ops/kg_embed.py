"""Distributed knowledge-graph embedding training (TransE, Bordes et al.
NeurIPS 2013) over the engine's (subj, pred, obj) triple table.

The training loop is expressed entirely as Dataset operators — no driver-held
entity matrix, no parameter server:

* **state** — entity embeddings live as a Dataset of (ent, vec) rows where
  ``vec`` is the float32 vector's BYTES (Ray's tensor-extension columns
  reject the union/join shuffles this loop is built from, and bytes halve
  the shuffle payload); relation embeddings (|predicates| × dim, tiny by
  construction) are the only driver-held parameters, re-broadcast each epoch
  via the batch closure.
* **epoch** — the triple table co-partitions with the embedding table twice
  (head side, then tail side — the repo's ``partitioned_join``), each batch
  computes margin-ranking gradients with IN-BATCH negatives (tails corrupted
  by a deterministic roll of the batch — no global negative-sampling
  shuffle), per-entity gradient partials pre-sum inside the batch (combiner
  — hub entities cost one row per batch, not per edge) and reduce on one
  hash partition pass, and the SGD step is a final embedding⋈gradient
  co-partition.  Four narrow shuffles per epoch, every one keyed on the SAME
  entity-hash partitioning.
* **init** — an entity's start vector is a seeded hash-RNG draw, so
  initialization is a map-only pass (no global id assignment).

Scale notes: all per-epoch state is O(|entities| + |edges|) rows flowing
through the object store; the driver holds |predicates|·dim floats.

The reference has no embedding machinery at all (its linking is exact
identifier lookup, reference esmarc/esmarc.py); this is the
representation-learning counterpart a modern KG pipeline trains after
materialization.  Iterative SGD is not SQL-expressible — gated by
tests/test_graph.py::test_transe_separates_clusters (planted two-cluster KG,
true triples must outscore corrupted ones, AUC ≥ 0.9).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data


def _hash_vec(keys: pd.Series, dim: int, seed: int) -> np.ndarray:
    """Deterministic per-key init vectors: one seeded Philox draw per key,
    seeded from the key's 64-bit hash — map-only, identical on any worker."""
    hashes = pd.util.hash_pandas_object(keys.astype(str), index=False).to_numpy()
    out = np.empty((len(keys), dim), dtype=np.float32)
    for i, h in enumerate(hashes):
        rng = np.random.Generator(
            np.random.Philox(key=np.uint64(h) ^ np.uint64(seed))
        )
        out[i] = rng.normal(0.0, 1.0 / np.sqrt(dim), dim)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.maximum(norms, 1e-12)


def _enc(mat: np.ndarray) -> list:
    return [row.tobytes() for row in np.ascontiguousarray(mat, dtype=np.float32)]


def _dec(col, dim: int) -> np.ndarray:
    vals = list(col)
    if not vals:
        return np.empty((0, dim), dtype=np.float32)
    return np.frombuffer(b"".join(vals), dtype=np.float32).reshape(-1, dim)


def _empty_grads() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "key": pd.Series(dtype="object"),
            "kind": pd.Series(dtype="object"),
            "g": pd.Series(dtype="object"),
            "n": pd.Series(dtype="int64"),
        }
    )


def _sum_grads(df: pd.DataFrame, dim: int) -> pd.DataFrame:
    """Vectorized per-(kind, key) gradient sum + contribution count: decode
    once, np.add.at into a dense (n_groups, dim) accumulator — no per-group
    Python lambda.  The count rides along so the final SGD step applies the
    MEAN gradient (a summed full-batch gradient scales with entity degree
    and diverges on hubs)."""
    if not len(df):
        return _empty_grads()
    mat = _dec(df["g"], dim)
    n_in = (
        df["n"].to_numpy(dtype="int64")
        if "n" in df.columns
        else np.ones(len(df), dtype="int64")
    )
    codes, _ = pd.factorize(df["kind"] + "\x1f" + df["key"], sort=False)
    acc = np.zeros((codes.max() + 1, dim), dtype=np.float64)
    np.add.at(acc, codes, mat.astype(np.float64))
    cnt = np.zeros(codes.max() + 1, dtype="int64")
    np.add.at(cnt, codes, n_in)
    first = np.unique(codes, return_index=True)[1]
    return pd.DataFrame(
        {
            "key": df["key"].to_numpy()[first],
            "kind": df["kind"].to_numpy()[first],
            "g": _enc(acc[codes[first]]),
            "n": cnt[codes[first]],
        }
    )


def transe_train(
    triples: ray.data.Dataset,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    dim: int = 16,
    epochs: int = 5,
    lr: float = 0.1,
    margin: float = 1.0,
    seed: int = 13,
    num_partitions: int = 32,
) -> tuple[ray.data.Dataset, pd.DataFrame]:
    """Train TransE embeddings; returns (entity_embeddings, rel_embeddings).

    entity_embeddings: Dataset of (ent, vec) with vec = float32 bytes
    (decode with ``np.frombuffer(v, dtype=np.float32)``); rel_embeddings:
    small pandas frame (pred, vec bytes).  Scoring convention: a triple
    (h, r, t) is GOOD when ``||h + r − t||²`` is small.
    """
    from esmarc_ray.ops.dedup import _distinct_on
    from esmarc_ray.ops.relational import partitioned_final, partitioned_join

    edges = triples.map_batches(
        lambda b: pd.DataFrame(
            {
                "h": b[subj_col].astype(str),
                "r": b[pred_col].astype(str),
                "t": b[obj_col].astype(str),
            }
        ),
        batch_format="pandas",
    ).materialize()

    # --- init ---------------------------------------------------------- #
    def ent_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ents = pd.concat([batch["h"], batch["t"]]).drop_duplicates()
        return pd.DataFrame({"ent": ents})

    entities = _distinct_on(
        edges.map_batches(ent_rows, batch_format="pandas"),
        ["ent"],
        num_partitions=num_partitions,
    )

    def init_vecs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"ent": batch["ent"], "vec": _enc(_hash_vec(batch["ent"], dim, seed))}
        )

    emb = entities.map_batches(init_vecs, batch_format="pandas").materialize()

    preds = sorted(
        edges.map_batches(
            lambda b: b[["r"]].drop_duplicates(), batch_format="pandas"
        )
        .to_pandas()["r"]
        .drop_duplicates()
    )
    rel_mat = _hash_vec(pd.Series(preds), dim, seed ^ 0xA5)

    # --- epochs --------------------------------------------------------- #
    for _epoch in range(epochs):
        rel_map = {p: rel_mat[i] for i, p in enumerate(preds)}

        with_h = partitioned_join(
            edges,
            emb.map_batches(
                lambda b: b.rename(columns={"ent": "h", "vec": "hvec"}),
                batch_format="pandas",
            ),
            "h",
            left_cols=["r", "t"],
            right_cols=["hvec"],
            num_partitions=num_partitions,
        )
        with_ht = partitioned_join(
            with_h,
            emb.map_batches(
                lambda b: b.rename(columns={"ent": "t", "vec": "tvec"}),
                batch_format="pandas",
            ),
            "t",
            left_cols=["h", "r", "hvec"],
            right_cols=["tvec"],
            num_partitions=num_partitions,
        )

        def grad_batch(batch: pd.DataFrame, rel_map=rel_map) -> pd.DataFrame:
            n = len(batch)
            if n < 2:
                return _empty_grads()
            H = _dec(batch["hvec"], dim)
            T = _dec(batch["tvec"], dim)
            R = np.stack([rel_map[p] for p in batch["r"]])
            # in-batch negative: corrupt the tail with the batch rolled by 1
            Tn = np.roll(T, 1, axis=0)
            d_pos = H + R - T
            d_neg = H + R - Tn
            s_pos = (d_pos * d_pos).sum(axis=1)
            s_neg = (d_neg * d_neg).sum(axis=1)
            active = (margin + s_pos - s_neg) > 0.0
            if not active.any():
                return _empty_grads()
            w = active.astype(np.float32)[:, None]
            gh = 2.0 * w * (d_pos - d_neg)  # d/dh of (s_pos − s_neg)
            gt = -2.0 * w * d_pos           # d/dt of s_pos
            gtn = 2.0 * w * d_neg           # d/dt' of −s_neg
            gr = gh                          # d/dr equals d/dh
            keys = np.concatenate(
                [batch["h"].to_numpy(), batch["t"].to_numpy(),
                 np.roll(batch["t"].to_numpy(), 1), batch["r"].to_numpy()]
            )
            kinds = np.concatenate(
                [np.full(n, "e"), np.full(n, "e"), np.full(n, "e"),
                 np.full(n, "r")]
            )
            grads = np.concatenate([gh, gt, gtn, gr], axis=0)
            df = pd.DataFrame({"key": keys, "kind": kinds, "g": _enc(grads)})
            return _sum_grads(df, dim)  # combiner before the shuffle

        grads = with_ht.map_batches(grad_batch, batch_format="pandas")

        def reduce_part(part: pd.DataFrame) -> pd.DataFrame:
            return _sum_grads(part, dim)

        folded = partitioned_final(
            grads, ["key"], reduce_part, num_partitions
        ).materialize()  # consumed by two branches below

        ent_grads = folded.filter(expr="kind == 'e'").map_batches(
            lambda b: pd.DataFrame(
                {"ent": b["key"], "g": b["g"], "gn": b["n"].astype("int64")}
            ),
            batch_format="pandas",
        )
        rel_grads = folded.filter(expr="kind == 'r'").to_pandas()

        # SGD step on entities: one entity-hash co-partition, renormalize
        # into the unit ball (the TransE constraint)
        def apply_step(batch: pd.DataFrame) -> pd.DataFrame:
            vecs = _dec(batch["vec"], dim).copy()
            has_g = batch["g"].notna().to_numpy()
            if has_g.any():
                g = _dec(batch.loc[has_g, "g"], dim)
                n = batch.loc[has_g, "gn"].to_numpy(dtype="float32")[:, None]
                vecs[has_g] -= np.float32(lr) * g / np.maximum(n, 1.0)
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            vecs = vecs / np.maximum(norms, 1.0)
            return pd.DataFrame({"ent": batch["ent"], "vec": _enc(vecs)})

        emb = (
            partitioned_join(
                emb, ent_grads, "ent",
                left_cols=["vec"], right_cols=["g", "gn"],
                num_partitions=num_partitions, how="left",
            )
            .map_batches(apply_step, batch_format="pandas")
            # block-count control: without this the per-epoch materialize
            # ACCUMULATES blocks (128→416→1280 measured at sf0.01) and epoch
            # wall time grows superlinearly — same fix as every iterative
            # graph loop in ops/graph.py
            .repartition(num_partitions)
            .materialize()
        )

        # relation step on the driver (|preds| rows)
        if len(rel_grads):
            gmap = {
                k: (g, n)
                for k, g, n in zip(
                    rel_grads["key"], rel_grads["g"], rel_grads["n"]
                )
            }
            for i, p in enumerate(preds):
                hit = gmap.get(p)
                if hit is not None:
                    g, n = hit
                    rel_mat[i] -= (
                        np.float32(lr)
                        * np.frombuffer(g, np.float32)
                        / np.float32(max(int(n), 1))
                    )

    rel = pd.DataFrame({"pred": preds, "vec": _enc(rel_mat)})
    return emb, rel


def transe_score(
    triples: ray.data.Dataset,
    entity_emb: ray.data.Dataset,
    rel_emb: pd.DataFrame,
    *,
    subj_col: str = "subj",
    pred_col: str = "pred",
    obj_col: str = "obj",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Score (subj, pred, obj) rows with a trained model: adds ``score`` =
    ``||h + r − t||²`` (smaller = more plausible).  Two entity-hash
    co-partitions; relations broadcast via the batch closure."""
    from esmarc_ray.ops.relational import partitioned_join

    dim = len(rel_emb["vec"].iloc[0]) // 4
    rel_map = {
        p: np.frombuffer(v, np.float32)
        for p, v in zip(rel_emb["pred"], rel_emb["vec"])
    }

    edges = triples.map_batches(
        lambda b: pd.DataFrame(
            {
                "h": b[subj_col].astype(str),
                "r": b[pred_col].astype(str),
                "t": b[obj_col].astype(str),
            }
        ),
        batch_format="pandas",
    )
    with_h = partitioned_join(
        edges,
        entity_emb.map_batches(
            lambda b: b.rename(columns={"ent": "h", "vec": "hvec"}),
            batch_format="pandas",
        ),
        "h",
        left_cols=["r", "t"], right_cols=["hvec"],
        num_partitions=num_partitions,
    )
    with_ht = partitioned_join(
        with_h,
        entity_emb.map_batches(
            lambda b: b.rename(columns={"ent": "t", "vec": "tvec"}),
            batch_format="pandas",
        ),
        "t",
        left_cols=["h", "r", "hvec"], right_cols=["tvec"],
        num_partitions=num_partitions,
    )

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {
                    subj_col: pd.Series(dtype="object"),
                    pred_col: pd.Series(dtype="object"),
                    obj_col: pd.Series(dtype="object"),
                    "score": pd.Series(dtype="float64"),
                }
            )
        H = _dec(batch["hvec"], dim)
        T = _dec(batch["tvec"], dim)
        R = np.stack([rel_map[p] for p in batch["r"]])
        d = H + R - T
        return pd.DataFrame(
            {
                subj_col: batch["h"],
                pred_col: batch["r"],
                obj_col: batch["t"],
                "score": (d * d).sum(axis=1).astype("float64"),
            }
        )

    return with_ht.map_batches(score, batch_format="pandas")
