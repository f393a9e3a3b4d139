"""Training-data operator tests: dedup family, similarity search, text
analysis, relational idioms, multimodal plumbing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data

from esmarc_ray.ops import dedup, multimodal, relational, similarity, text

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture()
def dup_docs(ray_session):
    """Docs with planted exact and near duplicates."""
    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the old wooden fence near the river bank in the morning light"
    )
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact dup
        {"doc_id": 2, "text": base.replace("morning", "evening")},  # near dup
        {"doc_id": 3, "text": "completely different content about database engines and shuffles"},
        {"doc_id": 4, "text": base.replace("quick", "slow").replace("lazy", "sleepy")},  # near-ish
        {"doc_id": 5, "text": "another unrelated short text"},
    ]
    return ray.data.from_pandas(pd.DataFrame(rows))


def test_exact_dedup(dup_docs):
    result = dedup.exact_dedup(dup_docs, "text").to_pandas()
    assert len(result) == 5  # 6 rows, one exact dup removed
    assert 0 in set(result["doc_id"]) and 1 not in set(result["doc_id"])


def test_minhash_dedup_finds_planted_near_dups(dup_docs):
    deduped, confirmed = dedup.minhash_dedup(dup_docs, threshold=0.7)
    confirmed = list(confirmed.to_pandas().itertuples(index=False, name=None))
    pairs = {(a, b) for a, b, _ in confirmed}
    assert (0, 1) in pairs  # exact dup → jaccard 1.0
    assert (0, 2) in pairs or (1, 2) in pairs  # near dup
    kept = set(deduped.to_pandas()["doc_id"])
    assert 0 in kept and 1 not in kept and 2 not in kept
    assert 3 in kept and 5 in kept


def test_grouped_entropy_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(
        f"{SF_DIR}/events.parquet", columns=["user_id", "event_type"]
    )
    got = (
        relational.grouped_entropy(events, ["user_id"], "event_type")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF_DIR}/events.parquet')"
    )
    exp = con.execute("""
        SELECT user_id, floor(entropy(event_type) * 1e6 + 0.5) / 1e6 AS entropy
        FROM events GROUP BY user_id ORDER BY user_id
    """).df()
    assert len(got) > 0 and got.equals(exp)


def test_global_rank_matches_duckdb(ray_session):
    """Sampled-range-partition ROW_NUMBER equals DuckDB's, both directions,
    including with so few partitions that boundaries dedup away."""
    import duckdb

    orders = ray.data.read_parquet(
        f"{SF_DIR}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS SELECT * FROM read_parquet('{SF_DIR}/orders.parquet')"
    )
    for desc, parts in ((False, 8), (True, 8), (False, 1)):
        got = (
            relational.global_rank(
                orders, ["o_totalprice", "o_orderkey"],
                descending=desc, num_partitions=parts,
            )
            .to_pandas()[["o_orderkey", "global_rank"]]
            .sort_values("o_orderkey")
            .reset_index(drop=True)
        )
        direction = "DESC" if desc else "ASC"
        exp = con.execute(f"""
            SELECT o_orderkey, ROW_NUMBER() OVER (
                ORDER BY o_totalprice {direction}, o_orderkey {direction}
            ) AS global_rank
            FROM orders ORDER BY o_orderkey
        """).df()
        assert got.equals(exp), (desc, parts)


def test_jaccard_pairs_matches_duckdb(ray_session):
    """Exact token-set Jaccard pairs are value-identical to the DuckDB
    unnest-self-join formulation over the same parquet."""
    import duckdb

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    got = (
        dedup.jaccard_pairs(docs, threshold=0.9)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF_DIR}/documents.parquet')"
    )
    exp = con.execute("""
        WITH tok AS (SELECT DISTINCT doc_id, tok FROM (
            SELECT doc_id, unnest(string_split(
                regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'), ' ')) AS tok
            FROM documents) WHERE tok <> ''),
        sz AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
                  FROM tok a JOIN tok b ON a.tok = b.tok AND a.doc_id < b.doc_id
                  GROUP BY 1, 2)
        SELECT doc_a, doc_b,
               floor(CAST(i AS DOUBLE) / (sa.n + sb.n - i) * 1e6 + 0.5) / 1e6 AS jaccard
        FROM inter JOIN sz sa ON sa.doc_id = inter.doc_a
                   JOIN sz sb ON sb.doc_id = inter.doc_b
        WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.9
        ORDER BY doc_a, doc_b
    """).df()
    assert len(got) == len(exp) and len(got) > 0
    assert got.equals(exp)


def test_jaccard_pairs_doc_freq_cap(dup_docs):
    """max_doc_freq drops only pairs whose sole evidence is ubiquitous
    tokens — surviving pairs keep EXACT (undercounted never overcounted)
    jaccard; cap=1 kills every pair (every shared token is shared)."""
    full = dedup.jaccard_pairs(dup_docs, threshold=0.1).to_pandas()
    capped = dedup.jaccard_pairs(dup_docs, threshold=0.1, max_doc_freq=1).to_pandas()
    assert len(full) > 0 and capped.empty


def test_minhash_dedup_distributed_path_matches_broadcast(dup_docs):
    """broadcast_pair_limit=0 forces the all-Dataset plan (hash-join verify +
    connected components + anti-join); must agree with the broadcast plan."""
    deduped_b, confirmed_b = dedup.minhash_dedup(dup_docs, threshold=0.7)
    deduped_d, confirmed_d = dedup.minhash_dedup(
        dup_docs, threshold=0.7, broadcast_pair_limit=0
    )
    pairs_b = {(r["doc_a"], r["doc_b"]) for r in confirmed_b.to_pandas().to_dict("records")}
    pairs_d = {(r["doc_a"], r["doc_b"]) for r in confirmed_d.to_pandas().to_dict("records")}
    assert pairs_b == pairs_d
    assert set(deduped_b.to_pandas()["doc_id"]) == set(deduped_d.to_pandas()["doc_id"])


def test_simhash_near_dups(dup_docs):
    pairs = dedup.simhash_near_dups(dup_docs, max_hamming=6).to_pandas()
    assert any({a, b} == {0, 1} for a, b in zip(pairs["doc_a"], pairs["doc_b"]))


def test_hamming_near_dups_pigeonhole_at_radius_4(ray_session):
    """Two signatures differing in EXACTLY 4 bits, one per 16-bit chunk —
    the adversarial case for 4-chunk bucketing: no chunk is identical, so a
    fixed 4-chunk scheme would silently miss the pair.  The chunk count must
    scale with the radius (5 chunks at hamming 4) to keep the pigeonhole
    guarantee."""
    a = 0x0123_4567_89AB_CDEF
    b = a ^ ((1 << 0) | (1 << 16) | (1 << 32) | (1 << 48))  # 1 bit per 16-bit chunk
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "simhash": np.array([a, b], dtype="uint64")}
    ))
    pairs = dedup.hamming_near_dups(
        ds, id_column="doc_id", sig_column="simhash", max_hamming=4
    ).to_pandas()
    assert len(pairs) == 1 and int(pairs.iloc[0]["hamming"]) == 4


def test_embedding_near_dups(ray_session):
    rng = np.random.RandomState(3)
    base = rng.randn(20, 16).astype(np.float32)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(20)]
    rows.append({"vec_id": 99, "embedding": (base[0] + 1e-3).tolist()})  # planted near-dup
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    pairs = dedup.embedding_near_dups(ds, threshold=0.999).to_pandas()
    assert any({a, b} == {0, 99} for a, b in zip(pairs["vec_a"], pairs["vec_b"]))


def test_brute_force_topk_matches_duckdb(ray_session):
    import duckdb

    ds = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    first = ds.take(1)[0]["embedding"]
    queries = np.array([first])
    got = similarity.brute_force_topk(ds, queries, k=5)
    con = duckdb.connect()
    expected = con.execute(
        f"""
        select vec_id from read_parquet('{SF_DIR}/embeddings.parquet')
        order by list_cosine_similarity(embedding, ?::FLOAT[]) desc, vec_id
        limit 5
        """,
        [list(map(float, first))],
    ).fetchall()
    assert set(got["vec_id"]) == {r[0] for r in expected}
    assert got.iloc[0]["vec_id"] == expected[0][0]


def test_knn_graph_matches_numpy(ray_session):
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(40, 8)).astype(np.float32)
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": np.arange(40), "embedding": list(mat)})
    )
    # chunk_rows=16 forces the multi-chunk running-top-k merge path
    got = (
        similarity.knn_graph(ds, k=3, chunk_rows=16)
        .to_pandas()
        .sort_values(["vec_id", "rank"])
        .reset_index(drop=True)
    )
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = norm @ norm.T
    np.fill_diagonal(sims, -np.inf)
    for vid in range(40):
        order = np.lexsort((np.arange(40), -sims[vid]))[:3]
        sub = got[got["vec_id"] == vid]
        assert list(sub["neighbor_id"]) == list(order)
        assert list(sub["rank"]) == [1, 2, 3]


def test_ivf_recall_vs_bruteforce(ray_session):
    ds = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    rows = ds.take(3)
    queries = np.array([r["embedding"] for r in rows])
    exact = similarity.brute_force_topk(ds, queries, k=5)
    index = similarity.IvfIndex(n_cells=8).train(ds)
    assigned = index.assign(ds)
    approx = index.search(assigned, queries, k=5, n_probe=4)
    # recall@5 ≥ 0.6 with half the cells probed
    recall = 0
    for qi in range(3):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        recall += len(e & a) / 5
    assert recall / 3 >= 0.6


def test_ivf_sharded_store_matches_in_memory(ray_session, tmp_path):
    """write_index → load → search_index (partition-pruned read of only the
    probed cell shards) must return exactly the in-memory search results."""
    ds = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    rows = ds.take(2)
    queries = np.array([r["embedding"] for r in rows])
    index = similarity.IvfIndex(n_cells=8).train(ds, refine_iters=2)
    in_mem = index.search(index.assign(ds), queries, k=5, n_probe=3)

    store = index.write_index(ds, str(tmp_path / "ivf"))
    loaded = similarity.IvfIndex.load(store)
    np.testing.assert_allclose(loaded.centroids, index.centroids, rtol=1e-6)
    from_store = loaded.search_index(store, queries, k=5, n_probe=3)
    key = ["query_id", "vec_id"]
    pd.testing.assert_frame_equal(
        in_mem.sort_values(key).reset_index(drop=True)[key],
        from_store.sort_values(key).reset_index(drop=True)[key],
    )
    # pruning is real: only the probed cell dirs exist to be read
    probed = index._probe_cells(queries, 3)
    assert len(probed) < 8


def test_text_ops(ray_session):
    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet")
    stats = text.token_stats(docs).to_pandas()
    assert (stats["n_tokens_ws"] > 0).all()
    assert (stats["n_tokens_bpe"] >= stats["n_tokens_ws"]).all()
    quality = text.quality_score(docs).to_pandas()
    assert quality["quality_score"].between(0, 1).all()
    lang = text.lang_id(docs).to_pandas()
    assert set(lang["lang_pred"]) <= {"en", "de", "fr", "es", "und"}
    fp = text.fingerprint(docs).to_pandas()
    # deterministic: same text → same fingerprint; distinct texts mostly distinct
    assert fp["fingerprint"].nunique() > 0.9 * len(fp)


def test_partial_groupby_agg_matches_duckdb(ray_session):
    import duckdb

    ds = ray.data.read_parquet(f"{SF_DIR}/lineitem.parquet")
    got = (
        relational.partial_groupby_agg(
            ds,
            ["l_returnflag", "l_linestatus"],
            {
                "sum_qty": ("l_quantity", "sum"),
                "avg_price": ("l_extendedprice", "mean"),
                "n_rows": ("l_orderkey", "count"),
            },
        )
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )
    expected = (
        duckdb.connect()
        .execute(
            f"""
            select l_returnflag, l_linestatus, sum(l_quantity) sum_qty,
                   avg(l_extendedprice) avg_price, count(*) n_rows
            from read_parquet('{SF_DIR}/lineitem.parquet')
            group by 1, 2 order by 1, 2
            """
        )
        .df()
    )
    assert len(got) == len(expected)
    assert np.allclose(got["sum_qty"], expected["sum_qty"])
    assert np.allclose(got["avg_price"], expected["avg_price"])
    assert (got["n_rows"].to_numpy() == expected["n_rows"].to_numpy()).all()


def test_broadcast_join(ray_session):
    orders = ray.data.read_parquet(f"{SF_DIR}/orders.parquet")
    customers = pd.read_parquet(f"{SF_DIR}/customer.parquet")
    joined = relational.broadcast_join(orders, customers, on="o_custkey") \
        if "o_custkey" in customers.columns else None
    # customer key column differs; rename for the join
    small = customers.rename(columns={"c_custkey": "o_custkey"})
    joined = relational.broadcast_join(orders, small, on="o_custkey")
    result = joined.to_pandas()
    assert "c_mktsegment" in result.columns
    assert len(result) == orders.count()


def test_multimodal_plumbing(ray_session):
    table = multimodal.synthetic_media_table(30)
    ds = ray.data.from_arrow(table)
    decoded = multimodal.decode_media(ds).to_pandas()
    assert len(decoded) == 30 and "payload" not in decoded.columns
    assert decoded["features"].map(len).eq(6).all()
    # deterministic: re-run gives identical features
    again = multimodal.decode_media(ray.data.from_arrow(table)).to_pandas()
    assert (decoded.sort_values("media_id")["payload_crc"].to_numpy()
            == again.sort_values("media_id")["payload_crc"].to_numpy()).all()
    frames = multimodal.sample_frames(ray.data.from_arrow(table)).to_pandas()
    videos = frames[frames["kind"] == "video"]
    assert (videos["frame_idx"] >= 0).all() and len(videos) >= 10
    with pytest.raises(NotImplementedError):
        multimodal.MediaDecoder(decoder="pil")


def test_topk_per_group_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(f"{SF_DIR}/events.parquet")
    got = (
        relational.topk_per_group(events, ["event_type"], ["value", "event_id"], k=3)
        .to_pandas()
        .sort_values(["event_type", "value", "event_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select * from read_parquet('{SF_DIR}/events.parquet')
        qualify row_number() over (partition by event_type order by value desc, event_id) <= 3
        order by event_type, value desc, event_id
        """
    ).df()
    assert (got["event_id"].to_numpy() == expected["event_id"].to_numpy()).all()


def test_distinct_count_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(f"{SF_DIR}/events.parquet")
    got = (
        relational.distinct_count(events, ["event_type"], "user_id", out_name="n_users")
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select event_type, count(distinct user_id) n_users
        from read_parquet('{SF_DIR}/events.parquet') group by 1 order by 1
        """
    ).df()
    assert (got["n_users"].to_numpy() == expected["n_users"].to_numpy()).all()


def test_broadcast_semi_anti_join(ray_session):
    customers = ray.data.read_parquet(f"{SF_DIR}/customer.parquet")
    keys = [1, 2, 3]
    semi = relational.broadcast_semi_join(customers, keys, on="c_custkey").to_pandas()
    anti = relational.broadcast_semi_join(customers, keys, on="c_custkey", anti=True).to_pandas()
    assert set(semi["c_custkey"]) <= set(keys)
    assert len(semi) + len(anti) == customers.count()
    assert not (set(anti["c_custkey"]) & set(keys))


def test_broadcast_asof_join_matches_merge_asof(ray_session):
    events_df = pd.read_parquet(f"{SF_DIR}/events.parquet")
    left_df = events_df[events_df["event_type"] == "purchase"][["event_id", "ts", "user_id"]]
    right_df = events_df[events_df["event_type"] == "click"][["event_id", "ts", "user_id"]] \
        .rename(columns={"event_id": "click_id"})
    left = ray.data.from_pandas(left_df.reset_index(drop=True))
    got = (
        relational.broadcast_asof_join(left, right_df, on="ts", by="user_id")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    expected = pd.merge_asof(
        left_df.sort_values("ts"),
        right_df.sort_values("ts"),
        on="ts", by="user_id", direction="backward",
    ).sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["event_id", "click_id"]], expected[["event_id", "click_id"]])


def test_sessionize(ray_session):
    # user 1: two sessions (gap 3600 > 1800); user 2: one session
    base = pd.Timestamp("2024-01-01")
    rows = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2, 2],
            "ts": [
                base,
                base + pd.Timedelta(seconds=60),
                base + pd.Timedelta(seconds=60 + 3600),
                base,
                base + pd.Timedelta(seconds=100),
            ],
        }
    )
    got = (
        relational.sessionize(ray.data.from_pandas(rows), gap=1800.0)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert got["n_sessions"].tolist() == [2, 1]
    assert got["n_events"].tolist() == [3, 2]
    assert got["longest_session_events"].tolist() == [2, 2]


def test_hash_join_matches_duckdb(ray_session):
    import duckdb

    lineitem = ray.data.read_parquet(f"{SF_DIR}/lineitem.parquet",
                                     columns=["l_orderkey", "l_extendedprice"])
    orders = ray.data.read_parquet(f"{SF_DIR}/orders.parquet",
                                   columns=["o_orderkey", "o_orderpriority"])
    joined = relational.hash_join(
        lineitem, orders, on=("l_orderkey",), right_on=("o_orderkey",), num_partitions=8
    ).to_pandas()
    expected = duckdb.connect().execute(
        f"""
        select count(*) n, round(sum(l_extendedprice), 2) s
        from read_parquet('{SF_DIR}/lineitem.parquet') l
        join read_parquet('{SF_DIR}/orders.parquet') o on l_orderkey = o_orderkey
        """
    ).df()
    assert len(joined) == int(expected["n"][0])
    assert round(joined["l_extendedprice"].sum(), 2) == float(expected["s"][0])


def test_running_window_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(
        f"{SF_DIR}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    got = (
        relational.running_window(
            events,
            partition_by="user_id",
            order_by=["ts", "event_id"],
            value_column="value",
            out_name="running_value",
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select event_id,
               sum(value) over (partition by user_id order by ts, event_id) rv
        from read_parquet('{SF_DIR}/events.parquet')
        order by event_id
        """
    ).df()
    assert np.allclose(got["running_value"].to_numpy(), expected["rv"].to_numpy())


def test_broadcast_range_join(ray_session):
    part = ray.data.read_parquet(f"{SF_DIR}/part.parquet", columns=["p_partkey", "p_size"])
    bands = pd.DataFrame(
        {"band": ["a", "b"], "lo": [1, 26], "hi": [25, 50]}
    )
    got = relational.broadcast_range_join(part, bands, value_column="p_size").to_pandas()
    src = pd.read_parquet(f"{SF_DIR}/part.parquet", columns=["p_partkey", "p_size"])
    assert len(got) == len(src)  # every size 1..50 falls in a band
    assert (got.loc[got["p_size"] <= 25, "band"] == "a").all()
    assert (got.loc[got["p_size"] > 25, "band"] == "b").all()
    # gap: rows outside every interval are dropped
    gappy = pd.DataFrame({"band": ["lo"], "lo": [1], "hi": [10]})
    got2 = relational.broadcast_range_join(part, gappy, value_column="p_size").to_pandas()
    assert (got2["p_size"] <= 10).all() and len(got2) == (src["p_size"] <= 10).sum()
    with pytest.raises(ValueError):
        overlapping = pd.DataFrame({"band": ["x", "y"], "lo": [1, 5], "hi": [10, 20]})
        relational.broadcast_range_join(part, overlapping, value_column="p_size")


def test_grouped_quantile_matches_duckdb(ray_session):
    import duckdb

    orders = ray.data.read_parquet(
        f"{SF_DIR}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    got = (
        relational.grouped_quantile(
            orders, ["o_orderpriority"], "o_totalprice", q=0.5, out_name="m"
        )
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select o_orderpriority, median(o_totalprice) m
        from read_parquet('{SF_DIR}/orders.parquet')
        group by 1 order by 1
        """
    ).df()
    assert got["o_orderpriority"].tolist() == expected["o_orderpriority"].tolist()
    assert np.allclose(got["m"].to_numpy(), expected["m"].to_numpy())


def test_pivot_counts_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(f"{SF_DIR}/events.parquet", columns=["user_id", "event_type"])
    got = (
        relational.pivot_counts(
            events, ["user_id"], "event_type", ["click", "purchase"]
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select user_id,
               count(*) filter (event_type = 'click') n_click,
               count(*) filter (event_type = 'purchase') n_purchase
        from read_parquet('{SF_DIR}/events.parquet')
        group by 1 order by 1
        """
    ).df()
    assert got["n_click"].tolist() == expected["n_click"].tolist()
    assert got["n_purchase"].tolist() == expected["n_purchase"].tolist()


def test_hash_split_deterministic_and_proportional(ray_session):
    docs = ray.data.range(10000).map_batches(
        lambda b: pd.DataFrame({"doc_id": b["id"]}), batch_format="pandas"
    )
    got = relational.hash_split(docs, "doc_id").to_pandas()
    frac = got["split"].value_counts(normalize=True)
    assert 0.85 < frac["train"] < 0.95
    assert 0.02 < frac["val"] < 0.08
    assert 0.02 < frac["test"] < 0.08
    # deterministic across runs
    again = relational.hash_split(docs, "doc_id").to_pandas()
    merged = got.merge(again, on="doc_id", suffixes=("_a", "_b"))
    assert (merged["split_a"] == merged["split_b"]).all()
    with pytest.raises(ValueError):
        relational.hash_split(docs, "doc_id", weights={"train": 50})


def test_approx_quantile_close_to_exact(ray_session):
    orders = ray.data.read_parquet(
        f"{SF_DIR}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    # compare against the DISCRETE quantile: the histogram locates the bin of
    # the rank-th data value, while linear interpolation can land thousands
    # away from any data value at this sparsity (300 points over a 600k range)
    exact = (
        relational.grouped_quantile(
            orders, ["o_orderpriority"], "o_totalprice", q=0.5, out_name="m",
            interpolation="discrete",
        )
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    approx = (
        relational.approx_quantile(
            orders, ["o_orderpriority"], "o_totalprice", q=0.5,
            lo=0.0, hi=600_000.0, n_bins=4096, out_name="m",
        )
        .to_pandas()
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )
    assert approx["o_orderpriority"].tolist() == exact["o_orderpriority"].tolist()
    # error bounded by bin width = 600000/4096 ≈ 146
    assert (abs(approx["m"] - exact["m"]) <= 600_000 / 4096).all()


def test_rollup_agg_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(f"{SF_DIR}/events.parquet", columns=["user_id", "event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        batch["user_bucket"] = (batch["user_id"] % 3).astype(str)
        return batch[["user_bucket", "event_type", "value"]]

    got = (
        relational.rollup_agg(
            events,
            ["user_bucket", "event_type"],
            {"n": ("value", "count"), "tv": ("value", "sum")},
            pre_map=prep,
        )
        .to_pandas()
        .sort_values(["user_bucket", "event_type"])
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select coalesce(user_bucket, 'ALL') user_bucket,
               coalesce(event_type, 'ALL') event_type,
               count(*) n, sum(value) tv
        from (select (user_id % 3)::VARCHAR user_bucket, event_type, value
              from read_parquet('{SF_DIR}/events.parquet'))
        group by rollup(user_bucket, event_type)
        order by 1, 2
        """
    ).df()
    assert got["user_bucket"].tolist() == expected["user_bucket"].tolist()
    assert got["event_type"].tolist() == expected["event_type"].tolist()
    assert got["n"].tolist() == expected["n"].tolist()
    assert np.allclose(got["tv"], expected["tv"])
    with pytest.raises(ValueError):
        relational.rollup_agg(events, ["event_type"], {"m": ("value", "mean")})


def test_top_terms_matches_duckdb(ray_session):
    import duckdb

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])
    got = text.top_terms(docs, k=20).to_pandas()
    expected = duckdb.connect().execute(
        rf"""
        select term, count(*) n
        from (select unnest(string_split_regex(lower(text), '\s+')) term
              from read_parquet('{SF_DIR}/documents.parquet'))
        where term <> ''
        group by term order by n desc, term limit 20
        """
    ).df()
    assert got["term"].tolist() == expected["term"].tolist()
    assert got["n_occurrences"].tolist() == expected["n"].tolist()


def test_json_extract_and_string_agg_match_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(f"{SF_DIR}/events.parquet", columns=["event_type", "props"])
    flat = text.json_extract(events, "props", {"k": "int64"})
    got = (
        relational.partial_groupby_agg(
            flat, ["event_type"], {"n": ("k", "count"), "s": ("k", "sum")}
        )
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select event_type, count(*) n, sum(cast(props->>'k' as bigint)) s
        from read_parquet('{SF_DIR}/events.parquet') group by 1 order by 1
        """
    ).df()
    assert got["n"].tolist() == expected["n"].tolist()
    assert got["s"].astype("int64").tolist() == expected["s"].astype("int64").tolist()

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["lang", "doc_id"])
    agg = (
        relational.grouped_string_agg(docs, ["lang"], "doc_id", out_name="ids")
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    exp = duckdb.connect().execute(
        f"""
        select lang, string_agg(doc_id::VARCHAR, ',' order by doc_id::VARCHAR) ids
        from read_parquet('{SF_DIR}/documents.parquet') group by 1 order by 1
        """
    ).df()
    assert agg["ids"].tolist() == exp["ids"].tolist()


def test_window_rank_ntile_matches_duckdb(ray_session):
    import duckdb

    orders = ray.data.read_parquet(
        f"{SF_DIR}/orders.parquet", columns=["o_orderkey", "o_orderpriority", "o_totalprice"]
    )
    got = (
        relational.window_rank(
            orders,
            partition_by="o_orderpriority",
            order_by=["o_totalprice", "o_orderkey"],
            ntile=4,
        )
        .to_pandas()
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )
    expected = duckdb.connect().execute(
        f"""
        select o_orderkey,
               row_number() over w rn,
               ntile(4) over w nt
        from read_parquet('{SF_DIR}/orders.parquet')
        window w as (partition by o_orderpriority order by o_totalprice, o_orderkey)
        order by o_orderkey
        """
    ).df()
    assert got["row_number"].tolist() == expected["rn"].tolist()
    assert got["ntile"].tolist() == expected["nt"].tolist()


def test_partitioned_semi_and_anti_join(ray_session):
    import duckdb

    orders = ray.data.read_parquet(f"{SF_DIR}/orders.parquet",
                                   columns=["o_custkey", "o_orderpriority"])
    urgent = orders.filter(expr="o_orderpriority == '1-URGENT'")
    customers = ray.data.read_parquet(f"{SF_DIR}/customer.parquet", columns=["c_custkey"])
    anti = relational.partitioned_semi_join(
        customers, urgent, on="c_custkey", key_column="o_custkey",
        anti=True, num_partitions=8,
    ).to_pandas()
    semi = relational.partitioned_semi_join(
        customers, urgent, on="c_custkey", key_column="o_custkey",
        anti=False, num_partitions=8,
    ).to_pandas()
    con = duckdb.connect()
    expected_anti = con.execute(
        f"""
        select c_custkey from read_parquet('{SF_DIR}/customer.parquet')
        where not exists (select 1 from read_parquet('{SF_DIR}/orders.parquet')
                          where o_custkey = c_custkey and o_orderpriority = '1-URGENT')
        """
    ).df()
    assert sorted(anti["c_custkey"]) == sorted(expected_anti["c_custkey"])
    total = con.execute(
        f"select count(*) n from read_parquet('{SF_DIR}/customer.parquet')"
    ).df()["n"][0]
    assert len(anti) + len(semi) == int(total)


def test_partitioned_asof_join_matches_duckdb(ray_session):
    import duckdb

    events = ray.data.read_parquet(
        f"{SF_DIR}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    purchases = events.filter(expr="event_type == 'purchase'").select_columns(
        ["event_id", "ts", "user_id"]
    )
    clicks = (
        events.filter(expr="event_type == 'click'")
        .select_columns(["event_id", "ts", "user_id"])
        .map_batches(lambda b: b.rename(columns={"event_id": "click_id"}),
                     batch_format="pandas")
    )
    got = relational.partitioned_asof_join(
        purchases, clicks, on="ts", by="user_id", num_partitions=8
    ).to_pandas()
    got["click_id"] = got["click_id"].astype("Int64").fillna(-1).astype("int64")
    got = got.sort_values("event_id").reset_index(drop=True)
    expected = duckdb.connect().execute(
        f"""
        select l.event_id, coalesce(r.event_id, -1) click_id
        from (select * from read_parquet('{SF_DIR}/events.parquet')
              where event_type = 'purchase') l
        asof left join (select * from read_parquet('{SF_DIR}/events.parquet')
                        where event_type = 'click') r
          on l.user_id = r.user_id and l.ts >= r.ts
        order by l.event_id
        """
    ).df()
    assert got["event_id"].astype("int64").tolist() == expected["event_id"].tolist()
    assert got["click_id"].tolist() == expected["click_id"].tolist()


def test_partitioned_asof_join_keeps_null_by_left_rows(ray_session):
    """SQL ASOF LEFT JOIN: a null `by` key never matches but the LEFT row
    survives with null right columns (it used to be dropped entirely)."""
    left = ray.data.from_pandas(
        pd.DataFrame(
            {"ts": [1.0, 2.0, 3.0], "user_id": [1.0, None, 1.0], "x": [10, 20, 30]}
        )
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"ts": [0.5, 2.5], "user_id": [1.0, 1.0], "y": [7, 8]})
    )
    out = (
        relational.partitioned_asof_join(left, right, on="ts", by="user_id",
                                         num_partitions=4)
        .to_pandas()
        .sort_values("ts")
        .reset_index(drop=True)
    )
    assert len(out) == 3  # null-user row kept
    null_row = out[out["user_id"].isna()].iloc[0]
    assert null_row["x"] == 20 and pd.isna(null_row["y"])
    assert out[out["x"] == 30]["y"].iloc[0] == 8


def test_json_extract_preserves_big_int64(ray_session):
    """64-bit ids above 2^53 must survive exactly (no Float64 round-trip)."""
    from esmarc_ray.ops import text as text_ops

    big = 9007199254740993  # 2^53 + 1 — rounds to ...992 through a double
    rows = pd.DataFrame(
        {"id": [1, 2], "props": [f'{{"k": {big}}}', f'{{"k": "{big}"}}']}
    )
    out = (
        text_ops.json_extract(ray.data.from_pandas(rows), "props", {"k": "int64"})
        .to_pandas()
        .sort_values("id")
    )
    assert out["k"].tolist() == [big, big]


def test_semantic_dedup_string_ids(ray_session):
    """String id columns must work: the kept-row sentinel is a typed null,
    not int -1 (a mixed int/str object column breaks Arrow conversion)."""
    import numpy as np

    rng = np.random.RandomState(3)
    base = rng.randn(10, 8).astype("float32")
    vecs = list(base) + [base[0] + 1e-4]  # one planted twin
    df = pd.DataFrame(
        {"vec_id": [f"v{i:02d}" for i in range(11)], "embedding": [v.tolist() for v in vecs]}
    )
    kept, dups = dedup.semantic_dedup(
        ray.data.from_pandas(df), n_clusters=2, threshold=0.99,
        id_column="vec_id", vector_column="embedding",
    )
    dup_df = dups.to_pandas()
    assert len(dup_df) == 1 and dup_df["dup_of"].iloc[0] == "v00"
    assert "v00" in set(kept.to_pandas()["vec_id"])


def test_minhash_hot_bucket_bounded(ray_session):
    """A degenerate LSH bucket (10k identical docs share every band bucket)
    must emit O(n) star pairs, not O(n²) all-pairs: candidate count == n-1
    (hub → every other member), all rooted at the smallest doc_id, and the
    planted distinct doc still pairs with nothing."""
    n = 10_000
    rows = pd.DataFrame(
        {
            "doc_id": list(range(n)) + [n],
            "text": ["the exact same boilerplate sentence " * 4] * n
            + ["something entirely different about graph shuffles"],
        }
    )
    docs = ray.data.from_pandas(rows)
    pairs = dedup.minhash_candidates(docs, max_bucket_size=100).to_pandas()
    # star: exactly n-1 pairs, every one (0, x)
    assert len(pairs) == n - 1
    assert (pairs["doc_a"] == 0).all()
    assert set(pairs["doc_b"]) == set(range(1, n))


def test_minhash_hot_bucket_cap_off_matches_small_case(dup_docs):
    """Below the cap the pair set is unchanged — the planted-dup fixture
    yields identical candidates with and without a (non-binding) cap."""
    base = dedup.minhash_candidates(dup_docs).to_pandas()
    capped = dedup.minhash_candidates(dup_docs, max_bucket_size=3).to_pandas()
    key = lambda df: sorted(map(tuple, df[["doc_a", "doc_b"]].to_numpy()))
    assert key(base) != [] and key(base) == key(
        dedup.minhash_candidates(dup_docs, max_bucket_size=1000).to_pandas()
    )
    # with a binding tiny cap the pair count can only shrink or hold
    assert len(capped) <= len(base)


def test_embedding_near_dups_hot_bucket_bounded(ray_session):
    """5k identical embeddings: hub-star verification emits n-1 exact-cosine
    pairs from the smallest vec_id instead of an O(n²) similarity matrix."""
    import numpy as np

    n = 5_000
    vec = np.ones(8) / np.sqrt(8)
    df = pd.DataFrame({"vec_id": range(n), "embedding": [vec] * n})
    out = dedup.embedding_near_dups(
        ray.data.from_pandas(df), threshold=0.9, max_bucket_size=100
    ).to_pandas()
    assert len(out) == n - 1
    assert (out["vec_a"] == 0).all()
    assert np.allclose(out["cosine"], 1.0)


def test_minhash_candidates_tuple_concurrency(dup_docs):
    """The documented tuple form must still work now that the default
    signature stage is a plain task (tuples route through the actor class)."""
    pairs = dedup.minhash_candidates(dup_docs, concurrency=(1, 2)).to_pandas()
    assert {"doc_a", "doc_b"} <= set(pairs.columns)
    assert (0, 1) in set(zip(pairs["doc_a"], pairs["doc_b"]))


def test_partitioned_asof_join_rejects_colliding_columns(ray_session):
    left = ray.data.from_pandas(pd.DataFrame({"ts": [1.0], "user_id": [1], "x": [1]}))
    right = ray.data.from_pandas(pd.DataFrame({"ts": [1.0], "user_id": [1], "x": [2]}))
    with pytest.raises(ValueError, match="colliding"):
        relational.partitioned_asof_join(left, right, on="ts", by="user_id")


def test_running_window_count(ray_session):
    rows = pd.DataFrame({"k": [1, 1, 2, 1], "o": [3, 1, 5, 2], "v": [1.0] * 4})
    got = (
        relational.running_window(
            ray.data.from_pandas(rows), partition_by="k", order_by=["o"],
            value_column="v", fn="count", out_name="rn", num_partitions=4,
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    assert got["rn"].tolist() == [1, 2, 3, 1]


def test_partitioned_join_null_keys_never_match(ray_session):
    left = ray.data.from_pandas(
        pd.DataFrame({"k": ["a", None, "b"], "lv": [1, 2, 3]})
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"k": ["a", None], "rv": [10, 20]})
    )
    inner = relational.partitioned_join(
        left, right, "k", left_cols=["lv"], right_cols=["rv"], num_partitions=4
    ).to_pandas()
    assert inner["k"].tolist() == ["a"]
    leftj = relational.partitioned_join(
        left, right, "k", left_cols=["lv"], right_cols=["rv"],
        num_partitions=4, how="left",
    ).to_pandas().sort_values("lv")
    # null-key left row survives a LEFT join but matches nothing
    assert len(leftj) == 3
    assert leftj[leftj["k"].isna()]["rv"].isna().all()


def test_json_extract_robustness(ray_session):
    from esmarc_ray.ops import text as text_ops

    rows = pd.DataFrame(
        {
            "id": [1, 2, 3, 4, 5],
            "props": [
                '{"k": 3, "s": "x"}',
                "not json{",
                '{"k": 2.5}',
                '{"other": 1}',
                '{"k": "oops", "s": 7}',
            ],
        }
    )
    out = (
        text_ops.json_extract(
            ray.data.from_pandas(rows), "props", {"k": "int64", "s": "string"}
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    # malformed JSON, missing key, non-integral float, wrong types -> null
    assert out["k"].tolist()[0] == 3
    assert out["k"].isna().tolist() == [False, True, True, True, True]
    assert out["s"].isna().tolist() == [False, True, True, True, True]


def test_pil_decoder_feature_gate(ray_session):
    """decoder='pil' runs a real Pillow decode when the lib exists, and is a
    clean NotImplementedError stub otherwise — never a silent fake."""
    from esmarc_ray.ops import multimodal

    try:
        import PIL  # noqa: F401

        have_pil = True
    except ImportError:
        have_pil = False

    if not have_pil:
        with pytest.raises(NotImplementedError, match="Pillow"):
            multimodal.MediaDecoder(decoder="pil")
    else:  # pragma: no cover - exercised only when Pillow lands
        import io as _io

        from PIL import Image

        buf = _io.BytesIO()
        Image.new("RGB", (8, 8), (200, 10, 10)).save(buf, format="PNG")
        decoder = multimodal.MediaDecoder(decoder="pil", target_size=(4, 4))
        pixels = decoder._decode(buf.getvalue())
        assert pixels.shape == (4, 4, 3)
        assert pixels[..., 0].mean() > 150


def test_lance_format_smoke(ray_session, tmp_path):
    """Guard-skipped Lance round-trip: proves the format switch is a drop-in
    the day the lance package lands; parquet fallback covered elsewhere."""
    from esmarc_ray import io as eio

    if not eio.HAVE_LANCE:
        pytest.skip("lance not installed in this environment")
    ds = ray.data.range(10)  # pragma: no cover - runs only with lance
    eio.write_table(ds, str(tmp_path / "t.lance"), format="lance")
    back = eio.read_documents(str(tmp_path / "t.lance"), columns=["id"], format="lance")
    assert back.count() == 10


def test_repetition_stats(ray_session):
    from esmarc_ray.ops import text as text_ops

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "a b\na b\nc d",              # one dup line of 3
                "x y x y x y x y",            # dominant bigram
                "unique one\n\nunique two",    # clean
            ],
        }
    )
    out = (
        text_ops.repetition_stats(ray.data.from_pandas(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert abs(out["dup_line_frac"][0] - (1 - 2 / 3)) < 1e-9
    # "x y" appears 4 times of 7 bigrams
    assert abs(out["top_bigram_frac"][1] - 4 / 7) < 1e-9
    assert out["dup_line_frac"][2] == 0.0 and out["dup_para_frac"][2] == 0.0


def test_redact_pii_matches_duckdb(ray_session):
    import duckdb

    from esmarc_ray.ops import text as text_ops

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "mail me at jane.doe+x@example.co.uk or call +49 (351) 123-4567 now",
                "no pii here at all",
                "two mails a@b.de c@d.org and 0351 4677 123",
            ],
        }
    )
    got = (
        text_ops.redact_pii(ray.data.from_pandas(rows))
        .to_pandas()
        .sort_values("doc_id")["text_redacted"]
        .tolist()
    )
    expected = duckdb.connect().execute(
        r"""
        SELECT regexp_replace(
                   regexp_replace(
                       text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '<EMAIL>', 'g'),
                   '\+?[0-9][0-9 ()./-]{6,}[0-9]',
                   '<PHONE>', 'g') r
        FROM rows ORDER BY doc_id
        """
    ).df()["r"].tolist()
    assert got == expected
    assert "<EMAIL>" in got[0] and "<PHONE>" in got[0]
    assert got[1] == "no pii here at all"


def test_decontaminate_flags_planted_overlap(ray_session):
    from esmarc_ray.ops import text as text_ops

    bench = ["the quick brown fox jumps over the lazy dog tonight"]
    rows = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": [
                "prefix words the quick brown fox jumps over the lazy dog tonight suffix",
                "completely unrelated text with no benchmark overlap at all here friend",
            ],
        }
    )
    out = (
        text_ops.decontaminate(ray.data.from_pandas(rows), bench, ngram=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert bool(out["contaminated"][0]) and out["contam_hits"][0] >= 1
    assert not bool(out["contaminated"][1])


def test_pack_sequences_greedy_and_bounded(ray_session):
    from esmarc_ray.ops import text as text_ops

    rows = pd.DataFrame(
        {
            "doc_id": [f"d{i}" for i in range(8)],
            "n_tokens": [500, 600, 900, 50, 3000, 100, 100, 100],
        }
    )
    out = (
        text_ops.pack_sequences(
            ray.data.from_pandas(rows),
            budget_tokens=1000,
            token_column="n_tokens",
            num_partitions=1,  # single partition -> fully deterministic order
        )
        .to_pandas()
        .sort_values(["part", "seq_idx"])
        .reset_index(drop=True)
    )
    # every doc packed exactly once
    packed = [d for ids in out["doc_ids"] for d in ids]
    assert sorted(packed) == sorted(rows["doc_id"])
    assert out["total_tokens"].sum() == rows["n_tokens"].sum()
    # budget respected except for single oversize docs
    over = out[out["total_tokens"] > 1000]
    assert (over["n_docs"] == 1).all()
    # greedy in doc_id order: d0(500)+d1(600)>1000 -> d0 alone is wrong;
    # actual: [d0]=500+? d1 won't fit (1100) => seq0=[d0], seq1=[d1,...]
    assert out.iloc[0]["doc_ids"][0] == "d0"


def test_tfidf_topk_matches_sklearn_free_reference(ray_session):
    """Hand-checkable TF-IDF: score = tf * ln(N/df)."""
    import math

    from esmarc_ray.ops import text as text_ops

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "apple banana apple",
                "banana cherry",
                "cherry cherry date",
            ],
        }
    )
    out = (
        text_ops.tfidf_topk(ray.data.from_pandas(rows), k=2, n_docs=3)
        .to_pandas()
        .sort_values(["doc_id", "term"])
        .reset_index(drop=True)
    )
    # doc 1: apple tf=2 df=1 -> 2*ln(3); banana tf=1 df=2 -> ln(1.5)
    d1 = out[out["doc_id"] == 1].set_index("term")
    assert d1.loc["apple", "tf"] == 2 and d1.loc["apple", "df"] == 1
    assert abs(d1.loc["apple", "score"] - round(2 * math.log(3), 6)) < 1e-9
    assert abs(d1.loc["banana", "score"] - round(math.log(1.5), 6)) < 1e-9
    # k bounds output per doc
    assert (out.groupby("doc_id").size() <= 2).all()


def test_stratified_sample_deterministic_and_rate(ray_session):
    from esmarc_ray.ops.relational import stratified_sample

    rows = pd.DataFrame(
        {
            "id": np.arange(20000),
            "stratum": np.where(np.arange(20000) % 2 == 0, "a", "b"),
        }
    )
    ds = ray.data.from_pandas(rows)
    out = stratified_sample(
        ds, id_column="id", strata_column="stratum",
        fractions={"a": 0.5, "b": 0.05},
    ).to_pandas()
    again = stratified_sample(
        ray.data.from_pandas(rows), id_column="id", strata_column="stratum",
        fractions={"a": 0.5, "b": 0.05},
    ).to_pandas()
    # deterministic
    assert sorted(out["id"]) == sorted(again["id"])
    rates = out.groupby("stratum").size() / rows.groupby("stratum").size()
    assert abs(rates["a"] - 0.5) < 0.03 and abs(rates["b"] - 0.05) < 0.015
    # scalar fraction applies everywhere; default_fraction=0 drops unknowns
    flat = stratified_sample(
        ray.data.from_pandas(rows), id_column="id", strata_column="stratum",
        fractions=0.1,
    ).to_pandas()
    assert abs(len(flat) / len(rows) - 0.1) < 0.02


def test_dedup_keep_best_prefers_quality(dup_docs):
    """Cluster {0,1,2} must keep the highest-quality member, not the
    smallest id — and both plan paths must agree."""

    def with_quality(b):
        b = b.copy()
        b["q"] = b["doc_id"].map({0: 0.1, 1: 0.9, 2: 0.5, 3: 0.8, 4: 0.2, 5: 0.7})
        return b

    docs = dup_docs.map_batches(with_quality, batch_format="pandas")
    deduped, clusters = dedup.dedup_keep_best(docs, quality_column="q", threshold=0.7)
    kept = set(deduped.to_pandas()["doc_id"])
    assert 1 in kept and 0 not in kept and 2 not in kept  # best of cluster {0,1,2}
    assert 3 in kept and 5 in kept  # loners untouched
    members = set(clusters.to_pandas()["node"])
    assert {"0", "1", "2"} <= members
    # distributed-plan path (forced) agrees
    deduped_d, _ = dedup.dedup_keep_best(
        docs, quality_column="q", threshold=0.7, broadcast_pair_limit=0
    )
    assert set(deduped_d.to_pandas()["doc_id"]) == kept


def test_grouped_corr_matches_pandas(ray_session):
    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 500),
            "x": rng.normal(1e4, 50, 500),  # large mean: the naive E[xy]-E[x]E[y]
            "y": rng.normal(2e4, 80, 500),  # expansion cancels; Chan merge must not
        }
    )
    df["y"] += 0.3 * (df["x"] - 1e4)
    ds = ray.data.from_pandas(df).repartition(8)
    got = relational.grouped_corr(ds, ["g"], "x", "y", round_to=None).to_pandas()
    for g, sub in df.groupby("g"):
        want = sub["x"].corr(sub["y"])
        have = float(got.loc[got["g"] == g, "corr"].iloc[0])
        assert abs(have - want) < 1e-9, (g, have, want)


def test_arg_max_by_deterministic_ties(ray_session):
    df = pd.DataFrame(
        {
            "g": ["a", "a", "a", "b", "b"],
            "v": [5.0, 5.0, 1.0, 2.0, 9.0],
            "k": [30, 10, 20, 1, 2],
        }
    )
    ds = ray.data.from_pandas(df).repartition(3)
    got = (
        relational.arg_max_by(ds, ["g"], "v", ["k"])
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    # tie at v=5.0 in group a → smallest k wins
    assert got["k"].tolist() == [10, 2]
    assert got["v"].tolist() == [5.0, 9.0]


def test_set_ops_match_python_sets(ray_session):
    left = pd.DataFrame({"k": [1, 1, 2, 3, 4, 4]})
    right = pd.DataFrame({"k": [2, 4, 4, 5]})
    lds, rds = ray.data.from_pandas(left).repartition(3), ray.data.from_pandas(right).repartition(2)
    inter = set(relational.intersect_distinct(lds, rds, ["k"]).to_pandas()["k"])
    exc = set(relational.except_distinct(lds, rds, ["k"]).to_pandas()["k"])
    assert inter == {2, 4}
    assert exc == {1, 3}


def test_embedding_dim_stats_matches_numpy(ray_session):
    rng = np.random.RandomState(3)
    mat = rng.normal(0, 1, (200, 8)).astype(np.float32)
    df = pd.DataFrame({"embedding": [row for row in mat]})
    ds = ray.data.from_pandas(df).repartition(4)
    got = (
        similarity.embedding_dim_stats(ds, round_to=None)
        .to_pandas()
        .sort_values("dim")
        .reset_index(drop=True)
    )
    np.testing.assert_allclose(got["dim_mean"], mat.astype(np.float64).mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(got["dim_std"], mat.astype(np.float64).std(axis=0), atol=1e-9)


def test_hll_distinct_within_error_bound(ray_session):
    from esmarc_ray.ops import sketches

    rng = np.random.RandomState(11)
    n = 20000
    df = pd.DataFrame(
        {
            "g": rng.choice(["x", "y"], n),
            "v": rng.randint(0, 5000, n),  # ~5000 distinct per group
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = sketches.hll_distinct_count(ds, ["g"], "v").to_pandas()
    for g, sub in df.groupby("g"):
        exact = sub["v"].nunique()
        approx = int(got.loc[got["g"] == g, "approx_distinct"].iloc[0])
        assert abs(approx - exact) / exact < 0.05, (g, approx, exact)  # 3σ of 1.6%


def test_heavy_hitters_exact_topk_on_skew(ray_session):
    from esmarc_ray.ops import sketches

    rng = np.random.RandomState(5)
    # zipf-ish: hot terms dominate, long uniform tail
    hot = ["alpha"] * 400 + ["beta"] * 300 + ["gamma"] * 200
    tail = [f"t{i}" for i in rng.randint(0, 800, 2000)]
    words = hot + tail
    rng.shuffle(words)
    docs = pd.DataFrame({"text": [" ".join(words[i : i + 10]) for i in range(0, len(words), 10)]})
    ds = ray.data.from_pandas(docs).repartition(6)
    got = sketches.heavy_hitters(ds, "text", k=3, capacity=64)
    assert got["term"].tolist() == ["alpha", "beta", "gamma"]
    assert got["n"].tolist() == [400, 300, 200]


def test_semantic_dedup_drops_planted_near_dups(ray_session):
    rng = np.random.RandomState(23)
    base = rng.normal(0, 1, (40, 16)).astype(np.float32)
    rows = []
    for i, vec in enumerate(base):
        rows.append({"vec_id": 2 * i, "embedding": vec})
        near = vec + rng.normal(0, 0.01, 16).astype(np.float32)  # cosine ≈ 1
        rows.append({"vec_id": 2 * i + 1, "embedding": near})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(4)
    kept, dups = dedup.semantic_dedup(ds, threshold=0.98, n_clusters=8, sample_limit=100)
    kept_ids = set(kept.to_pandas()["vec_id"])
    dup_df = dups.to_pandas()
    # every planted twin pair loses exactly one member (unless the pair
    # straddles a k-means boundary — with 8 cells over 40 well-separated
    # points and near-identical twins, twins co-locate)
    assert len(kept_ids) == 40
    assert len(dup_df) == 40
    for _, row in dup_df.iterrows():
        assert row["cosine"] >= 0.98
        assert row["dup_of"] in kept_ids


def test_paragraph_dedup_keeps_first_occurrence(ray_session):
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "shared intro\n\nunique one",
                "shared intro\n\nunique two\n\nunique one",
                "shared intro",
            ],
        }
    )
    ds = ray.data.from_pandas(docs).repartition(3)
    got = (
        text.paragraph_dedup(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # doc 1 (lowest id) keeps both paras; doc 2 loses the shared intro AND
    # "unique one" (doc 1 owns it); doc 3 vanishes (nothing survives)
    assert got["doc_id"].tolist() == [1, 2]
    assert got["text"].tolist() == [
        "shared intro\n\nunique one",
        "unique two",
    ]


def test_moving_window_matches_duckdb(ray_session):
    import duckdb

    rng = np.random.RandomState(9)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], 300),
            "o": rng.permutation(300),
            "v": rng.normal(10, 3, 300).round(3),
        }
    )
    ds = ray.data.from_pandas(df).repartition(5)
    got = (
        relational.moving_window(ds, "k", ["o"], "v", preceding=3, fn="mean",
                                 out_name="mv", round_to=None)
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        """
        SELECT k, o, avg(v) OVER (
            PARTITION BY k ORDER BY o ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
        ) AS mv FROM df ORDER BY k, o
        """
    ).df()
    # pandas' rolling accumulator and DuckDB's window sum differ by ≤1 ulp —
    # exact-decimal equality is only guaranteed for arithmetic-free frames
    # (min/max), which is what the oracle-checked query uses
    np.testing.assert_allclose(got["mv"], want["mv"], atol=1e-9)
    got_max = (
        relational.moving_window(ds, "k", ["o"], "v", preceding=3, fn="max",
                                 out_name="mv", round_to=None)
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    want_max = duckdb.sql(
        """
        SELECT k, o, max(v) OVER (
            PARTITION BY k ORDER BY o ROWS BETWEEN 3 PRECEDING AND CURRENT ROW
        ) AS mv FROM df ORDER BY k, o
        """
    ).df()
    assert got_max["mv"].tolist() == want_max["mv"].tolist()


def test_grouped_mode_deterministic(ray_session):
    df = pd.DataFrame(
        {
            "g": ["a"] * 5 + ["b"] * 4,
            "v": ["x", "x", "y", "y", "z", "q", "p", "p", "q"],
        }
    )
    ds = ray.data.from_pandas(df).repartition(3)
    got = (
        relational.grouped_mode(ds, ["g"], "v")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    # group a: x and y tie at 2 → smallest value "x"; b: p and q tie → "p"
    assert got["mode"].tolist() == ["x", "p"]


def test_bloom_semi_join_equals_exact(ray_session):
    from esmarc_ray.ops import sketches

    rng = np.random.RandomState(13)
    big = pd.DataFrame({"k": rng.randint(0, 2000, 5000), "payload": np.arange(5000)})
    keys = pd.DataFrame({"kk": rng.choice(2000, 150, replace=False)})
    big_ds = ray.data.from_pandas(big).repartition(6)
    keys_ds = ray.data.from_pandas(keys).repartition(2)
    want_semi = set(big.loc[big["k"].isin(set(keys["kk"])), "payload"])
    got_semi = set(
        sketches.bloom_semi_join(big_ds, keys_ds, "k", key_column="kk")
        .to_pandas()["payload"]
    )
    assert got_semi == want_semi
    got_anti = set(
        sketches.bloom_semi_join(big_ds, keys_ds, "k", key_column="kk", anti=True)
        .to_pandas()["payload"]
    )
    assert got_anti == set(big["payload"]) - want_semi
    # the prefilter is effective: far fewer maybe-rows than big rows
    bits = sketches.bloom_build(keys_ds, "kk")
    pos = sketches._bloom_hashes(big["k"], 1 << 23, 4)
    hit = np.ones(len(big), dtype=bool)
    for row in pos:
        hit &= (bits[row >> 3] >> (row & 7).astype(np.uint8)) & 1 == 1
    assert hit.sum() < len(big) * 0.2  # ~7.5% true match rate + tiny FP rate


def test_write_jsonld_reference_layout(ray_session, tmp_path):
    """Per-entity-class .ldj streams in the reference consumer layout
    ({out}/{class}/{file}-records.ldj), every line one JSON doc, gzip
    variant readable; manifest rows account for every doc."""
    import gzip
    import json

    import pandas as pd
    import ray.data

    from esmarc_ray.io import write_jsonld

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "entity_class": ["persons", "works", "persons"],
                "doc_json": [
                    json.dumps({"@id": f"id{i}", "n": i}) for i in range(3)
                ],
            }
        )
    ).repartition(2)

    out = tmp_path / "ldj"
    manifest = write_jsonld(docs, str(out)).to_pandas()
    assert int(manifest["n_docs"].sum()) == 3
    seen = {}
    for cls_dir in sorted(out.iterdir()):
        for f in cls_dir.glob("*-records.ldj"):
            for line in f.read_text().splitlines():
                doc = json.loads(line)
                seen[doc["@id"]] = cls_dir.name
    assert seen == {"id0": "persons", "id1": "works", "id2": "persons"}

    gz = tmp_path / "ldj_gz"
    write_jsonld(docs, str(gz), compress=True).to_pandas()
    files = list(gz.glob("*/*.ldj.gz"))
    assert files
    with gzip.open(files[0], "rt") as f:
        json.loads(f.readline())


def test_export_training_shards_deterministic(ray_session, tmp_path):
    """Deterministic shuffle-to-shards: same (seed, ids) -> identical shard
    content and order across runs; different seed reshuffles."""
    import json

    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data

    from esmarc_ray.pipelines.export import assign_shards, export_training_shards

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(100), "text": [f"t{i}" for i in range(100)]})
    ).repartition(4)

    m1 = export_training_shards(docs, str(tmp_path / "a"), n_shards=4, seed=7)
    m2 = export_training_shards(docs, str(tmp_path / "b"), n_shards=4, seed=7)
    assert m1.equals(m2)
    assert int(m1["n_docs"].sum()) == 100
    for shard_dir in sorted((tmp_path / "a").iterdir()):
        t_a = pq.read_table(shard_dir / "part-0.parquet")
        t_b = pq.read_table(tmp_path / "b" / shard_dir.name / "part-0.parquet")
        assert t_a.equals(t_b)  # byte-stable incl. within-shard order
        manifest = json.loads((shard_dir / "_manifest.json").read_text())
        assert manifest["n_docs"] == t_a.num_rows

    a0 = assign_shards(docs, n_shards=4, seed=7).to_pandas()
    a1 = assign_shards(docs, n_shards=4, seed=8).to_pandas()
    assert not a0["shard"].equals(a1["shard"])  # seed actually reshuffles


def test_quota_per_group_matches_rownumber(ray_session):
    """quota_per_group == SQL ROW_NUMBER() OVER (PARTITION BY g ORDER BY
    md5(seed:id), id) <= k, including a group smaller than the quota."""
    import hashlib

    rows = [{"g": f"s{i % 3}", "id": i} for i in range(40)] + [{"g": "tiny", "id": 99}]
    df = pd.DataFrame(rows)
    got = (
        relational.quota_per_group(
            ray.data.from_pandas(df), ["g"], 4, id_column="id", num_partitions=4
        )
        .to_pandas()
        .sort_values(["g", "id"])
        .reset_index(drop=True)
    )
    df["__qk"] = [hashlib.md5(f"42:{v}".encode()).hexdigest() for v in df["id"]]
    want = (
        df.sort_values(["__qk", "id"]).groupby("g", sort=False).head(4)
        [["g", "id"]].sort_values(["g", "id"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["g", "id"]], want)
    assert (got.groupby("g").size() <= 4).all()
    assert (got["g"] == "tiny").sum() == 1  # under-quota group kept whole


def test_value_histogram_matches_numpy(ray_session):
    rng = np.random.default_rng(7)
    vals = np.concatenate([rng.uniform(-10, 110, 500), [0.0, 99.999, 100.0, -0.001]])
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals}))
    got = relational.value_histogram(ds, "v", lo=0.0, hi=100.0, width=10.0).to_pandas()
    in_range = vals[(vals >= 0.0) & (vals < 100.0)]
    want = pd.Series(np.floor(in_range / 10.0).astype("int64")).value_counts()
    assert dict(zip(got["bin"], got["n"])) == want.to_dict()
    assert got["bin"].between(0, 9).all()  # 100.0 / -0.001 excluded


def test_normalize_text(ray_session):
    df = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["  Hello\t\tWORLD \n", "a  b", "already clean"]}
    )
    got = (
        text.normalize_text(ray.data.from_pandas(df), "text")
        .to_pandas()
        .sort_values("doc_id")["norm_text"]
        .tolist()
    )
    assert got == ["hello world", "a b", "already clean"]


def test_partitioned_join_outer_null_semantics(ray_session):
    """FULL OUTER: unmatched rows of BOTH sides preserved; null keys never
    equi-match (SQL), even when both sides carry nulls."""
    left = pd.DataFrame({"k": ["a", "b", None], "lv": [1, 2, 3]})
    right = pd.DataFrame({"k": ["b", "c", None], "rv": [10, 20, 30]})
    got = relational.partitioned_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), "k",
        left_cols=["lv"], right_cols=["rv"], how="outer", num_partitions=4,
    ).to_pandas()
    assert len(got) == 5  # a, b(matched), c, null-left, null-right
    b = got[got["k"] == "b"]
    assert len(b) == 1 and b["lv"].iloc[0] == 2 and b["rv"].iloc[0] == 10
    a = got[got["k"] == "a"]
    assert a["rv"].isna().all()
    c = got[got["k"] == "c"]
    assert c["lv"].isna().all()
    nulls = got[got["k"].isna()]
    assert len(nulls) == 2  # kept, but never matched to each other
    assert not ((nulls["lv"].notna()) & (nulls["rv"].notna())).any()


def test_weighted_sample_matches_reference_topk(ray_session):
    """A-ES sample == numpy-computed top-k of the identical pow keys; rows
    with non-positive weight are never selected."""
    n = 500
    df = pd.DataFrame({"id": np.arange(n, dtype="int64")})
    df["w"] = (df["id"] % 7 + 1).astype("float64") * 10
    df.loc[df["id"] % 50 == 0, "w"] = 0.0  # never selectable
    got = (
        relational.weighted_sample(
            ray.data.from_pandas(df), 40, id_column="id", weight_column="w", seed=42
        )
        .to_pandas()["id"]
        .sort_values()
        .to_numpy()
    )
    h = (df["id"].to_numpy().astype(np.uint64) * np.uint64(2654435761) + np.uint64(42)) % np.uint64(2**32)
    u = h.astype("float64") / 4294967296.0
    w = df["w"].to_numpy()
    keys = np.where(w > 0, np.power(u, 1.0 / np.where(w > 0, w, 1.0)), -1.0)
    want = np.sort(df["id"].to_numpy()[np.argsort(-keys)[:40]])
    assert (got == want).all()
    assert not set(got) & set(df[df["w"] == 0]["id"])
    # heavier rows win more often: mean weight of sample >> population mean
    assert df.set_index("id").loc[got, "w"].mean() > df["w"].mean()


def test_grouping_sets_matches_manual(ray_session):
    df = pd.DataFrame(
        {"a": ["x", "x", "y", "y", "y"], "b": ["p", "q", "p", "p", "q"], "v": [1, 2, 3, 4, 5]}
    )
    got = relational.grouping_sets_agg(
        ray.data.from_pandas(df), [["a", "b"], ["b"], []], {"s": ("v", "sum")}
    ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    finest = df.groupby(["a", "b"], as_index=False)["v"].sum().rename(columns={"v": "s"})
    by_b = df.groupby("b", as_index=False)["v"].sum().rename(columns={"v": "s"})
    by_b.insert(0, "a", "ALL")
    total = pd.DataFrame({"a": ["ALL"], "b": ["ALL"], "s": [df["v"].sum()]})
    want = (
        pd.concat([finest, by_b, total], ignore_index=True)
        .sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"s": "int64"}), want.astype({"s": "int64"})
    )


def test_explode_unnest_with_position(ray_session):
    df = pd.DataFrame(
        {"id": [1, 2, 3, 4], "xs": [[10, 20], [30], [], None], "tag": ["a", "b", "c", "d"]}
    )
    got = (
        relational.explode(
            ray.data.from_pandas(df), "xs", out_column="x", with_position=True
        )
        .to_pandas()
        .sort_values(["id", "pos"])
        .reset_index(drop=True)
    )
    assert got["id"].tolist() == [1, 1, 2]  # empty + null lists emit nothing
    assert got["x"].tolist() == [10, 20, 30]
    assert got["pos"].tolist() == [0, 1, 0]
    assert got["tag"].tolist() == ["a", "a", "b"]  # scalars repeated


def test_kmeans_recovers_planted_clusters(ray_session):
    """Distributed Lloyd's: three well-separated Gaussian blobs in 8-D must
    be recovered with perfect purity, and inertia must beat the init."""
    rng = np.random.default_rng(11)
    centers = np.array([[10.0] * 8, [-10.0] * 8, [10.0, -10.0] * 4])
    rows = []
    for label, c in enumerate(centers):
        for i in range(60):
            rows.append({"vec_id": label * 60 + i, "truth": label,
                         "embedding": (c + rng.normal(0, 0.5, 8)).tolist()})
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    assigned, centroids, inertia = similarity.kmeans(ds, 3, n_iter=10, seed=7)
    got = assigned.to_pandas()
    # perfect purity: each truth label maps to exactly one cluster id
    purity = got.groupby("truth")["cluster"].nunique()
    assert (purity == 1).all()
    assert got.groupby("cluster")["truth"].nunique().eq(1).all()
    assert centroids.shape == (3, 8)
    # inertia ~ n * d * sigma^2 = 180*8*0.25 = 360; far below separation scale
    assert inertia < 1000


def test_export_shards_resume_skips_finished(ray_session, tmp_path):
    """resume=True redoes only shards without a manifest (torn/killed run),
    and the final manifest + bytes equal a from-scratch export."""
    import shutil as _shutil

    from esmarc_ray.pipelines.export import export_training_shards

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(200), "text": [f"t{i}" for i in range(200)]})
    )
    full = export_training_shards(docs, str(tmp_path / "full"), n_shards=4)
    # simulate a killed run: one shard torn (no manifest), one missing
    part = tmp_path / "part"
    _shutil.copytree(tmp_path / "full", part)
    (part / "shard=1" / "_manifest.json").unlink()
    _shutil.rmtree(part / "shard=3")
    before = (part / "shard=0" / "part-0.parquet").stat().st_mtime_ns
    resumed = export_training_shards(docs, str(part), n_shards=4, resume=True)
    pd.testing.assert_frame_equal(resumed, full)
    # finished shards untouched; torn/missing shards rewritten byte-equal
    assert (part / "shard=0" / "part-0.parquet").stat().st_mtime_ns == before
    for k in range(4):
        a = (part / f"shard={k}" / "part-0.parquet").read_bytes()
        b = (tmp_path / "full" / f"shard={k}" / "part-0.parquet").read_bytes()
        assert a == b


def test_melt_inverse_of_pivot_shape(ray_session):
    df = pd.DataFrame({"k": [1, 2], "a": [10, 20], "b": [0.5, 1.5]})
    got = (
        relational.melt(ray.data.from_pandas(df), ["k"], ["a", "b"])
        .to_pandas()
        .sort_values(["k", "variable"])
        .reset_index(drop=True)
    )
    assert len(got) == 4
    assert got["variable"].tolist() == ["a", "b", "a", "b"]
    assert got["value"].tolist() == [10.0, 0.5, 20.0, 1.5]


def test_window_dense_rank_ties_share(ray_session):
    df = pd.DataFrame(
        {"g": ["x"] * 5, "v": [10, 10, 20, 30, 30], "id": [1, 2, 3, 4, 5]}
    )
    got = (
        relational.window_rank(
            ray.data.from_pandas(df), partition_by="g", order_by=["v", "id"],
            dense_rank_name="dr", num_partitions=2,
        )
        .to_pandas()
        .sort_values("id")
    )
    assert got["dr"].tolist() == [1, 1, 2, 3, 3]  # ties share, no gaps
    assert got["row_number"].tolist() == [1, 2, 3, 4, 5]


def test_skew_join_equals_partitioned_join(ray_session):
    """Skew plan (hot keys broadcast, cold keys partitioned) returns the
    exact inner join on a head-heavy keyspace."""
    rng = np.random.default_rng(3)
    # head key "hot" holds half the left rows
    keys = ["hot"] * 500 + [f"k{i}" for i in rng.integers(0, 50, 500)]
    left = pd.DataFrame({"k": keys, "lv": range(len(keys))})
    right = pd.DataFrame(
        {"k": ["hot"] + [f"k{i}" for i in range(50)] + ["only_right"],
         "rv": range(52)}
    )
    got = (
        relational.skew_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right), "k",
            left_cols=["lv"], right_cols=["rv"],
            hot_k=8, hot_min_count=100, num_partitions=8,
        )
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on="k", how="inner")
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    # partitioned-join payload columns surface as object dtype (the tag
    # stage None-fills the other side's columns); values are what matters
    pd.testing.assert_frame_equal(
        got[["k", "lv", "rv"]].astype({"lv": "int64", "rv": "int64"}), want
    )
    assert (got["k"] == "hot").sum() == 500  # the hot path really ran


def test_chunk_documents_boundaries(ray_session):
    """Window/stride boundary cases: exact fit = one chunk, one extra token
    spills into a short tail chunk, overlap repeats the seam tokens."""
    toks = lambda n: " ".join(f"w{i}" for i in range(n))
    df = pd.DataFrame(
        {"doc_id": [1, 2, 3, 4], "text": [toks(4), toks(5), toks(9), "   "]}
    )
    got = (
        text.chunk_documents(
            ray.data.from_pandas(df), chunk_tokens=4, overlap=1
        )
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    by_doc = {k: g for k, g in got.groupby("doc_id")}
    assert len(by_doc[1]) == 1 and by_doc[1]["n_tokens"].tolist() == [4]
    # 5 tokens, stride 3: windows [0:4], [3:5]
    assert by_doc[2]["chunk_text"].tolist() == ["w0 w1 w2 w3", "w3 w4"]
    # 9 tokens: [0:4], [3:7], [6:9] — seam token repeats at each boundary
    assert by_doc[3]["n_tokens"].tolist() == [4, 4, 3]
    assert by_doc[3]["chunk_text"].iloc[1].startswith("w3")
    assert 4 not in by_doc  # whitespace-only doc emits nothing


def test_bigram_perplexity_separates_template_from_gibberish(ray_session):
    """Text drawn from the training distribution scores far lower perplexity
    than shuffled/gibberish tokens — the CCNet-style filter signal."""
    sent = "the quick brown fox jumps over the lazy dog"
    corpus = pd.DataFrame(
        {"doc_id": range(40), "text": [sent] * 40}
    )
    model = text.train_bigram_lm(
        ray.data.from_pandas(corpus), min_count=2
    )
    probe = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                sent,  # in-distribution
                "dog lazy the over jumps fox brown quick the",  # shuffled
                "zxq wvu tsr qpo nml",  # out-of-vocab gibberish
            ],
        }
    )
    got = (
        text.perplexity_score(ray.data.from_pandas(probe), model)
        .to_pandas()
        .set_index("doc_id")["ppl"]
    )
    assert got[0] < got[1] < got[2]
    assert got[0] < 5  # near-deterministic bigrams
    assert got[2] > 100  # pure floor mass


def test_profile_columns_cross_batch_minmax(ray_session):
    """Numeric min/max must merge numerically across batches (a stringified
    partial would make '100' < '99'); nulls and distincts counted exactly."""
    df = pd.DataFrame(
        {"a": [99, 100, 5, None, 5], "s": ["b", None, "a", "a", "c"]}
    )
    got = relational.profile_columns(
        ray.data.from_pandas(df).repartition(3), ["a", "s"]
    ).set_index("column")
    assert got.loc["a", "min"] == "5.0" and got.loc["a", "max"] == "100.0"
    assert got.loc["a", "n"] == 5 and got.loc["a", "n_null"] == 1
    assert got.loc["a", "n_distinct"] == 3
    assert got.loc["s", "min"] == "a" and got.loc["s", "max"] == "c"
    assert got.loc["s", "n_distinct"] == 3


def test_upsert_partitioned_incremental(ray_session, tmp_path):
    """Second upsert replaces same-key rows (last writer wins), adds new
    keys, and rewrites ONLY the buckets its keys hash into."""
    import os

    from esmarc_ray.io import read_partitioned_store, upsert_partitioned

    store = str(tmp_path / "store")
    b1 = pd.DataFrame({"k": [f"k{i}" for i in range(40)], "v": [1] * 40})
    upsert_partitioned(ray.data.from_pandas(b1), store, ["k"], num_buckets=8)
    mtimes = {
        d: os.stat(f"{store}/{d}/part-0.parquet").st_mtime_ns
        for d in os.listdir(store)
    }
    # overlap k0..k9 (updated), new keys n0..n4
    b2 = pd.DataFrame(
        {"k": [f"k{i}" for i in range(10)] + [f"n{i}" for i in range(5)],
         "v": [2] * 15}
    )
    manifest = upsert_partitioned(
        ray.data.from_pandas(b2), store, ["k"], num_buckets=8
    )
    got = read_partitioned_store(store).to_pandas().set_index("k")["v"]
    assert len(got) == 45
    assert (got[[f"k{i}" for i in range(10)]] == 2).all()  # replaced
    assert (got[[f"k{i}" for i in range(10, 40)]] == 1).all()  # kept
    assert (got[[f"n{i}" for i in range(5)]] == 2).all()  # inserted
    touched = {f"bucket={b}" for b in manifest["bucket"]}
    for d, old in mtimes.items():
        now = os.stat(f"{store}/{d}/part-0.parquet").st_mtime_ns
        if d in touched:
            assert now != old
        else:
            assert now == old  # untouched bytes


def test_range_window_ties_and_bounds(ray_session):
    """RANGE semantics: tied timestamps are mutual peers (both rows see
    both values); the span bound is CLOSED (a row exactly span old is in)."""
    ts0 = pd.Timestamp("2026-01-10")
    df = pd.DataFrame(
        {
            "u": ["a"] * 4,
            "ts": [ts0, ts0 + pd.Timedelta(days=7), ts0 + pd.Timedelta(days=7),
                   ts0 + pd.Timedelta(days=20)],
            "v": [1.0, 10.0, 100.0, 1000.0],
        }
    )
    got = (
        relational.range_window(
            ray.data.from_pandas(df), "u", "ts", "v",
            span=pd.Timedelta(days=7), fn="sum", out_name="s", num_partitions=2,
        )
        .to_pandas()
        .sort_values(["ts", "v"])["s"]
        .tolist()
    )
    # row0: just itself; rows 1+2: peers include each other AND row0 (exactly
    # 7 days old — closed bound); row3: alone again
    assert got == [1.0, 111.0, 111.0, 1000.0]


def test_blocked_fuzzy_join_blocks_and_verifies(ray_session):
    """Only same-block pairs are compared; char-set Jaccard matches the
    reference formula; sub-threshold pairs drop."""
    left = pd.DataFrame(
        {"blk": [1, 1, 2], "lname": ["abcd", "wxyz", "abcd"], "lid": [1, 2, 3]}
    )
    right = pd.DataFrame({"blk": [1, 1], "rname": ["abce", "zzzz"], "rid": [10, 20]})
    got = (
        relational.blocked_fuzzy_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            block_on="blk", left_text="lname", right_text="rname",
            threshold=0.5, left_cols=["lid"], right_cols=["rid"],
            num_partitions=4,
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    # abcd~abce: |{a,b,c}|/|{a,b,c,d,e}| = 0.6 ✓; wxyz~zzzz: 1/4 < 0.5 ✗;
    # lid=3 is in block 2 with no right rows — blocked out entirely
    assert got[["lid", "rid"]].values.tolist() == [[1, 10]]
    assert abs(got["similarity"].iloc[0] - 0.6) < 1e-9


def test_pmi_collocations_finds_planted_phrase(ray_session):
    """A rigid two-word phrase ("neural network" always adjacent) ranks top
    by PMI over words that co-occur only as often as chance."""
    rng = np.random.default_rng(5)
    filler = [f"w{i}" for i in range(20)]
    rows = []
    for i in range(200):
        words = list(rng.choice(filler, 8))
        words[3:3] = ["neural", "network"]  # always adjacent
        rows.append({"doc_id": i, "text": " ".join(words)})
    got = (
        text.pmi_collocations(
            ray.data.from_pandas(pd.DataFrame(rows)), min_count=10, k=5
        )
        .to_pandas()
        .reset_index(drop=True)
    )
    assert got.loc[0, ["w1", "w2"]].tolist() == ["neural", "network"]
    assert got.loc[0, "pmi"] > got.loc[1, "pmi"] + 1.0  # clear margin


def test_dedup_against_store_incremental(ray_session, tmp_path):
    """Store probe drops previously-seen texts, intra-increment dups keep
    the smallest id, and the append-only store update makes a SECOND
    increment see the first increment's survivors."""
    from esmarc_ray.ops.dedup import dedup_against_store

    store = str(tmp_path / "store")
    seed = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1, 2, 3], "text": ["alpha", "beta", "alpha"]})
    )
    kept0 = dedup_against_store(seed, store, num_buckets=4).to_pandas()
    assert sorted(kept0["doc_id"]) == [1, 2]  # intra-seed dup dropped

    inc1 = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [10, 11, 12, 13],
                "text": ["alpha", "gamma", "gamma", "delta"],
            }
        )
    )
    kept1 = dedup_against_store(inc1, store, num_buckets=4).to_pandas()
    # alpha known from the store; gamma deduped within the increment
    assert sorted(kept1["doc_id"]) == [11, 13]

    inc2 = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [20, 21], "text": ["gamma", "epsilon"]})
    )
    kept2 = dedup_against_store(inc2, store, num_buckets=4).to_pandas()
    # gamma entered the store via increment 1's append — dropped now
    assert sorted(kept2["doc_id"]) == [21]

    # update_store=False probes without mutating
    inc3 = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [30], "text": ["zeta"]})
    )
    dedup_against_store(inc3, store, num_buckets=4, update_store=False).count()
    again = dedup_against_store(inc3, store, num_buckets=4).to_pandas()
    assert sorted(again["doc_id"]) == [30]  # zeta was never persisted


def test_dsir_weights_separate_target_like_docs(ray_session):
    """DSIR importance weights rank target-distribution-like documents above
    off-distribution ones, and the vocabulary budget caps the model."""
    rng = np.random.default_rng(11)
    tgt_vocab = [f"t{i}" for i in range(30)]
    raw_vocab = [f"r{i}" for i in range(30)]
    rows = []
    for i in range(120):
        is_tgt = i % 3 == 0
        words = rng.choice(tgt_vocab if is_tgt else raw_vocab, 12)
        rows.append(
            {
                "doc_id": i,
                "text": " ".join(words),
                "lang": "en" if is_tgt else "xx",
            }
        )
    # held-out docs from each distribution, unlabeled (lang never matches)
    rows.append({"doc_id": 900, "text": " ".join(tgt_vocab[:12]), "lang": "??"})
    rows.append({"doc_id": 901, "text": " ".join(raw_vocab[:12]), "lang": "??"})
    docs = ray.data.from_pandas(pd.DataFrame(rows))
    got = (
        text.dsir_weights(docs, target_column="lang", target_value="en", vocab_size=40)
        .to_pandas()
        .set_index("doc_id")
    )
    assert len(got) == 122
    # target-like text scores strictly higher than raw-like text
    assert got.loc[900, "dsir_weight"] > got.loc[901, "dsir_weight"]
    labeled = got.drop([900, 901])
    tgt_mean = labeled.loc[[i for i in labeled.index if i % 3 == 0], "dsir_weight"].mean()
    raw_mean = labeled.loc[[i for i in labeled.index if i % 3 != 0], "dsir_weight"].mean()
    assert tgt_mean > 0 > raw_mean
    # vocab budget binds: 60 distinct terms, only 40 enter the model, so
    # every doc still gets a weight but hit counts stay <= token count
    assert (got["n_vocab_tokens"] <= 12).all()
    assert got["n_vocab_tokens"].sum() < 122 * 12


def test_expectations_counts_violations(ray_session):
    df = pd.DataFrame({"x": [1, -2, None, 4], "s": ["a", "b", "zz", "a"]})
    got = (
        relational.expectations(
            ray.data.from_pandas(df),
            {
                "x_positive": lambda b: b["x"] > 0,
                "s_in_domain": lambda b: b["s"].isin({"a", "b"}),
            },
        )
        .to_pandas()
        .set_index("check")
    )
    assert got.loc["x_positive", "n_rows"] == 4
    assert got.loc["x_positive", "n_violations"] == 2  # -2 and the null
    assert got.loc["s_in_domain", "n_violations"] == 1


def test_asof_forward_tolerance(ray_session):
    """direction='forward' picks the NEXT right event; tolerance bounds the
    staleness (a match 2h out becomes a non-match at 1h tolerance)."""
    t0 = pd.Timestamp("2026-03-01 12:00:00")
    left = pd.DataFrame(
        {"ts": [t0, t0 + pd.Timedelta(hours=3)], "user_id": [1, 1], "pid": [100, 101]}
    )
    right = pd.DataFrame(
        {
            "ts": [t0 - pd.Timedelta(minutes=5), t0 + pd.Timedelta(minutes=30),
                   t0 + pd.Timedelta(hours=5, minutes=30)],
            "user_id": [1, 1, 1],
            "cid": [7, 8, 9],
        }
    )
    got = (
        relational.partitioned_asof_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            on="ts", by="user_id", direction="forward",
            tolerance=pd.Timedelta(hours=1), num_partitions=2,
        )
        .to_pandas()
        .sort_values("pid")
    )
    # pid 100 -> next click at +30min (8); the earlier click (7) is behind.
    # pid 101's next click is 2.5h out -> outside tolerance -> unmatched
    assert got["cid"].tolist()[0] == 8
    assert pd.isna(got["cid"].tolist()[1])


def test_containment_catches_excerpt_jaccard_misses(ray_session):
    """A short excerpt fully inside a long doc: containment 1.0 although
    Jaccard is far below any dedup threshold."""
    long_text = " ".join(f"tok{i}" for i in range(100))
    excerpt = " ".join(f"tok{i}" for i in range(10))  # subset of long
    other = " ".join(f"zzz{i}" for i in range(50))
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [long_text, excerpt, other]})
    cont = dedup.containment_pairs(
        ray.data.from_pandas(df), threshold=0.9
    ).to_pandas()
    assert len(cont) == 1
    assert (cont.iloc[0]["doc_a"], cont.iloc[0]["doc_b"]) == (1, 2)
    assert cont.iloc[0]["containment"] == 1.0
    jac = dedup.jaccard_pairs(ray.data.from_pandas(df), threshold=0.5).to_pandas()
    assert len(jac) == 0  # resemblance misses the excerpt (10/100 = 0.1)


def test_diff_datasets_classifies_all_statuses(ray_session):
    left = pd.DataFrame({"k": [1, 2, 3, 4], "v": [10.0, 20.0, None, 40.0]})
    right = pd.DataFrame({"k": [2, 3, 4, 5], "v": [99.0, None, 40.0, 50.0]})
    got = (
        relational.diff_datasets(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            ["k"], ["v"], num_partitions=4,
        )
        .to_pandas()
        .set_index("status")["n"]
    )
    # k=1 removed; k=5 added; k=2 changed (20->99); k=3 unchanged
    # (null==null); k=4 unchanged
    assert got["removed"] == 1 and got["added"] == 1
    assert got["changed"] == 1 and got["unchanged"] == 2


def test_token_quota_budget_rule(ray_session):
    """Keep while cum-before < budget: the straddling doc stays, every
    non-empty group keeps at least one doc even when it alone exceeds the
    budget, and the pick is md5-order deterministic."""
    import hashlib

    df = pd.DataFrame(
        {"g": ["a"] * 5 + ["b"], "id": [1, 2, 3, 4, 5, 6],
         "tok": [40, 40, 40, 40, 40, 999]}
    )
    got = relational.token_quota_per_group(
        ray.data.from_pandas(df), ["g"], 100,
        token_column="tok", id_column="id", num_partitions=2,
    ).to_pandas()
    # group b: single doc over budget still kept
    assert set(got[got["g"] == "b"]["id"]) == {6}
    # group a: md5 order, cum-before < 100 -> exactly 3 docs (0,40,80)
    a_ids = df[df["g"] == "a"]["id"].tolist()
    order = sorted(a_ids, key=lambda v: (hashlib.md5(f"42:{v}".encode()).hexdigest(), v))
    assert sorted(got[got["g"] == "a"]["id"]) == sorted(order[:3])


def test_funnel_first_occurrence_semantics(ray_session):
    """Strict first-occurrence ordering: an early out-of-order purchase
    fails the user even if a later in-order purchase exists."""
    t = lambda m: pd.Timestamp("2026-05-01") + pd.Timedelta(minutes=m)
    rows = [
        # u1 completes in order
        (1, t(0), "signup"), (1, t(1), "view"), (1, t(2), "purchase"),
        # u2: purchase BEFORE first view -> fails view->purchase
        (2, t(0), "signup"), (2, t(1), "purchase"), (2, t(2), "view"),
        (2, t(3), "purchase"),
        # u3 never signs up
        (3, t(0), "view"), (3, t(1), "purchase"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    got = (
        relational.funnel_counts(
            ray.data.from_pandas(df), ["signup", "view", "purchase"]
        )
        .to_pandas()
        .sort_values("step_index")
    )
    assert got["n_users"].tolist() == [2, 2, 1]  # u1+u2 signup/view, u1 full


def test_nb_classifier_train_score_predict(ray_session):
    """Naive Bayes: predictions recover the generating language on every
    doc, scores match a direct closed-form recomputation, and the vocab
    budget caps the model."""
    import math

    rng = np.random.default_rng(7)
    vocab_a = [f"a{i}" for i in range(20)]
    vocab_b = [f"b{i}" for i in range(20)]
    rows = []
    for i in range(90):
        lab = "aa" if i % 3 else "bb"
        words = rng.choice(vocab_a if lab == "aa" else vocab_b, 10)
        rows.append({"doc_id": i, "text": " ".join(words), "lang": lab})
    docs = ray.data.from_pandas(pd.DataFrame(rows))

    model = text.nb_train(docs, label_column="lang", vocab_size=1000)
    assert model["labels"] == ["aa", "bb"]
    assert model["v"] == 40.0  # budget not binding: all 40 distinct terms
    pred = text.nb_predict(docs, model).to_pandas().set_index("doc_id")
    df = pd.DataFrame(rows).set_index("doc_id")
    assert (pred.loc[df.index, "label_pred"] == df["lang"]).all()

    # closed-form recomputation of one doc's scores from raw counts
    scored = text.nb_scores(docs, model).to_pandas()
    tok_counts = {}
    n_docs = {"aa": 0, "bb": 0}
    for r in rows:
        n_docs[r["lang"]] += 1
        for tok in r["text"].split():
            tok_counts[(tok, r["lang"])] = tok_counts.get((tok, r["lang"]), 0) + 1
    denom = {
        lab: sum(c for (t, l), c in tok_counts.items() if l == lab) + 40.0
        for lab in ("aa", "bb")
    }
    probe = rows[0]
    for lab in ("aa", "bb"):
        want = math.log(n_docs[lab] / 90.0)
        for tok in probe["text"].split():
            want += math.log((tok_counts.get((tok, lab), 0) + 1.0) / denom[lab])
        got = scored[
            (scored["doc_id"] == probe["doc_id"]) & (scored["label"] == lab)
        ]["nb_score"].iloc[0]
        assert abs(got - want) < 1e-5

    # vocab budget binds: only top-10 terms survive, unseen terms ignored
    small = text.nb_train(docs, label_column="lang", vocab_size=10)
    assert small["v"] == 10.0
    assert len(small["vocab"]) == 10
    pred_small = text.nb_predict(docs, small).to_pandas()
    assert len(pred_small) == 90


def test_bm25_topk_matches_closed_form(ray_session):
    """BM25 scores match a direct closed-form computation on a tiny corpus,
    ranking is (rounded score desc, doc_id asc), zero-hit docs score 0."""
    import math

    rows = [
        {"doc_id": 1, "text": "hash join hash join probe"},
        {"doc_id": 2, "text": "merge sort run"},
        {"doc_id": 3, "text": "scan filter project limit"},
        {"doc_id": 4, "text": "hash"},
    ]
    docs = ray.data.from_pandas(pd.DataFrame(rows))
    got = (
        text.bm25_topk(docs, "hash merge", k=4)
        .to_pandas()
        .set_index("doc_id")
    )
    n, avgdl = 4.0, (5 + 3 + 4 + 1) / 4.0
    k1, b = 1.2, 0.75

    def idf(df):
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def term_score(tf, dl, df):
        return idf(df) * (tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl)))

    want = {
        1: term_score(2, 5, 2),            # hash: tf=2, df=2
        2: term_score(1, 3, 1),            # merge: tf=1, df=1
        3: 0.0,
        4: term_score(1, 1, 2),
    }
    for doc_id, w in want.items():
        assert abs(got.loc[doc_id, "bm25_score"] - w) < 1e-5, doc_id
    assert got.loc[3, "bm25_score"] == 0.0
    assert got["dl"].to_dict() == {1: 5, 2: 3, 3: 4, 4: 1}


def test_event_transitions_markov_counts(ray_session):
    """Transitions follow per-user (ts, event_id) order, never cross users,
    drop each user's last event, and probs row-normalize per src."""
    t = lambda m: pd.Timestamp("2026-06-01") + pd.Timedelta(minutes=m)
    rows = [
        # u1: a -> b -> a
        (1, t(0), 1, "a"), (2, t(1), 1, "b"), (3, t(2), 1, "a"),
        # u2: b -> b (tie ts broken by event_id: 4 then 5)
        (4, t(0), 2, "b"), (5, t(0), 2, "b"),
        # u3: single event -> contributes nothing
        (6, t(0), 3, "a"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type"])
    got = (
        relational.event_transitions(ray.data.from_pandas(df), num_partitions=4)
        .to_pandas()
        .set_index(["src_event", "dst_event"])
    )
    assert got["n"].to_dict() == {("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}
    assert got.loc[("a", "b"), "prob"] == 1.0
    assert got.loc[("b", "a"), "prob"] == 0.5
    assert got.loc[("b", "b"), "prob"] == 0.5


def test_k_anonymize_suppresses_small_groups(ray_session):
    """Rows in QI groups smaller than k are suppressed; nulls group
    together (PARTITION BY semantics); surviving rows are unchanged."""
    rows = (
        [{"id": i, "city": "A", "age": 30} for i in range(4)]
        + [{"id": 10 + i, "city": "B", "age": 40} for i in range(2)]
        + [{"id": 20 + i, "city": None, "age": 50} for i in range(3)]
    )
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    got = (
        relational.k_anonymize(ds, ["city", "age"], 3, num_partitions=4)
        .to_pandas()
        .sort_values("id")
    )
    # (A,30) n=4 kept; (B,40) n=2 suppressed; (null,50) n=3 kept as a group
    assert got["id"].tolist() == [0, 1, 2, 3, 20, 21, 22]
    assert set(got.columns) == {"id", "city", "age"}


def test_grouped_standardize_zscores(ray_session):
    """Per-group z-scores match closed form; zero-variance groups get 0."""
    df = pd.DataFrame(
        {
            "id": range(6),
            "g": ["a", "a", "a", "a", "b", "b"],
            "v": [1.0, 2.0, 3.0, 4.0, 7.0, 7.0],
        }
    )
    got = (
        relational.grouped_standardize(
            ray.data.from_pandas(df), ["g"], "v", round_to=6
        )
        .to_pandas()
        .sort_values("id")
    )
    mean, sd = 2.5, np.sqrt(np.mean((np.array([1, 2, 3, 4]) - 2.5) ** 2))
    want = [(x - mean) / sd for x in [1, 2, 3, 4]] + [0.0, 0.0]
    assert np.allclose(got["value_z"].to_numpy(), want, atol=1e-6)


def test_grouped_mad_robust_to_outlier(ray_session):
    """MAD matches closed form and ignores a single spike that would move
    stddev arbitrarily."""
    df = pd.DataFrame(
        {
            "g": ["a"] * 5 + ["b"] * 4,
            "v": [1.0, 2.0, 3.0, 4.0, 1000.0, 5.0, 5.0, 7.0, 9.0],
        }
    )
    got = (
        relational.grouped_mad(ray.data.from_pandas(df), ["g"], "v", round_to=6)
        .to_pandas()
        .set_index("g")
    )
    # a: median 3, devs {2,1,0,1,997} -> median 1 (spike irrelevant)
    assert got.loc["a", "mad"] == 1.0
    # b: median 6, devs {1,1,1,3} -> median 1
    assert got.loc["b", "mad"] == 1.0


def test_levenshtein_matches_duckdb():
    """Unit-cost edit distance matches DuckDB's levenshtein() on a sample."""
    import duckdb

    from esmarc_ray.ops.relational import _levenshtein

    cases = [
        ("", ""), ("a", ""), ("", "abc"), ("kitten", "sitting"),
        ("flaw", "lawn"), ("Customer#01", "Supplier#01"), ("same", "same"),
    ]
    for a, b in cases:
        want = duckdb.sql(f"SELECT levenshtein('{a}', '{b}')").fetchone()[0]
        assert _levenshtein(a, b) == want, (a, b)


def test_skew_report_stats(ray_session):
    """Skew audit: exact group stats and discrete percentiles."""
    df = pd.DataFrame({"k": ["a"] * 10 + ["b"] * 2 + ["c"] * 3 + ["d"] * 1})
    got = relational.skew_report(ray.data.from_pandas(df), ["k"])
    r = got.iloc[0]
    assert (r["n_groups"], r["n_rows"], r["max_group"]) == (4, 16, 10)
    # sizes sorted: [1,2,3,10]; disc p50 = ceil(0.5*4)=2nd -> 2, p90/p99 -> 10
    assert (r["p50_group"], r["p90_group"], r["p99_group"]) == (2, 10, 10)


def test_frequent_pairs_supports(ray_session):
    """Pair supports count DISTINCT items per basket; threshold and
    deterministic (n desc, a, b) order hold."""
    rows = [
        (1, "x"), (1, "y"), (1, "y"),      # dup item in basket: one pair
        (2, "x"), (2, "y"), (2, "z"),
        (3, "x"), (3, "y"),
        (4, "y"), (4, "z"),
    ]
    df = pd.DataFrame(rows, columns=["basket", "item"])
    got = relational.frequent_pairs(
        ray.data.from_pandas(df), basket_column="basket", item_column="item",
        min_support=2, k=10, num_partitions=4,
    ).to_pandas()
    assert got[["item_a", "item_b", "n"]].values.tolist() == [
        ["x", "y", 3], ["y", "z", 2],
    ]


def test_category_drift_kl_terms(ray_session):
    """Drift report: exact rates and KL contributions; zero-count side
    yields a null KL term, not a crash."""
    import math

    rows = (
        [{"c": "x", "side": "a"}] * 6 + [{"c": "y", "side": "a"}] * 2
        + [{"c": "x", "side": "b"}] * 4 + [{"c": "y", "side": "b"}] * 4
        + [{"c": "z", "side": "b"}] * 2
    )
    got = (
        relational.category_drift(
            ray.data.from_pandas(pd.DataFrame(rows)), "c", "side"
        )
        .to_pandas()
        .set_index("c")
    )
    assert got.loc["x", ["n_a", "n_b"]].tolist() == [6, 4]
    assert abs(got.loc["x", "kl_term"] - 0.75 * math.log(0.75 / 0.4)) < 1e-6
    assert got.loc["z", "n_a"] == 0 and pd.isna(got.loc["z", "kl_term"])


def test_resample_ffill_gap_filling(ray_session):
    """Daily resample: day's LAST value wins, gaps forward-fill, span is
    per-key (no rows outside it)."""
    t = lambda d, h=0: pd.Timestamp(f"2026-03-{d:02d}") + pd.Timedelta(hours=h)
    df = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4],
            "user_id": [7, 7, 7, 9],
            "ts": [t(1, 1), t(1, 5), t(4), t(2)],
            "value": [10.0, 11.0, 40.0, 99.0],
        }
    )
    got = (
        relational.resample_ffill(
            ray.data.from_pandas(df),
            partition_by="user_id",
            ts_column="ts",
            value_column="value",
            order_tiebreak=["event_id"],
            num_partitions=4,
        )
        .to_pandas()
        .sort_values(["user_id", "day"])
    )
    u7 = got[got["user_id"] == 7]
    assert u7["day"].tolist() == [f"2026-03-0{d}" for d in (1, 2, 3, 4)]
    assert u7["value_ffill"].tolist() == [11.0, 11.0, 11.0, 40.0]
    u9 = got[got["user_id"] == 9]
    assert u9["day"].tolist() == ["2026-03-02"] and u9["value_ffill"].tolist() == [99.0]


def test_bpe_train_and_encode(ray_session):
    """BPE merges follow the classic greedy rule on a hand-computable
    corpus; encoding applies merges in rank order and compresses repeated
    words down to single tokens."""
    # 5x "aaab", 3x "aab": pair counts r1: (a,a)=5*2+3=13 -> merge (a,a)
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1, 2], "text": ["aaab aaab aaab aaab aaab", "aab aab aab"]})
    )
    merges = text.train_bpe(docs, num_merges=3)
    assert merges[0] == ("a", "a")
    # r2 symbols: aaab -> (aa,a,b,</w>) n=5; aab -> (aa,b,</w>) n=3
    # pairs: (aa,a)=5, (a,b)=5, (aa,b)=3, (b,</w>)=8 -> merge (b,</w>)
    assert merges[1] == ("b", "</w>")
    got = text.bpe_encode(docs, merges).to_pandas().set_index("doc_id")
    # after 3 merges every full word is <= 2-3 symbols; exact counts:
    # merge3: pairs now (aa,a)=5,(a,b</w>)=5,(aa,b</w>)=3 -> (a,b</w>) wins? no:
    # counts (aa,a)=5, (a,b</w>)=5 tie -> lexicographic: ("a","b</w>") < ("aa","a")
    assert merges[2] == ("a", "b</w>")
    # encode "aaab": a a a b </w> -> merge1 -> aa a b </w> -> (b,</w>) -> aa a b</w>
    # -> (a,b</w>) -> aa ab</w> = 2 tokens; x5 = 10
    assert got.loc[1, "n_bpe_tokens"] == 10
    # "aab": aa b</w> -> no (a,b</w>) applies -> 2 tokens; x3 = 6
    assert got.loc[2, "n_bpe_tokens"] == 6


def test_zorder_code_locality(ray_session):
    """Morton codes: exact interleave on known values; neighbors in both
    dims cluster (code distance grows with either coordinate)."""
    df = pd.DataFrame(
        {"id": range(4), "x": [0, 1, 0, 65535], "y": [0, 0, 1, 65535]}
    )
    # spans 0..65535 -> identity bucketing
    got = (
        relational.zorder_code(ray.data.from_pandas(df), "x", "y")
        .to_pandas()
        .set_index("id")["zcode"]
    )
    assert got[0] == 0
    assert got[1] == 1          # x bit 0 -> even position
    assert got[2] == 2          # y bit 0 -> odd position
    assert got[3] == 2**32 - 1  # all 32 bits set


def test_jaccard_dup_clusters_transitive(ray_session):
    """A-B and B-C near-dup pairs cluster A,B,C together under min-id."""
    from esmarc_ray.ops.dedup import jaccard_pairs
    from esmarc_ray.ops.graph import connected_components

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    words = base.split()
    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [5, 7, 9, 11],
                "text": [
                    base,
                    base,                             # dup of 5
                    base + " extra",                  # near-dup chain via 7
                    "totally different words here",   # isolated
                ],
            }
        )
    )
    pairs = jaccard_pairs(docs, threshold=0.9)

    def to_edges(b):
        return pd.DataFrame(
            {"u": b["doc_a"].map("{:012d}".format), "v": b["doc_b"].map("{:012d}".format)}
        )

    comp = connected_components(
        pairs.map_batches(to_edges, batch_format="pandas"), num_partitions=2
    ).to_pandas()
    clusters = dict(
        zip(comp["node"].astype(int), comp["component"].astype(int))
    )
    assert clusters[5] == clusters[7] == clusters[9] == 5
    assert 11 not in clusters  # isolated docs never enter the pair graph


def test_pca_matches_numpy(ray_session):
    rng = np.random.default_rng(3)
    # anisotropic cloud: variance concentrated along a known direction
    base = rng.normal(size=(200, 6))
    base[:, 0] *= 5.0
    base[:, 1] *= 2.0
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": np.arange(200), "embedding": list(base)})
    )
    comps, evs, mean = similarity.pca_components(ds, n_components=3)
    # numpy reference
    centered = base - base.mean(axis=0)
    cov = centered.T @ centered / len(base)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:3]
    ref = v[:, order].T
    flips = np.sign(ref[np.arange(3), np.abs(ref).argmax(axis=1)])
    ref = ref * flips[:, None]
    assert np.allclose(mean, base.mean(axis=0), atol=1e-9)
    assert np.allclose(np.abs(evs), np.sort(w)[::-1][:3], atol=1e-9)
    assert np.allclose(comps, ref, atol=1e-8)
    proj = (
        similarity.pca_transform(ds, comps, mean)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    want = (centered @ ref.T)
    got = proj[["pc0", "pc1", "pc2"]].to_numpy()
    assert np.allclose(got, np.floor(want * 1e6 + 0.5) / 1e6, atol=1e-9)


def test_count_min_sketch_bounds(ray_session):
    from esmarc_ray.ops import sketches

    rng = np.random.default_rng(9)
    # zipf-ish: value i appears ~1000/i times
    vals = np.concatenate([np.full(1000 // (i + 1), i) for i in range(50)])
    rng.shuffle(vals)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals}))
    grid = sketches.count_min_sketch(ds, "v", depth=4, width=1024)
    assert grid.sum() == 4 * len(vals)  # every row counts every value once
    probe = pd.Series(np.arange(50))
    est = sketches.cms_estimate(grid, probe)
    truth = pd.Series(vals).value_counts().reindex(np.arange(50)).fillna(0).to_numpy()
    assert (est >= truth).all()  # CMS never underestimates
    assert (est - truth).max() <= 2 * len(vals) / 1024 * 4  # loose CM bound


def test_compression_ratio_separates_templated_from_random(ray_session):
    import string

    from esmarc_ray.ops import text as text_ops

    rng = np.random.default_rng(4)
    rand = "".join(rng.choice(list(string.ascii_lowercase + " "), 2000))
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": [0, 1], "text": ["spam ham " * 250, rand]}
        )
    )
    got = text_ops.compression_ratio(ds).to_pandas().set_index("doc_id")
    assert got.loc[0, "compression_ratio"] < 0.05  # templated compresses hard
    assert got.loc[1, "compression_ratio"] > 0.5   # random barely compresses
    # deterministic across runs
    again = text_ops.compression_ratio(ds).to_pandas().set_index("doc_id")
    assert (got["compression_ratio"] == again["compression_ratio"]).all()


def test_hll_overlap_estimates_known_intersection(ray_session):
    from esmarc_ray.ops import sketches

    a = ray.data.from_pandas(pd.DataFrame({"v": np.arange(0, 30000)}))
    b = ray.data.from_pandas(pd.DataFrame({"v": np.arange(20000, 50000)}))
    est = sketches.hll_overlap(a, b, "v")
    assert abs(est["a"] - 30000) / 30000 < 0.05
    assert abs(est["union"] - 50000) / 50000 < 0.05
    assert abs(est["intersection"] - 10000) / 10000 < 0.25  # 3 error terms


def test_exact_global_quantile_vs_numpy(ray_session):
    rng = np.random.default_rng(21)
    vals = rng.normal(1000, 250, size=20000)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals}))
    for q in (0.05, 0.5, 0.99):
        got = relational.exact_global_quantile(ds, "v", q=q, n_bins=256)
        want = float(np.quantile(vals, q, method="linear"))
        assert abs(got - want) < 1e-9, (q, got, want)
    # constant column short-circuit
    const = ray.data.from_pandas(pd.DataFrame({"v": np.full(100, 7.0)}))
    assert relational.exact_global_quantile(const, "v", q=0.3) == 7.0


def test_skyline_2d_planted_frontier(ray_session):
    """Planted 2-D frontier: maximize a, minimize b; dominated points must
    vanish, exact (a, b) duplicates of frontier points must all survive,
    and the result must match the quadratic reference."""
    import numpy as np

    from esmarc_ray.ops.relational import skyline_2d

    rng = np.random.default_rng(7)
    a = rng.integers(0, 1000, 400)
    b = rng.integers(0, 1000, 400)
    df = pd.DataFrame({"id": range(400), "a": a, "b": b})
    # plant an exact duplicate of one extreme point
    df.loc[0, ["a", "b"]] = [1000, 0]
    df.loc[1, ["a", "b"]] = [1000, 0]

    ds = ray.data.from_pandas(df).repartition(8)
    got = skyline_2d(ds, maximize="a", minimize="b").to_pandas()

    keep = []
    for i, r in df.iterrows():
        dominated = (
            (df["a"] >= r["a"])
            & (df["b"] <= r["b"])
            & ((df["a"] > r["a"]) | (df["b"] < r["b"]))
        ).any()
        if not dominated:
            keep.append(i)
    assert sorted(got["id"]) == sorted(df.loc[keep, "id"])
    assert {0, 1} <= set(got["id"])


def test_theilsen_slope_resists_outlier(ray_session):
    """A line y=2x with one wrecked point: least squares would tilt, the
    Theil–Sen median slope stays 2."""
    from esmarc_ray.ops.relational import theilsen_slope

    df = pd.DataFrame({"g": ["a"] * 10, "x": range(10), "y": [2 * i for i in range(10)]})
    df.loc[9, "y"] = 500
    out = theilsen_slope(
        ray.data.from_pandas(df), ["g"], "x", "y", num_partitions=2
    ).to_pandas()
    assert out["slope"].iloc[0] == 2.0
    assert out["n_points"].iloc[0] == 10


def test_ppjoin_equals_exact_jaccard_pairs(ray_session):
    """The prefix-filtered PPJoin plan returns EXACTLY the all-token exact
    plan's rows at the same threshold (lossless prefix filter), at two
    thresholds bracketing the corpus's similarity mass."""
    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    for t in (0.9, 0.6):
        exact = (
            dedup.jaccard_pairs(docs, threshold=t)
            .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        )
        pp = (
            dedup.ppjoin_pairs(docs, threshold=t)
            .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        )
        assert len(pp) == len(exact) and len(exact) > 0, t
        assert pp.equals(exact), t


def test_grouped_minmax_scale(ray_session):
    from esmarc_ray.ops.relational import grouped_minmax_scale

    df = pd.DataFrame(
        {"g": ["a", "a", "a", "b", "b"], "v": [10.0, 20.0, 15.0, 7.0, 7.0]}
    )
    out = (
        grouped_minmax_scale(ray.data.from_pandas(df).repartition(3), ["g"], "v")
        .to_pandas().sort_values(["g", "v"]).reset_index(drop=True)
    )
    assert out["value_mm"].tolist() == [0.0, 0.5, 1.0, 0.0, 0.0]  # const g=b -> 0


def test_grouped_robust_scale_matches_percentile_cont(ray_session):
    import numpy as np

    from esmarc_ray.ops.relational import grouped_robust_scale

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {"g": ["a"] * 50 + ["b"] * 30, "v": rng.gamma(2.0, 10.0, 80)}
    )
    out = (
        grouped_robust_scale(ray.data.from_pandas(df).repartition(4), ["g"], "v")
        .to_pandas()
    )
    for g, sub in df.groupby("g"):
        q1, med, q3 = np.quantile(sub["v"], [0.25, 0.5, 0.75])
        want = (sub["v"] - med) / (q3 - q1)
        got = out[out["g"] == g].set_index(out[out["g"] == g].index)["value_rs"]
        assert np.allclose(sorted(got), sorted(want.round(6)), atol=1e-6)


def test_loo_target_encode_exact_and_singleton(ray_session):
    import numpy as np

    from esmarc_ray.ops.relational import loo_target_encode

    df = pd.DataFrame(
        {"g": ["a", "a", "a", "s"], "v": [10.0, 20.0, 30.0, 99.0]}
    )
    out = (
        loo_target_encode(
            ray.data.from_pandas(df).repartition(2), ["g"], "v",
            exact_scale=100,
        )
        .to_pandas().sort_values(["g", "v"]).reset_index(drop=True)
    )
    assert out["loo_mean"].tolist()[:3] == [25.0, 20.0, 15.0]
    assert np.isnan(out["loo_mean"].iloc[3])  # singleton key -> null


def test_l_diversify_drops_uniform_groups(ray_session):
    from esmarc_ray.ops.relational import l_diversify

    df = pd.DataFrame(
        {
            "qi": ["a"] * 4 + ["b"] * 3,
            "sens": ["x", "y", "x", "z", "x", "x", "x"],  # a: 3 distinct, b: 1
            "id": range(7),
        }
    )
    out = l_diversify(
        ray.data.from_pandas(df).repartition(3), ["qi"], "sens", 3,
        num_partitions=4,
    ).to_pandas()
    assert sorted(out["id"]) == [0, 1, 2, 3]  # only the diverse group survives


def test_mann_whitney_matches_hand_computation(ray_session):
    """Hand-checkable MWU with ties: a=[1,2,2], b=[2,3].
    avg ranks: 1->1, 2->3 (ranks 2,3,4), 3->5. Ra=1+3+3=7, U=7-6=1."""
    import numpy as np

    from esmarc_ray.ops.relational import mann_whitney_u

    df = pd.DataFrame(
        {"g": ["a", "a", "a", "b", "b"], "v": [1.0, 2.0, 2.0, 2.0, 3.0]}
    )
    out = mann_whitney_u(
        ray.data.from_pandas(df).repartition(2), "g", "v", "a", "b"
    )
    assert out.loc[0, "n_a"] == 3 and out.loc[0, "n_b"] == 2
    assert out.loc[0, "u_stat"] == 1.0
    mu, sigma = 3.0, np.sqrt(3 * 2 * 6 / 12)
    assert abs(out.loc[0, "z"] - (1.0 - mu) / sigma) < 1e-6


def test_als_recovers_low_rank_matrix(ray_session):
    """ALS on an exactly rank-2 synthetic matrix drives RMSE near zero, and
    iterating improves the fit."""
    import numpy as np

    from esmarc_ray.ops.similarity import als_factorize, als_rmse

    rng = np.random.RandomState(3)
    u_true = rng.uniform(0.5, 1.5, (30, 2))
    v_true = rng.uniform(0.5, 1.5, (20, 2))
    rows = [
        {"user": f"u{i}", "item": f"i{j}", "rating": float(u_true[i] @ v_true[j])}
        for i in range(30)
        for j in range(20)
        if (i * 20 + j) % 3 != 0  # hold out a third of the cells
    ]
    ratings = ray.data.from_pandas(pd.DataFrame(rows)).repartition(4)
    uf1, if1 = als_factorize(ratings, rank=2, iterations=1, reg=0.01)
    uf5, if5 = als_factorize(ratings, rank=2, iterations=6, reg=0.01)
    r1 = als_rmse(ratings, uf1, if1)
    r5 = als_rmse(ratings, uf5, if5)
    assert r5 < r1
    assert r5 < 0.05, r5
    assert len(uf5) == 30 and len(if5) == 20


def test_bpe_train_matches_reference(ray_session):
    """bpe_train == a straightforward sequential BPE (Sennrich-style) on the
    same corpus: identical merge order, pair identities and counts."""
    corpus = [
        "low low low low low",
        "lower lower newest newest",
        "newest newest newest newest",
        "widest widest widest",
        "low lower newest widest new",
    ]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(len(corpus)), "text": corpus})
    )
    got = text.bpe_train(ds, n_merges=12)

    # sequential reference: dict of word -> freq, tuple-of-symbols state
    import collections
    import re as _re

    vocab = collections.Counter()
    for doc in corpus:
        for w in _re.findall(r"[a-z0-9]+", doc.lower()):
            vocab[w] += 1
    state = {w: tuple(list(w) + ["</w>"]) for w in vocab}
    expected = []
    for rank in range(12):
        counts = collections.Counter()
        for w, syms in state.items():
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] += vocab[w]
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        (l, r), n = best
        expected.append((rank, l, r, l + r, n))
        new_state = {}
        for w, syms in state.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_state[w] = tuple(out)
        state = new_state

    got_rows = list(got.itertuples(index=False, name=None))
    assert got_rows == expected


def test_canopy_clusters_blocking(ray_session):
    """Canopy pre-blocking: every true near-dup pair shares >=1 canopy;
    unrelated records never share one; output is deterministic."""
    rows = pd.DataFrame(
        {
            "doc_id": list(range(8)),
            "text": [
                "johann sebastian bach composer leipzig",
                "johann sebastian bach komponist leipzig",   # near-dup of 0
                "bach johann sebastian composer leipzig",    # dup of 0 (reordered)
                "wolfgang amadeus mozart composer salzburg",
                "wolfgang amadeus mozart komponist salzburg",  # near-dup of 3
                "ludwig van beethoven composer bonn",
                "completely unrelated text about ray data shuffles",
                "another unrelated doc on arrow batches",
            ],
        }
    )
    ds = ray.data.from_pandas(rows)
    out = relational.canopy_clusters(
        ds, id_col="doc_id", text_col="text", t1=0.6, t2=0.75
    ).to_pandas()

    canopies = out.groupby("id")["canopy"].apply(set).to_dict()
    # true dup groups share a canopy
    assert canopies[0] & canopies[1]
    assert canopies[0] & canopies[2]
    assert canopies[3] & canopies[4]
    # unrelated pairs never share one
    assert not (canopies[0] & canopies[6])
    assert not (canopies[3] & canopies[7])
    assert not (canopies[6] & canopies[7])

    # deterministic under re-execution
    out2 = relational.canopy_clusters(
        ds, id_col="doc_id", text_col="text", t1=0.6, t2=0.75
    ).to_pandas()
    a = out.sort_values(["id", "canopy"]).reset_index(drop=True)
    b = out2.sort_values(["id", "canopy"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_duplicate_span_removal_exact_substr(ray_session):
    """ExactSubstr dedup: a planted 8-gram shared across two docs is cut
    from BOTH; a within-doc repeat is cut; unique docs pass untouched."""
    import pandas as pd
    import ray.data

    from esmarc_ray.ops import text

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "a b c d e f g h i j",
                "x a b c d e f g h y z",
                "unique words only here nothing repeats at all",
                "p p p p p p p p p p",
            ],
        }
    )
    out = (
        text.duplicate_span_removal(
            ray.data.from_pandas(docs), width=8, num_partitions=4
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["text"].tolist() == [
        "i j", "x y z",
        "unique words only here nothing repeats at all", "",
    ]
    assert out["n_tokens"].tolist() == [10, 11, 8, 10]
    assert out["n_removed"].tolist() == [8, 8, 0, 10]


def test_pq_recall_and_determinism(ray_session):
    """Product quantization: ADC top-10 recall ≥ 0.7 vs exact Euclidean on
    planted clusters; codebooks deterministic in the seed; codes are m
    uint8s (32× compression at d=32 float32)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from esmarc_ray.ops.similarity import pq_encode, pq_search, pq_train

    rng = np.random.RandomState(11)
    centers = rng.randn(6, 32) * 5.0
    vecs = np.concatenate(
        [c + rng.randn(60, 32) * 0.4 for c in centers]
    ).astype(np.float32)
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": np.arange(len(vecs)), "embedding": list(vecs)})
    ).repartition(4)

    books = pq_train(ds, m=4, k_codes=16, n_iter=8, seed=3)
    assert books.shape == (4, 16, 8)
    books2 = pq_train(ds, m=4, k_codes=16, n_iter=8, seed=3)
    assert np.allclose(books, books2)

    codes = pq_encode(ds, books).materialize()
    first = codes.take(1)[0]["codes"]
    assert len(first) == 4 and np.asarray(first).dtype == np.uint8

    # within a tight cluster all points share a code, so rank order inside
    # the cluster is undefined — the meaningful ADC gate is CLUSTER recall:
    # every top-10 hit must come from the query's planted cluster (60 pts)
    queries = vecs[[0, 90, 250]]
    got = pq_search(codes, books, queries, k=10)
    for qi, qidx in enumerate([0, 90, 250]):
        cluster = set(range(qidx // 60 * 60, qidx // 60 * 60 + 60))
        approx = set(got[got["query_id"] == qi]["vec_id"].tolist())
        assert len(approx) == 10
        assert approx <= cluster, (qi, sorted(approx - cluster))
    # and the ADC distance to the home cluster is far below other clusters
    d_home = got[got["query_id"] == 0]["adc_d2"].max()
    far = pq_search(codes, books, vecs[[0]], k=len(vecs))
    d_other = far[~far["vec_id"].isin(range(60))]["adc_d2"].min()
    assert d_other > d_home * 5


def test_interval_overlap_join_binned_canonical_dedup(ray_session):
    """Intervals spanning MANY bins must match each point exactly once
    (canonical-bin rule), closed ends included, across both plans."""
    left = pd.DataFrame(
        {"iv": ["long", "short"], "s": [0, 95], "e": [1000, 105]}
    )
    right = pd.DataFrame({"pt": list(range(6)), "t": [0, 100, 1000, 1001, 95, 105]})
    out = relational.interval_overlap_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        left_start="s", left_end="e", right_start="t", right_end=None,
        bin_width=10, left_cols=["iv"], right_cols=["pt"],
        num_partitions=4,
    ).to_pandas()
    got = sorted(map(tuple, out[["iv", "pt"]].to_numpy()))
    # long [0,1000] covers t=0,100,1000,95,105 (1001 is outside; closed end
    # keeps 1000); short [95,105] covers 100, 95, 105 — each pair ONCE
    assert got == sorted(
        [("long", 0), ("long", 1), ("long", 2), ("long", 4), ("long", 5),
         ("short", 1), ("short", 4), ("short", 5)]
    )


def test_interval_overlap_join_by_plan_matches_bruteforce(ray_session):
    """Per-key plan (by=, single bin) against a pandas brute force on random
    deterministic intervals, interval×interval overlap."""
    rng = np.random.RandomState(5)
    n = 80
    a = pd.DataFrame({
        "ka": range(n), "g": rng.randint(0, 5, n),
        "sa": rng.randint(0, 100, n),
    })
    a["ea"] = a["sa"] + rng.randint(0, 20, n)
    b = pd.DataFrame({
        "kb": range(n), "g": rng.randint(0, 5, n),
        "sb": rng.randint(0, 100, n),
    })
    b["eb"] = b["sb"] + rng.randint(0, 20, n)
    out = relational.interval_overlap_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b),
        left_start="sa", left_end="ea", right_start="sb", right_end="eb",
        by="g", left_cols=["ka"], right_cols=["kb"], num_partitions=4,
    ).to_pandas()
    got = sorted(map(tuple, out[["ka", "kb"]].to_numpy()))
    brute = a.merge(b, on="g")
    brute = brute[(brute["sa"] <= brute["eb"]) & (brute["sb"] <= brute["ea"])]
    assert got == sorted(map(tuple, brute[["ka", "kb"]].to_numpy()))
    assert len(got) > 100  # non-trivial


def test_kcenter_coreset_covers_planted_clusters(ray_session):
    """5 well-separated planted clusters + one seed cluster: a k=8 coreset
    must include at least one member of EVERY cluster (greedy k-center's
    defining guarantee), and reruns are deterministic."""
    rng = np.random.RandomState(3)
    centers = np.eye(5) * 50.0
    rows = []
    vid = 0
    for c in range(5):
        for _ in range(40):
            rows.append(
                {"vec_id": vid, "embedding": centers[c] + rng.randn(5) * 0.1,
                 "cluster": c}
            )
            vid += 1
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df[["vec_id", "embedding"]])
    from esmarc_ray.ops import similarity

    out = similarity.kcenter_coreset(ds, 8)
    picked = set(out["vec_id"])
    covered = set(df[df["vec_id"].isin(picked)]["cluster"])
    assert covered == {0, 1, 2, 3, 4}
    rerun = similarity.kcenter_coreset(ds, 8)
    assert list(rerun["vec_id"]) == list(out["vec_id"])


def test_interval_overlap_join_by_plus_bins_matches_bruteforce(ray_session):
    """The combined mode (by= AND bin_width=) — per-key temporal binning —
    must equal the brute force, with canonical-bin dedup across bins."""
    rng = np.random.RandomState(11)
    n = 120
    a = pd.DataFrame({
        "ka": range(n), "g": rng.randint(0, 4, n),
        "sa": rng.randint(0, 1000, n),
    })
    a["ea"] = a["sa"] + rng.randint(0, 300, n)  # spans many 50-wide bins
    b = pd.DataFrame({
        "kb": range(n), "g": rng.randint(0, 4, n),
        "sb": rng.randint(0, 1000, n),
    })
    b["eb"] = b["sb"] + rng.randint(0, 300, n)
    out = relational.interval_overlap_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b),
        left_start="sa", left_end="ea", right_start="sb", right_end="eb",
        by="g", bin_width=50, left_cols=["ka"], right_cols=["kb"],
        num_partitions=4,
    ).to_pandas()
    got = sorted(map(tuple, out[["ka", "kb"]].to_numpy()))
    brute = a.merge(b, on="g")
    brute = brute[(brute["sa"] <= brute["eb"]) & (brute["sb"] <= brute["ea"])]
    want = sorted(map(tuple, brute[["ka", "kb"]].to_numpy()))
    assert got == want and len(got) > 500


def test_interval_overlap_join_hot_key_skew_guard(ray_session):
    """Planted hot key in by-only mode: one user with ~4000 events among
    tiny keys trips the skew guard (threshold lowered for the test), the
    hot key auto-switches to per-key binning spread over many reducer
    bins, and the result still equals the brute force exactly."""
    rng = np.random.RandomState(7)
    n_hot = 4000
    hot = pd.DataFrame({
        "ka": range(n_hot), "g": 999,
        "sa": rng.randint(0, 1_000_000, n_hot),
    })
    hot["ea"] = hot["sa"] + rng.randint(0, 50, n_hot)
    small = pd.DataFrame({
        "ka": range(n_hot, n_hot + 60), "g": rng.randint(0, 6, 60),
        "sa": rng.randint(0, 1000, 60),
    })
    small["ea"] = small["sa"] + rng.randint(0, 30, 60)
    a = pd.concat([hot, small], ignore_index=True)
    b = pd.DataFrame({
        "kb": range(5000),
        "g": np.where(np.arange(5000) < 4500, 999, rng.randint(0, 6, 5000)),
        "t": rng.randint(0, 1_000_000, 5000),
    })
    out = relational.interval_overlap_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b),
        left_start="sa", left_end="ea", right_start="t", right_end=None,
        by="g", left_cols=["ka"], right_cols=["kb"],
        num_partitions=8, skew_threshold=1000,
    ).to_pandas()
    got = sorted(map(tuple, out[["ka", "kb"]].to_numpy()))
    brute = a.merge(b, on="g")
    brute = brute[(brute["sa"] <= brute["t"]) & (brute["t"] <= brute["ea"])]
    want = sorted(map(tuple, brute[["ka", "kb"]].to_numpy()))
    assert got == want and len(got) > 0
    # explicit hot-width path (skips the scan) must agree bit-for-bit —
    # the per-key binned plan really runs and really dedups canonically
    explicit = relational.interval_overlap_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b),
        left_start="sa", left_end="ea", right_start="t", right_end=None,
        by="g", left_cols=["ka"], right_cols=["kb"],
        num_partitions=8, hot_key_widths={999: 5000},
    ).to_pandas()
    assert sorted(map(tuple, explicit[["ka", "kb"]].to_numpy())) == want
    # width SMALLER than the interval lengths (40 < up-to-50): nearly every
    # hot interval replicates across 2+ bins, so a canonical-bin dedup
    # regression (double-emitting multi-bin pairs) cannot hide in the
    # boundary-straddler tail the wide-width leg leaves (~1% replication)
    narrow = relational.interval_overlap_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b),
        left_start="sa", left_end="ea", right_start="t", right_end=None,
        by="g", left_cols=["ka"], right_cols=["kb"],
        num_partitions=8, hot_key_widths={999: 40},
    ).to_pandas()
    assert sorted(map(tuple, narrow[["ka", "kb"]].to_numpy())) == want
