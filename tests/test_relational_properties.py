"""Property-based checks: relational operators vs in-memory pandas semantics."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data
from hypothesis import given, settings, strategies as st

from esmarc_ray.ops import relational

_KEYS = st.integers(min_value=0, max_value=5)
_VALS = st.integers(min_value=-100, max_value=100)


def _frame(draw, n, cols):
    return pd.DataFrame({c: [draw(s) for _ in range(n)] for c, s in cols.items()})


@st.composite
def join_inputs(draw):
    n_left = draw(st.integers(min_value=0, max_value=12))
    n_right = draw(st.integers(min_value=0, max_value=6))
    left = _frame(draw, n_left, {"k": _KEYS, "x": _VALS})
    right_keys = draw(st.lists(_KEYS, min_size=n_right, max_size=n_right, unique=True))
    right = pd.DataFrame({"k": right_keys, "y": [draw(_VALS) for _ in right_keys]})
    return left, right


@settings(max_examples=12, deadline=None)
@given(join_inputs())
def test_partitioned_join_matches_pandas(ray_session, inputs):
    left, right = inputs
    got = relational.partitioned_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        "k",
        left_cols=["x"],
        right_cols=["y"],
        num_partitions=3,
    ).to_pandas()
    expected = (
        left.merge(right, on="k", how="inner")
        .sort_values(["k", "x", "y"])
        .reset_index(drop=True)
    )
    assert len(got) == len(expected)
    if expected.empty:
        # an all-empty join legitimately yields a schemaless empty dataset
        return
    got = got.sort_values(["k", "x", "y"]).reset_index(drop=True)
    assert got["k"].tolist() == expected["k"].tolist()
    assert got["x"].tolist() == expected["x"].tolist()
    assert got["y"].tolist() == expected["y"].tolist()


@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.tuples(_KEYS, st.integers(min_value=0, max_value=1000), _VALS),
        min_size=1,
        max_size=40,
    )
)
def test_running_window_matches_pandas(ray_session, rows):
    df = pd.DataFrame(rows, columns=["user", "ts", "value"])
    df["event_id"] = range(len(df))
    got = (
        relational.running_window(
            ray.data.from_pandas(df),
            partition_by="user",
            order_by=["ts", "event_id"],
            value_column="value",
            out_name="rv",
        )
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    expected = df.sort_values(["ts", "event_id"]).copy()
    expected["rv"] = expected.groupby("user")["value"].cumsum()
    expected = expected.sort_values("event_id").reset_index(drop=True)
    assert got["rv"].tolist() == expected["rv"].tolist()


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(_KEYS, _KEYS, _VALS), min_size=1, max_size=40))
def test_rollup_agg_matches_pandas(ray_session, rows):
    df = pd.DataFrame(rows, columns=["a", "b", "v"])
    df["a"] = df["a"].astype(str)
    df["b"] = df["b"].astype(str)
    got = (
        relational.rollup_agg(
            ray.data.from_pandas(df), ["a", "b"], {"n": ("v", "count"), "s": ("v", "sum")}
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    fine = df.groupby(["a", "b"], as_index=False).agg(n=("v", "count"), s=("v", "sum"))
    mid = df.groupby(["a"], as_index=False).agg(n=("v", "count"), s=("v", "sum"))
    mid["b"] = "ALL"
    top = pd.DataFrame({"a": ["ALL"], "b": ["ALL"], "n": [len(df)], "s": [df["v"].sum()]})
    expected = (
        pd.concat([fine, mid, top], ignore_index=True)[["a", "b", "n", "s"]]
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    assert got["a"].tolist() == expected["a"].tolist()
    assert got["b"].tolist() == expected["b"].tolist()
    assert got["n"].tolist() == expected["n"].tolist()
    assert got["s"].tolist() == expected["s"].tolist()


@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.tuples(_KEYS, st.integers(min_value=0, max_value=1000), _VALS),
        min_size=1,
        max_size=40,
    )
)
def test_window_rank_matches_pandas(ray_session, rows):
    df = pd.DataFrame(rows, columns=["k", "o", "v"])
    df["rid"] = range(len(df))  # unique tie-break
    got = (
        relational.window_rank(
            ray.data.from_pandas(df), partition_by="k", order_by=["o", "rid"],
            ntile=3, num_partitions=3,
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    expected_rn = (
        df.sort_values(["o", "rid"]).groupby("k", sort=False).cumcount() + 1
    )
    expected_rn = expected_rn.reindex(df.sort_values(["o", "rid"]).index)
    merged = df.sort_values(["o", "rid"]).assign(rn=expected_rn.to_numpy())
    merged = merged.sort_values("rid").reset_index(drop=True)
    assert got["row_number"].tolist() == merged["rn"].tolist()
    # SQL ntile invariant per partition: bucket sizes differ by at most one,
    # earlier buckets never smaller than later ones
    for _, grp in got.groupby("k"):
        sizes = grp.groupby("ntile").size()
        assert sizes.max() - sizes.min() <= 1
        assert sorted(sizes.index) == list(sizes.index)


@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.tuples(_KEYS, st.floats(min_value=-50, max_value=50, allow_nan=False)),
        min_size=1,
        max_size=30,
    )
)
def test_grouped_quantile_linear_matches_numpy(ray_session, rows):
    df = pd.DataFrame(rows, columns=["k", "v"])
    got = (
        relational.grouped_quantile(
            ray.data.from_pandas(df), ["k"], "v", q=0.5, out_name="med",
            interpolation="linear",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expected = (
        df.groupby("k")["v"].apply(lambda s: float(np.quantile(s, 0.5, method="linear")))
        .reset_index()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == expected["k"].tolist()
    assert np.allclose(got["med"].to_numpy(), expected["v"].to_numpy())


@settings(max_examples=8, deadline=None)
@given(
    st.lists(
        st.tuples(_KEYS, st.integers(min_value=0, max_value=100000)),
        min_size=1,
        max_size=40,
    )
)
def test_sessionize_matches_per_key_reference(ray_session, rows):
    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(rows, columns=["user_id", "off"])
    df["ts"] = base + pd.to_timedelta(df["off"], unit="s")
    got = (
        relational.sessionize(
            ray.data.from_pandas(df[["user_id", "ts"]]), gap=1800.0, num_partitions=3
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    gap = pd.Timedelta(seconds=1800.0)
    exp_rows = []
    for user, grp in df.groupby("user_id"):
        ts = grp["ts"].sort_values()
        new = ts.diff().gt(gap) | ts.diff().isna()
        sid = new.cumsum()
        exp_rows.append(
            (user, int(sid.max()), len(grp), int(sid.value_counts().max()))
        )
    expected = pd.DataFrame(
        exp_rows, columns=["user_id", "n_sessions", "n_events", "longest_session_events"]
    ).sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


@st.composite
def outer_join_inputs(draw):
    n_left = draw(st.integers(min_value=0, max_value=12))
    n_right = draw(st.integers(min_value=0, max_value=8))
    nullable_keys = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
    # nullable Int64 on BOTH sides: a plain int column with None upcasts to
    # float ("4.0"), which would not co-partition with the other side's int
    # "4" — the documented dtype-alignment requirement of partitioned_join
    left = pd.DataFrame(
        {"k": pd.array([draw(nullable_keys) for _ in range(n_left)], dtype="Int64"),
         "x": [draw(_VALS) for _ in range(n_left)]}
    )
    right = pd.DataFrame(
        {"k": pd.array([draw(nullable_keys) for _ in range(n_right)], dtype="Int64"),
         "y": [draw(_VALS) for _ in range(n_right)]}
    )
    return left, right


@settings(max_examples=12, deadline=None)
@given(outer_join_inputs())
def test_full_outer_join_row_accounting(ray_session, inputs):
    """|outer| = |matches| + unmatched-left + unmatched-right, with null
    keys never matching but always preserved."""
    left, right = inputs
    got = relational.partitioned_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), "k",
        left_cols=["x"], right_cols=["y"], how="outer", num_partitions=3,
    ).to_pandas()
    lk = left["k"].dropna().value_counts()
    rk = right["k"].dropna().value_counts()
    matches = sum(int(lk[k]) * int(rk[k]) for k in lk.index if k in rk.index)
    unmatched_l = int(lk.drop(rk.index, errors="ignore").sum()) + int(left["k"].isna().sum())
    unmatched_r = int(rk.drop(lk.index, errors="ignore").sum()) + int(right["k"].isna().sum())
    assert len(got) == matches + unmatched_l + unmatched_r


@settings(max_examples=12, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=150, allow_nan=False),
                min_size=0, max_size=60))
def test_value_histogram_conserves_mass(ray_session, vals):
    """Sum of bin counts == number of in-range rows; bins within [0, n_bins)."""
    df = pd.DataFrame({"v": pd.Series(vals, dtype="float64")})
    got = relational.value_histogram(
        ray.data.from_pandas(df), "v", lo=0.0, hi=100.0, width=20.0
    ).to_pandas()
    in_range = sum(1 for v in vals if 0.0 <= v < 100.0)
    # a zero-block result drops columns in to_pandas (Ray quirk) — that IS
    # the empty histogram
    total = int(got["n"].sum()) if "n" in got.columns else 0
    assert total == in_range
    if len(got):
        assert got["bin"].between(0, 4).all()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1000)),
                min_size=1, max_size=50))
def test_quota_per_group_size_and_determinism(ray_session, rows):
    """Each group keeps min(|group|, k) rows and the pick is stable across
    runs (md5 order is a pure function of the ids)."""
    df = pd.DataFrame(rows, columns=["g", "id"]).drop_duplicates("id")
    a = relational.quota_per_group(
        ray.data.from_pandas(df), ["g"], 3, id_column="id", num_partitions=2
    ).to_pandas().sort_values(["g", "id"]).reset_index(drop=True)
    b = relational.quota_per_group(
        ray.data.from_pandas(df), ["g"], 3, id_column="id", num_partitions=4
    ).to_pandas().sort_values(["g", "id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)  # partition count can't change the pick
    sizes = df.groupby("g").size().clip(upper=3)
    got_sizes = a.groupby("g").size()
    assert got_sizes.reindex(sizes.index, fill_value=0).equals(sizes)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 50),
                          st.integers(-20, 20)),
                min_size=1, max_size=40))
def test_range_window_matches_bruteforce(ray_session, rows):
    """RANGE-frame sum == per-row brute force over [ts-span, ts]."""
    df = pd.DataFrame(rows, columns=["u", "t", "v"])
    df["ts"] = pd.Timestamp("2026-01-01") + pd.to_timedelta(df["t"], unit="D")
    df["v"] = df["v"].astype("float64")
    span = pd.Timedelta(days=7)
    got = relational.range_window(
        ray.data.from_pandas(df[["u", "ts", "v"]]), "u", "ts", "v",
        span=span, fn="sum", out_name="s", num_partitions=2, round_to=6,
    ).to_pandas()
    for _, row in got.iterrows():
        grp = df[df["u"] == row["u"]]
        want = grp[(grp["ts"] >= row["ts"] - span) & (grp["ts"] <= row["ts"])]["v"].sum()
        assert abs(row["s"] - round(want, 6)) < 1e-9


# -- the hash exchange: width invariance --------------------------------------

_MIXED_KEYS = {
    "str": st.sampled_from(["a", "b", "None", "", "é", "a\x1fb"]),
    "int": st.integers(min_value=-3, max_value=3),
    "null": st.one_of(st.none(), st.sampled_from(["a", "nan", "None"])),
}


@st.composite
def keyed_frames(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_MIXED_KEYS)), min_size=1, max_size=2))
    keys = [f"k{i}" for i in range(len(kinds))]
    n = draw(st.integers(min_value=1, max_value=30))
    df = _frame(draw, n, {k: _MIXED_KEYS[kind] for k, kind in zip(keys, kinds)})
    df["v"] = [draw(_VALS) for _ in range(n)]
    return df, keys


def _rows(frame: pd.DataFrame, cols: list[str]) -> list[tuple]:
    return sorted(
        tuple("<null>" if pd.isna(v) else repr(v) for v in row)
        for row in frame[cols].itertuples(index=False)
    )


@settings(max_examples=8, deadline=None)
@given(keyed_frames())
def test_partitioned_final_is_width_invariant(ray_session, case):
    """Same result as one pandas groupby at every exchange width; 64 is
    wider than any drawn key set, so some reducers receive no rows."""
    df, keys = case

    # defined here, not at module level: Ray workers cannot import this module
    def group_counts(frame: pd.DataFrame) -> pd.DataFrame:
        return (
            frame.groupby(keys, dropna=False, sort=False)
            .agg(n=("v", "size"), s=("v", "sum"))
            .reset_index()
        )

    expected = _rows(group_counts(df), keys + ["n", "s"])
    for width in (1, 3, 64):
        got = relational.partitioned_final(
            ray.data.from_pandas(df), keys, group_counts, width
        ).to_pandas()
        assert _rows(got, keys + ["n", "s"]) == expected, width


def test_partitioned_final_pyarrow_batches(ray_session):
    import pyarrow as pa

    df = pd.DataFrame({"k": [f"key{i % 7}" for i in range(40)], "v": range(40)})

    def count(part: pa.Table) -> pa.Table:
        assert isinstance(part, pa.Table)
        assert relational.PART not in part.schema.names
        return part.group_by("k").aggregate([("v", "count"), ("v", "sum")])

    expected = _rows(
        df.groupby("k").agg(v_count=("v", "size"), v_sum=("v", "sum")).reset_index(),
        ["k", "v_count", "v_sum"],
    )
    for width in (1, 64):
        got = relational.partitioned_final(
            ray.data.from_pandas(df), ["k"], count, width, batch_format="pyarrow"
        ).to_pandas()
        assert _rows(got, ["k", "v_count", "v_sum"]) == expected, width


@settings(max_examples=10, deadline=None)
@given(keyed_frames(), st.sampled_from([1, 3, 64]))
def test_hash_partition_keeps_the_exchange_ids(case, width):
    """The one partition hash: stringified keys joined by ``\\x1f``, pandas
    siphash mod width — and the same ids from an Arrow copy of the frame."""
    import pyarrow as pa

    df, keys = case
    joined = df[keys].astype(str).agg("\x1f".join, axis=1)
    expected = pd.util.hash_pandas_object(joined, index=False).to_numpy() % width
    got = relational.hash_partition(df, keys, width)
    assert got.dtype == np.int32
    assert got.tolist() == expected.tolist()
    string_keys = df[keys].astype(str)
    arrow_keys = pa.Table.from_pandas(string_keys)
    assert (
        relational.hash_partition(arrow_keys, keys, width).tolist()
        == relational.hash_partition(string_keys, keys, width).tolist()
    )


@settings(max_examples=2, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=20
    )
)
def test_connected_components_is_width_invariant(ray_session, edges):
    from esmarc_ray.ops.graph import connected_components

    ds = ray.data.from_pandas(pd.DataFrame(edges, columns=["u", "v"]))
    narrow, wide = (
        connected_components(ds, num_partitions=width)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
        for width in (1, 64)
    )
    assert narrow.equals(wide)
    assert set(narrow["node"]) == {str(n) for pair in edges for n in pair}
