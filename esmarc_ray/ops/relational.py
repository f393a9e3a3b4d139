"""Generic relational operators expressed Ray-Data-first.

These back the SQL-checkable ``queries()`` entries of the driver contract and
demonstrate the engine's shuffle-avoidance idioms:

* :func:`partial_groupby_agg` — pre-aggregate inside map_batches (combiner),
  then a small final groupby: the shuffle moves one row per (batch × group)
  instead of every input row;
* :func:`broadcast_join` — the small side is pandas-merged inside
  map_batches; zero shuffle of the big side.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from esmarc_ray.config import derive_width


def _round_half_up(values, n_digits: int):
    """Half-AWAY-FROM-ZERO rounding (the ANSI-SQL / DuckDB ``round()``
    convention), vectorized.  ``np.round`` / Python ``round`` are half-EVEN:
    a value landing exactly on a .5 boundary would flip the oracle hash
    check nondeterministically by data — every oracle-compared float in this
    module must round through here (same form as grouped_entropy)."""
    scale = 10.0 ** n_digits
    arr = np.asarray(values, dtype="float64")
    out = np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale
    return out if out.ndim else float(out)


def partial_groupby_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    pre_map: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Partial/final groupby aggregation.

    ``aggs``: output column → (input column, fn) with fn ∈ {sum, count, min,
    max, mean}.  mean is computed as a (sum, count) pair and finalized after
    the shuffle, so the partial step stays associative.

    The final merge hash-partitions KEYS across ``num_partitions`` reducers
    and re-aggregates each partition with one vectorized pandas groupby —
    never one UDF call per distinct key (a groupby(keys).map_groups final
    pays per-group Python dispatch: ~2.5× slower at 15k groups, ruinous at
    web-scale key cardinalities).
    """
    num_partitions = _resolve_partitions(num_partitions, ds)
    plan: list[tuple[str, str, str]] = []  # (out, src, fn)
    for out, (src, fn) in aggs.items():
        if fn == "mean":
            plan.append((f"__{out}_sum", src, "sum"))
            plan.append((f"__{out}_cnt", src, "count"))
        else:
            plan.append((out, src, fn))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if pre_map is not None:
            batch = pre_map(batch)
        if batch.empty:
            return pd.DataFrame(columns=keys + [p[0] for p in plan])
        grouped = batch.groupby(keys, as_index=False, sort=False)
        out = grouped.size()[keys]
        for name, src, fn in plan:
            if fn == "count":
                out[name] = grouped[src].count()[src].to_numpy()
            else:
                out[name] = grouped[src].agg(fn)[src].to_numpy()
        return out

    def final_partition(part: pd.DataFrame) -> pd.DataFrame:
        grouped = part.groupby(keys, as_index=False, sort=False)
        out = grouped.size()[keys]
        for name, _, fn in plan:
            merge_fn = "sum" if fn in ("sum", "count") else fn
            out[name] = grouped[name].agg(merge_fn)[name].to_numpy()
        for name, (src, fn) in aggs.items():
            if fn == "mean":
                out[name] = out[f"__{name}_sum"] / out[f"__{name}_cnt"]
                out = out.drop(columns=[f"__{name}_sum", f"__{name}_cnt"])
        return out

    return partitioned_final(
        ds.map_batches(partial, batch_format="pandas"),
        keys,
        final_partition,
        num_partitions,
    )


def broadcast_join(
    big: ray.data.Dataset,
    small: pd.DataFrame,
    on: str | list[str],
    *,
    how: str = "inner",
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Map-side join: the small table rides in the task closure (serialized
    once per worker), each batch pandas-merges locally — no shuffle."""
    small = small if columns is None else small[columns]

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(small, on=on, how=how)

    return big.map_batches(join, batch_format="pandas")


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: tuple[str, ...],
    *,
    right_on: tuple[str, ...] | None = None,
    join_type: str = "inner",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Both-sides-large join: hash-partitioned on the key (Ray's native
    ``Dataset.join``), each partition joined independently — use when the
    small side is too big to broadcast (otherwise prefer
    :func:`broadcast_join`, which moves nothing).  ``num_partitions`` bounds
    per-task memory at ~|side|/P and is the knob to raise with data size."""
    num_partitions = _resolve_partitions(num_partitions, left)
    return left.join(
        right,
        join_type=join_type,
        num_partitions=num_partitions,
        on=on,
        right_on=right_on,
    )


def partitioned_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    *,
    left_cols: list[str],
    right_cols: list[str],
    num_partitions: int | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """Equi-join as union → hash-partition groupby → per-partition pandas
    merge.  Unlike :func:`hash_join` (Ray's native JoinOperator), this uses
    only task-based shuffle operators — the native join reserves an
    aggregator actor pool of ~num_partitions actors PER join, so a chain of
    joins in one DAG can exceed the cluster's CPUs and stall; this form
    chains freely.  ``left_cols`` / ``right_cols`` are the payload columns of
    each side (disjoint names; ``on`` excluded).

    ``how`` ∈ {"inner", "left", "outer"} ("full" is an alias for "outer").

    NULL semantics match SQL: rows with a null join key never match (pandas
    merge would equate NaN==NaN) — null-key rows are dropped on sides the
    join does not preserve and kept unmatched on sides it does (left side
    for ``how="left"``, both for ``how="outer"``).

    Caveat: partition routing stringifies the key, so BOTH sides must carry
    the same key dtype — a float-upcast int column (``4.0``, the NaN-
    nullable-int artifact) will not co-partition with an int ``4`` on the
    other side.  Use pandas nullable ``Int64`` when a nullable int key is
    needed (SQL engines type-unify join inputs; this operator asks the
    caller to)."""
    num_partitions = _resolve_partitions(num_partitions, left)
    if how == "full":
        how = "outer"
    all_payload = left_cols + right_cols

    def tag(side: str, payload: list[str]):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            preserved = how == "outer" or (how == "left" and side == "L")
            if not preserved:
                batch = batch[batch[on].notna()]
            out = pd.DataFrame({"__on": batch[on]})
            for c in all_payload:
                out[c] = batch[c] if c in payload else None
            out["__side"] = side
            out[PART] = hash_partition(out, "__on", num_partitions)
            return out

        return fn

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        lf = part[part["__side"] == "L"][["__on"] + left_cols]
        rf = part[part["__side"] == "R"][["__on"] + right_cols]
        # null keys never equi-match (SQL): merge only non-null keys, then
        # append preserved null-key rows unmatched (payload of the other
        # side NaN-filled).  Tagging already dropped nulls on non-preserved
        # sides, so these frames are empty unless the join keeps them.
        lnull, rnull = lf[lf["__on"].isna()], rf[rf["__on"].isna()]
        out = lf[lf["__on"].notna()].merge(rf[rf["__on"].notna()], on="__on", how=how)
        for nulls in (lnull, rnull):
            if not nulls.empty:
                out = pd.concat(
                    [out, nulls.reindex(columns=out.columns)], ignore_index=True
                )
        return out.rename(columns={"__on": on})

    tagged = left.map_batches(tag("L", left_cols), batch_format="pandas").union(
        right.map_batches(tag("R", right_cols), batch_format="pandas")
    )
    return reduce_partitions(tagged, merge)


def sort_topk(ds: ray.data.Dataset, by: str, k: int, descending: bool = True) -> ray.data.Dataset:
    """Top-k with per-batch pruning before the global sort: each batch keeps
    its own k rows, so the sort sees ≤ k × n_batches rows."""

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.nlargest(k, by) if descending else batch.nsmallest(k, by)

    return ds.map_batches(prune, batch_format="pandas").sort(by, descending=descending).limit(k)


def topk_per_group(
    ds: ray.data.Dataset,
    group_keys: list[str],
    by: list[str],
    k: int,
    *,
    descending: bool = True,
) -> ray.data.Dataset:
    """Top-k rows per group (the window-function ``row_number() <= k`` idiom).

    Partial prune: each batch keeps its own per-group top-k, so the groupby
    shuffle moves ≤ k rows per (group × batch) instead of the full table.
    ``by`` should end in a unique tie-break column for determinism.
    """
    ascending = [not descending] + [True] * (len(by) - 1)

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.sort_values(by, ascending=ascending)
            .groupby(group_keys, sort=False)
            .head(k)
        )

    def final_topk(part: pd.DataFrame) -> pd.DataFrame:
        # one vectorized sort+head per PARTITION of groups, not per group
        return (
            part.sort_values(by, ascending=ascending)
            .groupby(group_keys, sort=False)
            .head(k)
        )

    return partitioned_final(
        ds.map_batches(local_topk, batch_format="pandas"), group_keys, final_topk
    )


def distinct_count(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    out_name: str = "n_distinct",
) -> ray.data.Dataset:
    """COUNT(DISTINCT value) per group, shuffle-light: each batch first
    drops local duplicates, so the shuffle carries unique (keys, value) pairs
    per batch, then the final group counts the union's uniques."""
    cols = group_keys + [value_column]

    def local_distinct(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[cols].drop_duplicates()

    def final(part: pd.DataFrame) -> pd.DataFrame:
        out = part.groupby(group_keys, as_index=False, sort=False)[
            value_column
        ].nunique()
        return out.rename(columns={value_column: out_name})

    return partitioned_final(
        ds.map_batches(local_distinct, batch_format="pandas"), group_keys, final
    )


def broadcast_semi_join(
    big: ray.data.Dataset,
    keys,
    on: str,
    *,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi/anti join against a broadcast key collection — no shuffle; each
    batch filters locally against the (small) key set.  ndarray keys are
    kept as-is (pandas ``isin`` hashes an array vectorized); other
    iterables are materialized to a set once here, not per batch."""
    key_set = keys if isinstance(keys, np.ndarray) else set(keys)

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        mask = batch[on].isin(key_set)
        return batch[~mask] if anti else batch[mask]

    return big.map_batches(filt, batch_format="pandas")


def broadcast_asof_join(
    left: ray.data.Dataset,
    right: pd.DataFrame,
    *,
    on: str,
    by: str | None = None,
    direction: str = "backward",
    suffix: str = "_right",
) -> ray.data.Dataset:
    """As-of join: for each left row, the nearest right row at ``on`` ≤/≥ it
    (optionally per ``by`` partition).  The right side is broadcast and each
    batch runs a local ``pandas.merge_asof`` — zero shuffle of the big side.

    Partitioning assumption at scale: the right side fits in worker memory
    (index-sized); otherwise range-partition both sides on ``on`` first.
    """
    right_sorted = right.sort_values(on).reset_index(drop=True)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return batch
        right_local = right_sorted
        if right_local[on].dtype != batch[on].dtype:
            right_local = right_local.copy()
            right_local[on] = right_local[on].astype(batch[on].dtype)
        original_order = batch.index
        merged = pd.merge_asof(
            batch.sort_values(on),
            right_local,
            on=on,
            by=by,
            direction=direction,
            suffixes=("", suffix),
        )
        merged.index = batch.sort_values(on).index
        return merged.loc[original_order].reset_index(drop=True)

    return left.map_batches(join, batch_format="pandas")


PART = "__part"


def hash_partition(frame, keys, num_partitions: int) -> np.ndarray:
    """The engine's one partition hash: int32 id in ``[0, num_partitions)``
    of every row of ``frame`` (a pandas DataFrame or an Arrow table) over
    ``keys`` (a column name or a list of them).

    Each key column is stringified and a multi-key row joins its parts with
    ``"\\x1f"``, then pandas' C siphash runs vectorized over the strings —
    so equal keys land in one partition whatever their dtype on either side
    of a co-partitioned exchange, deterministically within a pandas version.
    """
    if isinstance(keys, str):
        keys = [keys]
    if isinstance(frame, pa.Table):
        cols = [frame.column(k).to_pandas() for k in keys]
    else:
        cols = [frame[k] for k in keys]
    key = cols[0].astype(str)
    for col in cols[1:]:
        key = key + "\x1f" + col.astype(str)
    return (
        pd.util.hash_pandas_object(key, index=False).to_numpy() % num_partitions
    ).astype("int32")


def reduce_partitions(
    tagged: ray.data.Dataset,
    fn: Callable,
    *,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """The engine's one reduce step: ``fn`` runs once per ``__part`` value of
    ``tagged`` (rows tagged by :func:`hash_partition`, possibly from several
    unioned inputs) and receives that partition without the ``__part``
    column.  The exchange is Ray's sort-based groupby (its ``HASH_SHUFFLE``
    strategy measured 1.5–3× slower here); a reducer that receives no rows
    emits a schemaless empty block and ``fn`` is never called for it."""
    if batch_format == "pyarrow":

        def run(part):
            return fn(part.drop_columns([PART]))

    else:

        def run(part):
            return fn(part.drop(columns=PART))

    # Ray names the reduce operator after the UDF: keep the caller's name
    run.__name__ = getattr(fn, "__name__", run.__name__)
    return tagged.groupby(PART).map_groups(run, batch_format=batch_format)


def partitioned_final(
    ds: ray.data.Dataset,
    keys: list[str],
    final_fn: Callable,
    num_partitions: int | None = None,
    *,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """Run a final/merge step once per hash-PARTITION of the keys instead of
    once per distinct key: replaces ``groupby(keys).map_groups(per_key_fn)``,
    which pays Ray block-slice + Python dispatch per group (ruinous at
    web-scale key cardinalities).  ``final_fn`` receives every partial row of
    every key hashed to the partition and must group internally (vectorized
    ``df.groupby`` — or a plain Python loop over groups when the per-key merge
    is irreducibly scalar: that loop runs inside ONE task, not one task per
    key).  ``batch_format`` ("pandas" or "pyarrow") is the batch type both
    the tag step and ``final_fn`` see.

    This is :func:`hash_partition` as a tag step followed by
    :func:`reduce_partitions`; co-partitioned multi-input exchanges (joins,
    iterative graph rounds) tag each input themselves and union them before
    the same reduce step."""
    num_partitions = _resolve_partitions(num_partitions, ds)

    if batch_format == "pyarrow":

        def add_part(batch: pa.Table) -> pa.Table:
            parts = hash_partition(batch, keys, num_partitions)
            return batch.append_column(PART, pa.array(parts, pa.int32()))

    else:

        def add_part(batch: pd.DataFrame) -> pd.DataFrame:
            batch[PART] = hash_partition(batch, keys, num_partitions)
            return batch

    return reduce_partitions(
        ds.map_batches(add_part, batch_format=batch_format),
        final_fn,
        batch_format=batch_format,
    )


def _resolve_partitions(num_partitions: int | None, ds=None) -> int:
    """Shared shuffle-width resolution: an explicit caller value wins; None
    routes through :func:`esmarc_ray.config.derive_partitions` (env knob →
    byte-derived when the input's size is metadata-cheap → 2 × cluster CPUs)
    so defaults scale with the deployment instead of freezing at 32/64."""
    if num_partitions is not None:
        return num_partitions
    from esmarc_ray.config import dataset_size_hint, derive_partitions

    return derive_partitions(dataset_size_hint(ds) if ds is not None else None)


def partitioned_semi_join(
    big: ray.data.Dataset,
    keys: ray.data.Dataset,
    on: str,
    *,
    key_column: str | None = None,
    anti: bool = False,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distributed semi/anti join: both sides hash-partition on the key; each
    partition filters its big-side rows against the local key set.  Unlike
    :func:`broadcast_semi_join`, the key side is a Dataset and never touches
    the driver — the scale path when the key set outgrows a broadcast (the
    filter-side analogue of :func:`partitioned_join`).
    """
    num_partitions = _resolve_partitions(num_partitions, big)
    key_column = key_column or on
    big_cols = list(big.schema().names)

    def tag_big(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__side"] = "b"
        batch[PART] = hash_partition(batch, on, num_partitions)
        return batch

    def tag_keys(batch: pd.DataFrame) -> pd.DataFrame:
        # unified union schema: the key side carries the big side's columns
        # as nulls (local per-batch dedup shrinks the shuffle first)
        uniq = batch[key_column].dropna().drop_duplicates().reset_index(drop=True)
        out = pd.DataFrame({c: (uniq if c == on else None) for c in big_cols})
        out["__side"] = "k"
        out[PART] = hash_partition(out, on, num_partitions)
        return out

    def filt(part: pd.DataFrame) -> pd.DataFrame:
        key_set = set(part.loc[part["__side"] == "k", on])
        rows = part[part["__side"] == "b"]
        mask = rows[on].isin(key_set)
        return rows[~mask if anti else mask][big_cols]

    tagged = big.map_batches(tag_big, batch_format="pandas").union(
        keys.map_batches(tag_keys, batch_format="pandas")
    )
    return reduce_partitions(tagged, filt)


def partitioned_asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: str,
    by: str,
    direction: str = "backward",
    tolerance=None,
    suffix: str = "_right",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Distributed as-of join: both sides hash-partition on the ``by`` key,
    then each partition runs one local sorted ``pandas.merge_asof`` — the
    scale path when the right side is itself a big event stream (the
    broadcast variant :func:`broadcast_asof_join` assumes an index-sized
    right table).  Left-join semantics: unmatched left rows keep nulls.

    ``direction`` ∈ {"backward", "forward", "nearest"} and ``tolerance``
    (e.g. ``pd.Timedelta("1h")``) pass through to ``merge_asof``: forward =
    the NEXT right event at or after the left row; tolerance turns matches
    staler than the bound into non-matches (bounded-staleness semantics).

    Partitioning assumption at scale: one ``by``-bucket's rows from BOTH
    sides fit in a task (true for per-user event streams); raise
    ``num_partitions`` with data size.  A ``by``-less global as-of would
    need range partitioning on ``on`` instead.

    Right payload columns (other than ``on``/``by``) must not collide with
    left column names — rename them first.  Output columns: left columns +
    right payload columns (``on``/``by`` appear once, from the left side).

    NULL semantics match SQL ASOF LEFT JOIN: a null ``by`` key never
    matches — null-key right rows are dropped, null-key LEFT rows are kept
    unmatched (routed through a reserved left-only partition).
    """
    num_partitions = _resolve_partitions(num_partitions, left)
    left_cols = list(left.schema().names)
    right_cols = list(right.schema().names)
    right_payload = [c for c in right_cols if c not in (on, by)]
    collisions = set(right_payload) & set(left_cols)
    if collisions:
        raise ValueError(f"rename right columns colliding with left: {sorted(collisions)}")
    # unified union schema: on/by shared, each side's payload null on the other
    all_cols = left_cols + right_payload

    def tag(side: str, own: list[str]):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({c: (batch[c] if c in own else None) for c in all_cols})
            out["__side"] = side
            part = hash_partition(batch, by, num_partitions)
            mask = batch[by].notna().to_numpy()
            if side == "R":
                out[PART] = part
                return out[mask]
            # null-`by` LEFT rows can never match; send them to a reserved
            # left-only partition so they surface unmatched (SQL LEFT JOIN)
            out[PART] = np.where(mask, part, num_partitions).astype("int32")
            return out

        return fn

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        lf = part.loc[part["__side"] == "L", left_cols].sort_values(on, kind="mergesort")
        rf = part.loc[part["__side"] == "R", right_cols].sort_values(on, kind="mergesort")
        if rf.empty:
            out = lf.copy()
            for c in right_payload:
                out[c] = None
            return out.reset_index(drop=True)
        return pd.merge_asof(
            lf, rf, on=on, by=by, direction=direction, tolerance=tolerance,
            suffixes=("", suffix),
        ).reset_index(drop=True)

    tagged = left.map_batches(tag("L", left_cols), batch_format="pandas").union(
        right.map_batches(tag("R", right_cols), batch_format="pandas")
    )
    return reduce_partitions(tagged, merge)


@derive_width
def running_window(
    ds: ray.data.Dataset,
    *,
    partition_by: str,
    order_by: list[str],
    value_column: str,
    out_name: str = "running_value",
    fn: str = "sum",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Cumulative window aggregate per partition key — the
    ``sum(x) OVER (PARTITION BY k ORDER BY o)`` idiom.
    ``fn`` ∈ {sum, max, min, count} (count = ``count(*) OVER`` = cumcount).

    Keys hash-bucket into ``num_partitions`` (ONE reducer task per bucket,
    not per key — a per-key ``map_groups`` pays one UDF task per distinct
    key, which is ruinous at millions of keys); inside a bucket the body is
    one vectorized sort + pandas ``groupby(...).cumsum()``.  Partitioning
    assumption at scale: one bucket's rows (~|input|/P) fit in a task —
    raise ``num_partitions`` with data size.  For a single GLOBAL running
    total, range-partition on ``order_by`` and prefix-sum per-partition
    totals instead.
    """
    cum = {"sum": "cumsum", "max": "cummax", "min": "cummin", "count": None}[fn]

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        out = (
            part.sort_values([partition_by] + order_by)
            .reset_index(drop=True)
        )
        grouped = out.groupby(partition_by, sort=False)
        if fn == "count":
            out[out_name] = grouped.cumcount() + 1
        else:
            out[out_name] = getattr(grouped[value_column], cum)()
        return out

    return partitioned_final(ds, [partition_by], per_partition, num_partitions)


def broadcast_range_join(
    big: ray.data.Dataset,
    intervals: pd.DataFrame,
    *,
    value_column: str,
    lo_column: str = "lo",
    hi_column: str = "hi",
) -> ray.data.Dataset:
    """Range (band) join: assign each big-side row to the broadcast interval
    with ``lo <= value <= hi``.  Intervals must be non-overlapping; rows
    outside every interval are dropped (inner-join semantics).

    Vectorized via ``np.searchsorted`` against the sorted interval bounds —
    O(batch log n_intervals), no shuffle of the big side.  This is the
    scale path for reference-style banded lookups; for overlapping intervals
    use an interval tree inside an actor pool instead.
    """
    import numpy as np

    iv = intervals.sort_values(lo_column).reset_index(drop=True)
    lo = iv[lo_column].to_numpy()
    hi = iv[hi_column].to_numpy()
    if (lo[1:] <= hi[:-1]).any():
        raise ValueError("broadcast_range_join requires non-overlapping intervals")
    payload = iv.drop(columns=[lo_column, hi_column])

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        vals = batch[value_column].to_numpy()
        idx = np.searchsorted(lo, vals, side="right") - 1
        ok = (idx >= 0) & (vals <= hi[np.clip(idx, 0, len(hi) - 1)])
        out = batch[ok].reset_index(drop=True)
        matched = payload.iloc[idx[ok]].reset_index(drop=True)
        return pd.concat([out, matched], axis=1)

    return big.map_batches(join, batch_format="pandas")


def interval_overlap_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_start: str,
    left_end: str,
    right_start: str,
    right_end: str | None = None,
    by: str | None = None,
    left_cols: list[str],
    right_cols: list[str],
    bin_width=None,
    num_partitions: int | None = None,
    skew_threshold: int | None = 100_000,
    hot_key_widths: dict | None = None,
    hot_bins: int | None = None,
) -> ray.data.Dataset:
    """Distributed interval-OVERLAP join (the general "range join"):
    emit (l, r) whenever ``l.start <= r.end AND r.start <= l.end`` (closed
    ends), optionally only within equal ``by`` keys.  Unlike
    :func:`broadcast_range_join` both sides are large Datasets and
    intervals MAY overlap each other; ``right_end=None`` treats the right
    side as points (``start == end``).

    Physical plan — co-partition on ``(by, time-bin)``:

    * every row replicates into each ``bin_width``-wide bin its interval
      touches (points land in exactly one);
    * partitions groupby-shuffle on ``hash(by, bin)``; each reducer merges
      left×right per bin and filters the overlap predicate;
    * a pair whose intervals share several bins would match once per shared
      bin — the CANONICAL-BIN rule (emit only in the bin containing
      ``max(l.start, r.start)``) makes every pair match exactly once with
      NO dedup shuffle.

    ``bin_width=None`` requires ``by`` and uses one bin per key (the
    per-user/per-entity case where a key's rows fit in a task).  At scale
    pick ``bin_width`` on the order of the typical interval length: the
    replication factor is ~1 + len/width while the per-bin cross product
    shrinks with the width.

    SKEW GUARD (by-only mode): one hot key (one user with millions of
    events) would otherwise land its entire row set in a single reducer
    task.  Before planning, a cheap heavy-hitter scan (per-block top-key
    counts + per-key time span, folded driver-side — never the rows) finds
    keys whose combined row count exceeds ``skew_threshold``; each hot key
    auto-switches to the binned plan with its OWN width (span /
    ``hot_bins``), spreading it over ~``hot_bins`` reducers while cold keys
    keep the cheap single-bin route.  Both plans are exact, so the guard is
    purely a straggler defense — mis-estimation can't change the result
    (gated by the planted hot-key test in tests/test_ops.py).
    ``skew_threshold=None`` disables the scan; ``hot_key_widths`` supplies
    the {key: width} map directly (skipping the extra pass over the
    inputs, which re-executes their upstream — pass it when upstreams are
    expensive and key stats are already known).

    Timestamps normalize to int64 microseconds on both sides;
    ``bin_width`` accepts anything ``pd.Timedelta`` accepts (or an int in
    the same unit as integer columns).  Payload column names must be
    disjoint across sides.  Oracle pattern: a plain DuckDB inequality join
    re-derives the result (see ``overlapping_orders`` / ``open_window_events``).
    """
    if bin_width is None and by is None:
        raise ValueError("interval_overlap_join needs bin_width or by (or both)")
    num_partitions = _resolve_partitions(num_partitions, left)

    def _to_i64(series: pd.Series) -> pd.Series:
        if pd.api.types.is_datetime64_any_dtype(series):
            return series.astype("datetime64[us]").astype("int64")
        return series.astype("int64")

    width = None
    if bin_width is not None:
        if isinstance(bin_width, (int, np.integer)):
            width = int(bin_width)
        else:
            width = int(pd.Timedelta(bin_width).value // 1000)  # ns → µs

    def _hot_scan(side: ray.data.Dataset, start: str, end: str | None):
        """Per-block (key, count, min-start, max-end) partials, top 1024
        keys by count per block — the driver folds a few small frames
        (``to_pandas`` of the partials, never per-row ``take_all``, whose
        ~1 ms/row pandas-row conversion dwarfed the scan itself).

        Coverage is heuristically capped (top-1024 per block, top-64 hot
        keys overall): a key hot enough to straggle a reducer appears in
        nearly every block and survives the per-block cut, but a key spread
        thinly below other locally-hotter keys can be undercounted and stay
        on the cold path.  That miss costs SPEED only — both plans are
        exact — and the caps bound the driver fold to O(blocks · 1024)
        rows regardless of key cardinality."""

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            s = _to_i64(batch[start])
            e = s if end is None else _to_i64(batch[end])
            agg = (
                pd.DataFrame({"k": batch[by], "s": s, "e": e})
                .groupby("k", sort=False)
                .agg(n=("s", "size"), mn=("s", "min"), mx=("e", "max"))
                .reset_index()
                .nlargest(1024, "n")
            )
            return agg

        return side.map_batches(partial, batch_format="pandas").to_pandas()

    if width is None and hot_key_widths is None and skew_threshold is not None:
        # Cheap small-input gate: a hot key needs >= skew_threshold rows
        # across BOTH sides, so if the combined row count is provably below
        # the threshold no key can trip — skip the scan AND the
        # materialization and keep the original streaming plan.  limit()
        # executes only enough blocks to produce its cap, so the probe is
        # O(threshold) rows on huge inputs and a full (cheap) pass on small
        # ones.
        n_left = left.limit(skew_threshold).count()
        n_right = (
            right.limit(skew_threshold - n_left).count()
            if n_left < skew_threshold else 0
        )
        if n_left + n_right < skew_threshold:
            skew_threshold = None
    if width is None and hot_key_widths is None and skew_threshold is not None:
        # The scan is a second pass over both inputs; materialize them so
        # the join's own consumption reuses the computed blocks instead of
        # re-executing the upstream pipelines (they are about to be
        # exchanged anyway — the object store spills if they don't fit).
        # At 100 TB this pins/spills both inputs; callers with cheap
        # upstreams that prefer a second streaming pass can pass
        # ``hot_key_widths={}`` (skip the guard) or tune skew_threshold.
        left = left.materialize()
        right = right.materialize()
        stats = pd.concat(
            [
                _hot_scan(left, left_start, left_end),
                _hot_scan(right, right_start, right_end),
            ],
            ignore_index=True,
        )
        folded_df = (
            stats.groupby("k", sort=False)
            .agg(n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
            .reset_index()
        ) if len(stats) else stats
        hot = sorted(
            (
                (int(r.n), r.k, r.mn, r.mx)
                for r in folded_df.itertuples(index=False)
                if int(r.n) >= skew_threshold
            ),
            reverse=True,
        )[:64]
        bins = hot_bins or max(8, num_partitions)
        hot_key_widths = {
            k: max(1, int(mx - mn) // bins + 1) for _, k, mn, mx in hot
        }
    hot_widths = hot_key_widths or {}

    out_left = list(left_cols)
    out_right = list(right_cols)
    all_cols = out_left + out_right
    if by is not None and by not in all_cols:
        all_cols = [by] + all_cols

    def _prep(side: str, start: str, end: str | None, own: list[str]):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            s = _to_i64(batch[start])
            e = s if end is None else _to_i64(batch[end])
            df = pd.DataFrame({c: batch[c] for c in own})
            if by is not None and by not in own:
                df[by] = batch[by]
            df["__s"], df["__e"] = s, e

            def replicate(sub: pd.DataFrame, wk: int) -> pd.DataFrame:
                b0 = (sub["__s"] // wk).to_numpy()
                b1 = (sub["__e"] // wk).to_numpy()
                reps = (b1 - b0 + 1).astype(np.int64)
                take = np.repeat(np.arange(len(sub)), reps)
                offs = np.concatenate([[0], np.cumsum(reps)[:-1]])
                sub = sub.iloc[take].reset_index(drop=True)
                sub["__bin"] = b0.repeat(reps) + (
                    np.arange(len(take)) - offs.repeat(reps)
                )
                sub["__w"] = wk
                return sub

            if width is not None:
                df = replicate(df, width)
            elif hot_widths:
                w = (
                    df[by]
                    .map(hot_widths)
                    .fillna(0)
                    .astype("int64")
                    .to_numpy()
                )
                cold = df[w == 0].copy()
                cold["__bin"], cold["__w"] = 0, 0
                pieces = [cold]
                for wk in np.unique(w[w > 0]):
                    pieces.append(replicate(df[w == wk], int(wk)))
                df = pd.concat(pieces, ignore_index=True)
            else:
                df["__bin"], df["__w"] = 0, 0
            df["__side"] = side
            df[PART] = hash_partition(
                df, ["__bin"] if by is None else [by, "__bin"], num_partitions
            )
            # unified union schema
            for c in all_cols:
                if c not in df.columns:
                    df[c] = None
            return df[
                all_cols + ["__s", "__e", "__bin", "__w", "__side", PART]
            ]

        return fn

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        lhs = part[part["__side"] == "l"]
        rhs = part[part["__side"] == "r"]
        if lhs.empty or rhs.empty:
            return pd.DataFrame(columns=all_cols)
        on = ["__bin"] + ([by] if by is not None else [])
        # ordered-dedup: `by` may itself be a payload column of either side
        keep_l = list(dict.fromkeys(on + out_left + ["__s", "__e", "__w"]))
        keep_r = list(dict.fromkeys(on + out_right + ["__s", "__e"]))
        m = lhs[keep_l].merge(
            rhs[keep_r], on=on, suffixes=("", "__r")
        )
        if m.empty:
            return pd.DataFrame(columns=all_cols)
        ok = (m["__s"] <= m["__e__r"]) & (m["__s__r"] <= m["__e"])
        # canonical-bin dedup for binned rows (__w > 0): per-row width so
        # static bin_width and per-hot-key widths share one rule; cold rows
        # (__w == 0, single bin) never replicate so nothing to dedup
        w = m["__w"].to_numpy()
        binned = w > 0
        if binned.any():
            canon = np.maximum(
                m["__s"].to_numpy(), m["__s__r"].to_numpy()
            ) // np.where(binned, w, 1)
            ok &= ~binned | (canon == m["__bin"].to_numpy())
        return m.loc[ok, all_cols].reset_index(drop=True)

    tagged = left.map_batches(
        _prep("l", left_start, left_end, out_left), batch_format="pandas"
    ).union(
        right.map_batches(
            _prep("r", right_start, right_end, out_right), batch_format="pandas"
        )
    )
    return reduce_partitions(tagged, merge)


def grouped_quantile(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    q: float = 0.5,
    out_name: str = "quantile",
    interpolation: str = "linear",
) -> ray.data.Dataset:
    """Exact per-group quantile via one groupby shuffle + vectorized
    ``np.quantile`` per group.  ``interpolation="linear"`` is SQL
    ``percentile_cont``; ``"discrete"`` is ``percentile_disc`` /
    ``quantile_disc`` (an actual data value — prefer it when downstream
    compares rounded values, since it has no interpolation midpoints).

    Keys hash-bucket into partitions (one reducer per bucket, not per key);
    the per-bucket body is one sort + a fully vectorized positional gather
    over the contiguous group runs — no per-group UDF dispatch.  Partitioning
    assumption at scale: a bucket's values fit in a task.  For head groups
    that don't, switch to a mergeable sketch (:func:`approx_quantile`) —
    exactness is the point of THIS op, so it shuffles the column rather than
    approximating.
    """
    import numpy as np

    if interpolation not in ("linear", "discrete"):
        raise ValueError(f"unknown interpolation {interpolation!r}")

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(group_keys + [value_column])
        vals = part[value_column].to_numpy(dtype="float64")
        grouped = part.groupby(group_keys, sort=False)
        sizes_series = grouped.size()
        sizes = sizes_series.to_numpy()
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        if interpolation == "discrete":
            # percentile_disc / numpy inverted_cdf: ceil(q*n)-th sorted value
            idx = np.maximum(np.ceil(q * sizes).astype(np.int64), 1) - 1
            res = vals[starts + idx]
        else:
            # percentile_cont: linear interpolation at rank q*(n-1)
            pos = q * (sizes - 1)
            lo = np.floor(pos).astype(np.int64)
            hi = np.ceil(pos).astype(np.int64)
            frac = pos - lo
            res = vals[starts + lo] * (1 - frac) + vals[starts + hi] * frac
        out = sizes_series.reset_index()[group_keys].copy()
        out[out_name] = res.astype("float64")
        return out

    num_partitions = _resolve_partitions(None, ds)
    return partitioned_final(
        ds.select_columns(group_keys + [value_column]),
        group_keys,
        per_partition,
        num_partitions,
    )


def approx_quantile(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    q: float = 0.5,
    *,
    lo: float,
    hi: float,
    n_bins: int = 2048,
    out_name: str = "quantile",
) -> ray.data.Dataset:
    """Approximate per-group quantile from mergeable fixed-bin histograms —
    the scale path where :func:`grouped_quantile` would shuffle a head
    group's entire value column through one task.

    Each batch emits one histogram row per group (n_bins counts over the
    [lo, hi] value range, computed with a vectorized np.bincount); the final
    groupby sums histograms and inverts the CDF.  Error is bounded by the bin
    width (hi-lo)/n_bins; values outside [lo, hi] clamp to the edge bins.
    Shuffle volume: n_bins ints per (batch × group), independent of row count.
    """
    import numpy as np

    width = (hi - lo) / n_bins
    bin_cols = [f"__b{i}" for i in range(n_bins)]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key_vals, group in batch.groupby(group_keys, sort=False):
            if not isinstance(key_vals, tuple):
                key_vals = (key_vals,)
            idx = np.clip(
                ((group[value_column].to_numpy() - lo) / width).astype(np.int64), 0, n_bins - 1
            )
            counts = np.bincount(idx, minlength=n_bins)
            rows.append(dict(zip(group_keys, key_vals)) | dict(zip(bin_cols, counts)))
        return pd.DataFrame(rows, columns=group_keys + bin_cols)

    def final(part: pd.DataFrame) -> pd.DataFrame:
        # merge histograms for EVERY group in the partition at once: 2-D
        # cumsum + row-wise searchsorted, no per-group Python dispatch
        out = part.groupby(group_keys, as_index=False, sort=False)[bin_cols].sum()
        cdf = np.cumsum(out[bin_cols].to_numpy(), axis=1)
        rank = q * cdf[:, -1]
        b = (cdf < rank[:, None]).sum(axis=1)  # == searchsorted(side="left")
        out = out.drop(columns=bin_cols)
        out[out_name] = lo + (b + 0.5) * width
        return out

    return partitioned_final(
        ds.select_columns(group_keys + [value_column]).map_batches(
            partial, batch_format="pandas"
        ),
        group_keys,
        final,
    )


def pivot_counts(
    ds: ray.data.Dataset,
    group_keys: list[str],
    pivot_column: str,
    categories: list[str],
    *,
    prefix: str = "n_",
) -> ray.data.Dataset:
    """Conditional-aggregate pivot: one output row per group, one count
    column per category (the ``count(*) FILTER (WHERE ...)`` idiom).

    Implemented as indicator columns + :func:`partial_groupby_agg`, so the
    shuffle moves one partial row per (batch × group), never the input.
    ``categories`` must be the closed known set — a dynamic category set
    would make the output schema data-dependent (do a groupby count then
    pivot driver-side for that case)."""

    def indicators(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[group_keys].copy()
        for cat in categories:
            out[f"{prefix}{cat}"] = (batch[pivot_column] == cat).astype("int64")
        return out

    aggs = {f"{prefix}{c}": (f"{prefix}{c}", "sum") for c in categories}
    return partial_groupby_agg(ds, group_keys, aggs, pre_map=indicators)


def _stringify_keys(keys: list[str]):
    """Cast grouping key columns to string so rolled-up levels (which write
    the string ``all_label`` into absent keys) union with consistent Arrow
    types — numeric keys would otherwise produce int64-vs-string blocks that
    fail at execution."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        for k in keys:
            batch[k] = batch[k].astype(str)
        return batch

    return fn


def rollup_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    pre_map: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    all_label: str = "ALL",
) -> ray.data.Dataset:
    """GROUP BY ROLLUP(keys): aggregates at every key prefix, coarser levels
    re-aggregated from the FINEST level's (small) output rather than from the
    input — the input shuffles once, each subsequent level reduces rows that
    number (groups), not (rows).  Subtotal rows carry ``all_label`` in the
    rolled-up key columns.  Restriction: ``aggs`` must be re-aggregable from
    partials (sum/count/min/max — count re-sums; mean is not supported)."""
    for out, (_, fn) in aggs.items():
        if fn == "mean":
            raise ValueError("rollup_agg: mean is not re-aggregable; compute sum+count")

    finest = partial_groupby_agg(ds, keys, aggs, pre_map=pre_map).map_batches(
        _stringify_keys(keys), batch_format="pandas"
    ).materialize()
    # re-aggregate the finest level upward: at each coarser level, partials
    # re-combine (count -> sum of counts)
    levels = [finest]
    current_cols = {out: fn for out, (_, fn) in aggs.items()}
    for depth in range(len(keys) - 1, -1, -1):
        kept = keys[:depth]
        realised = {
            out: (out, "sum" if fn in ("sum", "count") else fn)
            for out, fn in current_cols.items()
        }
        if kept:
            level = partial_groupby_agg(finest, kept, realised)
        else:
            def grand_total(batch: pd.DataFrame) -> pd.DataFrame:
                row = {}
                for out, fn in current_cols.items():
                    if fn in ("sum", "count"):
                        row[out] = [batch[out].sum()]
                    elif fn == "min":
                        row[out] = [batch[out].min()]
                    else:
                        row[out] = [batch[out].max()]
                return pd.DataFrame(row)

            level = finest.map_batches(grand_total, batch_format="pandas").repartition(1) \
                .map_batches(grand_total, batch_format="pandas")

        def fill(batch: pd.DataFrame, _kept=tuple(kept)) -> pd.DataFrame:
            for key in keys:
                if key not in _kept:
                    batch[key] = all_label
            return batch[keys + list(aggs)]

        levels.append(level.map_batches(fill, batch_format="pandas"))

    out = levels[0].map_batches(
        lambda b: b[keys + list(aggs)], batch_format="pandas"
    )
    for level in levels[1:]:
        out = out.union(level)
    return out


def cube_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    pre_map: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    all_label: str = "ALL",
) -> ray.data.Dataset:
    """GROUP BY CUBE(keys): aggregates at EVERY key subset (2^|keys| levels),
    all re-aggregated from the finest level's (small) output — the input
    shuffles exactly once, every other level reduces rows that number
    (groups), not (rows).  Subtotal rows carry ``all_label`` in rolled-up key
    columns.  Same re-aggregability restriction as :func:`rollup_agg`
    (sum/count/min/max; no mean)."""
    from itertools import combinations

    for out, (_, fn) in aggs.items():
        if fn == "mean":
            raise ValueError("cube_agg: mean is not re-aggregable; compute sum+count")

    finest = partial_groupby_agg(ds, keys, aggs, pre_map=pre_map).map_batches(
        _stringify_keys(keys), batch_format="pandas"
    ).materialize()
    realised = {
        out: (out, "sum" if fn in ("sum", "count") else fn)
        for out, (_, fn) in aggs.items()
    }
    levels = [finest.map_batches(lambda b: b[keys + list(aggs)], batch_format="pandas")]
    subsets = [
        list(sub)
        for r in range(len(keys) - 1, -1, -1)
        for sub in combinations(keys, r)
    ]
    for kept in subsets:
        if kept:
            level = partial_groupby_agg(finest, kept, realised)
        else:
            def grand_total(batch: pd.DataFrame) -> pd.DataFrame:
                row = {}
                for out, (_, fn) in realised.items():
                    row[out] = [getattr(batch[out], fn)()]
                return pd.DataFrame(row)

            level = (
                finest.map_batches(grand_total, batch_format="pandas")
                .repartition(1)
                .map_batches(grand_total, batch_format="pandas")
            )

        def fill(batch: pd.DataFrame, _kept=tuple(kept)) -> pd.DataFrame:
            for key in keys:
                if key not in _kept:
                    batch[key] = all_label
            return batch[keys + list(aggs)]

        levels.append(level.map_batches(fill, batch_format="pandas"))

    out = levels[0]
    for level in levels[1:]:
        out = out.union(level)
    return out


def grouping_sets_agg(
    ds: ray.data.Dataset,
    sets: list[list[str]],
    aggs: dict[str, tuple[str, str]],
    *,
    pre_map: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    all_label: str = "ALL",
) -> ray.data.Dataset:
    """GROUP BY GROUPING SETS(sets): aggregates at each EXPLICIT key subset —
    the general form of :func:`rollup_agg` (prefixes) and :func:`cube_agg`
    (all subsets).  The input shuffles ONCE into the finest level (union of
    all keys named by any set); every requested set re-aggregates that
    (small) output.  Absent key columns of a set carry ``all_label``.  Same
    re-aggregability restriction (sum/count/min/max; no mean)."""
    for out, (_, fn) in aggs.items():
        if fn == "mean":
            raise ValueError(
                "grouping_sets_agg: mean is not re-aggregable; compute sum+count"
            )
    keys: list[str] = []
    for s in sets:
        for k in s:
            if k not in keys:
                keys.append(k)

    finest = partial_groupby_agg(ds, keys, aggs, pre_map=pre_map).map_batches(
        _stringify_keys(keys), batch_format="pandas"
    ).materialize()
    realised = {
        out: (out, "sum" if fn in ("sum", "count") else fn)
        for out, (_, fn) in aggs.items()
    }
    levels = []
    for kept in sets:
        if sorted(kept) == sorted(keys):
            level = finest
        elif kept:
            level = partial_groupby_agg(finest, list(kept), realised)
        else:

            def grand_total(batch: pd.DataFrame) -> pd.DataFrame:
                row = {}
                for out, (_, fn) in realised.items():
                    row[out] = [getattr(batch[out], fn)()]
                return pd.DataFrame(row)

            level = (
                finest.map_batches(grand_total, batch_format="pandas")
                .repartition(1)
                .map_batches(grand_total, batch_format="pandas")
            )

        def fill(batch: pd.DataFrame, _kept=tuple(kept)) -> pd.DataFrame:
            for key in keys:
                if key not in _kept:
                    batch[key] = all_label
            return batch[keys + list(aggs)]

        levels.append(level.map_batches(fill, batch_format="pandas"))

    out = levels[0]
    for level in levels[1:]:
        out = out.union(level)
    return out


def grouped_standardize(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    *,
    out_name: str = "value_z",
    round_to: int = 4,
) -> ray.data.Dataset:
    """Per-group z-score standardization (the feature-scaling pass of a
    training-data pipeline): ``z = (v - mean_g) / stddev_pop_g``, zero for
    zero-variance groups.

    Two streaming passes, no row shuffle: a combiner pass reduces to the
    per-group (count, sum, sumsq) moment table (one partial row per
    batch × group — the table is O(|groups|), not O(rows)); the collected
    moments ride the scoring task's closure and every row is transformed
    vectorized in place.  The explicit ``s2/n - mean²`` formula (not a
    Welford fold) is what makes the transform bit-reproducible by any SQL
    engine given the same sums.  Rounds half-away-from-zero (oracle
    convention).
    """
    import numpy as np

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[keys].copy()
        vals = batch[value_column].astype("float64")
        out["__v"] = vals
        out["__v2"] = vals * vals
        return out

    moments = partial_groupby_agg(
        ds,
        keys,
        {"__n": ("__v", "count"), "__s": ("__v", "sum"), "__s2": ("__v2", "sum")},
        pre_map=pre,
    ).to_pandas()  # O(|groups|) — the op's entire driver footprint
    n = moments["__n"].to_numpy(dtype="float64")
    mean = moments["__s"].to_numpy() / n
    var = np.maximum(moments["__s2"].to_numpy() / n - mean * mean, 0.0)
    sd = np.sqrt(var)
    key_of = moments[keys].astype(str).agg("\x1f".join, axis=1) if len(keys) > 1 else moments[keys[0]].astype(str)
    mean_map = dict(zip(key_of, mean))
    sd_map = dict(zip(key_of, sd))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        k = (
            batch[keys].astype(str).agg("\x1f".join, axis=1)
            if len(keys) > 1
            else batch[keys[0]].astype(str)
        )
        m = k.map(mean_map).to_numpy(dtype="float64")
        s = k.map(sd_map).to_numpy(dtype="float64")
        v = batch[value_column].astype("float64").to_numpy()
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(s == 0.0, 0.0, (v - m) / s)
        batch[out_name] = _round_half_up(z, round_to)
        return batch

    return ds.map_batches(score, batch_format="pandas")


def _key_series(df: pd.DataFrame, keys: list[str]) -> pd.Series:
    return (
        df[keys].astype(str).agg("\x1f".join, axis=1)
        if len(keys) > 1
        else df[keys[0]].astype(str)
    )


def grouped_minmax_scale(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    *,
    out_name: str = "value_mm",
    round_to: int = 6,
) -> ray.data.Dataset:
    """Per-group min-max scaling to [0, 1]; constant groups map to 0.

    Same two-streaming-pass plan as :func:`grouped_standardize`: a combiner
    reduces to the O(|groups|) (min, max) bounds table that rides the scoring
    closure; rows never shuffle.  Unlike sum-based scalers this transform is
    bit-exact across engines — min/max carry no float-accumulation order."""
    import numpy as np

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[keys].copy()
        out["__v"] = batch[value_column].astype("float64")
        return out

    bounds = partial_groupby_agg(
        ds, keys, {"__lo": ("__v", "min"), "__hi": ("__v", "max")}, pre_map=pre
    ).to_pandas()
    key_of = _key_series(bounds, keys)
    lo_map = dict(zip(key_of, bounds["__lo"].to_numpy(dtype="float64")))
    hi_map = dict(zip(key_of, bounds["__hi"].to_numpy(dtype="float64")))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        k = _key_series(batch, keys)
        lo = k.map(lo_map).to_numpy(dtype="float64")
        hi = k.map(hi_map).to_numpy(dtype="float64")
        v = batch[value_column].astype("float64").to_numpy()
        rng = hi - lo
        mm = np.where(rng == 0.0, 0.0, (v - lo) / np.where(rng == 0.0, 1.0, rng))
        batch[out_name] = _round_half_up(mm, round_to)
        return batch

    return ds.map_batches(score, batch_format="pandas")


def grouped_robust_scale(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    *,
    out_name: str = "value_rs",
    round_to: int = 6,
) -> ray.data.Dataset:
    """Outlier-robust per-group feature scaling: ``(v − median) / IQR``
    (``percentile_cont`` semantics), 0 for zero-IQR groups — the scaler of
    choice when heavy tails would wreck a z-score.

    The exact q25/q50/q75 come from ONE hash-partitioned shuffle
    (:func:`grouped_quantiles_multi` shares the sorted runs across all three
    quantiles); the O(|groups|) quantile table then rides the map-only
    transform's closure.  The lo*(1−frac)+hi*frac interpolation is the same
    float path as SQL ``percentile_cont``, so the result is
    oracle-reproducible."""
    import numpy as np

    q = grouped_quantiles_multi(
        ds, keys, value_column, [0.25, 0.5, 0.75]
    ).to_pandas()
    key_of = _key_series(q, keys)
    maps = {
        qq: dict(zip(key_of[q["q"] == qq], q.loc[q["q"] == qq, "quantile"]))
        for qq in (0.25, 0.5, 0.75)
    }

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        k = _key_series(batch, keys)
        q1 = k.map(maps[0.25]).to_numpy(dtype="float64")
        med = k.map(maps[0.5]).to_numpy(dtype="float64")
        q3 = k.map(maps[0.75]).to_numpy(dtype="float64")
        v = batch[value_column].astype("float64").to_numpy()
        iqr = q3 - q1
        rs = np.where(iqr == 0.0, 0.0, (v - med) / np.where(iqr == 0.0, 1.0, iqr))
        batch[out_name] = _round_half_up(rs, round_to)
        return batch

    return ds.map_batches(score, batch_format="pandas")


def loo_target_encode(
    ds: ray.data.Dataset,
    keys: list[str],
    target_column: str,
    *,
    out_name: str = "loo_mean",
    round_to: int = 2,
    exact_scale: int | None = None,
) -> ray.data.Dataset:
    """Leave-one-out target encoding — the leakage-safe categorical feature
    encoder: each row receives the mean of the target over the OTHER rows of
    its key, ``(sum_g − v) / (n_g − 1)``, null for singleton keys (no other
    rows to learn from).

    Combiner pass → O(|keys|) (count, sum) table → broadcast map-only
    transform; rows never shuffle.

    ``exact_scale``: with a fixed-point target (a price with ``exact_scale``
    = 100), targets are summed as int64 units — integer addition is
    associative, so the group sum is independent of partial-sum order and the
    encoded value is bit-reproducible by any engine evaluating the same
    single float expression ``((s − v) / scale) / (n − 1)``.  Without it the
    float group sum can differ from a serial engine's by a few ulp, enough to
    flip a rounding boundary on a ~1e5-magnitude target (measured: 1 row in
    15k at cents rounding)."""
    import numpy as np

    scale = exact_scale

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[keys].copy()
        v = batch[target_column].astype("float64").to_numpy()
        if scale is not None:
            out["__v"] = (
                np.sign(v) * np.floor(np.abs(v) * scale + 0.5)
            ).astype("int64")
        else:
            out["__v"] = v
        return out

    stats = partial_groupby_agg(
        ds, keys, {"__n": ("__v", "count"), "__s": ("__v", "sum")}, pre_map=pre
    ).to_pandas()
    key_of = _key_series(stats, keys)
    n_map = dict(zip(key_of, stats["__n"].to_numpy(dtype="float64")))
    s_map = dict(zip(key_of, stats["__s"].to_numpy(dtype="float64")))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        k = _key_series(batch, keys)
        n = k.map(n_map).to_numpy(dtype="float64")
        s = k.map(s_map).to_numpy(dtype="float64")
        v = batch[target_column].astype("float64").to_numpy()
        if scale is not None:
            v = np.sign(v) * np.floor(np.abs(v) * scale + 0.5)
            diff = (s - v) / scale
        else:
            diff = s - v
        loo = np.where(n > 1.0, diff / np.maximum(n - 1.0, 1.0), np.nan)
        batch[out_name] = _round_half_up(loo, round_to)
        return batch

    return ds.map_batches(score, batch_format="pandas")


def zorder_code(
    ds: ray.data.Dataset,
    col_x: str,
    col_y: str,
    *,
    out_name: str = "zcode",
) -> ray.data.Dataset:
    """Z-order (Morton) clustering code over two integer dimensions — the
    storage-layout pass that makes range predicates on EITHER column prune
    row groups after a sort/write by this code (the Delta/Iceberg OPTIMIZE
    ZORDER idea, as an explicit operator).

    Each dimension min-max-buckets to 16 bits from driver-side (min, max)
    scalars (one aggregate pass), then the classic bit-spread interleave —
    pure integer arithmetic, vectorized in numpy and reproducible verbatim
    by any engine with shifts and masks.  Sort by (zcode, id) downstream and
    write partitioned.
    """
    import numpy as np

    bounds = ds.aggregate(
        ray.data.aggregate.Min(col_x), ray.data.aggregate.Max(col_x),
        ray.data.aggregate.Min(col_y), ray.data.aggregate.Max(col_y),
    )
    lo_x, hi_x = int(bounds[f"min({col_x})"]), int(bounds[f"max({col_x})"])
    lo_y, hi_y = int(bounds[f"min({col_y})"]), int(bounds[f"max({col_y})"])
    span_x = max(hi_x - lo_x + 1, 1)
    span_y = max(hi_y - lo_y + 1, 1)

    def spread(v: "np.ndarray") -> "np.ndarray":
        # 16-bit value -> even bit positions of a 32-bit word (part1by1)
        v = (v | (v << 8)) & 0x00FF00FF
        v = (v | (v << 4)) & 0x0F0F0F0F
        v = (v | (v << 2)) & 0x33333333
        v = (v | (v << 1)) & 0x55555555
        return v

    def code(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        bx = (batch[col_x].to_numpy(dtype="int64") - lo_x) * 65536 // span_x
        by = (batch[col_y].to_numpy(dtype="int64") - lo_y) * 65536 // span_y
        batch[out_name] = spread(bx) | (spread(by) << 1)
        return batch

    return ds.map_batches(code, batch_format="pandas")


@derive_width
def resample_ffill(
    ds: ray.data.Dataset,
    *,
    partition_by: str,
    ts_column: str,
    value_column: str,
    order_tiebreak: list[str] | None = None,
    out_day: str = "day",
    out_value: str = "value_ffill",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Daily resample with forward fill per key — the gap-filling pass of a
    time-series feature pipeline: one row per key per calendar day across
    the key's own observed span, carrying the day's LAST value (by
    ``ts, tiebreak``) and forward-filling days with no events.

    Keys hash-bucket into ``num_partitions`` (a key's whole series lands in
    one bucket); the per-bucket body is one sort + vectorized pandas
    ``groupby(day).last`` / ``reindex(date_range).ffill`` per key.  Values
    are MOVED, never computed — the op is float-exact by construction.
    Days emit as ``YYYY-MM-DD`` strings (engine-neutral, timezone-free).
    """
    order_tiebreak = order_tiebreak or []

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(
            [partition_by, ts_column] + order_tiebreak
        )
        frames = []
        for key, grp in part.groupby(partition_by, sort=False):
            days = grp[ts_column].dt.normalize()
            daily = grp[value_column].groupby(days).last()
            full = daily.reindex(
                pd.date_range(days.iloc[0], days.iloc[-1], freq="D")
            ).ffill()
            frames.append(
                pd.DataFrame(
                    {
                        partition_by: key,
                        out_day: full.index.strftime("%Y-%m-%d"),
                        out_value: full.to_numpy(),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return partitioned_final(ds, [partition_by], per_partition, num_partitions)


def category_drift(
    ds: ray.data.Dataset,
    category_column: str,
    side_column: str,
    *,
    round_to: int = 6,
) -> ray.data.Dataset:
    """Categorical distribution-drift report between two labeled slices of a
    stream (train-vs-serve, yesterday-vs-today): per-category counts, rates,
    and the per-category KL(P_a ‖ P_b) contribution ``p_a·ln(p_a/p_b)`` —
    the monitoring pass that catches a data-mix shift before it trains in.

    ``side_column`` must hold exactly two values (lexicographically first =
    ``a``).  One combiner pass reduces rows to the (category, side) count
    table; everything after runs over that O(|categories|) table in a single
    final block.  Zero-count categories on either side get rate 0 and a null
    KL term (the standard undefined case, surfaced not hidden).
    """
    import numpy as np

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.groupby([category_column, side_column], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )

    counts = partial_groupby_agg(
        ds.map_batches(count_batch, batch_format="pandas"),
        [category_column, side_column],
        {"n": ("n", "sum")},
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        sides = sorted(batch[side_column].unique())
        if len(sides) != 2:
            raise ValueError(f"category_drift: need exactly 2 sides, got {sides}")
        a, b = sides
        piv = batch.pivot_table(
            index=category_column, columns=side_column, values="n",
            aggfunc="sum", fill_value=0,
        )
        n_a = piv[a].to_numpy(dtype="float64")
        n_b = piv[b].to_numpy(dtype="float64")
        p_a = n_a / n_a.sum()
        p_b = n_b / n_b.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            kl = np.where((p_a > 0) & (p_b > 0), p_a * np.log(p_a / p_b), np.nan)
        out = pd.DataFrame(
            {
                category_column: piv.index,
                "n_a": n_a.astype("int64"),
                "n_b": n_b.astype("int64"),
                "p_a": _round_half_up(p_a, round_to),
                "p_b": _round_half_up(p_b, round_to),
                "kl_term": _round_half_up(kl, round_to),
            }
        )
        return out.sort_values(category_column).reset_index(drop=True)

    return counts.repartition(1).map_batches(
        finalize, batch_format="pandas", batch_size=None
    )


@derive_width
def frequent_pairs(
    ds: ray.data.Dataset,
    *,
    basket_column: str,
    item_column: str,
    min_support: int = 2,
    k: int = 50,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Frequent co-occurring item pairs (the level-2 Apriori pass of
    market-basket / co-click mining): support counts of unordered DISTINCT
    item pairs within a basket, thresholded and top-k.

    Shape: baskets hash-partition on the basket key (a basket's items land
    together); each partition emits its LOCAL (item_a, item_b, n) counts —
    what shuffles after the per-basket pairing is one row per distinct pair
    per partition, not one per occurrence; the final combine + threshold +
    deterministic top-k (n desc, item_a, item_b) runs over the pair table.
    The quadratic step is per BASKET (baskets are small; a pathological
    mega-basket is the documented failure mode — cap upstream if needed).
    """
    def pair_batch(part: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter
        from itertools import combinations

        counts: Counter = Counter()
        grouped = part.groupby(basket_column, sort=False)[item_column]
        for _, items in grouped:
            uniq = sorted(set(items.dropna()))
            for a, b in combinations(uniq, 2):
                counts[(a, b)] += 1
        keys = list(counts.keys())
        return pd.DataFrame(
            {
                "item_a": [t[0] for t in keys],
                "item_b": [t[1] for t in keys],
                "n": [counts[t] for t in keys],
            }
        )

    pairs = partitioned_final(ds, [basket_column], pair_batch, num_partitions)
    totals = partial_groupby_agg(
        pairs, ["item_a", "item_b"], {"n": ("n", "sum")}
    ).map_batches(
        lambda b, s=min_support: b[b["n"] >= s], batch_format="pandas"
    )

    cols, asc = ["n", "item_a", "item_b"], [False, True, True]

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(cols, ascending=asc).head(k)

    return (
        totals.map_batches(prune, batch_format="pandas")
        .sort(cols, descending=[not a for a in asc])
        .limit(k)
    )


def skew_report(
    ds: ray.data.Dataset,
    keys: list[str],
    *,
    quantiles: tuple = (0.5, 0.9, 0.99),
) -> "pd.DataFrame":
    """Partitioning-skew audit for a candidate shuffle key: the group-size
    distribution (count, total, max, discrete percentiles) that tells you
    whether a `groupby`/join on ``keys`` will straggle on a head key — the
    question every wide operator in this repo documents, answered from the
    data instead of guessed.

    One combiner pass reduces rows to the per-group count table (one partial
    row per batch × group); stats and exact DISCRETE percentiles
    (``percentile_disc`` — actual group sizes, integer-exact against any SQL
    engine) reduce over that table, never over the rows.  Returns ONE row —
    a driver-sized result by construction.
    """
    import numpy as np

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(keys, as_index=False, sort=False).size().rename(
            columns={"size": "n"}
        )

    counts = partial_groupby_agg(
        ds.map_batches(count_batch, batch_format="pandas"),
        keys,
        {"n": ("n", "sum")},
    )

    def add_one(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["n"]].copy()
        out["__one"] = 1
        return out

    sizes = counts.map_batches(add_one, batch_format="pandas")
    row: dict = {}
    agg = counts.map_batches(
        lambda b: pd.DataFrame(
            {"g": [1], "n_groups": [len(b)], "n_rows": [int(b["n"].sum())],
             "max_group": [int(b["n"].max())]}
        ),
        batch_format="pandas",
    )
    agg_pd = partial_groupby_agg(
        agg, ["g"],
        {"n_groups": ("n_groups", "sum"), "n_rows": ("n_rows", "sum"),
         "max_group": ("max_group", "max")},
    ).to_pandas()
    row["n_groups"] = int(agg_pd["n_groups"].iloc[0])
    row["n_rows"] = int(agg_pd["n_rows"].iloc[0])
    row["max_group"] = int(agg_pd["max_group"].iloc[0])
    for q in quantiles:
        qv = grouped_quantile(
            sizes, ["__one"], "n", q, out_name="__q", interpolation="discrete"
        ).to_pandas()
        row[f"p{int(q * 100)}_group"] = int(qv["__q"].iloc[0])
    return pd.DataFrame([row])


def grouped_mad(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    *,
    out_name: str = "mad",
    round_to: int | None = 4,
) -> ray.data.Dataset:
    """Per-group median absolute deviation — the robust scale estimate a
    quality/outlier gate wants when the value column has heavy tails (a
    single spike moves stddev arbitrarily, it moves MAD not at all).

    Selection-exact, two composed :func:`grouped_quantile` passes:
    per-group median, broadcast to a vectorized deviation map (the median
    table is O(|groups|) — same driver-footprint contract as
    :func:`grouped_standardize`), then the per-group median of
    ``|v - median_g|``.  No accumulation anywhere, so any SQL engine's
    ``median`` reproduces it bit-for-bit at the same interpolation rule.
    """
    import numpy as np

    med = grouped_quantile(ds, keys, value_column, 0.5, out_name="__med").to_pandas()
    key_of = (
        med[keys].astype(str).agg("\x1f".join, axis=1)
        if len(keys) > 1
        else med[keys[0]].astype(str)
    )
    med_map = dict(zip(key_of, med["__med"].to_numpy(dtype="float64")))

    def deviations(batch: pd.DataFrame) -> pd.DataFrame:
        k = (
            batch[keys].astype(str).agg("\x1f".join, axis=1)
            if len(keys) > 1
            else batch[keys[0]].astype(str)
        )
        out = batch[keys].copy()
        out["__dev"] = np.abs(
            batch[value_column].astype("float64").to_numpy()
            - k.map(med_map).to_numpy(dtype="float64")
        )
        return out

    mad = grouped_quantile(
        ds.map_batches(deviations, batch_format="pandas"),
        keys,
        "__dev",
        0.5,
        out_name=out_name,
    )
    if round_to is None:
        return mad

    def final_round(batch: pd.DataFrame) -> pd.DataFrame:
        batch[out_name] = _round_half_up(batch[out_name], round_to)
        return batch

    return mad.map_batches(final_round, batch_format="pandas")


def grouped_stddev(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    *,
    out_name: str = "stddev",
    population: bool = True,
    ddof_round: int | None = 6,
) -> ray.data.Dataset:
    """Per-group standard deviation via the associative (count, sum, sumsq)
    decomposition — one combiner pass + a small groupby, same shuffle shape
    as :func:`partial_groupby_agg` (one partial row per batch × group).

    ``population=True`` is SQL ``stddev_pop``; False is sample stddev
    (``stddev_samp``, n-1 denominator).  The result rounds to ``ddof_round``
    decimals so an oracle engine's (Welford-based) accumulation agrees —
    pass None for the raw float.
    """
    import numpy as np

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[keys].copy()
        vals = batch[value_column].astype("float64")
        out["__v"] = vals
        out["__v2"] = vals * vals
        return out

    partials = partial_groupby_agg(
        ds,
        keys,
        {"__n": ("__v", "count"), "__s": ("__v", "sum"), "__s2": ("__v2", "sum")},
        pre_map=pre,
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["__n"].to_numpy(dtype="float64")
        mean = batch["__s"].to_numpy() / n
        var = batch["__s2"].to_numpy() / n - mean * mean
        var = np.maximum(var, 0.0)  # float cancellation guard
        if not population:
            var = var * n / np.maximum(n - 1, 1)
        out = batch[keys].copy()
        std = np.sqrt(var)
        out[out_name] = std if ddof_round is None else _round_half_up(std, ddof_round)
        return out

    return partials.map_batches(finalize, batch_format="pandas")


def grouped_corr(
    ds: ray.data.Dataset,
    keys: list[str],
    x_column: str,
    y_column: str,
    *,
    out_name: str = "corr",
    round_to: int | None = 6,
) -> ray.data.Dataset:
    """Per-group Pearson correlation (sample, SQL ``corr``) via the
    Chan-et-al. parallel moment decomposition: each batch emits one
    ``(n, mean_x, mean_y, M2x, M2y, Cxy)`` row per group (centered second
    moments — numerically stable where the raw ``n·Σxy − ΣxΣy`` expansion
    cancels catastrophically), and the final merge folds partials with the
    pairwise-update formulas.  Shuffle shape identical to
    :func:`partial_groupby_agg`: one partial row per (batch × group)."""
    import numpy as np

    part_cols = ["__n", "__mx", "__my", "__m2x", "__m2y", "__cxy"]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame(columns=keys + part_cols)
        x = batch[x_column].astype("float64")
        y = batch[y_column].astype("float64")
        grouped = batch.groupby(keys, sort=False)
        dx = x - grouped[x_column].transform("mean")
        dy = y - grouped[y_column].transform("mean")
        tmp = batch[keys].copy()
        tmp["__x"] = x
        tmp["__y"] = y
        tmp["__dx2"] = dx * dx
        tmp["__dy2"] = dy * dy
        tmp["__dxy"] = dx * dy
        agg = tmp.groupby(keys, as_index=False, sort=False).agg(
            __n=("__x", "size"), __mx=("__x", "mean"), __my=("__y", "mean"),
            __m2x=("__dx2", "sum"), __m2y=("__dy2", "sum"), __cxy=("__dxy", "sum"),
        )
        agg["__n"] = agg["__n"].astype("float64")
        return agg

    def merge_one(group: pd.DataFrame) -> float:
        # Chan pairwise-moment merge: irreducibly sequential over a group's
        # partials (one per batch that saw the group), but runs inside the
        # partition task — no Ray dispatch per key
        n = mx = my = m2x = m2y = cxy = 0.0
        for p in group[part_cols].itertuples(index=False):
            n2, mx2, my2, m2x2, m2y2, cxy2 = p
            tot = n + n2
            dx, dy = mx2 - mx, my2 - my
            w = n * n2 / tot
            m2x += m2x2 + dx * dx * w
            m2y += m2y2 + dy * dy * w
            cxy += cxy2 + dx * dy * w
            mx += dx * n2 / tot
            my += dy * n2 / tot
            n = tot
        denom = np.sqrt(m2x * m2y)
        val = cxy / denom if denom > 0 else float("nan")
        return _round_half_up(val, round_to) if round_to is not None else val

    def final(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key_vals, group in part.groupby(keys, sort=False):
            if not isinstance(key_vals, tuple):
                key_vals = (key_vals,)
            rows.append(dict(zip(keys, key_vals)) | {out_name: merge_one(group)})
        return pd.DataFrame(rows, columns=keys + [out_name])

    return partitioned_final(
        ds.map_batches(partial, batch_format="pandas"), keys, final
    )


def arg_max_by(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    arg_columns: list[str],
    *,
    tiebreak_column: str | None = None,
    descending: bool = True,
) -> ray.data.Dataset:
    """SQL ``arg_max(arg, value)`` per group, made deterministic: the row
    with the extreme ``value_column`` wins, ties broken by ascending
    ``tiebreak_column`` (default: the first arg column).  Rides
    :func:`topk_per_group`'s partial prune — each batch ships one candidate
    row per group, never the table."""
    tiebreak = tiebreak_column or arg_columns[0]
    best = topk_per_group(
        ds, keys, [value_column, tiebreak], 1, descending=descending
    )
    out_cols = keys + arg_columns + [value_column]

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[out_cols]

    return best.map_batches(project, batch_format="pandas")


@derive_width
def intersect_distinct(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    columns: list[str],
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """SQL ``INTERSECT`` (distinct rows present on both sides).  Both sides
    dedup locally per batch, hash-partition on the row key, and each
    partition set-intersects — no driver materialization, no broadcast."""
    return _set_op(left, right, columns, keep_matched=True, num_partitions=num_partitions)


@derive_width
def except_distinct(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    columns: list[str],
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """SQL ``EXCEPT`` (distinct left rows absent from right); same
    partitioned plan as :func:`intersect_distinct`."""
    return _set_op(left, right, columns, keep_matched=False, num_partitions=num_partitions)


def _set_op(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    columns: list[str],
    *,
    keep_matched: bool,
    num_partitions: int,
) -> ray.data.Dataset:
    def tag(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[columns].drop_duplicates().reset_index(drop=True)
            out["__side"] = side
            out[PART] = hash_partition(out, columns, num_partitions)
            return out

        return fn

    def reduce_part(part: pd.DataFrame) -> pd.DataFrame:
        lf = part[part["__side"] == "L"][columns].drop_duplicates()
        rkeys = part.loc[part["__side"] == "R", columns]
        merged = lf.merge(rkeys.drop_duplicates(), on=columns, how="left", indicator=True)
        want = "both" if keep_matched else "left_only"
        return merged[merged["_merge"] == want][columns].reset_index(drop=True)

    tagged = left.map_batches(tag("L"), batch_format="pandas").union(
        right.map_batches(tag("R"), batch_format="pandas")
    )
    return reduce_partitions(tagged, reduce_part)


def hash_split(
    ds: ray.data.Dataset,
    id_column: str,
    *,
    weights: dict[str, int] | None = None,
    out_name: str = "split",
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment by multiplicative hash of an
    integer id (Knuth: ``(id * 2654435761) mod 2^32``), then bucketing the
    hash mod 100 by cumulative ``weights`` percentages.

    Stateless, shuffle-free, and reproducible across runs/engines — the same
    arithmetic is expressible in SQL, which is what makes this op
    oracle-checkable (unlike random_sample)."""
    import numpy as np

    weights = weights or {"train": 90, "val": 5, "test": 5}
    if sum(weights.values()) != 100:
        raise ValueError("split weights must sum to 100")
    names = list(weights)
    edges = np.cumsum([weights[n] for n in names])

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        h = (batch[id_column].to_numpy().astype(np.uint64) * np.uint64(2654435761)) % np.uint64(
            2**32
        )
        bucket = (h % np.uint64(100)).astype(np.int64)
        batch[out_name] = np.array(names, dtype=object)[np.searchsorted(edges, bucket, side="right")]
        return batch

    return ds.map_batches(assign, batch_format="pandas")


def stratified_sample(
    ds: ray.data.Dataset,
    *,
    id_column: str,
    strata_column: str,
    fractions: "dict[str, float] | float",
    default_fraction: float = 0.0,
) -> ray.data.Dataset:
    """Deterministic per-stratum sampling: keep a row iff
    ``knuth_hash(id) % 10000 < fraction[stratum] * 10000``.

    Same multiplicative-hash arithmetic as :func:`hash_split` — stateless,
    shuffle-free, reproducible across runs/engines and expressible in SQL
    (which makes it oracle-checkable, unlike ``Dataset.random_sample``).
    ``fractions``: per-stratum keep rates (a scalar applies to all strata);
    strata absent from the dict fall back to ``default_fraction``.
    Fractions are truncated to basis-point (0.01%) resolution.
    """
    import numpy as np

    if isinstance(fractions, (int, float)):
        rate_of = {"__all__": int(float(fractions) * 10000)}
        scalar = True
    else:
        rate_of = {k: int(float(v) * 10000) for k, v in fractions.items()}
        scalar = False
    default_bp = int(default_fraction * 10000)

    def sample(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            batch[id_column].to_numpy().astype(np.uint64) * np.uint64(2654435761)
        ) % np.uint64(2**32)
        bucket = (h % np.uint64(10000)).astype(np.int64)
        if scalar:
            limits = np.full(len(batch), rate_of["__all__"], dtype=np.int64)
        else:
            limits = (
                batch[strata_column].map(rate_of).fillna(default_bp).astype("int64").to_numpy()
            )
        return batch[bucket < limits]

    return ds.map_batches(sample, batch_format="pandas")


@derive_width
def window_rank(
    ds: ray.data.Dataset,
    *,
    partition_by: str,
    order_by: list[str],
    ntile: int | None = None,
    row_number_name: str = "row_number",
    ntile_name: str = "ntile",
    percent_rank_name: str | None = None,
    dense_rank_name: str | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """``row_number()`` (optionally ``ntile(k)`` and ``percent_rank()``) per
    partition — the ranking window idiom.  Keys hash-bucket into
    ``num_partitions`` (one
    reducer task per bucket, not per key); the per-bucket body is one sort +
    vectorized cumcount over every key run.  ``order_by`` should end in a
    unique tie-break column for determinism.

    ntile follows SQL semantics exactly: with n rows and k buckets the first
    ``n % k`` buckets hold ``n // k + 1`` rows, the rest ``n // k``.
    """
    import numpy as np

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        out = (
            part.sort_values([partition_by] + order_by)
            .reset_index(drop=True)
        )
        grouped = out.groupby(partition_by, sort=False)
        rn0 = grouped.cumcount().to_numpy()
        out[row_number_name] = rn0 + 1
        if ntile:
            n = grouped[order_by[0]].transform("size").to_numpy()
            q, r = n // ntile, n % ntile
            big = r * (q + 1)
            # rows past the first r*(q+1) fall into the small (q-row) buckets;
            # when q == 0 every row satisfies rn0 < big, so the guard is safe
            buckets = np.where(
                rn0 < big,
                rn0 // np.maximum(q + 1, 1) + 1,
                r + (rn0 - big) // np.maximum(q, 1) + 1,
            )
            out[ntile_name] = buckets.astype("int64")
        if percent_rank_name:
            # SQL percent_rank: (rank - 1) / (n - 1), 0 for single-row groups.
            # rank is method='min' over the FULL order_by tuple: tied rows
            # (equal on every order key) share the rank of their first row —
            # computed as the row_number at the start of each tie run, which
            # the sort above makes contiguous.
            n = grouped[order_by[0]].transform("size").to_numpy()
            change = np.ones(len(out), dtype=bool)
            if len(out):
                change[1:] = False
                for col in [partition_by] + order_by:
                    v = out[col].to_numpy()
                    change[1:] |= v[1:] != v[:-1]
            run_id = np.cumsum(change) - 1
            run_start_rank = rn0[change]
            rank0 = run_start_rank[run_id] if len(out) else rn0
            out[percent_rank_name] = rank0 / np.maximum(n - 1, 1)
        if dense_rank_name:
            # SQL DENSE_RANK() OVER (... ORDER BY order_by[0]): ties (equal
            # first-order-key values) share a rank, no gaps — ranked by VALUE,
            # so it genuinely differs from row_number when ties exist
            out[dense_rank_name] = (
                grouped[order_by[0]].rank(method="dense").astype("int64")
            )
        return out

    return partitioned_final(ds, [partition_by], per_partition, num_partitions)


@derive_width
def k_anonymize(
    ds: ray.data.Dataset,
    quasi_columns: list[str],
    k: int,
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """k-anonymity suppression — the privacy gate of a training-data
    pipeline: drop every row whose quasi-identifier combination occurs in
    fewer than ``k`` rows, so no released row is identifiable within a group
    smaller than k (Sweeney 2002; suppression-only variant).

    Shape: one combiner pass collapses each batch to its distinct QI combos
    with counts (rows never shuffle for counting); the summed count table is
    filtered to the ≥k keys and semi-joined back DISTRIBUTED (the key side is
    a Dataset — it never lands on the driver, so a high-cardinality QI space
    is fine).  Nulls in quasi columns group together (SQL ``PARTITION BY``
    semantics).  The source is scanned twice (count pass + filter pass), both
    streaming — same trade as :func:`~esmarc_ray.ops.text.tfidf_topk`.
    """
    sep = "\x1f"

    def add_key(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        if len(quasi_columns) == 1:
            batch["__qi"] = batch[quasi_columns[0]].astype(str)
        else:
            batch["__qi"] = batch[quasi_columns].astype(str).agg(sep.join, axis=1)
        return batch

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            add_key(batch)
            .groupby("__qi", as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )

    counts = partial_groupby_agg(
        ds.map_batches(count_batch, batch_format="pandas"),
        ["__qi"],
        {"n": ("n", "sum")},
    )
    keep = counts.map_batches(
        lambda b: b.loc[b["n"] >= k, ["__qi"]], batch_format="pandas"
    )
    kept = partitioned_semi_join(
        ds.map_batches(add_key, batch_format="pandas"),
        keep,
        "__qi",
        num_partitions=num_partitions,
    )
    return kept.drop_columns(["__qi"])


@derive_width
def l_diversify(
    ds: ray.data.Dataset,
    quasi_columns: list[str],
    sensitive_column: str,
    l_distinct: int,
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """l-diversity suppression (Machanavajjhala et al. 2007) — the privacy
    gate k-anonymity misses: a 50-row QI group whose rows all share ONE
    sensitive value is k-anonymous yet leaks the attribute, so drop every
    row whose quasi-identifier group carries fewer than ``l_distinct``
    DISTINCT sensitive values.

    Distinct counting is exact and distributed: (QI, sensitive) pairs dedup
    batch-locally, hash-partition on the FULL pair key (partition-local
    dedup is then globally correct), per-QI distinct counts sum, and the
    ≥l key set semi-joins back as a Dataset — the QI space never lands on
    the driver."""
    sep = "\x1f"

    def add_key(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        if len(quasi_columns) == 1:
            batch["__qi"] = batch[quasi_columns[0]].astype(str)
        else:
            batch["__qi"] = batch[quasi_columns].astype(str).agg(sep.join, axis=1)
        return batch

    def pair_rows(batch: pd.DataFrame) -> pd.DataFrame:
        b = add_key(batch)
        return pd.DataFrame(
            {"__qi": b["__qi"], "__s": b[sensitive_column].astype(str)}
        ).drop_duplicates()

    def count_part(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.drop_duplicates()
            .groupby("__qi", as_index=False)
            .size()
            .rename(columns={"size": "n_part"})
        )

    counts = partial_groupby_agg(
        partitioned_final(
            ds.map_batches(pair_rows, batch_format="pandas"),
            ["__qi", "__s"],
            count_part,
            num_partitions=num_partitions,
        ),
        ["__qi"],
        {"n": ("n_part", "sum")},
    )
    keep = counts.map_batches(
        lambda b: b.loc[b["n"] >= l_distinct, ["__qi"]], batch_format="pandas"
    )
    kept = partitioned_semi_join(
        ds.map_batches(add_key, batch_format="pandas"),
        keep,
        "__qi",
        num_partitions=num_partitions,
    )
    return kept.drop_columns(["__qi"])


def mann_whitney_u(
    ds: ray.data.Dataset,
    group_column: str,
    value_column: str,
    group_a: str,
    group_b: str,
    *,
    round_to: int = 6,
) -> pd.DataFrame:
    """Mann-Whitney U rank-sum test between two groups (the nonparametric
    A/B readout when values are heavy-tailed and a t/z test's mean is the
    wrong summary).  Returns one row: (group_a, group_b, n_a, n_b, u_stat,
    z) with the normal approximation, no tie correction (documented).

    Fully distributed and EXACT under ties: ranks come from the terasort
    :func:`global_rank` (sampled range partitioning — no global sort
    bottleneck), and only per-value rank SUMS enter the statistic — a tie
    block's ranks are a permutation of a consecutive run, so its sum (hence
    every average rank, a half-integer) is independent of how the ranking
    broke the tie.  All arithmetic stays exact in float64, making the
    statistic bit-reproducible by a SQL engine evaluating the same
    expression."""
    import math

    import numpy as np

    def narrow(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch[batch[group_column].isin([group_a, group_b])]
        return m[[group_column, value_column]]

    ranked = global_rank(
        ds.map_batches(narrow, batch_format="pandas"), [value_column]
    )

    def per_value(batch: pd.DataFrame) -> pd.DataFrame:
        b = pd.DataFrame(
            {
                value_column: batch[value_column],
                "__na": (batch[group_column] == group_a).astype("int64"),
                "__n": 1,
                "__sr": batch["global_rank"].astype("int64"),
            }
        )
        return b.groupby(value_column, as_index=False).sum()

    per_v = partial_groupby_agg(
        ranked.map_batches(per_value, batch_format="pandas"),
        [value_column],
        {"na": ("__na", "sum"), "n": ("__n", "sum"), "sr": ("__sr", "sum")},
    )

    def batch_sums(batch: pd.DataFrame) -> pd.DataFrame:
        avg = batch["sr"].to_numpy(dtype="float64") / batch["n"].to_numpy(
            dtype="float64"
        )  # (rmin+rmax)/2 — a half-integer, exactly representable
        na = batch["na"].to_numpy(dtype="float64")
        return pd.DataFrame(
            {
                "ra": [float((na * avg).sum())],
                "n1": [float(na.sum())],
                "n2": [float((batch["n"].to_numpy(dtype="float64") - na).sum())],
            }
        )

    sums = per_v.map_batches(batch_sums, batch_format="pandas").to_pandas()
    ra = float(sums["ra"].sum())
    n1 = float(sums["n1"].sum())
    n2 = float(sums["n2"].sum())
    u = ra - n1 * (n1 + 1) / 2
    z = (u - n1 * n2 / 2) / math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12)
    return pd.DataFrame(
        {
            "group_a": [group_a],
            "group_b": [group_b],
            "n_a": [int(n1)],
            "n_b": [int(n2)],
            "u_stat": [float(_round_half_up(u, round_to))],
            "z": [float(_round_half_up(z, round_to))],
        }
    )


@derive_width
def event_transitions(
    ds: ray.data.Dataset,
    *,
    partition_by: str = "user_id",
    order_by: list[str] | None = None,
    type_column: str = "event_type",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Markov transition matrix over per-key event sequences: counts and
    probabilities of ``event_type -> next event_type`` steps, where "next"
    follows ``order_by`` within each ``partition_by`` key (the
    sessionized-clickstream transition model of a behavioral pipeline).

    Physical shape: keys hash-bucket into ``num_partitions`` (each key's
    whole sequence lands in one bucket, so ``shift(-1)`` never crosses a
    key); each bucket COLLAPSES to its local (src, dst, n) counts before the
    final combine — what shuffles after the per-key grouping is
    O(|event types|²) per bucket, and only the k×k transition table exists
    past that, at any event count.  Probabilities are per-src row-normalized,
    rounded half-away-from-zero to 6 decimals (oracle convention).
    Output: (src_event, dst_event, n, prob), the last event of each key
    contributing no pair (no successor).
    """
    order_by = order_by or ["ts", "event_id"]

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        seq = (
            part.sort_values([partition_by] + order_by)
            .reset_index(drop=True)
        )
        nxt = seq.groupby(partition_by, sort=False)[type_column].shift(-1)
        pairs = pd.DataFrame({"src_event": seq[type_column], "dst_event": nxt})
        pairs = pairs[pairs["dst_event"].notna()]
        return pairs.groupby(
            ["src_event", "dst_event"], as_index=False, sort=False
        ).size().rename(columns={"size": "n"})

    counts = partitioned_final(ds, [partition_by], per_partition, num_partitions)
    totals = partial_groupby_agg(counts, ["src_event", "dst_event"], {"n": ("n", "sum")})

    def normalize(batch: pd.DataFrame) -> pd.DataFrame:
        # the whole transition table is k×k (k = distinct event types) — one
        # tiny block; per-src totals are a local groupby transform
        t = batch.groupby("src_event")["n"].transform("sum")
        batch["prob"] = _round_half_up(
            batch["n"].to_numpy(dtype="float64") / t.to_numpy(dtype="float64"), 6
        )
        return batch.sort_values(["src_event", "dst_event"]).reset_index(drop=True)

    return totals.repartition(1).map_batches(
        normalize, batch_format="pandas", batch_size=None
    )


@derive_width
def window_lag(
    ds: ray.data.Dataset,
    *,
    partition_by: str,
    order_by: list[str],
    value_column: str,
    offset: int = 1,
    out_name: str = "lag_value",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """``lag(value, offset) OVER (PARTITION BY k ORDER BY o)`` — the
    previous-event lookup of an event pipeline (deltas, time-since-last).
    Negative ``offset`` gives ``lead``.  Keys hash-bucket into
    ``num_partitions`` (one reducer per bucket, not per key); the per-bucket
    body is one sort + a vectorized pandas ``groupby(...).shift``.
    First ``offset`` rows of each partition get null.
    """

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        out = (
            part.sort_values([partition_by] + order_by)
            .reset_index(drop=True)
        )
        out[out_name] = out.groupby(partition_by, sort=False)[value_column].shift(offset)
        return out

    return partitioned_final(ds, [partition_by], per_partition, num_partitions)


@derive_width
def moving_window(
    ds: ray.data.Dataset,
    partition_by: str,
    order_by: list[str],
    value_column: str,
    *,
    preceding: int = 3,
    fn: str = "mean",
    out_name: str = "moving_value",
    round_to: int | None = 4,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """ROWS-frame window aggregate: ``fn(value) OVER (PARTITION BY k ORDER BY
    o ROWS BETWEEN preceding PRECEDING AND CURRENT ROW)`` — the moving
    average / rolling max of an event pipeline.  Same physical shape as
    :func:`window_lag`: keys hash-bucket into ``num_partitions`` (one reducer
    per bucket, not per key); the per-bucket body is one sort + a vectorized
    pandas ``groupby(...).rolling`` — early rows use however many rows exist
    (``min_periods=1``), matching the SQL frame.  ``fn="median"`` is the
    exact selection median (even frames interpolate the two middles — the
    pandas and DuckDB DOUBLE convention), float-safe because selection never
    accumulates."""
    if fn not in ("mean", "sum", "min", "max", "median"):
        raise ValueError(f"moving_window: unsupported fn {fn!r}")

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        out = (
            part.sort_values([partition_by] + order_by)
            .reset_index(drop=True)
        )
        rolled = getattr(
            out.groupby(partition_by, sort=False)[value_column]
            .rolling(window=preceding + 1, min_periods=1),
            fn,
        )().reset_index(drop=True)
        out[out_name] = _round_half_up(rolled, round_to) if round_to is not None else rolled
        return out

    return partitioned_final(ds, [partition_by], per_partition, num_partitions)


@derive_width
def grouped_mode(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    *,
    out_name: str = "mode",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Deterministic per-group mode: the most frequent value, ties broken by
    the smallest value.  Two combiner-shaped reductions: (keys, value) counts
    via :func:`partial_groupby_agg`-style local pre-count, then a top-1 per
    group over the (much smaller) count table."""

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        out = (
            batch.groupby(group_keys + [value_column], sort=False)
            .size()
            .reset_index(name="__n")
        )
        return out

    def sum_counts(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.groupby(group_keys + [value_column], sort=False)["__n"]
            .sum()
            .reset_index()
        )

    counts = partitioned_final(
        ds.select_columns(group_keys + [value_column]).map_batches(
            local_counts, batch_format="pandas"
        ),
        group_keys + [value_column],
        sum_counts,
        num_partitions,
    )
    best = topk_per_group(counts, group_keys, ["__n", value_column], 1)

    def project(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[group_keys].copy()
        out[out_name] = batch[value_column]
        return out

    return best.map_batches(project, batch_format="pandas")


@derive_width
def grouped_string_agg(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    *,
    sep: str = ",",
    out_name: str = "agg",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Ordered ``string_agg``: per group, the values joined by ``sep`` in
    sorted order (sorted => deterministic across block arrivals, which is what
    makes it oracle-checkable).  Keys hash-bucket into ``num_partitions``
    (one reducer per bucket, not per key); the shuffle carries (keys, value)
    only, and the per-bucket body is one sort + a pandas C-dispatched
    ``agg(join)`` over the key runs.

    Partitioning assumption at scale: a group's concatenated string fits in a
    task; for giant groups emit a list column and cap it instead."""

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part[value_column] = part[value_column].astype(str)
        part = part.sort_values(group_keys + [value_column])
        out = part.groupby(group_keys, sort=False)[value_column].agg(sep.join).reset_index()
        return out.rename(columns={value_column: out_name})

    return partitioned_final(
        ds.select_columns(group_keys + [value_column]),
        group_keys,
        per_partition,
        num_partitions,
    )


@derive_width
def sessionize(
    events: ray.data.Dataset,
    *,
    user_column: str = "user_id",
    ts_column: str = "ts",
    gap: pd.Timedelta | float = 1800.0,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Session windows per user: a new session starts when the gap to the
    previous event exceeds ``gap``.  Users hash-bucket into
    ``num_partitions`` (one reducer task per bucket, not per user — a
    per-user ``map_groups`` pays one UDF task per user, ruinous at millions
    of users); the per-bucket body is one sort + vectorized shift/diff/cumsum
    over every user run at once.

    Returns (user, n_sessions, n_events, longest_session_events).
    """
    if not isinstance(gap, pd.Timedelta):
        gap = pd.Timedelta(seconds=float(gap))

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([user_column, ts_column])
        users = part[user_column]
        ts = part[ts_column]
        same_user = users.eq(users.shift())
        within_gap = ts.diff().le(gap)
        new_session = ~(same_user & within_gap)
        # sessions never span users: new_session is True at each user's first
        # row, so the global cumsum yields per-user-distinct session ids
        session_id = new_session.cumsum()
        sess_size = session_id.map(session_id.value_counts())
        frame = pd.DataFrame(
            {
                user_column: users,
                "new_session": new_session.astype("int64"),
                "sess_size": sess_size,
            }
        )
        out = (
            frame.groupby(user_column, sort=False)
            .agg(
                n_sessions=("new_session", "sum"),
                n_events=("new_session", "size"),
                longest_session_events=("sess_size", "max"),
            )
            .reset_index()
        )
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        out["longest_session_events"] = out["longest_session_events"].astype("int64")
        return out

    return partitioned_final(events, [user_column], per_partition, num_partitions)


@derive_width
def global_rank(
    ds: ray.data.Dataset,
    order_by: list[str],
    *,
    descending: bool = False,
    out_name: str = "global_rank",
    num_partitions: int | None = None,
    sample_rows: int = 10_000,
) -> ray.data.Dataset:
    """Dataset-wide ``ROW_NUMBER() OVER (ORDER BY ...)`` without a global
    sort bottleneck or any driver-side row materialization.

    Terasort-style plan: (1) sample the FIRST order key and cut
    ``num_partitions - 1`` range boundaries; (2) assign each row its range
    partition via ``np.searchsorted`` (equal first-key values always land in
    the same partition, so ties never straddle a boundary); (3) count rows
    per partition — only ``num_partitions`` integers reach the driver — and
    prefix-sum them into rank offsets; (4) each partition sorts locally on
    the FULL key list and adds ``offset + arange``.

    Include a unique tiebreaker as the last ``order_by`` key for a
    deterministic total order (the SQL oracle needs the same).  Skew note:
    all rows sharing one first-key value form one partition — rank by a
    low-cardinality key through a composite first key instead.

    Cost: one metadata count + one column-pruned sample scan + one full pass
    with a one-key shuffle.  ``ds`` is re-executed per pass — hand this op a
    read or a checkpointed dataset, not an expensive lazy pipeline.
    """
    key0 = order_by[0]
    n_total = ds.count()
    if n_total == 0:
        return ds.map_batches(
            lambda b: b.assign(**{out_name: pd.Series(dtype="int64")}),
            batch_format="pandas",
        )
    frac = min(1.0, sample_rows / n_total)
    sample = ds.select_columns([key0]).random_sample(frac, seed=42).take_all()
    vals = np.sort(np.array([r[key0] for r in sample]))
    if len(vals):
        cuts = vals[np.linspace(0, len(vals) - 1, num_partitions + 1).astype(int)[1:-1]]
        boundaries = np.unique(cuts)
    else:
        boundaries = np.array([])

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[key0].to_numpy()
        # part is a pure function of v (equal values → same partition), and
        # monotone in the requested direction so offsets give global ranks
        if descending:
            part = len(boundaries) - np.searchsorted(boundaries, v, side="left")
        else:
            part = np.searchsorted(boundaries, v, side="right")
        batch["__part"] = part.astype("int32")
        return batch

    parted = ds.map_batches(assign, batch_format="pandas")
    counts = {
        int(r["__part"]): int(r["count()"])
        for r in parted.groupby("__part").count().take_all()
    }
    offsets, acc = {}, 0
    for p in sorted(counts):
        offsets[p] = acc
        acc += counts[p]

    def rank_partition(part: pd.DataFrame) -> pd.DataFrame:
        base = offsets[int(part["__part"].iloc[0])]
        part = part.sort_values(order_by, ascending=not descending, kind="mergesort")
        part[out_name] = base + np.arange(1, len(part) + 1, dtype=np.int64)
        return part.drop(columns="__part")

    return parted.groupby("__part").map_groups(rank_partition, batch_format="pandas")


@derive_width
def grouped_entropy(
    ds: ray.data.Dataset,
    keys: list[str],
    value_column: str,
    *,
    out_name: str = "entropy",
    round_to: int | None = 6,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Shannon entropy (log2) of ``value_column``'s distribution per key
    group — the distribution-skew probe of a data-quality pipeline (e.g.
    event-type entropy per user, token entropy per language).

    Two-level aggregation: batch-local combiner counts ``(keys, value)``
    pairs (the only thing that shuffles — one int per distinct pair), then
    one hash-partitioned vectorized reduce computes
    ``-Σ (c/n)·log2(c/n)`` per group.  Matches DuckDB's ``entropy()``.
    """
    counts = partial_groupby_agg(
        ds, keys + [value_column], {"__c": (value_column, "count")}
    )

    def reduce_partition(part: pd.DataFrame) -> pd.DataFrame:
        n = part.groupby(keys)["__c"].transform("sum")
        p = part["__c"] / n
        part["__term"] = -p * np.log2(p)
        out = part.groupby(keys, as_index=False)["__term"].sum()
        out = out.rename(columns={"__term": out_name})
        if round_to is not None:
            out[out_name] = _round_half_up(out[out_name], round_to)
        return out

    return partitioned_final(counts, keys, reduce_partition, num_partitions)


@derive_width
def quota_per_group(
    ds: ray.data.Dataset,
    group_keys: list[str],
    k: int,
    *,
    id_column: str,
    seed: int = 42,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-group quota cap — web-corpus curation's "at most ``k`` docs per
    domain/source" step.  Rows are chosen deterministically by
    ``md5(seed:id)`` order, so the selection is reproducible across runs AND
    SQL-expressible for the driver oracle
    (``ROW_NUMBER() OVER (PARTITION BY g ORDER BY md5(...), id) <= k``).

    Two-phase, like :func:`topk_per_group` but without its per-group reducer:
    each batch first prunes to its own per-group quota (the shuffle then
    carries ≤ k rows per group × batch), and the final pass hash-partitions
    GROUPS across ``num_partitions`` reducers that re-apply the quota with
    one vectorized ``sort_values().groupby().head()`` per PARTITION — at web
    scale the group key is a domain with millions of distinct values, so one
    UDF call per group would be ruinous.
    """
    import hashlib

    order = ["__qk", id_column]

    def local_quota(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__qk"] = [
            hashlib.md5(f"{seed}:{v}".encode()).hexdigest() for v in batch[id_column]
        ]
        batch = (
            batch.sort_values(order).groupby(group_keys, sort=False).head(k)
        )
        return batch

    def partition_quota(part: pd.DataFrame) -> pd.DataFrame:
        out = part.sort_values(order).groupby(group_keys, sort=False).head(k)
        return out.drop(columns="__qk")

    return partitioned_final(
        ds.map_batches(local_quota, batch_format="pandas"),
        group_keys,
        partition_quota,
        num_partitions,
    )


def value_histogram(
    ds: ray.data.Dataset,
    column: str,
    *,
    lo: float,
    hi: float,
    width: float,
    out_name: str = "n",
) -> ray.data.Dataset:
    """Fixed-width histogram of a numeric column: one row per occupied bin,
    ``bin = floor((v - lo) / width)`` for ``lo <= v < hi`` (out-of-range rows
    are dropped; empty bins are absent).  The bin formula runs in IEEE-double
    arithmetic identical to SQL's, so the driver oracle recomputes it exactly.

    Map-only binning + the :func:`partial_groupby_agg` combiner: the shuffle
    moves at most one row per (batch × occupied bin), never the values.
    """

    def binify(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[column].to_numpy(dtype="float64")
        mask = (v >= lo) & (v < hi)
        bins = np.floor((v[mask] - lo) / width).astype("int64")
        return pd.DataFrame({"bin": bins})

    binned = ds.map_batches(binify, batch_format="pandas")
    return partial_groupby_agg(binned, ["bin"], {out_name: ("bin", "count")})


def weighted_sample(
    ds: ray.data.Dataset,
    k: int,
    *,
    id_column: str,
    weight_column: str,
    seed: int = 42,
) -> ray.data.Dataset:
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis–
    Spirakis A-ES): each row gets key ``u ** (1/w)`` with ``u`` a
    reproducible uniform from the same Knuth multiplicative-hash arithmetic
    as :func:`stratified_sample`; the global top-k keys are the sample.
    P(selected) ∝ weight — the data-mixing step of a pretraining pipeline
    (e.g. weight = doc length or a per-source mixture factor), stateless and
    SQL-expressible so the driver oracle can recompute the exact pick.

    Distributed as :func:`sort_topk`: each batch prunes to its local top-k,
    the global sort sees ≤ k × n_batches rows — no full shuffle.  Rows with
    weight ≤ 0 are never selected (u^(1/w) → key 0, and dropped up front so
    1/0 weights can't poison the sort).
    """

    def add_key(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[weight_column].to_numpy(dtype="float64")
        h = (
            (batch[id_column].to_numpy().astype(np.uint64) * np.uint64(2654435761))
            + np.uint64(seed)
        ) % np.uint64(2**32)
        u = h.astype("float64") / 4294967296.0
        batch = batch[w > 0].copy()
        batch["__wkey"] = np.power(u[w > 0], 1.0 / w[w > 0])
        return batch

    keyed = ds.map_batches(add_key, batch_format="pandas")
    return sort_topk(keyed, "__wkey", k, descending=True).drop_columns(["__wkey"])


def explode(
    ds: ray.data.Dataset,
    list_column: str,
    *,
    out_column: str | None = None,
    with_position: bool = False,
    position_column: str = "pos",
) -> ray.data.Dataset:
    """UNNEST a list column: one output row per element, scalar columns
    repeated (SQL ``unnest``).  Zero-copy Arrow kernels end to end —
    ``list_flatten`` for the elements, ``list_parent_indices`` + ``take``
    for the parent columns; no Python loop, no pandas object conversion.
    ``with_position`` adds the 0-based element index (pairs with DuckDB's
    zipped ``unnest(range(...))`` idiom).  Null/empty lists produce no rows,
    matching SQL unnest."""
    import pyarrow as pa
    import pyarrow.compute as pc

    out_name = out_column or list_column

    def flatten(batch: pa.Table) -> pa.Table:
        col = batch.column(list_column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col)
        parents = pc.list_parent_indices(col)
        cols: dict = {}
        for name in batch.column_names:
            if name == list_column:
                continue
            cols[name] = batch.column(name).take(parents)
        cols[out_name] = flat
        if with_position:
            lengths = pc.list_value_length(col).to_numpy(zero_copy_only=False)
            lengths = np.nan_to_num(lengths, nan=0).astype("int64")
            ends = np.cumsum(lengths)
            # element index within its own list: global arange minus the
            # start offset of the owning list, repeated per element
            starts = np.repeat(ends - lengths, lengths)
            cols[position_column] = pa.array(
                np.arange(int(ends[-1]) if len(ends) else 0, dtype="int64") - starts
            )
        return pa.table(cols)

    return ds.map_batches(flatten, batch_format="pyarrow", zero_copy_batch=True)


def melt(
    ds: ray.data.Dataset,
    id_vars: list[str],
    value_vars: list[str],
    *,
    var_name: str = "variable",
    value_name: str = "value",
) -> ray.data.Dataset:
    """UNPIVOT: turn ``value_vars`` columns into (variable, value) rows —
    the inverse of :func:`pivot_counts`.  Map-only (pandas ``melt`` is a
    vectorized reshape; no shuffle, row count multiplies by
    ``len(value_vars)``); matches SQL ``UNPIVOT`` / a UNION ALL of one
    SELECT per source column."""

    def unpivot(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.melt(
            batch,
            id_vars=id_vars,
            value_vars=value_vars,
            var_name=var_name,
            value_name=value_name,
        )

    return ds.map_batches(unpivot, batch_format="pandas")


@derive_width
def skew_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    *,
    left_cols: list[str],
    right_cols: list[str],
    hot_k: int = 32,
    hot_min_count: int = 1000,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Skew-aware inner equi-join: identical RESULT to
    :func:`partitioned_join`, different PLAN for head keys.

    A hash-partitioned join sends every row of a key to one reducer — a web
    corpus's head key (the GND entity held by ~2% of all docs, the domain
    with 10^9 pages) turns that reducer into the job's straggler.  Plan:

    1. a Misra–Gries pass over the left side finds the ≤ ``hot_k`` keys with
       count ≥ ``hot_min_count`` (sketch + exact recount — never a full
       groupby);
    2. HOT left rows join map-side against the (few) broadcast right rows of
       those keys — the head key never enters a shuffle;
    3. COLD rows take the normal partitioned join.

    The union is the exact inner join, so the driver oracle checks it with
    plain SQL.  ``hot_min_count`` should exceed rows-per-reducer-you-can-
    tolerate; keys below it are harmless in a partition."""
    from esmarc_ray.ops.sketches import heavy_hitters

    hh = heavy_hitters(
        left.select_columns([on]), on, k=hot_k, split_tokens=False
    )
    hot_keys = set(hh[hh["n"] >= hot_min_count]["term"].astype(str))

    if not hot_keys:
        return partitioned_join(
            left, right, on,
            left_cols=left_cols, right_cols=right_cols,
            num_partitions=num_partitions, how="inner",
        )

    def is_hot(batch: pd.DataFrame) -> pd.Series:
        return batch[on].astype(str).isin(hot_keys)

    cold = partitioned_join(
        left.map_batches(lambda b: b[~is_hot(b)], batch_format="pandas"),
        right.map_batches(lambda b: b[~is_hot(b)], batch_format="pandas"),
        on,
        left_cols=left_cols, right_cols=right_cols,
        num_partitions=num_partitions, how="inner",
    )
    # right side of the hot keys: tiny by construction (hot = head of the
    # LEFT); collect once, broadcast into a map over the hot left rows
    hot_right = (
        right.map_batches(lambda b: b[is_hot(b)], batch_format="pandas")
        .select_columns([on] + right_cols)
        .to_pandas()
    )
    hot = broadcast_join(
        left.map_batches(
            lambda b: b[is_hot(b)][[on] + left_cols], batch_format="pandas"
        ),
        hot_right,
        on,
        how="inner",
    )
    return cold.union(hot)


@derive_width
def profile_columns(
    ds: ray.data.Dataset,
    columns: list[str],
    *,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Data-profiling summary: one row per column with (n, n_null,
    n_distinct, min, max) — the schema-sanity pass before a big pipeline
    run.  n/n_null/min/max are a single combiner pass (one partial row per
    batch × column); n_distinct is the distributed DISTINCT count
    (hash-partitioned, never a driver-side unique()).  min/max stringify so
    heterogeneous column types fit one result table.  Returns a small pandas
    DataFrame (|columns| rows) — driver-sized by construction."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            col = batch[c]
            non_null = col.dropna()
            # keep NATIVE values here — stringifying before the cross-batch
            # merge would make numeric min/max lexicographic ("100" < "99")
            rows.append(
                {
                    "column": c,
                    "n": len(col),
                    "n_null": int(col.isna().sum()),
                    "min": non_null.min() if len(non_null) else None,
                    "max": non_null.max() if len(non_null) else None,
                }
            )
        return pd.DataFrame(rows).astype({"min": "object", "max": "object"})

    partials = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = partials.groupby("column", as_index=False).agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        min=("min", "min"), max=("max", "max"),
    )
    for c in ("min", "max"):
        agg[c] = agg[c].map(lambda v: None if v is None else str(v))

    from esmarc_ray.ops.dedup import _distinct_on

    distinct_counts = {}
    for c in columns:
        distinct_counts[c] = _distinct_on(
            ds.select_columns([c]).map_batches(
                lambda b, _c=c: b[b[_c].notna()], batch_format="pandas"
            ),
            [c],
            num_partitions=num_partitions,
        ).count()
    agg["n_distinct"] = agg["column"].map(distinct_counts)
    return (
        agg[["column", "n", "n_null", "n_distinct", "min", "max"]]
        .sort_values("column")
        .reset_index(drop=True)
        .astype({"n": "int64", "n_null": "int64", "n_distinct": "int64"})
    )


@derive_width
def range_window(
    ds: ray.data.Dataset,
    partition_by: str,
    ts_column: str,
    value_column: str,
    *,
    span,
    fn: str = "sum",
    out_name: str = "range_value",
    round_to: int | None = 4,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """RANGE-frame window aggregate: ``fn(value) OVER (PARTITION BY k ORDER
    BY ts RANGE BETWEEN span PRECEDING AND CURRENT ROW)`` — the trailing-
    time-window metric (revenue over the last 7 days per user) the
    ROWS-frame :func:`moving_window` cannot express.

    SQL RANGE semantics exactly, ties included: the frame of row *i* is
    every row with ``ts ∈ [ts_i − span, ts_i]`` INCLUDING later-sorted peer
    rows that share ``ts_i`` (computed with two ``searchsorted`` bounds on
    the sorted timestamps + prefix sums — vectorized per key inside one
    reducer per hash-bucket of keys).  ``fn`` ∈ {sum, count, mean} (prefix-
    sum computable; sliding min/max would need a deque pass).  ``span`` is a
    ``pd.Timedelta`` (or anything subtractable from the ts dtype)."""
    if fn not in ("sum", "count", "mean"):
        raise ValueError(f"range_window: unsupported fn {fn!r}")

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        out = (
            part.sort_values([partition_by, ts_column], kind="mergesort")
            .reset_index(drop=True)
        )
        results = np.empty(len(out), dtype="float64")
        pos = 0
        for _, g in out.groupby(partition_by, sort=False):
            ts = g[ts_column].to_numpy()
            vals = g[value_column].to_numpy(dtype="float64")
            csum = np.concatenate([[0.0], np.cumsum(vals)])
            lo = np.searchsorted(ts, ts - span, side="left")
            hi = np.searchsorted(ts, ts, side="right")  # includes all peers
            if fn == "sum":
                res = csum[hi] - csum[lo]
            elif fn == "count":
                res = (hi - lo).astype("float64")
            else:  # mean
                res = (csum[hi] - csum[lo]) / (hi - lo)
            results[pos : pos + len(g)] = res
            pos += len(g)
        out[out_name] = _round_half_up(results, round_to) if round_to is not None else results
        return out

    return partitioned_final(ds, [partition_by], per_partition, num_partitions)


@derive_width
def blocked_fuzzy_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    block_on: str,
    left_text: str,
    right_text: str,
    threshold: float,
    left_cols: list[str],
    right_cols: list[str],
    sim_name: str = "similarity",
    round_to: int = 6,
    num_partitions: int | None = None,
    metric: str = "jaccard",
) -> ray.data.Dataset:
    """Record-linkage join: equality BLOCKING on ``block_on`` (the classic
    ER trick — only same-block pairs are ever compared, so the cross
    product is per-block, not global) + a verify on the text columns.
    ``metric="jaccard"`` is character-set Jaccard (DuckDB's ``jaccard()``
    definition; pairs below ``threshold`` drop); ``metric="levenshtein"``
    is unit-cost edit distance (DuckDB's ``levenshtein()``; integer, pairs
    ABOVE ``threshold`` drop) — both SQL-oracle-checkable exactly.

    Scale shape: one partitioned equi-join on the blocking key, then a
    map-only filter — no all-pairs stage anywhere.  Pick ``block_on`` with
    enough selectivity that a block fits a reducer (the ER blocking-design
    problem, documented here rather than hidden)."""
    if metric not in ("jaccard", "levenshtein", "jaro_winkler"):
        raise ValueError(f"blocked_fuzzy_join: unknown metric {metric!r}")
    joined = partitioned_join(
        left, right, block_on,
        left_cols=[left_text] + left_cols,
        right_cols=[right_text] + right_cols,
        num_partitions=num_partitions, how="inner",
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        sims = np.empty(len(batch), dtype="float64")
        for i, (a, b) in enumerate(zip(batch[left_text], batch[right_text])):
            sa, sb = set(a), set(b)
            union = len(sa | sb)
            sims[i] = len(sa & sb) / union if union else 1.0
        batch = batch.copy()
        batch[sim_name] = _round_half_up(sims, round_to)
        return batch[batch[sim_name] >= threshold]

    def verify_lev(batch: pd.DataFrame) -> pd.DataFrame:
        dists = np.empty(len(batch), dtype="int64")
        for i, (a, b) in enumerate(zip(batch[left_text], batch[right_text])):
            dists[i] = _levenshtein(a or "", b or "")
        batch = batch.copy()
        batch[sim_name] = dists
        return batch[batch[sim_name] <= threshold]

    def verify_jw(batch: pd.DataFrame) -> pd.DataFrame:
        sims = np.empty(len(batch), dtype="float64")
        for i, (a, b) in enumerate(zip(batch[left_text], batch[right_text])):
            sims[i] = _jaro_winkler(a or "", b or "")
        batch = batch.copy()
        batch[sim_name] = _round_half_up(sims, round_to)
        return batch[batch[sim_name] >= threshold]

    verifiers = {"jaccard": verify, "levenshtein": verify_lev,
                 "jaro_winkler": verify_jw}
    return joined.map_batches(verifiers[metric], batch_format="pandas")


def _jaro_winkler(a: str, b: str) -> float:
    """Jaro–Winkler similarity, DuckDB's ``jaro_winkler_similarity()``
    definition (verified empirically): empty strings score 0, match window
    ``max(|a|,|b|)//2 − 1``, Winkler boost ``+ l·0.1·(1−jaro)`` applied only
    when jaro > 0.7, common prefix ``l`` capped at 4."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    matched_b = [False] * lb
    ma: list[str] = []
    for i, ca in enumerate(a):
        lo = i - window if i > window else 0
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and b[j] == ca:
                matched_b[j] = True
                ma.append(ca)
                break
    m = len(ma)
    if m == 0:
        return 0.0
    mb = [b[j] for j in range(lb) if matched_b[j]]
    half_transpositions = sum(ca != cb for ca, cb in zip(ma, mb))
    t = float(half_transpositions // 2)  # DuckDB floors the half count
    jaro = (m / la + m / lb + (m - t) / m) / 3.0
    if jaro > 0.7:
        l = 0
        for ca, cb in zip(a[:4], b[:4]):
            if ca != cb:
                break
            l += 1
        jaro = jaro + l * 0.1 * (1.0 - jaro)
    return jaro


@derive_width
def fellegi_sunter_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    block_on: str,
    fields: "list[dict]",
    left_cols: list[str],
    right_cols: list[str],
    upper: float,
    lower: float,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Fellegi–Sunter probabilistic record linkage (the classical ER scoring
    model behind Splink/RecordLinkage): equality blocking on ``block_on``,
    then each candidate pair scores a per-field agreement vector and sums
    PRECOMPUTED log-likelihood weights — ``w_agree = ln(m/u)`` when the field
    agrees, ``w_disagree = ln((1-m)/(1-u))`` when it doesn't — and the total
    classifies ``link`` / ``possible`` / ``non_link`` against the two
    thresholds.  Weights arrive as literal constants in each field spec
    (the production idiom: m/u are estimated offline by EM, the scorer ships
    the folded weights), which also makes the float path engine-exact — no
    libm ``ln`` in the hot loop, just adds in field order.

    ``fields`` entries: ``{"name", "left", "right", "kind", "w_agree",
    "w_disagree"}`` plus a kind parameter — ``kind`` one of

    * ``"jaccard_ge"`` (param ``threshold``): character-set Jaccard of the
      two strings ≥ threshold (DuckDB ``jaccard()`` definition);
    * ``"suffix_eq"`` (param ``n``): last-n-characters equality;
    * ``"bucket_eq"`` (param ``width``): ``floor(v / width)`` equality on
      numerics.

    Scale shape: one partitioned equi-join on the blocking key + a map-only
    scoring pass — identical to :func:`blocked_fuzzy_join`, no all-pairs
    stage; the agreement algebra is vectorized except the character-set
    Jaccard (same per-pair loop the verify stages share)."""
    for f in fields:
        if f["kind"] not in ("jaccard_ge", "suffix_eq", "bucket_eq"):
            raise ValueError(f"fellegi_sunter_join: unknown kind {f['kind']!r}")

    need_left = sorted({f["left"] for f in fields} | set(left_cols))
    need_right = sorted({f["right"] for f in fields} | set(right_cols))
    joined = partitioned_join(
        left, right, block_on,
        left_cols=need_left, right_cols=need_right,
        num_partitions=num_partitions, how="inner",
    )

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[left_cols + right_cols].copy()
        total = np.zeros(len(batch), dtype="float64")
        for f in fields:
            lv, rv = batch[f["left"]], batch[f["right"]]
            if f["kind"] == "jaccard_ge":
                agree = np.empty(len(batch), dtype=bool)
                for i, (a, b) in enumerate(zip(lv, rv)):
                    sa, sb = set(a or ""), set(b or "")
                    union = len(sa | sb)
                    sim = len(sa & sb) / union if union else 1.0
                    agree[i] = sim >= f["threshold"]
            elif f["kind"] == "suffix_eq":
                n = f["n"]
                agree = (
                    lv.astype(str).str[-n:] == rv.astype(str).str[-n:]
                ).to_numpy()
            else:  # bucket_eq
                w = float(f["width"])
                agree = (
                    np.floor(lv.to_numpy(dtype="float64") / w)
                    == np.floor(rv.to_numpy(dtype="float64") / w)
                )
            out["ag_" + f["name"]] = agree
            total = total + np.where(agree, f["w_agree"], f["w_disagree"])
        out["weight"] = _round_half_up(total, 6)
        out["decision"] = np.select(
            [out["weight"] >= upper, out["weight"] >= lower],
            ["link", "possible"],
            default="non_link",
        )
        return out

    return joined.map_batches(score, batch_format="pandas")


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute — the DuckDB
    ``levenshtein()`` definition), two-row DP."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def expectations(
    ds: ray.data.Dataset,
    checks: "dict[str, Callable[[pd.DataFrame], pd.Series]]",
) -> ray.data.Dataset:
    """Data-quality gate: evaluate named row-level expectations and return
    one row per check — (check, n_rows, n_violations) — the
    assert-before-you-train pass of a data pipeline.  Each check is a
    vectorized predicate (batch → boolean Series, True = row PASSES); all
    checks run in ONE pass over the data and reduce via the combiner (one
    partial row per batch × check), so adding checks is free of extra
    scans."""
    names = list(checks)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for name in names:
            ok = checks[name](batch)
            rows.append(
                {
                    "check": name,
                    "n_rows": len(batch),
                    "n_violations": int((~ok.fillna(False)).sum()),
                }
            )
        return pd.DataFrame(rows)

    def final(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("check", as_index=False, sort=False)[
            ["n_rows", "n_violations"]
        ].sum()

    return partitioned_final(
        ds.map_batches(partial, batch_format="pandas"), ["check"], final,
        num_partitions=4,
    )


@derive_width
def diff_datasets(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key_cols: list[str],
    compare_cols: list[str],
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Data diff between two runs/stores: classify every key as ``added``
    (right only), ``removed`` (left only), ``changed`` (present in both,
    any compare column differs) or ``unchanged`` — the regression gate when
    a pipeline change should (or should not) move the output.  Returns
    (status, n), always emitting all four statuses (0 rows count too).

    One co-partitioned exchange on the key (the partitioned-join pattern)
    + a combiner count; per-partition comparison is a vectorized pandas
    merge, NaN==NaN counts as equal (a null field that stays null is
    unchanged).  Inputs must be KEY-UNIQUE on each side (true for stores /
    deduped outputs; duplicate keys would cross-product in the merge)."""

    def tag(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[key_cols + compare_cols].copy()
            out.columns = key_cols + [f"{c}__{side}" for c in compare_cols]
            out["__side"] = side
            out[PART] = hash_partition(out, key_cols, num_partitions)
            return out

        return fn

    def classify(part: pd.DataFrame) -> pd.DataFrame:
        lf = part[part["__side"] == "L"][
            key_cols + [f"{c}__L" for c in compare_cols]
        ]
        rf = part[part["__side"] == "R"][
            key_cols + [f"{c}__R" for c in compare_cols]
        ]
        m = lf.merge(rf, on=key_cols, how="outer", indicator=True)
        counts = {"added": 0, "removed": 0, "changed": 0, "unchanged": 0}
        counts["added"] = int((m["_merge"] == "right_only").sum())
        counts["removed"] = int((m["_merge"] == "left_only").sum())
        both = m[m["_merge"] == "both"]
        if len(both):
            same = pd.Series(True, index=both.index)
            for c in compare_cols:
                a, b = both[f"{c}__L"], both[f"{c}__R"]
                same &= (a == b) | (a.isna() & b.isna())
            counts["changed"] = int((~same).sum())
            counts["unchanged"] = int(same.sum())
        return pd.DataFrame(
            {"status": list(counts), "n": list(counts.values())}
        )

    parts = left.map_batches(tag("L"), batch_format="pandas").union(
        right.map_batches(tag("R"), batch_format="pandas")
    )
    partials = reduce_partitions(parts, classify)
    return partial_groupby_agg(partials, ["status"], {"n": ("n", "sum")})


@derive_width
def token_quota_per_group(
    ds: ray.data.Dataset,
    group_keys: list[str],
    budget: int,
    *,
    token_column: str,
    id_column: str,
    seed: int = 42,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Token-budgeted per-group cap — the data-MIXING variant of
    :func:`quota_per_group`: each group (source/domain) keeps docs in
    deterministic md5 order while the cumulative token count BEFORE the doc
    is under ``budget`` (the straddling doc is kept, so every non-empty
    group contributes at least one doc; a "≤ budget" rule would silently
    zero out groups whose first doc exceeds it).

    SQL-expressible: ``SUM(tokens) OVER (... ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING) < budget`` over the same md5 order.  Groups
    hash-partition; each partition runs one vectorized sort + groupby-cumsum
    + filter.  Unlike the doc-count quota there is no per-batch prune (the
    budget needs the global per-group order), so the shuffle carries the
    group's candidate rows — at web scale pre-filter obviously-over-budget
    tails with a per-batch doc-count cap first."""
    import hashlib

    def add_key(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__qk"] = [
            hashlib.md5(f"{seed}:{v}".encode()).hexdigest() for v in batch[id_column]
        ]
        return batch

    def partition_budget(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["__qk", id_column], kind="mergesort")
        grouped = part.groupby(group_keys, sort=False)
        cum_before = grouped[token_column].cumsum() - part[token_column]
        return part[cum_before < budget].drop(columns="__qk")

    return partitioned_final(
        ds.map_batches(add_key, batch_format="pandas"),
        group_keys,
        partition_budget,
        num_partitions,
    )


def funnel_counts(
    events: ray.data.Dataset,
    steps: list[str],
    *,
    user_column: str = "user_id",
    ts_column: str = "ts",
    type_column: str = "event_type",
) -> ray.data.Dataset:
    """Ordered funnel by FIRST OCCURRENCE: for each step prefix, count users
    whose first-occurrence timestamps strictly increase through it
    (first(step1) < first(step2) < …).  One combiner pass (per-batch min-ts
    per user × step — the shuffle carries |users|·|steps| small rows, never
    events), then a vectorized per-partition comparison.  Returns
    (step, n_users) with one row per step, n_users monotonically
    non-increasing.

    Semantics note (SQL-matching, deterministic): this is the
    first-occurrence funnel — a user who purchases BEFORE their first view
    and again after still fails view→purchase (min-ts ordering), unlike a
    subsequence-matching funnel.  That is the classic cheap variant; the
    oracle recomputes it with min() FILTER chains."""
    step_cols = [f"__t{i}" for i in range(len(steps))]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        kept = batch[batch[type_column].isin(steps)]
        out = kept.groupby([user_column, type_column], as_index=False, sort=False)[
            ts_column
        ].min()
        return out

    def final(part: pd.DataFrame) -> pd.DataFrame:
        firsts = (
            part.groupby([user_column, type_column], as_index=False, sort=False)[
                ts_column
            ].min()
            .pivot(index=user_column, columns=type_column, values=ts_column)
        )
        counts = []
        ok = pd.Series(True, index=firsts.index)
        prev = None
        for i, step in enumerate(steps):
            col = firsts[step] if step in firsts else pd.Series(pd.NaT, index=firsts.index)
            ok = ok & col.notna() & (True if prev is None else (prev < col))
            counts.append({"step": step, "step_index": i, "n_users": int(ok.sum())})
            prev = col
        return pd.DataFrame(counts)

    partials = events.map_batches(partial, batch_format="pandas")
    # per-user rows co-partition on user; the per-partition pivot counts
    # locally and a last combiner sums the (|steps|) rows per partition
    staged = partitioned_final(
        partials, [user_column], final, num_partitions=16
    )
    return partial_groupby_agg(
        staged, ["step", "step_index"], {"n_users": ("n_users", "sum")}
    )


@derive_width
def cohort_retention(
    events: ray.data.Dataset,
    *,
    user_column: str = "user_id",
    ts_column: str = "ts",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Weekly cohort-retention matrix: users are cohorted by the ISO week of
    their first event; each cell counts the cohort's users active
    ``week_offset`` weeks later — the standard product-analytics retention
    triangle.

    Two-shuffle shape: per-batch DISTINCT (user, week) pairs first (the
    combiner — shuffle volume is bounded by users × active-weeks, never raw
    events), hash-partitioned by user so each partition derives its own
    users' cohort week (min) and offsets locally with no join, then a tiny
    (cohort_week, week_offset) count merge.  Week truncation is Monday-start,
    matching SQL ``date_trunc('week', ts)``.
    """

    def distinct_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                user_column: batch[user_column],
                "__wk": batch[ts_column].dt.to_period("W").dt.start_time,
            }
        ).drop_duplicates()

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates([user_column, "__wk"])
        cohort = part.groupby(user_column)["__wk"].transform("min")
        return pd.DataFrame(
            {
                "cohort_week": cohort.dt.strftime("%Y-%m-%d"),
                "week_offset": ((part["__wk"] - cohort).dt.days // 7).astype(
                    "int64"
                ),
            }
        ).groupby(["cohort_week", "week_offset"], as_index=False).size()

    def final(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.groupby(["cohort_week", "week_offset"], as_index=False)["size"]
            .sum()
            .rename(columns={"size": "n_users"})
        )

    pairs = events.map_batches(distinct_pairs, batch_format="pandas")
    per_user_counts = partitioned_final(
        pairs, [user_column], per_user, num_partitions
    )
    return partitioned_final(
        per_user_counts, ["cohort_week", "week_offset"], final, num_partitions=8
    )


@derive_width
def new_users_daily(
    events: ray.data.Dataset,
    *,
    user_column: str = "user_id",
    ts_column: str = "ts",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Daily new-user counts plus the running cumulative distinct-user total
    (the "cumulative distinct over time" ask SQL windows can't express
    directly — derived instead from each user's FIRST-seen day).

    Combiner-shaped: per-batch min-day per user, hash-partitioned by user for
    the exact per-user min, reduced to per-day counts (O(days) rows by
    construction) whose prefix sum runs in one task — the only sequential
    step is over the tiny day-level table, never the events.
    """

    def batch_min(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {
                    user_column: batch[user_column],
                    "__d": batch[ts_column].dt.normalize(),
                }
            )
            .groupby(user_column, as_index=False)["__d"]
            .min()
        )

    def per_user_day_counts(part: pd.DataFrame) -> pd.DataFrame:
        first = part.groupby(user_column, as_index=False)["__d"].min()
        return first.groupby("__d", as_index=False).size()

    def day_merge(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("__d", as_index=False)["size"].sum()

    daily = partitioned_final(
        partitioned_final(
            events.map_batches(batch_min, batch_format="pandas"),
            [user_column],
            per_user_day_counts,
            num_partitions,
        ),
        ["__d"],
        day_merge,
        num_partitions=8,
    )

    def cumulate(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.sort_values("__d")
        return pd.DataFrame(
            {
                "day": batch["__d"].dt.strftime("%Y-%m-%d"),
                "new_users": batch["size"].astype("int64"),
                "cum_users": batch["size"].cumsum().astype("int64"),
            }
        )

    # O(days) rows: one block, one sequential cumsum task
    return daily.repartition(1).map_batches(
        cumulate, batch_format="pandas", batch_size=None
    )


def temperature_sample(
    ds: ray.data.Dataset,
    group_column: str,
    id_column: str,
    *,
    alpha: float = 0.5,
) -> ray.data.Dataset:
    """Temperature-balanced group mixing — the alpha-sampling used to
    rebalance multilingual / multi-source LLM corpora: per-group keep-rate
    ``r_g = (n_min / n_g)^(1-alpha)`` makes sampled counts proportional to
    ``n_g^alpha`` (alpha=1 keeps everything, alpha→0 equalizes groups; the
    smallest group is always kept whole).

    Deterministic and engine-reproducible: a row is kept iff its Knuth
    multiplicative hash ``u(id) = (id*2654435761 mod 2^32)/2^32`` falls under
    its group's rate — the same arithmetic a SQL oracle can run (unlike
    random_sample).  Two passes: a combiner group-count (rows = distinct
    groups, tiny by construction), rates broadcast into a stateless filter
    map — the corpus itself never shuffles."""
    import numpy as np

    counts = partial_groupby_agg(
        ds, [group_column], {"__n": (id_column, "count")}
    ).to_pandas()
    n_min = float(counts["__n"].min())
    rates = {
        g: (n_min / float(n)) ** (1.0 - alpha)
        for g, n in zip(counts[group_column], counts["__n"])
    }

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            batch[id_column].to_numpy().astype(np.uint64) * np.uint64(2654435761)
        ) % np.uint64(2**32)
        u = h.astype(np.float64) / float(2**32)
        r = batch[group_column].map(rates).to_numpy(dtype=np.float64)
        return batch[u < r]

    return ds.map_batches(keep, batch_format="pandas")


@derive_width
def grouped_winsorize(
    ds: ray.data.Dataset,
    group_column: str,
    value_column: str,
    *,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
    out_name: str = "winsorized",
    round_to: int | None = 2,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-group winsorization: every value clipped to its group's
    [p_lo, p_hi] ``percentile_cont`` bounds — the standard outlier-taming
    transform before training on heavy-tailed features.

    ONE exact-quantile shuffle computes BOTH bounds (per-partition sort +
    vectorized positional gather over contiguous group runs, the
    :func:`grouped_quantile` kernel run for two q's in the same pass); the
    per-group bound table is tiny by construction (rows = distinct groups)
    and broadcasts into a stateless clip map, so the corpus itself shuffles
    once and only the (group, value) projection moves."""
    import numpy as np

    def bounds_per_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([group_column, value_column])
        vals = part[value_column].to_numpy(dtype="float64")
        grouped = part.groupby(group_column, sort=False)
        sizes = grouped.size().to_numpy()
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        out = {group_column: grouped.size().index.to_numpy()}
        for q, name in ((p_lo, "__lo"), (p_hi, "__hi")):
            pos = q * (sizes - 1)
            idx = np.floor(pos).astype(np.int64)
            frac = pos - idx
            v_lo = vals[starts + idx]
            v_hi = vals[starts + np.minimum(idx + 1, sizes - 1)]
            out[name] = v_lo * (1.0 - frac) + v_hi * frac
        return pd.DataFrame(out)

    bounds = partitioned_final(
        ds.select_columns([group_column, value_column]),
        [group_column],
        bounds_per_partition,
        num_partitions,
    ).to_pandas()
    lo_map = dict(zip(bounds[group_column], bounds["__lo"]))
    hi_map = dict(zip(bounds[group_column], bounds["__hi"]))

    def clip(batch: pd.DataFrame) -> pd.DataFrame:
        lo_v = batch[group_column].map(lo_map).to_numpy(dtype="float64")
        hi_v = batch[group_column].map(hi_map).to_numpy(dtype="float64")
        clipped = np.clip(batch[value_column].to_numpy(dtype="float64"), lo_v, hi_v)
        batch[out_name] = (
            _round_half_up(clipped, round_to) if round_to is not None else clipped
        )
        return batch

    return ds.map_batches(clip, batch_format="pandas")


@derive_width
def conversion_lag(
    events: ray.data.Dataset,
    from_type: str,
    to_type: str,
    *,
    user_column: str = "user_id",
    ts_column: str = "ts",
    type_column: str = "event_type",
    bucket_hours: int = 24,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Conversion-lag histogram: for every user whose FIRST ``from_type``
    event precedes their FIRST ``to_type`` event, the lag bucketed into
    ``bucket_hours`` bins — (lag_bucket, n_users), the time-to-convert
    distribution behind funnel analyses.

    Combiner-shaped: per-batch min-ts per (user, step) — two rows per user
    per batch at most — hash-partitioned by user for the exact first-seen
    pair and its lag, then a tiny per-bucket count merge."""

    def batch_min(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch[type_column].isin([from_type, to_type])]
        return (
            pd.DataFrame(
                {
                    user_column: sub[user_column],
                    "__step": sub[type_column],
                    "__ts": sub[ts_column],
                }
            )
            .groupby([user_column, "__step"], as_index=False)["__ts"]
            .min()
        )

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        first = part.groupby([user_column, "__step"], as_index=False)["__ts"].min()
        wide = first.pivot(index=user_column, columns="__step", values="__ts")
        if from_type not in wide.columns or to_type not in wide.columns:
            return pd.DataFrame({"lag_bucket": pd.Series(dtype="int64")}).assign(size=0).iloc[0:0]
        wide = wide.dropna(subset=[from_type, to_type])
        lag_s = (wide[to_type] - wide[from_type]).dt.total_seconds()
        lag_s = lag_s[lag_s >= 0]
        bucket = (lag_s // (bucket_hours * 3600.0)).astype("int64")
        return bucket.rename("lag_bucket").to_frame().groupby(
            "lag_bucket", as_index=False
        ).size()

    def final(part: pd.DataFrame) -> pd.DataFrame:
        return (
            part.groupby("lag_bucket", as_index=False)["size"]
            .sum()
            .rename(columns={"size": "n_users"})
        )

    staged = events.map_batches(batch_min, batch_format="pandas")
    per = partitioned_final(staged, [user_column], per_user, num_partitions)
    return partitioned_final(per, ["lag_bucket"], final, num_partitions=8)


@derive_width
def grouped_quantiles_multi(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    qs: list[float],
    *,
    out_name: str = "quantile",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact per-group ``percentile_cont`` for MANY quantiles in ONE shuffle
    + ONE per-partition sort — the tail-latency dashboard shape
    (p50/p95/p99 together): :func:`grouped_quantile` would pay the column
    shuffle once per q; this shares the sorted runs across all of them and
    emits long form (group_keys..., q, value)."""
    import numpy as np

    qs = sorted(float(q) for q in qs)

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(group_keys + [value_column])
        vals = part[value_column].to_numpy(dtype="float64")
        grouped = part.groupby(group_keys, sort=False)
        sizes_series = grouped.size()
        sizes = sizes_series.to_numpy()
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        frames = []
        for q in qs:
            pos = q * (sizes - 1)
            lo = np.floor(pos).astype(np.int64)
            hi = np.ceil(pos).astype(np.int64)
            frac = pos - lo
            res = vals[starts + lo] * (1 - frac) + vals[starts + hi] * frac
            out = sizes_series.reset_index()[group_keys].copy()
            out["q"] = q
            out[out_name] = res.astype("float64")
            frames.append(out)
        return pd.concat(frames, ignore_index=True)

    return partitioned_final(
        ds.select_columns(group_keys + [value_column]),
        group_keys,
        per_partition,
        num_partitions,
    )


def grouped_ols(
    ds: ray.data.Dataset,
    group_keys: list[str],
    x_column: str,
    y_column: str,
    *,
    round_to: int | None = 6,
) -> ray.data.Dataset:
    """Per-group simple linear regression (OLS slope + intercept) — the
    per-key trend extractor (e.g. value drift per user over time).

    Pure combiner: each batch reduces to per-group moment partials
    (n, Σx, Σy, Σxy, Σx²); the final merge computes
    ``slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)`` — shuffle volume is
    O(batches × groups), never rows, the same float path as SQL
    ``regr_slope`` / ``regr_intercept``."""
    import numpy as np

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[x_column].astype("float64")
        y = batch[y_column].astype("float64")
        g = batch[group_keys].copy()
        g["__n"] = 1.0
        g["__sx"] = x
        g["__sy"] = y
        g["__sxy"] = x * y
        g["__sxx"] = x * x
        return g.groupby(group_keys, as_index=False).sum()

    def final(part: pd.DataFrame) -> pd.DataFrame:
        m = part.groupby(group_keys, as_index=False).sum()
        n, sx, sy = m["__n"], m["__sx"], m["__sy"]
        denom = n * m["__sxx"] - sx * sx
        slope = (n * m["__sxy"] - sx * sy) / denom
        intercept = (sy - slope * sx) / n
        out = m[group_keys].copy()
        if round_to is not None:
            slope = _round_half_up(slope, round_to)
            intercept = _round_half_up(intercept, round_to)
        out["slope"] = slope
        out["intercept"] = intercept
        return out

    return partitioned_final(
        ds.map_batches(partial, batch_format="pandas"), group_keys, final
    )


def categorical_mi(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    *,
    round_to: int = 6,
) -> ray.data.Dataset:
    """Mutual information (nats) between two categorical columns — the
    dependence screen of a feature-selection pass.

    One combiner pass of joint (a, b) counts (bounded by the category-pair
    universe); MI folds on the driver from the tiny joint table:
    ``Σ p_ab · ln(p_ab / (p_a p_b))``."""
    import numpy as np

    joint = partial_groupby_agg(
        ds, [col_a, col_b], {"n": (col_a, "count")}
    ).to_pandas()
    total = float(joint["n"].sum())
    p_ab = joint["n"] / total
    p_a = joint.groupby(col_a)["n"].transform("sum") / total
    p_b = joint.groupby(col_b)["n"].transform("sum") / total
    mi = float((p_ab * np.log(p_ab / (p_a * p_b))).sum())
    return pd.DataFrame({"mi": [float(_round_half_up(np.array([mi]), round_to)[0])]})


def grouped_genmean(
    ds: ray.data.Dataset,
    group_keys: list[str],
    value_column: str,
    *,
    kind: str = "geometric",
    out_name: str | None = None,
    round_to: int | None = 6,
) -> ray.data.Dataset:
    """Per-group geometric or harmonic mean — the rate/ratio-correct
    averages (geometric for multiplicative factors, harmonic for rates).
    Combiner: per-batch (n, Σln x) or (n, Σ1/x) partials; requires
    strictly positive values (raises on violation inside the partial, so a
    bad row fails loudly instead of poisoning the aggregate)."""
    import numpy as np

    if kind not in ("geometric", "harmonic"):
        raise ValueError(f"unknown kind {kind!r}")
    out_name = out_name or f"{kind}_mean"

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[value_column].to_numpy(dtype="float64")
        if (x <= 0).any():
            raise ValueError(f"{kind} mean requires positive {value_column}")
        g = batch[group_keys].copy()
        g["__n"] = 1.0
        g["__s"] = np.log(x) if kind == "geometric" else 1.0 / x
        return g.groupby(group_keys, as_index=False).sum()

    def final(part: pd.DataFrame) -> pd.DataFrame:
        m = part.groupby(group_keys, as_index=False).sum()
        res = (
            np.exp(m["__s"] / m["__n"])
            if kind == "geometric"
            else m["__n"] / m["__s"]
        )
        out = m[group_keys].copy()
        out[out_name] = _round_half_up(res, round_to) if round_to is not None else res
        return out

    return partitioned_final(
        ds.map_batches(partial, batch_format="pandas"), group_keys, final
    )


def exact_global_quantile(
    ds: ray.data.Dataset,
    value_column: str,
    q: float = 0.5,
    *,
    n_bins: int = 4096,
) -> float:
    """EXACT global ``percentile_cont`` of one column at any scale with
    bounded driver memory — the classic two-pass distributed selection:

    1. min/max + a mergeable ``n_bins`` histogram locate the bin(s) holding
       the target rank (one streaming pass, n_bins ints per batch);
    2. only values inside those bins are collected (expected |input|/n_bins
       rows — raise ``n_bins`` with data size) and the exact order statistic
       interpolates locally.

    Unlike :func:`grouped_quantile` nothing shuffles the column, and unlike
    :func:`approx_quantile` the answer is exact, not bin-resolution."""
    import numpy as np

    stats = ds.aggregate(
        ray.data.aggregate.Min(value_column), ray.data.aggregate.Max(value_column)
    )
    lo, hi = float(stats[f"min({value_column})"]), float(stats[f"max({value_column})"])
    if lo == hi:
        return lo
    width = (hi - lo) / n_bins

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_column].to_numpy(dtype="float64")
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins)
        return pd.DataFrame({"h": [counts.astype(np.int64).tobytes()]})

    counts = np.zeros(n_bins, dtype=np.int64)
    for row in ds.map_batches(hist_partial, batch_format="pandas").iter_rows():
        counts += np.frombuffer(row["h"], dtype=np.int64)
    n = int(counts.sum())
    # percentile_cont rank: q*(n-1) between floor and ceil order statistics
    pos = q * (n - 1)
    k_lo, k_hi = int(np.floor(pos)), int(np.ceil(pos))
    cum = np.cumsum(counts)
    b_lo = int(np.searchsorted(cum, k_lo + 1))
    b_hi = int(np.searchsorted(cum, k_hi + 1))

    def in_bins(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch[value_column].to_numpy(dtype="float64")
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, n_bins - 1)
        keep = (idx >= b_lo) & (idx <= b_hi)
        return pd.DataFrame({value_column: v[keep]})

    local = np.sort(
        ds.map_batches(in_bins, batch_format="pandas")
        .to_pandas()[value_column]
        .to_numpy(dtype="float64")
    )
    before = int(cum[b_lo - 1]) if b_lo > 0 else 0  # rows in bins left of b_lo
    v_lo = local[k_lo - before]
    v_hi = local[k_hi - before]
    frac = pos - k_lo
    return float(v_lo * (1.0 - frac) + v_hi * frac)


def skyline_2d(
    ds: ray.data.Dataset,
    *,
    maximize: str,
    minimize: str,
) -> ray.data.Dataset:
    """Distributed 2-D Pareto frontier (skyline): the rows not dominated by
    any other row, where a dominator is ``>=`` on the maximized column,
    ``<=`` on the minimized one, and strict in at least one.  Exact ties on
    BOTH columns never dominate each other, so every duplicate of a frontier
    point is returned.

    Scale shape: the union of per-block local skylines contains the global
    skyline, so each block first reduces to its own frontier (expected
    O(log block) points on unordered data), and ONE merge task repeats the
    same vectorized pass over the ≤ frontier × n_blocks candidates — the
    full table is never collected, and nothing runs on the driver.  The
    per-block pass is sort + cummin, no Python loop over rows."""
    import numpy as np

    def local_frontier(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return batch
        pts = (
            batch[[maximize, minimize]]
            .drop_duplicates()
            .sort_values([maximize, minimize], ascending=[False, True])
        )
        av = pts[maximize].to_numpy()
        bv = pts[minimize].to_numpy()
        # sorted a desc / b asc: a point survives iff it is FIRST of its
        # a-group (within a group only the smallest b is undominated) and
        # its b is strictly below the min-b of every strictly-greater a
        # (prefix cummin); a tie with that cummin means some higher-a point
        # matches its b → dominated (strict in a)
        cummin = np.minimum.accumulate(bv)
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = (av[1:] != av[:-1]) & (bv[1:] < cummin[:-1])
        return batch.merge(pts[keep], on=[maximize, minimize])

    candidates = ds.map_batches(local_frontier, batch_format="pandas")
    return candidates.repartition(1).map_batches(
        local_frontier, batch_format="pandas", batch_size=None
    )


@derive_width
def theilsen_slope(
    ds: ray.data.Dataset,
    group_keys: list[str],
    x_column: str,
    y_column: str,
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-group Theil–Sen trend estimator: the MEDIAN of all pairwise
    slopes (y_j − y_i)/(x_j − x_i), i<j — the robust regression slope
    (breakdown point ~29%, immune to the outliers that wreck least
    squares).  Groups are hash-partitioned so each group's points land in
    one task; the O(n²) pair enumeration is a numpy triu broadcast inside
    that task, which is why the op expects PRE-AGGREGATED series (e.g. one
    point per day) — pairs grow quadratically in the series length, not in
    the dataset."""
    import numpy as np

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for keys, g in part.groupby(group_keys):
            x = g[x_column].to_numpy(dtype="float64")
            y = g[y_column].to_numpy(dtype="float64")
            i, j = np.triu_indices(len(x), k=1)
            key_tuple = keys if isinstance(keys, tuple) else (keys,)
            if len(i) == 0:
                slope = float("nan")
            else:
                slope = float(np.median((y[j] - y[i]) / (x[j] - x[i])))
            rows.append(
                dict(zip(group_keys, key_tuple))
                | {"n_points": int(len(x)),
                   "slope": np.floor(slope * 1e6 + 0.5) / 1e6}
            )
        return pd.DataFrame(rows)

    return partitioned_final(ds, group_keys, per_part, num_partitions)


@derive_width
def sorted_neighborhood_join(
    ds: ray.data.Dataset,
    *,
    sort_keys: list[str],
    id_column: str,
    text_column: str,
    window: int = 3,
    threshold: float = 0.5,
    chunk: int = 512,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Sorted-neighborhood record linkage (the OTHER classic ER blocking,
    complementing equality blocking in :func:`blocked_fuzzy_join`): records
    sort by ``sort_keys``, every record is compared only with its next
    ``window`` neighbors in sort order, survivors verified by char-set
    Jaccard ≥ ``threshold``.

    Scale shape: ranks come from :func:`global_rank` (terasort pattern —
    hand this op a READ, not an expensive lazy pipeline, it re-executes per
    pass); the rank space splits into ``chunk``-sized partitions and each
    partition receives a HALO of the next chunk's first ``window`` rows
    (ghost-row exchange), so every (r, r+δ≤window) pair is formed in
    exactly one task and no global self-join ever happens.  Pairs emit only
    from rows a partition OWNS — halo rows pair leftward, never
    rightward."""
    import numpy as np

    ranked = global_rank(
        ds, sort_keys + [id_column], out_name="__rk",
        num_partitions=num_partitions,
    )

    def route(batch: pd.DataFrame) -> pd.DataFrame:
        rk0 = batch["__rk"].to_numpy() - 1
        part = rk0 // chunk
        own = batch.assign(__part=part, __own=True)
        halo_mask = ((rk0 % chunk) < window) & (part > 0)
        halo = batch[halo_mask].assign(
            __part=part[halo_mask] - 1, __own=False
        )
        return pd.concat([own, halo], ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("__rk")
        owned = g[g["__own"]]
        out = []
        for delta in range(1, window + 1):
            left = owned.assign(__rk_j=owned["__rk"] + delta)
            m = left.merge(
                g, left_on="__rk_j", right_on="__rk",
                suffixes=("_a", "_b"),
            )
            for ia, ib, a, b in zip(
                m[f"{id_column}_a"],
                m[f"{id_column}_b"],
                m[f"{text_column}_a"],
                m[f"{text_column}_b"],
            ):
                sa, sb = set(a), set(b)
                union = len(sa | sb)
                sim = len(sa & sb) / union if union else 1.0
                sim = float(np.floor(sim * 1e6 + 0.5) / 1e6)
                if sim >= threshold:
                    out.append((ia, ib, sim))
        return pd.DataFrame(
            out, columns=[f"{id_column}_a", f"{id_column}_b", "similarity"]
        ).astype({f"{id_column}_a": "int64", f"{id_column}_b": "int64"})

    return reduce_partitions(ranked.map_batches(route, batch_format="pandas"), pairs)


@derive_width
def scd2_intervals(
    ds: ray.data.Dataset,
    key: str,
    attr_column: str,
    order_by: list[str],
    *,
    ts_column: str | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Slowly-changing-dimension type-2 build from an event stream: per key,
    order by ``order_by``, keep only rows where ``attr_column`` CHANGES, and
    stamp each surviving version with a validity interval —
    ``valid_from_us`` (event time, epoch microseconds) and ``valid_to_us``
    (the next version's start; -1 for the open current version) plus a
    1-based ``version`` ordinal.  The classic warehouse dimension-history
    pass (Kimball SCD2), as one hash-partitioned reduce.

    Scale shape: ONE shuffle partitioned by ``key``; inside a partition the
    change detection is a vectorized grouped shift over all keys at once —
    no per-key task dispatch.  Integer epoch-microsecond timestamps keep the
    output engine-exact (DuckDB ``epoch_us``)."""
    ts_column = ts_column or order_by[0]

    def final(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([key] + order_by, kind="mergesort")
        prev = part.groupby(key)[attr_column].shift(1)
        changed = prev.isna() | (prev != part[attr_column])
        chg = part.loc[changed, [key, attr_column, ts_column]].copy()
        chg["version"] = chg.groupby(key).cumcount().astype("int64") + 1
        chg["valid_from_us"] = (
            chg[ts_column].to_numpy().astype("datetime64[us]").astype("int64")
        )
        nxt = chg.groupby(key)["valid_from_us"].shift(-1)
        chg["valid_to_us"] = nxt.fillna(-1).astype("int64")
        return chg[[key, "version", attr_column, "valid_from_us", "valid_to_us"]]

    return partitioned_final(
        ds.select_columns(
            list(dict.fromkeys([key, attr_column, ts_column] + order_by))
        ),
        [key],
        final,
        num_partitions=num_partitions,
    )


@derive_width
def fd_check(
    ds: ray.data.Dataset,
    fds: "list[tuple[list[str], str]]",
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Functional-dependency discovery/audit (the data-profiling pass behind
    key detection and normalization): for each candidate ``lhs -> rhs``,
    count determinant groups, groups violating the dependency (more than one
    distinct rhs), and the total violating extra values ``Σ(|rhs|-1)``.
    ``holds`` is the exact FD verdict.

    Per candidate: one distributed DISTINCT on (lhs ∪ rhs) hash-partitioned
    by lhs — a group's rows co-locate, so the per-group distinct-rhs count
    is partition-exact and only (n_groups, n_violating, n_extra) integers
    leave each partition."""

    def check_one(lhs: list[str], rhs: str) -> ray.data.Dataset:
        name = "+".join(lhs) + "->" + rhs
        pairs = _distinct_on(
            ds.select_columns(list(dict.fromkeys(lhs + [rhs]))),
            list(dict.fromkeys(lhs + [rhs])),
            num_partitions,
        )

        def final(part: pd.DataFrame) -> pd.DataFrame:
            g = part.groupby(lhs, sort=False).size()
            return pd.DataFrame(
                {
                    "fd": [name],
                    "n_groups": [int(len(g))],
                    "n_violating": [int((g > 1).sum())],
                    "n_extra": [int((g - 1).sum())],
                }
            )

        return partitioned_final(pairs, lhs, final, num_partitions)

    parts = check_one(*fds[0])
    for fd in fds[1:]:
        parts = parts.union(check_one(*fd))

    def fold(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("fd", as_index=False)[
            ["n_groups", "n_violating", "n_extra"]
        ].sum()
        out["holds"] = out["n_violating"] == 0
        return out

    return parts.repartition(1).map_batches(
        fold, batch_format="pandas", batch_size=None
    )


def _distinct_on(ds: ray.data.Dataset, columns: list[str], num_partitions: int):
    from esmarc_ray.ops.dedup import _distinct_on as _d

    return _d(ds, columns, num_partitions)


@derive_width
def ks_statistic(
    ds: ray.data.Dataset,
    group_column: str,
    value_column: str,
    group_a: str,
    group_b: str,
    *,
    num_partitions: int | None = None,
    round_to: int = 6,
) -> ray.data.Dataset:
    """Exact two-sample Kolmogorov–Smirnov statistic — the distribution-drift
    detector: ``D = max |ECDF_a(v) − ECDF_b(v)|`` over every observed value.

    Distributed exact plan: per-value group counts fold as combiners
    (O(distinct values) rows), a range sort orders them, and the running
    CDFs resolve with the two-pass prefix trick (per-block sums to the
    driver — O(blocks) ints — then offsets broadcast back); the max folds
    as an aggregate.  No value column ever collects to the driver."""

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        sel = batch[batch[group_column].isin([group_a, group_b])]
        return pd.DataFrame(
            {
                "v": sel[value_column],
                "na": (sel[group_column] == group_a).astype("int64"),
                "nb": (sel[group_column] == group_b).astype("int64"),
            }
        )

    counts = (
        partial_groupby_agg(
            ds.map_batches(tag, batch_format="pandas"),
            ["v"],
            {"ca": ("na", "sum"), "cb": ("nb", "sum")},
            num_partitions=num_partitions,
        )
        .sort("v")
        .materialize()
    )

    import ray as _ray

    @_ray.remote
    def block_sums(block):
        df = block.to_pandas() if hasattr(block, "to_pandas") else block
        return int(df["ca"].sum()), int(df["cb"].sum())

    blocks = counts.get_internal_block_refs()
    sums = _ray.get([block_sums.remote(b) for b in blocks])
    off_a = off_b = 0
    offsets = []
    for sa, sb in sums:
        offsets.append((off_a, off_b))
        off_a += sa
        off_b += sb
    tot_a, tot_b = float(off_a), float(off_b)

    out_blocks = []
    for (oa, ob), ref in zip(offsets, blocks):

        @_ray.remote
        def block_d(block, oa=oa, ob=ob):
            df = block.to_pandas() if hasattr(block, "to_pandas") else block
            df = df.sort_values("v")
            cum_a = (df["ca"].cumsum() + oa).to_numpy(dtype="float64")
            cum_b = (df["cb"].cumsum() + ob).to_numpy(dtype="float64")
            d = np.abs(cum_a / tot_a - cum_b / tot_b)
            return float(d.max()) if len(d) else 0.0

        out_blocks.append(block_d.remote(ref))
    d_stat = max(_ray.get(out_blocks)) if out_blocks else 0.0
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "group_a": [group_a],
                "group_b": [group_b],
                "n_a": [int(tot_a)],
                "n_b": [int(tot_b)],
                "d_stat": [float(np.floor(d_stat * 10.0**round_to + 0.5))
                           / 10.0**round_to],
            }
        )
    )


def canopy_clusters(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    text_col: str,
    t1: float = 0.35,
    t2: float = 0.7,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Canopy clustering (McCallum-Nigam-Ungar 2000): cheap-distance
    pre-blocking for entity resolution.  Returns (id, canopy) rows — a
    record can land in SEVERAL canopies (loose threshold ``t1``), and only
    records inside a canopy are ever compared by the expensive ER stage.

    ``num_partitions`` stays a PINNED default (not the derive_partitions
    ladder): the per-partition greedy local-center pass is not
    partition-invariant (a record suppressed by a neighbor in one
    partitioning becomes a center in another), so a cluster-size-derived
    width would change the canopies across machines.

    Cheap distance = 1 - token-set Jaccard of the lowercased word tokens.
    ``t1`` (loose, join a canopy) > ``t2`` (tight, stop being a candidate
    center) in DISTANCE terms: t1=0.35 means "Jaccard >= 0.65 joins".

    Distributed shape (the standard two-level MapReduce canopy):
      1. per-partition greedy canopy over id-sorted rows picks LOCAL
         centers (one task per hash partition, no cross-partition state);
      2. the local centers — bounded by data diversity, not size — are
         greedily merged once on the driver (centers within ``t2`` of an
         accepted center are dropped), id-sorted so the result is
         deterministic under any partitioning;
      3. the final center token sets broadcast back through one
         ``map_batches`` assign: every record joins every canopy within
         ``t1``; records matching none become their own singleton canopy.
    """

    def toks(s: str) -> frozenset:
        return frozenset(str(s).lower().split())

    def jac(a: frozenset, b: frozenset) -> float:
        if not a and not b:
            return 1.0
        inter = len(a & b)
        return inter / (len(a) + len(b) - inter)

    def local_centers(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(id_col)
        centers: list[tuple] = []  # (center_id, tokset)
        for rid, txt in zip(part[id_col], part[text_col]):
            t = toks(txt)
            if all(1.0 - jac(t, ct) > t2 for _, ct in centers):
                centers.append((rid, t))
        return pd.DataFrame(
            {
                "center_id": [c for c, _ in centers],
                "center_text": [" ".join(sorted(t)) for _, t in centers],
            }
        )

    local = (
        partitioned_final(ds, [id_col], local_centers, num_partitions)
        .to_pandas()
        .sort_values("center_id")
    )

    # global greedy merge over the (small) center table, deterministic order
    final: list[tuple] = []
    for rid, txt in zip(local["center_id"], local["center_text"]):
        t = toks(txt)
        if all(1.0 - jac(t, ct) > t2 for _, ct in final):
            final.append((rid, t))

    import ray

    centers_ref = ray.put(final)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        centers = ray.get(centers_ref)
        ids, canopies = [], []
        for rid, txt in zip(batch[id_col], batch[text_col]):
            t = toks(txt)
            hit = False
            for cid, ct in centers:
                if 1.0 - jac(t, ct) <= t1:
                    ids.append(rid)
                    canopies.append(cid)
                    hit = True
            if not hit:
                ids.append(rid)
                canopies.append(rid)
        return pd.DataFrame({"id": ids, "canopy": canopies})

    return ds.map_batches(assign, batch_format="pandas")
