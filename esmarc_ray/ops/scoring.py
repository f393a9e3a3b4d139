"""Triple-level precision/recall scoring (the north rule's P/R ≥ 0.95 gate,
SURVEY.md §2.5 "P/R scoring vs reference").

Distributed set-compare of two triple datasets on (doc_id, pred, obj):
both sides are tagged and unioned, hash-partitioned on the triple key (one
shuffle whose width is the triple key, not the doc payload), and each
partition computes per-predicate TP/FP/FN locally; the per-partition partials
are tiny (one row per predicate) and summed driver-side.
"""

from __future__ import annotations

import pandas as pd
import ray.data

from esmarc_ray.config import derive_width
from esmarc_ray.ops.relational import partitioned_final


KEY_COLS = ["doc_id", "pred", "obj"]


def _tag(ds: ray.data.Dataset, side: str) -> ray.data.Dataset:
    def add_side(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[KEY_COLS].copy()
        batch["side"] = side
        return batch

    return ds.map_batches(add_side, batch_format="pandas")


@derive_width
def triple_pr(
    ours: ray.data.Dataset,
    reference: ray.data.Dataset,
    *,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Per-predicate precision/recall of ``ours`` against ``reference``.

    Returns a DataFrame (pred, tp, fp, fn, precision, recall), one row per
    predicate appearing on either side.
    """
    union = _tag(ours, "ours").union(_tag(reference, "ref"))

    def score_partition(part: pd.DataFrame) -> pd.DataFrame:
        d = part.drop_duplicates(KEY_COLS + ["side"])
        flags = (
            d.assign(v=True)
            .pivot_table(index=KEY_COLS, columns="side", values="v", aggfunc="any", fill_value=False)
            .reset_index()
        )
        in_ours = flags["ours"] if "ours" in flags else pd.Series(False, index=flags.index)
        in_ref = flags["ref"] if "ref" in flags else pd.Series(False, index=flags.index)
        out = pd.DataFrame(
            {
                "pred": flags["pred"],
                "tp": (in_ours & in_ref).astype("int64"),
                "fp": (in_ours & ~in_ref).astype("int64"),
                "fn": (~in_ours & in_ref).astype("int64"),
            }
        )
        return out.groupby("pred", as_index=False).sum()

    partials = partitioned_final(
        union, KEY_COLS, score_partition, num_partitions
    ).to_pandas()
    totals = partials.groupby("pred", as_index=False)[["tp", "fp", "fn"]].sum()
    totals["precision"] = totals["tp"] / (totals["tp"] + totals["fp"]).clip(lower=1)
    totals["recall"] = totals["tp"] / (totals["tp"] + totals["fn"]).clip(lower=1)
    # predicates with no emission on a side score 1.0 when the other side is empty too
    totals.loc[(totals["tp"] + totals["fp"]) == 0, "precision"] = 1.0
    totals.loc[(totals["tp"] + totals["fn"]) == 0, "recall"] = 1.0
    return totals.sort_values("pred").reset_index(drop=True)
