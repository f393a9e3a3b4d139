"""Text-analysis operators over a generic ``documents(doc_id, text, …)`` table.

Core training-data-pipeline stages, each a vectorized ``map_batches`` over
pandas batches (string kernels) — no per-row Python in the hot path beyond
what the string ops require:

* token counting (whitespace + a BPE-ish regex)
* quality scoring (length / punctuation / stopword / word-length signals)
* language ID (stopword-profile n-gram heuristic)
* document fingerprinting (winnowing over rolling k-gram hashes)
"""

from __future__ import annotations

import re
import zlib

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


# GPT-2-style pre-tokenizer regex, simplified (public knowledge)
_BPE_RE = re.compile(r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?\d+| ?[^\sA-Za-z\d]+|\s+(?!\S)|\s+")
_PUNCT_RE = re.compile(r"[^\w\s]")

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "for", "on", "with", "as"},
    "de": {"der", "die", "das", "und", "zu", "in", "ist", "den", "von", "mit", "für", "auf"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "dans", "pour", "que", "sur"},
    "es": {"el", "la", "los", "de", "y", "un", "una", "es", "en", "por", "que", "con"},
}
_ALL_STOPWORDS = set().union(*_STOPWORDS.values())


def _token_stats_batch(batch):
    """Arrow-native token statistics: zero-copy batch, whitespace-token and
    char counts via pyarrow.compute kernels (RE2 ``\\S+`` — the same regex
    family the DuckDB oracle uses).  The BPE-ish count keeps the Python
    ``re`` engine because its pattern needs a lookahead RE2 lacks; that one
    column is a C-regex loop over ``to_pylist`` strings."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(batch, pd.DataFrame):  # back-compat for direct callers
        text = batch["text"].fillna("")
        batch["n_tokens_ws"] = text.str.split().str.len().fillna(0).astype("int64")
        batch["n_tokens_bpe"] = text.str.count(_BPE_RE).astype("int64")
        batch["n_chars_actual"] = text.str.len().astype("int64")
        return batch

    text = pc.fill_null(batch.column("text"), "")
    n_ws = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
    n_chars = pc.utf8_length(text).cast(pa.int64())
    bpe = pa.array(
        [len(_BPE_RE.findall(t)) for t in text.to_pylist()], pa.int64()
    )
    return (
        batch.append_column("n_tokens_ws", n_ws)
        .append_column("n_tokens_bpe", bpe)
        .append_column("n_chars_actual", n_chars)
    )


def token_stats(docs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    kwargs.setdefault("batch_format", "pyarrow")
    kwargs.setdefault("zero_copy_batch", True)
    return docs.map_batches(_token_stats_batch, **kwargs)


def _quality_batch(batch: pd.DataFrame) -> pd.DataFrame:
    text = batch["text"].fillna("")
    n_chars = text.str.len().clip(lower=1)
    tokens = text.str.split()
    n_tokens = tokens.str.len().clip(lower=1)
    punct_ratio = text.str.count(_PUNCT_RE) / n_chars
    # vectorized membership: ONE explode + C-level isin instead of a Python
    # loop per token (same per-token lowercase-in-set predicate)
    exploded = tokens.explode().str.lower()
    stop_counts = (
        exploded.isin(_ALL_STOPWORDS)
        .groupby(level=0)
        .sum()
        .reindex(batch.index, fill_value=0)
    )
    stopword_ratio = stop_counts / n_tokens
    mean_word_len = (n_chars - n_tokens + 1) / n_tokens
    batch["punct_ratio"] = punct_ratio
    batch["stopword_ratio"] = stopword_ratio
    batch["mean_word_len"] = mean_word_len
    # simple composite: long-enough, low-punct, some stopwords, sane word length
    batch["quality_score"] = (
        (n_chars.clip(upper=2000) / 2000.0) * 0.25
        + (1.0 - punct_ratio.clip(upper=1.0)) * 0.25
        + stopword_ratio.clip(upper=0.5) * 2 * 0.25
        + (1.0 - (mean_word_len - 5.0).abs().clip(upper=5.0) / 5.0) * 0.25
    )
    return batch


def quality_score(docs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    return docs.map_batches(_quality_batch, batch_format="pandas", **kwargs)


def _langid_batch(batch: pd.DataFrame) -> pd.DataFrame:
    langs = sorted(_STOPWORDS)
    text = batch["text"].fillna("")
    tokens = text.str.lower().str.split()
    # ONE explode; per-language C-level isin over the flat token series
    # (identical membership counts to the historical per-row loop)
    exploded = tokens.explode()
    scores = np.zeros((len(batch), len(langs)))
    for j, lang in enumerate(langs):
        scores[:, j] = (
            exploded.isin(_STOPWORDS[lang])
            .groupby(level=0)
            .sum()
            .reindex(batch.index, fill_value=0)
            .to_numpy()
        )
    best = scores.argmax(axis=1)
    batch["lang_pred"] = [langs[j] if scores[i, j] > 0 else "und" for i, j in enumerate(best)]
    batch["lang_score"] = scores.max(axis=1) / tokens.str.len().clip(lower=1).to_numpy()
    return batch


def lang_id(docs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    return docs.map_batches(_langid_batch, batch_format="pandas", **kwargs)


def _winnow_fingerprint(text: str, k: int = 8, window: int = 16) -> int:
    """Winnowing fingerprint: XOR of windowed-min rolling k-gram hashes
    (Schleimer/Wilkerson/Aiken-style document fingerprinting)."""
    data = text.encode("utf-8", "ignore")
    if len(data) < k:
        return zlib.crc32(data)
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    # polynomial rolling hash of every k-gram, vectorized
    weights = np.power(np.uint64(257), np.arange(k, dtype=np.uint64)[::-1], dtype=np.uint64)
    n = len(arr) - k + 1
    grams = np.lib.stride_tricks.sliding_window_view(arr, k)
    hashes = (grams * weights).sum(axis=1)
    if n <= window:
        return int(hashes.min())
    mins = np.lib.stride_tricks.sliding_window_view(hashes, window).min(axis=1)
    out = np.uint64(0)
    for value in np.unique(mins):
        out ^= value
    return int(out)


def _fingerprint_batch(batch: pd.DataFrame) -> pd.DataFrame:
    batch["fingerprint"] = batch["text"].fillna("").map(_winnow_fingerprint).astype("uint64")
    return batch


def fingerprint(docs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    return docs.map_batches(_fingerprint_batch, batch_format="pandas", **kwargs)


def _repetition_row(text: str) -> tuple[float, float, float]:
    """(dup_line_frac, dup_para_frac, top_bigram_frac) for one document."""
    from collections import Counter

    lines = [ln for ln in text.split("\n") if ln.strip()]
    dup_line = 1.0 - len(set(lines)) / len(lines) if lines else 0.0
    paras = [p for p in text.split("\n\n") if p.strip()]
    dup_para = 1.0 - len(set(paras)) / len(paras) if paras else 0.0
    words = text.split()
    if len(words) >= 2:
        bigrams = Counter(zip(words, words[1:]))
        top_bigram = max(bigrams.values()) / (len(words) - 1)
    else:
        top_bigram = 0.0
    return dup_line, dup_para, top_bigram


def repetition_stats(docs: ray.data.Dataset, **kwargs) -> ray.data.Dataset:
    """Repetition-based quality signals (the C4/Gopher-style filters):
    duplicate-line fraction, duplicate-paragraph fraction, and the fraction
    of all word bigrams taken by the single most frequent bigram — high
    values flag boilerplate/spam for a pretraining-data filter."""

    def batch_fn(batch: pd.DataFrame) -> pd.DataFrame:
        trip = [_repetition_row(t) for t in batch["text"].fillna("")]
        batch["dup_line_frac"] = [t[0] for t in trip]
        batch["dup_para_frac"] = [t[1] for t in trip]
        batch["top_bigram_frac"] = [t[2] for t in trip]
        return batch

    return docs.map_batches(batch_fn, batch_format="pandas", **kwargs)


# patterns chosen to mean the same thing under Python re AND DuckDB's RE2,
# which is what makes redact_pii oracle-checkable via regexp_replace(..., 'g')
_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PHONE_RE = r"\+?[0-9][0-9 ()./-]{6,}[0-9]"


def redact_pii(
    docs: ray.data.Dataset,
    *,
    text_column: str = "text",
    out_column: str = "text_redacted",
    **kwargs,
) -> ray.data.Dataset:
    """Replace email addresses and phone-like digit runs with placeholder
    tokens — the pretraining-data PII scrub, vectorized pandas str.replace.
    Emails first (their digits would otherwise partially match the phone
    pattern)."""

    def batch_fn(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[text_column].fillna("")
        text = text.str.replace(_EMAIL_RE, "<EMAIL>", regex=True)
        batch[out_column] = text.str.replace(_PHONE_RE, "<PHONE>", regex=True)
        return batch

    return docs.map_batches(batch_fn, batch_format="pandas", **kwargs)


def decontaminate(
    docs: ray.data.Dataset,
    benchmark_texts: "list[str]",
    *,
    ngram: int = 8,
    min_hits: int = 1,
    text_column: str = "text",
    **kwargs,
) -> ray.data.Dataset:
    """Benchmark-contamination flagging: a doc is contaminated when it shares
    ≥ ``min_hits`` word ``ngram``-grams with any benchmark text.

    The benchmark n-gram STRING set is built once driver-side and broadcast
    in the task closure (benchmarks are small — eval sets, not corpora); each
    batch builds its own n-gram sets and set-intersects.  Exact strings, not
    hashes: a crc32 cross-collision between a doc shingle and a benchmark
    shingle would FALSELY flag a clean doc as contaminated (observed in
    practice at 500 docs × 1k bench shingles — the birthday math is not
    theoretical), and a contamination gate must not have false positives.
    Adds ``contam_hits`` (int) and ``contaminated`` (bool)."""
    bench: set[str] = set()
    for text in benchmark_texts:
        bench.update(_shingle_set(text, ngram))

    def batch_fn(batch: pd.DataFrame) -> pd.DataFrame:
        hits = [
            len(_shingle_set(t, ngram) & bench)
            for t in batch[text_column].fillna("")
        ]
        batch["contam_hits"] = pd.Series(hits, index=batch.index, dtype="int64")
        batch["contaminated"] = batch["contam_hits"] >= min_hits
        return batch

    return docs.map_batches(batch_fn, batch_format="pandas", **kwargs)


def _shingle_set(text: str, width: int) -> set[str]:
    """Word ``width``-gram strings (whole joined text when shorter).  Exact
    strings rather than crc32 hashes: in a contamination gate a hash
    collision is a false positive."""
    words = text.lower().split()
    if len(words) < width:
        return {" ".join(words)} if words else set()
    return {
        " ".join(words[i : i + width])
        for i in range(len(words) - width + 1)
    }


def pack_sequences(
    docs: ray.data.Dataset,
    *,
    budget_tokens: int,
    id_column: str = "doc_id",
    token_column: str = "n_tokens",
    num_partitions: int = 64,
) -> ray.data.Dataset:
    """Greedy sample packing: group documents into training sequences whose
    token counts sum to ≤ ``budget_tokens`` (docs longer than the budget get
    a sequence of their own).

    Distributed semantics: docs hash-partition by id and each partition packs
    independently (sorted by id, first-fit in order) — deterministic, no
    global coordination, and the ≤1 underfilled tail sequence per partition
    is the price of shardability (exactly how a multi-node packer must work
    at 100 TB; a globally optimal bin-packing would serialize the corpus).

    ``num_partitions`` stays a PINNED default (not the derive_partitions
    ladder): the partition id is part of the OUTPUT (``part`` column, and
    packing is partition-local), so a cluster-size-derived width would make
    the packing differ across machines.  Raise it explicitly for big runs.

    Output: one row per packed sequence —
    (part, seq_idx, n_docs, total_tokens, doc_ids:list).
    """
    def pack(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(id_column)
        part_id = int(hash_partition(part.iloc[:1], id_column, num_partitions)[0])
        seqs: list[dict] = []
        cur_ids: list = []
        cur_tokens = 0
        for doc_id, n_tok in zip(part[id_column], part[token_column]):
            n_tok = int(n_tok)
            if cur_ids and cur_tokens + n_tok > budget_tokens:
                seqs.append({"doc_ids": cur_ids, "total_tokens": cur_tokens})
                cur_ids, cur_tokens = [], 0
            cur_ids.append(doc_id)
            cur_tokens += n_tok
        if cur_ids:
            seqs.append({"doc_ids": cur_ids, "total_tokens": cur_tokens})
        return pd.DataFrame(
            {
                "part": [part_id] * len(seqs),
                "seq_idx": range(len(seqs)),
                "n_docs": [len(s["doc_ids"]) for s in seqs],
                "total_tokens": [s["total_tokens"] for s in seqs],
                "doc_ids": [list(s["doc_ids"]) for s in seqs],
            }
        )

    return partitioned_final(
        docs.select_columns([id_column, token_column]), [id_column], pack,
        num_partitions,
    )


def top_terms(
    docs: ray.data.Dataset,
    k: int = 50,
    *,
    text_column: str = "text",
    lowercase: bool = True,
) -> ray.data.Dataset:
    """Global top-k most frequent whitespace tokens (the wordcount idiom).

    Per-batch Counter collapses each batch to one row per DISTINCT term
    before the shuffle (the combiner), the partial/final groupby sums
    counts, and the top-k sort sees one row per vocabulary term — input
    tokens never leave their batch.  Ties break on the term string for
    determinism.
    """
    from collections import Counter

    from esmarc_ray.ops.relational import partial_groupby_agg

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        counts: Counter = Counter()
        for text in batch[text_column].fillna(""):
            if lowercase:
                text = text.lower()
            counts.update(text.split())
        return pd.DataFrame(
            {"term": list(counts.keys()), "n": list(counts.values())}
        )

    totals = partial_groupby_agg(
        docs.map_batches(count_batch, batch_format="pandas"),
        ["term"],
        {"n_occurrences": ("n", "sum")},
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n_occurrences", "term"], ascending=[False, True]
        ).head(k)

    return (
        totals.map_batches(local_topk, batch_format="pandas")
        .sort(["n_occurrences", "term"], descending=[True, False])
        .limit(k)
    )


def tfidf_topk(
    docs: ray.data.Dataset,
    k: int = 5,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    n_docs: int | None = None,
    vocab_broadcast_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """Per-document top-k TF-IDF terms — the classic two-pass relevance
    pipeline, fully distributed:

    1. TF pairs: one (doc, term, tf) row per distinct term per doc (per-batch
       Counter — tokens never leave their batch);
    2. DF: wordcount over the pairs (combiner + small groupby);
    3. join TF×DF: the DF table is vocabulary-sized — broadcast under
       ``vocab_broadcast_limit`` rows, else hash-partitioned join;
    4. score ``tf * ln(N/df)`` and per-doc top-k (partial prune + groupby).

    The TF pair table is consumed twice (DF aggregation + join), so it
    materializes once into the object store — pairs are far smaller than the
    raw text and spill under pressure.  ``n_docs`` defaults to
    ``docs.count()`` (metadata-only for a plain parquet read); pass it
    explicitly when ``docs`` is already a transformed pipeline.
    Scores round to 6 decimals so an oracle engine's libm agrees bit-for-bit.
    """
    from collections import Counter

    from esmarc_ray.ops.relational import partial_groupby_agg, topk_per_group

    if n_docs is None:
        n_docs = docs.count()

    def tf_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        terms: list[str] = []
        tfs: list[int] = []
        for doc_id, text in zip(batch[id_column], batch[text_column].fillna("")):
            counts = Counter(text.lower().split())
            ids.extend([doc_id] * len(counts))
            terms.extend(counts.keys())
            tfs.extend(counts.values())
        return pd.DataFrame({id_column: ids, "term": terms, "tf": tfs})

    pairs = docs.map_batches(tf_batch, batch_format="pandas").materialize()
    # df == pair count per term (pairs are unique per (doc, term))
    dfreq = partial_groupby_agg(pairs, ["term"], {"df": ("term", "count")})

    log_n = float(np.log(float(n_docs)))

    def score_with(df_map) -> "ray.data.Dataset":
        def score(batch: pd.DataFrame) -> pd.DataFrame:
            dfs = batch["term"].map(df_map).astype("int64")
            batch = batch.copy()
            batch["df"] = dfs
            batch["__raw"] = batch["tf"] * (log_n - np.log(dfs.to_numpy(dtype="float64")))
            return batch

        return pairs.map_batches(score, batch_format="pandas")

    dfreq = dfreq.materialize()
    if dfreq.count() <= vocab_broadcast_limit:
        df_pd = dfreq.to_pandas()
        scored = score_with(dict(zip(df_pd["term"], df_pd["df"])))
    else:  # pragma: no cover - scale path, same algebra via partitioned join
        from esmarc_ray.ops.relational import partitioned_join

        joined = partitioned_join(
            pairs, dfreq, "term",
            left_cols=[id_column, "tf"], right_cols=["df"],
        )

        def score_joined(batch: pd.DataFrame) -> pd.DataFrame:
            batch["__raw"] = batch["tf"] * (
                log_n - np.log(batch["df"].to_numpy(dtype="float64"))
            )
            return batch

        scored = joined.map_batches(score_joined, batch_format="pandas")

    top = topk_per_group(scored, [id_column], ["__raw", "term"], k, descending=True)

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        batch["score"] = batch["__raw"].round(6)
        return batch[[id_column, "term", "tf", "df", "score"]]

    return top.map_batches(finalize, batch_format="pandas")


def bm25_topk(
    docs: ray.data.Dataset,
    query: str,
    k: int = 10,
    *,
    k1: float = 1.2,
    b: float = 0.75,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """BM25 retrieval against a fixed query string — the relevance scorer of
    a quality-filtering / retrieval pass, distributed in two streaming
    passes with an O(|query terms|) driver footprint:

    1. stats pass (combiner): per-batch partials of (per-query-term document
       frequency) plus corpus (n_docs, total token length) carried on a
       sentinel row — only ``|query|+1`` rows ever reach the driver, at any
       corpus scale;
    2. scoring pass: the tiny (df, idf) table rides the task closure; each
       batch computes ``Σ_t idf_t · tf·(k1+1) / (tf + k1·(1-b+b·dl/avgdl))``
       with the standard Lucene idf ``ln((N-df+0.5)/(df+0.5) + 1)``, then the
       deterministic distributed top-k (score desc, id asc) returns k rows.

    Tokenization is lowercased whitespace (matching the module's other
    unigram ops); ``dl`` is the doc's token count.  Scores round
    half-away-from-zero to 6 decimals (oracle convention).
    Output: (id, bm25_score, dl) — one row per retrieved doc.
    """
    from collections import Counter

    from esmarc_ray.ops.relational import _round_half_up, partial_groupby_agg

    q_terms = sorted(set(query.lower().split()))
    if not q_terms:
        raise ValueError("bm25_topk: query has no tokens")

    def stats_batch(batch: pd.DataFrame) -> pd.DataFrame:
        df_counts: Counter = Counter()
        n_docs = 0
        total_len = 0
        for text in batch[text_column].fillna(""):
            toks = text.lower().split()
            n_docs += 1
            total_len += len(toks)
            set_toks = set(toks)
            for t in q_terms:
                if t in set_toks:
                    df_counts[t] += 1
        rows = [(t, df_counts[t], 0, 0) for t in q_terms]
        rows.append(("", 0, n_docs, total_len))
        return pd.DataFrame(
            rows, columns=["term", "df", "n_docs", "total_len"]
        )

    stats = partial_groupby_agg(
        docs.map_batches(stats_batch, batch_format="pandas"),
        ["term"],
        {
            "df": ("df", "sum"),
            "n_docs": ("n_docs", "sum"),
            "total_len": ("total_len", "sum"),
        },
    ).to_pandas()  # |query|+1 rows — the op's entire driver footprint
    sentinel = stats[stats["term"] == ""].iloc[0]
    n = float(sentinel["n_docs"])
    avgdl = float(sentinel["total_len"]) / max(n, 1.0)
    term_rows = stats[stats["term"] != ""].set_index("term")
    idf = {
        t: float(np.log((n - d + 0.5) / (d + 0.5) + 1.0))
        for t, d in term_rows["df"].items()
    }

    def score_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        dls: list[int] = []
        scores: list[float] = []
        for doc_id, text in zip(batch[id_column], batch[text_column].fillna("")):
            toks = text.lower().split()
            dl = len(toks)
            counts = Counter(toks)
            s = 0.0
            for t in q_terms:
                tf = counts.get(t, 0)
                if tf:
                    s += idf[t] * (
                        tf * (k1 + 1.0)
                        / (tf + k1 * (1.0 - b + b * dl / avgdl))
                    )
            ids.append(doc_id)
            dls.append(dl)
            scores.append(s)
        return pd.DataFrame(
            {
                id_column: ids,
                "bm25_score": _round_half_up(scores, 6),
                "dl": pd.Series(dls, dtype="int64"),
            }
        )

    scored = docs.map_batches(score_batch, batch_format="pandas")
    return _det_topk(scored, k, "bm25_score", [id_column])


def dsir_weights(
    docs: ray.data.Dataset,
    *,
    target_column: str,
    target_value: str,
    text_column: str = "text",
    id_column: str = "doc_id",
    vocab_size: int = 10_000,
) -> ray.data.Dataset:
    """DSIR-style importance weights for data selection (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"): score
    every document by how much more likely its unigrams are under a TARGET
    distribution (rows where ``target_column == target_value``) than under
    the RAW corpus distribution — weight = Σ_tok ln(p_target/p_raw), additive
    +1 smoothing, features restricted to the top-``vocab_size`` raw-corpus
    vocabulary so the broadcast model is O(vocab_size) at any corpus scale.

    Distribution shape: ONE combiner pass counts raw+target occurrences per
    term (tokens never leave their batch); the vocabulary cut is the
    deterministic distributed top-k (count desc, term asc — same total order
    as :func:`train_bigram_lm`); only the V-row log-ratio table reaches the
    driver and ships to the scoring stage.  Weights round half-away-from-zero
    to 6 decimals (oracle convention).  Output: (id, dsir_weight,
    n_vocab_tokens) — resample/filter by weight downstream.
    """
    from collections import Counter

    from esmarc_ray.ops.relational import _round_half_up, partial_groupby_agg

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        raw: Counter = Counter()
        tgt: Counter = Counter()
        for text, marker in zip(
            batch[text_column].fillna(""), batch[target_column]
        ):
            toks = text.lower().split()
            raw.update(toks)
            if marker == target_value:
                tgt.update(toks)
        terms = list(raw.keys())
        return pd.DataFrame(
            {
                "term": terms,
                "c_raw": [raw[t] for t in terms],
                "c_tgt": [tgt.get(t, 0) for t in terms],
            }
        )

    counts = partial_groupby_agg(
        docs.map_batches(count_batch, batch_format="pandas"),
        ["term"],
        {"c_raw": ("c_raw", "sum"), "c_tgt": ("c_tgt", "sum")},
    )
    vocab = _det_topk(counts, vocab_size, "c_raw", ["term"]).to_pandas()
    v = float(len(vocab))
    n_raw = float(vocab["c_raw"].sum())
    n_tgt = float(vocab["c_tgt"].sum())
    lr = np.log((vocab["c_tgt"].to_numpy() + 1.0) / (n_tgt + v)) - np.log(
        (vocab["c_raw"].to_numpy() + 1.0) / (n_raw + v)
    )
    ratio_by_term = dict(zip(vocab["term"], lr))

    def score_batch(batch: pd.DataFrame) -> pd.DataFrame:
        weights = []
        n_hits = []
        for text in batch[text_column].fillna(""):
            w = 0.0
            n = 0
            for tok in text.lower().split():
                r = ratio_by_term.get(tok)
                if r is not None:
                    w += r
                    n += 1
            weights.append(w)
            n_hits.append(n)
        return pd.DataFrame(
            {
                id_column: batch[id_column].to_numpy(),
                "dsir_weight": _round_half_up(weights, 6),
                "n_vocab_tokens": pd.array(n_hits, dtype="int64"),
            }
        )

    return docs.map_batches(score_batch, batch_format="pandas")


def nb_train(
    docs: ray.data.Dataset,
    *,
    label_column: str,
    text_column: str = "text",
    vocab_size: int = 10_000,
) -> dict:
    """Train a multinomial Naive Bayes text classifier distributed — the
    fastText-shaped filter model of LLM data pipelines (language/quality/
    domain gating), trained with counts instead of SGD so a single combiner
    pass over the corpus is the whole training job.

    ONE ``map_batches`` pass emits per-batch (term, label, count) partials;
    the vocabulary is the deterministic top-``vocab_size`` by total count
    (count desc, term asc); only the V×C log-probability table and the class
    priors reach the driver.  Returns a plain broadcastable dict:
    ``{"labels": [...], "log_prior": {label: lp}, "vocab": {term: {label:
    log_cond}}, "v": V}`` with +1 smoothing over the ACTUAL vocab size.
    """
    from collections import Counter

    from esmarc_ray.ops.relational import partial_groupby_agg

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        counts: Counter = Counter()
        doc_counts: Counter = Counter()
        for text, label in zip(
            batch[text_column].fillna(""), batch[label_column]
        ):
            doc_counts[label] += 1
            for tok in text.lower().split():
                counts[(tok, label)] += 1
        keys = list(counts.keys())
        out = pd.DataFrame(
            {
                "term": [k[0] for k in keys],
                "label": [k[1] for k in keys],
                "c": [counts[k] for k in keys],
                "n_docs": 0,
            }
        )
        docs_rows = pd.DataFrame(
            {
                "term": "",
                "label": list(doc_counts.keys()),
                "c": 0,
                "n_docs": list(doc_counts.values()),
            }
        )
        return pd.concat([out, docs_rows], ignore_index=True)

    counts = partial_groupby_agg(
        docs.map_batches(count_batch, batch_format="pandas"),
        ["term", "label"],
        {"c": ("c", "sum"), "n_docs": ("n_docs", "sum")},
    ).materialize()

    term_totals = partial_groupby_agg(
        counts.map_batches(
            lambda b: b[b["term"] != ""][["term", "c"]], batch_format="pandas"
        ),
        ["term"],
        {"c": ("c", "sum")},
    )
    vocab_terms = set(
        _det_topk(term_totals, vocab_size, "c", ["term"]).to_pandas()["term"]
    )

    kept = counts.map_batches(
        lambda b, keep=vocab_terms: b[(b["term"] == "") | b["term"].isin(keep)],
        batch_format="pandas",
    ).to_pandas()

    doc_rows = kept[kept["term"] == ""]
    n_docs_by_label = doc_rows.groupby("label")["n_docs"].sum()
    labels = sorted(n_docs_by_label.index)
    n_total = float(n_docs_by_label.sum())
    log_prior = {
        lab: float(np.log(n_docs_by_label[lab] / n_total)) for lab in labels
    }

    term_rows = kept[kept["term"] != ""]
    # actual vocab size (smoothing denominator): the terms that survived the
    # cut — equals vocab_size unless the corpus has fewer distinct terms
    v = float(len(set(term_rows["term"])))
    n_by_label = term_rows.groupby("label")["c"].sum()
    denom = {
        lab: float(n_by_label.get(lab, 0)) + v for lab in labels
    }
    pivot = term_rows.pivot_table(
        index="term", columns="label", values="c", aggfunc="sum", fill_value=0
    )
    vocab: dict[str, dict[str, float]] = {}
    for term, row in pivot.iterrows():
        vocab[term] = {
            lab: float(np.log((row.get(lab, 0) + 1.0) / denom[lab]))
            for lab in labels
        }
    unseen = {lab: float(np.log(1.0 / denom[lab])) for lab in labels}
    return {
        "labels": labels,
        "log_prior": log_prior,
        "vocab": vocab,
        "unseen": unseen,
        "v": v,
    }


def nb_scores(
    docs: ray.data.Dataset,
    model: dict,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """Per-(doc, label) Naive Bayes log-scores: ln prior + Σ_tok∈vocab
    ln p(tok|label), rounded half-away-from-zero to 6 decimals (tokens
    outside the vocabulary are ignored — the model is O(V), not O(corpus)).
    Long output (one row per doc per label) so an oracle can re-derive every
    value; argmax downstream with :func:`nb_predict`."""
    from esmarc_ray.ops.relational import _round_half_up

    labels = model["labels"]
    vocab = model["vocab"]
    log_prior = model["log_prior"]

    def score_batch(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        labs: list[str] = []
        scores: list[float] = []
        for doc_id, text in zip(batch[id_column], batch[text_column].fillna("")):
            sums = {lab: log_prior[lab] for lab in labels}
            for tok in text.lower().split():
                cond = vocab.get(tok)
                if cond is not None:
                    for lab in labels:
                        sums[lab] += cond[lab]
            for lab in labels:
                ids.append(doc_id)
                labs.append(lab)
                scores.append(sums[lab])
        return pd.DataFrame(
            {
                id_column: ids,
                "label": labs,
                "nb_score": _round_half_up(scores, 6),
            }
        )

    return docs.map_batches(score_batch, batch_format="pandas")


def nb_predict(
    docs: ray.data.Dataset,
    model: dict,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """Argmax over :func:`nb_scores` (ties break on the label string):
    one (id, label_pred) row per document."""
    scored = nb_scores(docs, model, text_column=text_column, id_column=id_column)

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        best = (
            batch.sort_values([id_column, "nb_score", "label"],
                              ascending=[True, False, True])
            .drop_duplicates(id_column)
        )
        return best.rename(columns={"label": "label_pred"})[
            [id_column, "label_pred", "nb_score"]
        ]

    # scores for one doc stay in the emitting batch (score_batch appends all
    # labels of a doc consecutively), so the argmax is batch-local
    return scored.map_batches(pick, batch_format="pandas", batch_size=None)


def json_extract(
    ds: ray.data.Dataset,
    json_column: str,
    fields: dict[str, str],
    *,
    keys: dict[str, str] | None = None,
    drop_source: bool = True,
) -> ray.data.Dataset:
    """Extract scalar fields from a JSON-string column into typed columns.

    ``fields``: output column → dtype ("int64" | "float64" | "string");
    ``keys`` optionally maps an output column to a different JSON key
    (default: the output column name).  The semi-structured idiom for event
    property bags: parse once per row inside map_batches, emit flat columns
    so every downstream operator is columnar.

    Robust on real-world bags: malformed JSON rows yield nulls (never fail
    the task — a dead-letter scan can recover them from the source column).
    int64 extraction uses an exact integer path (64-bit ids above 2^53
    survive; non-integral or out-of-range values become null); float64 goes
    through ``pd.to_numeric(errors="coerce")``.
    """
    import json as _json

    keys = keys or {}

    def extract(batch: pd.DataFrame) -> pd.DataFrame:
        parsed = []
        for raw in batch[json_column].fillna(""):
            try:
                obj = _json.loads(raw) if raw else {}
            except (ValueError, TypeError):
                obj = {}
            parsed.append(obj if isinstance(obj, dict) else {})
        def _to_int(v):
            # exact path — routing ints through Float64 would silently
            # corrupt 64-bit ids above 2^53
            if isinstance(v, bool):
                return None
            if isinstance(v, int):
                r = v
            elif isinstance(v, float):
                if not v.is_integer():
                    return None
                r = int(v)
            elif isinstance(v, str):
                try:
                    r = int(v)
                except ValueError:
                    try:
                        f = float(v)
                    except ValueError:
                        return None
                    if not f.is_integer():
                        return None
                    r = int(f)
            else:
                return None
            return r if -(2**63) <= r < 2**63 else None

        for out, dtype in fields.items():
            key = keys.get(out, out)
            values = [obj.get(key) for obj in parsed]
            if dtype == "int64":
                col = pd.array([_to_int(v) for v in values], dtype="Int64")
                batch[out] = pd.Series(col, index=batch.index)
            elif dtype == "float64":
                numeric = pd.to_numeric(
                    pd.Series(values, dtype="object"), errors="coerce"
                ).astype("Float64")
                numeric.index = batch.index
                batch[out] = numeric
            else:
                batch[out] = pd.array(
                    [v if isinstance(v, str) else None for v in values], dtype="string"
                )
        if drop_source:
            batch = batch.drop(columns=[json_column])
        return batch

    return ds.map_batches(extract, batch_format="pandas")


@derive_width
def paragraph_dedup(
    docs: ray.data.Dataset,
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
    sep: str = "\n\n",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Corpus-wide exact paragraph dedup (the CCNet / RefinedWeb curation
    step): every paragraph that already appeared in a lower-(doc_id, position)
    slot is removed from its document; documents are reassembled in original
    paragraph order (empty docs kept, text="").

    Plan: explode to (para_hash, doc_id, pos, text-of-para) rows, hash-
    partition on para_hash — each partition keeps the globally-first
    occurrence per hash (one reducer per PARTITION, not per paragraph) —
    then regroup survivors by doc hash-partitioned and rebuild.  Two
    narrow shuffles of paragraph rows; the doc payload never shuffles
    whole.  A document whose EVERY paragraph is a duplicate drops out
    entirely (the curation semantics — nothing of it survives)."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list = []
        pos: list[int] = []
        ptext: list[str] = []
        for doc_id, text in zip(batch[id_column], batch[text_column].fillna("")):
            paras = text.split(sep)
            ids.extend([doc_id] * len(paras))
            pos.extend(range(len(paras)))
            ptext.extend(paras)
        df = pd.DataFrame({id_column: ids, "__pos": pos, "__ptext": ptext})
        df["__h"] = pd.util.hash_pandas_object(df["__ptext"], index=False).astype("uint64")
        return df

    def first_per_hash(part: pd.DataFrame) -> pd.DataFrame:
        return part.sort_values(["__h", id_column, "__pos"]).drop_duplicates("__h")

    def rebuild(part: pd.DataFrame) -> pd.DataFrame:
        rows = (
            part.sort_values([id_column, "__pos"])
            .groupby(id_column, sort=False)["__ptext"]
            .agg(sep.join)
        )
        return pd.DataFrame({id_column: rows.index, text_column: rows.to_numpy()})

    survivors = partitioned_final(
        docs.map_batches(explode, batch_format="pandas"),
        ["__h"],
        first_per_hash,
        num_partitions,
    )
    return partitioned_final(survivors, [id_column], rebuild, num_partitions)


def normalize_text(
    ds: "ray.data.Dataset", column: str = "text", out: str = "norm_text"
) -> "ray.data.Dataset":
    """Canonical text normalization (the step before exact/near dedup):
    lowercase, collapse runs of ASCII whitespace to one space, trim.  The
    transform is restricted to RE2/SQL-expressible pieces on purpose so the
    driver oracle can recompute it verbatim
    (``trim(regexp_replace(lower(text), '[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')``);
    null input stays null.  Map-only, vectorized pandas str kernels.
    """

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch[out] = (
            batch[column]
            .str.lower()
            .str.replace(r"[ \t\n\r\f\v]+", " ", regex=True)
            .str.strip(" ")
        )
        return batch

    return ds.map_batches(norm, batch_format="pandas")


def chunk_documents(
    ds: "ray.data.Dataset",
    *,
    chunk_tokens: int,
    overlap: int = 0,
    id_column: str = "doc_id",
    text_column: str = "text",
) -> "ray.data.Dataset":
    """Split documents into fixed-size token windows with ``overlap`` —
    the context-window chunking step before embedding / training-example
    assembly.  Tokens are the whitespace-collapsed split of the text (run
    :func:`normalize_text` semantics inline so the token stream is
    SQL-reconstructible: DuckDB ``string_split`` on single spaces +
    ``list_slice`` + ``array_to_string`` recomputes every chunk verbatim).

    Emits (id, chunk_id, chunk_text, n_tokens); stride = chunk_tokens −
    overlap; the final window keeps its tail even when short; empty/null
    docs emit nothing.  Map-only (flat_map shape, no shuffle); the
    vectorized outer loop is per DOCUMENT, not per token.
    """
    if overlap >= chunk_tokens:
        raise ValueError("overlap must be smaller than chunk_tokens")
    stride = chunk_tokens - overlap

    def chunk(batch: pd.DataFrame) -> pd.DataFrame:
        out = {id_column: [], "chunk_id": [], "chunk_text": [], "n_tokens": []}
        for row_id, text in zip(batch[id_column], batch[text_column]):
            if not isinstance(text, str):
                continue
            tokens = text.split()
            if not tokens:
                continue
            for ci, start in enumerate(range(0, len(tokens), stride)):
                window = tokens[start : start + chunk_tokens]
                out[id_column].append(row_id)
                out["chunk_id"].append(ci)
                out["chunk_text"].append(" ".join(window))
                out["n_tokens"].append(len(window))
                if start + chunk_tokens >= len(tokens):
                    break
        return pd.DataFrame(out)

    return ds.map_batches(chunk, batch_format="pandas")


def _det_topk(
    ds: "ray.data.Dataset", k: int, n_col: str, key_cols: list[str]
) -> "ray.data.Dataset":
    """Exact deterministic top-k under the TOTAL order (n desc, keys asc):
    per-batch prune (any global top-k row is in its batch's top-k under the
    same total order), then one global sort + limit.  Unlike
    ``relational.sort_topk`` (single-column order), boundary ties cut
    identically on every run and every partitioning."""
    cols = [n_col] + key_cols
    ascending = [False] + [True] * len(key_cols)

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(cols, ascending=ascending).head(k)

    return (
        ds.map_batches(prune, batch_format="pandas")
        .sort(cols, descending=[not a for a in ascending])
        .limit(k)
    )


def train_bigram_lm(
    docs: "ray.data.Dataset",
    *,
    text_column: str = "text",
    min_count: int = 5,
    max_vocab: int = 100_000,
    max_bigrams: int = 500_000,
) -> dict:
    """Distributed bigram language model for perplexity filtering (the
    CCNet-style quality signal: templated/boilerplate text scores low,
    gibberish scores high).

    Counts are combiner-shaped wordcounts over (w1, w2) pairs and unigrams.
    Two bounds gate what the driver collects: ``min_count`` (terms below it
    never enter the model) and a HARD budget — the ``max_vocab`` unigrams /
    ``max_bigrams`` pairs with the highest counts, selected by a distributed
    top-k (ties broken lexicographically, so the cut is deterministic).  The
    min_count filter alone does NOT bound memory as the corpus grows (a
    min_count=5 vocab over 100 TB is itself huge); the budget makes the
    collected model O(max_vocab + max_bigrams) regardless of corpus size,
    with everything below the cut backing off to the unigram/floor terms —
    exactly the head-vocab truncation production KenLM-style filters apply.
    Returns a plain dict — ``ray.put`` it once and read it in every scoring
    task."""
    import numpy as np

    from esmarc_ray.ops.relational import partial_groupby_agg

    def pair_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"w1": [], "w2": []}
        for text in batch[text_column]:
            if not isinstance(text, str):
                continue
            toks = text.lower().split()
            out["w1"].extend(toks[:-1])
            out["w2"].extend(toks[1:])
        return pd.DataFrame(out)

    def uni_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for text in batch[text_column]:
            if isinstance(text, str):
                out.extend(text.lower().split())
        return pd.DataFrame({"w": out})

    bi_ds = partial_groupby_agg(
        docs.map_batches(pair_rows, batch_format="pandas"),
        ["w1", "w2"], {"n": ("w1", "count")},
    ).filter(expr=f"n >= {min_count}")
    uni_ds = partial_groupby_agg(
        docs.map_batches(uni_rows, batch_format="pandas"),
        ["w"], {"n": ("w", "count")},
    ).materialize()  # referenced twice (total + head cut) — avoid re-execution
    # full-corpus total BEFORE any truncation: log-probs stay true frequencies
    total = float(uni_ds.sum("n"))
    # deterministic head cut: distributed top-k by count, lexicographic ties
    uni = _det_topk(
        uni_ds.filter(expr=f"n >= {min_count}"), max_vocab, "n", ["w"]
    ).to_pandas()
    bi = _det_topk(bi_ds, max_bigrams, "n", ["w1", "w2"]).to_pandas()
    uni_logp = {
        w: float(np.log(n / total)) for w, n in zip(uni["w"], uni["n"])
    }
    uni_count = dict(zip(uni["w"], uni["n"].astype(float)))
    bi_logp = {
        (a, b): float(np.log(n / uni_count[a]))
        for a, b, n in zip(bi["w1"], bi["w2"], bi["n"])
        if a in uni_count
    }
    return {"unigram": uni_logp, "bigram": bi_logp, "floor": float(np.log(1.0 / total))}


def perplexity_score(
    docs: "ray.data.Dataset",
    model,
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
    out_name: str = "ppl",
) -> "ray.data.Dataset":
    """Per-doc bigram perplexity under a :func:`train_bigram_lm` model with
    interpolated backoff (0.8·bigram + 0.15·unigram + 0.05·floor).  ``model``
    may be the dict itself or a ``ray.ObjectRef`` to it (broadcast once, not
    re-shipped per batch).  Docs with < 2 tokens get the floor perplexity."""
    import numpy as np
    import ray as _ray

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(model) if isinstance(model, _ray.ObjectRef) else model
        uni, bi, floor = m["unigram"], m["bigram"], m["floor"]
        ppls = []
        for text in batch[text_column]:
            toks = text.lower().split() if isinstance(text, str) else []
            if len(toks) < 2:
                ppls.append(float(np.exp(-floor)))
                continue
            lp = 0.0
            for a, b in zip(toks[:-1], toks[1:]):
                p = (
                    0.8 * np.exp(bi.get((a, b), -np.inf))
                    + 0.15 * np.exp(uni.get(b, -np.inf))
                    + 0.05 * np.exp(floor)
                )
                lp += np.log(p)
            ppls.append(float(np.exp(-lp / (len(toks) - 1))))
        return pd.DataFrame({id_column: batch[id_column], out_name: ppls})

    return docs.map_batches(score, batch_format="pandas")


def pmi_collocations(
    docs: "ray.data.Dataset",
    *,
    text_column: str = "text",
    min_count: int = 10,
    k: int = 50,
    round_to: int = 6,
) -> "ray.data.Dataset":
    """Top-k collocations by pointwise mutual information:
    ``pmi(w1, w2) = ln(n_pair · N / (n_w1 · n_w2))`` over consecutive
    lowercased whitespace tokens — the phrase-mining pass (word2vec-style
    bigram promotion) of a text pipeline.

    Counting is the combiner wordcount shape (pairs and unigrams each
    shuffle one row per batch × term); only pairs with count ≥ ``min_count``
    are scored.  The unigram counts reach the pair table through two
    DISTRIBUTED hash joins (on w1, then w2) — the driver never collects a
    vocabulary at any threshold, so the op is insensitive to vocabulary
    size; the only driver-side data is the final top-k.  Deterministic
    output: sorted by (pmi desc, w1, w2), top k."""
    import numpy as np

    from esmarc_ray.ops.relational import (
        _round_half_up,
        partial_groupby_agg,
        partitioned_join,
        sort_topk,
    )

    def pair_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"w1": [], "w2": []}
        for text in batch[text_column]:
            if not isinstance(text, str):
                continue
            toks = text.lower().split()
            out["w1"].extend(toks[:-1])
            out["w2"].extend(toks[1:])
        return pd.DataFrame(out)

    def uni_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for text in batch[text_column]:
            if isinstance(text, str):
                out.extend(text.lower().split())
        return pd.DataFrame({"w": out})

    uni_ds = partial_groupby_agg(
        docs.map_batches(uni_rows, batch_format="pandas"), ["w"], {"n": ("w", "count")}
    ).materialize()  # referenced three times (total + two join sides)
    total = float(uni_ds.sum("n"))

    def rename_uni(key: str, out: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={"w": key, "n": out})

        return fn

    bi = partial_groupby_agg(
        docs.map_batches(pair_rows, batch_format="pandas"),
        ["w1", "w2"], {"n": ("w1", "count")},
    ).filter(expr=f"n >= {min_count}")

    # unigram counts attach via distributed joins — no driver-side vocab.
    # A surviving pair's words always have unigram rows (count(w) >= count
    # of any pair containing w >= min_count), so the inner joins drop nothing.
    with_n1 = partitioned_join(
        bi,
        uni_ds.map_batches(rename_uni("w1", "n1"), batch_format="pandas"),
        "w1", left_cols=["w2", "n"], right_cols=["n1"],
    )
    with_n2 = partitioned_join(
        with_n1,
        uni_ds.map_batches(rename_uni("w2", "n2"), batch_format="pandas"),
        "w2", left_cols=["w1", "n", "n1"], right_cols=["n2"],
    )

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["pmi"] = _round_half_up(
            np.log(
                batch["n"].astype("float64") * total
                / (batch["n1"].astype("float64") * batch["n2"].astype("float64"))
            ),
            round_to,
        )
        # tag-union join padding leaves ints object-dtype — pin for the
        # value-hash compare
        batch["n"] = batch["n"].astype("int64")
        return batch[["w1", "w2", "n", "pmi"]]

    scored = with_n2.map_batches(score, batch_format="pandas")
    # top-k by pmi with a deterministic (w1, w2) tie order
    top = sort_topk(scored, "pmi", k * 4).sort(
        ["pmi", "w1", "w2"], descending=[True, False, False]
    ).limit(k)
    return top


def train_bpe(
    docs: ray.data.Dataset,
    *,
    num_merges: int = 50,
    text_column: str = "text",
    max_words: int = 100_000,
) -> "list[tuple[str, str]]":
    """Train a byte-pair-encoding merge table (Sennrich et al. 2016) — the
    tokenizer-training pass of an LLM data pipeline — with the corpus-scale
    work distributed and the merge loop bounded:

    1. ONE combiner pass reduces the corpus to its distinct-word frequency
       table (tokens never leave their batch);
    2. the deterministic top-``max_words`` cut (count desc, word asc) bounds
       the driver-side table at any corpus size — the standard practice for
       BPE trainers, which operate on word frequencies, not running text;
    3. the classic merge loop runs over that bounded table: per iteration,
       count adjacent symbol pairs weighted by word frequency, merge the
       (count desc, pair asc) argmax.

    Words are lowercased whitespace tokens, symbolized as chars + a ``</w>``
    end marker.  Returns the ordered merge list
    ``[(left, right), ...]`` — apply with :func:`bpe_encode`.
    """
    from collections import Counter

    from esmarc_ray.ops.relational import partial_groupby_agg

    def count_batch(batch: pd.DataFrame) -> pd.DataFrame:
        counts: Counter = Counter()
        for text in batch[text_column].fillna(""):
            counts.update(text.lower().split())
        return pd.DataFrame({"word": list(counts.keys()), "n": list(counts.values())})

    totals = partial_groupby_agg(
        docs.map_batches(count_batch, batch_format="pandas"),
        ["word"],
        {"n": ("n", "sum")},
    )
    words = _det_topk(totals, max_words, "n", ["word"]).to_pandas()

    vocab: dict[tuple, int] = {
        tuple(w) + ("</w>",): int(n) for w, n in zip(words["word"], words["n"])
    }
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair_counts: Counter = Counter()
        for symbols, n in vocab.items():
            for a, b in zip(symbols, symbols[1:]):
                pair_counts[(a, b)] += n
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        merged = best[0] + best[1]
        new_vocab: dict[tuple, int] = {}
        for symbols, n in vocab.items():
            out = []
            i = 0
            while i < len(symbols):
                if (
                    i + 1 < len(symbols)
                    and symbols[i] == best[0]
                    and symbols[i + 1] == best[1]
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + n
        vocab = new_vocab
    return merges


def bpe_encode(
    docs: ray.data.Dataset,
    merges: "list[tuple[str, str]]",
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    out_tokens: str = "n_bpe_tokens",
) -> ray.data.Dataset:
    """Apply a :func:`train_bpe` merge table: per doc, tokenize every word
    with the learned merges (applied in rank order — the BPE inference rule)
    and emit the token count.  The merge table rides the task closure (it is
    ``num_merges`` rows); per-batch encoding memoizes word → token-count, so
    repeated words cost one encode per batch."""
    rank = {pair: i for i, pair in enumerate(merges)}

    def encode_word(word: str) -> int:
        symbols = list(word) + ["</w>"]
        while len(symbols) > 1:
            pairs = [(rank.get((a, b), None), i)
                     for i, (a, b) in enumerate(zip(symbols, symbols[1:]))]
            ranked = [(r, i) for r, i in pairs if r is not None]
            if not ranked:
                break
            _, i = min(ranked)
            symbols[i : i + 2] = [symbols[i] + symbols[i + 1]]
        return len(symbols)

    def batch_fn(batch: pd.DataFrame) -> pd.DataFrame:
        memo: dict[str, int] = {}
        counts = []
        for text in batch[text_column].fillna(""):
            total = 0
            for w in text.lower().split():
                c = memo.get(w)
                if c is None:
                    c = memo[w] = encode_word(w)
                total += c
            counts.append(total)
        return pd.DataFrame(
            {id_column: batch[id_column], out_tokens: pd.Series(counts, dtype="int64")}
        )

    return docs.map_batches(batch_fn, batch_format="pandas")


@derive_width
def length_batch_plan(
    docs: ray.data.Dataset,
    *,
    token_budget: int = 4096,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Length-bucketed batching plan for training: documents bucket by
    ``floor(log2(n_tokens))`` so a batch's sequences stay within a 2×
    length spread (bounded padding waste), then get a deterministic
    ``batch_id`` inside the bucket — exclusive prefix token count //
    ``token_budget`` over the (n_tokens, id) order.

    Shapes: token counts are a stateless map; the within-bucket prefix sum
    runs on :func:`esmarc_ray.ops.relational.running_window`'s
    hash-bucketed reducers (one vectorized cumsum per partition, not one
    task per bucket-key).  Buckets are few (log-spaced), so at corpus scale
    raise ``num_partitions``/split buckets by a secondary hash — the plan is
    deterministic either way.  Returns (id, bucket, batch_id)."""
    import numpy as np

    from esmarc_ray.ops.relational import running_window

    def tok(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch[text_column].fillna("")
        n = text.str.split().str.len().fillna(0).astype("int64")
        return pd.DataFrame(
            {
                id_column: batch[id_column],
                "n_tokens": n,
                "bucket": np.floor(np.log2(np.maximum(n, 1))).astype("int64"),
            }
        )

    staged = docs.map_batches(tok, batch_format="pandas")
    cum = running_window(
        staged,
        partition_by="bucket",
        order_by=["n_tokens", id_column],
        value_column="n_tokens",
        out_name="cum_tokens",
        num_partitions=num_partitions,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        before = batch["cum_tokens"] - batch["n_tokens"]  # exclusive prefix
        batch["batch_id"] = (before // token_budget).astype("int64")
        return batch[[id_column, "bucket", "batch_id"]]

    return cum.map_batches(finish, batch_format="pandas")


def compression_ratio(
    docs: ray.data.Dataset,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    level: int = 6,
    round_to: int = 6,
) -> ray.data.Dataset:
    """Per-document zlib compression ratio (compressed/raw bytes) — the
    classic cheap quality/repetition signal (low ratio ⇒ templated or
    repetitive text; near-1 ⇒ high-entropy noise).  Stateless map;
    deterministic for a fixed zlib level, pytest-gated (no SQL zlib)."""
    import zlib

    import numpy as np

    def ratio(batch: pd.DataFrame) -> pd.DataFrame:
        raw = batch[text_column].fillna("").str.encode("utf-8")
        ratios = [
            (len(zlib.compress(b, level)) / len(b)) if len(b) else 1.0
            for b in raw
        ]
        return pd.DataFrame(
            {
                id_column: batch[id_column],
                "compression_ratio": np.floor(
                    np.array(ratios) * 10**round_to + 0.5
                )
                / 10**round_to,
            }
        )

    return docs.map_batches(ratio, batch_format="pandas")


@derive_width
def split_ngram_overlap(
    docs: ray.data.Dataset,
    *,
    ngram: int = 8,
    text_column: str = "text",
    lang_column: str = "lang",
    split_column: str = "split",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Train→test n-gram overlap report: for every language, the share of
    the TEST split's distinct word ``ngram``-grams that also occur anywhere
    in the TRAIN split — the generalization-vs-memorization dashboard an
    eval-set owner reads next to the contamination gate (same exact-string
    shingles as :func:`decontaminate`: a hash collision here would be a
    false "seen").

    Scale shape: shingles are partitioned by the GRAM, so the train-side
    membership set and the distinct (lang, gram) test pairs of any gram
    co-locate in one partition; partials are per-(partition, lang) counts
    and the merge is a tiny per-lang sum.  Shuffle volume is O(distinct
    grams), never pairs."""
    import numpy as np

    from esmarc_ray.ops.relational import partial_groupby_agg

    def shingles(batch: pd.DataFrame) -> pd.DataFrame:
        rows_g: list[str] = []
        rows_l: list[str] = []
        rows_k: list[str] = []
        train_seen: set[str] = set()
        for txt, lang, split in zip(
            batch[text_column].fillna(""),
            batch[lang_column],
            batch[split_column],
        ):
            if split == "train":
                train_seen.update(_shingle_set(txt, ngram))
            elif split == "test":
                for g in _shingle_set(txt, ngram):
                    rows_g.append(g)
                    rows_l.append(lang)
                    rows_k.append("s")
        rows_g.extend(train_seen)
        rows_l.extend([""] * len(train_seen))
        rows_k.extend(["t"] * len(train_seen))
        return pd.DataFrame({"gram": rows_g, "lang": rows_l, "kind": rows_k})

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        train = set(part.loc[part["kind"] == "t", "gram"])
        test = part.loc[part["kind"] == "s", ["lang", "gram"]].drop_duplicates()
        if test.empty:
            return pd.DataFrame(
                {
                    "lang": pd.Series(dtype="object"),
                    "__n": pd.Series(dtype="int64"),
                    "__s": pd.Series(dtype="int64"),
                }
            )
        test = test.assign(__s=test["gram"].isin(train).astype("int64"), __n=1)
        return test.groupby("lang", as_index=False).agg(
            __n=("__n", "sum"), __s=("__s", "sum")
        )

    partials = partitioned_final(
        docs.map_batches(shingles, batch_format="pandas"),
        ["gram"],
        per_part,
        num_partitions=num_partitions,
    )
    out = partial_groupby_agg(
        partials,
        ["lang"],
        {"n_test_ngrams": ("__n", "sum"), "n_seen": ("__s", "sum")},
    ).to_pandas()
    out["overlap"] = np.floor(
        out["n_seen"] / out["n_test_ngrams"] * 1e6 + 0.5
    ) / 1e6
    return out.sort_values("lang").reset_index(drop=True)


@derive_width
def dictionary_mentions(
    docs: "ray.data.Dataset",
    names: list[str],
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Broadcast-dictionary mention tagging — the batched mention-detection
    shape of a KG pipeline (the reference scans record strings against its
    authority-name lists when linking, reference esmarc/entityfacts.py): a
    small entity-name dictionary is grouped by token length, ``ray.put``
    ONCE, and every corpus task slides token n-grams over its batch and
    set-filters them against the broadcast dictionary — the corpus side
    never shuffles; only the tiny (doc, name) hit table does, through one
    combiner-shaped groupby-count.

    Matching semantics (mirrored exactly by the DuckDB oracle): lowercased
    whitespace tokenization, a name of n tokens matches every position
    where the doc's n consecutive tokens equal it (overlaps counted).

    Output: ``(id_column, name, n_mentions)`` — one row per (doc, matched
    dictionary name).
    """
    import ray

    from esmarc_ray.ops.relational import partial_groupby_agg

    by_len: dict[int, frozenset[str]] = {}
    for name in names:
        n = len(name.split())
        if n == 0:
            continue
        by_len.setdefault(n, set()).add(name.lower())  # type: ignore[attr-defined]
    by_len = {n: frozenset(s) for n, s in by_len.items()}
    dict_ref = ray.put(by_len)

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        groups = ray.get(dict_ref)
        batch = batch.reset_index(drop=True)  # labels == positions below
        toks = batch[text_column].fillna("").str.lower().str.split()
        words = toks.explode()
        words = words[words.notna()]
        ids = pd.Series(words.index, index=words.index)  # doc row per token
        w = words.reset_index(drop=True)
        p = ids.reset_index(drop=True)
        hit_ids, hit_names = [], []
        for n, nameset in groups.items():
            if len(w) < n:
                continue
            if n == 1:
                g, gp = w, p
            else:
                parts = [w.shift(-j) for j in range(1, n)]
                g = w.str.cat(parts, sep=" ", na_rep="\x00")
                same_doc = p.shift(-(n - 1)) == p
                g, gp = g[same_doc], p[same_doc]
            mask = g.isin(nameset)
            if mask.any():
                hit_names.append(g[mask])
                hit_ids.append(gp[mask])
        if not hit_ids:
            return pd.DataFrame({id_column: pd.Series([], dtype="int64"),
                                 "name": pd.Series([], dtype="object"),
                                 "n_mentions": pd.Series([], dtype="int64")})
        rows = pd.DataFrame({
            "__row": pd.concat(hit_ids, ignore_index=True),
            "name": pd.concat(hit_names, ignore_index=True),
        })
        rows[id_column] = batch[id_column].to_numpy()[rows["__row"].to_numpy()]
        # batch-local combine before the (tiny) global shuffle
        return (
            rows.groupby([id_column, "name"], sort=False)
            .size()
            .rename("n_mentions")
            .reset_index()
        )

    hits = docs.map_batches(tag, batch_format="pandas")
    return partial_groupby_agg(
        hits, [id_column, "name"], {"n_mentions": ("n_mentions", "sum")},
        num_partitions=num_partitions,
    )


def boolean_and_search(
    docs: "ray.data.Dataset",
    terms: list[str],
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
) -> "ray.data.Dataset":
    """Conjunctive Boolean retrieval: documents whose token set contains ALL
    query terms (the AND baseline under BM25 — the filter stage of a
    retrieve-then-rank pipeline).  Map-only, zero shuffle: each batch tests
    its own docs against the (tiny, closure-carried) term set; tokenization
    is the corpus contract (lowercase, ``[a-z0-9]+`` runs)."""
    import re

    pat = re.compile(r"[a-z0-9]+")
    want = set(terms)

    def match(batch: "pd.DataFrame") -> "pd.DataFrame":
        keep = [
            want <= set(pat.findall((t or "").lower()))
            for t in batch[text_column]
        ]
        return batch.loc[keep, [id_column]]

    return docs.map_batches(match, batch_format="pandas")


def flesch_scores(
    docs: "ray.data.Dataset",
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
    round_to: int = 4,
) -> "ray.data.Dataset":
    """Flesch reading-ease per document — the classic readability quality
    signal: ``206.835 − 1.015·(words/sentences) − 84.6·(syllables/words)``
    with syllables approximated as ``[aeiouy]+`` vowel-group runs per word
    (min 1) — the standard heuristic, fully SQL-expressible so the whole op
    hash-checks.  Map-only, one pass; the per-word regex loop is bounded by
    the doc's word count (the same shape as every tokenizer here)."""
    import re

    sent_re = re.compile(r"[.!?]+")
    vowel_re = re.compile(r"[aeiouy]+")

    def score(batch: "pd.DataFrame") -> "pd.DataFrame":
        n_words, n_sents, n_syll, scores = [], [], [], []
        for t in batch[text_column]:
            txt = t or ""
            words = [w for w in txt.lower().split() if w]
            w = len(words)
            s = max(len(sent_re.findall(txt)), 1)
            syl = sum(max(len(vowel_re.findall(wd)), 1) for wd in words)
            w0 = max(w, 1)
            f = 206.835 - 1.015 * (float(w) / float(s)) - 84.6 * (
                float(syl) / float(w0)
            )
            n_words.append(w)
            n_sents.append(s)
            n_syll.append(syl)
            scores.append(np.floor(f * 10.0**round_to + 0.5) / 10.0**round_to
                          if f >= 0 else
                          -np.floor(-f * 10.0**round_to + 0.5) / 10.0**round_to)
        return pd.DataFrame(
            {
                id_column: batch[id_column],
                "n_words": pd.Series(n_words, dtype="int64"),
                "n_sentences": pd.Series(n_sents, dtype="int64"),
                "n_syllables": pd.Series(n_syll, dtype="int64"),
                "flesch": scores,
            }
        )

    return docs.map_batches(score, batch_format="pandas")


@derive_width
def bpe_train(
    docs: ray.data.Dataset,
    *,
    text_col: str = "text",
    n_merges: int = 20,
    num_partitions: int | None = None,
) -> pd.DataFrame:
    """Learn the top-``n_merges`` byte-pair-encoding merges of the corpus
    (Sennrich et al. 2016) — tokenizer training as a data-pipeline stage.

    Returns (rank, left, right, merged, n) — the merge table in learned
    order, ``n`` = the pair's corpus frequency at the time it was chosen.

    Scale shape: the CORPUS is touched exactly once, by a combiner-shaped
    word-count groupby (the standard industrial trick — BPE statistics only
    depend on the word-frequency table, which is vocabulary-sized, not
    corpus-sized).  Each of the ``n_merges`` iterations then runs over the
    word table: a zero-copy numpy flatten counts adjacent symbol pairs
    (weighted by word freq, no per-word Python), one small fold picks the
    argmax pair (count desc, then lexicographic — deterministic under any
    partitioning), and the merge is applied only to words whose padded
    symbol string contains the exact adjacency (vectorized prefilter; the
    per-word rewrite loop runs on that usually-tiny subset).  The pair
    table collected per iteration is bounded by the symbol-pair vocabulary
    (10^4-10^5), never the corpus; at extreme vocab scale, prune it with
    ops.sketches.heavy_hitters first.
    """
    from esmarc_ray.ops.relational import partial_groupby_agg

    word_re = re.compile(r"[a-z0-9]+")

    def words_of(batch: pd.DataFrame) -> pd.DataFrame:
        toks = (
            batch[text_col]
            .astype(str)
            .str.lower()
            .str.findall(word_re)
            .explode()
            .dropna()
        )
        return pd.DataFrame({"word": toks.to_numpy()})

    vocab = partial_groupby_agg(
        docs,
        ["word"],
        {"freq": ("word", "count")},
        pre_map=words_of,
        num_partitions=num_partitions,
    )

    # symbol state: one space-joined string per word ("h e l l o </w>") —
    # adjacency tests and flattening both come straight off this column
    def init_syms(batch: pd.DataFrame) -> pd.DataFrame:
        joined = batch["word"].map(lambda w: " ".join(list(w) + ["</w>"]))
        return pd.DataFrame({"syms": joined, "freq": batch["freq"]})

    state = vocab.map_batches(init_syms, batch_format="pandas").materialize()

    _EMPTY_PAIRS = pd.DataFrame(
        {
            "left": pd.Series(dtype="object"),
            "right": pd.Series(dtype="object"),
            "n": pd.Series(dtype="int64"),
        }
    )

    def pair_partials(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return _EMPTY_PAIRS
        parts = batch["syms"].str.split(" ")
        lens = parts.str.len().to_numpy()
        flat = np.concatenate(parts.to_numpy())
        parent = np.repeat(np.arange(len(batch)), lens)
        same = parent[1:] == parent[:-1]
        w = batch["freq"].to_numpy()[parent[:-1][same]]
        df = pd.DataFrame(
            {"left": flat[:-1][same], "right": flat[1:][same], "n": w}
        )
        return df.groupby(["left", "right"], as_index=False)["n"].sum()

    merges: list[dict] = []
    for rank in range(n_merges):
        pairs = partial_groupby_agg(
            state,
            ["left", "right"],
            {"n": ("n", "sum")},
            pre_map=pair_partials,
            num_partitions=num_partitions,
        ).to_pandas()
        if pairs.empty:
            break
        best = pairs.sort_values(
            ["n", "left", "right"], ascending=[False, True, True]
        ).iloc[0]
        left, right, n = str(best["left"]), str(best["right"]), int(best["n"])
        merged = left + right
        merges.append(
            {"rank": rank, "left": left, "right": right, "merged": merged,
             "n": n}
        )

        pat = f"{left} {right}"

        def apply_merge(batch: pd.DataFrame) -> pd.DataFrame:
            padded = " " + batch["syms"] + " "
            hit = padded.str.contains(f" {pat} ", regex=False)
            if hit.any():
                # leftmost-greedy rewrite on the affected words only; the
                # two-pass replace handles overlapping runs ("a a a") the
                # same way the sequential scan would
                def rewrite(s: str) -> str:
                    out = []
                    toks = s.split(" ")
                    i = 0
                    while i < len(toks):
                        if (
                            i + 1 < len(toks)
                            and toks[i] == left
                            and toks[i + 1] == right
                        ):
                            out.append(merged)
                            i += 2
                        else:
                            out.append(toks[i])
                            i += 1
                    return " ".join(out)

                batch = batch.copy()
                batch.loc[hit, "syms"] = batch.loc[hit, "syms"].map(rewrite)
            return batch

        state = state.map_batches(
            apply_merge, batch_format="pandas"
        ).materialize()

    out = pd.DataFrame(
        merges, columns=["rank", "left", "right", "merged", "n"]
    )
    out["rank"] = out["rank"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


@derive_width
def duplicate_span_removal(
    docs: ray.data.Dataset,
    *,
    id_column: str = "doc_id",
    text_column: str = "text",
    width: int = 8,
    min_count: int = 2,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact duplicated-substring removal at token granularity (the
    ExactSubstr curation step of Lee et al., "Deduplicating Training Data
    Makes Language Models Better", ACL 2022): every ``width``-token span
    whose exact token sequence occurs ≥ ``min_count`` times corpus-wide
    (across documents or repeated inside one) is cut from EVERY document
    that contains it; remaining tokens are reassembled in order.

    Returns (id_column, text_column [cleaned], n_tokens [original],
    n_removed) — one row per input document, empty-string text when
    everything was duplicated (the row is kept, unlike paragraph_dedup's
    drop semantics, so attrition is readable per doc).

    Plan (the distributed stand-in for the paper's suffix array):

    1. **gram explode** — one (gram_hash, doc, pos) row per token position,
       fully vectorized: tokens of a whole batch are flattened into one
       array, sip-hashed once, and the ``width``-token rolling hash is
       ``width`` numpy shift-multiply-adds over that flat array (windows
       crossing a document boundary masked out via offset arithmetic).
       64-bit polynomial combine — collision odds ~(n_grams²)/2⁶⁵,
       negligible below ~10¹² grams; beyond that raise to a 128-bit pair.
    2. **duplicate detect** — ONE hash shuffle: rows partition on
       ``gram_hash % P``, so all occurrences of a gram land together and a
       per-PARTITION vectorized group-size filter keeps exactly the
       occurrences of grams with corpus count ≥ min_count.  No global
       count table, no driver state.
    3. **rebuild** — duplicate occurrences and the doc payload co-partition
       on ``hash(doc_id) % P`` (tag-union, the repo's standard partitioned
       join); per doc a diff-array interval union marks [pos, pos+width)
       covers and the kept tokens are rejoined.  The doc text shuffles
       exactly once.

    Scale note: stage 1 emits one 16-byte row per corpus TOKEN — that
    shuffle is the inherent cost of exactness (the suffix array it replaces
    is also O(tokens)); at the 100-TB tier raise ``width`` (the paper uses
    50) and ``num_partitions``, or pre-gate with a fingerprint pass.
    Tokenization is ``split(' ')`` exactly (empties from runs of spaces
    kept) so a SQL oracle reproduces the token grid bit-for-bit.
    """
    import numpy as np

    prime = np.uint64(1099511628211)

    def explode_grams(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_column].fillna("").tolist()
        ids = batch[id_column].to_numpy()
        toks_per_doc = [t.split(" ") for t in texts]
        lens = np.array([len(t) for t in toks_per_doc], dtype="int64")
        total = int(lens.sum())
        if not total:
            return pd.DataFrame(
                {"__h": pd.Series(dtype="uint64"),
                 id_column: pd.Series(dtype=ids.dtype),
                 "__pos": pd.Series(dtype="int64")}
            )
        flat = [tok for toks in toks_per_doc for tok in toks]
        th = (
            pd.util.hash_pandas_object(pd.Series(flat), index=False)
            .to_numpy()
            .astype(np.uint64)
        )
        with np.errstate(over="ignore"):
            gh = th.copy()
            mult = np.uint64(1)
            for j in range(1, width):
                mult = mult * prime
                gh[: total - j] += th[j:] * mult
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.arange(total, dtype="int64") - offsets[doc_idx]
        valid = pos <= (lens[doc_idx] - width)
        return pd.DataFrame(
            {"__h": gh[valid], id_column: ids[doc_idx[valid]],
             "__pos": pos[valid]}
        )

    def keep_duplicated(part: pd.DataFrame) -> pd.DataFrame:
        sizes = part.groupby("__h")["__h"].transform("size")
        hit = part[sizes >= min_count]
        return hit[[id_column, "__pos"]]

    dup_occ = partitioned_final(
        docs.map_batches(explode_grams, batch_format="pandas"),
        ["__h"],
        keep_duplicated,
        num_partitions,
    )

    def tag_docs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_column: batch[id_column],
                "__txt": batch[text_column].fillna(""),
                "__pos": np.int64(-1),
                PART: hash_partition(batch, id_column, num_partitions),
            }
        )

    def tag_dups(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_column: batch[id_column],
                "__txt": "",
                "__pos": batch["__pos"].astype("int64"),
                PART: hash_partition(batch, id_column, num_partitions),
            }
        )

    def rebuild(part: pd.DataFrame) -> pd.DataFrame:
        texts = part[part["__pos"] < 0]
        spans = part[part["__pos"] >= 0]
        spans_by_doc = {
            k: g["__pos"].to_numpy() for k, g in spans.groupby(id_column)
        }
        out_ids, out_txt, out_n, out_rm = [], [], [], []
        for doc_id, text in zip(texts[id_column], texts["__txt"]):
            toks = text.split(" ")
            n = len(toks)
            starts = spans_by_doc.get(doc_id)
            if starts is None:
                out_ids.append(doc_id)
                out_txt.append(text)
                out_n.append(n)
                out_rm.append(0)
                continue
            diff = np.zeros(n + 1, dtype="int64")
            np.add.at(diff, starts, 1)
            np.add.at(diff, np.minimum(starts + width, n), -1)
            covered = np.cumsum(diff[:-1]) > 0
            kept = [t for t, c in zip(toks, covered) if not c]
            out_ids.append(doc_id)
            out_txt.append(" ".join(kept))
            out_n.append(n)
            out_rm.append(int(covered.sum()))
        return pd.DataFrame(
            {
                id_column: out_ids,
                text_column: out_txt,
                "n_tokens": pd.array(out_n, dtype="int64"),
                "n_removed": pd.array(out_rm, dtype="int64"),
            }
        )

    tagged = docs.map_batches(tag_docs, batch_format="pandas").union(
        dup_occ.map_batches(tag_dups, batch_format="pandas")
    )
    return reduce_partitions(tagged, rebuild)
