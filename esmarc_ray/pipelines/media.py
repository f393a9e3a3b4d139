"""Interleaved text+media path: span table → media refs → fetch → features.

The KG corpus rows are interleaved documents (``doc_id``, ``spans`` where a
span is ``struct<kind, text, media_ref, offset>``; ``kind == "media"`` spans
carry the digitization link derived from MARC 856$u — ``codec.py``).  This
module is the media half of that interleaving:

* :func:`media_refs` — zero-copy Arrow extraction of ``(doc_id, media_ref,
  span_order)`` from the span column (``list_parent_indices`` + filter; no
  Python loop, no row materialization).  Oracle-checkable: DuckDB can
  ``unnest(spans)`` over the same parquet and must agree exactly.
* :class:`MediaFetcher` — actor-pool blob-fetch stage.  In a real deployment
  the actor holds a blob-store/HTTP client built once in ``__init__`` and
  ``__call__`` issues batched range reads; this container has no network, so
  the fetch deterministically synthesizes the blob — by default a GENUINE
  24-bit BMP derived from the ref (``payload_kind="bmp"``), so the
  downstream decode parses real image bytes; ``payload_kind="fake"`` keeps
  the opaque sha-tile stand-in.  The Ray-side shape — actor pool,
  byte-bounded batches, payload appended per row — is the real design.
* :func:`doc_media_features` — the composed pipeline: refs → fetch →
  ``decode_media`` (actor-pool REAL BMP/WAV decode + feature-extract via
  ``ops.media_codecs``; payload dropped immediately after decode so big
  bytes never travel past that stage).

Scale notes: the extractor and fetcher stream block-by-block; nothing
materializes.  Fetch batches are small (``fetch_batch_rows``) because the
payload column inflates each row by the media size — the same guidance as
``ops/multimodal.py``.  At 10^12 docs the fetch stage is the bandwidth
bottleneck by design (network-bound actor pool) and scales by
``concurrency``, not by batch growth.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from esmarc_ray.config import derive_width



def _media_batch(batch: pa.Table) -> pa.Table:
    spans = batch.column("spans").combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans)
    mask = pc.equal(flat.field("kind"), "media")
    return pa.table(
        {
            "doc_id": pc.take(
                batch.column("doc_id").combine_chunks(), parent.filter(mask)
            ),
            "media_ref": flat.field("media_ref").filter(mask),
            "span_order": flat.field("offset").filter(mask),
        }
    )


def media_refs(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, media_ref, span_order) — one row per media span, spans'
    interleaving order preserved in ``span_order``."""
    return docs.map_batches(
        _media_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _flat_spans(batch: pa.Table):
    """Shared zero-copy flatten: (doc_ids, parent_idx, kind, text, media_ref,
    offset) numpy/pandas views over the span list column."""
    import numpy as np

    spans = batch.column("spans").combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans).to_numpy()
    off = flat.field("offset").to_numpy()
    # spans are stored in offset order within each list; enforce it anyway so
    # the pairing below never depends on writer layout
    order = np.lexsort((off, parent))
    return (
        batch.column("doc_id").to_pandas().to_numpy(),
        parent[order],
        flat.field("kind").to_pandas().to_numpy()[order],
        flat.field("text").to_pandas().to_numpy()[order],
        flat.field("media_ref").to_pandas().to_numpy()[order],
        off[order],
    )


def media_captions(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, media_ref, span_order, caption) — every media span paired
    with its nearest PRECEDING text span: the caption heuristic that turns
    interleaved documents into image-text training pairs (the standard
    recipe for interleaved multimodal corpora).  Null caption when a media
    span opens its document.

    A document's spans live inside its own row, so the pairing is map-only
    and zero-shuffle: one Arrow list flatten + one vectorized forward-fill
    per batch, no Python loop over spans."""
    import numpy as np

    def pairs(batch: pa.Table) -> pd.DataFrame:
        doc_ids, parent, kind, text, media_ref, off = _flat_spans(batch)
        is_media = kind == "media"
        # forward-fill the latest text-span text within each doc run
        cap = pd.Series(np.where(is_media, None, text), dtype=object)
        cap = cap.groupby(parent).ffill()
        m = is_media
        out = pd.DataFrame(
            {
                "doc_id": doc_ids[parent[m]],
                "media_ref": media_ref[m],
                "span_order": off[m].astype("int64"),
                "caption": cap.to_numpy()[m],
            }
        )
        return out

    return docs.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)


def media_transitions(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Interleaving-structure profile: global counts of adjacent span-kind
    bigrams over the binary text/media classification — (src_kind, dst_kind,
    n).  The corpus-QA readout for multimodal training data ("are media
    spans isolated or clustered?").  Map-only per batch (a doc's spans never
    leave its row) + one tiny combiner."""
    import numpy as np

    from esmarc_ray.ops.relational import partial_groupby_agg

    def bigrams(batch: pa.Table) -> pd.DataFrame:
        _, parent, kind, _, _, _ = _flat_spans(batch)
        k = np.where(kind == "media", "media", "text")
        same_doc = parent[1:] == parent[:-1]
        return pd.DataFrame(
            {"src_kind": k[:-1][same_doc], "dst_kind": k[1:][same_doc]}
        )

    return partial_groupby_agg(
        docs.map_batches(bigrams, batch_format="pyarrow", zero_copy_batch=True),
        ["src_kind", "dst_kind"],
        {"n": ("src_kind", "count")},
    )


def _bmp_payload(ref: str, payload_bytes: int) -> bytes:
    """Deterministic REAL BMP for a media ref: a square gradient image whose
    pixel area approximately fills ``payload_bytes``, phase-shifted by the
    ref's sha256 so distinct refs decode to distinct pixels."""
    import numpy as np

    from esmarc_ray.ops.media_codecs import encode_bmp

    side = max(1, int(((payload_bytes - 54) // 3) ** 0.5))
    phase = np.frombuffer(hashlib.sha256(ref.encode()).digest()[:3], dtype=np.uint8)
    yy, xx = np.mgrid[0:side, 0:side]
    pixels = ((yy[..., None] * 7 + xx[..., None] * 11) * np.array([1, 2, 3])
              + phase.astype(np.int32)) % 256
    return encode_bmp(pixels.astype(np.uint8))


class MediaFetcher:
    """Actor-pool payload fetch; see module docstring for the stand-in note.

    ``__init__`` is where a real deployment builds its blob client (once per
    actor); ``payload_bytes`` models the media size so batch byte budgets can
    be exercised in tests.  ``payload_kind="bmp"`` (default) serves genuine
    BMP image bytes (decodable by ``MediaDecoder(decoder="native")``);
    ``"fake"`` serves opaque sha-tiled bytes (plumbing-only mode).
    """

    def __init__(self, payload_bytes: int = 2048, payload_kind: str = "bmp"):
        if payload_bytes % 32:
            raise ValueError("payload_bytes must be a multiple of 32")
        if payload_kind not in ("bmp", "fake"):
            raise ValueError(payload_kind)
        self.payload_bytes = payload_bytes
        self.payload_kind = payload_kind
        self.tile = payload_bytes // 32

    def _fetch(self, ref: str) -> bytes:
        if self.payload_kind == "bmp":
            return _bmp_payload(ref, self.payload_bytes)
        return hashlib.sha256(ref.encode()).digest() * self.tile

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [self._fetch(r) for r in batch.column("media_ref").to_pylist()]
        mime = "image/bmp" if self.payload_kind == "bmp" else "image/jpeg"
        return batch.append_column(
            "payload", pa.array(payloads, pa.binary())
        ).append_column(
            "mime", pa.array([mime] * len(payloads), pa.string())
        )


def fetch_media(
    refs: ray.data.Dataset,
    *,
    payload_bytes: int = 2048,
    payload_kind: str = "bmp",
    fetch_batch_rows: int = 64,
    concurrency: int | tuple[int, int] = (1, 2),
) -> ray.data.Dataset:
    return refs.map_batches(
        MediaFetcher,
        fn_constructor_kwargs={"payload_bytes": payload_bytes,
                               "payload_kind": payload_kind},
        batch_format="pyarrow",
        batch_size=fetch_batch_rows,
        concurrency=concurrency,
        zero_copy_batch=True,
    )


def doc_media_features(
    docs: ray.data.Dataset,
    *,
    decoder: str = "native",
    payload_bytes: int = 2048,
    payload_kind: str = "bmp",
    concurrency: int | tuple[int, int] = (1, 2),
) -> ray.data.Dataset:
    """Composed interleaved-media pipeline over the span table: every media
    span becomes one feature row ``(doc_id, media_ref, span_order, mime,
    features, payload_crc)``.

    ``concurrency`` applies to BOTH actor pools (fetch and decode) — the
    default autoscales from 1 so the two pools' minimum claim (2 CPUs)
    leaves headroom for the upstream read task even on a 4-CPU session; two
    FIXED pools of 2 deadlock there (pool-vs-task starvation, the conftest
    gotcha)."""
    from esmarc_ray.ops.multimodal import decode_media

    return decode_media(
        fetch_media(
            media_refs(docs),
            payload_bytes=payload_bytes,
            payload_kind=payload_kind,
            concurrency=concurrency,
        ),
        decoder=decoder,
        concurrency=concurrency,
    )


@derive_width
def interleave_chunks(
    docs: ray.data.Dataset,
    *,
    chunk_tokens: int = 64,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Media-aware context-window assembly over the interleaved span table:
    walk each document's spans in offset order, cut a new window every
    ``chunk_tokens`` whitespace tokens of TEXT, and keep media spans at
    their interleaved positions — the training-example assembly step for
    interleaved text+image corpora (each example = its text token budget
    plus the media refs that occur inside it).

    Span→chunk assignment is by the cumulative text-token count BEFORE the
    span (a span straddling the boundary is not split — it belongs to the
    window it starts in), which makes the whole op SQL-expressible: the
    oracle recomputes it with a window cumsum over the same span parquet.

    One exchange: spans flatten zero-copy, docs hash-partition, and each
    partition does one vectorized sort + groupby-cumsum + aggregate.
    Output: (doc_id, chunk_id, n_text_tokens, n_media, media_refs) with
    media_refs comma-joined in offset order ('' when none).
    """
    from esmarc_ray.ops.relational import partitioned_final

    def flatten(batch: pa.Table) -> pa.Table:
        col = batch.column("spans")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten()
        parents = pa.compute.list_parent_indices(col)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(parents),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
                "off": flat.field("offset"),
            }
        )

    flat = docs.map_batches(flatten, batch_format="pyarrow", zero_copy_batch=True)

    def add_tokens(batch: "pd.DataFrame") -> "pd.DataFrame":
        is_text = batch["kind"] == "text"
        ntok = batch["text"].fillna("").str.split().str.len().fillna(0).astype("int64")
        batch = batch.copy()
        batch["ntok"] = ntok.where(is_text, 0)
        batch["is_media"] = (batch["kind"] == "media").astype("int64")
        return batch

    def assemble(part: "pd.DataFrame") -> "pd.DataFrame":
        part = part.sort_values(["doc_id", "off"], kind="mergesort")
        grouped = part.groupby("doc_id", sort=False)
        cum_before = grouped["ntok"].cumsum() - part["ntok"]
        part = part.assign(chunk_id=(cum_before // chunk_tokens).astype("int64"))
        agg = part.groupby(["doc_id", "chunk_id"], as_index=False, sort=False).agg(
            n_text_tokens=("ntok", "sum"), n_media=("is_media", "sum")
        )
        media = part[part["kind"] == "media"]
        if len(media):
            joined = media.groupby(["doc_id", "chunk_id"], as_index=False, sort=False)[
                "media_ref"
            ].agg(",".join)
            agg = agg.merge(joined, on=["doc_id", "chunk_id"], how="left")
            agg["media_refs"] = agg.pop("media_ref").fillna("")
        else:
            agg["media_refs"] = ""
        return agg

    return partitioned_final(
        flat.map_batches(add_tokens, batch_format="pandas"),
        ["doc_id"],
        assemble,
        num_partitions,
    )
