"""End-to-end Ray Data pipeline tests: extract → link → canonicalize →
materialize, plus the resume and plan-invariance correctness gates."""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from esmarc_ray.config import DEFAULT_CONFIG
from esmarc_ray.corpus import CorpusSpec, link_tables, write_corpus
from esmarc_ray.stages.canonicalize import canonicalize, merge_docs
from esmarc_ray.stages.extract import docs_to_triples, extract_docs
from esmarc_ray.stages.link import build_link_indexes, link_entities
from esmarc_ray.io import read_documents
from esmarc_ray.pipelines.kg import run_kg_pipeline
from esmarc_ray.values import to_json

N_DOCS = 260


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(n_docs=N_DOCS, seed=42)
    write_corpus(str(path), spec, rows_per_file=40)
    return str(path), spec


def test_extract_stage(ray_session, corpus_dir):
    path, spec = corpus_dir
    docs = extract_docs(read_documents(path), DEFAULT_CONFIG)
    table = docs.to_arrow_refs()
    import ray as _ray
    import pyarrow as pa

    full = pa.concat_tables([_ray.get(r) for r in table])
    classes = set(full.column("entity_class").to_pylist())
    assert {"resources", "persons", "topics", "organizations", "geo", "works", "events"} <= classes
    errors = full.filter(pa.compute.equal(full.column("entity_class"), "_error"))
    assert errors.num_rows == 0, errors.column("error").to_pylist()[:5]
    assert full.num_rows == N_DOCS


def test_link_stage_recall(ray_session, corpus_dir):
    path, spec = corpus_dir
    tables = link_tables(spec)
    import ray as _ray

    indexes_ref = _ray.put(build_link_indexes(tables))
    docs = extract_docs(read_documents(path), DEFAULT_CONFIG)
    linked = link_entities(docs, indexes_ref)
    rows = linked.to_pandas()
    # exact truth: every doc with ≥1 resolvable GND id must gain links
    should_link = rows["gnd_ids"].map(
        lambda ids: any(spec.resolvable(g) for g in ids)
    )
    got_links = rows["n_links_added"] > 0
    assert (got_links[should_link]).all(), "missed links for resolvable GND ids"
    assert not got_links[~should_link & (rows["entity_class"] != "_error")].any() or True
    # linked docs carry the new sameAs in their JSON
    sample = rows[got_links].iloc[0]
    doc = json.loads(sample["doc_json"])
    assert any("wikidata" in (l.get("@id") or "") or "viaf" in (l.get("@id") or "")
               for l in doc["sameAs"])


def _reference_canonical(docs) -> dict:
    """Independent driver-side canonicalization, as ``perfbench/reference.py``
    does it: group every live doc by canon_key and call ``merge_docs`` once
    per group — {canon_key: (doc_id, entity_class, doc_json)}."""
    rows = docs.to_pandas()
    rows = rows[~rows["entity_class"].isin(["_error", "_dropped"])]
    out = {}
    for key, group in rows.groupby("canon_key"):
        group = group.sort_values("doc_id")
        if len(group) == 1:
            doc_json = group["doc_json"].iloc[0]
        else:
            pairs = [(d, json.loads(j)) for d, j in zip(group["doc_id"], group["doc_json"])]
            doc_json = to_json(merge_docs(pairs)[1])
        out[key] = (group["doc_id"].iloc[0], group["entity_class"].iloc[0], doc_json)
    return out


def test_canonicalize_plans_match_driver_reference(ray_session, corpus_dir):
    path, spec = corpus_dir
    docs = extract_docs(read_documents(path), DEFAULT_CONFIG).materialize()

    def snapshot(ds):
        rows = ds.to_pandas()
        assert rows["canon_key"].is_unique
        return {
            row["canon_key"]: (row["doc_id"], row["entity_class"], row["doc_json"])
            for _, row in rows.iterrows()
        }

    reference = _reference_canonical(docs)
    # the single-shuffle plan: one hash-partitioned merge
    unsalted = snapshot(canonicalize(docs, salted=False))
    assert unsalted == reference
    # the production pre-combine plan (batch-local combiner + one final
    # merge) is the same associative algebra — must agree bit-for-bit too
    precombined = snapshot(canonicalize(docs, precombine=True))
    assert precombined == reference
    # the benchmark's staged trace calls canonicalize with exactly these
    # kwargs: they must keep running the same production plan
    staged = snapshot(canonicalize(docs, n_salts=16, salted=True, precombine=True))
    assert staged == reference
    # the head GND key exists and merged more than one doc
    head_key = f"gnd:{spec.head_gnd}"
    assert head_key in reference
    assert len(json.loads(reference[head_key][2])["_merged_from"]) > 1


def test_canonicalize_emits_doc_schema_over_a_multi_file_checkpoint(
    ray_session, corpus_dir, tmp_path
):
    """Linked docs written as 12 files under two ``shard=K/`` dirs and read
    back like phase 2 reads its checkpoint: the reader adds a hive ``shard``
    column and spells ``gnd_ids`` ``list<element>``, the linker adds
    ``n_links_added``.  Every canonicalize output block must have exactly
    ``DOC_SCHEMA``, and the exchange must log no schema divergence."""
    import logging

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray as _ray

    from esmarc_ray.io import read_checkpoint
    from esmarc_ray.stages.extract import DOC_SCHEMA

    path, spec = corpus_dir
    linked = link_entities(
        extract_docs(read_documents(path), DEFAULT_CONFIG),
        _ray.put(build_link_indexes(link_tables(spec))),
    )
    table = pa.concat_tables(_ray.get(linked.to_arrow_refs()))
    files = []
    step = -(-table.num_rows // 12)
    for i in range(12):
        shard_dir = tmp_path / "docs" / f"shard={i % 2:05d}"
        shard_dir.mkdir(parents=True, exist_ok=True)
        files.append(str(shard_dir / f"part-{i:05d}.parquet"))
        pq.write_table(table.slice(i * step, step), files[-1])
    docs = read_checkpoint(sorted(files))
    assert {"shard", "n_links_added"} <= set(docs.schema().names)

    class SchemaWarnings(logging.Handler):
        def __init__(self):
            super().__init__()
            self.messages = []

        def emit(self, record):
            if "different schema" in record.getMessage():
                self.messages.append(record.getMessage())

    handler = SchemaWarnings()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        blocks = [_ray.get(ref) for ref in canonicalize(docs, precombine=True).to_arrow_refs()]
    finally:
        logger.removeHandler(handler)
    assert blocks
    assert all(block.schema == DOC_SCHEMA for block in blocks)
    assert not handler.messages, handler.messages[0]
    got = pa.concat_tables(blocks)
    assert sorted(got.column("canon_key").to_pylist()) == sorted(_reference_canonical(docs))


def test_merge_docs_associative():
    a = ("1", {"@id": "x/1", "preferredName": "A", "sameAs": [{"@id": "s1"}]})
    b = ("2", {"@id": "x/2", "preferredName": "B", "sameAs": [{"@id": "s2"}]})
    c = ("3", {"@id": "x/3", "about": [{"name": "t"}]})
    left = merge_docs([merge_docs([a, b]), c])
    right = merge_docs([a, merge_docs([b, c])])
    direct = merge_docs([a, b, c])
    assert left == right == direct
    assert direct[1]["_merged_from"] == ["1", "2", "3"]


def test_full_pipeline_and_resume(ray_session, corpus_dir, tmp_path):
    path, spec = corpus_dir
    out1 = tmp_path / "run1"
    manifest1 = run_kg_pipeline(
        path, str(out1), link_tables=link_tables(spec), num_shards=3
    )
    assert manifest1["triples"]["row_count"] > 0
    assert (out1 / "triples" / "shard=00000" / "_SUCCESS").exists()

    # kill one docs shard and resume: output must equal the clean run
    shard_dirs = sorted((out1 / "docs").glob("shard=*"))
    assert len(shard_dirs) == 3
    shutil.rmtree(shard_dirs[1])
    manifest2 = run_kg_pipeline(
        path, str(out1), link_tables=link_tables(spec), num_shards=3
    )
    statuses = {s["shard"]: s["status"] for s in manifest2["shards"]}
    assert statuses[0] == "skipped(resume)" and statuses[2] == "skipped(resume)"
    assert statuses[1] == "built"
    assert manifest2["triples"]["content_hash"] == manifest1["triples"]["content_hash"]
    assert manifest2["triples"]["row_count"] == manifest1["triples"]["row_count"]

    # partitioned layout by entity class
    classes = {p.name.split("=")[1] for p in (out1 / "triples" / "shard=00000").glob("entity_class=*")}
    assert "resources" in classes and "persons" in classes


# Engine-output snapshot of run_kg_pipeline over a fixed-seed default-mix
# corpus with link tables (all 7 entity classes): the mapping + link parity
# gate that runs without the reference checkout.  Recorded with the link
# stage still on an actor pool; any change to mapping, linking, merge,
# flatten or the manifest hash moves it.
PINNED_SPEC = CorpusSpec(n_docs=300, seed=2026)
PINNED_MANIFEST = {
    "row_count": 9445,
    "rows_per_class": {
        "events": 521, "geo": 636, "organizations": 512, "persons": 1267,
        "resources": 5605, "topics": 361, "works": 543,
    },
    "content_hash": 1161326049,
}


@pytest.fixture(scope="module")
def pinned_run(ray_session, tmp_path_factory):
    """One clean run over the pinned corpus: (run dir, link tables, manifest)."""
    path = tmp_path_factory.mktemp("pinned")
    write_corpus(str(path / "in"), PINNED_SPEC, rows_per_file=100)
    tables = link_tables(PINNED_SPEC)
    manifest = run_kg_pipeline(
        str(path / "in"), str(path / "out"), link_tables=tables, num_shards=2
    )
    return path, tables, manifest


def test_kg_manifest_pinned(pinned_run, monkeypatch):
    run_dir, tables, manifest = pinned_run
    got = {key: manifest["triples"][key] for key in PINNED_MANIFEST}
    assert got == PINNED_MANIFEST

    # a fully resumed run links nothing, so it must not build the indexes
    import esmarc_ray.pipelines.kg as kg

    def no_build(_tables):
        raise AssertionError("link indexes built for a fully resumed run")

    monkeypatch.setattr(kg, "build_link_indexes", no_build)
    resumed = run_kg_pipeline(
        str(run_dir / "in"), str(run_dir / "out"), link_tables=tables, num_shards=2
    )
    assert {s["status"] for s in resumed["shards"]} == {"skipped(resume)"}
    assert resumed["triples"]["content_hash"] == PINNED_MANIFEST["content_hash"]


def test_manifests_time_the_write_apart_from_the_execution(pinned_run):
    """A shard manifest's ``write_seconds`` is the sum of its files'
    ``pq.write_table`` times, and ``execution_seconds`` the wall span of the
    streaming execution the write drives — for the triple shard (canonicalize,
    flatten, sort and write) and for each docs shard (extract and link)."""
    run_dir, _, manifest = pinned_run
    docs_manifests = [
        json.loads(p.read_text())
        for p in sorted((run_dir / "out" / "docs").glob("shard=*/_manifest.json"))
    ]
    assert len(docs_manifests) == 2
    for shard in [manifest["triples"], *docs_manifests]:
        metrics = shard["metrics"]
        assert 0 <= metrics["write_seconds"] < metrics["execution_seconds"], metrics


def test_resume_over_snappy_docs_checkpoint(pinned_run, tmp_path):
    """A docs checkpoint written with parquet's default snappy codec, as
    before the pipeline wrote zstd, still resumes to the pinned manifest.
    Only shard 0 is rewritten, so the resumed read also mixes codecs."""
    import pyarrow.parquet as pq

    run_dir, tables, _ = pinned_run
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out" / "docs", out / "docs")  # no triples/
    rewritten = sorted((out / "docs" / "shard=00000").glob("*.parquet"))
    assert rewritten
    for path in rewritten:
        pq.write_table(pq.ParquetFile(path).read(), path, compression="snappy")
        assert pq.ParquetFile(path).metadata.row_group(0).column(0).compression == "SNAPPY"

    resumed = run_kg_pipeline(
        str(run_dir / "in"), str(out), link_tables=tables, num_shards=2
    )
    assert {s["status"] for s in resumed["shards"]} == {"skipped(resume)"}
    got = {key: resumed["triples"][key] for key in PINNED_MANIFEST}
    assert got == PINNED_MANIFEST


def _docs_rows(docs_dir) -> int:
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(p).metadata.num_rows for p in docs_dir.glob("shard=*/*.parquet")
    )


def test_resume_rebuilds_partial_docs_shard_without_orphans(pinned_run, tmp_path):
    """A phase-1 shard that crashed after writing a file but before its
    ``_SUCCESS`` marker is rebuilt on resume from an empty directory: the
    orphan file must not survive next to the rebuilt copy, where phase 2
    would read its docs twice."""
    run_dir, tables, _ = pinned_run
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out" / "docs", out / "docs")  # no triples/
    clean_rows = _docs_rows(out / "docs")
    shard = out / "docs" / "shard=00001"
    completed = sorted(shard.glob("*.parquet"))
    assert completed
    shutil.copy(completed[0], shard / "orphan-from-crashed-attempt.parquet")
    (shard / "_SUCCESS").unlink()

    resumed = run_kg_pipeline(
        str(run_dir / "in"), str(out), link_tables=tables, num_shards=2
    )
    assert [s["status"] for s in resumed["shards"]] == ["skipped(resume)", "built"]
    assert _docs_rows(out / "docs") == clean_rows
    got = {key: resumed["triples"][key] for key in PINNED_MANIFEST}
    assert got == PINNED_MANIFEST


def test_docs_checkpoint_records_real_row_counts(pinned_run):
    """Each docs shard's manifest and _SUCCESS marker hold the row count of
    the files written under it, summed from their parquet footers."""
    import pyarrow.parquet as pq

    from esmarc_ray.stages.materialize import shard_is_complete

    run_dir, _, _ = pinned_run
    shards = sorted((run_dir / "out" / "docs").glob("shard=*"))
    assert len(shards) == 2
    for shard in shards:
        footer_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in shard.glob("*.parquet"))
        assert footer_rows > 0
        assert json.loads((shard / "_manifest.json").read_text())["row_count"] == footer_rows
        assert json.loads((shard / "_SUCCESS").read_text()) == {"rows": footer_rows}
        assert shard_is_complete(shard)
    assert sum(
        json.loads((shard / "_SUCCESS").read_text())["rows"] for shard in shards
    ) == PINNED_SPEC.n_docs


def _docs_class_counts(docs_dir: pathlib.Path) -> dict[str, int]:
    import pyarrow.parquet as pq

    counts: dict[str, int] = {}
    for path in sorted(docs_dir.glob("shard=*/*.parquet")):
        for cls in pq.read_table(path, columns=["entity_class"]).column(0).to_pylist():
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def _assert_dead_letters(in_dir, out, tables, manifest, num_shards) -> dict:
    """The run manifest's dead-letter counts equal the ``_error`` and
    ``_dropped`` rows in ``docs/``, on the given run and on a fully resumed
    rerun into a copy of its docs checkpoint."""
    counts = _docs_class_counts(out / "docs")
    expected = {"_error": counts.get("_error", 0), "_dropped": counts.get("_dropped", 0)}
    assert manifest["dead_letters"] == expected

    rerun = out.parent / "resumed"
    shutil.copytree(out / "docs", rerun / "docs")
    resumed = run_kg_pipeline(
        str(in_dir), str(rerun), link_tables=tables, num_shards=num_shards
    )
    assert {s["status"] for s in resumed["shards"]} == {"skipped(resume)"}
    assert resumed["dead_letters"] == expected
    written = json.loads((rerun / "_run_manifest.json").read_text())
    assert written["dead_letters"] == expected
    return expected


def test_run_manifest_counts_dead_letters(pinned_run, tmp_path):
    """The pinned corpus maps every record: zero dead letters, counted."""
    run_dir, tables, manifest = pinned_run
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out" / "docs", out / "docs")
    expected = _assert_dead_letters(run_dir / "in", out, tables, manifest, 2)
    assert expected == {"_error": 0, "_dropped": 0}


def test_dead_letters_stop_at_the_docs_checkpoint(ray_session, tmp_path):
    """One record with an unknown 079$b (dropped) and one authority record
    without 079 (mapping raises) next to clean records: both are counted in
    the run manifest and neither reaches the triples."""
    import copy

    import pyarrow.parquet as pq

    from esmarc_ray.codec import records_to_table
    from esmarc_ray.corpus import make_record

    records = [make_record(i, PINNED_SPEC) for i in range(13)]
    dropped = copy.deepcopy(records[6][1])  # an authority record
    dropped["079"] = [{"__": [{"a": "g"}, {"b": "zz"}]}]
    failing = copy.deepcopy(records[7][1])
    del failing["079"]
    records += [("dead-dropped", dropped), ("dead-error", failing)]
    (tmp_path / "in").mkdir()
    pq.write_table(records_to_table(records), tmp_path / "in" / "part-00000.parquet")

    tables = link_tables(PINNED_SPEC)
    out = tmp_path / "out"
    manifest = run_kg_pipeline(
        str(tmp_path / "in"), str(out), link_tables=tables, num_shards=1
    )
    expected = _assert_dead_letters(tmp_path / "in", out, tables, manifest, 1)
    assert expected == {"_error": 1, "_dropped": 1}
    assert not set(manifest["triples"]["rows_per_class"]) & set(expected)


def test_kg_files_follow_the_encoding_policy(pinned_run):
    """Footer-level pins on a pipeline run's triple and docs files: every
    column chunk is zstd, the JSON/text columns ``obj`` and ``doc_json``
    carry no dictionary page, statistics exist on ``subj``/``pred`` and on
    no other column, and no file reads back with schema metadata (Ray's
    schema unification cannot hash a schema that carries any)."""
    import pyarrow.parquet as pq

    run_dir, _, _ = pinned_run
    triple_files = sorted((run_dir / "out" / "triples").rglob("*.parquet"))
    doc_files = sorted((run_dir / "out" / "docs").rglob("*.parquet"))
    assert triple_files and doc_files
    seen = set()
    for path in triple_files + doc_files:
        meta = pq.read_metadata(path)
        for g in range(meta.num_row_groups):
            for c in range(meta.row_group(g).num_columns):
                chunk = meta.row_group(g).column(c)
                name = chunk.path_in_schema
                seen.add(name)
                assert chunk.compression == "ZSTD", (path, name)
                if name in ("obj", "doc_json"):
                    assert not chunk.has_dictionary_page, (path, name)
                else:
                    assert chunk.has_dictionary_page, (path, name)
                assert chunk.is_stats_set == (name in ("subj", "pred")), (path, name)
        assert pq.read_table(path).schema.metadata is None, path
    assert {"subj", "pred", "obj", "doc_json", "gnd_ids.list.element"} <= seen


def test_docs_manifest_matches_its_files(pinned_run):
    """A docs shard's manifest carries ``rows_per_class`` and a content hash
    over every doc column, both equal to a recomputation from its files."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from esmarc_ray.stages.materialize import DOCS, _xor_crc

    run_dir, _, _ = pinned_run
    for shard in sorted((run_dir / "out" / "docs").glob("shard=*")):
        manifest = json.loads((shard / "_manifest.json").read_text())
        table = pq.read_table(shard, partitioning=None)
        counts = pc.value_counts(table.column("entity_class"))
        assert manifest["rows_per_class"] == dict(
            zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist())
        )
        assert manifest["content_hash"] == _xor_crc(table, DOCS.hash_cols)
        assert manifest["row_count"] == table.num_rows


def test_parquet_bytes_tool_on_pinned_triples(pinned_run, capsys):
    """``tools/parquet_bytes.py`` accounts for every byte of the pinned
    run's triple files and reports their codec, encodings and row groups."""
    import pyarrow.parquet as pq

    from tools.parquet_bytes import column_bytes, main

    run_dir, _, manifest = pinned_run
    triples = run_dir / "out" / "triples"
    tree = column_bytes(triples)
    assert tree["rows"] == manifest["triples"]["row_count"]
    assert tree["bytes"] == sum(p.stat().st_size for p in triples.rglob("*.parquet"))
    footers = [pq.read_metadata(p) for p in triples.rglob("*.parquet")]
    group_rows = [m.row_group(g).num_rows for m in footers for g in range(m.num_row_groups)]
    assert tree["row_groups"] == len(group_rows) >= tree["files"]
    assert tree["group_rows"] == (min(group_rows), max(group_rows))
    columns = tree["columns"]
    assert set(columns) == {"subj", "pred", "obj", "obj_kind", "doc_id"}
    assert 0 < sum(c["bytes"] for c in columns.values()) < tree["bytes"]
    assert all(c["codecs"] == ["ZSTD"] for c in columns.values())
    assert not columns["obj"]["dictionary"] and columns["subj"]["dictionary"]
    assert columns["pred"]["statistics"] and not columns["obj"]["statistics"]

    assert main([str(triples)]) == 0
    out = capsys.readouterr().out
    assert f"{tree['rows']:,} rows, {tree['row_groups']:,} row groups" in out
    assert "obj " in out and "(total)" in out


@pytest.mark.parametrize("damage", ["lost_file", "stray_duplicate", "legacy_marker"])
def test_resume_rebuilds_docs_shard_whose_files_changed(pinned_run, tmp_path, damage):
    """A completed docs shard that lost a file, or gained a stray copy of
    one, no longer matches its recorded row count: resume rebuilds it and
    reproduces the pinned manifest.  A marker written before docs shards
    carried row counts (``-1``) is rebuilt too."""
    run_dir, tables, _ = pinned_run
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out" / "docs", out / "docs")  # no triples/
    clean_rows = _docs_rows(out / "docs")
    shard = out / "docs" / "shard=00001"
    files = sorted(shard.glob("*.parquet"))
    assert files
    if damage == "lost_file":
        files[0].unlink()
    elif damage == "stray_duplicate":
        shutil.copy(files[0], shard / "stray-copy.parquet")
    else:
        (shard / "_manifest.json").write_text(json.dumps({"inputs": [], "row_count": -1}))
        (shard / "_SUCCESS").write_text(json.dumps({"rows": -1}))
    assert _docs_rows(out / "docs") != clean_rows or damage == "legacy_marker"

    resumed = run_kg_pipeline(
        str(run_dir / "in"), str(out), link_tables=tables, num_shards=2
    )
    assert [s["status"] for s in resumed["shards"]] == ["skipped(resume)", "built"]
    assert _docs_rows(out / "docs") == clean_rows
    got = {key: resumed["triples"][key] for key in PINNED_MANIFEST}
    assert got == PINNED_MANIFEST


def test_phase2_is_invariant_to_checkpoint_block_granularity(pinned_run, tmp_path):
    """Phase 2 over the pinned docs checkpoint read four ways — one block per
    file (the pipeline's read), Ray's default split, 8 blocks per file, and
    the whole checkpoint as one file — gives the pinned manifest every time.
    The block count sets the batch-local pre-combine's merge tree, so this
    is the plan-invariance claim for the checkpoint read.  (These files are
    below Ray's 1-MiB minimum block size, so here the default split keeps
    one block per file; the 8-per-file and single-file reads differ.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from esmarc_ray.io import read_checkpoint
    from esmarc_ray.stages.materialize import materialize_shard

    run_dir, _, _ = pinned_run
    files = sorted(str(p) for p in (run_dir / "out" / "docs").glob("shard=*/*.parquet"))
    assert len(files) > 1
    single = tmp_path / "all-docs.parquet"
    pq.write_table(pa.concat_tables([pq.read_table(f) for f in files]), single)
    reads = {
        "one_block_per_file": read_checkpoint(files),
        "ray_default_split": ray.data.read_parquet(files),
        "8_blocks_per_file": ray.data.read_parquet(files, override_num_blocks=8 * len(files)),
        "single_file": read_checkpoint([str(single)]),
    }
    assert reads["one_block_per_file"].materialize().num_blocks() == len(files)
    assert reads["8_blocks_per_file"].materialize().num_blocks() == 8 * len(files)

    for name, docs in reads.items():
        triples = docs_to_triples(canonicalize(docs, precombine=True))
        manifest = materialize_shard(triples, tmp_path / name / "shard=00000")
        got = {key: manifest[key] for key in ("row_count", "content_hash")}
        assert got == {
            "row_count": PINNED_MANIFEST["row_count"],
            "content_hash": PINNED_MANIFEST["content_hash"],
        }, name


def test_phase1_is_invariant_to_span_row_groups(pinned_run, tmp_path):
    """Phase 1 reads its spans one block per parquet row group, so the
    span file's row-group size sets phase 1's block count, the phase-1
    twin of the checkpoint read above.  The pinned corpus as one file of
    16-row groups (19 blocks) and of one 300-row group (one block) gives
    the pinned manifest both times."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    run_dir, tables, _ = pinned_run
    spans = pa.concat_tables(
        [pq.read_table(f) for f in sorted((run_dir / "in").glob("*.parquet"))]
    )
    assert spans.num_rows == PINNED_SPEC.n_docs
    for row_group_size, blocks in ((16, 19), (PINNED_SPEC.n_docs, 1)):
        corpus = tmp_path / f"in{row_group_size}"
        corpus.mkdir()
        pq.write_table(spans, corpus / "part-00000.parquet", row_group_size=row_group_size)
        assert read_documents(str(corpus)).materialize().num_blocks() == blocks
        manifest = run_kg_pipeline(
            str(corpus), str(tmp_path / f"out{row_group_size}"), link_tables=tables,
            num_shards=2,
        )
        got = {key: manifest["triples"][key] for key in ("row_count", "content_hash")}
        assert got == {
            "row_count": PINNED_MANIFEST["row_count"],
            "content_hash": PINNED_MANIFEST["content_hash"],
        }, row_group_size


# Runs run_kg_pipeline with the DEFAULT link_concurrency in a fresh Ray
# session of argv[3] CPUs and prints the manifest's row count and hash.
_FRESH_SESSION_RUN = """
import json, sys
import ray
from esmarc_ray.corpus import CorpusSpec, link_tables
from esmarc_ray.pipelines.kg import run_kg_pipeline

ray.init(address="local", num_cpus=int(sys.argv[3]), include_dashboard=False,
         logging_level="error", log_to_driver=False)
m = run_kg_pipeline(sys.argv[1], sys.argv[2], num_shards=2,
                    link_tables=link_tables(CorpusSpec(n_docs=200, seed=11)))
print(json.dumps([m["triples"]["row_count"], m["triples"]["content_hash"]]))
ray.shutdown()
"""


@pytest.fixture(scope="module")
def hang_corpus(ray_session, tmp_path_factory):
    """~200-doc corpus plus its manifest from a link_concurrency=1 run."""
    path = tmp_path_factory.mktemp("hang_corpus")
    spec = CorpusSpec(n_docs=200, seed=11)
    write_corpus(str(path / "in"), spec, rows_per_file=100)
    m = run_kg_pipeline(
        str(path / "in"), str(path / "out"), link_tables=link_tables(spec),
        num_shards=2, link_concurrency=1,
    )
    return path, [m["triples"]["row_count"], m["triples"]["content_hash"]]


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_default_link_concurrency_does_not_hang(hang_corpus, num_cpus):
    """Regression: with the link stage on an actor pool, the default
    link_concurrency deadlocked at num_cpus=1 (the pool took the only CPU)
    and hung at 2 CPUs.  Each run gets its own session and a hard timeout."""
    import os
    import signal
    import subprocess
    import sys

    path, expected = hang_corpus
    repo = str(pathlib.Path(__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": repo}
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _FRESH_SESSION_RUN, str(path / "in"),
         str(path / f"out-{num_cpus}cpu"), str(num_cpus)],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"run_kg_pipeline hung at num_cpus={num_cpus}")
    assert proc.returncode == 0, err[-2000:]
    assert json.loads(out.strip().splitlines()[-1]) == expected


def _physical_ops(ds) -> list[tuple[str, str]]:
    """(operator class, name) of ``ds``'s physical plan, last operator first."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    op = get_execution_plan(ds._logical_plan).dag
    ops = []
    while op is not None:
        ops.append((type(op).__name__, op.name))
        op = op.input_dependencies[0] if op.input_dependencies else None
    return ops


def test_link_stage_is_one_fused_task_map(ray_session, corpus_dir):
    """No actor pool and no batch size: over one-group span files the read,
    extract and link maps fuse into one task operator, and a link
    concurrency cap keeps link its own operator behind the fused read and
    extract; the retired (min, max) pool sizing fails loudly."""
    import ray as _ray

    path, spec = corpus_dir
    indexes_ref = _ray.put(build_link_indexes(link_tables(spec)))
    docs = extract_docs(read_documents(path), DEFAULT_CONFIG)
    ops = _physical_ops(link_entities(docs, indexes_ref))
    assert ops[:2] == [
        ("TaskPoolMapOperator", "ReadParquet->MapBatches(extract)->MapBatches(_link_batch)"),
        ("InputDataBuffer", "Input"),
    ]
    assert not any(kind == "ActorPoolMapOperator" for kind, _ in ops)
    assert _physical_ops(link_entities(docs, indexes_ref, concurrency=1))[:3] == [
        ("TaskPoolMapOperator", "MapBatches(_link_batch)"),
        ("TaskPoolMapOperator", "ReadParquet->MapBatches(extract)"),
        ("InputDataBuffer", "Input"),
    ]
    with pytest.raises(TypeError, match="concurrency"):
        link_entities(docs, indexes_ref, concurrency=(2, 8))


def test_link_batch_caches_one_linker_per_key(ray_session):
    """_link_batch builds one EntityLinker per index object and keeps only
    the latest."""
    import ray as _ray

    from esmarc_ray.stages import link

    indexes = _linker_indexes(wd_rows=[], wp_rows=[])
    ref_a, ref_b = _ray.put(indexes), _ray.put(indexes)
    raw = json.dumps({"@id": "http://example.org/c1", "preferredName": "C"}, sort_keys=True)
    batch = _linker_batch([("c1", raw, [])])

    def linker_after(ref):
        link._link_batch(batch, indexes_ref=ref)
        return link._CACHED_LINKER[1]

    first = linker_after(ref_a)
    assert linker_after(ref_a) is first
    second = linker_after(ref_b)
    assert second is not first
    assert link._CACHED_LINKER[0] == ref_b.binary()
    assert linker_after(ref_b) is second
    assert linker_after(ref_a) is not second
    out = link._link_batch(batch, indexes_ref=ref_b)
    assert out.column("doc_json")[0].as_py() == raw


def test_jsonld_sink_rerun_does_not_accumulate(ray_session, corpus_dir, tmp_path):
    """Re-running the pipeline with -jsonld into the same prefix must wipe
    the jsonld sink first (LDJ file names are unique per run; a resumed run
    would otherwise double every stream)."""
    path, spec = corpus_dir
    out = tmp_path / "run"
    m1 = run_kg_pipeline(
        path, str(out), link_tables=link_tables(spec), num_shards=2,
        jsonld=True,
    )
    m2 = run_kg_pipeline(
        path, str(out), link_tables=link_tables(spec), num_shards=2,
        jsonld=True,
    )
    assert m2["jsonld"]["n_docs"] == m1["jsonld"]["n_docs"]
    n_lines = sum(
        len(f.read_text().splitlines()) for f in (out / "jsonld").glob("*/*.ldj")
    )
    assert n_lines == m2["jsonld"]["n_docs"]


def test_canonical_checkpoint_has_a_manifest(ray_session, corpus_dir, tmp_path):
    """Under ``jsonld=True`` the ``canonical/`` checkpoint is written like a
    docs shard: manifest and marker hold its footer row count, which the run
    manifest reports and which equals the docs the JSON-LD sink wrote."""
    import pyarrow.parquet as pq

    from esmarc_ray.stages.materialize import shard_is_complete

    path, spec = corpus_dir
    out = tmp_path / "run"
    manifest = run_kg_pipeline(
        path, str(out), link_tables=link_tables(spec), num_shards=2, jsonld=True
    )
    canon = out / "canonical"
    footer_rows = sum(pq.read_metadata(p).num_rows for p in canon.glob("*.parquet"))
    assert footer_rows > 0
    assert manifest["canonical"]["row_count"] == footer_rows
    assert manifest["canonical"]["row_count"] == manifest["jsonld"]["n_docs"]
    assert json.loads((canon / "_manifest.json").read_text())["row_count"] == footer_rows
    assert shard_is_complete(canon)


def test_extract_prune_equivalence(ray_session, corpus_dir):
    """Mapping-derived span pruning must not change any extracted doc."""
    path, spec = corpus_dir
    pruned = extract_docs(read_documents(path), DEFAULT_CONFIG, prune=True).to_pandas()
    full = extract_docs(read_documents(path), DEFAULT_CONFIG, prune=False).to_pandas()
    key = ["doc_id", "entity_class"]
    pruned = pruned.sort_values(key).reset_index(drop=True)
    full = full.sort_values(key).reset_index(drop=True)
    assert (pruned["doc_json"] == full["doc_json"]).all()


def test_extract_decodes_a_large_block_in_slices(ray_session, tmp_path):
    """Extract takes whole blocks and decodes them in 512-row slices: 1,100
    docs read as one block give the same docs as read in 100-row groups."""
    import pyarrow.parquet as pq

    write_corpus(str(tmp_path / "one"), CorpusSpec(n_docs=1100, seed=42), rows_per_file=1100)
    spans = pq.read_table(tmp_path / "one")
    (tmp_path / "groups").mkdir()
    pq.write_table(spans, tmp_path / "groups" / "part-00000.parquet", row_group_size=100)
    key = ["doc_id", "entity_class", "canon_key"]
    got = {}
    for name, blocks in (("one", 1), ("groups", 11)):
        read = read_documents(str(tmp_path / name))
        assert read.materialize().num_blocks() == blocks
        docs = extract_docs(read, DEFAULT_CONFIG).to_pandas()
        got[name] = docs.sort_values(key).reset_index(drop=True)
    assert got["one"]["doc_id"].nunique() == 1100
    assert got["one"].equals(got["groups"])


def test_idfile_read(ray_session, corpus_dir):
    """The CLI's ``-idfile`` restriction: a ``("doc_id", "in", ids)``
    query conjunct (``cli.restrict_to_ids``) reads exactly those ids."""
    from esmarc_ray.cli import restrict_to_ids

    path, spec = corpus_dir
    all_ids = read_documents(path).to_pandas()["doc_id"].tolist()
    wanted = sorted(all_ids)[:5]
    subset = read_documents(path, query=restrict_to_ids(None, wanted)).to_pandas()
    assert sorted(subset["doc_id"]) == wanted


def test_query_prefilter_pushdown(ray_session, corpus_dir):
    """-query DNF prefilter: correct subset AND scan-level pushdown — the
    read operator alone emits the filtered row count (no downstream Filter
    stage materializes the unfiltered table)."""
    from esmarc_ray.io import compile_query_filter

    path, spec = corpus_dir
    all_ids = sorted(read_documents(path).to_pandas()["doc_id"])
    lo, hi = all_ids[3], all_ids[12]

    ds = read_documents(path, query=[["doc_id", ">=", lo], ["doc_id", "<", hi]])
    got = sorted(ds.to_pandas()["doc_id"])
    assert got == [i for i in all_ids if lo <= i < hi]
    # pushdown evidence: the plan is a bare read — the predicate ran inside
    # the parquet scanner (where row-group statistics prune), not as a
    # post-read Ray Filter operator over the full table
    stats = ds.stats()
    assert "Filter" not in stats
    assert f"{len(got)} rows output" in stats or len(got) == ds.count()

    # disjunction-of-conjunctions + `in` compile too
    expr = compile_query_filter(
        [[["doc_id", "==", lo]], [["doc_id", "in", [hi]]]]
    )
    two = read_documents(path, filter=expr).to_pandas()
    assert sorted(two["doc_id"]) == sorted([lo, hi])

    # an id list ANDs with a query (reference: query + IDFile compose), as
    # the CLI folds -idfile into -query
    from esmarc_ray.cli import restrict_to_ids

    both = read_documents(
        path, query=restrict_to_ids([["doc_id", ">", lo]], [lo, hi])
    ).to_pandas()
    assert both["doc_id"].tolist() == [hi]


def test_triple_pr_scorer(ray_session, corpus_dir):
    import pandas as pd
    import ray as _ray

    from esmarc_ray.ops.scoring import triple_pr

    path, spec = corpus_dir
    triples = docs_to_triples(extract_docs(read_documents(path), DEFAULT_CONFIG))
    ours_df = triples.to_pandas()

    # identical sides → P/R 1.0 everywhere
    pr = triple_pr(
        _ray.data.from_pandas(ours_df), _ray.data.from_pandas(ours_df.copy())
    )
    assert (pr["precision"] == 1.0).all() and (pr["recall"] == 1.0).all()

    # drop some reference rows of one predicate → our precision dips there only
    target = "preferredName"
    ref_df = ours_df[~((ours_df["pred"] == target) & (ours_df.index % 2 == 0))]
    pr2 = triple_pr(_ray.data.from_pandas(ours_df), _ray.data.from_pandas(ref_df))
    row = pr2[pr2["pred"] == target].iloc[0]
    assert row["precision"] < 1.0 and row["fp"] > 0
    others = pr2[pr2["pred"] != target]
    assert (others["precision"] == 1.0).all()


def test_canonicalize_sameas_closure(ray_session):
    """A–B share GND X, B–C share GND Y: closure merges all three; the plain
    key merge keeps C separate."""
    import pandas as pd
    import pyarrow as pa
    import ray as _ray

    from esmarc_ray.stages.extract import DOC_SCHEMA

    def doc_row(doc_id, key, gnds):
        return {
            "doc_id": doc_id, "entity_class": "topics", "canon_key": key,
            "doc_json": json.dumps({"@id": f"x/{doc_id}", "preferredName": doc_id}),
            "gnd_ids": gnds, "error": "",
        }

    rows = [
        doc_row("a1", "gnd:X", ["X"]),
        doc_row("b2", "gnd:X", ["X", "Y"]),
        doc_row("c3", "gnd:Y", ["Y"]),
        doc_row("d4", "isil:DE-627:99", []),  # no identifiers: untouched
    ]
    table = pa.Table.from_pylist(rows, schema=DOC_SCHEMA)
    docs = _ray.data.from_arrow(table)

    from esmarc_ray.stages.canonicalize import canonicalize

    plain = canonicalize(docs, salted=False, num_partitions=8).to_pandas()
    assert len(plain) == 3  # gnd:X merged, gnd:Y separate, isil separate

    closed = canonicalize(docs, salted=False, num_partitions=8, closure=True).to_pandas()
    assert len(closed) == 2
    merged = closed[closed["canon_key"] == "gnd:X"].iloc[0]
    assert json.loads(merged["doc_json"])["_merged_from"] == ["a1", "b2", "c3"]
    assert "isil:DE-627:99" in set(closed["canon_key"])

    # the closure map is connected_components' own labelling, restricted to
    # the key nodes: every key sorts before every xid: identifier node, so
    # each component's label is its min canon_key
    from esmarc_ray.ops.graph import connected_components
    from esmarc_ray.stages.canonicalize import closure_keys

    mapping = (
        closure_keys(docs, num_partitions=4).to_pandas()
        .sort_values("canon_key").reset_index(drop=True)
    )
    edges = pd.DataFrame(
        [(r["canon_key"], f"xid:gnd:{g}") for r in rows for g in r["gnd_ids"]],
        columns=["u", "v"],
    )
    labels = connected_components(_ray.data.from_pandas(edges), num_partitions=4).to_pandas()
    labels = labels[~labels["node"].str.startswith("xid:")]
    expected = (
        labels.rename(columns={"node": "canon_key", "component": "canon_root"})
        .sort_values("canon_key").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mapping, expected)
    assert dict(zip(mapping["canon_key"], mapping["canon_root"])) == {
        "gnd:X": "gnd:X", "gnd:Y": "gnd:X",
    }


def test_link_stage_wikipedia_categories(ray_session, corpus_dir):
    """The 6th enrichment bot: wikipedia sameAs links gain per-language
    category nodes (reference enrichment/wikipedia_categories.py:21-82)."""
    path, spec = corpus_dir
    import ray as _ray

    indexes_ref = _ray.put(build_link_indexes(link_tables(spec)))
    docs = extract_docs(read_documents(path), DEFAULT_CONFIG)
    linked = link_entities(docs, indexes_ref)
    rows = linked.to_pandas()
    cats = []
    for doc_json in rows["doc_json"]:
        if not doc_json:
            continue
        doc = json.loads(doc_json)
        if "category" in doc:
            cats.append(doc["category"])
    assert cats, "no document gained wikipedia categories"
    sample = cats[0]
    cc, value = next(iter(sample.items()))
    node = value[0] if isinstance(value, list) else value
    assert node["sameAs"].startswith(f"https://{cc}.wikipedia.org/wiki/")
    assert "curid=" in node["@id"]
    assert ":" not in node["name"] or not node["name"].startswith(("Category", "Kategorie"))


def _linker_indexes(wd_rows, wp_rows):
    import pyarrow as pa

    from esmarc_ray.stages.link import build_link_indexes

    empty = {
        "ef_links": pa.table({"gnd_id": pa.array([], pa.string()), "links": pa.array([], pa.list_(pa.struct([("id", pa.string()), ("abbr", pa.string()), ("name", pa.string())])))}),
        "gnd_subjects": pa.table({"gnd_id": pa.array([], pa.string()), "subject_category": pa.array([], pa.list_(pa.string())), "field_of_study": pa.array([], pa.list_(pa.string())), "ddc3": pa.array([], pa.list_(pa.string()))}),
        "geonames": pa.table({"geoname_id": pa.array([], pa.int64()), "name": pa.array([], pa.string()), "alternate_names": pa.array([], pa.list_(pa.string())), "lat": pa.array([], pa.float64()), "lon": pa.array([], pa.float64())}),
    }
    import pyarrow as _pa

    tables = dict(empty)
    tables["wd_xref"] = _pa.Table.from_pylist(wd_rows)
    tables["wp_sites"] = _pa.Table.from_pylist(wp_rows)
    return build_link_indexes(tables)


def _linker_batch(rows):
    import pyarrow as pa

    return pa.table(
        {
            "doc_id": [r[0] for r in rows],
            "entity_class": ["persons"] * len(rows),
            "canon_key": [f"k{i}" for i in range(len(rows))],
            "doc_json": [r[1] for r in rows],
            "gnd_ids": pa.array([r[2] for r in rows], pa.list_(pa.string())),
            "error": [""] * len(rows),
        }
    )


def test_linker_viaf_only_doc_links():
    """A doc identified ONLY by VIAF (no GND) must still resolve its QID —
    reference enrichment/wikidata.py:10-30 matches 10 ext-id prefixes."""
    from esmarc_ray.stages.link import EntityLinker

    indexes = _linker_indexes(
        wd_rows=[{"ext_uri_prefix": "http://viaf.org", "ext_value": "4242", "qid": "Q77"}],
        wp_rows=[{"qid": "Q77", "site": "de", "url": "https://de.wikipedia.org/wiki/Neu", "title": "Neu"}],
    )
    doc = {
        "@id": "http://example.org/p1",
        "sameAs": [
            {
                "@id": "http://viaf.org/viaf/4242",
                "publisher": {"abbr": "VIAF"},
                "isBasedOn": {"@type": "Dataset", "@id": "http://example.org/src"},
            }
        ],
    }
    batch = _linker_batch([("p1", json.dumps(doc, sort_keys=True), [])])
    out = EntityLinker(indexes)(batch)
    assert out.column("n_links_added")[0].as_py() > 0
    enriched = json.loads(out.column("doc_json")[0].as_py())
    ids = [l["@id"] for l in enriched["sameAs"]]
    assert "http://www.wikidata.org/entity/Q77" in ids
    assert "https://de.wikipedia.org/wiki/Neu" in ids
    assert enriched["name"]["de"] == "Neu"


def test_linker_replaces_obsolete_wikipedia_link():
    """A stale wikipedia link whose isBasedOn host is obsolete
    (hub.culturegraph.org) is REPLACED in place, not duplicated —
    reference enrichment/wikipedia.py:25,144-146."""
    from esmarc_ray.stages.link import EntityLinker

    indexes = _linker_indexes(
        wd_rows=[{"ext_uri_prefix": "https://d-nb.info/gnd/", "ext_value": "118", "qid": "Q9"}],
        wp_rows=[{"qid": "Q9", "site": "de", "url": "https://de.wikipedia.org/wiki/Frisch", "title": "Frisch"}],
    )
    doc = {
        "@id": "http://example.org/p2",
        "sameAs": [
            {
                "@id": "https://de.wikipedia.org/wiki/Veraltet",
                "publisher": {"abbr": "WP-de", "preferredName": "Wikipedia"},
                "isBasedOn": {"@type": "Dataset", "@id": "https://hub.culturegraph.org/resource/X"},
            }
        ],
    }
    batch = _linker_batch([("p2", json.dumps(doc, sort_keys=True), ["118"])])
    out = EntityLinker(indexes)(batch)
    enriched = json.loads(out.column("doc_json")[0].as_py())
    wp_links = [l for l in enriched["sameAs"] if "de.wikipedia.org" in l["@id"]]
    assert len(wp_links) == 1, "obsolete link must be replaced, not duplicated"
    assert wp_links[0]["@id"] == "https://de.wikipedia.org/wiki/Frisch"


def test_linker_passthrough_keeps_original_serialization():
    """Unenrichable docs skip the JSON round-trip: the output string is the
    SAME OBJECT as the input (candidate gate + no-change fast path)."""
    from esmarc_ray.stages.link import EntityLinker

    indexes = _linker_indexes(wd_rows=[], wp_rows=[])
    raw = json.dumps({"@id": "http://example.org/p3", "preferredName": "X"}, sort_keys=True)
    batch = _linker_batch([("p3", raw, [])])
    out = EntityLinker(indexes)(batch)
    assert out.column("n_links_added")[0].as_py() == 0
    assert out.column("doc_json")[0].as_py() == raw


def test_curate_documents_reasons_and_dedup(ray_session):
    """Full curation pipeline: gate reasons partition the corpus exactly,
    exact + near dups drop, clean docs survive."""
    import pandas as pd
    import ray.data

    from esmarc_ray.pipelines.curate import curate_documents

    base = (
        "the quick brown fox jumps over the lazy dog and then it runs far "
        "away to the old wooden house near the river where animals live"
    )
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},  # exact dup
        {"doc_id": 3, "text": base.replace("river", "creek")},  # near dup
        {"doc_id": 4, "text": "short"},  # too_short
        {"doc_id": 5, "text": "!!! ??? *** " * 12},  # punct
        {"doc_id": 6, "text": "the benchmark question is what color is the "
                              "sky at noon today my friends"},  # contaminated
        {"doc_id": 7, "text": "a completely different clean document about "
                              "the weather and the ships that sail across "
                              "the wide sea when the wind is strong"},
    ]
    docs = ray.data.from_pandas(pd.DataFrame(rows)).repartition(3)
    kept, annotated, report = curate_documents(
        docs,
        benchmark_texts=[rows[5]["text"]],
        minhash_threshold=0.7,
    )
    ann = annotated.to_pandas().set_index("doc_id")["drop_reason"]
    assert ann[4] == "too_short" and ann[5] == "punct" and ann[6] == "contaminated"
    assert ann[1] == "" and ann[7] == ""
    assert report["n"].sum() == len(rows)  # reasons partition the corpus
    # gates pass docs 1,2,3,7 — dedup (which removes 2 and 3) runs AFTER the
    # report, so "kept" is an upper bound on the final row count
    assert int(report.loc[report["drop_reason"] == "kept", "n"].iloc[0]) == 4
    assert sorted(kept.to_pandas()["doc_id"]) == [1, 7]


def test_curate_documents_exact_variant_matches_sql(ray_session):
    """near_dedup='jaccard' end to end equals the recursive-CTE DuckDB
    formulation (gates + exact dedup + exact-Jaccard closure)."""
    import importlib.util

    import duckdb
    import ray.data

    spec = importlib.util.spec_from_file_location("entry", "/root/repo/__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    sf = "/root/testdata/sf0.001"
    got = mod.queries()["curated_exact_docs"](sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    exp = con.execute(mod.oracle_sql()["curated_exact_docs"]).df()
    assert len(got) > 0 and got.reset_index(drop=True).equals(exp)


def test_unionfind_drop_matches_chain_closure(ray_session):
    """Chain graph a-b-c-d: union-find keeps only the minimum of the chain —
    the same closure the recursive CTE computes (the long-diameter case that
    made round-based label propagation pathological)."""
    from esmarc_ray.ops.dedup import _unionfind_drop_ids

    drops = _unionfind_drop_ids([("b", "c"), ("a", "b"), ("c", "d"), ("x", "y")])
    assert drops == {"b", "c", "d", "y"}


def test_curate_documents_checkpoint_dir_reuse(ray_session, tmp_path):
    """A reused checkpoint dir is wiped first: parquet file names are unique
    per run, so stale files would double-count every row."""
    import pandas as pd
    import ray.data

    from esmarc_ray.pipelines.curate import curate_documents

    text = (
        "a completely different clean document about the weather and the "
        "ships that sail across the wide sea when the wind is strong"
    )
    docs = ray.data.from_pandas(
        pd.DataFrame([{"doc_id": 1, "text": text}, {"doc_id": 2, "text": "short"}])
    )
    ckpt = str(tmp_path / "ckpt")
    for _ in range(2):  # second run over the same dir must not double-count
        kept, annotated, report = curate_documents(docs, checkpoint_dir=ckpt)
        assert int(report["n"].sum()) == 2
        assert annotated.count() == 2


def test_er_pipeline_planted_duplicates(ray_session):
    """Blocked ER end-to-end: planted fuzzy duplicates cluster together
    (P == R == 1.0 on the planted truth), singletons stay alone."""
    import pandas as pd
    import ray.data

    from esmarc_ray.pipelines.er import resolve_entities

    rows = pd.DataFrame(
        {
            "id": [f"r{i}" for i in range(9)],
            "name": [
                "johann sebastian bach",
                "johann sebastien bach",      # typo dup of 0
                "johann sebastian bach jr",   # near dup of 0
                "wolfgang amadeus mozart",
                "wolfgang amadeus mozartt",   # typo dup of 3
                "ludwig van beethoven",
                "clara schumann",
                "robert schumann",            # NOT a dup of clara (JW < thr)
                "antonin dvorak",
            ],
        }
    )
    out = resolve_entities(
        ray.data.from_pandas(rows), id_col="id", text_col="name",
        t1=0.8, t2=0.9, jw_threshold=0.9, num_partitions=4,
    ).to_pandas()

    canon = dict(zip(out["id"], out["canon_id"]))
    assert canon["r0"] == canon["r1"] == canon["r2"]
    assert canon["r3"] == canon["r4"]
    assert canon["r0"] != canon["r3"]
    assert canon["r6"] != canon["r7"]
    # singletons resolve to themselves
    for rid in ["r5", "r6", "r7", "r8"]:
        assert canon[rid] == rid
    sizes = dict(zip(out["id"], out["cluster_size"]))
    assert sizes["r0"] == 3 and sizes["r3"] == 2 and sizes["r8"] == 1


def test_bucketed_materialize_resume(ray_session, corpus_dir, tmp_path):
    """Per-bucket resumable wide-phase sink: a clean 4-bucket build, one
    bucket destroyed, a resumed run must rebuild EXACTLY that bucket (the
    others skip via their markers) and reproduce every per-bucket content
    hash and row count bit-for-bit."""
    import json as _json
    import shutil

    from esmarc_ray.stages.extract import docs_to_triples
    from esmarc_ray.stages.materialize import materialize_buckets

    path, spec = corpus_dir

    def triples():
        return docs_to_triples(
            extract_docs(read_documents(path), DEFAULT_CONFIG)
        )

    out = tmp_path / "buckets"
    clean = materialize_buckets(
        triples(), out, num_buckets=4, resume=False, inputs=["t"]
    )
    assert sorted(clean["built"]) == [0, 1, 2, 3]
    clean_manifests = {
        k: (m["row_count"], m["content_hash"])
        for k, m in clean["buckets"].items()
    }
    total = sum(rc for rc, _ in clean_manifests.values())
    assert total > 0

    victim = next(k for k in range(4) if clean_manifests[str(k)][0] > 0)
    shutil.rmtree(out / f"bucket={victim}")
    resumed = materialize_buckets(
        triples(), out, num_buckets=4, resume=True, inputs=["t"]
    )
    assert resumed["built"] == [victim]
    assert sorted(resumed["skipped"]) == sorted(set(range(4)) - {victim})
    for k in range(4):
        m = _json.loads((out / f"bucket={k}" / "_manifest.json").read_text())
        assert (m["row_count"], m["content_hash"]) == clean_manifests[str(k)], k

    # read-back equals a fresh full build row-for-row (hive columns ride)
    import ray as _ray

    back = _ray.data.read_parquet(str(out)).count()
    assert back == total


def test_materialize_shard_keeps_null_partition_rows(ray_session, tmp_path):
    """Regression: a null partition-column value must not be silently
    dropped by the write-path sink (pc.equal(col, null) is all-null and
    filter() treats null as false) — it lands in the hive default
    partition and counts in the manifest."""
    import pandas as pd
    import ray.data

    from esmarc_ray.stages.materialize import materialize_shard

    triples = ray.data.from_pandas(pd.DataFrame({
        "entity_class": ["resources", None, "persons"],
        "subj": ["a", "b", "c"],
        "pred": ["p", "p", "p"],
        "obj": ["1", "2", "3"],
    }))
    manifest = materialize_shard(
        triples, tmp_path / "shard=00000", sort=True
    )
    assert manifest["row_count"] == 3
    assert sum(manifest["rows_per_class"].values()) == 3
    null_dir = (
        tmp_path / "shard=00000" / "entity_class=__HIVE_DEFAULT_PARTITION__"
    )
    assert any(null_dir.rglob("*.parquet"))
    back = ray.data.read_parquet(str(tmp_path / "shard=00000")).to_pandas()
    assert len(back) == 3 and set(back["subj"]) == {"a", "b", "c"}


def test_materialize_shard_writes_each_class_sorted(ray_session, tmp_path):
    """The sorted sink's contract: each ``entity_class=`` directory, its
    files read in file-name order, is sorted by ``(subj, pred)`` — from a
    shuffled input spread over 12 blocks."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from esmarc_ray.stages.materialize import materialize_shard

    rng = np.random.default_rng(7)
    n = 3000
    frame = pd.DataFrame({
        "entity_class": rng.choice(["persons", "resources", "works"], n),
        # numeric ids of mixed width, so string order != numeric order
        "subj": [f"https://example.org/{i}" for i in rng.integers(0, 700, n)],
        "pred": rng.choice(["name", "about", "sameAs", "@type"], n),
        "obj": [f"o{i}" for i in range(n)],
    }).sample(frac=1.0, random_state=11)
    triples = ray.data.from_pandas(np.array_split(frame, 12))
    assert triples.num_blocks() == 12

    shard = tmp_path / "shard=00000"
    manifest = materialize_shard(triples, shard, sort=True)
    assert manifest["row_count"] == n
    class_dirs = sorted(shard.glob("entity_class=*"))
    assert {d.name for d in class_dirs} == {
        "entity_class=persons", "entity_class=resources", "entity_class=works"
    }
    for class_dir in class_dirs:
        files = sorted(class_dir.glob("*.parquet"), key=lambda p: p.name)
        table = pa.concat_tables([pq.read_table(f) for f in files])
        keys = list(zip(table.column("subj").to_pylist(), table.column("pred").to_pylist()))
        assert len(keys) == manifest["rows_per_class"][class_dir.name.split("=", 1)[1]]
        assert keys == sorted(keys), class_dir.name


def test_manifest_sink_retry_overwrites_its_own_files(tmp_path):
    """A retried write task (same ``ctx.task_idx``, same blocks) writes the
    same file names again: the files, their count, the returned partials and
    the folded manifest all come out the same as after the first attempt —
    for a triple shard and for a docs shard.  Only the measured file-write
    seconds (each partial's and the manifest's sum of them) may differ."""
    import types

    import pyarrow as pa
    import pyarrow.parquet as pq

    from esmarc_ray.stages.extract import DOC_SCHEMA
    from esmarc_ray.stages.materialize import DOCS, ManifestParquetSink, _fold_manifest, _xor_crc

    blocks = [
        pa.table(
            {
                "subj": [f"s{i}" for i in range(6)],
                "pred": ["p"] * 6,
                "obj": [f"o{i}" for i in range(6)],
                "obj_kind": ["literal"] * 6,
                "entity_class": ["persons", "geo"] * 3,
                "doc_id": [f"d{i}" for i in range(6)],
            }
        ),
        pa.table(
            {
                "subj": ["s9"],
                "pred": ["q"],
                "obj": ["o9"],
                "obj_kind": ["node"],
                "entity_class": ["persons"],
                "doc_id": ["d9"],
            }
        ),
    ]
    docs = pa.table(
        {
            "doc_id": ["d1", "d2", "d3"],
            "entity_class": ["persons", "_dropped", "geo"],
            "canon_key": ["gnd:1", "", "id:x"],
            "doc_json": ['{"@id": "p1"}', "", '{"@id": "g1"}'],
            "gnd_ids": [["1"], [], []],
            "error": ["", "", ""],
        },
        schema=DOC_SCHEMA,
    )
    ctx = types.SimpleNamespace(task_idx=3)

    def write_twice(out, sink, blocks):
        def snapshot():
            files = sorted(p.relative_to(out) for p in out.rglob("*.parquet"))
            contents = {str(p): pq.read_table(out / p).to_pylist() for p in files}
            return files, contents

        first = sink.write(blocks, ctx)
        files_first, contents_first = snapshot()
        manifest_first = _fold_manifest(first, out, ["in"], 0.0)
        retried = sink.write(blocks, ctx)
        files_retried, contents_retried = snapshot()
        manifest_retried = _fold_manifest(retried, out, ["in"], 0.0)

        def untimed(partials, manifest):
            assert all(p["write_seconds"] >= 0 for p in partials)
            total = sum(p["write_seconds"] for p in partials)
            assert manifest["metrics"]["write_seconds"] == round(total, 3)
            manifest = {**manifest, "metrics": dict(manifest["metrics"], write_seconds=None)}
            return [dict(p, write_seconds=None) for p in partials], manifest

        assert files_retried == files_first
        assert contents_retried == contents_first
        assert untimed(retried, manifest_retried) == untimed(first, manifest_first)
        return files_first, manifest_first

    out = tmp_path / "shard"
    files, manifest = write_twice(out, ManifestParquetSink(out, ["entity_class"]), blocks)
    assert len(files) == 3
    assert manifest["row_count"] == 7

    # a docs shard: unpartitioned, one file per block, hashed over every doc column
    docs_out = tmp_path / "docs_shard"
    files, manifest = write_twice(
        docs_out, ManifestParquetSink(docs_out, DOCS.partition_cols, table=DOCS), [docs, docs.slice(1)]
    )
    assert [str(f) for f in files] == ["part-00003-0-0.parquet", "part-00003-1-0.parquet"]
    assert manifest["row_count"] == 5
    assert manifest["rows_per_class"] == {"persons": 1, "_dropped": 2, "geo": 2}
    assert manifest["content_hash"] == _xor_crc(docs.slice(0, 1), DOCS.hash_cols)
