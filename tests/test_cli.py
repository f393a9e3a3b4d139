"""CLI surface tests (single-id debug mode + batch mode parse)."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from esmarc_ray.cli import parse_args

# the checkout these tests belong to: child processes import its package
REPO = str(pathlib.Path(__file__).resolve().parents[1])


def _child_env(home, **extra: str) -> dict[str, str]:
    """A CLI child's environment: this checkout's package, ``home`` as HOME."""
    return {"PYTHONPATH": REPO, "PATH": "/usr/bin:/bin", "HOME": str(home), **extra}


def test_parse_args_defaults():
    args = parse_args(["-input", "/x"])
    assert args.input == "/x" and args.w == 8 and args.shards == 4
    assert args.target_id == "https://data.slub-dresden.de/"
    # the salt count and output-codec flags are gone: argparse rejects them
    for removed in (["-salts", "4"], ["-z"]):
        with pytest.raises(SystemExit):
            parse_args(["-input", "/x", *removed])


def test_cli_single_id(tmp_path):
    from esmarc_ray.corpus import CorpusSpec, write_corpus

    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), CorpusSpec(n_docs=20, seed=42), rows_per_file=20)
    proc = subprocess.run(
        [sys.executable, "-m", "esmarc_ray", "-input", str(corpus), "-id", "800000002", "-w", "2"],
        capture_output=True, text=True, timeout=300,
        env=_child_env(tmp_path, RAY_ADDRESS="local"),
        cwd=str(tmp_path),
    )
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert "resources" in doc
    assert doc["resources"]["_ppn"] == "800000002"


def test_cli_query_prefilter(tmp_path):
    """-query forwards a pushed-down scan predicate (the reference CLI's ES
    query body, reference esmarc/cli.py:31-34, re-expressed as pyarrow
    filters DNF)."""
    from esmarc_ray.corpus import CorpusSpec, write_corpus

    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), CorpusSpec(n_docs=20, seed=42), rows_per_file=10)
    query = '[["doc_id", ">=", "800000002"], ["doc_id", "<", "800000004"]]'
    proc = subprocess.run(
        [sys.executable, "-m", "esmarc_ray", "-input", str(corpus),
         "-query", query, "-debug", "-w", "2"],
        capture_output=True, text=True, timeout=300,
        env=_child_env(tmp_path, RAY_ADDRESS="local"),
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 2
    ppns = {list(json.loads(l).values())[0]["_ppn"] for l in lines}
    assert ppns == {"800000002", "800000003"}


def test_cli_batch_jsonld(tmp_path):
    """Batch mode with -jsonld writes the triple table AND the
    reference-format per-class .ldj streams; run manifest accounts both."""
    from esmarc_ray.corpus import CorpusSpec, write_corpus

    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), CorpusSpec(n_docs=20, seed=42), rows_per_file=10)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "esmarc_ray", "-input", str(corpus),
         "-prefix", str(out), "-w", "2", "-shards", "2", "-jsonld"],
        capture_output=True, text=True, timeout=300,
        env=_child_env(tmp_path, RAY_ADDRESS="local"),
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    manifest = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert manifest["jsonld"]["n_docs"] > 0
    ldj_files = list((out / "jsonld").glob("*/*-records.ldj"))
    assert ldj_files
    n_lines = sum(len(f.read_text().splitlines()) for f in ldj_files)
    assert n_lines == manifest["jsonld"]["n_docs"]
    for f in ldj_files[:3]:
        for line in f.read_text().splitlines():
            assert json.loads(line).get("@id")


def test_cli_batch_idfile_restricts_the_scan(tmp_path):
    """Batch mode honours -idfile: the docs checkpoint and the triples hold
    only the listed doc_ids, and with -query only the intersection."""
    import pyarrow.parquet as pq

    from esmarc_ray.corpus import CorpusSpec, write_corpus

    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), CorpusSpec(n_docs=20, seed=42), rows_per_file=10)
    ids = ["800000003", "800000007", "800000011"]
    idfile = tmp_path / "ids.txt"
    idfile.write_text("\n".join(ids) + "\n")

    def doc_ids(root):
        return {
            d for f in root.rglob("*.parquet")
            for d in pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist()
        }

    for extra, expected in (
        ([], set(ids)),
        (["-query", '[["doc_id", "<", "800000010"]]'], {"800000003", "800000007"}),
    ):
        out = tmp_path / f"out{len(extra)}"
        proc = subprocess.run(
            [sys.executable, "-m", "esmarc_ray", "-input", str(corpus),
             "-prefix", str(out), "-idfile", str(idfile), "-w", "2", "-shards", "2",
             *extra],
            capture_output=True, text=True, timeout=300,
            env=_child_env(tmp_path, RAY_ADDRESS="local"),
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert doc_ids(out / "docs") == expected
        triple_ids = doc_ids(out / "triples")
        assert triple_ids and triple_ids <= expected


def test_enrich_bot_chain_matches_fused_linker(ray_session, tmp_path):
    """Chaining the five per-bot CLIs over stdin/stdout (the reference's
    shell-pipeline surface, reference enrichment/entityfacts.py:193-256)
    reproduces the link stage's doc output byte-for-byte."""
    import ray as _ray
    from esmarc_ray.config import DEFAULT_CONFIG
    from esmarc_ray.corpus import CorpusSpec, link_tables, write_corpus
    from esmarc_ray.io import read_documents
    from esmarc_ray.stages.extract import extract_docs
    from esmarc_ray.stages.link import build_link_indexes, link_entities

    spec = CorpusSpec(n_docs=120, seed=42)
    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), spec, rows_per_file=60)

    docs = extract_docs(read_documents(str(corpus)), DEFAULT_CONFIG)
    live = docs.filter(
        expr="entity_class != '_error' and entity_class != '_dropped'"
    ).to_pandas()
    indexes_ref = _ray.put(build_link_indexes(link_tables(spec)))
    docs2 = extract_docs(read_documents(str(corpus)), DEFAULT_CONFIG)
    linked = link_entities(docs2, indexes_ref, batch_size=64)
    linked_rows = linked.to_pandas()
    linked_rows = linked_rows[
        ~linked_rows["entity_class"].isin(["_error", "_dropped"])
    ]
    want = {
        json.loads(dj)["@id"]: dj for dj in linked_rows["doc_json"]
    }

    input_ldj = "\n".join(live["doc_json"]) + "\n"
    chain = " | ".join(
        f"{sys.executable} -m esmarc_ray.enrich {bot} -stdin -pipeline "
        f"-synthetic 120:42"
        for bot in (
            "entityfacts", "wikidata", "wikipedia_categories",
            "gnd_sachgruppen", "geonames",
        )
    )
    proc = subprocess.run(
        chain, shell=True, input=input_ldj, capture_output=True, text=True,
        timeout=300,
        env=_child_env(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out_lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(out_lines) == len(live)
    got = {json.loads(l)["@id"]: l for l in out_lines}
    assert got == want
    # at least one doc actually gained links through the chain
    assert any(
        "wikidata" in dj or "viaf" in dj for dj in got.values()
    )
