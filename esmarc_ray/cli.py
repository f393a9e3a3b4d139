"""Command-line entry point — the engine's counterpart of the reference CLI
(reference esmarc/cli.py:12-46; knobs kept name-compatible where they still
make sense in a Ray-Data engine).

    python -m esmarc_ray -input /path/to/span-table -prefix /tmp/out
    python -m esmarc_ray -input ... -id 800000042 -debug     # single-doc stdout
    python -m esmarc_ray -input ... -idfile ids.txt          # subset by id file

Differences from the reference, by design:
* ``-input`` is a directory of parquet span-document files, not an
  Elasticsearch index (``-host/-server`` have no equivalent here;
  ``-query`` takes a pyarrow ``filters`` DNF pushed into the scan instead
  of an ES query body);
* ``-w`` sizes the local Ray session (num_cpus) instead of a process pool;
* output is the partitioned, resumable triple table (never appends, so
  reruns cannot duplicate output like the reference's ``open(.., "at")``
  sink, reference esmarc/esmarc.py:317-319).

The CLI owns its Ray session (guarded); library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="esmarc_ray",
        description="Entity splitting/recognition and RDF mapping of MARC span documents (Ray Data)",
    )
    parser.add_argument("-input", type=str, required=True,
                        help="path to the span-document table (dir of parquet files)")
    parser.add_argument("-prefix", type=str, default="ldj/",
                        help="output directory for the triple table")
    parser.add_argument("-id", type=str, default=None,
                        help="map a single document, given by id (implies -debug)")
    parser.add_argument("-idfile", type=str, default=None,
                        help="path to a file with ids to process (one per line)")
    parser.add_argument("-query", type=str, default=None,
                        help="JSON source prefilter in pandas/pyarrow filters DNF, "
                             "e.g. '[[\"doc_id\", \">=\", \"80\"]]' — pushed into the "
                             "parquet scan (the reference CLI's ES query body)")
    parser.add_argument("-debug", action="store_true",
                        help="dump mapped docs to stdout instead of writing the triple table")
    parser.add_argument("-w", type=int, default=8,
                        help="CPUs for the local Ray session")
    parser.add_argument("-base_id_src", type=str,
                        default="https://opac.k10plus.de/DB=2.299/PPNSET?PPN=",
                        help="base_id URI prefix for sameAs construction")
    parser.add_argument("-target_id", type=str, default="https://data.slub-dresden.de/",
                        help="URI prefix for minted @ids")
    parser.add_argument("-shards", type=int, default=4,
                        help="resumable input shards for the extract phase")
    parser.add_argument("-jsonld", action="store_true",
                        help="also write reference-format per-entity-class "
                             ".ldj JSON-LD streams under <prefix>/jsonld")
    return parser.parse_args(argv)


def restrict_to_ids(query: Any, ids: "list[str] | None") -> Any:
    """AND a ``("doc_id", "in", ids)`` conjunct into every clause of the
    ``-query`` prefilter, so ``-id`` and ``-idfile`` restrict the same
    pushed-down scan in debug and batch mode."""
    from esmarc_ray.io import query_clauses

    if ids is None:
        return query
    conjunct = ("doc_id", "in", list(ids))
    return [[*clause, conjunct] for clause in query_clauses(query)] or [[conjunct]]


def run(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.w, include_dashboard=False,
                 logging_level="error", log_to_driver=False)

    from esmarc_ray.config import EngineConfig
    from esmarc_ray.io import read_documents
    from esmarc_ray.stages.extract import extract_docs

    config = EngineConfig(base_id=args.base_id_src, target_id=args.target_id)

    ids = None
    if args.id:
        ids = [args.id]
    elif args.idfile:
        with open(args.idfile) as fh:
            ids = [line.strip() for line in fh if line.strip()]
    query = restrict_to_ids(args.query, ids)

    if args.debug or args.id:
        # single-id / debug mode: print mapped docs as JSON lines
        # (reference esmarc/esmarc.py:258-265 — minus its TypeError bug)
        docs = extract_docs(
            read_documents(args.input, query=query), config
        )
        for row in docs.iter_rows():
            if row["entity_class"].startswith("_"):
                print(json.dumps({row["doc_id"]: {"status": row["entity_class"],
                                                  "error": row["error"]}}))
            else:
                print(json.dumps({row["entity_class"]: json.loads(row["doc_json"])},
                                 ensure_ascii=False))
        ray.shutdown()
        return 0

    from esmarc_ray.pipelines.kg import run_kg_pipeline

    manifest = run_kg_pipeline(
        args.input,
        args.prefix,
        config=config,
        num_shards=args.shards,
        jsonld=args.jsonld,
        query=query,
    )
    print(json.dumps(manifest, indent=1, sort_keys=True))
    ray.shutdown()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
