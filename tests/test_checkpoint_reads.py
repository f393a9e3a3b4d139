"""Source guard: the KG pipeline reads its own checkpoints back with
``esmarc_ray.io.read_checkpoint`` — one read task and one block per file.

A bare ``read_parquet`` splits the files phase 1 already sized into blocks of
at least 1 MiB, and every extra block pays for its own combiner, exchange,
merge, sort and write tasks in phase 2.  Phase 1's span read
(``io.read_documents``) keeps Ray's split on purpose: that split is what
gives each input shard its extract parallelism.
"""

from __future__ import annotations

import ast
import pathlib

PIPELINE = pathlib.Path(__file__).resolve().parents[1] / "esmarc_ray" / "pipelines" / "kg.py"


def _calls(path: pathlib.Path, name: str) -> list[int]:
    """Lines of every call to ``name``, bare or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == name)
            or (isinstance(node.func, ast.Name) and node.func.id == name)
        )
    ]


def test_kg_pipeline_rereads_checkpoints_through_read_checkpoint():
    bare = _calls(PIPELINE, "read_parquet")
    assert not bare, (
        "esmarc_ray/pipelines/kg.py re-reads a checkpoint with a bare "
        f"read_parquet at line(s) {bare}: use esmarc_ray.io.read_checkpoint"
    )
    assert _calls(PIPELINE, "read_checkpoint"), "the docs/ re-read is gone"
