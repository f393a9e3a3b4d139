"""The engine's parquet readers take their block count from the writer's
unit, the row group: ``esmarc_ray.io.read_documents`` (phase 1's span read)
and ``read_checkpoint`` (phase 2's re-read of the pipeline's own
checkpoints) both reach ``read_parquet`` through
``io.read_parquet_row_groups``, one block per row group.

Ray's own split is 2 x CPUs blocks whatever the input: it cut a 2,000-doc
span file (one 2,048-row group) into 4 blocks, whose extract tasks woke a
second worker, and it cuts the checkpoint files phase 1 already sized into
blocks of at least 1 MiB, each paying for its own combiner, exchange,
merge, sort and write tasks in phase 2.  The checkpoint sink writes one
row group per file, so ``read_checkpoint`` reads one block per file.
"""

from __future__ import annotations

import ast
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "esmarc_ray"
PIPELINE = PACKAGE / "pipelines" / "kg.py"
IO = PACKAGE / "io.py"
HELPER = "read_parquet_row_groups"


def _calls(tree: ast.AST, name: str) -> list[int]:
    """Lines of every call to ``name``, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == name)
            or (isinstance(node.func, ast.Name) and node.func.id == name)
        )
    ]


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _function(path: pathlib.Path, name: str) -> ast.FunctionDef:
    (node,) = [
        n for n in _parse(path).body if isinstance(n, ast.FunctionDef) and n.name == name
    ]
    return node


def test_kg_pipeline_rereads_checkpoints_through_read_checkpoint():
    tree = _parse(PIPELINE)
    bare = _calls(tree, "read_parquet")
    assert not bare, (
        "esmarc_ray/pipelines/kg.py re-reads a checkpoint with a bare "
        f"read_parquet at line(s) {bare}: use esmarc_ray.io.read_checkpoint"
    )
    assert _calls(tree, "read_checkpoint"), "the docs/ re-read is gone"


def test_span_and_checkpoint_reads_go_through_the_row_group_helper():
    for reader in ("read_documents", "read_checkpoint"):
        fn = _function(IO, reader)
        assert not _calls(fn, "read_parquet"), (
            f"io.{reader} calls read_parquet itself: read through io.{HELPER}"
        )
        assert _calls(fn, HELPER), f"io.{reader} no longer reads through io.{HELPER}"
    assert _calls(_function(IO, HELPER), "read_parquet")


def _write(path: pathlib.Path, rows: int, row_group_size: int) -> None:
    table = pa.table({
        "doc_id": [f"{path.stem}-{i:05d}" for i in range(rows)],
        "spans": [b""] * rows,
    })
    pq.write_table(table, path, row_group_size=row_group_size)


def test_read_documents_is_one_block_per_row_group(ray_session, tmp_path):
    from esmarc_ray.io import read_documents

    for k, groups in enumerate((1, 2, 3)):
        _write(tmp_path / f"part-{k}.parquet", rows=10 * groups, row_group_size=10)
    ds = read_documents(str(tmp_path)).materialize()
    assert ds.num_blocks() == 6 and ds.count() == 60
    # a caller's explicit block count still wins
    assert read_documents(str(tmp_path), override_num_blocks=2).materialize().num_blocks() == 2
    # a read with a query keeps the same rule
    query = [("doc_id", ">=", "part-0")]
    ds = read_documents(str(tmp_path), query=query).materialize()
    assert ds.num_blocks() == 6 and ds.count() == 60


def test_a_one_group_span_file_is_one_block(ray_session, tmp_path):
    from esmarc_ray.io import read_documents

    _write(tmp_path / "part-0.parquet", rows=2000, row_group_size=2048)
    ds = read_documents(str(tmp_path)).materialize()
    assert ds.num_blocks() == 1 and ds.count() == 2000
