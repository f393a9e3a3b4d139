"""Source guard: the two per-row hot loops that hand Arrow columns to Python
take them through numpy, not ``to_pylist``.

``to_pylist`` on a string column costs about ten times ``to_numpy(
zero_copy_only=False).tolist()`` for the same list: on 2,000 docs, 0.20-0.38 s
against 0.02 s for the span decode's kind/text/offset columns, and
0.07-0.11 s against 0.03-0.05 s for the manifest hash over 60k triples.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1] / "esmarc_ray"


def _function_calls(path: pathlib.Path, function: str) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
    raise AssertionError(f"{function} not found in {path}")


@pytest.mark.parametrize(
    "path,function",
    [
        (ROOT / "stages" / "materialize.py", "_xor_crc"),
        (ROOT / "codec.py", "batch_to_records"),
    ],
)
def test_hot_path_does_not_call_to_pylist(path, function):
    assert "to_pylist" not in _function_calls(path, function), (
        f"{path.name}:{function} calls to_pylist: use to_numpy(zero_copy_only=False)"
    )
