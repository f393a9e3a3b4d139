"""Source guard: the engine has one hash exchange.

Every hash-partitioned exchange in ``esmarc_ray/`` (and ``__ray_entry__.py``)
tags rows with ``ops.relational.hash_partition`` and reduces them with
``ops.relational.reduce_partitions`` — ``partitioned_final`` is the two
composed.  This scan fails on a hand-rolled copy of either half:

* a ``groupby("part")``, or a ``groupby`` on the ``__part`` column followed
  by ``map_groups``, anywhere but inside ``reduce_partitions``;
* a ``hash_pandas_object(...) % n`` expression anywhere but inside
  ``hash_partition``.

The allowlists name the few sites that look like one but are not a hash
exchange, each with its reason; an entry whose site disappears fails too,
so the lists cannot go stale.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (file, enclosing function) -> why its groupby("__part").map_groups stays
REDUCE_ALLOWED = {
    ("esmarc_ray/ops/relational.py", "reduce_partitions"): "the primitive",
    ("esmarc_ray/ops/relational.py", "global_rank"): (
        "range partition: the reducer reads __part to add its rank offset"
    ),
    ("esmarc_ray/ops/windows.py", "watermark_filter"): (
        "range partition: the reducer reads __part to fold in its prefix max"
    ),
}

# (file, enclosing function) -> why its hash_pandas_object(...) % n stays
HASH_MOD_ALLOWED = {
    ("esmarc_ray/ops/relational.py", "hash_partition"): "the primitive",
    ("esmarc_ray/ops/sketches.py", "_cms_hash"): (
        "count-min sketch column index, not a partition"
    ),
}

_PART_NAMES = {"part", "__part", "PART"}


def _sources() -> list[pathlib.Path]:
    return sorted((ROOT / "esmarc_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]


def _sites(path: pathlib.Path):
    """Yield (kind, enclosing function, line) for every exchange-shaped node."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def part_key(call: ast.Call) -> str | None:
        if not (isinstance(call.func, ast.Attribute) and call.func.attr == "groupby"):
            return None
        if len(call.args) != 1:
            return None
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and arg.value in _PART_NAMES:
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in _PART_NAMES:
            return arg.id
        return None

    def hashes(node: ast.AST) -> bool:
        return any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "hash_pandas_object"
            for n in ast.walk(node)
        )

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = (
                child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and scope == "<module>"
                else scope
            )
            if isinstance(child, ast.Call):
                key = part_key(child)
                if key == "part":
                    yield "groupby(part)", scope, child.lineno
                if (
                    isinstance(child.func, ast.Attribute)
                    and child.func.attr == "map_groups"
                    and isinstance(child.func.value, ast.Call)
                    and part_key(child.func.value) is not None
                ):
                    yield "reduce", scope, child.lineno
            if (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.Mod)
                and hashes(child.left)
            ):
                yield "hash % n", scope, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, "<module>")


def _scan():
    found = []
    for path in _sources():
        rel = path.relative_to(ROOT).as_posix()
        for kind, scope, line in _sites(path):
            found.append((kind, rel, scope, line))
    return found


def test_every_hash_exchange_goes_through_the_primitive():
    found = _scan()
    offenders = []
    for kind, rel, scope, line in found:
        allowed = {
            "groupby(part)": {},
            "reduce": REDUCE_ALLOWED,
            "hash % n": HASH_MOD_ALLOWED,
        }[kind]
        if (rel, scope) not in allowed:
            offenders.append(f"{rel}:{line} ({scope}): hand-rolled {kind}")
    assert not offenders, (
        "tag with ops.relational.hash_partition and reduce with "
        "reduce_partitions / partitioned_final instead:\n" + "\n".join(offenders)
    )


def test_allowlists_name_live_sites():
    found = {(kind, rel, scope) for kind, rel, scope, _ in _scan()}
    for rel, scope in REDUCE_ALLOWED:
        assert ("reduce", rel, scope) in found, f"stale allowlist entry {rel}::{scope}"
    for rel, scope in HASH_MOD_ALLOWED:
        assert ("hash % n", rel, scope) in found, f"stale allowlist entry {rel}::{scope}"


def test_one_partition_hash_and_one_reduce():
    """The per-module copies of the partition hash are gone, and so are
    canonicalize's own exchange (tag step, reduce wrapper) and the packed
    zstd row format it shipped."""
    from esmarc_ray.ops import graph, kg_embed, relational
    from esmarc_ray.stages import canonicalize

    assert callable(relational.hash_partition)
    assert callable(relational.reduce_partitions)
    for module, name in (
        (graph, "_part_series"),
        (kg_embed, "_part_of"),
        (canonicalize, "_hash_mod_col"),
        (canonicalize, "_make_add_part"),
        (canonicalize, "_partition_merge"),
        (canonicalize, "_pack_compress"),
        (canonicalize, "_unpack_rows"),
        (canonicalize, "_payload_codec"),
        (canonicalize, "_packed_schema"),
        (canonicalize, "_PACKED_FIXED"),
        (canonicalize, "PAYLOAD_COMPRESS_LEVEL"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name} is back"
