#!/usr/bin/env python3
"""Where a parquet tree's bytes go, column by column, from the footers alone.

    python3 tools/parquet_bytes.py DIR

Reads the footer of every ``*.parquet`` file under ``DIR`` (recursively; no
data pages are read).  The first line counts files, rows and row groups,
with the fewest and most rows in a group: the row group is the engine's
read unit (``esmarc_ray.io.read_parquet_row_groups`` reads one block per
group).  Then it prints one line per column: compressed bytes,
compressed bytes per row, its share of the tree's bytes, the encodings and
the codec.  The footers, and the other file bytes no column chunk accounts
for, get a line of their own, and the last line is the whole tree.  A
column whose chunks differ in encodings or codec between files lists every
variant.
"""

from __future__ import annotations

import pathlib
import sys


def column_bytes(root: str | pathlib.Path) -> dict:
    """``{"files", "rows", "bytes", "row_groups", "group_rows", "columns":
    {path: {...}}}`` for the tree; ``group_rows`` is the (min, max) rows of
    a row group, ``(0, 0)`` without one.

    Each column entry holds ``bytes`` (compressed, summed over row groups
    and files), ``encodings`` and ``codecs`` (sorted sets, as strings),
    ``dictionary`` (whether any chunk has a dictionary page) and
    ``statistics`` (whether every chunk carries min/max statistics)."""
    import pyarrow.parquet as pq

    files = sorted(pathlib.Path(root).rglob("*.parquet"))
    columns: dict[str, dict] = {}
    rows = total = 0
    group_rows: list[int] = []
    for path in files:
        meta = pq.read_metadata(path)
        rows += meta.num_rows
        total += path.stat().st_size
        for g in range(meta.num_row_groups):
            group = meta.row_group(g)
            group_rows.append(group.num_rows)
            for c in range(group.num_columns):
                chunk = group.column(c)
                entry = columns.setdefault(
                    chunk.path_in_schema,
                    {"bytes": 0, "encodings": set(), "codecs": set(),
                     "dictionary": False, "statistics": True},
                )
                entry["bytes"] += chunk.total_compressed_size
                entry["encodings"].add(",".join(chunk.encodings))
                entry["codecs"].add(chunk.compression)
                entry["dictionary"] |= chunk.has_dictionary_page
                entry["statistics"] &= bool(chunk.is_stats_set and chunk.statistics.has_min_max)
    for entry in columns.values():
        entry["encodings"] = sorted(entry["encodings"])
        entry["codecs"] = sorted(entry["codecs"])
    return {
        "files": len(files), "rows": rows, "bytes": total,
        "row_groups": len(group_rows),
        "group_rows": (min(group_rows), max(group_rows)) if group_rows else (0, 0),
        "columns": columns,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree = column_bytes(argv[0])
    rows, total = tree["rows"], tree["bytes"]
    if not tree["files"]:
        print(f"no parquet files under {argv[0]}", file=sys.stderr)
        return 1

    def line(name: str, size: int, rest: str = "") -> str:
        per_row = size / rows if rows else 0.0
        share = size / total if total else 0.0
        return f"{name:<24} {size:>12,} {per_row:>10.3f} {share:>7.1%}  {rest}".rstrip()

    lo, hi = tree["group_rows"]
    print(f"{tree['files']} files, {rows:,} rows, {tree['row_groups']:,} row groups "
          f"({lo:,}-{hi:,} rows per group)")
    print(f"{'column':<24} {'bytes':>12} {'B/row':>10} {'share':>7}  encodings / codec")
    in_columns = 0
    for name, entry in sorted(tree["columns"].items(), key=lambda kv: -kv[1]["bytes"]):
        in_columns += entry["bytes"]
        flags = ("dict " if entry["dictionary"] else "") + ("stats" if entry["statistics"] else "")
        rest = f"{' | '.join(entry['encodings'])} / {'|'.join(entry['codecs'])}  {flags}"
        print(line(name, entry["bytes"], rest))
    print(line("(footers, headers)", total - in_columns))
    print(line("(total)", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
