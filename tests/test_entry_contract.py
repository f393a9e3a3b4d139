"""Driver-contract test: mimics the verify harness — runs entry(), every
queries() callable at sf0.001, and compares each SQL-checkable query against
its oracle_sql() via DuckDB with an order-insensitive value hash over
name-sorted columns (the driver's comparison semantics)."""

from __future__ import annotations

import hashlib

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive: sort columns by name, then rows by all values."""
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for table in TABLES:
        con.execute(
            f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{SF_DIR}/{table}.parquet')"
        )
    return con


def test_entry_smoke(ray_session):
    result = entrymod.entry()
    schema = result.schema()
    assert set(schema.names) >= {"subj", "pred", "obj", "entity_class"}
    assert result.count() > 0


def test_every_query_runs(ray_session):
    """Smoke-run the queries that have NO DuckDB oracle (rows-only in the
    driver); the oracled ones execute in test_query_matches_oracle, so
    re-running them here would double the suite's heaviest cost."""
    with_oracle = set(entrymod.oracle_sql())
    for name, fn in entrymod.queries().items():
        if name in with_oracle:
            continue
        df = to_pandas(fn(SF_DIR))
        assert df is not None and len(df.columns) > 0, name


@pytest.mark.parametrize("name", sorted(entrymod.oracle_sql()))
def test_query_matches_oracle(name, ray_session, oracle_con):
    ours = to_pandas(entrymod.queries()[name](SF_DIR))
    expected = oracle_con.execute(entrymod.oracle_sql()[name]).df()
    assert len(ours) == len(expected), f"{name}: row count {len(ours)} != {len(expected)}"
    assert sorted(ours.columns) == sorted(expected.columns), f"{name}: column names differ"
    assert value_hash(ours) == value_hash(expected), f"{name}: value hash mismatch"


@pytest.mark.parametrize(
    "bad_text", ["short", None, "Görlitz, Zwickau"], ids=["short", "null", "non-ascii"]
)
def test_fingerprints_oracle_guards_its_preconditions(bad_text):
    """The fingerprints oracle mirrors the engine only on ASCII, non-NULL,
    >= 8-byte docs; one violating row must make it raise, not mis-hash."""
    con = duckdb.connect()
    con.execute(
        f"CREATE TABLE documents AS SELECT * FROM read_parquet('{SF_DIR}/documents.parquet')"
    )
    con.execute(
        "UPDATE documents SET text = ? WHERE doc_id = (SELECT min(doc_id) FROM documents)",
        [bad_text],
    )
    with pytest.raises(duckdb.Error, match="precondition violated"):
        con.execute(entrymod.oracle_sql()["fingerprints"]).df()


def test_oracle_keys_subset_of_queries():
    assert set(entrymod.oracle_sql()) <= set(entrymod.queries())
