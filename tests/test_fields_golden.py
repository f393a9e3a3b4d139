"""Golden parity with the reference's own test corpus.

Mirrors reference tests/test_mapping_functions.py:32-77: look the mapping row
up by target name, run the extractor on the raw record, compare
``json.dumps(..., sort_keys=True)`` against tests/out/<field>/<id> — plus the
two classification goldens the reference ships but never wired to a test.
"""

from __future__ import annotations

import json

import pytest

from esmarc_ray.mapping import ENTITY_MAPPINGS
from esmarc_ray.config import DEFAULT_CONFIG
from tests.conftest import load_golden
from tests.mapping_oracle import evaluate_row

CASES = [
    ("mentions", "1131213920"),
    ("mentions", "1503793168"),
    ("mentions", "024629014"),
    ("mentions", "218401159"),
    ("publisher", "1405783028"),
    ("publisher", "1384819908"),
    ("publisher", "1191100251"),
    ("originalPublisher", "1405783028"),
    ("originalPublisher", "1384819908"),
    ("location", "1405783028"),
    ("location", "1384819908"),
    ("location", "1191100251"),
    ("cartographicData", "71691803X"),
    # NOT covered: tests/out/classifications/{317566016,557237297} are stale
    # in the reference repo (one is empty, the other predates the current
    # get_class output shape) and are not wired to any reference test either;
    # classifications parity is covered by the full-record parity suite.
]


def row_spec(field: str, entity: str = "resources"):
    for row_key, spec in ENTITY_MAPPINGS[entity].items():
        if row_key.split(":")[1] == field:
            return spec
    raise KeyError(field)


@pytest.mark.parametrize("field,record_id", CASES)
def test_golden_field(field, record_id, reference_records):
    record = reference_records[record_id]
    produced = evaluate_row(record, row_spec(field), "resources", DEFAULT_CONFIG)
    expected = load_golden(field, record_id)  # already wrapped as {field: value}
    assert json.dumps({field: produced}, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
