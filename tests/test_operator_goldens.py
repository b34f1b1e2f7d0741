"""Table records for both regimes of the triangular operator, recorded
from the list-based elimination that the packed kernel replaced, compared
record by record: E7/P7 --table 8 8 is term-bound (4 coefficients per
vector through up to 9,176 terms), F4 --parabolic 4 --table 4 4 is
width-bound (up to 196 coefficients per vector).  F4 --parabolic 4
--table 5 5, with batches up to 441 wide, is pinned by its record count
and a digest of its records, recorded from the packed kernel with
byte-array input packing."""

import hashlib
import json
from pathlib import Path

import pytest

from schuprod.cli import main

CASES = json.loads((Path(__file__).parent / "operator_goldens.json").read_text())["cases"]

F4_P4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize("case", CASES, ids=["E7-P123456-8x8", "F4-P4-4x4"])
def test_table_records_match_the_goldens(capsys, case):
    assert main(case["argv"]) == 0
    report = json.loads(capsys.readouterr().out)
    records = report.pop("records")
    assert report == case["report"]
    assert len(records) == len(case["records"])
    for got, want in zip(records, case["records"]):
        assert got == want


def test_widest_batch_table_matches_its_digest(capsys):
    assert main(["--type", "F4", "--parabolic", "4", "--table", "5", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    records = report.pop("records")
    assert report == {
        "degrees": [5, 5],
        "evaluation": {"orientation": "direct", "word_length": 10},
        "format_version": 1,
        "group": F4_P4,
        "mode": "table",
        "parabolic": [4],
    }
    assert len(records) == 5941
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == (
        "32d09cd5798d40cc1b1d523ce12e97cef53ed7ec472f1f5534e923c360bffeba"
    )
