"""Table records for both regimes of the triangular operator, recorded
from the list-based elimination that the packed kernel replaced, compared
record by record: E7/P7 --table 8 8 is term-bound (4 coefficients per
vector through up to 9,176 terms), F4 --parabolic 4 --table 4 4 is
width-bound (up to 196 coefficients per vector)."""

import json
from pathlib import Path

import pytest

from schuprod.cli import main

CASES = json.loads((Path(__file__).parent / "operator_goldens.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=["E7-P123456-8x8", "F4-P4-4x4"])
def test_table_records_match_the_goldens(capsys, case):
    assert main(case["argv"]) == 0
    report = json.loads(capsys.readouterr().out)
    records = report.pop("records")
    assert report == case["report"]
    assert len(records) == len(case["records"])
    for got, want in zip(records, case["records"]):
        assert got == want
