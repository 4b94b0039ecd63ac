"""The acceptance gate's criteria table, as a machine reads it: JSON in
pytest's cache, one object per criterion with its number, name, PASS/FAIL,
detail and seconds, sorted by number."""

import json
from pathlib import Path

from conftest import CRITERIA_CACHE_KEY

pytest_plugins = ["pytester"]


def test_criteria_table_lands_in_the_cache(pytester):
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(test_gate="""
        from conftest import record_criterion

        def test_late():
            record_criterion(9, "late", False, "off by one", 0.5)

        def test_early():
            record_criterion(2, "early", True, seconds=0.25)
    """)
    result = pytester.runpytest_subprocess("-q")
    result.assert_outcomes(passed=2)
    result.stdout.fnmatch_lines(["criterion 2 [[]early]: PASS",
                                 "criterion 9 [[]late]: FAIL (off by one)"])
    table = json.loads((pytester.path / ".pytest_cache" / "v" / CRITERIA_CACHE_KEY).read_text())
    assert table == [
        {"number": 2, "name": "early", "status": "PASS", "detail": "", "seconds": 0.25},
        {"number": 9, "name": "late", "status": "FAIL", "detail": "off by one", "seconds": 0.5},
    ]
