"""scripts/cli_snapshot.py's two-checkout compare, on hand-written snapshots."""

import importlib
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def snap(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("cli_snapshot")


BASE = ["$ portinf infer --input r.csv\n", "exit 0\n", "--- stdout\n", "w\t0.25\n",
        "--- stderr\n", "note: 2 rows dropped\n",
        "$ portinf infer --input r.csv --format json\n", "exit 0\n", "--- stdout\n",
        '  "w": 0.25,\n', '  "se": 1e-3\n', "--- stderr\n"]


def test_only_json_numbers_moved(snap):
    new = list(BASE)
    new[9], new[10] = '  "w": 0.25000000000000006,\n', '  "se": 0.001\n'
    assert snap.compare(BASE, new) == ["changed lines: 2 of 12", "non-json lines moved: 0",
                                       "largest relative change: 2.22e-16"]


@pytest.mark.parametrize("line, moved, change", [
    (3, "w\t0.5\n", 0.5),                  # a TSV number
    (1, "exit 2\n", 1.0),                  # an exit code
    (5, "note: 3 rows dropped\n", 1 / 3),  # a stderr number
    (9, '  "v": 0.25,\n', math.inf),       # a JSON key
    (3, "w\t0.250\n", 0.0),                # the same number, written otherwise
])
def test_other_moves_are_counted(snap, line, moved, change):
    new = list(BASE)
    new[line] = moved
    report = snap.compare(BASE, new)
    assert report[1] == f"non-json lines moved: {int(line != 9)}"
    assert snap._relative_change(BASE[line], moved) == change


def test_line_counts_that_differ_are_reported(snap):
    assert snap.compare(BASE, BASE + ["x\n"]) == ["line count differs: 12 -> 13"]
