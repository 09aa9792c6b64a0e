"""The table of pinned outputs in ``tests/pinned.py``: every file keeps its
bytes, every file is in the table, and ``--diff`` reports a one-ulp change."""

import json
import math
from functools import reduce

import pytest

import pinned
from pinned import FIXTURES, PINNED


@pytest.mark.parametrize("name", PINNED)
def test_pinned_file_keeps_its_bytes(name):
    committed = (FIXTURES / name).read_bytes()
    made = pinned.make(name)
    assert made == committed, "\n".join(pinned.changes(name, committed, made))


def test_table_lists_every_fixture_file():
    assert sorted(path.name for path in FIXTURES.iterdir()) == sorted(PINNED)


def _dumps(name, doc):
    """Document ``doc`` of pinned file ``name`` as text in that file's format."""
    if name.endswith(".csv"):
        return "\n".join([",".join(doc[0]), *(",".join(map(repr, row.values())) for row in doc)]) + "\n"
    return "\n".join(map(json.dumps, doc)) + "\n" if name.endswith(".jsonl") else json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name, path, key", [
    ("loss_lcsa_classical.csv", (2, "train_loss"), "[2].train_loss"),
    ("generate_quantum_q3.jsonl", (1, "steps", 0, 3, 1), "[1].steps[0][3][1]"),
    ("checkpoint_v1_lcsa_classical.json", ("params", "lcsa", "value_map", "data", 5), "params.lcsa.value_map.data[5]"),
], ids=["csv", "jsonl", "json"])
def test_diff_names_the_file_the_key_and_both_values_of_a_one_ulp_change(tmp_path, name, path, key):
    doc = pinned._document(name, (FIXTURES / name).read_text(encoding="utf-8"))
    *parents, last = path
    holder = reduce(lambda value, step: value[step], parents, doc)
    made = holder[last]
    holder[last] = committed = math.nextafter(made, math.inf)
    (tmp_path / name).write_text(_dumps(name, doc), encoding="utf-8")
    lines = pinned.diff([name], tmp_path)
    assert lines[0].startswith(f"{name}: 1 of ")
    assert lines[-1] == f"  largest: {key}: {committed.hex()} -> {made.hex()}"
    assert pinned.main(["--diff", name]) == 0
