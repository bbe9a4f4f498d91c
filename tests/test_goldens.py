"""Frozen enumeration counts: the shipped file, recomputation, and the
regeneration helper."""

import json
from pathlib import Path

import pytest

from omlq import (
    GOLDEN_ENTRIES,
    catalog,
    compute_lin_count,
    golden_lin_count,
    lin_values,
    load_goldens,
    regen_goldens,
)
from omlq.goldens import bruteforce_lin_values, golden_path, mo_lin_count


EXPECTED = {"boolean:1": 2, "boolean:2": 16, "mo:1": 16, "mo:2": 234}


def test_shipped_golden_values():
    data = load_goldens()
    assert data["lin_counts"] == EXPECTED


def test_goldens_cover_declared_entries():
    assert set(GOLDEN_ENTRIES) == set(EXPECTED)
    for entry in GOLDEN_ENTRIES:
        assert golden_lin_count(entry) == EXPECTED[entry]


def test_recomputation_matches_shipped_values():
    for entry in GOLDEN_ENTRIES:
        assert compute_lin_count(entry) == EXPECTED[entry]


def test_enumerator_agrees_with_goldens():
    for entry, count in EXPECTED.items():
        assert len(lin_values(catalog(entry))) == count


def test_regen_writes_identical_content(tmp_path):
    target = tmp_path / "goldens.json"
    written = regen_goldens(path=target)
    assert written["lin_counts"] == EXPECTED
    assert json.loads(target.read_text()) == json.loads(
        Path(golden_path()).read_text()
    )


def test_mo_closed_form_against_the_oracle():
    for n in (1, 2):
        assert mo_lin_count(n) == len(bruteforce_lin_values(catalog(f"mo:{n}")))


@pytest.mark.parametrize("n, count", [(1, 16), (2, 234), (3, 13_376), (4, 1_441_810)])
def test_mo_closed_form_against_the_enumerator(n, count):
    assert mo_lin_count(n) == count
    assert len(lin_values(catalog(f"mo:{n}"), cap=count)) == count
