"""Golden cardinalities for endomap enumeration.

The checked-in fixture data/goldens.json records |Lin(X)| for small
catalog entries, produced by the brute-force path (enumerate every total
function, keep the join-preserving ones).  Tests compare the optimized
enumeration against these counts; regen_goldens reruns the oracle and
rewrites the file.
"""

from __future__ import annotations

import json
from pathlib import Path

from .catalog import catalog
from .linmap import lin_values

GOLDEN_ENTRIES = ("boolean:1", "boolean:2", "mo:1", "mo:2")

_DATA = Path(__file__).parent / "data" / "goldens.json"


def golden_path() -> str:
    return str(_DATA)


def load_goldens() -> dict:
    with open(_DATA, encoding="utf-8") as fh:
        return json.load(fh)


def golden_lin_count(entry: str) -> int:
    counts = load_goldens()["lin_counts"]
    if entry not in counts:
        raise KeyError(f"no golden count recorded for {entry!r}")
    return int(counts[entry])


def compute_lin_count(entry: str, workers: int = 1) -> int:
    """Run the brute-force oracle for one catalog entry."""
    oml = catalog(entry)
    return len(lin_values(oml, strategy="bruteforce", workers=workers))


def regen_goldens(path=None, workers: int = 1) -> dict:
    """Recompute every golden count and rewrite the fixture file."""
    from .serialize import dump_json

    data = {
        "lin_counts": {e: compute_lin_count(e, workers) for e in GOLDEN_ENTRIES}
    }
    target = Path(path) if path is not None else _DATA
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(dump_json(data), encoding="utf-8")
    return data
