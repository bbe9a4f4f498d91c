"""Golden cardinalities for endomap enumeration, and their oracle.

The checked-in fixture data/goldens.json records |Lin(X)| for small
catalog entries, produced by the brute-force oracle here: decode every
value table and keep those that preserve the bottom and the join of every
pair, by definition.  Nothing in production calls it.  Tests compare the
enumerator of linmap.lin_values against the oracle and these counts;
regen_goldens reruns the oracle and rewrites the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .catalog import catalog
from .lattice import FiniteOML
from .linmap import _chunked_codes, _decode

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


def bruteforce_lin_values(dom: FiniteOML, cod: FiniteOML | None = None, workers: int = 1):
    """The oracle: the value tables of all maps dom -> cod that preserve
    the bottom and every binary join, one row per map in lexicographic
    order, found among all cod.n ** dom.n tables.  The join condition is
    symmetric and holds on the diagonal, so pairs x < y are read."""
    cod = dom if cod is None else cod
    n, m = dom.n, cod.n
    jd, jc = dom.join_tab, cod.join_tab
    pairs = list(zip(*np.triu_indices(n, 1)))

    def work(lo, hi):
        t = _decode(np.arange(lo, hi, dtype=np.int64), n, m)  # entry (x, c): table c at x
        ok = t[dom.bottom] == cod.bottom
        for x, y in pairs:
            ok &= jc[t[x], t[y]] == t[jd[x, y]]
        return t[:, ok].T

    return _chunked_codes(m**n, workers, work)


def compute_lin_count(entry: str, workers: int = 1) -> int:
    """Run the brute-force oracle for one catalog entry."""
    return len(bruteforce_lin_values(catalog(entry), workers=workers))


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
