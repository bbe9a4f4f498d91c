"""Golden cardinalities for endomap enumeration, and their oracle.

The checked-in fixture data/goldens.json records |Lin(X)| for small
catalog entries, produced by the brute-force oracle here: decode every
value table and keep those that preserve the bottom and the join of every
pair, by definition.  Nothing in production calls it.  Tests compare the
enumerator of linmap.lin_values against the oracle, these counts and the
closed form mo_lin_count; regen_goldens reruns the oracle and rewrites
the file.
"""

from __future__ import annotations

import json
from math import comb, perm
from pathlib import Path

import numpy as np

from .catalog import catalog
from .lattice import FiniteOML

GOLDEN_ENTRIES = ("boolean:1", "boolean:2", "mo:1", "mo:2")
_CHUNK = 1 << 16

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


def _decode(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    """Mixed-radix decode into one row per digit, a column per code; the
    first digit is the most significant, so numeric code order is
    lexicographic value-vector order."""
    out = np.empty((n, len(codes)), dtype=np.int32)
    rest = codes.copy()
    for x in range(n - 1, -1, -1):
        out[x] = rest % m
        rest //= m
    return out


def _chunked_codes(total: int, workers: int, work):
    bounds = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a threaded run pays its import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: work(*b), bounds))
    else:
        parts = [work(*b) for b in bounds]
    return np.concatenate(parts)


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


def mo_lin_count(n: int) -> int:
    """|Lin(MO_n)|, n >= 1, in closed form:

        1 + 2n(2n + 1) + 2n + sum over k of C(2n, k) * P(2n, k).

    MO_n has a bottom 0, a top 1 and 2n atoms, any two of which join to 1.
    The atoms are its join-irreducibles, so a join-preserving endomap f is
    its assignment g on the atoms, with f(0) = 0 and f(1) = t, the join of
    g; it preserves joins exactly when g(a) v g(b) = t for all atoms a != b.
    Counted by t:
    - t = 0: g is 0 everywhere, one map;
    - t an atom c: g takes values in {0, c}, and two zeros would join to
      0, so g is c everywhere or 0 at one atom: 2n + 1 maps for each of
      the 2n atoms c;
    - t = 1: two atoms with g = 0 would join to 0, and an atom with g = 0
      joins to 1 only with g = 1.  So either g is 0 at one atom and 1 at
      the other 2n - 1 (2n maps), or g is never 0: it is 1 on some atoms
      and injective into the atoms on the other k, as an atom joins only
      itself to an atom (C(2n, k) * P(2n, k) maps).  Each of these has
      t = 1, since 2n >= 2 atoms take distinct atoms or 1.
    It gives 16, 234, 13,376 and 1,441,810 for n = 1, 2, 3, 4.
    """
    m = 2 * n
    return 1 + m * (m + 1) + m + sum(comb(m, k) * perm(m, k) for k in range(m + 1))


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
