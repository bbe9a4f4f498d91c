"""Independent oracles for the size and the rows of Lin(X).

bruteforce_lin_values decodes every value table and keeps those that
preserve the bottom and the join of every pair, by definition.
mo_lin_count and product_lin_count count Lin in closed form, the latter
from the four Hom blocks of a product.  Nothing in production calls
them; tests compare the enumerator of linmap.lin_values against them and
against |Lin(2^n)| = 2^(n^2).
"""

from __future__ import annotations

from math import comb, perm

import numpy as np

from .lattice import FiniteOML
from .linmap import lin_count

_CHUNK = 1 << 16


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


def bruteforce_lin_values(dom: FiniteOML, cod: FiniteOML | None = None):
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

    total = m**n
    return np.concatenate([work(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)])


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


def product_lin_count(x1: FiniteOML, x2: FiniteOML) -> int:
    """|Lin(x1 x x2)| from its four Hom blocks:

        |Lin x1| * |Hom(x1, x2)| * |Hom(x2, x1)| * |Lin x2|.

    A finite product of complete lattices is also their coproduct for
    join-preserving maps, so such an f on x1 x x2 is fixed by its four
    components pi_j . f . iota_i : xi -> xj, and any four join-preserving
    components give one f.  It gives 16,848 = 2 * 6 * 6 * 234 for
    product(boolean:1,mo:2).
    """
    return lin_count(x1) * lin_count(x1, x2) * lin_count(x2, x1) * lin_count(x2)
