"""Join-preserving maps between finite orthomodular lattices.

A map is stored as a plain value table.  Linearity here means the table
preserves the bottom element and binary joins, which over a finite lattice
is the same as preserving arbitrary joins.  Every such map has a unique
adjoint given by the closed formula

    dagger(f)(t) = complement of the join of { s | f(s) <= complement(t) }

and the pair satisfies f(x) orthogonal y iff x orthogonal dagger(f)(y).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DomainMismatch, FormatError, StructureViolation
from .lattice import (
    CheckReport,
    FiniteOML,
    Law,
    SubOML,
    downset_oml,
    rows,
    run_laws,
    sasaki_apply,
)

DEFAULT_CAP = 100000
BRUTEFORCE_LIMIT = 10_000_000
_CHUNK = 1 << 16


def default_cap() -> int:
    """Enumeration cap; OMLQ_CAP, a positive integer, overrides it."""
    raw = os.environ.get("OMLQ_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise FormatError(f"OMLQ_CAP must be a positive integer, got {raw!r}")
    return cap


class LinMap:
    """Value table between two OMLs.

    Construction does not validate linearity (checkers need to hold
    arbitrary tables); use make_map for a validated constructor.
    """

    __slots__ = ("dom", "cod", "values", "_hash")

    def __init__(self, dom: FiniteOML, cod: FiniteOML, values):
        self.dom = dom
        self.cod = cod
        self.values = tuple(int(v) for v in values)
        if len(self.values) != dom.n:
            raise DomainMismatch("value table length does not match the domain")
        if self.values and not all(0 <= v < cod.n for v in self.values):
            raise DomainMismatch("value table points outside the codomain")
        self._hash = None

    def __call__(self, i: int) -> int:
        return self.values[i]

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.values == other.values
            and self.dom.signature == other.dom.signature
            and self.cod.signature == other.cod.signature
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.values, self.dom.signature[0], self.cod.signature[0]))
        return self._hash

    def __repr__(self):
        return f"LinMap{vector_label(self)}"


def vector_label(f: LinMap) -> str:
    """Canonical printable form: the value vector in codomain labels."""
    return "[" + ",".join(f.cod.label(v) for v in f.values) + "]"


def identity_map(oml: FiniteOML) -> LinMap:
    return LinMap(oml, oml, range(oml.n))


def bottom_map(dom: FiniteOML, cod: FiniteOML | None = None) -> LinMap:
    cod = dom if cod is None else cod
    return LinMap(dom, cod, [cod.bottom] * dom.n)


def is_linear(f: LinMap) -> bool:
    """Bottom preservation plus binary join preservation, all pairs."""
    dom, cod, v = f.dom, f.cod, f.values
    if v[dom.bottom] != cod.bottom:
        return False
    jd, jc = dom.lattice.join_tab, cod.lattice.join_tab
    for x in range(dom.n):
        for y in range(dom.n):
            if v[jd[x, y]] != jc[v[x], v[y]]:
                return False
    return True


def make_map(dom: FiniteOML, cod: FiniteOML, values) -> LinMap:
    f = LinMap(dom, cod, values)
    if not is_linear(f):
        raise StructureViolation("join-preserving", (vector_label(f),))
    return f


def compose(g: LinMap, f: LinMap) -> LinMap:
    """g after f."""
    if f.cod != g.dom:
        raise DomainMismatch("compose: inner codomain differs from outer domain")
    return LinMap(f.dom, g.cod, tuple(g.values[v] for v in f.values))


def join_maps(f: LinMap, g: LinMap) -> LinMap:
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("join_maps: maps live between different lattices")
    jc = f.cod.lattice.join_tab
    return LinMap(f.dom, f.cod, tuple(int(jc[a, b]) for a, b in zip(f.values, g.values)))


def dagger(f: LinMap) -> LinMap:
    """The unique adjoint, by the closed formula."""
    dom, cod = f.dom, f.cod
    leq = cod.lattice.leq_mat
    vals = []
    for t in range(cod.n):
        tp = cod.orthoc(t)
        below = [s for s in range(dom.n) if leq[f.values[s], tp]]
        vals.append(dom.orthoc(dom.join_set(below)))
    return LinMap(cod, dom, vals)


def verify_adjoint_pair(f: LinMap, h: LinMap, subject="adjoint-pair", workers=1) -> CheckReport:
    """Check f(x) orthogonal y iff x orthogonal h(y), over all pairs."""
    if f.dom != h.cod or f.cod != h.dom:
        raise DomainMismatch("adjoint candidate runs between the wrong lattices")
    X, Y = f.dom, f.cod
    leq_x, leq_y = X.lattice.leq_mat, Y.lattice.leq_mat
    hop = X.ortho[np.array(h.values, dtype=np.int32)]
    # entry y: f(x) orthogonal y against x orthogonal h(y)
    biconditional = rows(lambda x: leq_y[f.values[x]][Y.ortho] != leq_x[x][hop])
    return run_laws(subject, {"x": X.label, "y": Y.label},
                    [Law("adjoint-biconditional", biconditional, X.n, kinds="xy")], workers)


# ---------------------------------------------------------------------------
# enumeration

def _decode(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    """Mixed-radix decode; first element is the most significant digit,
    so numeric code order is lexicographic value-vector order."""
    out = np.empty((len(codes), n), dtype=np.int32)
    rest = codes.copy()
    for x in range(n - 1, -1, -1):
        out[:, x] = rest % m
        rest //= m
    return out


def _linear_mask(dom: FiniteOML, cod: FiniteOML, tables: np.ndarray) -> np.ndarray:
    """Rows that preserve bottom and binary joins.

    Pairs involving the bottom and the diagonal are implied once the bottom
    is preserved, and the condition is symmetric, so only x < y pairs away
    from bottom are scanned.
    """
    jd, jc = dom.lattice.join_tab, cod.lattice.join_tab
    ok = tables[:, dom.bottom] == cod.bottom
    for x in range(dom.n):
        if x == dom.bottom:
            continue
        for y in range(x + 1, dom.n):
            if y == dom.bottom:
                continue
            np.logical_and(
                ok, jc[tables[:, x], tables[:, y]] == tables[:, jd[x, y]], out=ok
            )
    return ok


def _chunked_codes(total: int, workers: int, work):
    bounds = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: work(*b), bounds))
    else:
        parts = [work(*b) for b in bounds]
    return np.concatenate(parts) if parts else np.empty((0, 0), dtype=np.int32)


def _bruteforce_values(dom, cod, workers):
    n, m = dom.n, cod.n

    def work(lo, hi):
        tables = _decode(np.arange(lo, hi, dtype=np.int64), n, m)
        return tables[_linear_mask(dom, cod, tables)]

    return _chunked_codes(m**n, workers, work)


def _irreducible_values(dom, cod, cap, workers):
    """Generate from join-irreducible assignments, then prune.

    A table extends an assignment g by sending x to the join of g over the
    irreducibles below x.  Extensions that do not restrict back to g would
    duplicate the extension of their own restriction and are dropped.
    """
    irr = dom.lattice.join_irreducibles()
    n, m, r = dom.n, cod.n, len(irr)
    if m**r > BRUTEFORCE_LIMIT:
        raise CapExceeded(cap, f"{m}^{r} generator assignments is beyond desk scale")
    below = [[t for t, j in enumerate(irr) if dom.le(j, x)] for x in range(n)]
    jc = cod.lattice.join_tab

    def work(lo, hi):
        g = _decode(np.arange(lo, hi, dtype=np.int64), r, m)
        full = np.empty((len(g), n), dtype=np.int32)
        for x in range(n):
            acc = np.full(len(g), cod.bottom, dtype=np.int32)
            for t in below[x]:
                acc = jc[acc, g[:, t]]
            full[:, x] = acc
        keep = np.ones(len(g), dtype=bool)
        for t, j in enumerate(irr):
            keep &= full[:, j] == g[:, t]
        full = full[keep]
        return full[_linear_mask(dom, cod, full)]

    found = _chunked_codes(m**r, workers, work)
    if len(found):
        found = found[np.lexsort(found.T[::-1])]
    return found


def lin_values(
    dom: FiniteOML,
    cod: FiniteOML | None = None,
    cap: int | None = None,
    strategy: str = "auto",
    workers: int = 1,
) -> np.ndarray:
    """Value tables of all join-preserving maps dom -> cod, one sorted row
    per map.

    Brute force over every value table when the table space is small
    enough, generation from join-irreducible assignments otherwise.  Raises
    CapExceeded rather than returning a truncated array.
    """
    cod = dom if cod is None else cod
    if cap is None:
        cap = default_cap()
    if strategy == "auto":
        strategy = "bruteforce" if cod.n**dom.n <= BRUTEFORCE_LIMIT else "irreducible"
    if strategy == "bruteforce":
        if cod.n**dom.n > BRUTEFORCE_LIMIT:
            raise CapExceeded(cap, f"{cod.n}^{dom.n} value tables is beyond desk scale")
        values = _bruteforce_values(dom, cod, workers)
    elif strategy == "irreducible":
        values = _irreducible_values(dom, cod, cap, workers)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if len(values) > cap:
        raise CapExceeded(cap, f"{len(values)} join-preserving maps")
    return values


def enumerate_lin(
    dom: FiniteOML,
    cod: FiniteOML | None = None,
    cap: int | None = None,
    strategy: str = "auto",
    workers: int = 1,
) -> list[LinMap]:
    """All join-preserving maps dom -> cod, sorted by value vector; the
    rows of lin_values as maps."""
    cod = dom if cod is None else cod
    values = lin_values(dom, cod, cap=cap, strategy=strategy, workers=workers)
    return [LinMap(dom, cod, row) for row in values.tolist()]


# ---------------------------------------------------------------------------
# kernels and Sasaki factorization

@dataclass(frozen=True)
class KernelData:
    """Kernel of a map: the largest element killed by it, its downset, and
    the splitting of the Sasaki projection through that downset."""

    k: int
    sub: SubOML
    embed: LinMap     # downset -> ambient, the inclusion
    coembed: LinMap   # ambient -> downset, the corestricted projection


def _sasaki_split(oml: FiniteOML, a: int):
    sub = downset_oml(oml, a)
    embed = LinMap(sub.oml, oml, sub.members)
    coembed = LinMap(
        oml, sub.oml, [sub.from_parent(sasaki_apply(oml, a, x)) for x in range(oml.n)]
    )
    return sub, coembed, embed


def factorize_sasaki(oml: FiniteOML, a: int):
    """Split the Sasaki projection at a through its image downset.

    Returns (coembed, embed) with embed after coembed the projection on the
    ambient lattice and coembed after embed the identity on the downset.
    """
    _, coembed, embed = _sasaki_split(oml, a)
    return coembed, embed


def kernel(f: LinMap) -> KernelData:
    """Kernel as the downset of the complement of dagger(f) at the top."""
    X = f.dom
    k = X.orthoc(dagger(f).values[f.cod.top])
    sub, coembed, embed = _sasaki_split(X, k)
    return KernelData(k=k, sub=sub, embed=embed, coembed=coembed)


def image(f: LinMap) -> tuple[int, ...]:
    return tuple(sorted(set(f.values)))


def is_dagger_mono(f: LinMap) -> bool:
    return compose(dagger(f), f) == identity_map(f.dom)


def is_dagger_iso(f: LinMap) -> bool:
    return is_dagger_mono(f) and compose(f, dagger(f)) == identity_map(f.cod)
