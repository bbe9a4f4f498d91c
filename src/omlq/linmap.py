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
    breaks_joins,
    downset_oml,
    join_pairs,
    rows,
    run_laws,
    sasaki_apply,
)

DEFAULT_CAP = 100000
# Desk scale: the most assignments of lin_values and codes of quantale.represents.
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
    """Bottom preservation plus the binary join test of join_pairs."""
    dom, cod, v = f.dom, f.cod, f.values
    return v[dom.bottom] == cod.bottom and not breaks_joins([v], join_pairs(dom), cod)[0]


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
    jc = f.cod.join_tab
    return LinMap(f.dom, f.cod, tuple(int(jc[a, b]) for a, b in zip(f.values, g.values)))


def dagger(f: LinMap) -> LinMap:
    """The unique adjoint, by the closed formula."""
    dom, cod = f.dom, f.cod
    leq = cod.leq_mat
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
    leq_x, leq_y = X.leq_mat, Y.leq_mat
    hop = X.ortho[np.array(h.values, dtype=np.int32)]
    # entry y: f(x) orthogonal y against x orthogonal h(y)
    biconditional = rows(lambda x: leq_y[f.values[x]][Y.ortho] != leq_x[x][hop])
    return run_laws(subject, {"x": X.label, "y": Y.label},
                    [Law("adjoint-biconditional", biconditional, X.n, kinds="xy")], workers)


# ---------------------------------------------------------------------------
# enumeration

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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: work(*b), bounds))
    else:
        parts = [work(*b) for b in bounds]
    return np.concatenate(parts)


def lin_values(
    dom: FiniteOML,
    cod: FiniteOML | None = None,
    cap: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Value tables of all join-preserving maps dom -> cod, one sorted row
    per map.

    Each assignment g of values to the join-irreducibles J of dom extends
    to the table x -> join of g over J(x).  Extensions that do not restrict
    back to g duplicate that of their restriction; the others that pass the
    join test of join_pairs are the join-preserving maps, each once.
    Raises CapExceeded, rather than returning a truncated array, beyond
    BRUTEFORCE_LIMIT assignments or cap maps.
    """
    cod = dom if cod is None else cod
    if cap is None:
        cap = default_cap()
    irr = dom.join_irreducibles()
    n, m, r = dom.n, cod.n, len(irr)
    if m**r > BRUTEFORCE_LIMIT:
        raise CapExceeded(cap, f"{m}^{r} generator assignments is beyond desk scale")
    above = [np.flatnonzero(dom.leq_mat[j]) for j in irr]
    jc = cod.join_tab
    pairs = join_pairs(dom, irr)

    def work(lo, hi):
        g = _decode(np.arange(lo, hi, dtype=np.int64), r, m)
        ext = np.full((n, hi - lo), cod.bottom, dtype=np.int32)  # entry (x, c): extension c at x
        for t in range(r):
            for x in above[t]:
                ext[x] = jc[ext[x], g[t]]
        keep = ~breaks_joins(ext.T, pairs, cod)  # before any copy, for peak memory
        for t, j in enumerate(irr):
            keep &= ext[j] == g[t]
        return ext[:, keep].T

    values = _chunked_codes(m**r, workers, work)
    values = values[np.lexsort(values.T[::-1])]
    if len(values) > cap:
        raise CapExceeded(cap, f"{len(values)} join-preserving maps")
    return values


def enumerate_lin(
    dom: FiniteOML,
    cod: FiniteOML | None = None,
    cap: int | None = None,
    workers: int = 1,
) -> list[LinMap]:
    """All join-preserving maps dom -> cod, sorted by value vector; the
    rows of lin_values as maps."""
    cod = dom if cod is None else cod
    values = lin_values(dom, cod, cap=cap, workers=workers)
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
