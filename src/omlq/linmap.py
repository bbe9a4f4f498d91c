"""Join-preserving maps between finite orthomodular lattices.

A map is a value row: entry x is the index of its value at x.  The
enumeration, the adjoint and the kernel splitting work on arrays of such
rows; LinMap wraps one row with its lattices for the single-map adjoint
and kernel commands and for map files.  Linearity here means the table
preserves the bottom element and binary joins, which over a finite lattice
is the same as preserving arbitrary joins.  Every such map has a unique
adjoint given by the closed formula

    dagger(f)(t) = complement of the join of { s | f(s) <= complement(t) }

and the pair satisfies f(x) orthogonal y iff x orthogonal dagger(f)(y).

lin_values enumerates all of them from their values on the
join-irreducibles J of the domain.  It assigns J one element at a time,
in a linear extension of the order, to a frontier of partial assignments,
and drops a partial assignment as soon as one join pair with both sides
fully assigned cannot hold any more; see its docstring for why that is
sound.  The frontier holds element indices of the codomain in the
narrowest unsigned dtype that fits them, one byte up to 256 elements;
lin_count counts its rows without sorting them.  The brute-force scan
over every value table is the oracle in goldens.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DomainMismatch, FrontierTooLarge
from .lattice import (
    CheckReport,
    FiniteOML,
    Law,
    SubOML,
    _JOIN_CELLS,
    breaks_joins,
    join_pairs,
    run_laws,
    sasaki_table,
)

DEFAULT_CAP = 100000
# Desk scale: the most candidate rows one step of lin_values may build.
BRUTEFORCE_LIMIT = 10_000_000


class LinMap:
    """Value table between two OMLs, for the single-map commands and map
    files.  Construction does not check linearity; is_linear does."""

    __slots__ = ("dom", "cod", "values")

    def __init__(self, dom: FiniteOML, cod: FiniteOML, values):
        self.dom = dom
        self.cod = cod
        self.values = tuple(int(v) for v in values)
        if len(self.values) != dom.n:
            raise DomainMismatch("value table length does not match the domain")
        if self.values and not all(0 <= v < cod.n for v in self.values):
            raise DomainMismatch("value table points outside the codomain")

    def __repr__(self):
        return f"LinMap{vector_label(self)}"


def vector_label(f: LinMap) -> str:
    """Canonical printable form: the value vector in codomain labels."""
    return "[" + ",".join(f.cod.label(v) for v in f.values) + "]"


def is_linear(f: LinMap) -> bool:
    """Bottom preservation plus the binary join test of join_pairs."""
    dom, cod, v = f.dom, f.cod, f.values
    return v[dom.bottom] == cod.bottom and not breaks_joins([v], join_pairs(dom), cod)[0]


def adjoint_rows(values, dom: FiniteOML, cod: FiniteOML) -> np.ndarray:
    """The adjoint of every row of values, each a value table dom -> cod:
    row r of the result is t -> c(V{s : values[r, s] <= c(t)}), a table
    cod -> dom, with c the complement of cod inside and of dom outside.
    The joins are folded over s in ascending order, from dom's bottom."""
    values = np.asarray(values)
    below = cod.leq_mat[:, cod.ortho]  # entry (v, t): v <= complement(t)
    adjoint = np.full((len(values), cod.n), dom.bottom, dtype=np.int32)
    for s in range(dom.n):
        hit = below[values[:, s]]
        adjoint[hit] = dom.join_tab[adjoint[hit], s]
    return dom.ortho[adjoint]


def dagger(f: LinMap) -> LinMap:
    """The unique adjoint, by the closed formula."""
    return LinMap(f.cod, f.dom, adjoint_rows([f.values], f.dom, f.cod)[0])


def verify_adjoint_pair(f: LinMap, h: LinMap, subject="adjoint-pair") -> CheckReport:
    """Check f(x) orthogonal y iff x orthogonal h(y), over all pairs."""
    if f.dom != h.cod or f.cod != h.dom:
        raise DomainMismatch("adjoint candidate runs between the wrong lattices")
    X, Y = f.dom, f.cod
    leq_x, leq_y = X.leq_mat, Y.leq_mat
    hop = X.ortho[np.array(h.values, dtype=np.int32)]
    return run_laws(subject, {"x": X.label, "y": Y.label}, [
        # entry y: f(x) orthogonal y against x orthogonal h(y)
        Law("adjoint-biconditional", lambda x: leq_y[f.values[x]][Y.ortho] != leq_x[x][hop],
            X.n, kinds="xy"),
    ])


# ---------------------------------------------------------------------------
# enumeration

def _below_joins(ext: np.ndarray, pairs, cod: FiniteOML) -> np.ndarray:
    """Per column of ext, a partial extension into cod (entry (x, c)):
    whether ext[y v k] <= ext[y] v ext[k] at every one of pairs.  Columns
    are read in blocks of about _JOIN_CELLS gathered cells; the flat
    indices x * m + v are formed in intp, as m * m need not fit ext's
    narrow dtype."""
    ys, ks, yk = pairs
    m, j_flat, l_flat = cod.n, cod.join_tab.ravel(), cod.leq_mat.ravel()
    ok = np.empty(ext.shape[1], dtype=bool)
    step = max(1, _JOIN_CELLS // len(ys))
    for lo in range(0, ext.shape[1], step):
        e = ext[:, lo : lo + step]
        at = np.take(e, ys, axis=0).astype(np.intp) * m
        joined = np.take(j_flat, at + np.take(e, ks, axis=0))
        at = np.take(e, yk, axis=0).astype(np.intp) * m
        ok[lo : lo + step] = np.take(l_flat, at + joined).all(axis=0)
    return ok


def _extend(ext: np.ndarray, allowed: np.ndarray, above, cod: FiniteOML) -> np.ndarray:
    """Column c of ext once for each v with allowed[c, v], in that order,
    with v joined in at the elements above."""
    rows, v = np.nonzero(allowed)
    ext = np.take(ext, rows, axis=1)
    del rows
    j_flat = cod.join_tab.ravel()
    # The intp indices are a step's largest arrays: one at a time, built
    # in place and freed before the next, keeps the peak low.
    for x in above:
        at = np.multiply(ext[x], cod.n, dtype=np.intp)
        at += v
        ext[x] = np.take(j_flat, at)
        del at
    return ext


def _frontier(dom: FiniteOML, cod: FiniteOML, cap: int | None):
    """The body of lin_values and lin_count: the frontier after its last
    step, unsorted, entry (x, c) the value at x of map c in the narrowest
    unsigned dtype that holds cod's indices; with J(dom) in assignment
    order and their rows of dom's order, from which the sort keys come."""
    if cap is None:
        cap = DEFAULT_CAP
    n, leq = dom.n, dom.leq_mat
    down = leq.sum(axis=0)
    irr = sorted(dom.join_irreducibles(), key=lambda j: (down[j], j))
    ready = np.full(n, -1)  # the step that assigns the last J below x
    for t, j in enumerate(irr):
        ready[leq[j]] = t
    up = leq[irr]  # entry (t, x): irr[t] below x
    ys, ks, yk = join_pairs(dom)
    live = (up[:, yk] & ~up[:, ys] & ~up[:, ks]).any(axis=0)
    pairs = ys[live], ks[live], yk[live]
    pair_ready = np.maximum(ready[pairs[0]], ready[pairs[1]])
    ext = np.full((n, 1), cod.bottom, dtype=np.min_scalar_type(cod.n - 1))
    for t, j in enumerate(irr):
        allowed = cod.leq_mat[ext[j]]  # entry (c, v): row c may take v at j
        count = np.count_nonzero(allowed)
        if count > BRUTEFORCE_LIMIT:
            raise FrontierTooLarge(BRUTEFORCE_LIMIT, f"step {t + 1} of {len(irr)} has {count} "
                                                     "candidate rows, beyond BRUTEFORCE_LIMIT")
        ext = _extend(ext, allowed, np.flatnonzero(leq[j]), cod)
        test = (pair_ready == t) | ((pair_ready < t) & leq[j, pairs[2]])
        if test.any():
            ext = np.compress(_below_joins(ext, [p[test] for p in pairs], cod), ext, axis=1)
    if ext.shape[1] > cap:
        raise CapExceeded(cap, f"{ext.shape[1]} join-preserving maps")
    return ext, irr, up


def lin_values(dom: FiniteOML, cod: FiniteOML | None = None, cap: int | None = None) -> np.ndarray:
    """Value tables of all join-preserving maps dom -> cod, one sorted row
    per map, as a C-contiguous int32 array.

    A join-preserving map is the extension x -> join of g over J(x) of its
    assignment g to the join-irreducibles J of dom, and an extension is
    such a map exactly when it restricts back to g and passes the join
    test of join_pairs.  J is assigned one element j at a time, in a
    linear extension of dom's order (by down-set size, then index), to a
    frontier of partial assignments.  Each row takes every value v above
    the join of its values on the J strictly below j, which is the
    restrict-back test.  Rows are then dropped at a pair (y, k) whose y
    and k have all of J below them assigned, when the partial extension at
    y v k is not below f(y) v f(k).  That is sound: the partial extension
    only grows as J is assigned, and f(y) v f(k) <= f(y v k) since the
    extension is monotone; by the same inequality, once J is assigned the
    test is the join test.  A pair is tested when it becomes assigned and
    again whenever j is below y v k; pairs where each J below y v k is
    below y or k hold by construction and are never tested.

    The frontier holds values in np.min_scalar_type(cod.n - 1), one byte
    up to 256 elements and two up to 65,536: every entry is an element
    index of cod, and the joins written into it are read from cod's join
    table, so they are indices too.  The gathers form their flat indices
    x * cod.n + v in intp, which the narrow dtype would overflow.  The
    rows are sorted by lexsort on the narrow columns x with some J below
    x at an index x or later: any other column is the join of earlier J
    columns, so it breaks no tie.  They are widened to int32 once, after
    the gather.

    Raises FrontierTooLarge, a CapExceeded, at a step whose candidate rows
    exceed BRUTEFORCE_LIMIT, before they are built; and CapExceeded,
    rather than returning a truncated array, beyond cap maps.
    """
    cod = dom if cod is None else cod
    ext, irr, up = _frontier(dom, cod, cap)
    keys = np.flatnonzero((up & (np.array(irr)[:, None] >= np.arange(dom.n))).any(axis=0))
    table = ext.T[np.lexsort(ext[keys[::-1]])] if len(keys) else ext.T  # one point: one map
    return np.ascontiguousarray(table, dtype=np.int32)


def lin_count(dom: FiniteOML, cod: FiniteOML | None = None, cap: int | None = None) -> int:
    """The number of join-preserving maps dom -> cod: the rows of
    lin_values, counted on the frontier without sorting or widening them.
    Refuses as lin_values does."""
    return _frontier(dom, dom if cod is None else cod, cap)[0].shape[1]


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class KernelData:
    """Kernel of a map: the largest element k it kills, the downset sub of
    k, whose members embed it, and the coembedding, the Sasaki projection
    at k as a row of sub's indices."""

    k: int
    sub: SubOML
    coembed: np.ndarray


def kernel_split(oml: FiniteOML, k: int):
    """The downset of k and the Sasaki projection at k corestricted to it:
    (sub, row) with row[x] the local index of the projection of x."""
    sub = SubOML(oml, k)
    return sub, sub.local[sasaki_table(oml)[k]]


def kernel(f: LinMap) -> KernelData:
    """Kernel as the downset of the complement of dagger(f) at the top."""
    k = int(f.dom.ortho[dagger(f).values[f.cod.top]])
    return KernelData(k, *kernel_split(f.dom, k))
