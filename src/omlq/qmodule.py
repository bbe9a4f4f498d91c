"""Quantale modules: complete lattices acted on by a quantale.

A left action q x L -> L must preserve joins in each argument separately
(including the empty join, so s . 0 = 0 and 0 . a = 0), compose with the
multiplication, and send the unit to the identity.  The tautological case
is the endomorphism quantale acting on its own lattice by application; the
derived case is a Foulis quantale acting on its projection lattice by
u . k = perp(perp(u * k)).

Every complete lattice is also a right module over the two-element
quantale {0, 1} by a . 1 = a, a . 0 = bottom; check_right_two_module
verifies those laws and their compatibility with a given left action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureViolation
from .foulis import FoulisQuantale, SasakiOML, sasaki_oml
from .lattice import CheckReport, FiniteLattice, FiniteOML, make_report
from .quantale import FinQuantale, QElementView, lin_quantale
from .scan import first_hit


@dataclass(frozen=True)
class ModuleAction:
    """A left action given as a dense value table.

    table[s, a] is the index of s acting on a; rows are indexed by
    quantale elements, columns by lattice elements.
    """

    quantale: FinQuantale
    lattice: FiniteLattice
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int32)
        if table.shape != (self.quantale.n, self.lattice.n):
            raise StructureViolation("action-table-shape")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def act(self, s: int, a: int) -> int:
        return int(self.table[s, a])


def lin_module(
    oml: FiniteOML,
    q: FinQuantale | None = None,
    view: QElementView | None = None,
    cap: int | None = None,
    workers: int = 1,
) -> ModuleAction:
    """The endomorphism quantale acting on its lattice by application."""
    if q is None or view is None:
        q, view = lin_quantale(oml, cap=cap, workers=workers)
    return ModuleAction(q, oml.lattice, view.values)


def sasaki_module(f: FoulisQuantale, sub: SasakiOML | None = None) -> ModuleAction:
    """A Foulis quantale acting on its projection lattice.

    u . k = perp(perp(u * k)); the double complement lands every product
    back in the projection image.
    """
    if sub is None:
        sub = sasaki_oml(f)
    q = f.base
    m = q.dense_mult()
    perp = f.sai[q.dense_star()]
    sel = np.array(sub.members, dtype=np.int32)
    acted = perp[perp[m[:, sel]]]
    local_of = np.full(q.n, -1, dtype=np.int32)
    local_of[sel] = np.arange(len(sub.members), dtype=np.int32)
    table = local_of[acted]
    if (table < 0).any():
        u, i = map(int, np.argwhere(table < 0)[0])
        raise StructureViolation(
            "action-escapes-projections", (q.label(u), q.label(int(sel[i])))
        )
    return ModuleAction(q, sub.oml.lattice, table)


def check_left_module(action: ModuleAction, subject="module", workers=1) -> CheckReport:
    """The left module laws, each scanned exhaustively.

    act-join      s . (a join b) = (s . a) join (s . b)
    act-bottom    s . 0 = 0
    join-act      (s join t) . a = (s . a) join (t . a)
    zero-act      0 . a = 0
    assoc-act     (u * v) . a = u . (v . a)
    unit-act      e . a = a
    """
    q, lat, table = action.quantale, action.lattice, action.table
    qn, ln = q.n, lat.n
    jq = q.carrier.join_tab
    jl = lat.join_tab
    mq = q.dense_mult()
    ar = np.arange(ln)

    def act_join(lo, hi):
        for s in range(lo, hi):
            row = table[s]
            bad = np.argwhere(row[jl] != jl[row[:, None], row[None, :]])
            if bad.size:
                a, b = map(int, bad[0])
                return (s, a, b)
        return None

    def act_bottom(lo, hi):
        bad = np.nonzero(table[lo:hi, lat.bottom] != lat.bottom)[0]
        return (lo + int(bad[0]),) if bad.size else None

    def join_act(lo, hi):
        for s in range(lo, hi):
            lhs = table[jq[s]]
            rhs = jl[table[s], table]
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                t, a = map(int, bad[0])
                return (s, t, a)
        return None

    def assoc_act(lo, hi):
        for u in range(lo, hi):
            lhs = table[mq[u]]
            rhs = table[u][table]
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                v, a = map(int, bad[0])
                return (u, v, a)
        return None

    zero_bad = np.nonzero(table[q.zero] != lat.bottom)[0]
    unit_bad = np.nonzero(table[q.unit] != ar)[0]

    def lab(w, kinds):
        if w is None:
            return None
        out = []
        for i, kind in zip(w, kinds):
            out.append(q.label(i) if kind == "q" else lat.label(i))
        return tuple(out)

    hits = [
        ("act-join", lab(first_hit(act_join, qn, workers), "qll")),
        ("act-bottom", lab(first_hit(act_bottom, qn, workers), "q")),
        ("join-act", lab(first_hit(join_act, qn, workers), "qql")),
        ("zero-act", lab((int(zero_bad[0]),) if zero_bad.size else None, "l")),
        ("assoc-act", lab(first_hit(assoc_act, qn, workers), "qql")),
        ("unit-act", lab((int(unit_bad[0]),) if unit_bad.size else None, "l")),
    ]
    return make_report(subject, hits)


def check_right_two_module(
    lat: FiniteLattice, left: ModuleAction | None = None, subject="two-module", workers=1
) -> CheckReport:
    """The canonical right action of the two-element quantale.

    a . 1 = a and a . 0 = bottom; multiplication on {0, 1} is meet and the
    unit is 1.  When a left action on the same lattice is supplied, the
    two actions must commute: (s . a) . t = s . (a . t).
    """
    n = lat.n
    bottom = lat.bottom
    acted = np.stack([np.full(n, bottom, dtype=np.int32), np.arange(n, dtype=np.int32)])
    # acted[t, a] = a . t

    def two_join_act(lo, hi):
        jl = lat.join_tab
        for a in range(lo, hi):
            for t1 in (0, 1):
                for t2 in (0, 1):
                    lhs = acted[t1 | t2, a]
                    rhs = jl[acted[t1, a], acted[t2, a]]
                    if lhs != rhs:
                        return (a, t1, t2)
        return None

    def act_two_join(lo, hi):
        jl = lat.join_tab
        for a in range(lo, hi):
            for b in range(n):
                for t in (0, 1):
                    if acted[t, jl[a, b]] != jl[acted[t, a], acted[t, b]]:
                        return (a, b, t)
        return None

    def two_assoc(lo, hi):
        for a in range(lo, hi):
            for t1 in (0, 1):
                for t2 in (0, 1):
                    if acted[t1 & t2, a] != acted[t2, acted[t1, a]]:
                        return (a, t1, t2)
        return None

    unit_bad = np.nonzero(acted[1] != np.arange(n))[0]
    zero_bad = np.nonzero(acted[0] != bottom)[0]

    def compat(lo, hi):
        table = left.table
        for s in range(lo, hi):
            for t in (0, 1):
                lhs = acted[t][table[s]]          # (s . a) . t
                rhs = table[s][acted[t]]          # s . (a . t)
                bad = np.nonzero(lhs != rhs)[0]
                if bad.size:
                    return (s, int(bad[0]), t)
        return None

    def lab(w, kinds):
        if w is None:
            return None
        out = []
        for i, kind in zip(w, kinds):
            if kind == "l":
                out.append(lat.label(i))
            elif kind == "q":
                out.append(left.quantale.label(i))
            else:
                out.append(str(i))
        return tuple(out)

    hits = [
        ("two-unit-act", lab((int(unit_bad[0]),) if unit_bad.size else None, "l")),
        ("two-zero-act", lab((int(zero_bad[0]),) if zero_bad.size else None, "l")),
        ("two-join-act", lab(first_hit(two_join_act, n, workers), "ltt")),
        ("act-two-join", lab(first_hit(act_two_join, n, workers), "llt")),
        ("two-assoc", lab(first_hit(two_assoc, n, workers), "ltt")),
    ]
    if left is not None:
        if left.lattice.signature != lat.signature:
            raise StructureViolation("bimodule-lattice-mismatch")
        hits.append(("bimodule-compat", lab(first_hit(compat, left.quantale.n, workers), "qlt")))
    return make_report(subject, hits)
