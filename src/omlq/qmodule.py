"""Quantale modules: complete lattices acted on by a quantale.

A left action q x L -> L must preserve joins in each argument separately
(including the empty join, so s . 0 = 0 and 0 . a = 0), compose with the
multiplication, and send the unit to the identity.  The tautological case
is the endomorphism quantale acting on its own lattice by application; the
derived case is a Foulis quantale acting on its projection lattice by
u . k = perp(perp(u * k)), which sasaki_module builds from the rows of h,
the element view foulis.hom_h returns.

Every complete lattice is also a right module over the two-element
quantale {0, 1} by a . 1 = a, a . 0 = bottom; check_right_two_module
verifies those laws on a lattice, or on the lattice of a left action
together with their compatibility with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureViolation
from .foulis import FoulisQuantale
from .lattice import CheckReport, FiniteLattice, Law, cell_dtype, join_law, least, run_laws
from .quantale import FinQuantale, QElementView


@dataclass(frozen=True)
class ModuleAction:
    """A left action given as a dense value table.

    table[s, a] is the index of s acting on a; rows are indexed by
    quantale elements, columns by lattice elements, and every entry is a
    lattice element, kept in cells of cell_dtype(lattice.n).  view, when
    given, is an element view whose rows are the table on the lattice,
    which check_left_module tries as a certificate.
    """

    quantale: FinQuantale
    lattice: FiniteLattice
    table: np.ndarray
    view: QElementView | None = None

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.shape != (self.quantale.n, self.lattice.n):
            raise StructureViolation("action-table-shape")
        if table.min(initial=0) < 0 or table.max(initial=0) >= self.lattice.n:
            raise StructureViolation("action-table-range")
        table = table.astype(cell_dtype(self.lattice.n), copy=False)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def lin_module(q: FinQuantale) -> ModuleAction:
    """A quantale of maps acting on the host of q.view by application, as
    the endomorphism quantale acts on its lattice."""
    return ModuleAction(q, q.view.host, q.view.values, q.view)


def sasaki_module(f: FoulisQuantale, h: QElementView) -> ModuleAction:
    """A Foulis quantale acting on its projection lattice h.host by
    u . k = perp(perp(u * k)), with h = hom_h(f, sub) as table and view;
    the double complement lands every product back in the projection
    image."""
    return ModuleAction(f.base, h.host, h.values, h)


def module_reports(f: FoulisQuantale, h: QElementView) -> list[CheckReport]:
    """The module laws of both canonical actions, each with its right
    two-module: the endomorphism quantale f.base on its lattice by
    application, and the Foulis quantale f on its projection lattice, the
    second by h and its products pass."""
    lm = lin_module(f.base)
    sm = sasaki_module(f, h)
    return [
        check_left_module(lm, subject="lin-module"),
        check_left_module(sm, subject="sasaki-module"),
        check_right_two_module(lm, subject="two-module"),
        check_right_two_module(sm, subject="projection-two-module"),
    ]


def check_left_module(action: ModuleAction, subject="module") -> CheckReport:
    """The left module laws of an action of q on a lattice L.

    act-join      s . (a join b) = (s . a) join (s . b)
    act-bottom    s . 0 = 0
    join-act      (s join t) . a = (s . a) join (t . a)
    zero-act      0 . a = 0
    assoc-act     (u * v) . a = u . (v . a)
    unit-act      e . a = a

    act-join is the join_law of the table on L, so L's join table must
    be a semilattice operation.  join-act and assoc-act hold when act-join
    and act-bottom hold, action.view has L itself as host and the table as
    its rows, and q.preserved_by(view) has no hit.  Every row is then a
    join-preserving map that sends 0 to 0, and so are pointwise joins and
    composites of rows; two such maps that agree on J(L) agree on all of
    L, as each x is the join of J(x).  The pass compares the codes on J(L)
    of row s v t and of rows s and t joined, and of row u * v and of row u
    after row v; a code that names no element reads -1, a hit.  This
    certificate only certifies a pass: on any hit or decline both laws are
    scanned exhaustively.
    """
    q, lat, table = action.quantale, action.lattice, action.table
    jq, jl, mq = q.carrier.join_tab, lat.join_tab, q.dense_mult()
    act_join = join_law("act-join", table, lat, kinds="qll")
    bottom = least(table[:, lat.bottom] != lat.bottom)
    view = action.view
    certified = (act_join.hit is None and bottom is None and view is not None
                 and view.host is lat and np.array_equal(view.values, table)
                 and q.preserved_by(view) == (None, None))
    return run_laws(subject, {"q": q.label, "l": lat.label}, [
        act_join,
        Law("act-bottom", hit=bottom, kinds="q"),
        Law("join-act", None if certified else lambda s: table[jq[s]] != jl[table[s], table],
            q.n, kinds="qql"),
        Law("zero-act", hit=least(table[q.zero] != lat.bottom), kinds="l"),
        Law("assoc-act", None if certified else lambda u: table[mq[u]] != table[u][table],
            q.n, kinds="qql"),
        Law("unit-act", hit=least(table[q.unit] != np.arange(lat.n)), kinds="l"),
    ])


def check_right_two_module(on: FiniteLattice | ModuleAction, subject="two-module") -> CheckReport:
    """The canonical right action of the two-element quantale on a lattice,
    or on the lattice of a left action.

    a . 1 = a and a . 0 = bottom; multiplication on {0, 1} is meet and the
    unit is 1.  The action table is built from these two rules, so
    two-unit-act, two-zero-act and two-assoc hold by construction; they
    stay listed, which keeps the payload.  When on is a left action, the
    two actions must commute: (s . a) . t = s . (a . t).
    """
    left = None if isinstance(on, FiniteLattice) else on
    lat = on if left is None else left.lattice
    n = lat.n
    bottom = lat.bottom
    jl = lat.join_tab
    acted = np.stack([np.full(n, bottom, dtype=np.int32), np.arange(n, dtype=np.int32)])
    # acted[t, a] = a . t; witnesses (a, t1, t2) run over a, then t1, then t2
    a, t1, t2 = np.arange(n)[:, None, None], *np.indices((2, 2))
    laws = [
        Law("two-unit-act", hit=least(acted[1] != np.arange(n)), kinds="l"),
        Law("two-zero-act", hit=least(acted[0] != bottom), kinds="l"),
        Law("two-join-act", hit=least(acted[t1 | t2, a] != jl[acted[t1, a], acted[t2, a]]),
            kinds="ltt"),
        # entry (b, t): (a join b) . t against (a . t) join (b . t)
        Law("act-two-join", lambda a: (acted[:, jl[a]] != jl[acted[:, a, None], acted]).T,
            n, kinds="llt"),
        Law("two-assoc", hit=least(acted[t1 & t2, a] != acted[t2, acted[t1, a]]), kinds="ltt"),
    ]
    label = {"l": lat.label, "t": str}
    if left is not None:
        table = left.table
        # entry (s, t, a): (s . a) . t against s . (a . t); witness (s, a, t)
        w = least(acted[:, table].transpose(1, 0, 2) != table[:, acted])
        laws.append(Law("bimodule-compat", hit=w and (w[0], w[2], w[1]), kinds="qlt"))
        label["q"] = left.quantale.label
    return run_laws(subject, label, laws)
