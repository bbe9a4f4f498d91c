"""Finite unital involutive quantales over an explicit carrier lattice.

The central instance is the endomorphism quantale of an OML: all
join-preserving endomaps under pointwise order, with composition as
multiplication and the adjoint as the involution.  Carrier joins of maps
are pointwise.  The carrier keeps only its join table: no law reads its
order or meets, which the lattice derives from the join if asked.  Such
a quantale keeps its elements' maps as its representation phi, an
element view, and check_quantale decides associativity and both
distributive laws through it: composition is associative, and composites
and pointwise joins of join-preserving maps distribute.  Quantales from
other sources carry no view and are decided from their tables alone.

The defined relations

    s <= t  iff  s = t * s
    s perp t  iff  star(s) * t = 0

live on the quantale and are distinct from the carrier order.  They are
read off the multiplication table: the order as m[t, s] == s by
foulis.sasaki_oml, which builds the projection lattice from it, and both
relations by foulis.check_star_props.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import FormatError, TableTooLarge
from .lattice import (
    CheckReport,
    FiniteLattice,
    FiniteOML,
    Law,
    cell_dtype,
    join_law,
    least,
    nonadditive_row,
    run_laws,
)
from .linmap import adjoint_rows, lin_values

# The reference machine has 7 GiB; a run builds one dense quantale and the
# checkers add row temporaries, so its tables may take 3 GiB:
# Lin(mo:3) (13,376 elements, 0.89 GB) and Lin(product(boolean:1, mo:2))
# (16,848 elements, 1.42 GB) fit, and so does any quantale of up to 25,381
# elements; Lin(boolean:4) (65,536 elements, 38.7 GB) is refused.
TABLE_BYTE_LIMIT = 3 << 30
_PAIR_CHUNK = 1 << 15


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def table_cell_bytes(k) -> int:
    """Bytes per element pair of a k-element quantale's dense tables: a
    bool order plus join and multiplication cells of cell_dtype(k).  The
    carrier builds its order on first read, but JSON emission
    (serialize._strict_pairs), DOT covers() and the path without a view
    (join_pairs) read it, so the rule counts it."""
    return 1 + 2 * cell_dtype(k).itemsize


class FinQuantale:
    """Carrier lattice plus dense multiplication and involution tables.

    The zero element is the carrier bottom (the empty join).  view, when
    given, is a representation phi on the host OML X = view.host: row a of
    view.values, one row per element, is the value table of the map phi(a)
    on X.  check_quantale tries it as a certificate, and certified_view
    extends it to the involution and the annihilator laws; lin_quantale
    passes the view it built.
    """

    def __init__(self, carrier: FiniteLattice, mult, star, unit: int,
                 view: QElementView | None = None):
        self.carrier = carrier
        self._mult = mult
        self._star = star
        self.unit = int(unit)
        self.zero = carrier.bottom
        self.view = view
        self._passes = {}

    @property
    def n(self) -> int:
        return self.carrier.n

    def label(self, i) -> str:
        return self.carrier.label(i)

    def dense_mult(self) -> np.ndarray:
        return self._mult

    def dense_star(self) -> np.ndarray:
        return self._star

    @cached_property
    def represented(self) -> bool:
        """represents(self), decided once: check_quantale and
        certified_view both read it."""
        return represents(self)

    @cached_property
    def certified_view(self) -> QElementView | None:
        """q.view when it certifies the involution, else None.

        With phi the representation of the view, X its host and c the
        complement of X, it needs all of:
        - represented;
        - phi(zero) the zero map and phi(unit) the identity of X, as row
          tests (represents does not imply them);
        - c an order-reversing involution of X;
        - star equal to view.adjoints: phi(star(a)) = A(phi(a)) for
          every a, where A(f)(y) = c(V{s : f(s) <= c(y)}).

        Every phi(a) preserves all joins (represents (i)), so it has the
        right adjoint f_*(y) = V{s : f(s) <= y}: f(s) <= y iff s <= f_*(y).
        Then A(f) = c o f_* o c, and f(x) <= c(y) iff x <= c(A(f)(y)).  As
        a <= c(b) iff b <= c(a), that relation is symmetric in f and A(f),
        so A(A(f)) = f and star is an involution.  c(1) = 0, so A(f)(1) =
        c(f_*(0)), and f(x) = 0 iff x <= c(A(f)(1)).  check_involutive,
        check_foulis and check_star_props certify their row laws from
        these facts.
        """
        if not self.represented:
            return None
        view = self.view
        x, values = view.host, view.values
        c, ar = x.ortho, np.arange(x.n)
        if ((values[self.zero] != x.bottom).any() or (values[self.unit] != ar).any()
                or (c[c] != ar).any() or not np.array_equal(x.leq_mat[np.ix_(c, c)], x.leq_mat.T)):
            return None
        try:
            adjoints = view.adjoints
        except FormatError:  # an adjoint that is no element
            return None
        return view if np.array_equal(adjoints, self._star) else None

    def record_pass(self, view: QElementView):
        """Record that preserved_by(view) has no hit; the caller has proved
        it."""
        self._passes[view] = (None, None)

    def preserved_by(self, view: QElementView):
        """With idx[u] the element of view that row u of view.values is, the
        least (u, v) with idx[u * v] not the element idx[u] o idx[v], and
        the least with idx[u v v] not idx[u] v idx[v], or None.  One
        view.products pass over idx in ascending blocks up to both hits,
        memoized per view; a code naming no element reads -1, a hit."""
        if view not in self._passes:
            idx = view.elements
            hits = [None, None]
            for a, *prods in view.products(idx):
                for k, tab in enumerate((self._mult, self.carrier.join_tab)):
                    if hits[k] is None and (w := least(idx[tab[a]] != prods[k][:, idx])):
                        hits[k] = (a.start + w[0], w[1])
                if all(hits):
                    break
            self._passes[view] = tuple(hits)
        return self._passes[view]


class QElementView:
    """The J-code index of a quantale of join-preserving maps on a host OML X.

    values is the read-only array of the maps' value tables, row i for
    element i.  A join-preserving map is fixed by its values on J(X), the
    join-irreducibles: each x is the join of J(x).  A row's code reads its
    values on J(X) as a base-|X| number, in a high and a low half code.
    The codes' dense inverse has |X|^|J(X)| entries, 262,144 on mo:3, and
    nothing but the host bounds it; it is -1 where no row has the code,
    and find confirms each row on all of X.
    Elements are value rows only: products gives composites and joins,
    find and indices the element of a row.  elements, adjoints (the star)
    and projections are read off the rows once and kept read-only; a read
    that raises FormatError keeps nothing.
    """

    def __init__(self, host: FiniteOML, values: np.ndarray):
        self.host = x = host
        self.values = values
        irr = x.join_irreducibles()
        cut = (len(irr) + 1) // 2
        self._halves = [irr[:cut], irr[cut:]]
        self._weights = [x.n ** np.arange(len(h) - 1, -1, -1, dtype=np.int32)
                         for h in self._halves]
        # the digits of every half code, in code order
        self._digits = [np.indices((x.n,) * len(h)).reshape(len(h), x.n ** len(h)).T
                        for h in self._halves]
        self._shift = x.n ** (len(irr) - cut)
        self._part = self._half_codes(values)
        self._inverse = np.full(x.n ** len(irr), -1, dtype=np.int32)
        self._inverse[self._part[0] * self._shift + self._part[1]] = np.arange(len(values))

    def _half_codes(self, rows):
        return [rows[:, h] @ w for h, w in zip(self._halves, self._weights)]

    def _mapped(self, tables):
        # tables[i][r, c]: the code of half i that row r sends half code c
        # to; entry (r, b) is the element whose code row r sends that of b to
        out = tables[0][:, self._part[0]]
        out *= self._shift
        out += tables[1][:, self._part[1]]
        return self._inverse[out]

    def products(self, idx=None):
        """Per block of the rows idx (default: all): a slice a of idx, and the
        elements whose codes phi(i) o phi(b) and phi(i) v phi(b) take, or -1,
        for i in idx[a] and every b."""
        idx = np.arange(self.n) if idx is None else np.asarray(idx)
        jx = self.host.join_tab
        # a block holds at most four int32 arrays of its rows by every b
        step = max(1, _PAIR_CHUNK // (4 * self.n))
        for lo in range(0, len(idx), step):
            a = slice(lo, lo + step)
            rows = self.values[idx[a]]
            applied = [rows[:, d] @ w for d, w in zip(self._digits, self._weights)]
            joined = [jx[rows[:, h][:, None, :], d] @ w
                      for h, d, w in zip(self._halves, self._digits, self._weights)]
            yield a, self._mapped(applied), self._mapped(joined)

    @cached_property
    def elements(self) -> np.ndarray:
        """find of the rows themselves: entry i is i for every i exactly
        when the rows are distinct."""
        return _frozen(self.find(self.values))

    @property
    def distinct(self) -> bool:
        """Whether every row is found at its own index: for join-preserving
        rows, whether no two are equal."""
        return np.array_equal(self.elements, np.arange(self.n))

    @cached_property
    def adjoints(self) -> np.ndarray:
        """Element index of each row's adjoint: dagger(f)(t) = (V{s : f(s) <= t'})'."""
        return _frozen(self.indices(adjoint_rows(self.values, self.host, self.host)))

    @cached_property
    def projections(self) -> np.ndarray:
        """Element index of the Sasaki projection at each a of the host."""
        return _frozen(self.indices(self.host.sasaki_tab))

    def find(self, rows) -> np.ndarray:
        """The element index of each value row, -1 for a row that is none."""
        rows = np.asarray(rows)
        part = self._half_codes(np.clip(rows, 0, self.host.n - 1))
        found = self._inverse[part[0] * self._shift + part[1]]
        found[(self.values[found] != rows).any(axis=1)] = -1
        return found

    def indices(self, rows) -> np.ndarray:
        """find, raising FormatError at the first row that is no element."""
        found = self.find(rows)
        if (found < 0).any():
            row = np.asarray(rows)[found.argmin()].tolist()
            raise FormatError(f"value table {row} is not a quantale element")
        return found

    @property
    def n(self) -> int:
        return len(self.values)


def lin_quantale(oml: FiniteOML, cap: int | None = None):
    """The endomorphism quantale of an OML, and its element view q.view.

    Elements are all join-preserving endomaps in canonical (value vector)
    order; multiplication of i and j composes map i after map j, the
    carrier join is pointwise and the involution is the adjoint.  The view
    is the J-code index of the maps.  Composites and pointwise joins of
    join-preserving maps preserve joins, so each is the element its code
    names (QElementView.products); i <= j exactly when i v j is j.  The
    unit, zero and top maps and every adjoint are found as whole rows.  A
    code or row that is no element raises FormatError.  No map object is
    built, and the carrier keeps only its join table.  mult and that join
    have cells of cell_dtype(k).  The quantale carries the view as its
    representation q.view.  Raises TableTooLarge, before any table is
    allocated, when the dense tables would exceed TABLE_BYTE_LIMIT.
    """
    values = lin_values(oml, oml, cap=cap)
    k = len(values)
    need = k * k * table_cell_bytes(k)
    if need > TABLE_BYTE_LIMIT:
        raise TableTooLarge(
            f"a quantale of {k} elements needs {need} bytes "
            f"of dense tables, above the limit of {TABLE_BYTE_LIMIT} bytes"
        )
    values.setflags(write=False)
    view = QElementView(oml, values)
    lab = oml.labels
    labels = ["[" + ",".join(lab[v] for v in row) + "]" for row in values.tolist()]
    ar = np.arange(oml.n)
    top_map = np.where(ar == oml.bottom, oml.bottom, oml.top)
    unit, zero, top = view.indices([ar, np.full_like(ar, oml.bottom), top_map])
    mult = np.empty((k, k), dtype=cell_dtype(k))
    join = np.empty((k, k), dtype=cell_dtype(k))
    for a, applied, joined in view.products():
        if (applied < 0).any() or (joined < 0).any():
            raise FormatError("a composite or join is not enumerated")
        mult[a], join[a] = applied, joined
    carrier = FiniteLattice(labels, join, int(zero), int(top))
    mult.setflags(write=False)
    q = FinQuantale(carrier, mult, view.adjoints, unit, view)
    # the tables are that pass's products, so preserved_by(view) would find
    # no hit
    q.record_pass(view)
    # (q, view), as in foulis_from_lin: perfbench/replay.py's hooks read r[0]
    return q, view


# ---------------------------------------------------------------------------
# law checking

def represents(q: FinQuantale) -> bool:
    """Whether q.view is a certificate in the sense of (c) in check_quantale.

    A quantale without a view has none.  (i) is read as a zero column, the
    row test of nonadditive_row on the host, and distinct codes: the index
    finds every row at its own position.  (ii) and (iii) are the pass of
    FinQuantale.preserved_by(view), which as codes are distinct is a
    comparison of codes; q memoizes it per view, and lin_quantale records
    the pass its build made.
    """
    view = q.view
    if view is None:
        return False
    x, values = view.host, view.values
    if ((values[:, x.bottom] != x.bottom).any()
            or nonadditive_row(values, x) is not None):
        return False
    return view.n == q.n and view.distinct and q.preserved_by(view) == (None, None)


# workers is unread, kept while perfbench/replay.py passes it (ROADMAP item 3b)
def check_quantale(q: FinQuantale, workers=1) -> CheckReport:
    """Associativity, unit, zero annihilation, and join distributivity.

    Distributivity over arbitrary joins reduces to the binary case plus the
    empty case (zero annihilation) in a finite quantale.

    The three cubic laws may be decided from the carrier's
    join-irreducibles J.  Write J(z) for the members of J below z; every z
    is the join of J(z), and J(0) is empty.

    (a) Lemma: a map f on the carrier preserves binary joins exactly when
        f(y v i) = f(y) v f(i) for every y and every i in J not below y.
        Only the converse needs proof.  First, f(0) <= f(i) <= f(y) for
        i in J(y): join the members of J(y) into 0 one at a time, i first.
        A member below the running join w leaves w unchanged; any other
        step is an instance of the premise, f(w v k) = f(w) v f(k), so f
        never decreases along the way from 0 through i to y.  Second, join
        the members of J(z) into y one at a time.  A member k below the
        running join w has f(k) <= f(w) by the first part; any other step
        is an instance of the premise; either way f(w v k) = f(w) v f(k).
        So f(y v z) = f(y) v V f(J(z)), and y = 0 gives f(z) =
        f(0) v V f(J(z)); as f(0) <= f(y), f(y v z) = f(y) v f(z).
        Left distributivity says that every row x -> x * w of the table
        preserves binary joins, right distributivity the same of every
        column, so a row passes the lemma's test exactly when it holds no
        witness.  The least row that fails the test is therefore the row of
        the least witness, and the y < z scan of that one row finds it.
    (b) Associativity holds when both distributive laws and both zero laws
        hold, and i(jk) = (ij)k for all i, j, k in J.  Multiplication then
        preserves every finite join, the empty one included, in each
        argument, so (ab)c is the join of (ij)k over i in J(a), j in J(b),
        k in J(c), and a(bc) is the join of i(jk) over the same triples;
        the two joins agree term by term.
    (c) A representation q.view maps each a to a map phi(a) on a host
        lattice X with join-irreducibles J(X).  It certifies associativity
        and both distributive laws when
        (i) every phi(a) preserves joins, phi(a)(0) = 0 included, and no
            two of them agree on J(X);
        (ii) phi(a * b)(i) = phi(a)(phi(b)(i)) for all a, b and i in J(X);
        (iii) phi(a v b)(i) = phi(a)(i) v phi(b)(i) for all a, b and i in
            J(X), with v on the left the carrier join.
        Two join-preserving maps that agree on J(X) are equal, as each x is
        the join of J(x) and both send the empty join to 0.  Composites
        and pointwise joins of join-preserving maps preserve joins, so
        (ii) and (iii) hold on all of X, and by (i) phi is injective.
        Then phi((ab)c) = phi(a) o phi(b) o phi(c) = phi(a(bc)) gives
        associativity.  phi(a(b v c)) = phi(a) o (phi(b) v phi(c)) =
        phi(ab) v phi(ac) = phi(ab v ac), as phi(a) preserves binary
        joins, gives left distributivity, and phi((b v c)a) = phi(ba) v
        phi(ca) = phi(ba v ca), as the join is pointwise, gives right
        distributivity.  The binary half of (i) is the test of (a), applied
        to the rows of phi on X.

    (c) is tried first when q.view is present; it reads each cell of the
    multiplication and join tables once, and the unit and zero laws keep
    their vector comparisons.  Otherwise, or when (c) fails, each
    distributive law is the join_law of the table (m for the left law, its
    transpose for the right) on the carrier: the row test of (a) and a
    y < z scan of the one row it names.  Once both distributive and both
    zero laws hold, (b) costs |J|^3.  The certificates only ever certify a
    pass: when (b) fails, associativity runs the exhaustive scan, which
    reports the least witness.

    Without a view the carrier's join table is assumed to be a semilattice
    operation, as join_law states.  _order_tables, lin_quantale and SubOML
    build one from a validated order, pointwise joins and the parent's
    table; FiniteLattice accepts any.
    """
    m = q.dense_mult()
    n = q.n
    ar = np.arange(n)
    linear = [
        Law("unit-left", hit=least(m[q.unit] != ar)),
        Law("unit-right", hit=least(m[:, q.unit] != ar)),
        Law("zero-left", hit=least(m[q.zero] != q.zero)),
        Law("zero-right", hit=least(m[:, q.zero] != q.zero)),
    ]
    if q.represented:
        laws = [Law("associativity"), *linear, Law("distributes-left"), Law("distributes-right")]
        return run_laws("quantale", q.label, laws)
    laws = [
        *linear,
        join_law("distributes-left", m, q.carrier),
        join_law("distributes-right", m.T, q.carrier),
    ]

    def associates_on_irreducibles():
        # one |J| x |J| slice (ij)k against i(jk) per i in J
        js = np.array(q.carrier.join_irreducibles(), dtype=np.intp)
        ij = m[np.ix_(js, js)]
        return all(np.array_equal(m[ij[a][:, None], js], m[i][ij]) for a, i in enumerate(js))

    # associativity is reported first but decided last, from the zero and
    # distributive laws
    if all(law.hit is None for law in laws[2:]) and associates_on_irreducibles():
        assoc = Law("associativity")
    else:
        assoc = Law("associativity", lambda a: m[m[a]] != m[a][m], n)
    return run_laws("quantale", q.label, [assoc, *laws])


def check_involutive(q: FinQuantale) -> CheckReport:
    """Involution laws: period two, antihomomorphism, join and unit preservation.

    When q.certified_view is a view, star-antihomomorphism and star-join
    hold and are not scanned.  With A the adjoint map of certified_view,
    (f o g)_* = g_* o f_*, as f(g(x)) <= y iff g(x) <= f_*(y) iff
    x <= g_*(f_*(y)); with c o c the identity, A(f o g) = A(g) o A(f).
    (f v g)_* = f_* meet g_* pointwise, as (f v g)(x) <= y iff both
    f(x) <= y and g(x) <= y, and c, an order-reversing involution, takes
    meets to joins, so A(f v g) = A(f) v A(g).  By represents (ii) and
    (iii) and star = A on phi, phi(star(a * b)) = A(phi(a) o phi(b)) =
    phi(star(b)) o phi(star(a)) = phi(star(b) * star(a)), and likewise
    phi(star(a v b)) = phi(star(a) v star(b)).  phi is injective, so both
    laws hold.  The other laws keep their vector comparisons; on a decline
    both laws are scanned, so witnesses are the scan's.
    """
    m = q.dense_mult()
    s = q.dense_star()
    j = q.carrier.join_tab
    n = q.n
    certified = q.certified_view is not None
    return run_laws("involutive", q.label, [
        Law("star-involution", hit=least(s[s] != np.arange(n))),
        # star(a * b) = star(b) * star(a), witness (a, b)
        Law("star-antihomomorphism",
            None if certified else lambda a: s[m[a]] != m[s, s[a]], n),
        # star(a join b) = star(a) join star(b), witness (a, b)
        Law("star-join", None if certified else lambda a: s[j[a]] != j[s[a]][s], n),
        Law("star-zero", hit=None if s[q.zero] == q.zero else (q.zero,)),
        Law("unit-self-adjoint", hit=None if s[q.unit] == q.unit else (q.unit,)),
    ])
