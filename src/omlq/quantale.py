"""Finite unital involutive quantales over an explicit carrier lattice.

The central instance is the endomorphism quantale of an OML: all
join-preserving endomaps under pointwise order, with composition as
multiplication and the adjoint as the involution.  Carrier joins of maps
are pointwise.  Carrier meets are not tabled: no law reads them, and the
lattice derives its meet table from the order if one is asked for.

The defined relations

    s <= t  iff  s = t * s          (leq_by_mult)
    s perp t  iff  star(s) * t = 0  (perp_by_star)

live on the quantale and are distinct from the carrier order.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, TableTooLarge
from .lattice import (
    CheckReport,
    FiniteLattice,
    FiniteOML,
    make_report,
)
from .linmap import (
    LinMap,
    bottom_map,
    identity_map,
    lin_values,
    vector_label,
)
from .scan import first_hit

# Bytes per element pair of a quantale's dense tables: a bool order plus
# int32 join and multiplication.  The reference machine has 7 GiB; hom
# holds two quantales of equal size and the checkers add row temporaries,
# so one quantale may take 3 GiB: Lin(mo:3) (13,376 elements, 1.61 GB) and
# Lin(product(boolean:1,mo:2)) (16,848 elements, 2.55 GB) fit, Lin(boolean:4)
# (65,536 elements, 38.7 GB) is refused.
TABLE_CELL_BYTES = 1 + 2 * 4
TABLE_BYTE_LIMIT = 3 << 30
_PAIR_CHUNK = 1 << 15


class FinQuantale:
    """Carrier lattice plus dense multiplication and involution tables.

    The zero element is the carrier bottom (the empty join).
    """

    def __init__(self, carrier: FiniteLattice, mult, star, unit: int):
        self.carrier = carrier
        self._mult = mult
        self._star = star
        self.unit = int(unit)
        self.zero = carrier.bottom

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def labels(self):
        return self.carrier.labels

    def label(self, i) -> str:
        return self.carrier.label(i)

    def index(self, label) -> int:
        return self.carrier.index(label)

    def times(self, i, j) -> int:
        return int(self._mult[i, j])

    def star_of(self, i) -> int:
        return int(self._star[i])

    def join(self, i, j) -> int:
        return self.carrier.join(i, j)

    def le(self, i, j) -> bool:
        return self.carrier.le(i, j)

    def dense_mult(self) -> np.ndarray:
        return self._mult

    def dense_star(self) -> np.ndarray:
        return self._star


class QElementView:
    """Order-preserving bijection between quantale indices and map tables.

    values is the read-only array of the maps' value tables, row i for
    map i.
    """

    def __init__(self, maps, values: np.ndarray):
        self.maps = tuple(maps)
        self.values = values
        self._by_values = {m.values: i for i, m in enumerate(self.maps)}

    @property
    def n(self) -> int:
        return len(self.maps)

    def map_at(self, i) -> LinMap:
        return self.maps[i]

    def index_of(self, values) -> int:
        if isinstance(values, LinMap):
            values = values.values
        try:
            return self._by_values[tuple(values)]
        except KeyError:
            raise FormatError(f"value table {values!r} is not a quantale element") from None

    def __contains__(self, values) -> bool:
        if isinstance(values, LinMap):
            values = values.values
        return tuple(values) in self._by_values


def leq_by_mult(q: FinQuantale, s: int, t: int) -> bool:
    """The defined order: s below t iff t * s = s."""
    return q.times(t, s) == s


def perp_by_star(q: FinQuantale, s: int, t: int) -> bool:
    """The defined orthogonality: star(s) * t = 0."""
    return q.times(q.star_of(s), t) == q.zero


def leq_by_mult_matrix(q: FinQuantale) -> np.ndarray:
    """Dense matrix of the defined order; entry (s, t) is s <= t."""
    m = q.dense_mult()
    return m.T == np.arange(q.n, dtype=m.dtype)[:, None]


def lin_quantale(oml: FiniteOML, cap: int | None = None, workers: int = 1):
    """The endomorphism quantale of an OML, with its element view.

    Elements are all join-preserving endomaps in canonical (value vector)
    order; multiplication of i and j composes map i after map j, the
    carrier join is pointwise and the involution is the adjoint.  A
    join-preserving map is determined by its values on the
    join-irreducibles J, and composites and pointwise joins of such maps
    preserve joins again, so each map is keyed by a mixed-radix int64 code
    of its values on J (oml.n ** |J| is within the enumeration limit, so no
    overflow) and every product and join is found by binary search over
    the sorted codes.  Codes are injective, so i <= j pointwise exactly
    when the join of i and j is j.  The adjoint of every map is computed
    on all of X at once, looked up by its code on J and confirmed on its
    full value row.  A code with no map, or an adjoint that differs from
    the map its code names, raises FormatError.  The carrier keeps no meet
    table (FiniteLattice builds one from the order if it is read).  Raises
    TableTooLarge, before any table is allocated, when the dense tables
    would exceed TABLE_BYTE_LIMIT.
    """
    values = lin_values(oml, oml, cap=cap, workers=workers)
    k = len(values)
    if k * k * TABLE_CELL_BYTES > TABLE_BYTE_LIMIT:
        raise TableTooLarge(
            f"a quantale of {k} elements needs {k * k * TABLE_CELL_BYTES} bytes "
            f"of dense tables, above the limit of {TABLE_BYTE_LIMIT} bytes"
        )
    values.setflags(write=False)
    maps = [LinMap(oml, oml, row) for row in values.tolist()]
    labels = [vector_label(m) for m in maps]
    view = QElementView(maps, values)
    unit = view.index_of(identity_map(oml))
    zero = view.index_of(bottom_map(oml))
    irr = oml.lattice.join_irreducibles()
    base = oml.n ** np.arange(len(irr) - 1, -1, -1, dtype=np.int64)
    on_irr = values[:, irr]
    codes = on_irr @ base
    order = np.argsort(codes)
    sorted_codes = codes[order]

    def lookup(code, what):
        pos = np.minimum(np.searchsorted(sorted_codes, code), k - 1)
        if (sorted_codes[pos] != code).any():
            raise FormatError(f"{what} is not enumerated")
        return order[pos]

    jx = oml.lattice.join_tab
    mult = np.empty((k, k), dtype=np.int32)
    join = np.empty((k, k), dtype=np.int32)
    for i in range(k):
        # entry j: code of map i after map j, and of the join of i and j
        mult[i] = lookup(values[i][on_irr] @ base, f"a composite of {labels[i]}")
        join[i] = lookup(jx[on_irr[i], on_irr] @ base, f"a join of {labels[i]}")
    leq = join == np.arange(k, dtype=np.int32)
    top = int(lookup(np.full(len(irr), oml.top) @ base, "the top map"))
    carrier = FiniteLattice(labels, leq, join, None, zero, top)
    mult.setflags(write=False)
    # dagger(f)(t) = complement of the join of {s : f(s) <= complement(t)}
    below = oml.lattice.leq_mat[:, oml.ortho]  # entry (x, t): x <= complement(t)
    adjoint = np.full((k, oml.n), oml.bottom, dtype=np.int32)
    for s in range(oml.n):
        hit = below[values[:, s]]
        adjoint[hit] = jx[adjoint[hit], s]
    adjoint = oml.ortho[adjoint]
    star = lookup(adjoint[:, irr] @ base, "an adjoint").astype(np.int32)
    bad = np.nonzero((values[star] != adjoint).any(axis=1))[0]
    if bad.size:
        raise FormatError(f"the adjoint of {labels[int(bad[0])]} is not enumerated")
    star.setflags(write=False)
    return FinQuantale(carrier, mult, star, unit), view


# ---------------------------------------------------------------------------
# law checking

def check_quantale(q: FinQuantale, subject="quantale", workers=1) -> CheckReport:
    """Associativity, unit, zero annihilation, and join distributivity.

    Distributivity over arbitrary joins reduces to the binary case plus the
    empty case (zero annihilation) in a finite quantale.

    The three cubic laws may be certified from the carrier's
    join-irreducibles J.  Write J(x) for the members of J below x; every x
    is the join of J(x), and J(0) is empty.

    (a) Left distributivity, x(y v z) = xy v xz, holds when
        (1) xy = V{iy : i in J(x)} for all x, y, and
        (2) i(y v z) = iy v iz for every i in J and all y, z.
        By (1), (2) and (1) again, x(y v z) = V_i i(y v z)
        = V_i (iy v iz) = xy v xz, using only that the carrier join is
        associative, commutative and idempotent.  Right distributivity is
        the mirror image: expand over J(y) in the second argument, and check
        the columns of J.
    (b) Associativity holds when both distributive laws and both zero laws
        hold, certified or scanned, and i(jk) = (ij)k for all i, j, k in J.
        Multiplication then preserves every finite join, the empty one
        included, in each argument, so (ab)c is the join of (ij)k over
        i in J(a), j in J(b), k in J(c), and a(bc) is the join of i(jk)
        over the same triples; the two joins agree term by term.

    A certificate of (a) reads at most |J| n^2 cells per law, fact (1) once
    per i below each row and fact (2) n^2 / 2 pairs per row of J, against
    the n^3 / 2 of the exhaustive scan, so certificates are tried only when
    2 |J| < n; (b) then costs |J|^3.  A certificate only ever certifies a
    pass: when one fails, its law runs the exhaustive scan, which reports
    the least witness.
    """
    m = q.dense_mult()
    j = q.carrier.join_tab
    n = q.n
    ar = np.arange(n)

    def assoc(lo, hi):
        for a in range(lo, hi):
            bad = np.argwhere(m[m[a]] != m[a][m])
            if bad.size:
                b, c = map(int, bad[0])
                return (a, b, c)
        return None

    def unit_left(lo, hi):
        bad = np.nonzero(m[q.unit][lo:hi] != ar[lo:hi])[0]
        return (lo + int(bad[0]),) if bad.size else None

    def unit_right(lo, hi):
        bad = np.nonzero(m[lo:hi, q.unit] != ar[lo:hi])[0]
        return (lo + int(bad[0]),) if bad.size else None

    def zero_left(lo, hi):
        bad = np.nonzero(m[q.zero][lo:hi] != q.zero)[0]
        return (lo + int(bad[0]),) if bad.size else None

    def zero_right(lo, hi):
        bad = np.nonzero(m[lo:hi, q.zero] != q.zero)[0]
        return (lo + int(bad[0]),) if bad.size else None

    irr = q.carrier.join_irreducibles()
    certify = 2 * len(irr) < n

    def expands(table):
        # fact (1): table[x, y] is the join of table[i, y] over i in J(x),
        # built in blocks of rows
        leq = q.carrier.leq_mat
        rows = max(1, _PAIR_CHUNK // n)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            acc = np.full((hi - lo, n), q.zero, dtype=table.dtype)
            for i in irr:
                above = np.flatnonzero(leq[i, lo:hi])
                acc[above] = j[acc[above], table[i]]
            if not np.array_equal(acc, table[lo:hi]):
                return False
        return True

    # Both distributive laws are symmetric in (y, z), as the carrier join
    # commutes, and hold at y = z, as joins are idempotent, so the least
    # witness has y < z and only those pairs are scanned, in row-major
    # order.  Flat int32 indices into the join table stay below n * n.
    # The pairs are built per law and rows are chunked, which keeps them
    # below the associativity scan's memory.
    j_flat = j.ravel()

    def distributes(table):
        # x * (y join z) = (x * y) join (x * z), with x * w read as
        # table[x, w] (m: left law, m.T: right law); witness (x, y, z)
        ys, zs = (a.astype(np.int32) for a in np.triu_indices(n, 1))
        j_yz = np.take(j_flat, ys * n + zs)

        def row_hit(x):
            act = table[x]
            for c in range(0, len(ys), _PAIR_CHUNK):
                part = slice(c, c + _PAIR_CHUNK)
                joined = np.take(j_flat, np.take(act, ys[part]) * n + np.take(act, zs[part]))
                bad = np.nonzero(np.take(act, j_yz[part]) != joined)[0]
                if bad.size:
                    k = c + int(bad[0])
                    return (x, int(ys[k]), int(zs[k]))
            return None

        def scan(lo, hi):
            for x in range(lo, hi):
                hit = row_hit(x)
                if hit is not None:
                    return hit
            return None

        if certify and expands(table) and not any(row_hit(i) for i in irr):
            return None
        return first_hit(scan, n, workers)

    def associates_on_irreducibles():
        # one |J| x |J| slice (ij)k against i(jk) per i in J
        js = np.array(irr, dtype=np.intp)
        ij = m[np.ix_(js, js)]
        return all(np.array_equal(m[ij[a][:, None], js], m[i][ij]) for a, i in enumerate(js))

    # associativity is reported first but decided last, from the others
    hits = {
        "associativity": None,
        "unit-left": first_hit(unit_left, n, workers),
        "unit-right": first_hit(unit_right, n, workers),
        "zero-left": first_hit(zero_left, n, workers),
        "zero-right": first_hit(zero_right, n, workers),
        "distributes-left": distributes(m),
        "distributes-right": distributes(m.T),
    }
    bilinear = not any(hits[ax] for ax in ("zero-left", "zero-right", "distributes-left",
                                           "distributes-right"))
    hits["associativity"] = (
        None if certify and bilinear and associates_on_irreducibles()
        else first_hit(assoc, n, workers)
    )
    named = [
        (ax, None if w is None else tuple(q.label(i) for i in w)) for ax, w in hits.items()
    ]
    return make_report(subject, named)


def check_involutive(q: FinQuantale, subject="involutive", workers=1) -> CheckReport:
    """Involution laws: period two, antihomomorphism, join and unit preservation."""
    m = q.dense_mult()
    s = q.dense_star()
    j = q.carrier.join_tab
    n = q.n
    ar = np.arange(n)

    def involution(lo, hi):
        bad = np.nonzero(s[s[lo:hi]] != ar[lo:hi])[0]
        return (lo + int(bad[0]),) if bad.size else None

    def antihom(lo, hi):
        # star(a * b) = star(b) * star(a), witness (a, b)
        for a in range(lo, hi):
            bad = np.nonzero(s[m[a]] != m[s, s[a]])[0]
            if bad.size:
                return (a, int(bad[0]))
        return None

    def star_join(lo, hi):
        # star(a join b) = star(a) join star(b), witness (a, b)
        for a in range(lo, hi):
            bad = np.nonzero(s[j[a]] != j[s[a]][s])[0]
            if bad.size:
                return (a, int(bad[0]))
        return None

    hits = [
        ("star-involution", first_hit(involution, n, workers)),
        ("star-antihomomorphism", first_hit(antihom, n, workers)),
        ("star-join", first_hit(star_join, n, workers)),
        ("star-zero", None if s[q.zero] == q.zero else (q.zero,)),
        ("unit-self-adjoint", None if s[q.unit] == q.unit else (q.unit,)),
    ]
    named = [
        (ax, None if w is None else tuple(q.label(i) for i in w)) for ax, w in hits
    ]
    return make_report(subject, named)
