"""Finite bounded lattices and orthomodular lattices as dense tables.

Elements are indexed 0..n-1 in input order.  A lattice is stored as its
join table alone; the order (x <= y iff x v y = y, a dense boolean
matrix) and the meet table are derived on first use, so law checking and
Sasaki arithmetic reduce to table lookups.  Every dense table of element
indices, here and in the quantale, module and file layers, has cells of
cell_dtype(n).  An order read as pairs may list covering pairs or the full
order, and its reflexive-transitive closure is recomputed; an order
matrix is checked as given, by lattice_from_leq.

Every exhaustive checker states its laws as Law values and hands them to
run_laws, which decides them in order and labels each least witness.  A
law over a linear range is one vector comparison, decided on the spot
with least(); a law with a row of witnesses per outer index gives a
per-row mask, which run_laws scans row by row in ascending order on the
calling thread up to the first row with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable

import numpy as np

from .errors import FormatError, NotALattice, NotAPoset, TableTooLarge


def cell_dtype(n) -> np.dtype:
    """The cell type of a dense table of indices into n elements: int16
    while n <= 2**15, so every index and the -1 of a missing one fit, and
    int32 beyond.  Arithmetic on cells, such as a flat index x * n + y,
    must widen them first."""
    return np.dtype(np.int16 if n <= 1 << 15 else np.int32)


# Rows of a that bool_product multiplies at once: BLAS runs blocks of 128
# rows about as fast as the whole product, and the block of a 512-element
# order takes a quarter of its float32 copy.
_PRODUCT_ROWS = 128


def bool_product(a, b) -> np.ndarray:
    """Boolean matrix product: entry (i, j) is whether a[i, k] and b[k, j]
    for some k.

    Computed through BLAS as a float32 product of 0/1 matrices.  Every
    entry counts at most a.shape[1] < 2**24 paths, and float32 holds every
    such count exactly, so the result is exact.  b is converted once and a
    in blocks of _PRODUCT_ROWS rows, so a square a @ a holds one float32
    copy of a.
    """
    fb = b.astype(np.float32)
    fa = fb if b is a else a
    out = np.empty((a.shape[0], b.shape[1]), dtype=bool)
    for lo in range(0, a.shape[0], _PRODUCT_ROWS):
        block = fa[lo : lo + _PRODUCT_ROWS].astype(np.float32, copy=False)
        out[lo : lo + _PRODUCT_ROWS] = block @ fb > 0
    return out


# ---------------------------------------------------------------------------
# check reports

@dataclass(frozen=True)
class Violation:
    """One failed law together with its least witness, as element labels."""

    axiom: str
    witness: tuple[str, ...]


@dataclass(frozen=True)
class CheckReport:
    subject: str
    violations: tuple[Violation, ...] = ()
    axioms: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def witness(self, axiom: str):
        for v in self.violations:
            if v.axiom == axiom:
                return v.witness
        return None

    def to_dict(self) -> dict:
        d = {
            "subject": self.subject,
            "passed": self.passed,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)}
                for v in self.violations
            ],
        }
        if self.axioms:
            failed = {v.axiom: list(v.witness) for v in self.violations}
            d["axioms"] = {
                a: {"passed": a not in failed, "witness": failed.get(a)}
                for a in self.axioms
            }
        return d

    def __str__(self) -> str:
        if self.passed:
            return f"{self.subject}: PASS"
        parts = ", ".join(
            f"{v.axiom} at ({', '.join(v.witness)})" for v in self.violations
        )
        return f"{self.subject}: FAIL [{parts}]"


def make_report(subject, axiom_hits) -> CheckReport:
    """Assemble a report from (axiom, witness-or-None) pairs."""
    violations = tuple(
        Violation(axiom, tuple(witness))
        for axiom, witness in axiom_hits
        if witness is not None
    )
    return CheckReport(subject, violations, tuple(a for a, _ in axiom_hits))


@dataclass(frozen=True)
class Law:
    """One law of a checker and how to find its least witness.

    Either scan is a per-row mask over range(total), scan(i) marking the
    witnesses whose first coordinate is i, so the least witness is
    (i, *least(scan(i))) at the least row i with one; or the law was
    decided without a scan and hit is its least witness (None when the law
    holds).  Witnesses are index tuples; kinds, one letter per coordinate,
    picks each coordinate's labeller when run_laws is given several.
    """

    name: str
    scan: Callable | None = None
    total: int = 0
    hit: tuple | None = None
    kinds: str = ""


def run_laws(subject, label, laws) -> CheckReport:
    """Decide laws in order and report each least witness as labels.

    label maps an index to its label: one function for every coordinate,
    or a dict of functions keyed by the letters of each law's kinds.
    """
    hits = []
    for law in laws:
        w = law.hit if law.scan is None else _first_row_hit(law.scan, law.total)
        if w is not None:
            labels = [label[k] for k in law.kinds] if isinstance(label, dict) else [label] * len(w)
            w = tuple(lab(i) for lab, i in zip(labels, w))
        hits.append((law.name, w))
    return make_report(subject, hits)


def least(mask):
    """Index tuple of the first True entry of mask in row-major order, or None."""
    flat = np.flatnonzero(mask)
    if not flat.size:
        return None
    return tuple(int(i) for i in np.unravel_index(flat[0], mask.shape))


def _first_row_hit(bad, total):
    """(i, *least(bad(i))) at the least row i < total with a witness, or None."""
    for i in range(total):
        w = least(bad(i))
        if w is not None:
            return (i, *w)
    return None


# ---------------------------------------------------------------------------
# lattices

class FiniteLattice:
    """Finite bounded lattice held as its join table, a semilattice
    operation with bottom as its unit (join_law); the order leq_mat, where
    x <= y iff x v y = y, and meet_tab are read-only and built on first
    read.  Elements are read through these tables; label and index map
    indices to labels and back at the file boundary.  See build_lattice,
    lattice_from_leq and lattice_from_order.
    """

    def __init__(self, labels, join_tab, bottom, top):
        self.labels = tuple(labels)
        self.join_tab = join_tab
        self.bottom = int(bottom)
        self.top = int(top)
        self._idx = {lab: i for i, lab in enumerate(self.labels)}
        join_tab.setflags(write=False)

    @cached_property
    def leq_mat(self) -> np.ndarray:
        leq = self.join_tab == np.arange(self.n, dtype=self.join_tab.dtype)
        leq.setflags(write=False)
        return leq

    @cached_property
    def meet_tab(self) -> np.ndarray:
        (meet_tab,) = _order_tables(self.labels, self.leq_mat, ("meet",))
        meet_tab.setflags(write=False)
        return meet_tab

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._idx[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise FormatError(f"unknown element {label!r}") from None

    def label(self, i) -> str:
        return self.labels[i]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j) with i < j and nothing strictly between."""
        strict = self.leq_mat & ~np.eye(self.n, dtype=bool)
        # z strictly between i and j iff strict[i,z] and strict[z,j]
        between = bool_product(strict, strict)
        out = np.argwhere(strict & ~between)
        return [(int(i), int(j)) for i, j in out]

    def join_irreducibles(self) -> list[int]:
        """Elements with exactly one lower cover; every element is a join of these.

        That is, j is not the bottom and no x v y = j has x and y both other
        than j: two covers join to j, and below one cover every join stays.
        The join table is read in row blocks of about 1 MiB, once; each call
        returns a fresh list.
        """
        return list(self._irreducibles)

    @cached_property
    def _irreducibles(self) -> tuple[int, ...]:
        jt, n = self.join_tab, self.n
        reducible = np.zeros(n, dtype=bool)
        reducible[self.bottom] = True
        ar = np.arange(n, dtype=jt.dtype)
        step = max(1, (1 << 20) // (jt.itemsize * n))
        for lo in range(0, n, step):
            block = jt[lo : lo + step]
            reducible[block[(block != ar[lo : lo + step, None]) & (block != ar)]] = True
        return tuple(int(j) for j in np.flatnonzero(~reducible))

    @property
    def signature(self):
        sig = getattr(self, "_sig", None)
        if sig is None:
            cells = self.join_tab.astype(cell_dtype(self.n), copy=False)
            sig = (self.labels, cells.tobytes())
            self._sig = sig
        return sig

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, bottom={self.labels[self.bottom]!r}, top={self.labels[self.top]!r})"


_BLOCK_BYTES = 1 << 16


def _order_tables(labels, leq, kinds=("join", "meet")):
    """The tables of kinds, join and/or meet, from a validated order matrix.

    The join of i and j is the least element of the intersection of their
    up-sets; the meet is the same on the transposed order.  Each up-set is
    a row of bits, columns in descending order of up-set size (a linear
    extension), packed little-endian into 64-bit words and stored
    word-major, so that reductions over the words of a pair run plane by
    plane.  The first set bit of an intersection is a minimal element k of
    it: the lowest bit w & (~w + 1) of its first nonzero word w, whose index
    is the exponent of that power of two read as a float64.  The
    intersection is an up-set containing up(k), so k is its least element
    exactly when the two are equal word for word.  An empty intersection
    has no candidate and fails explicitly.

    The tables have cells of cell_dtype(n).  Rows go in blocks whose word
    intersections take about _BLOCK_BYTES, one row at least.  With the
    candidates' up-sets, the masks and the per-pair index arrays, a block
    holds up to about six times that in temporaries.
    The first pair in row-major order with no join or meet is reported,
    join first.
    """
    n = leq.shape[0]
    words = -(-n // 64)
    tables, packs = [], []
    for up in ({"join": leq, "meet": leq.T}[k] for k in kinds):
        order = np.argsort(-up.sum(axis=1, dtype=np.int32), kind="stable")
        row_bytes = np.packbits(up[:, order], axis=1, bitorder="little")
        packed = np.zeros((n, 8 * words), dtype=np.uint8)
        packed[:, : row_bytes.shape[1]] = row_bytes
        packs.append((order, np.ascontiguousarray(packed.view("<u8").T)))
        tables.append(np.empty((n, n), dtype=cell_dtype(n)))
    step = max(1, _BLOCK_BYTES // (8 * words * n))
    rows, cols = np.arange(step)[:, None], np.arange(n)
    for lo in range(0, n, step):
        ok = []
        for tab, (order, up) in zip(tables, packs):
            both = up[:, lo : lo + step, None] & up[:, None, :]
            first = (both != 0).argmax(axis=0)
            word = both[first, rows[: len(first)], cols]
            hit = word != 0
            low = word & (~word + 1)
            # the float64 2**k has the biased exponent 1023 + k in bits 52-62
            bit = (low.astype(np.float64).view(np.int64) >> 52) - 1023
            # an empty intersection has bit -1023: it looks up order[0] and
            # fails on hit
            tab[lo : lo + step] = cand = order[np.where(hit, 64 * first + bit, 0)]
            ok.append(hit & (both == up.take(cand, axis=1)).all(axis=0))
        bad = ~np.logical_and.reduce(ok)
        if bad.any():
            i, j = np.unravel_index(int(bad.argmax()), bad.shape)
            kind = next(k for k, o in zip(kinds, ok) if not o[i, j])
            raise NotALattice(kind, labels[lo + i], labels[j])
    return tables


def lattice_from_leq(labels, leq) -> FiniteLattice:
    """Build a lattice from an order matrix, entry (i, j) for i <= j.

    Raises FormatError for no elements, as build_lattice does, and
    NotAPoset for the first of reflexivity, antisymmetry and transitivity
    (bool_product(leq, leq) within leq) that fails, at its least witness
    in row-major order, and then as lattice_from_order.
    """
    labels = tuple(labels)
    if not labels:
        raise FormatError("no elements")
    leq = np.array(leq, dtype=bool)
    n = len(labels)
    if leq.shape != (n, n):
        raise FormatError("order matrix shape does not match element count")
    _refuse("reflexive", labels, ~leq.diagonal())
    _refuse("antisymmetric", labels, leq & leq.T & ~np.eye(n, dtype=bool))
    _refuse("transitive", labels, bool_product(leq, leq) & ~leq)
    return lattice_from_order(labels, leq)


def _refuse(law, labels, bad):
    """Raise NotAPoset for law at the least True entry of bad, if any."""
    w = least(bad)
    if w is not None:
        raise NotAPoset(law, tuple(labels[i] for i in w))


def lattice_from_order(labels, leq) -> FiniteLattice:
    """Build a lattice from a bool order matrix already known to be a
    partial order: square, reflexive, antisymmetric and transitive.

    For callers that have just established transitivity themselves, which
    costs a boolean matrix product; lattice_from_leq checks it first.
    Raises NotALattice when some pair has no join or meet, or the order has
    no single bottom or top.  Only the join table is built, as a finite
    poset with all binary joins and one bottom has all meets; a failure
    scans both tables, so the error is that of the two-table scan.
    """
    try:
        (join_tab,) = _order_tables(labels, leq, ("join",))
        (bottom,), (top,) = np.flatnonzero(leq.all(axis=1)), np.flatnonzero(leq.all(axis=0))
    except (NotALattice, ValueError):
        _order_tables(labels, leq)
        raise NotALattice("bound", labels[0], labels[-1]) from None
    return FiniteLattice(labels, join_tab, bottom, top)


class LabelMemo(dict):
    """The code of each label, numbered in order of first sight; labels
    lists them by code, one string object per label.  Looking up anything
    but a string raises TypeError, so 1 and True are never numbered."""

    def __init__(self):
        super().__init__()
        self.labels = []

    def __missing__(self, label):
        if not isinstance(label, str):
            raise TypeError(label)
        self[label] = code = len(self.labels)
        self.labels.append(label)
        return code


class LabelCodes:
    """A table of labels as an integer array of codes, rows of one length:
    cell code c stands for labels[c]."""

    __slots__ = ("codes", "labels")

    def __init__(self, codes, labels):
        self.codes, self.labels = codes, labels

    def tolist(self) -> list[list[str]]:
        """The rows as lists of labels."""
        labels = self.labels
        return [[labels[c] for c in row] for row in self.codes.tolist()]

    def indices(self, index, dtype) -> np.ndarray:
        """The table with each label replaced by index[label], and by -1
        where index has none: one lookup per label and one gather.  The
        gather indexes by the int32 codes, which numpy casts in buffered
        blocks, where take would first copy them whole as intp."""
        lut = np.fromiter((index.get(lab, -1) for lab in self.labels), dtype, len(self.labels))
        return lut[self.codes]


def label_codes(chunks, memo=None) -> LabelCodes:
    """The rows of an iterable of lists of rows as LabelCodes numbered by
    memo (a fresh LabelMemo by default); TypeError unless every row is a
    list or tuple of strings as long as the first.  A chunk is checked and
    coded by C loops, so it may be a few rows as they are read or a whole
    table."""
    memo = LabelMemo() if memo is None else memo
    codes, size, height, width = np.empty(0, np.intc), 0, 0, None
    for chunk in chunks:
        if width is None and chunk and isinstance(chunk[0], (list, tuple)):
            width = len(chunk[0])
        if not all(map(isinstance, chunk, repeat((list, tuple)))) or set(map(len, chunk)) - {width}:
            raise TypeError("not rows of labels of one length")
        part = np.fromiter(map(memo.__getitem__, chain.from_iterable(chunk)), np.intc)
        if size + part.size > codes.size:  # grown by realloc, a quarter ahead
            codes.resize((size + part.size) * 5 // 4, refcheck=False)
        codes[size : size + part.size] = part
        size, height = size + part.size, height + len(chunk)
    codes.resize(size, refcheck=False)
    return LabelCodes(codes.reshape(height, width or 0), memo.labels)


def _raise_bad_pair(idx, pairs):
    """The FormatError for the first of pairs that is not a pair of two
    labels in idx."""
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"order pair {pair!r} is not a pair")
        x, y = pair
        if not (isinstance(x, str) and isinstance(y, str) and x in idx and y in idx):
            raise FormatError(f"order pair ({x!r}, {y!r}) names unknown elements")


# The limit bounds the closure of an order read from a file, up to log2(n)
# squarings of the n-by-n order (float32 products of n^3 steps, the most
# for a chain given by its covers: on the 2-core reference machine 0.4 s at
# n = 1,024, 3-4 s at 2,048 and 27-35 s at 4,096, about nine times as long
# per doubling), and the n-by-n tables of every lattice: at 4,096 elements
# 32 MiB of join table, and 48 MiB more once the order and meet are read.
LATTICE_ELEMENT_LIMIT = 4096


def _check_element_count(n):
    """Refuse a lattice of n elements above the limit, before it exists."""
    if n > LATTICE_ELEMENT_LIMIT:
        raise TableTooLarge(
            f"a lattice of {n} elements is above the limit of "
            f"{LATTICE_ELEMENT_LIMIT} elements"
        )


def build_lattice(labels, leq_pairs) -> FiniteLattice:
    """Lattice from string labels and order pairs (covers or full order).

    leq_pairs is a LabelCodes table or an iterable of pairs, coded by
    label_codes; either way each label is looked up once.  Raises
    TableTooLarge, before any n-by-n array, when there are more than
    LATTICE_ELEMENT_LIMIT labels, NotAPoset when the closure breaks
    antisymmetry and NotALattice when some pair has no least upper or
    greatest lower bound.
    """
    labels = tuple(labels)
    if not labels:
        raise FormatError("no elements")
    if len(set(labels)) != len(labels):
        raise FormatError("element labels are not distinct")
    n = len(labels)
    _check_element_count(n)
    idx = {lab: i for i, lab in enumerate(labels)}
    pairs = leq_pairs if isinstance(leq_pairs, LabelCodes) else list(leq_pairs)
    try:
        table = pairs if isinstance(pairs, LabelCodes) else label_codes([pairs])
        ij = table.indices(idx, np.intp)
    except TypeError:
        ij = None
    if ij is None or len(ij) and (ij.shape[1] != 2 or ij.min() < 0):
        _raise_bad_pair(idx, pairs.tolist() if isinstance(pairs, LabelCodes) else pairs)
    leq = np.eye(n, dtype=bool)
    if len(ij):
        leq[ij[:, 0], ij[:, 1]] = True
    # the loop ends on a product that adds nothing: leq is transitive
    while True:
        closed = leq | bool_product(leq, leq)
        if (closed == leq).all():
            break
        leq = closed
    _refuse("antisymmetric", labels, leq & leq.T & ~np.eye(n, dtype=bool))
    return lattice_from_order(labels, leq)


# ---------------------------------------------------------------------------
# join preservation

_JOIN_CELLS = 1 << 15  # table cells one slice of breaks_joins gathers


def join_pairs(lat: FiniteLattice):
    """The pairs (y, k) of the join test on lat, as int32 arrays ys, ks and
    yk, the index of each y v k.

    k runs over the join-irreducibles of lat and y over the elements with
    k not below y: by the lemma of check_quantale part (a), a map t
    preserves binary joins exactly when t[y v k] = t[y] v t[k] for all of
    them.  Of two incomparable join-irreducibles only (y, k) with y < k is
    kept, as (k, y) states the same equation.
    """
    js = np.asarray(lat.join_irreducibles(), dtype=np.int32)
    leq = lat.leq_mat
    ys, cols = np.nonzero(~leq[js].T)  # entry (y, c): js[c] not below y
    ks = js[cols]
    twin = np.isin(ys, js) & ~leq[ys, ks] & (ys > ks)
    ys, ks = ys[~twin].astype(np.int32), ks[~twin]
    return ys, ks, lat.join_tab[ys, ks].astype(np.int32)


def breaks_joins(tables, pairs, cod: FiniteLattice) -> np.ndarray:
    """Per row of tables, the value table of a map into cod: whether
    t[y v k] = t[y] v t[k] fails at one of pairs, join_pairs of the maps'
    domain.  The tables are read transposed, one contiguous row per
    element, in slices of at most _JOIN_CELLS cells: one pair at a time
    when there are more maps than that.  The flat indices f[y] * m + f[k]
    are formed in intp, as m * m need not fit the tables' cell type."""
    ys, ks, yk = pairs
    cols = np.ascontiguousarray(np.asarray(tables).T)  # entry (x, f): f at x
    j_flat, m = cod.join_tab.ravel(), cod.n
    bad = np.zeros(cols.shape[1], dtype=bool)
    step = max(1, _JOIN_CELLS // max(1, cols.shape[1]))
    for lo in range(0, len(ys), step):
        s = slice(lo, lo + step)
        at = np.take(cols, ys[s], axis=0).astype(np.intp) * m
        joined = np.take(j_flat, at + np.take(cols, ks[s], axis=0))
        bad |= (np.take(cols, yk[s], axis=0) != joined).any(axis=0)
    return bad


def nonadditive_row(table, lat: FiniteLattice) -> int | None:
    """Least x whose row w -> table[x, w] does not preserve the binary
    joins of lat, or None.

    Rows get the join test of join_pairs in blocks of about _JOIN_CELLS
    cells, up to the first block with a failing row.
    """
    pairs = join_pairs(lat)
    step = max(1, _JOIN_CELLS // max(1, len(pairs[0])))
    for lo in range(0, table.shape[0], step):
        bad = breaks_joins(table[lo : lo + step], pairs, lat)
        if bad.any():
            return lo + int(bad.argmax())
    return None


def _row_witness(f, lat: FiniteLattice):
    """Least (y, z) in row-major order with f[y v z] != f[y] v f[z], or
    None; y runs in blocks of about _JOIN_CELLS cells."""
    j, n = lat.join_tab, lat.n
    step = max(1, _JOIN_CELLS // n)
    for lo in range(0, n, step):
        ys = np.arange(lo, min(lo + step, n))
        w = least(f[j[ys]] != j[f[ys][:, None], f])
        if w is not None:
            return (lo + w[0], w[1])
    return None


def join_law(name, table, lat: FiniteLattice, kinds="") -> Law:
    """The law that every row w -> table[x, w] preserves the binary joins
    of lat, decided with its least witness (x, y, z).

    By the lemma of check_quantale part (a), the least row x that fails the
    row test of nonadditive_row holds the least witness, and only that row
    is scanned.  lat's join table is assumed to be a semilattice operation
    with bottom as its unit (idempotent, commutative, associative), so it
    is the join of the order read off it, as the lemma needs; the least
    witness then has y < z.
    """
    x = nonadditive_row(table, lat)
    w = None if x is None else _row_witness(table[x], lat)
    return Law(name, hit=w and (x, *w), kinds=kinds)


# ---------------------------------------------------------------------------
# orthomodular lattices

class FiniteOML(FiniteLattice):
    """A finite lattice carrying an orthocomplement candidate.

    The constructor only requires the complement map to be total and
    in-range; the laws themselves (involution, antitonicity, x meet x' = 0,
    orthomodularity) are the business of check_oml, so structures that fail
    them, like the benzene ring, are still representable.
    """

    def __init__(self, lattice: FiniteLattice, ortho):
        super().__init__(lattice.labels, lattice.join_tab, lattice.bottom, lattice.top)
        self.ortho = normalize_ortho(lattice, ortho)
        self.ortho.setflags(write=False)

    @cached_property
    def sasaki_tab(self) -> np.ndarray:
        """Row a: the value table of the Sasaki projection at a,
        y -> a meet (a' join y); read-only and built on first read."""
        tab = self.meet_tab[np.arange(self.n)[:, None], self.join_tab[self.ortho]]
        tab.setflags(write=False)
        return tab

    @property
    def signature(self):
        # its own slot: FiniteLattice.signature caches the join table's in _sig
        sig = getattr(self, "_oml_sig", None)
        if sig is None:
            sig = self._oml_sig = (super().signature, self.ortho.tobytes())
        return sig

    def __repr__(self):
        return f"FiniteOML(n={self.n})"


def normalize_ortho(lattice: FiniteLattice, ortho) -> np.ndarray:
    """Accept a label dictionary or an index sequence; return an index array.

    Label dictionaries may omit one direction of a pair; the symmetric
    closure is taken before totality is enforced.
    """
    n = lattice.n
    if isinstance(ortho, dict):
        table = {}
        for x, y in ortho.items():
            i, j = lattice.index(x), lattice.index(y)
            for a, b in ((i, j), (j, i)):
                if table.get(a, b) != b:
                    raise FormatError(
                        f"conflicting complements for {lattice.label(a)!r}"
                    )
                table[a] = b
        missing = [lattice.label(i) for i in range(n) if i not in table]
        if missing:
            raise FormatError(f"complement map misses elements {missing!r}")
        arr = np.array([table[i] for i in range(n)], dtype=np.int32)
    else:
        arr = np.array([int(i) for i in ortho], dtype=np.int32)
        if arr.shape != (n,):
            raise FormatError("complement map has the wrong length")
        if arr.min(initial=0) < 0 or (n and arr.max(initial=0) >= n):
            raise FormatError("complement map points outside the lattice")
    return arr


def check_oml(oml: FiniteOML, subject="oml") -> CheckReport:
    """Check the ortholattice laws and the orthomodular law.

    One least witness is reported per violated law: involution (x'' = x),
    antitonicity (x <= y implies y' <= x'), complement (x meet x' = 0) and
    orthomodular (x <= y implies y = x join (x' meet y)).
    """
    n = oml.n
    leq, ortho = oml.leq_mat, oml.ortho
    jt, mt = oml.join_tab, oml.meet_tab
    ar = np.arange(n)
    return run_laws(subject, oml.label, [
        Law("involution", hit=least(ortho[ortho] != ar)),
        # entry j: j >= i but ortho(j) not below ortho(i)
        Law("antitone", lambda i: leq[i] & ~leq[ortho, ortho[i]], n),
        Law("complement", hit=least(mt[ar, ortho] != oml.bottom)),
        # entry j: j >= i but j differs from i join (i' meet j)
        Law("orthomodular", lambda i: leq[i] & (jt[i, mt[ortho[i]]] != ar), n),
    ])


class SubOML:
    """Principal downset of an OML with the relative complement y -> a meet y'.

    Local elements are indexed 0..m-1 in ascending parent order.  members
    maps local indices to the parent, member i at parent index members[i],
    and the array local maps parent indices back, -1 off the downset; both
    are read as arrays.  The join table is gathered from the parent's
    through local, whose cells are cell_dtype(m).
    """

    def __init__(self, parent: FiniteOML, a: int):
        a = int(a)
        sel = np.flatnonzero(parent.join_tab[:, a] == a)
        self.members = tuple(sel.tolist())
        self.local = local = np.full(parent.n, -1, dtype=cell_dtype(len(sel)))
        local[sel] = np.arange(len(sel))
        lat = FiniteLattice([parent.label(p) for p in self.members],
                            local[parent.join_tab[np.ix_(sel, sel)]],
                            local[parent.bottom], local[a])
        self.oml = FiniteOML(lat, local[parent.meet_tab[a, parent.ortho[sel]]])
