"""Built-in lattice catalog.

Spec strings name an entry plus parameters: "boolean:3", "mo:2", "benzene",
"zero", and the combinators "product(boolean:2,mo:1)" and
"horizontal_sum(boolean:2,boolean:2)" which nest arbitrarily.

All but benzene and zero, built from their covers, are written as their
closed-form join tables: unchecked at build, pinned against the closed order
by tests/test_catalog.py, and refused from the element count before any
label or table exists.
"""

from __future__ import annotations

from .errors import ParamOutOfRange, UnknownCatalogEntry
from .lattice import FiniteLattice, FiniteOML, _check_element_count, build_lattice, cell_dtype

# Imported after the package's modules (lattice loads numpy): compiling
# errors.py before numpy is loaded keeps start-up peak RSS about 0.1 MB lower.
import numpy as np  # noqa: E402

_ATOM_LETTERS = "abcd"
MAX_RANK = 4


def boolean_oml(n: int) -> FiniteOML:
    """Boolean algebra on n atoms, labeled by atom-letter subsets."""
    if not 1 <= n <= MAX_RANK:
        raise ParamOutOfRange(f"boolean:{n}", f"rank must be 1..{MAX_RANK}")
    full = (1 << n) - 1

    def name(mask):
        if mask == 0:
            return "0"
        if mask == full:
            return "1"
        return "".join(_ATOM_LETTERS[b] for b in range(n) if mask >> b & 1)

    masks = np.array(sorted(range(1 << n), key=lambda m: (bin(m).count("1"), name(m))))
    at = np.empty(1 << n, dtype=cell_dtype(1 << n))  # element index of each mask
    at[masks] = np.arange(1 << n)
    labels = [name(m) for m in masks.tolist()]
    return FiniteOML(FiniteLattice(labels, at[masks[:, None] | masks], at[0], at[full]),
                     at[masks ^ full])


def _glued(n: int) -> np.ndarray:
    """Join table of n elements, 0 the bottom and n - 1 the top, where two
    distinct elements other than 0 join to the top, as in MO_n."""
    tab = np.full((n, n), n - 1, dtype=cell_dtype(n))
    ar = np.arange(n)
    tab[0] = tab[:, 0] = tab[ar, ar] = ar
    return tab


def mo_oml(n: int) -> FiniteOML:
    """Horizontal stack of n complement pairs of atoms: the lattice MO_n."""
    if not 1 <= n <= MAX_RANK:
        raise ParamOutOfRange(f"mo:{n}", f"pair count must be 1..{MAX_RANK}")
    atoms = []
    for k in range(n):
        atoms += [_ATOM_LETTERS[k], _ATOM_LETTERS[k] + "'"]
    m = 2 * n + 2  # the atom pairs sit at 2k + 1 and 2k + 2
    ortho = [m - 1] + [((i - 1) ^ 1) + 1 for i in range(1, m - 1)] + [0]
    return FiniteOML(FiniteLattice(["0"] + atoms + ["1"], _glued(m), 0, m - 1), ortho)


def benzene_oml() -> FiniteOML:
    """The benzene ring O6: an ortholattice that breaks the orthomodular law."""
    labels = ["0", "x", "y", "x'", "y'", "1"]
    pairs = [("0", "x"), ("x", "y'"), ("y'", "1"), ("0", "y"), ("y", "x'"), ("x'", "1")]
    ortho = {"0": "1", "x": "x'", "y": "y'"}
    return FiniteOML(build_lattice(labels, pairs), ortho)


def zero_oml() -> FiniteOML:
    """The one-element lattice; its single element is its own complement."""
    return FiniteOML(build_lattice(["0"], []), {"0": "0"})


def product_oml(a: FiniteOML, b: FiniteOML) -> FiniteOML:
    """Componentwise order and complement on pairs, (i, j) at i * b.n + j."""
    n = a.n * b.n
    _check_element_count(n)
    labels = [f"({x},{y})" for x in a.labels for y in b.labels]
    ja = a.join_tab.astype(cell_dtype(n))
    join_tab = (ja[:, None, :, None] * b.n + b.join_tab[None, :, None, :]).reshape(n, n)
    ortho = (a.ortho[:, None] * b.n + b.ortho).ravel()
    lat = FiniteLattice(labels, join_tab, a.bottom * b.n + b.bottom, a.top * b.n + b.top)
    return FiniteOML(lat, ortho)


def horizontal_sum_oml(a: FiniteOML, b: FiniteOML) -> FiniteOML:
    """Glue two OMLs at shared bottom and top; interiors stay incomparable.

    The elements are 0, a's interior, b's interior and 1.  Interior labels
    are prefixed with their side so the two copies never collide.
    """
    inner = [[i for i in range(m.n) if i not in (m.bottom, m.top)] for m in (a, b)]
    n = 2 + len(inner[0]) + len(inner[1])
    _check_element_count(n)
    labels, join_tab = ["0"], _glued(n)
    ortho = np.empty(n, dtype=np.int32)
    for m, side, ins in zip((a, b), "lr", inner):
        at = np.empty(m.n, dtype=join_tab.dtype)  # index in the sum
        at[m.bottom], at[m.top] = 0, n - 1  # zero's one element lands on 1
        at[ins] = np.arange(len(labels), len(labels) + len(ins))
        labels += [f"{side}.{m.label(i)}" for i in ins]
        join_tab[np.ix_(at, at)] = at[m.join_tab]
        ortho[at] = at[m.ortho]
    ortho[0], ortho[-1] = n - 1, 0
    return FiniteOML(FiniteLattice(labels + ["1"], join_tab, 0, n - 1), ortho)


def _split_args(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UnknownCatalogEntry(body)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UnknownCatalogEntry(body)
    parts.append("".join(cur))
    return parts


def catalog(spec: str) -> FiniteOML:
    """Resolve a catalog spec string to an OML."""
    spec = spec.strip()
    for comb, fn in (("product", product_oml), ("horizontal_sum", horizontal_sum_oml)):
        if spec.startswith(comb + "(") and spec.endswith(")"):
            args = _split_args(spec[len(comb) + 1 : -1])
            if len(args) != 2:
                raise ParamOutOfRange(spec, "combinator takes two entries")
            return fn(catalog(args[0]), catalog(args[1]))
    name, _, param = spec.partition(":")
    name = name.strip()
    if name == "boolean" or name == "mo":
        try:
            k = int(param)
        except ValueError:
            raise ParamOutOfRange(spec, "integer parameter required") from None
        return boolean_oml(k) if name == "boolean" else mo_oml(k)
    if param:
        raise UnknownCatalogEntry(spec)
    if name == "benzene":
        return benzene_oml()
    if name == "zero":
        return zero_oml()
    raise UnknownCatalogEntry(spec)


def catalog_names() -> list[str]:
    """Entries the catalog understands, for listings and help text."""
    fixed = ["benzene", "zero"]
    ranked = [f"boolean:{k}" for k in range(1, MAX_RANK + 1)]
    ranked += [f"mo:{k}" for k in range(1, MAX_RANK + 1)]
    return ranked + fixed + ["product(<entry>,<entry>)", "horizontal_sum(<entry>,<entry>)"]
