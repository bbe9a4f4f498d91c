"""Built-in instance catalog: families, combinators, and spec parsing."""

import numpy as np
import pytest

from omlq import (
    FiniteOML,
    ParamOutOfRange,
    UnknownCatalogEntry,
    build_lattice,
    catalog,
    catalog_names,
    check_oml,
    horizontal_sum_oml,
    product_oml,
)

from conftest import atoms


def test_boolean_family_sizes_and_laws():
    for n in (1, 2, 3, 4):
        oml = catalog(f"boolean:{n}")
        assert oml.n == 2 ** n
        assert len(atoms(oml)) == n
        assert check_oml(oml).passed


def test_mo_family_sizes_and_laws():
    for n in (1, 2, 3, 4):
        oml = catalog(f"mo:{n}")
        assert oml.n == 2 * n + 2
        assert len(atoms(oml)) == 2 * n
        assert check_oml(oml).passed


def test_mo1_is_the_four_element_boolean_algebra():
    mo1 = catalog("mo:1")
    assert mo1.n == 4
    assert check_oml(mo1).passed
    # one atom pair, each the other's complement
    a = mo1.index("a")
    assert mo1.label(mo1.ortho[a]) == "a'"


def test_benzene_shape():
    oml = catalog("benzene")
    assert oml.n == 6
    assert set(oml.covers()) == {
        (oml.index(p), oml.index(q))
        for p, q in [
            ("0", "x"), ("0", "y"), ("x", "y'"), ("y", "x'"),
            ("x'", "1"), ("y'", "1"),
        ]
    }


def test_zero_is_the_one_point_structure():
    oml = catalog("zero")
    assert oml.n == 1
    assert oml.top == oml.bottom
    assert check_oml(oml).passed


def test_product_combines_componentwise():
    p = catalog("product(boolean:1,boolean:1)")
    assert p.n == 4
    assert check_oml(p).passed
    assert len(atoms(p)) == 2
    q = catalog("product(boolean:1,mo:2)")
    assert q.n == 12
    assert check_oml(q).passed


def test_product_order_is_componentwise():
    b1 = catalog("boolean:1")
    mo2 = catalog("mo:2")
    p = product_oml(b1, mo2)
    for x in range(p.n):
        for y in range(p.n):
            lx, ly = p.label(x), p.label(y)
            x1, x2 = lx[1:-1].split(",", 1)
            y1, y2 = ly[1:-1].split(",", 1)
            expected = (b1.leq_mat[b1.index(x1), b1.index(y1)]
                        and mo2.leq_mat[mo2.index(x2), mo2.index(y2)])
            assert p.leq_mat[x, y] == expected


def test_horizontal_sum_of_two_squares_is_mo2():
    h = horizontal_sum_oml(catalog("boolean:2"), catalog("boolean:2"))
    assert h.n == 6
    assert check_oml(h).passed
    assert len(atoms(h)) == 4
    # every non-bound element is an atom and a coatom, as in mo:2
    for a in atoms(h):
        assert h.leq_mat[a, h.top]
        assert (h.bottom, a) in h.covers()
        assert (a, h.top) in h.covers()


def test_nested_combinator_specs_parse():
    oml = catalog("product(boolean:1,product(boolean:1,boolean:1))")
    assert oml.n == 8
    assert check_oml(oml).passed


def test_catalog_names_listing():
    names = catalog_names()
    assert "boolean:1" in names and "mo:4" in names
    assert "benzene" in names and "zero" in names
    # every concrete name in the listing resolves
    for name in names:
        if "(" not in name:
            catalog(name)


def test_param_out_of_range():
    for bad in ("boolean:0", "boolean:99", "mo:0", "mo:-1", "boolean:x"):
        with pytest.raises(ParamOutOfRange):
            catalog(bad)


def test_unknown_entry():
    for bad in ("nonsense", "benzene:2", "product"):
        with pytest.raises(UnknownCatalogEntry):
            catalog(bad)


def test_combinator_arity_errors():
    for bad in ("product(boolean:1)", "horizontal_sum(boolean:2)"):
        with pytest.raises(ParamOutOfRange):
            catalog(bad)


# ---------------------------------------------------------------------------
# Oracle: the catalog writes Boolean algebras, MO_n, products and horizontal
# sums as closed-form join tables, which FiniteLattice takes unchecked.  Each
# must equal the lattice build_lattice closes from order pairs derived here
# on their own: mask subsets for Boolean algebras, through 0 and 1 for MO_n,
# componentwise for products, and same side or through 0 and 1 for
# horizontal sums, each read off the factors' leq_mat.
# ---------------------------------------------------------------------------

ORACLE_CASES = [name for name in catalog_names() if "(" not in name] + [
    ("product", "zero", "mo:2"),
    ("horizontal_sum", "zero", "boolean:2"),
    ("horizontal_sum", "boolean:1", "mo:2"),
    ("product", "benzene", "boolean:1"),
    ("horizontal_sum", ("product", "boolean:1", "mo:1"), "mo:2"),
    ("product", "mo:2", "zero"),
    ("horizontal_sum", "mo:1", "zero"),
    ("horizontal_sum", "zero", "zero"),
    ("product", "zero", "zero"),
    ("horizontal_sum", "benzene", "boolean:3"),
    ("product", "boolean:2", ("product", "mo:1", "benzene")),
    ("product", ("horizontal_sum", "boolean:2", "zero"), "boolean:2"),
    ("horizontal_sum", ("horizontal_sum", "mo:2", "benzene"), ("product", "zero", "boolean:2")),
    ("product", "boolean:3", "mo:2"),
]


def _spec(case):
    if isinstance(case, str):
        return case
    return f"{case[0]}({_spec(case[1])},{_spec(case[2])})"


def _oracle(case) -> FiniteOML:
    """The OML named by case, built by build_lattice from order pairs."""
    if isinstance(case, str):
        name, _, k = case.partition(":")
        if name == "boolean":
            letters = "abcd"[: int(k)]
            subsets = [{x for b, x in enumerate(letters) if m >> b & 1} for m in range(1 << len(letters))]

            def label(s):
                return "0" if not s else "1" if len(s) == len(letters) else "".join(sorted(s))

            subsets.sort(key=lambda s: (len(s), label(s)))
            labels = [label(s) for s in subsets]
            pairs = [(label(s), label(t)) for s in subsets for t in subsets if s <= t]
            ortho = {label(s): label(set(letters) - s) for s in subsets}
        elif name == "mo":
            atoms = [x + p for x in "abcd"[: int(k)] for p in ("", "'")]
            labels = ["0"] + atoms + ["1"]
            pairs = [(x, y) for x in labels for y in labels if x in (y, "0") or y == "1"]
            ortho = {"0": "1", **{x: x + "'" for x in atoms if "'" not in x}}
        else:  # benzene and zero: catalog builds these from their covers
            return catalog(case)
        return FiniteOML(build_lattice(labels, pairs), ortho)
    comb, a, b = case[0], _oracle(case[1]), _oracle(case[2])
    if comb == "product":
        labels = [f"({x},{y})" for x in a.labels for y in b.labels]
        pairs = [
            (labels[i * b.n + j], labels[k * b.n + m])
            for i, k in np.argwhere(a.leq_mat) for j, m in np.argwhere(b.leq_mat)
        ]
        ortho = {labels[i * b.n + j]: labels[a.ortho[i] * b.n + b.ortho[j]]
                 for i in range(a.n) for j in range(b.n)}
        return FiniteOML(build_lattice(labels, pairs), ortho)
    labels, pairs, ortho = ["0"], [("0", "1")], {"0": "1"}
    for side, m in zip("lr", (a, b)):
        inner = [i for i in range(m.n) if i not in (m.bottom, m.top)]
        name = {m.bottom: "0", m.top: "1", **{i: f"{side}.{m.label(i)}" for i in inner}}
        labels += [name[i] for i in inner]
        pairs += [(name[i], name[j]) for i, j in np.argwhere(m.leq_mat)]
        pairs += [("0", name[i]) for i in inner] + [(name[i], "1") for i in inner]
        ortho.update({name[i]: name[int(m.ortho[i])] for i in inner})
    return FiniteOML(build_lattice(labels + ["1"], pairs), ortho)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=_spec)
def test_closed_form_join_tables_equal_the_closed_order(case):
    got, want = catalog(_spec(case)), _oracle(case)
    assert got == want
    assert got.join_tab.dtype == want.join_tab.dtype
    assert np.array_equal(got.join_tab, want.join_tab)
    assert (got.bottom, got.top) == (want.bottom, want.top)
    assert got.ortho.dtype == want.ortho.dtype
    assert np.array_equal(got.ortho, want.ortho)
