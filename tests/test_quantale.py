"""Endomorphism quantale construction and the quantale/involution law
checkers, including the defined order and orthogonality relations."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq import (
    CapExceeded,
    FinQuantale,
    FiniteLattice,
    FormatError,
    LinMap,
    NotALattice,
    QElementView,
    TableTooLarge,
    build_lattice,
    catalog,
    catalog_names,
    check_involutive,
    check_quantale,
    dagger,
    foulis_from_lin,
    lattice_from_leq,
    lin_quantale,
    make_report,
    vector_label,
)
import omlq.foulis as foulis_module
import omlq.lattice as lattice_module
import omlq.linmap as linmap_module
import omlq.quantale as quantale_module
from omlq.lattice import SubOML, _order_tables, cell_dtype, lattice_from_order
from omlq.qmodule import lin_module
from omlq.serialize import (dump_json, module_to_dict, parse_module, parse_quantale,
                            quantale_to_dict)

from conftest import join_all, make_two_chain_quantale, sasaki_at


def proj_index(view, oml, a):
    return int(view.indices([[sasaki_at(oml, a, y) for y in range(oml.n)]])[0])


def dagger_index(view, row):
    """The element of the adjoint of one value row, by dagger on the row."""
    return int(view.indices([dagger(LinMap(view.host, view.host, row)).values])[0])


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------


def test_lin_quantale_carrier_is_pointwise_order(fq_b2):
    f, view = fq_b2
    q = f.base
    assert q.n == 16
    for s in range(q.n):
        for t in range(q.n):
            vs, vt = view.values[s], view.values[t]
            pointwise = all(view.host.leq_mat[a, b] for a, b in zip(vs, vt))
            assert q.carrier.leq_mat[s, t] == pointwise


def test_lin_quantale_mult_is_composition(fq_b2):
    f, view = fq_b2
    q = f.base
    # map i after map j is the gather values[i][values[j]]
    m = q.dense_mult()
    for i in range(q.n):
        expected = view.indices(view.values[i][view.values])
        for j in range(q.n):
            assert m[i, j] == expected[j]


def test_lin_quantale_star_is_dagger(fq_mo2):
    f, view = fq_mo2
    q = f.base
    for i in range(q.n):
        assert q.dense_star()[i] == dagger_index(view, view.values[i])


def test_lin_quantale_unit_and_zero(fq_b2):
    f, view = fq_b2
    q = f.base
    oml = view.host
    assert view.values[q.unit].tolist() == list(range(oml.n))
    assert q.zero == q.carrier.bottom
    assert all(v == oml.bottom for v in view.values[q.zero])


def test_lin_quantale_cap():
    with pytest.raises(CapExceeded):
        lin_quantale(catalog("mo:2"), cap=100)



def test_lin_quantale_refuses_before_building_map_objects(monkeypatch, b2):
    def no_maps(*args):
        raise AssertionError("a LinMap was built before the size guard")

    monkeypatch.setattr(quantale_module, "TABLE_BYTE_LIMIT", 0)
    monkeypatch.setattr(linmap_module, "LinMap", no_maps)
    with pytest.raises(TableTooLarge, match="16 elements"):
        lin_quantale(b2)


@pytest.mark.parametrize("k, admitted", [(18919, True), (25381, True), (25382, False)])
def test_size_guard_follows_the_cell_rule(monkeypatch, b2, k, admitted):
    # k value rows with no columns allocate nothing, and a view that
    # raises stops an admitted build before its first table.  At the 3 GiB limit the
    # five bytes of an int16 pair admit up to 25,381 elements, where nine
    # bytes of int32 stopped at 18,918.
    class Admitted(Exception):
        pass

    def admitted_view(*args):
        raise Admitted

    monkeypatch.setattr(quantale_module, "lin_values",
                        lambda *args, **kwargs: np.empty((k, 0), dtype=np.int32))
    monkeypatch.setattr(quantale_module, "QElementView", admitted_view)
    assert quantale_module.TABLE_BYTE_LIMIT == 3 << 30
    assert quantale_module.table_cell_bytes(k) == 5
    if admitted:
        with pytest.raises(Admitted):
            lin_quantale(b2)
    else:
        with pytest.raises(TableTooLarge) as err:
            lin_quantale(b2)
        assert str(err.value) == (f"a quantale of {k} elements needs {k * k * 5} bytes of dense "
                                  f"tables, above the limit of {3 << 30} bytes")


LOOKUP_HOSTS = ("boolean:1", "boolean:2", "boolean:3", "mo:2")


def test_lin_carrier_by_code_lookup_matches_the_generic_build():
    # The generic build validates the pointwise order and derives join and
    # meet from it; the lookup build derives the order from the join.
    # products also takes a shuffled index with repeats, block by block.
    rng = np.random.default_rng(0)
    for name in LOOKUP_HOSTS:
        oml = catalog(name)
        q, view = lin_quantale(oml)
        values = view.values
        pointwise = oml.leq_mat[values[:, None, :], values[None, :, :]].all(axis=2)
        want = lattice_from_leq(q.carrier.labels, pointwise)
        got = q.carrier
        assert "meet_tab" not in vars(got)
        assert got.leq_mat.dtype == want.leq_mat.dtype
        assert got.leq_mat.tobytes() == want.leq_mat.tobytes()
        assert got.join_tab.dtype == want.join_tab.dtype
        assert got.join_tab.tobytes() == want.join_tab.tobytes()
        assert (got.bottom, got.top) == (want.bottom, want.top)
        assert np.array_equal(got.meet_tab, want.meet_tab)
        assert got.meet_tab is got.meet_tab
        idx = rng.integers(view.n, size=2 * view.n + 1)
        assert len(set(idx.tolist())) < len(idx) and (np.diff(idx) < 0).any()
        seen = []
        for a, applied, joined in view.products(idx):
            assert np.array_equal(applied, q.dense_mult()[idx[a]])
            assert np.array_equal(joined, want.join_tab[idx[a]])
            seen += range(len(idx))[a]
        assert seen == list(range(len(idx)))


def test_lin_star_by_code_lookup_is_dagger():
    for name in LOOKUP_HOSTS:
        q, view = lin_quantale(catalog(name))
        star = q.dense_star()
        for i, row in enumerate(view.values):
            assert star[i] == dagger_index(view, row)


def test_lin_quantale_with_a_missing_map_is_refused(monkeypatch, b2, mo2):
    # Without one map, some join, composite or adjoint of the others has no
    # code.  The projections onto atoms are self-adjoint, so only the join
    # and composite lookups can miss them.  boolean:2 drops every map but
    # the bottom and the identity in turn, mo:2 each atom projection.
    for oml in (b2, mo2):
        full = linmap_module.lin_values(oml, oml)
        rows = [r for r, row in enumerate(full.tolist())
                if row not in (list(range(oml.n)), [oml.bottom] * oml.n)]
        if oml is mo2:
            # the atoms of mo:2 are its join-irreducibles
            atoms = [[sasaki_at(oml, a, y) for y in range(oml.n)]
                     for a in oml.join_irreducibles()]
            rows = [r for r in rows if full[r].tolist() in atoms]
            assert len(rows) == len(atoms) == 4
        for r in rows:
            monkeypatch.setattr(quantale_module, "lin_values",
                                lambda *args, r=r, **kwargs: np.delete(full, r, axis=0))
            with pytest.raises(FormatError):
                lin_quantale(oml)


def test_view_round_trip(fq_b2):
    f, view = fq_b2
    assert view.indices(view.values).tolist() == list(range(view.n))
    for i in range(view.n):
        assert f.base.label(i) == vector_label(LinMap(view.host, view.host, view.values[i]))
    with pytest.raises(FormatError):
        view.indices([(3, 3, 3, 3)])  # not join-preserving, not a member


def test_view_find_confirms_the_whole_row(fq_b2, fq_mo2, b2):
    for f, view in (fq_b2, fq_mo2):
        assert np.array_equal(view.find(view.values), np.arange(view.n))
    view = fq_b2[1]
    identity = list(range(b2.n))
    # the identity on J(boolean:2), the atoms, but not at the top
    twin = identity[:b2.top] + [b2.index("a")] + identity[b2.top + 1:]
    out_of_range = [b2.n] + identity[1:]
    found = view.find([twin, out_of_range, identity])
    assert found.tolist() == [-1, -1, view.indices([identity])[0]]
    with pytest.raises(FormatError, match=r"value table \[0, 1, 2, 1\] is not"):
        view.indices([twin])


def test_lin_builds_make_no_map_objects(monkeypatch, b2, mo2, fq_b2, fq_mo2):
    def no_maps(*args):
        raise AssertionError("a LinMap was built")

    # linmap is the one module that names LinMap; it builds one in dagger
    assert not hasattr(quantale_module, "LinMap") and not hasattr(foulis_module, "LinMap")
    monkeypatch.setattr(linmap_module, "LinMap", no_maps)
    for oml, (want, _) in ((b2, fq_b2), (mo2, fq_mo2)):
        q, _ = lin_quantale(oml)
        f, _ = foulis_from_lin(oml)
        assert q.dense_mult().tobytes() == want.base.dense_mult().tobytes()
        assert q.carrier.labels == want.base.carrier.labels
        assert f.sai.tobytes() == want.sai.tobytes()


# ---------------------------------------------------------------------------
# Laws.
# ---------------------------------------------------------------------------


def test_quantale_laws_hold_for_lin(fq_b1, fq_b2, fq_b3, fq_mo2):
    for f, _ in (fq_b1, fq_b2, fq_b3, fq_mo2):
        assert check_quantale(f.base).passed
        assert check_involutive(f.base).passed


def test_quantale_law_axiom_names(fq_b2):
    report = check_quantale(fq_b2[0].base)
    assert set(report.axioms) == {
        "associativity", "unit-left", "unit-right", "zero-left", "zero-right",
        "distributes-left", "distributes-right",
    }
    inv = check_involutive(fq_b2[0].base)
    assert set(inv.axioms) == {
        "star-involution", "star-antihomomorphism", "star-join", "star-zero",
        "unit-self-adjoint",
    }


def test_two_chain_meet_quantale_is_lawful(two_chain_quantale):
    assert check_quantale(two_chain_quantale).passed
    assert check_involutive(two_chain_quantale).passed


def test_nilpotent_chain_is_still_a_lawful_quantale(nilpotent_chain_quantale):
    assert check_quantale(nilpotent_chain_quantale).passed
    assert check_involutive(nilpotent_chain_quantale).passed


# ---------------------------------------------------------------------------
# Independent oracles for the vectorised construction.
# ---------------------------------------------------------------------------


def order_tables_reference(labels, leq):
    """Join/meet tables by looking each up-set (down-set) intersection up
    in a row-content dictionary, pair by pair, join before meet."""
    n = leq.shape[0]
    up_id = {leq[i].tobytes(): i for i in range(n)}
    down = np.ascontiguousarray(leq.T)
    down_id = {down[i].tobytes(): i for i in range(n)}
    join_tab = np.empty((n, n), dtype=np.int32)
    meet_tab = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            k = up_id.get((leq[i] & leq[j]).tobytes())
            if k is None:
                raise NotALattice("join", labels[i], labels[j])
            join_tab[i, j] = k
            k = down_id.get((down[i] & down[j]).tobytes())
            if k is None:
                raise NotALattice("meet", labels[i], labels[j])
            meet_tab[i, j] = k
    return join_tab, meet_tab


def order_tables_outcome(tables, labels, leq):
    try:
        join_tab, meet_tab = tables(labels, leq)
    except NotALattice as e:
        return ("no " + e.kind, e.witness)
    return (join_tab.tolist(), meet_tab.tolist())


def closed_order(n, pairs):
    leq = np.eye(n, dtype=bool)
    for x, y in pairs:
        leq[x, y] = True
    for k in range(n):  # Warshall
        leq |= leq[:, k, None] & leq[None, k, :]
    return leq


def test_mult_table_matches_composition(fq_b2, fq_mo2, fq_b3):
    for f, view in (fq_b2, fq_mo2, fq_b3):
        mult = f.base.dense_mult()
        maps = view.values
        for i, g in enumerate(maps):
            # row h of g[maps] is g after h
            assert mult[i].tolist() == view.indices(g[maps]).tolist()


def test_order_tables_match_dictionary_reference(fq_b2, fq_mo2):
    hosts = [catalog(name) for name in catalog_names() if "(" not in name]
    hosts += [catalog("product(boolean:1,mo:2)"), fq_b2[0].base.carrier,
              fq_mo2[0].base.carrier]
    for lat in hosts:
        want = order_tables_outcome(order_tables_reference, lat.labels, lat.leq_mat)
        assert order_tables_outcome(_order_tables, lat.labels, lat.leq_mat) == want
        assert want == (lat.join_tab.tolist(), lat.meet_tab.tolist())
        assert lattice_from_order_outcome(lat.labels, lat.leq_mat) == want


def lattice_from_order_reference(labels, leq):
    """The outcome of a lattice build that scans both tables and then the
    bounds, as lattice_from_order did before it built the join table alone."""
    outcome = order_tables_outcome(order_tables_reference, labels, leq)
    bottoms, tops = np.flatnonzero(leq.all(axis=1)), np.flatnonzero(leq.all(axis=0))
    if isinstance(outcome[0], str) or (len(bottoms), len(tops)) == (1, 1):
        return outcome
    return ("no bound", (labels[0], labels[-1]))


def lattice_from_order_outcome(labels, leq):
    """lattice_from_order's error, or its join table and the meet table it
    builds on first read, through the meet orientation alone."""
    try:
        lat = lattice_from_order(labels, leq)
    except NotALattice as e:
        return ("no " + e.kind, e.witness)
    assert "meet_tab" not in vars(lat)
    with mock.patch.object(lattice_module, "_order_tables", wraps=_order_tables) as spy:
        meet_tab = lat.meet_tab.tolist()
    assert [c.args[2] for c in spy.call_args_list] == [("meet",)]
    return (lat.join_tab.tolist(), meet_tab)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_order_tables_report_the_reference_witness(data):
    # 0 < a, 0 < b, a < c, a < d, b < c, b < d: the pair (a, b) has two
    # minimal upper bounds.  Dually, a < 1 and b < 1 have no lower bound.
    no_join = (list("0abcd"), closed_order(5, [(0, 1), (0, 2), (1, 3), (1, 4),
                                               (2, 3), (2, 4)]))
    no_meet = (list("ab1"), closed_order(3, [(0, 2), (1, 2)]))
    for (labels, leq), kind in ((no_join, "no join"), (no_meet, "no meet")):
        want = order_tables_outcome(order_tables_reference, labels, leq)
        assert want == (kind, ("a", "b"))
        assert order_tables_outcome(_order_tables, labels, leq) == want
        assert lattice_from_order_outcome(labels, leq) == want
    # Random posets, relabelled so that the label order need not be a
    # linear extension: lattices and non-lattices of both kinds.
    n = data.draw(st.integers(1, 9))
    perm = data.draw(st.permutations(range(n)))
    upper = [(x, y) for x in range(n) for y in range(x + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(upper), unique=True) if upper else st.just([]))
    leq = closed_order(n, [(perm[x], perm[y]) for x, y in chosen])
    labels = [f"e{i}" for i in range(n)]
    assert order_tables_outcome(_order_tables, labels, leq) == order_tables_outcome(
        order_tables_reference, labels, leq
    )
    assert lattice_from_order_outcome(labels, leq) == lattice_from_order_reference(labels, leq)


def stacked_poset(below, middle, pairs, above, perm):
    """A chain of `below` elements under the poset of the labels in middle,
    ordered by pairs, under a chain of `above` elements.  Element k of the
    stack is stored at index perm[k], so the label order need not be a
    linear extension."""
    names = [f"l{k}" for k in range(below)] + list(middle) + [f"u{k}" for k in range(above)]
    n, top_mid = len(names), below + len(middle)
    edges = [(k, k + 1) for k in range(below - 1)]
    edges += [(k, k + 1) for k in range(top_mid, n - 1)]
    lows = [below - 1] if below else []
    highs = [top_mid] if above else []
    mid = range(below, top_mid)
    edges += [(x, y) for x in lows for y in [*mid, *highs]]
    edges += [(x, y) for x in mid for y in highs]
    edges += [(names.index(x), names.index(y)) for x, y in pairs]
    labels = [None] * n
    for k, name in enumerate(names):
        labels[perm[k]] = name
    return labels, closed_order(n, [(perm[x], perm[y]) for x, y in edges])


def shuffled(n):
    return [int(k) for k in np.random.default_rng(n).permutation(n)]


def subset_lattice(k):
    """The subsets of a k-set under inclusion, stored in shuffled order."""
    perm = shuffled(2 ** k)
    sets = np.arange(2 ** k)
    leq = np.empty((2 ** k, 2 ** k), dtype=bool)
    leq[np.ix_(perm, perm)] = (sets[:, None] & sets[None, :]) == sets[:, None]
    labels = [None] * 2 ** k
    for s in sets:
        labels[perm[s]] = f"s{s}"
    return labels, leq


# 64, 65 and 128 elements: up-sets of exactly one word, of one word and one
# bit, and of exactly two words.  Each failing pair sits past a long chain:
# above it for joins, whose columns run from the bottom, and below it for
# meets, whose columns run from the top.  So its bits lie at the end of the
# first word, across the word boundary or in the second word.  Without a
# chain above, c and d have no upper bound; without one below, a and b have
# no lower bound.
TWO_MINIMAL_BOUNDS = ("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
WORD_CASES = [
    (subset_lattice(6), None),
    (subset_lattice(7), None),
    (stacked_poset(65, "", [], 0, shuffled(65)), None),
    (stacked_poset(62, "abcd", [], 62, shuffled(128)), None),
    *[(stacked_poset(n - 4, *TWO_MINIMAL_BOUNDS, 0, shuffled(n)), "no join")
      for n in (64, 65, 128)],
    *[(stacked_poset(n - 5, *TWO_MINIMAL_BOUNDS, 1, shuffled(n)), "no join")
      for n in (64, 65)],
    (stacked_poset(123, *TWO_MINIMAL_BOUNDS, 1, shuffled(128)), "no meet"),
    *[(stacked_poset(0, "ab", [], n - 2, shuffled(n)), "no meet") for n in (64, 65, 128)],
]


def assert_order_tables_match_the_reference(labels, leq):
    assert order_tables_outcome(_order_tables, labels, leq) == order_tables_outcome(
        order_tables_reference, labels, leq
    )
    assert lattice_from_order_outcome(labels, leq) == lattice_from_order_reference(labels, leq)


@pytest.mark.parametrize("case", range(len(WORD_CASES)))
def test_order_tables_report_the_reference_witness_at_word_boundaries(case):
    (labels, leq), kind = WORD_CASES[case]
    want = order_tables_outcome(order_tables_reference, labels, leq)
    if kind is None:
        assert not isinstance(want[0], str)
    else:  # c and d precede a and b in the 128-element meet case
        assert want[0] == kind and set(want[1]) <= set("abcd")
    assert_order_tables_match_the_reference(labels, leq)


@st.composite
def stacked_posets(draw):
    n = draw(st.integers(60, 140))
    r = draw(st.integers(0, 9))
    below = draw(st.sampled_from([0, n - r]) | st.integers(0, n - r))
    upper = [(x, y) for x in range(r) for y in range(x + 1, r)]
    chosen = draw(st.lists(st.sampled_from(upper), unique=True) if upper else st.just([]))
    middle = [f"m{k}" for k in range(r)]
    pairs = [(middle[x], middle[y]) for x, y in chosen]
    return stacked_poset(below, middle, pairs, n - r - below, draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(stacked_posets())
def test_order_tables_report_the_reference_witness_across_words(poset):
    # Relabelled stacks of 60 to 140 elements: a random poset of up to 9
    # elements between two chains, either of which may be empty, so that
    # bottoms, tops and empty intersections come and go.
    assert_order_tables_match_the_reference(*poset)


# ---------------------------------------------------------------------------
# Defined order and orthogonality.
# ---------------------------------------------------------------------------


# The defined order s <= t is m[t, s] == s, and the orthogonality s perp t
# is m[star[s], t] == zero.


def test_defined_order_on_projections_mirrors_the_lattice(fq_b2, fq_mo2, b2, mo2):
    for (f, view), oml in ((fq_b2, b2), (fq_mo2, mo2)):
        m = f.base.dense_mult()
        for a in range(oml.n):
            for b in range(oml.n):
                pa, pb = proj_index(view, oml, a), proj_index(view, oml, b)
                assert (m[pb, pa] == pa) == oml.leq_mat[a, b]


def test_defined_order_differs_from_carrier_order(fq_b2):
    # The defined order agrees with the pointwise order on projections but
    # not on the whole carrier: exhibit a pointwise-comparable pair that is
    # not mult-comparable.
    f, view = fq_b2
    q = f.base
    m, leq = q.dense_mult(), q.carrier.leq_mat
    diff = [
        (s, t)
        for s in range(q.n)
        for t in range(q.n)
        if leq[s, t] != (m[t, s] == s)
    ]
    assert diff, "defined order coincides with carrier order on all pairs"


def test_zero_is_least_in_defined_order(fq_b2):
    q = fq_b2[0].base
    m, star = q.dense_mult(), q.dense_star()
    for t in range(q.n):
        assert m[t, q.zero] == q.zero
        assert m[star[q.zero], t] == q.zero


def test_defined_order_reflexive_on_idempotents(fq_b2):
    # s <= s exactly where the map s is idempotent under composition
    f, view = fq_b2
    m = f.base.dense_mult()
    for s, row in enumerate(view.values):
        assert (m[s, s] == s) == np.array_equal(row[row], row)


def test_defined_order_transitive_on_self_adjoint_idempotents(fq_b2):
    q = fq_b2[0].base
    m, star = q.dense_mult(), q.dense_star()
    sai = [s for s in range(q.n) if m[s, s] == s and star[s] == s]
    for a in sai:
        for b in sai:
            for c in sai:
                if m[b, a] == a and m[c, b] == b:
                    assert m[c, a] == a


def test_orthogonality_relation_symmetric_on_lin(fq_b2):
    # star(s) * t = 0 iff star(t) * s = 0 holds in the endomorphism quantale.
    q = fq_b2[0].base
    m, star = q.dense_mult(), q.dense_star()
    for s in range(q.n):
        for t in range(q.n):
            assert (m[star[s], t] == q.zero) == (m[star[t], s] == q.zero)


# ---------------------------------------------------------------------------
# Mutation sensitivity.
# ---------------------------------------------------------------------------


def test_single_mult_mutation_is_caught(fq_b2):
    q = fq_b2[0].base
    mult = q.dense_mult().copy()
    # Break the unit row deterministically.
    mult[q.unit, 3] = q.zero
    broken = FinQuantale(q.carrier, mult, q.dense_star(), q.unit)
    report = check_quantale(broken)
    assert not report.passed
    assert report.witness("unit-left") == (q.label(3),)


def test_single_star_mutation_is_caught(fq_b2):
    q = fq_b2[0].base
    star = q.dense_star().copy()
    star[q.unit] = q.zero  # unit no longer self-adjoint
    broken = FinQuantale(q.carrier, q.dense_mult(), star, q.unit)
    report = check_involutive(broken)
    assert not report.passed
    failing = {v.axiom for v in report.violations}
    assert "unit-self-adjoint" in failing


def distributivity_reference(q):
    """Least (x, y, z) witnesses of both distributive laws, by scanning the
    full square of (y, z) pairs for each x."""
    m, j = q.dense_mult(), q.carrier.join_tab
    out = []
    for table in (m, m.T):
        hit = None
        for x in range(q.n):
            act = table[x]
            bad = np.argwhere(act[j] != j[act[:, None], act[None, :]])
            if bad.size:
                hit = tuple(q.label(i) for i in (x, *map(int, bad[0])))
                break
        out.append(hit)
    return out


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_distributivity_half_scan_matches_full_square(fq_b2, fq_mo2, data):
    q = data.draw(st.sampled_from([fq_b2[0].base, fq_mo2[0].base]))
    i = data.draw(st.integers(0, q.n - 1))
    j = data.draw(st.integers(0, q.n - 1))
    v = data.draw(st.integers(0, q.n - 1).filter(lambda v: v != q.dense_mult()[i, j]))
    mult = q.dense_mult().copy()
    mult[i, j] = v
    mutant = FinQuantale(q.carrier, mult, q.dense_star(), q.unit)
    report = check_quantale(mutant)
    left, right = distributivity_reference(mutant)
    assert report.witness("distributes-left") == left
    assert report.witness("distributes-right") == right


def test_mult_associativity_mutation_is_caught(two_chain_quantale):
    q = make_two_chain_quantale()
    mult = q.dense_mult().copy()
    mult[0, 0] = 1  # 0*0 = 1 breaks both zero laws and associativity
    broken = FinQuantale(q.carrier, mult, q.dense_star(), q.unit)
    report = check_quantale(broken)
    assert not report.passed
    assert report.witness("zero-left") is not None


# ---------------------------------------------------------------------------
# Join-irreducible certificates against the exhaustive scans.
# ---------------------------------------------------------------------------


def check_quantale_reference(q, subject="quantale"):
    """check_quantale by exhaustive scans alone: associativity over every
    triple, the distributive laws over the full square of (y, z) pairs."""
    m, n = q.dense_mult(), q.n
    ar = np.arange(n)

    def first(bad):
        return tuple(q.label(int(i)) for i in bad[0]) if len(bad) else None

    assoc = None
    for a in range(n):
        bad = np.argwhere(m[m[a]] != m[a][m])
        if bad.size:
            assoc = tuple(q.label(int(i)) for i in (a, *bad[0]))
            break
    left, right = distributivity_reference(q)
    return make_report(subject, [
        ("associativity", assoc),
        ("unit-left", first(np.argwhere(m[q.unit] != ar))),
        ("unit-right", first(np.argwhere(m[:, q.unit] != ar))),
        ("zero-left", first(np.argwhere(m[q.zero] != q.zero))),
        ("zero-right", first(np.argwhere(m[:, q.zero] != q.zero))),
        ("distributes-left", left),
        ("distributes-right", right),
    ])


def test_check_quantale_matches_exhaustive_reference(
    fq_b1, fq_b2, fq_b3, fq_mo2, two_chain_quantale, nilpotent_chain_quantale
):
    # The Lin quantales take the representation certificate, the chains
    # the row test and the J^3 certificate.
    for q in (fq_b1[0].base, fq_b2[0].base, fq_b3[0].base, fq_mo2[0].base,
              two_chain_quantale, nilpotent_chain_quantale):
        want = check_quantale_reference(q).to_dict()
        assert check_quantale(q).to_dict() == want


def draw_mutant(data, q):
    """One to three overwritten mult cells, each anywhere, in a row of a
    join-irreducible, or in its column."""
    irr = q.carrier.join_irreducibles()
    mult = q.dense_mult().copy()
    for _ in range(data.draw(st.integers(1, 3))):
        a = data.draw(st.integers(0, q.n - 1))
        b = data.draw(st.integers(0, q.n - 1))
        where = data.draw(st.sampled_from(["anywhere", "irreducible row", "irreducible column"]))
        if where == "irreducible row":
            a = data.draw(st.sampled_from(irr))
        elif where == "irreducible column":
            b = data.draw(st.sampled_from(irr))
        old = int(mult[a, b])
        mult[a, b] = data.draw(st.integers(0, q.n - 1).filter(lambda v: v != old))
    return FinQuantale(q.carrier, mult, q.dense_star(), q.unit)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certified_check_quantale_matches_reference_on_boolean2_mutants(fq_b2, data):
    mutant = draw_mutant(data, fq_b2[0].base)
    want = check_quantale_reference(mutant).to_dict()
    assert check_quantale(mutant).to_dict() == want


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certified_check_quantale_matches_reference_on_boolean3_mutants(fq_b3, data):
    mutant = draw_mutant(data, fq_b3[0].base)
    want = check_quantale_reference(mutant).to_dict()
    assert check_quantale(mutant).to_dict() == want


def affine_table(lat, c, r, s, g):
    """x * y = c v V r(i) v V s(k) v V g(i, k) over i in J(x), k in J(y)."""
    irr = lat.join_irreducibles()
    below = [[i for i in irr if lat.leq_mat[i, x]] for x in range(lat.n)]
    return [[join_all(lat, [c] + [r[i] for i in below[x]] + [s[k] for k in below[y]]
                      + [g[i, k] for i in below[x] for k in below[y]])
             for y in range(lat.n)] for x in range(lat.n)]


def draw_extension(data, lat):
    """A multiplication on a Boolean lattice from values drawn on its
    join-irreducibles (atoms), each kind passing some facts of the
    certificates and failing others:

    affine: affine_table, which preserves binary joins in each argument;
        the zero laws hold only when c, r and s are 0.
    expanded rows: x * y = V row_i(y) over i in J(x) with arbitrary rows of
        J, so fact (1) of left distributivity holds and fact (2) may fail.
    meet with free rows: meet on the rows of J and 0, and an arbitrary
        join-preserving row for every other x, so associativity holds on J^3
        and left distributivity holds, but fact (1) and right distributivity
        may fail.
    Each kind is transposed half of the time, which swaps left and right.
    """
    n, irr = lat.n, lat.join_irreducibles()
    below = [[i for i in irr if lat.leq_mat[i, x]] for x in range(n)]
    value = st.one_of(st.just(lat.bottom), st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["affine", "expanded rows", "meet with free rows"]))
    if kind == "affine":
        c = data.draw(value)
        r = {i: data.draw(value) for i in irr}
        s = {k: data.draw(value) for k in irr}
        g = {(i, k): data.draw(value) for i in irr for k in irr}
        mult = affine_table(lat, c, r, s, g)
    elif kind == "expanded rows":
        # each row of J is arbitrary or join-preserving
        rows = {i: data.draw(st.one_of(
            st.lists(value, min_size=n, max_size=n),
            st.fixed_dictionaries({k: value for k in irr}).map(
                lambda on_irr: [join_all(lat, (on_irr[k] for k in below[y])) for y in range(n)]),
        )) for i in irr}
        mult = [[join_all(lat, (rows[i][y] for i in below[x])) for y in range(n)]
                for x in range(n)]
    else:
        free = {x: {k: data.draw(value) for k in irr} for x in range(n)}
        mult = [[lat.meet_tab[x, y] if x == lat.bottom or x in irr
                 else join_all(lat, (free[x][k] for k in below[y])) for y in range(n)]
                for x in range(n)]
    mult = np.array(mult, dtype=np.int32)
    return mult.T.copy() if data.draw(st.booleans()) else mult


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certificates_fall_back_on_tables_built_from_join_irreducibles(data):
    # boolean:3 has 3 atoms of 8 elements and boolean:4 4 of 16, so the
    # certificates are tried; the reference decides every law.
    lat = catalog(data.draw(st.sampled_from(["boolean:3", "boolean:4"])))
    mult = draw_extension(data, lat)
    q = FinQuantale(lat, mult, np.arange(lat.n, dtype=np.int32), lat.top)
    want = check_quantale_reference(q).to_dict()
    assert check_quantale(q).to_dict() == want


def test_associativity_certificate_needs_every_premise():
    lat = catalog("boolean:3")
    ix = lat.index
    meet = {(i, k): int(lat.meet_tab[i, k]) for i in (1, 2, 3) for k in (1, 2, 3)}
    zero = {i: lat.bottom for i in (1, 2, 3)}
    # Binary distributivity holds and associativity holds on J^3, but
    # 0 * 0 = ab and (0 * 0) * 0 != 0 * (0 * 0): the zero laws are needed.
    no_zero = affine_table(
        lat, ix("ab"), {ix("a"): ix("ac"), ix("b"): ix("0"), ix("c"): ix("ac")},
        {ix("a"): ix("0"), ix("b"): ix("0"), ix("c"): ix("1")},
        {(ix(i), ix(k)): ix(v) for (i, k), v in {
            ("a", "a"): "a", ("a", "b"): "0", ("a", "c"): "0",
            ("b", "a"): "1", ("b", "b"): "a", ("b", "c"): "0",
            ("c", "a"): "0", ("c", "b"): "0", ("c", "c"): "bc"}.items()},
    )
    # Meet on J except c * a = c: bilinear, and associativity fails on J^3
    # only at triples that start with the last join-irreducible.
    last_row = affine_table(lat, lat.bottom, zero, zero, {**meet, (3, 1): 3})
    for table, witness in ((no_zero, ("0", "0", "0")), (last_row, ("c", "a", "c"))):
        q = FinQuantale(lat, np.array(table, dtype=np.int32), np.arange(8, dtype=np.int32), 7)
        want = check_quantale_reference(q).to_dict()
        assert want["axioms"]["associativity"]["witness"] == list(witness)
        assert want["axioms"]["distributes-left"]["passed"]
        assert want["axioms"]["distributes-right"]["passed"]
        assert check_quantale(q).to_dict() == want


def without_phi(q):
    return FinQuantale(q.carrier, q.dense_mult(), q.dense_star(), q.unit)


def test_certificates_replace_the_cubic_scans(monkeypatch, fq_b1, fq_b2, fq_b3, fq_mo2,
                                              two_chain_quantale, nilpotent_chain_quantale):
    # The names of the laws handed to the runner as scans, not decided: the
    # copies without phi decide both distributive laws by the row test, and
    # associativity by the J^3 certificate once they pass, whatever the
    # share of join-irreducibles (boolean:3 has 9 of 512, mo:2 136 of 234);
    # the Lin quantales themselves take the representation certificate.
    scanned = []
    real = quantale_module.run_laws

    def recording(subject, label, laws):
        laws = list(laws)
        scanned.extend(law.name for law in laws if law.scan is not None)
        return real(subject, label, laws)

    monkeypatch.setattr(quantale_module, "run_laws", recording)
    lin = [f.base for f, _ in (fq_b1, fq_b2, fq_b3, fq_mo2)]
    for q in [*map(without_phi, lin), two_chain_quantale, nilpotent_chain_quantale]:
        check_quantale(q)
        assert not {"distributes-left", "distributes-right"} & set(scanned)
    scanned.clear()
    assert check_quantale(without_phi(fq_mo2[0].base)).passed
    assert scanned == []
    for q in lin:
        assert q.view is not None
        assert check_quantale(q).passed
    assert scanned == []


# ---------------------------------------------------------------------------
# The representation certificate of the Lin quantales.
# ---------------------------------------------------------------------------


def test_lin_quantale_records_the_pass_of_its_build(fq_b2, fq_mo2, fq_b3):
    # The build fills mult and join from one products pass over every row,
    # so it records that pass as preserved_by would return it, and
    # represents reads it instead of making the pass again.
    for f, view in (fq_b2, fq_mo2, fq_b3):
        q = f.base
        recorded = q._passes[view]
        copy = FinQuantale(q.carrier, q.dense_mult(), q.dense_star(), q.unit, view=view)
        assert copy.preserved_by(view) == recorded == (None, None)


def test_lin_quantale_carries_its_maps_as_phi(fq_b1, fq_b2, fq_b3, fq_mo2, b2):
    # phi is the view lin_quantale built and returned beside the quantale
    for f, view in (fq_b1, fq_b2, fq_b3, fq_mo2):
        assert f.base.view is view
        assert quantale_module.represents(f.base)
    assert fq_b2[0].base.view.host is b2


def test_view_memoizes_what_it_reads_off_its_rows(fq_mo2, mo2):
    # elements, adjoints and projections are found once and kept
    # read-only; lin_quantale keeps the adjoints as its star.
    f, view = fq_mo2
    assert f.base.dense_star() is view.adjoints
    for name in ("elements", "adjoints", "projections"):
        got = getattr(view, name)
        assert getattr(view, name) is got and not got.flags.writeable
    assert view.elements.tolist() == list(range(view.n)) and view.distinct
    assert view.projections.tolist() == [proj_index(view, mo2, a) for a in range(mo2.n)]


def test_view_caches_no_failed_read(fq_mo2, mo2):
    # Without the identity row, the projection at the top is no element,
    # and without a row f other than its adjoint, the adjoint of A(f) is
    # none: each read raises FormatError again, and nothing is kept.
    f, view = fq_mo2
    identity = view.values.tolist().index(list(range(mo2.n)))
    moved = int(np.flatnonzero(view.adjoints != np.arange(view.n))[0])
    cut = QElementView(mo2, np.delete(view.values, [identity, moved], axis=0))
    for name in ("adjoints", "projections", "adjoints", "projections"):
        with pytest.raises(FormatError):
            getattr(cut, name)
    assert "adjoints" not in vars(cut) and "projections" not in vars(cut)
    assert cut.distinct


def draw_phi_mutant(data, q):
    """One to three overwritten cells of mult, of the carrier join table
    (a new FiniteLattice over the mutated table, whose derived order moves
    with it) or of phi's values."""
    host, values = q.view.host, q.view.values
    mult, join, values = q.dense_mult().copy(), q.carrier.join_tab.copy(), values.copy()
    kind = data.draw(st.sampled_from(["mult", "join", "phi"]))
    table, size = {"mult": (mult, q.n), "join": (join, q.n), "phi": (values, host.n)}[kind]
    for _ in range(data.draw(st.integers(1, 3))):
        a = data.draw(st.integers(0, table.shape[0] - 1))
        b = data.draw(st.integers(0, table.shape[1] - 1))
        old = int(table[a, b])
        table[a, b] = data.draw(st.integers(0, size - 1).filter(lambda v: v != old))
    c = q.carrier
    if kind == "join":
        c = FiniteLattice(c.labels, join, c.bottom, c.top)
    return kind, FinQuantale(c, mult, q.dense_star(), q.unit, view=QElementView(host, values))


def check_phi_mutant(kind, mutant):
    # A mutated join table is no lattice join, and the certificates and
    # half scans of the path without phi assume one, so there the
    # reference is that path; mult and phi mutants keep a lattice carrier.
    if kind == "join":
        want = check_quantale(without_phi(mutant)).to_dict()
    else:
        want = check_quantale_reference(mutant).to_dict()
    assert check_quantale(mutant).to_dict() == want


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_phi_certificate_matches_reference_on_mutants(fq_b1, fq_b2, fq_mo2, data):
    q = data.draw(st.sampled_from([fq_b1[0].base, fq_b2[0].base, fq_mo2[0].base]))
    check_phi_mutant(*draw_phi_mutant(data, q))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_phi_certificate_matches_reference_on_boolean3_mutants(fq_b3, data):
    check_phi_mutant(*draw_phi_mutant(data, fq_b3[0].base))


def reread_from_phi(q, values):
    """q with phi's values replaced and every product a * b re-read as the
    element whose values on J(X) are those of phi(a) o phi(b); a product
    that names no element keeps its cell.  (ii) and (iii) then hold by
    construction, so only (i) can fail the certificate."""
    host = q.view.host
    irr = host.join_irreducibles()
    base = host.n ** np.arange(len(irr))
    by_code = {int(c): a for a, c in enumerate(values[:, irr] @ base)}
    mult = q.dense_mult().copy()
    for (a, b), c in np.ndenumerate(np.take(values, values[:, irr], axis=1) @ base):
        mult[a, b] = by_code.get(int(c), mult[a, b])
    return FinQuantale(q.carrier, mult, q.dense_star(), q.unit, view=QElementView(host, values))


def test_phi_certificate_needs_join_preserving_rows(fq_b2):
    # Every one-cell change of phi off J(X) on Lin(boolean:2), at 0 or at
    # the top: a raised phi(a)(0) that stays below phi(a) on J(X) keeps the
    # binary joins, any other change breaks them.  Some of the re-read
    # multiplications break associativity or distributivity.
    q = fq_b2[0].base
    host, values = q.view.host, q.view.values
    irr = host.join_irreducibles()
    cubic = ("associativity", "distributes-left", "distributes-right")
    failing = 0
    for a in range(q.n):
        for x in set(range(host.n)) - set(irr):
            for v in set(range(host.n)) - {int(values[a, x])}:
                changed = values.copy()
                changed[a, x] = v
                mutant = reread_from_phi(q, changed)
                want = check_quantale_reference(mutant).to_dict()
                failing += any(not want["axioms"][law]["passed"] for law in cubic)
                assert check_quantale(mutant).to_dict() == want
    assert failing > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_phi_certificate_needs_distinct_rows(fq_b2, fq_mo2, data):
    # Every row of phi the zero map: (i) holds but for distinctness, and
    # (ii) and (iii) hold for any tables.
    q = data.draw(st.sampled_from([fq_b2[0].base, fq_mo2[0].base]))
    host, values = q.view.host, q.view.values
    mutant = draw_mutant(data, q)
    collapsed = np.repeat(values[q.zero][None], q.n, axis=0)
    check_phi_mutant("mult", FinQuantale(q.carrier, mutant.dense_mult(), q.dense_star(), q.unit,
                                         view=QElementView(host, collapsed)))


# ---------------------------------------------------------------------------
# The join-irreducible row test of the distributive laws.
# ---------------------------------------------------------------------------


def row_test_carriers(fq_b2):
    """The carriers the lemma is tested on: Boolean, orthomodular, a product,
    a Lin carrier, and a chain and the pentagon, which are not relatively
    complemented."""
    hosts = [catalog(name) for name in ("boolean:3", "mo:2", "product(boolean:1,mo:2)")]
    hosts.append(fq_b2[0].base.carrier)
    hosts.append(build_lattice(list("0ab1"), [["0", "a"], ["a", "b"], ["b", "1"]]))
    hosts.append(build_lattice(list("0abc1"), [["0", "a"], ["a", "b"], ["b", "1"],
                                               ["0", "c"], ["c", "1"]]))
    return hosts


def preserves_binary_joins(f, lat):
    j = lat.join_tab
    return bool((f[j] == j[f[:, None], f[None, :]]).all())


def draw_row(data, lat):
    """A map on the carrier: arbitrary, monotone (the join of arbitrary
    values over each down-set), or join-preserving with one overwritten
    cell.  y -> c v V{b_k : y not below a_k} preserves binary joins on any
    lattice, as y v z is below a exactly when y and z are."""
    n, leq = lat.n, lat.leq_mat
    value = st.integers(0, n - 1)
    kind = data.draw(st.sampled_from(["arbitrary", "monotone", "join-preserving"]))
    if kind == "arbitrary":
        return np.array(data.draw(st.lists(value, min_size=n, max_size=n)), dtype=np.int32)
    if kind == "monotone":
        g = data.draw(st.lists(value, min_size=n, max_size=n))
        return np.array([join_all(lat, (g[x] for x in range(n) if leq[x, y])) for y in range(n)],
                        dtype=np.int32)
    terms = data.draw(st.lists(st.tuples(value, value), max_size=4))
    c = data.draw(st.one_of(st.just(lat.bottom), value))
    f = np.array([join_all(lat, [c] + [b for a, b in terms if not leq[y, a]]) for y in range(n)],
                 dtype=np.int32)
    f[data.draw(value)] = data.draw(value)
    return f


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_row_test_decides_join_preservation(fq_b2, data):
    # Rows drawn one to four at a time: the row test names the first row
    # that fails to preserve binary joins, or none, and join_law adds the
    # least witness of the full square of that row, also with blocks of
    # one row.
    lat = data.draw(st.sampled_from(row_test_carriers(fq_b2)))
    rows = [draw_row(data, lat) for _ in range(data.draw(st.integers(1, 4)))]
    failing = [r for r, f in enumerate(rows) if not preserves_binary_joins(f, lat)]
    got = lattice_module.nonadditive_row(np.array(rows), lat)
    assert got == (failing[0] if failing else None)
    want = None
    if failing:
        f, j = rows[failing[0]], lat.join_tab
        want = (failing[0], *map(int, np.argwhere(f[j] != j[f[:, None], f[None, :]])[0]))
    for cells in (lattice_module._JOIN_CELLS, lat.n):
        with mock.patch.object(lattice_module, "_JOIN_CELLS", cells):
            assert lattice_module.join_law("law", np.array(rows), lat).hit == want


def test_row_test_reads_every_join_irreducible(fq_b2):
    # Top everywhere but bottom at one join-irreducible k: the pair (0, k)
    # is the only pair of the test that fails, so no member of J may be
    # left out.  The same row behind a lawful one, and twice, is found at
    # its first place.
    for lat in row_test_carriers(fq_b2):
        top = np.full(lat.n, lat.top, dtype=np.int32)
        for k in lat.join_irreducibles():
            f = top.copy()
            f[k] = lat.bottom
            assert not preserves_binary_joins(f, lat)
            assert lattice_module.nonadditive_row(np.array([top, f, f]), lat) == 1
        assert lattice_module.nonadditive_row(top[None, :], lat) is None


def draw_late_mutant(data, q):
    """One to three overwritten mult cells, each in the second half of the
    rows or of the columns."""
    mult = q.dense_mult().copy()
    late = st.integers(q.n // 2, q.n - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.sampled_from([(late, st.integers(0, q.n - 1)),
                                          (st.integers(0, q.n - 1), late)]))
        a, b = data.draw(a), data.draw(b)
        old = int(mult[a, b])
        mult[a, b] = data.draw(st.integers(0, q.n - 1).filter(lambda v: v != old))
    return FinQuantale(q.carrier, mult, q.dense_star(), q.unit)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_row_test_matches_reference_on_late_boolean3_mutants(fq_b3, data):
    mutant = draw_late_mutant(data, fq_b3[0].base)
    want = check_quantale_reference(mutant).to_dict()
    assert check_quantale(mutant).to_dict() == want


def test_failed_row_test_scans_one_row_per_law(monkeypatch, fq_b3):
    # One cell in row 400 breaks left distributivity in row 400 and right
    # distributivity in column 266; each law scans only its failing row.
    q = fq_b3[0].base
    mult = q.dense_mult().copy()
    mult[400, 266] = (mult[400, 266] + 1) % q.n
    mutant = FinQuantale(q.carrier, mult, q.dense_star(), q.unit)
    scanned = []
    real = lattice_module._row_witness

    def counting(f, lat):
        scanned.append(f)
        return real(f, lat)

    monkeypatch.setattr(lattice_module, "_row_witness", counting)
    report = check_quantale(mutant)
    assert report.witness("distributes-left")[0] == q.label(400)
    assert report.witness("distributes-right")[0] == q.label(266)
    assert len(scanned) == 2
    assert np.array_equal(scanned[0], mult[400])
    assert np.array_equal(scanned[1], mult[:, 266])


def test_join_test_on_int16_tables_matches_int32(fq_b3):
    # boolean:3 has k = 512 elements, so a flat join index y * k + z
    # overflows int16: the row test must widen it.  The same quantale,
    # without phi and with one planted cell, gives byte-equal row tests
    # and reports as int16 and as int32 tables.
    q = fq_b3[0].base
    assert q.dense_mult().dtype == q.carrier.join_tab.dtype == np.int16
    mult = q.dense_mult().copy()
    mult[300, 400] = (mult[300, 400] + 1) % q.n
    got = []
    for dtype in (np.int16, np.int32):
        c = q.carrier
        carrier = FiniteLattice(c.labels, c.join_tab.astype(dtype), c.bottom, c.top)
        m = mult.astype(dtype)
        mutant = FinQuantale(carrier, m, q.dense_star(), q.unit)
        got.append((lattice_module.nonadditive_row(m, carrier),
                     lattice_module.nonadditive_row(m.T, carrier),
                     dump_json(check_quantale(mutant).to_dict())))
    assert got[0] == got[1]
    assert got[1][:2] == (300, 400)


def test_every_dense_element_table_follows_the_cell_rule(fq_b2, fq_mo2):
    assert cell_dtype(1 << 15) == np.int16
    assert cell_dtype((1 << 15) + 1) == np.int32
    assert quantale_module.table_cell_bytes(1 << 15) == 5
    assert quantale_module.table_cell_bytes((1 << 15) + 1) == 9
    for name in ("boolean:3", "mo:2", "benzene", "product(boolean:1,mo:2)"):
        lat = catalog(name)
        assert lat.join_tab.dtype == lat.meet_tab.dtype == cell_dtype(lat.n)
        sub = SubOML(lat, lat.top).oml
        assert sub.join_tab.dtype == sub.meet_tab.dtype == cell_dtype(sub.n)
    for f, view in (fq_b2, fq_mo2):
        q = f.base
        assert q.dense_mult().dtype == q.carrier.join_tab.dtype == cell_dtype(q.n)
        back = parse_quantale(quantale_to_dict(q))
        for got, want in ((back.dense_mult(), q.dense_mult()),
                          (back.carrier.join_tab, q.carrier.join_tab)):
            assert got.dtype == cell_dtype(q.n)
            assert got.tobytes() == want.tobytes()
        module = lin_module(q)
        assert module.table.dtype == cell_dtype(view.host.n)
        assert parse_module(module_to_dict(module)).table.tobytes() == module.table.tobytes()
