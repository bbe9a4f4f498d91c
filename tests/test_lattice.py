"""Finite lattice and ortholattice core: order tables, law checks,
Sasaki application, and sublattice constructions.

Oracle style: the four-element Boolean algebra is small enough that its
order, join, meet, and orthocomplement tables are frozen by hand and the
code's tables are compared against them entry by entry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omlq import (
    CheckReport,
    FiniteOML,
    FormatError,
    LinMap,
    NotALattice,
    NotAPoset,
    SubOML,
    build_lattice,
    catalog,
    catalog_names,
    check_oml,
    is_linear,
    lattice_from_leq,
    sasaki_apply,
)
from omlq import lattice as lattice_module
from omlq.lattice import bool_product, breaks_joins, join_pairs

from conftest import join_all

# ---------------------------------------------------------------------------
# Hand-frozen tables for the four-element Boolean algebra {0, a, b, 1}.
# ---------------------------------------------------------------------------

B2_LABELS = ("0", "a", "b", "1")
B2_LEQ = np.array(
    [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ],
    dtype=bool,
)
B2_JOIN = np.array(
    [
        [0, 1, 2, 3],
        [1, 1, 3, 3],
        [2, 3, 2, 3],
        [3, 3, 3, 3],
    ],
    dtype=np.int32,
)
B2_MEET = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ],
    dtype=np.int32,
)
B2_ORTHO = np.array([3, 2, 1, 0], dtype=np.int32)


def test_b2_tables_match_hand_values(b2):
    assert b2.labels == B2_LABELS
    assert np.array_equal(b2.leq_mat, B2_LEQ)
    assert np.array_equal(b2.join_tab, B2_JOIN)
    assert np.array_equal(b2.meet_tab, B2_MEET)
    assert np.array_equal(b2.ortho, B2_ORTHO)
    assert b2.bottom == 0
    assert b2.top == 3


def test_lattice_navigation_helpers(b2):
    assert b2.n == 4
    assert b2.index("a") == 1
    assert b2.label(2) == "b"
    assert set(b2.covers()) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert set(b2.join_irreducibles()) == {1, 2}


def test_join_irreducibles_match_the_cover_count(fq_b2, fq_mo2, fq_b3):
    hosts = [catalog(name) for name in catalog_names() if "(" not in name]
    hosts += [catalog(spec) for spec in (
        "product(boolean:1,mo:2)", "product(zero,mo:2)", "product(benzene,boolean:1)",
        "horizontal_sum(zero,boolean:2)", "horizontal_sum(boolean:1,mo:2)",
        "horizontal_sum(product(boolean:1,mo:1),mo:2)", "horizontal_sum(boolean:2,boolean:3)")]
    hosts += [f.base.carrier for f, _ in (fq_b2, fq_mo2, fq_b3)]
    for lat in hosts:
        lower = np.zeros(lat.n, dtype=int)
        for _, j in lat.covers():
            lower[j] += 1
        assert lat.join_irreducibles() == [int(j) for j in np.flatnonzero(lower == 1)]

def test_build_lattice_from_covers_equals_full_order():
    full = lattice_from_leq(["0", "a", "b", "1"], B2_LEQ)
    covers = build_lattice(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    )
    assert full.signature == covers.signature


def test_equality_reads_the_join_table_alone():
    # A lattice is its join table: comparing two builds no order on either
    # side, and the cell type of the table does not matter.
    spec = "product(boolean:4,product(boolean:2,boolean:4))"
    a, b = catalog(spec), catalog(spec)
    assert a == b and hash(a) == hash(b)
    assert "leq_mat" not in vars(a) and "leq_mat" not in vars(b)
    lattices = [lattice_module.FiniteLattice(a.labels, jt, a.bottom, a.top)
                for jt in (a.join_tab, a.join_tab.astype(np.int32))]
    assert lattices[0] == lattices[1]
    assert not any("leq_mat" in vars(lat) for lat in lattices)


def test_build_lattice_rejects_cycles():
    with pytest.raises(NotAPoset) as exc:
        build_lattice(["x", "y"], [("x", "y"), ("y", "x")])
    assert exc.value.law == "antisymmetric" and set(exc.value.witness) == {"x", "y"}


@st.composite
def relations(draw):
    """A relation on at most 6 elements: arbitrary cells, arbitrary cells
    with the diagonal set, or a partial order (the closure of edges i -> j
    with i < j, relabelled) with up to two cells flipped."""
    n = draw(st.integers(1, 6))
    leq = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    kind = draw(st.sampled_from(["arbitrary", "reflexive", "order"]))
    if kind != "order":
        return leq | (kind == "reflexive") * np.eye(n, dtype=bool)
    leq = np.triu(leq) | np.eye(n, dtype=bool)
    for k in range(n):
        leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
    perm = np.array(draw(st.permutations(range(n))))
    leq = leq[np.ix_(perm, perm)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        leq[i, j] = not leq[i, j]
    return leq


def poset_law_reference(labels, leq):
    """The first of reflexivity, antisymmetry and transitivity that leq
    breaks, with its least witness in row-major order, or None."""
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    bad = [("reflexive", (i,)) for i in range(n) if not leq[i, i]]
    bad += [("antisymmetric", (i, j)) for i, j in pairs if i != j and leq[i, j] and leq[j, i]]
    bad += [("transitive", (i, j)) for i, j in pairs
            if not leq[i, j] and any(leq[i, k] and leq[k, j] for k in range(n))]
    return bad and (bad[0][0], tuple(labels[i] for i in bad[0][1]))


def lattice_outcome(build, labels, leq):
    try:
        lat = build(labels, leq)
    except NotALattice as e:
        return str(e), e.kind, e.witness
    return lat, lat.bottom, lat.top


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(relations())
def test_lattice_from_leq_names_the_least_witness_of_the_first_broken_law(leq):
    labels = [f"e{len(leq) - i}" for i in range(len(leq))]
    want = poset_law_reference(labels, leq)
    if want:
        with pytest.raises(NotAPoset) as exc:
            lattice_from_leq(labels, leq)
        assert (exc.value.law, exc.value.witness) == want
    else:
        assert (lattice_outcome(lattice_from_leq, labels, leq)
                == lattice_outcome(lattice_module.lattice_from_order, labels, leq))


def test_lattice_from_leq_refuses_no_elements():
    # with the error of build_lattice, before any table is sized
    for build, order in ((lattice_from_leq, np.zeros((0, 0), dtype=bool)), (build_lattice, [])):
        with pytest.raises(FormatError, match="^no elements$"):
            build([], order)


def test_join_irreducibles_are_scanned_once_and_returned_fresh():
    lat = catalog("mo:2")
    js = lat.join_irreducibles()
    js.append(-1)
    assert lat.join_irreducibles() == js[:-1] and "_irreducibles" in vars(lat)


def test_build_lattice_rejects_unknown_and_duplicate_labels():
    with pytest.raises(FormatError):
        build_lattice(["x", "y"], [("x", "z")])
    with pytest.raises(FormatError):
        build_lattice(["x", "x"], [])
    with pytest.raises(FormatError, match="names unknown elements"):
        build_lattice(["x", "y"], [("x", ["y"])])
    for pair in (5, "xy", ("x", "y", "x")):
        with pytest.raises(FormatError, match="is not a pair"):
            build_lattice(["x", "y"], [pair])


def test_build_lattice_reports_the_first_bad_pair():
    # A non-pair before an unknown label, and an unknown label before a
    # non-pair: each raises for the first of the two.
    with pytest.raises(FormatError, match=r"order pair 5 is not a pair"):
        build_lattice(["x", "y"], [["x", "y"], 5, ["x", "z"]])
    with pytest.raises(FormatError, match=r"order pair \('x', 'z'\) names unknown"):
        build_lattice(["x", "y"], [["x", "y"], ["x", "z"], 5])
    with pytest.raises(FormatError, match=r"order pair \(\['y'\], 'x'\) names unknown"):
        build_lattice(["x", "y"], (p for p in [("x", "y"), (["y"], "x"), "xy"]))
    lat = build_lattice(["x", "y"], iter([["x", "y"], ("x", "x")]))
    assert lat.leq_mat[0, 1] and not lat.leq_mat[1, 0]


def test_build_lattice_rejects_missing_bounds():
    # Two maximal elements: the pair {a, b} has no upper bound at all.
    with pytest.raises(NotALattice) as exc:
        build_lattice(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert exc.value.kind == "join"
    assert set(exc.value.witness) == {"a", "b"}


def test_build_lattice_rejects_ambiguous_bounds():
    # 0 < {a, b} < {c, d} < 1: a and b have upper bounds c, d but no least one.
    with pytest.raises(NotALattice) as exc:
        build_lattice(
            ["0", "a", "b", "c", "d", "1"],
            [
                ("0", "a"), ("0", "b"),
                ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
                ("c", "1"), ("d", "1"),
            ],
        )
    assert exc.value.kind in ("join", "meet")


def test_diamond_m3_is_a_lattice():
    m3 = build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    assert m3.join_tab[m3.index("a"), m3.index("b")] == m3.index("1")
    assert m3.meet_tab[m3.index("a"), m3.index("c")] == m3.index("0")


def test_element_order_permutation_gives_same_structure():
    base = catalog("boolean:3")
    perm = ["1", "b", "0", "ac", "a", "c", "bc", "ab"]
    pairs = [
        (base.label(x), base.label(y))
        for x in range(base.n)
        for y in range(base.n)
        if base.leq_mat[x, y]
    ]
    shuffled = build_lattice(perm, pairs)
    for xl in perm:
        for yl in perm:
            x0, y0 = base.index(xl), base.index(yl)
            x1, y1 = shuffled.index(xl), shuffled.index(yl)
            assert base.leq_mat[x0, y0] == shuffled.leq_mat[x1, y1]
            for b, s in ((base.join_tab, shuffled.join_tab), (base.meet_tab, shuffled.meet_tab)):
                assert base.label(b[x0, y0]) == shuffled.label(s[x1, y1])


# ---------------------------------------------------------------------------
# Ortholattice laws.
# ---------------------------------------------------------------------------


def test_check_oml_passes_on_boolean_and_mo_families():
    for name in ("boolean:1", "boolean:2", "boolean:3", "boolean:4",
                 "mo:1", "mo:2", "mo:3", "zero"):
        report = check_oml(catalog(name), subject=name)
        assert report.passed, str(report)


def test_check_oml_axiom_names(b2):
    report = check_oml(b2)
    assert set(report.axioms) == {
        "involution", "antitone", "complement", "orthomodular",
    }


def test_benzene_fails_only_orthomodularity(benzene):
    report = check_oml(benzene)
    assert not report.passed
    assert report.witness("involution") is None
    assert report.witness("antitone") is None
    assert report.witness("complement") is None
    assert report.witness("orthomodular") == ("x", "y'")


def test_bad_involution_detected(b2):
    # Index form can express non-involutions: both atoms point at the top.
    broken = FiniteOML(b2, [3, 3, 3, 0])
    report = check_oml(broken)
    assert not report.passed
    assert report.witness("involution") is not None


def test_bad_complement_detected():
    # Self-complemented atom in a diamond: x AND x' = x != bottom.
    m2 = build_lattice(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
    )
    broken = FiniteOML(m2, {"0": "1", "x": "x", "y": "y"})
    report = check_oml(broken)
    assert report.witness("complement") is not None


def test_de_morgan_holds_on_catalog_omls():
    for name in ("boolean:3", "mo:2", "benzene"):
        oml = catalog(name)
        jt, mt = oml.join_tab, oml.meet_tab
        o = oml.ortho
        assert np.array_equal(jt, o[mt[o][:, o]])
        assert np.array_equal(mt, o[jt[o][:, o]])


def test_normalize_ortho_symmetric_closure(b2):
    # Giving one direction of each pair suffices.
    oml = FiniteOML(b2, {"0": "1", "a": "b"})
    assert np.array_equal(oml.ortho, B2_ORTHO)


def test_normalize_ortho_rejects_partial_or_conflicting_maps(b2):
    with pytest.raises(FormatError):
        FiniteOML(b2, {"0": "1"})  # a, b missing
    with pytest.raises(FormatError):
        FiniteOML(b2, {"0": "1", "a": "b", "b": "1", "1": "0"})


def test_ortho_and_orthogonality_on_the_tables(b2):
    # x is orthogonal to y when x is below the complement of y
    a, b, top, bot = (b2.index(x) for x in "ab10")
    assert b2.ortho[a] == b
    assert b2.leq_mat[a, b2.ortho[b]]
    assert not b2.leq_mat[a, b2.ortho[top]]
    assert b2.leq_mat[bot, b2.ortho[bot]]


# ---------------------------------------------------------------------------
# Sasaki application.
# ---------------------------------------------------------------------------


def test_sasaki_at_top_and_bottom(mo2):
    top, bot = mo2.top, mo2.bottom
    for y in range(mo2.n):
        assert sasaki_apply(mo2, top, y) == y
        assert sasaki_apply(mo2, bot, y) == bot


def test_sasaki_fixes_elements_below(b3):
    for a in range(b3.n):
        for y in range(b3.n):
            if b3.leq_mat[y, a]:
                assert sasaki_apply(b3, a, y) == y


def test_sasaki_collapses_incomparable_atoms(mo2):
    # In the horizontal-sum family, distinct non-complementary atoms
    # project onto each other's target: p_a(b) = a.
    a, b = mo2.index("a"), mo2.index("b")
    assert sasaki_apply(mo2, a, b) == a
    assert sasaki_apply(mo2, a, mo2.index("a'")) == mo2.bottom


def test_sasaki_is_meet_on_boolean(b3):
    for a in range(b3.n):
        for y in range(b3.n):
            assert sasaki_apply(b3, a, y) == b3.meet_tab[a, y]


# ---------------------------------------------------------------------------
# Induced sub-ortholattices.
# ---------------------------------------------------------------------------


def test_downset_oml_is_oml_for_every_principal_ideal():
    for name in ("boolean:3", "mo:2", "zero", "product(boolean:1,mo:2)"):
        oml = catalog(name)
        for a in range(oml.n):
            sub = SubOML(oml, a)
            report = check_oml(sub.oml, subject=f"{name}|{oml.label(a)}")
            assert report.passed, str(report)


def test_downset_complement_fails_on_non_orthomodular_host(benzene):
    # The relative complement y -> a meet y' is an involution on downsets
    # exactly when the host satisfies the orthomodular law, so the hexagon
    # must break it somewhere.
    bad = [
        a for a in range(benzene.n)
        if not check_oml(SubOML(benzene, a).oml).passed
    ]
    assert bad, "every ideal of a non-orthomodular host passed"


def test_downset_oml_relative_complement(b3):
    a = b3.index("ab")
    sub = SubOML(b3, a)
    # Inside the ideal below "ab", the complement of "a" is "b".
    la = sub.local[b3.index("a")]
    assert sub.oml.label(sub.oml.ortho[la]) == "b"
    assert sub.members[sub.oml.top] == a
    assert sub.members[sub.local[b3.index("b")]] == b3.index("b")


def test_suboml_tables_are_the_parents_restricted_to_the_downset(b2, b3, mo2, benzene):
    # The reference reads every cell of the parent one at a time.
    twisted = FiniteOML(b2, {"0": "a", "a": "0", "b": "1", "1": "b"})
    for oml in (b3, mo2, benzene, twisted):
        for a in range(oml.n):
            sub = SubOML(oml, a)
            members = [p for p in range(oml.n) if oml.leq_mat[p, a]]
            local = {p: i for i, p in enumerate(members)}
            lat = sub.oml
            assert list(sub.members) == members
            assert lat.labels == tuple(oml.label(p) for p in members)
            assert (lat.bottom, lat.top) == (local[oml.bottom], local[a])
            for i, p in enumerate(members):
                assert sub.local[p] == i and sub.members[i] == p
                assert lat.ortho[i] == local[oml.meet_tab[a, oml.ortho[p]]]
                for j, q in enumerate(members):
                    assert lat.leq_mat[i, j] == oml.leq_mat[p, q]
                    assert lat.join_tab[i, j] == local[oml.join_tab[p, q]]
                    assert lat.meet_tab[i, j] == local[oml.meet_tab[p, q]]
            for p in set(range(oml.n)) - set(members):
                assert sub.local[p] == -1


def test_suboml_keeps_the_parents_order_and_meet_blocks():
    # The downset stores its gathered join table alone; the order and meet
    # it derives on first read are the parent's blocks gathered through
    # local.
    for name in ("boolean:3", "mo:3", "product(boolean:1,mo:2)"):
        oml = catalog(name)
        for a in range(oml.n):
            sub = SubOML(oml, a)
            lat, block = sub.oml, np.ix_(sub.members, sub.members)
            assert "leq_mat" not in vars(lat) and "meet_tab" not in vars(lat)
            assert np.array_equal(lat.join_tab, sub.local[oml.join_tab[block]])
            assert lat.leq_mat.tobytes() == oml.leq_mat[block].tobytes()
            assert lat.meet_tab.dtype == sub.local.dtype
            assert lat.meet_tab.tobytes() == sub.local[oml.meet_tab[block]].tobytes()


def test_suboml_membership_and_maps(mo2):
    a = mo2.index("a")
    sub = SubOML(mo2, a)
    assert sub.oml.n == 2
    assert sorted(sub.members) == sorted([mo2.bottom, a])


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


def test_check_report_shape(benzene):
    report = check_oml(benzene, subject="hexagon")
    d = report.to_dict()
    assert d["subject"] == "hexagon"
    assert d["passed"] is False
    assert d["axioms"]["orthomodular"]["passed"] is False
    assert d["axioms"]["orthomodular"]["witness"] == ["x", "y'"]
    assert d["axioms"]["involution"]["passed"] is True
    text = str(report)
    assert "orthomodular" in text and "FAIL" in text


def test_check_report_passing_str(b2):
    report = check_oml(b2, subject="square")
    assert report.passed
    assert isinstance(report, CheckReport)
    assert str(report) == "square: PASS"


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), inner=st.integers(1, 40), cols=st.integers(1, 40),
       density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
@example(rows=1, inner=1, cols=1, density=1.0, seed=0)
@example(rows=1, inner=1, cols=1, density=0.0, seed=0)
@example(rows=600, inner=640, cols=620, density=0.01, seed=1)
@example(rows=600, inner=640, cols=620, density=1.0, seed=2)
def test_bool_product_matches_numpy_bool_matmul(rows, inner, cols, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((rows, inner)) < density
    b = rng.random((inner, cols)) < density
    got = bool_product(a, b)
    assert got.dtype == bool
    assert np.array_equal(got, a @ b)


# ---------------------------------------------------------------------------
# The join test shared by the enumerator, is_linear and the row test.
# ---------------------------------------------------------------------------


def join_test_hosts():
    """Benzene, a 4-chain, N5 and 2x3, whose join-irreducibles are
    comparable, plus boolean:2 and mo:2.  The chain and 2x3 list their
    labels against the order, so index order is no linear extension."""
    chain = build_lattice(list("1ba0"), [["0", "a"], ["a", "b"], ["b", "1"]])
    n5 = build_lattice(list("0abc1"), [["0", "a"], ["a", "b"], ["b", "1"],
                                       ["0", "c"], ["c", "1"]])
    cells = [(i, j) for i in (1, 0) for j in (2, 1, 0)]
    grid = build_lattice([f"{i}{j}" for i, j in cells],
                         [[f"{i}{j}", f"{k}{m}"] for i, j in cells for k, m in cells
                          if i <= k and j <= m])
    return [catalog("benzene"), chain, n5, grid,
            catalog("boolean:2"), catalog("mo:2")]


JOIN_TEST_HOSTS = join_test_hosts()


def preserves_joins_by_definition(t, dom, cod):
    """Binary join preservation over every pair of dom."""
    jd, jc = dom.join_tab, cod.join_tab
    return bool((t[jd] == jc[t[:, None], t[None, :]]).all())


def draw_map(data, dom, cod):
    """A map dom -> cod: arbitrary, monotone (the join of arbitrary values
    over each down-set), or join-preserving with one overwritten cell.
    y -> c v V{b_k : y not below a_k} preserves binary joins, as y v z is
    below a exactly when y and z are."""
    leq = dom.leq_mat
    value = st.integers(0, cod.n - 1)
    kind = data.draw(st.sampled_from(["arbitrary", "monotone", "join-preserving"]))
    if kind == "arbitrary":
        return np.array(data.draw(st.lists(value, min_size=dom.n, max_size=dom.n)),
                        dtype=np.int32)
    if kind == "monotone":
        g = data.draw(st.lists(value, min_size=dom.n, max_size=dom.n))
        return np.array([join_all(cod, (g[x] for x in range(dom.n) if leq[x, y]))
                         for y in range(dom.n)], dtype=np.int32)
    terms = data.draw(st.lists(st.tuples(st.integers(0, dom.n - 1), value), max_size=4))
    c = data.draw(st.one_of(st.just(cod.bottom), value))
    f = np.array([join_all(cod, [c] + [b for a, b in terms if not leq[y, a]])
                  for y in range(dom.n)], dtype=np.int32)
    f[data.draw(st.integers(0, dom.n - 1))] = data.draw(value)
    return f


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_join_test_decides_join_preservation(data):
    # Maps between two hosts, equal or not, one to four at a time; the
    # cell budget 1 makes the test read one pair at a time.
    dom = data.draw(st.sampled_from(JOIN_TEST_HOSTS))
    cod = data.draw(st.sampled_from(JOIN_TEST_HOSTS))
    tables = np.array([draw_map(data, dom, cod) for _ in range(data.draw(st.integers(1, 4)))])
    want = [preserves_joins_by_definition(t, dom, cod) for t in tables]
    budget = data.draw(st.sampled_from([1, 3, lattice_module._JOIN_CELLS]))
    with mock.patch.object(lattice_module, "_JOIN_CELLS", budget):
        assert (~breaks_joins(tables, join_pairs(dom), cod)).tolist() == want
    d, c = FiniteOML(dom, range(dom.n)), FiniteOML(cod, range(cod.n))
    for t, ok in zip(tables, want):
        assert is_linear(LinMap(d, c, t)) == (ok and t[dom.bottom] == cod.bottom)


def test_join_pairs_drop_only_twins_of_incomparable_irreducibles():
    # Every pair of the lemma, y with a join-irreducible k not below y, is
    # kept, or its twin (k, y) is and the two are incomparable
    # join-irreducibles.
    for lat in JOIN_TEST_HOSTS:
        irr = set(lat.join_irreducibles())
        ys, ks, yk = join_pairs(lat)
        kept = set(zip(ys.tolist(), ks.tolist()))
        assert len(kept) == len(ys)
        assert yk.tolist() == lat.join_tab[ys, ks].tolist()
        lemma = {(y, k) for k in irr for y in range(lat.n) if not lat.leq_mat[k, y]}
        assert kept <= lemma
        for y, k in lemma - kept:
            assert y in irr and not lat.leq_mat[y, k] and (k, y) in kept
