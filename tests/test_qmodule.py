"""Module actions: the endomorphism quantale on its own lattice, a Foulis
quantale on its projection lattice, and the canonical right action of the
two-element quantale on any complete lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq import (
    FinQuantale,
    ModuleAction,
    QElementView,
    StructureViolation,
    catalog,
    check_left_module,
    check_right_two_module,
    hom_h,
    lin_module,
    run_verify,
    sasaki_apply,
    sasaki_module,
    sasaki_oml,
)


# ---------------------------------------------------------------------------
# Application action of the endomorphism quantale.
# ---------------------------------------------------------------------------


def test_lin_module_rows_are_value_tables(fq_b2, b2):
    f, view = fq_b2
    mod = lin_module(f.base)
    assert mod.lattice is b2 and mod.view is view
    for s in range(f.n):
        assert mod.table[s].tolist() == view.values[s].tolist()


def test_lin_module_laws(fq_b1, fq_b2, fq_mo2, b1, b2, mo2):
    for (f, _), oml in ((fq_b1, b1), (fq_b2, b2), (fq_mo2, mo2)):
        mod = lin_module(f.base)
        assert mod.lattice is oml
        report = check_left_module(mod)
        assert report.passed, str(report)


def test_lin_module_axiom_names(fq_b2):
    report = check_left_module(lin_module(fq_b2[0].base))
    assert set(report.axioms) == {
        "act-join", "act-bottom", "join-act", "zero-act", "assoc-act",
        "unit-act",
    }


def test_unit_and_zero_rows(fq_b2, b2):
    f, _ = fq_b2
    mod = lin_module(f.base)
    assert list(mod.table[f.base.unit]) == list(range(b2.n))
    assert all(v == b2.bottom for v in mod.table[f.base.zero])


def test_projection_rows_are_sasaki_application(fq_mo2, mo2):
    f, view = fq_mo2
    mod = lin_module(f.base)
    for a in range(mo2.n):
        s = view.indices([[sasaki_apply(mo2, a, y) for y in range(mo2.n)]])[0]
        assert list(mod.table[s]) == [
            sasaki_apply(mo2, a, y) for y in range(mo2.n)
        ]


# ---------------------------------------------------------------------------
# Action on the projection lattice.
# ---------------------------------------------------------------------------


def test_sasaki_module_laws(fq_b1, fq_b2, fq_b3, fq_mo2):
    for f, _ in (fq_b1, fq_b2, fq_b3, fq_mo2):
        report = check_left_module(sasaki_module(f, sasaki_oml(f)))
        assert report.passed, str(report)


def test_sasaki_module_agrees_with_elementwise_action(fq_b2):
    f, _ = fq_b2
    sub = sasaki_oml(f)
    mod = sasaki_module(f, sub)
    m, perp = f.base.dense_mult(), f.sai[f.base.dense_star()]
    for u in range(f.n):
        for i, k in enumerate(sub.members):
            # u . k = perp(perp(u * k)), one cell of the tables at a time
            assert sub.members[mod.table[u, i]] == perp[perp[m[u, k]]]


# ---------------------------------------------------------------------------
# The right action of the two-element quantale.
# ---------------------------------------------------------------------------


def test_right_two_module_on_catalog_lattices():
    names = (
        "boolean:1", "boolean:2", "boolean:3", "boolean:4",
        "mo:1", "mo:2", "mo:3", "mo:4", "benzene", "zero",
        "product(boolean:2,mo:2)",
    )
    for name in names:
        report = check_right_two_module(catalog(name), subject=name)
        assert report.passed, str(report)


def test_right_two_module_axiom_names(b2):
    report = check_right_two_module(b2)
    assert set(report.axioms) == {
        "two-unit-act", "two-zero-act", "two-join-act", "act-two-join",
        "two-assoc",
    }


def test_right_two_module_compatible_with_left_action(fq_b2, b2):
    report = check_right_two_module(lin_module(fq_b2[0].base))
    assert report.passed, str(report)
    assert report.axioms == check_right_two_module(b2).axioms + ("bimodule-compat",)


# ---------------------------------------------------------------------------
# Perturbations.
# ---------------------------------------------------------------------------


def test_action_table_shape_is_validated(fq_b2, b2):
    f, view = fq_b2
    with pytest.raises(StructureViolation):
        ModuleAction(f.base, b2, np.zeros((3, 3), dtype=np.int32))
    # an entry outside the lattice, which numpy would read as a wrapped index
    for bad in (-1, b2.n):
        table = view.values.copy()
        table[5, 2] = bad
        with pytest.raises(StructureViolation, match="action-table-range"):
            ModuleAction(f.base, b2, table)


def test_perturbed_unit_row_is_caught(fq_b2, b2):
    f, _ = fq_b2
    mod = lin_module(f.base)
    table = mod.table.copy()
    table[f.base.unit, b2.top] = b2.bottom
    report = check_left_module(ModuleAction(f.base, b2, table))
    assert not report.passed
    assert report.witness("unit-act") == ("1",)


def test_perturbed_interior_entry_is_caught(fq_b2, b2):
    f, _ = fq_b2
    mod = lin_module(f.base)
    # flip one non-unit, non-zero row entry
    s = next(
        i for i in range(f.n) if i not in (f.base.unit, f.base.zero)
    )
    table = mod.table.copy()
    a = b2.index("a")
    table[s, a] = (table[s, a] + 1) % b2.n
    report = check_left_module(ModuleAction(f.base, b2, table))
    assert not report.passed
    assert report.violations[0].witness


def test_perturbed_composition_yields_assoc_witness(fq_b2, b2):
    f, _ = fq_b2
    mod = lin_module(f.base)
    # replace a whole row by another row: unit laws survive, composition
    # with the mutated element cannot
    rows = mod.table.copy()
    s, t = sorted(
        i for i in range(f.n) if i not in (f.base.unit, f.base.zero)
    )[:2]
    rows[s] = rows[t]
    report = check_left_module(ModuleAction(f.base, b2, rows))
    assert not report.passed
    failing = {v.axiom for v in report.violations}
    assert "assoc-act" in failing


# ---------------------------------------------------------------------------
# The certificate of join-act and assoc-act against the exhaustive scan.
# ---------------------------------------------------------------------------


def canonical_actions(f):
    """The lin-module and the sasaki-module of f, each with its view."""
    h = hom_h(f, sasaki_oml(f))
    return [lin_module(f.base), ModuleAction(f.base, h.sub.oml, h.view.values, h.view)]


def act_join_reference(action, table):
    """The least (s, a, b) with s . (a v b) != (s . a) v (s . b), as
    labels, by a scan of the full square of (a, b) per s in row-major
    order, or None."""
    q, lat = action.quantale, action.lattice
    jl = lat.join_tab
    for s in range(q.n):
        bad = np.argwhere(table[s][jl] != jl[table[s][:, None], table[s]])
        if bad.size:
            return [q.label(s), *(lat.label(int(i)) for i in bad[0])]
    return None


def assert_certificate_matches_scan(action, table):
    """check_left_module on table with a view of its rows and without a
    view, which scans, give the same report, and its act-join is that of
    the exhaustive reference; returns the report."""
    q, lat = action.quantale, action.lattice
    want = check_left_module(ModuleAction(q, lat, table)).to_dict()
    got = check_left_module(ModuleAction(q, lat, table, QElementView(lat, table))).to_dict()
    assert got == want
    assert want["axioms"]["act-join"]["witness"] == act_join_reference(action, table)
    return want


def test_module_certificate_matches_the_scan_on_mutants(fq_b1, fq_b2, fq_mo2, fq_b3):
    # One to three cells of the action table overwritten, the zero and
    # unit rows and the bottom column drawn often, or two rows swapped: a
    # swapped table keeps every row an element, so only the pass can fail.
    small = [a for f, _ in (fq_b1, fq_b2, fq_mo2) for a in canonical_actions(f)]
    large = canonical_actions(fq_b3[0])
    for action in small + large:
        assert check_left_module(action).passed
    failed = set()

    def mutants(cases, examples):
        @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            action = data.draw(st.sampled_from(cases))
            q, lat = action.quantale, action.lattice
            table = action.table.copy()
            if data.draw(st.booleans()):
                s, t = data.draw(st.lists(st.integers(0, q.n - 1), min_size=2, max_size=2,
                                          unique=True))
                table[[s, t]] = table[[t, s]]
            else:
                row = st.sampled_from([q.zero, q.unit]) | st.integers(0, q.n - 1)
                col = st.just(lat.bottom) | st.integers(0, lat.n - 1)
                for _ in range(data.draw(st.integers(1, 3))):
                    table[data.draw(row), data.draw(col)] = data.draw(st.integers(0, lat.n - 1))
            want = assert_certificate_matches_scan(action, table)
            failed.update(a for a, e in want["axioms"].items() if not e["passed"])

        check()

    mutants(small, 150)
    mutants(large, 6)
    assert failed == set(check_left_module(small[0]).axioms)


def reread(q, view):
    """q with every product a * b re-read as the element of view whose
    values on J(L) are those of row a after row b; a product that names no
    element keeps its cell, and is the only product the pass can fault."""
    lat, values = view.host, view.values
    irr = lat.join_irreducibles()
    base = lat.n ** np.arange(len(irr))
    by_code = {int(c): a for a, c in enumerate(values[:, irr] @ base)}
    mult = q.dense_mult().copy()
    for (a, b), c in np.ndenumerate(np.take(values, values[:, irr], axis=1) @ base):
        mult[a, b] = by_code.get(int(c), mult[a, b])
    return FinQuantale(q.carrier, mult, q.dense_star(), q.unit)


def test_module_certificate_needs_zero_preserving_and_additive_rows(fq_b2, fq_mo2, b2, mo2):
    # A view may hold maps that no Lin view holds, under the codes of Lin
    # maps: row r becomes the constant top map, which preserves binary joins
    # but not 0, or the identity sent to 0 at one point off J(L), which
    # keeps 0 but no longer preserves binary joins.  The twisted rows form
    # the action table, each found in the twisted view, and the quantale
    # re-reads its products from that view, so the pass sees the codes of a
    # lawful action; only act-bottom and the row test reject it.
    for (f, view), oml in ((fq_b2, b2), (fq_mo2, mo2)):
        lat = oml
        top_map = view.indices([np.where(np.arange(lat.n) == lat.bottom, lat.bottom, lat.top)])[0]
        off_j = next(x for x in range(lat.n)
                     if x != lat.bottom and x not in lat.join_irreducibles())
        bent = np.arange(lat.n)
        bent[off_j] = lat.bottom
        for r, row in ((top_map, np.full(lat.n, lat.top)), (f.base.unit, bent)):
            values = view.values.copy()
            values[r] = row
            twisted = QElementView(oml, values)
            assert view.find(values)[r] == -1 and twisted.find(values)[r] == r
            action = ModuleAction(reread(f.base, twisted), lat, values, twisted)
            want = assert_certificate_matches_scan(action, values)
            assert not (want["axioms"]["join-act"]["passed"]
                        and want["axioms"]["assoc-act"]["passed"])


def test_verify_modules_hand_no_left_module_law_to_a_scan(monkeypatch, mo2, b3):
    # act-join takes the row test, join-act and assoc-act the certificate,
    # which needs the action's lattice to be the host of its view; only
    # the two-module laws are scanned.
    from omlq import qmodule

    scanned = []
    real = qmodule.run_laws

    def recording(subject, label, laws):
        laws = list(laws)
        scanned.extend(subject for law in laws if law.scan is not None)
        return real(subject, label, laws)

    monkeypatch.setattr(qmodule, "run_laws", recording)
    for oml in (mo2, b3):
        payload, code = run_verify(oml, ["modules"])
        assert code == 0 and payload["results"]["modules"]["passed"]
    assert scanned and not {"lin-module", "sasaki-module"} & set(scanned)
