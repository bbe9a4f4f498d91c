"""Witness golden for the exhaustive checkers.

Every case is a checker run on a seeded one-cell mutant (or on the
unmutated structure) of one table: the complement, the multiplication and
involution tables, sai, the representation's index into the Lin of the
projection lattice and both module action tables, the latter with the
views that may certify the module laws.  The
projection family builds the projection lattice with sasaki_oml on
mutants that set one cell of sai, one product of two projections or one
carrier join of two projections to a projection.
Hosts are boolean:2, mo:2, boolean:3, benzene and mo:3 for the
lattice-level checkers, and boolean:2, mo:2 and boolean:3 for the quantale
level.  The fixture holds the to_dict() violations of each report, or the
exception the checker raised, and the axiom list of each checker.

The fixture pins witnesses, so it changes only when a witness is meant to
change.  Regenerate it with

    PYTHONPATH=src python tests/test_witness_golden.py
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from omlq import (
    FinQuantale,
    FiniteLattice,
    FiniteOML,
    FoulisQuantale,
    LinMap,
    OmlqError,
    QElementView,
    catalog,
    check_foulis,
    check_hom,
    check_involutive,
    check_left_module,
    check_oml,
    check_quantale,
    check_right_two_module,
    check_star_props,
    dagger,
    foulis_from_lin,
    hom_h,
    lin_module,
    lin_values,
    roundtrip_iso,
    sasaki_facts_report,
    sasaki_oml,
    verify_adjoint_pair,
)
from omlq.qmodule import ModuleAction

FIXTURE = Path(__file__).with_name("witness_golden.json")
LATTICE_HOSTS = ("boolean:2", "mo:2", "boolean:3", "benzene", "mo:3")
QUANTALE_HOSTS = ("boolean:2", "mo:2", "boolean:3")


def one_cell(table, seed, values, cell=None):
    """Copy of table with one cell changed to another of range(values).

    The seed draws the cell, unless it is given, and then the new value."""
    out = np.array(table, dtype=np.int32)
    rng = np.random.default_rng(seed)
    if cell is None:
        cell = tuple(int(rng.integers(s)) for s in out.shape)
    out[cell] = (int(out[cell]) + 1 + int(rng.integers(values - 1))) % values
    return out


def member_cell(table, seed, sel):
    """Copy of table with one cell, each coordinate a member of sel, changed
    to another member of sel; the seed draws the cell and the value."""
    out = np.array(table, dtype=np.int32)
    rng = np.random.default_rng(seed)
    cell = tuple(int(rng.choice(sel)) for _ in out.shape)
    others = sel[sel != out[cell]]
    out[cell] = others[int(rng.integers(len(others)))]
    return out


def report_entry(run, axioms, checker):
    """The report's violations, or the error it raised; its axiom list goes
    to axioms[checker], which must hold the same list if already set."""
    try:
        report = run()
    except OmlqError as e:
        return {"raises": f"{type(e).__name__}: {e}"}
    assert axioms.setdefault(checker, list(report.axioms)) == list(report.axioms)
    return report.to_dict()["violations"]


@lru_cache(maxsize=None)
def built(host):
    f = foulis_from_lin(catalog(host))[0]
    sub = sasaki_oml(f)
    return f, sub, hom_h(f, sub)


SEEDS = range(4)


def lattice_cases(host):
    oml = catalog(host)
    n = oml.n
    orthos = [oml.ortho] + [one_cell(oml.ortho, s, n) for s in SEEDS]
    for k, ortho in enumerate(orthos):
        mut = FiniteOML(oml, ortho)
        yield f"oml/{k}", lambda m=mut: check_oml(m)
        yield f"sasaki-facts/{k}", lambda m=mut: sasaki_facts_report(m)
    a = n // 2
    f = LinMap(oml, oml, oml.sasaki_tab[a].tolist())
    h = dagger(f)
    pairs = [(f, h)]
    pairs += [(LinMap(oml, oml, one_cell(f.values, s, n)), h) for s in (0, 1)]
    pairs += [(f, LinMap(oml, oml, one_cell(h.values, s, n))) for s in (2, 3)]
    for k, (g, d) in enumerate(pairs):
        yield f"adjoint/{k}", lambda g=g, d=d: verify_adjoint_pair(g, d)


def quantale_cases(host):
    f, sub, h = built(host)
    q = f.base
    n = q.n
    m, s = q.dense_mult(), q.dense_star()
    mults = [m] + [one_cell(m, seed, n) for seed in SEEDS]
    mults += [one_cell(m, 9, n, cell) for cell in
              ((q.unit, n - 1), (n - 1, q.unit), (q.zero, n - 1), (n - 1, q.zero))]
    stars = [one_cell(s, seed, n) for seed in SEEDS]
    stars += [one_cell(s, 9, n, (q.zero,)), one_cell(s, 9, n, (q.unit,))]
    bases = [FinQuantale(q.carrier, t, s, q.unit) for t in mults]
    bases += [FinQuantale(q.carrier, m, t, q.unit) for t in stars]
    for k, base in enumerate(bases):
        fq = FoulisQuantale(base, f.sai)
        if k < len(mults):  # the quantale laws do not read the star
            yield f"quantale/{k}", lambda b=base: check_quantale(b)
        yield f"involutive/{k}", lambda b=base: check_involutive(b)
        yield f"foulis/{k}", lambda fq=fq: check_foulis(fq)
        yield f"star-props/{k}", lambda fq=fq: check_star_props(fq)
    sais = [one_cell(f.sai, seed, n) for seed in SEEDS]
    sais.append(one_cell(f.sai, 9, n, (q.unit,)))
    for k, sai in enumerate(sais):
        fq = FoulisQuantale(q, sai)
        yield f"sai-foulis/{k}", lambda fq=fq: check_foulis(fq)
        yield f"sai-star-props/{k}", lambda fq=fq: check_star_props(fq)
        yield f"sai-roundtrip/{k}", lambda fq=fq: roundtrip_iso(fq, sasaki_oml(fq))
    yield "roundtrip/0", lambda: roundtrip_iso(f, sub)
    # h with seeded entries of its index into lin_values(sub.oml) changed
    lin = lin_values(sub.oml)
    table, tn = QElementView(sub.oml, lin).find(h.values), len(lin)
    tables = [table] + [one_cell(table, seed, tn) for seed in SEEDS]
    tables += [one_cell(table, 9, tn, (q.zero,)), one_cell(table, 9, tn, (q.unit,))]
    homs = [QElementView(sub.oml, lin[t]) for t in tables]
    for k, hm in enumerate(homs):
        yield f"hom/{k}", lambda hm=hm: check_hom(f, hm)


def module_cases(host):
    f, sub, h = built(host)
    q = f.base
    for name, action in (("lin", lin_module(q)),
                         ("sasaki", ModuleAction(q, sub.oml, h.values, h))):
        ln = action.lattice.n
        t = action.table
        tables = [t] + [one_cell(t, seed, ln) for seed in SEEDS]
        tables += [one_cell(t, 9, ln, (q.zero, ln - 1)), one_cell(t, 9, ln, (q.unit, ln - 1)),
                   one_cell(t, 9, ln, (q.n - 1, action.lattice.bottom))]
        for k, table in enumerate(tables):
            act = ModuleAction(q, action.lattice, table, QElementView(action.lattice, table))
            yield f"{name}-module/{k}", lambda a=act: check_left_module(a)
            yield f"{name}-two-module/{k}", lambda a=act: check_right_two_module(a)


# product cells (cell, value) for the formulas no seed reaches: the
# order's reflexive and antisymmetric laws and the complement law
PROJECTION_MULT_CELLS = {
    "boolean:2": [((2, 2), 0), ((0, 2), 2), ((4, 2), 2)],
    "mo:2": [((6, 2), 2)],
}


def projection_cases(host):
    f = built(host)[0]
    q = f.base
    m, s, jt = q.dense_mult(), q.dense_star(), q.carrier.join_tab
    sel = np.array(f.members())

    def with_mult(t):
        return FoulisQuantale(FinQuantale(q.carrier, t, s, q.unit), f.sai)

    def with_join(t):
        lat = FiniteLattice(q.carrier.labels, t, q.carrier.bottom, q.carrier.top)
        return FoulisQuantale(FinQuantale(lat, m, s, q.unit), f.sai)

    mutants = [f]
    mutants += [FoulisQuantale(q, member_cell(f.sai, seed, sel)) for seed in SEEDS]
    mutants += [with_mult(member_cell(m, seed, sel)) for seed in SEEDS]
    mutants += [with_join(member_cell(jt, seed, sel)) for seed in SEEDS]
    for cell, value in PROJECTION_MULT_CELLS.get(host, ()):
        t = np.array(m, dtype=np.int32)
        t[cell] = value
        mutants.append(with_mult(t))
    for k, fq in enumerate(mutants):
        yield f"projection/{k}", lambda fq=fq: sasaki_oml(fq).report


FAMILIES = {"lattice": (lattice_cases, LATTICE_HOSTS),
            "quantale": (quantale_cases, QUANTALE_HOSTS),
            "module": (module_cases, QUANTALE_HOSTS),
            "projection": (projection_cases, QUANTALE_HOSTS)}
PARAMS = [(family, host) for family, (_, hosts) in FAMILIES.items() for host in hosts]


def entries(family, host):
    """Each case's violations, by case name, and each checker's axiom list
    under "axioms"; the checker is the case name up to the slash."""
    cases, _ = FAMILIES[family]
    axioms = {}
    out = {name: report_entry(run, axioms, name.split("/")[0])
           for name, run in cases(host)}
    return {**out, "axioms": axioms}


def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("family,host", PARAMS, ids=[f"{f}-{h}" for f, h in PARAMS])
def test_witnesses_match_the_golden(family, host):
    want = golden()[f"{family}/{host}"]
    assert entries(family, host) == want


def test_golden_holds_failing_and_passing_reports():
    reports = [e for cases in golden().values() for e in cases.values() if isinstance(e, list)]
    assert any(reports) and not all(reports)


def test_projection_golden_reaches_ten_formulas():
    # no one-cell mutant reaches top-is-sai-of-zero, bound-exists or
    # orthomodular
    raised = {e["raises"].split()[4] for key, cases in golden().items()
              if key.startswith("projection/") for e in cases.values() if "raises" in e}
    assert raised == {"projection-order-reflexive", "projection-order-antisymmetric",
                      "projection-order-transitive", "projection-join-exists",
                      "projection-meet-exists", "projection-involution",
                      "projection-complement", "projection-antitone",
                      "meet-formula", "join-formula"}


if __name__ == "__main__":
    data = {f"{family}/{host}": entries(family, host) for family, host in PARAMS}
    text = "{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(cases, separators=(',', ':'))}"
        for key, cases in data.items()
    ) + "\n}\n"
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
