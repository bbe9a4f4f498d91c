"""Witness golden for the exhaustive checkers.

Every case is a checker run on a seeded one-cell mutant (or on the
unmutated structure) of one table: the complement, the multiplication and
involution tables, sai, the representation table and both module action
tables, the latter with the views that may certify the module laws.
Hosts are boolean:2, mo:2, boolean:3, benzene and mo:3 for the
lattice-level checkers, and boolean:2, mo:2 and boolean:3 for the quantale
level.  The fixture holds the to_dict() violations of each report, or the
exception the checker raised, and the axiom list of each checker; every
case must give the same at workers 1 and 2.

The fixture pins witnesses, so it changes only when a witness is meant to
change.  Regenerate it with

    PYTHONPATH=src python tests/test_witness_golden.py
"""

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from omlq import (
    FinQuantale,
    FiniteOML,
    FoulisQuantale,
    LinMap,
    OmlqError,
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
    roundtrip_iso,
    sasaki_facts_report,
    sasaki_module,
    sasaki_oml,
    verify_adjoint_pair,
)
from omlq.lattice import sasaki_table
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
        yield f"oml/{k}", lambda w, m=mut: check_oml(m, workers=w)
        yield f"sasaki-facts/{k}", lambda w, m=mut: sasaki_facts_report(m, workers=w)
    a = n // 2
    f = LinMap(oml, oml, sasaki_table(oml)[a].tolist())
    h = dagger(f)
    pairs = [(f, h)]
    pairs += [(LinMap(oml, oml, one_cell(f.values, s, n)), h) for s in (0, 1)]
    pairs += [(f, LinMap(oml, oml, one_cell(h.values, s, n))) for s in (2, 3)]
    for k, (g, d) in enumerate(pairs):
        yield f"adjoint/{k}", lambda w, g=g, d=d: verify_adjoint_pair(g, d, workers=w)


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
            yield f"quantale/{k}", lambda w, b=base: check_quantale(b, workers=w)
        yield f"involutive/{k}", lambda w, b=base: check_involutive(b, workers=w)
        yield f"foulis/{k}", lambda w, fq=fq: check_foulis(fq, workers=w)
        yield f"star-props/{k}", lambda w, fq=fq: check_star_props(fq, workers=w)
    sais = [one_cell(f.sai, seed, n) for seed in SEEDS]
    sais.append(one_cell(f.sai, 9, n, (q.unit,)))
    for k, sai in enumerate(sais):
        fq = FoulisQuantale(q, sai)
        yield f"sai-foulis/{k}", lambda w, fq=fq: check_foulis(fq, workers=w)
        yield f"sai-star-props/{k}", lambda w, fq=fq: check_star_props(fq, workers=w)
        yield f"sai-roundtrip/{k}", lambda w, fq=fq: roundtrip_iso(fq, sasaki_oml(fq), workers=w)
    yield "roundtrip/0", lambda w: roundtrip_iso(f, sub, workers=w)
    tn = h.target_view.n
    tables = [h.table] + [one_cell(h.table, seed, tn) for seed in SEEDS]
    tables += [one_cell(h.table, 9, tn, (q.zero,)), one_cell(h.table, 9, tn, (q.unit,))]
    homs = [replace(h, table=tuple(int(v) for v in table)) for table in tables]
    homs += [replace(h, target_sai=one_cell(h.target_sai, seed, tn)) for seed in (0, 1)]
    for k, hm in enumerate(homs):
        yield f"hom/{k}", lambda w, hm=hm: check_hom(hm, workers=w)


def module_cases(host):
    f, sub, h = built(host)
    q = f.base
    for name, action in (("lin", lin_module(q)),
                         ("sasaki", sasaki_module(f, sub, h.target_view))):
        ln = action.lattice.n
        t = action.table
        tables = [t] + [one_cell(t, seed, ln) for seed in SEEDS]
        tables += [one_cell(t, 9, ln, (q.zero, ln - 1)), one_cell(t, 9, ln, (q.unit, ln - 1)),
                   one_cell(t, 9, ln, (q.n - 1, action.lattice.bottom))]
        for k, table in enumerate(tables):
            act = ModuleAction(q, action.lattice, table, action.view)
            yield f"{name}-module/{k}", lambda w, a=act: check_left_module(a, workers=w)
            yield f"{name}-two-module/{k}", lambda w, a=act: check_right_two_module(
                a.lattice, left=a, workers=w)


FAMILIES = {"lattice": (lattice_cases, LATTICE_HOSTS),
            "quantale": (quantale_cases, QUANTALE_HOSTS),
            "module": (module_cases, QUANTALE_HOSTS)}
PARAMS = [(family, host) for family, (_, hosts) in FAMILIES.items() for host in hosts]


def entries(family, host, workers):
    """Each case's violations, by case name, and each checker's axiom list
    under "axioms"; the checker is the case name up to the slash."""
    cases, _ = FAMILIES[family]
    axioms = {}
    out = {name: report_entry(lambda: run(workers), axioms, name.split("/")[0])
           for name, run in cases(host)}
    return {**out, "axioms": axioms}


def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("family,host", PARAMS, ids=[f"{f}-{h}" for f, h in PARAMS])
def test_witnesses_match_the_golden(family, host):
    want = golden()[f"{family}/{host}"]
    for workers in (1, 2):
        assert entries(family, host, workers) == want


def test_golden_holds_failing_and_passing_reports():
    reports = [e for cases in golden().values() for e in cases.values() if isinstance(e, list)]
    assert any(reports) and not all(reports)


if __name__ == "__main__":
    data = {f"{family}/{host}": entries(family, host, 1) for family, host in PARAMS}
    text = "{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(cases, separators=(',', ':'))}"
        for key, cases in data.items()
    ) + "\n}\n"
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
