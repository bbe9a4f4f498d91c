"""Acceptance battery.

Each test is one acceptance criterion, self-contained, run at the stated
tolerance (exact equality unless a runtime bound is given).  `pytest -v`
prints one pass/fail line per criterion.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from omlq import (
    FinQuantale,
    FoulisQuantale,
    LinMap,
    catalog,
    catalog_names,
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
    is_linear,
    kernel,
    lin_module,
    lin_values,
    roundtrip_iso,
    sasaki_apply,
    sasaki_facts_report,
    sasaki_module,
    sasaki_oml,
    sasaki_oml_report,
)
from omlq.cli import main


def test_criterion_01_join_preservation_equals_adjointability(b2):
    """Over all 256 endofunction tables of the four-element Boolean algebra,
    the join-preserving tables and the tables admitting an adjoint partner
    are the same 16-member set, and that set is exactly what the enumerator
    returns.  Runtime bound: 5 s."""
    start = time.perf_counter()
    n = b2.n
    leq = b2.leq_mat
    jt = b2.join_tab
    o = b2.ortho
    tables = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.int32)
    assert len(tables) == 256

    preserves_bottom = tables[:, b2.bottom] == b2.bottom
    preserves_joins = (
        tables[:, jt.reshape(-1)].reshape(-1, n, n)
        == jt[tables[:, :, None], tables[:, None, :]]
    ).all(axis=(1, 2))
    join_preserving = preserves_bottom & preserves_joins

    # f admits h with  f(x) _|_ y  <=>  x _|_ h(y), h searched over all tables
    fx_perp_y = leq[tables[:, :, None], o[None, None, :]]
    x_perp_hy = np.transpose(leq[:, o[tables]], (1, 0, 2))
    pairable = (fx_perp_y[:, None, :, :] == x_perp_hy[None, :, :, :]).all(
        axis=(2, 3)
    )
    admits_adjoint = pairable.any(axis=1)

    assert np.array_equal(join_preserving, admits_adjoint)
    expected = {tuple(t) for t in tables[join_preserving].tolist()}
    assert len(expected) == 16
    got = set(map(tuple, lin_values(b2).tolist()))
    assert got == expected
    assert time.perf_counter() - start < 5.0


def test_criterion_02_sasaki_projection_facts_across_catalog():
    """The four Sasaki projection facts (fixed points below the target,
    interior bound, annihilation at the complement, orthogonality swap)
    hold with zero violations on the Boolean family, the atom-pair family,
    and all catalog products with at most 16 elements.  Runtime bound: 30 s."""
    start = time.perf_counter()
    names = [f"boolean:{k}" for k in (1, 2, 3, 4)]
    names += [f"mo:{k}" for k in (1, 2, 3, 4)]
    parts = ["boolean:1", "boolean:2", "boolean:3", "mo:1", "mo:2"]
    for p in parts:
        for q in parts:
            if catalog(p).n * catalog(q).n <= 16:
                names.append(f"product({p},{q})")
    assert len(names) > 12
    for name in names:
        report = sasaki_facts_report(catalog(name), subject=name)
        assert report.passed, str(report)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_orthomodularity_discrimination():
    """The lattice-law checker accepts the Boolean and atom-pair families
    (n <= 4) and rejects the hexagon with a concrete witness pair.  Exact."""
    for k in (1, 2, 3, 4):
        assert check_oml(catalog(f"boolean:{k}")).passed
        assert check_oml(catalog(f"mo:{k}")).passed
        assert main(["check-oml", "--catalog", f"boolean:{k}"]) == 0
    report = check_oml(catalog("benzene"))
    assert not report.passed
    witness = report.witness("orthomodular")
    assert witness == ("x", "y'")
    assert main(["check-oml", "--catalog", "benzene"]) == 1


def test_criterion_04_dagger_kernel_theorem(b1, b2, mo2):
    """For every join-preserving endomap f of the three small hosts:
    the kernel downset is exactly the complement-of-adjoint-at-top downset,
    f kills its kernel, the split reconstitutes the Sasaki projection at k,
    the coembedding retracts the embedding, and every m with f m = 0
    satisfies (embed coembed) m = m.  Zero violations.

    Maps are the value rows of the enumerator, g after f is the gather
    g[f], the embedding is the row of the kernel's members, and the Sasaki
    projection is recomputed one sasaki_apply call per element."""
    for oml in (b1, b2, mo2):
        maps = lin_values(oml)
        bottom = oml.bottom
        for f in maps:
            data = kernel(LinMap(oml, oml, f))
            assert data.k == oml.ortho[dagger(LinMap(oml, oml, f)).values[oml.top]]
            killed = set(np.flatnonzero(f == bottom).tolist())
            assert killed == set(np.flatnonzero(oml.leq_mat[:, data.k]).tolist())
            embed = np.array(data.sub.members)
            assert (f[embed] == bottom).all()
            proj_k = np.array([sasaki_apply(oml, data.k, y) for y in range(oml.n)])
            assert is_linear(LinMap(oml, oml, proj_k))
            assert np.array_equal(embed[data.coembed], proj_k)
            assert np.array_equal(data.coembed[embed], np.arange(len(embed)))
            annihilated = maps[(f[maps] == bottom).all(axis=1)]  # every m with f m = 0
            assert np.array_equal(proj_k[annihilated], annihilated)


def test_criterion_05_annihilator_projection_axioms():
    """The annihilator-projection axioms (projections are self-adjoint
    idempotents, the unit's projection is zero, the annihilator set
    equality, and its complement form) and the three star properties
    (fixed point, antitone double complement, complement Galois
    connection) hold on the endomorphism quantales of the four hosts,
    the six-element host end-to-end within 5 minutes under the default
    cap."""
    start = time.perf_counter()
    f_mo2, _ = foulis_from_lin(catalog("mo:2"))  # fresh, default cap
    rep = check_foulis(f_mo2)
    assert rep.passed, str(rep)
    assert "sai-annihilator" in rep.axioms
    assert "perp-annihilator" in rep.axioms
    assert check_star_props(f_mo2).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    for name in ("boolean:1", "boolean:2", "boolean:3"):
        f, _ = foulis_from_lin(catalog(name))
        assert check_foulis(f).passed
        assert check_star_props(f).passed


def test_criterion_06_projection_lattice_reconstruction(
    b1, b2, b3, mo2, fq_b1, fq_b2, fq_b3, fq_mo2
):
    """The projection image of each endomorphism quantale, under the
    defined order, is an orthomodular lattice whose meet/join closed forms
    agree with the order-derived bounds, and mapping each host element to
    its Sasaki projection is an isomorphism onto it.  Exact."""
    for oml, (f, _) in ((b1, fq_b1), (b2, fq_b2), (b3, fq_b3), (mo2, fq_mo2)):
        sub, report = sasaki_oml_report(f)
        assert sub is not None and report.passed, str(report)
        assert check_oml(sub.oml).passed
        assert f.base.view.host is oml
        assert roundtrip_iso(f, sub).passed


def test_criterion_07_module_law_suites(b1, b2, mo2, fq_b1, fq_b2, fq_mo2):
    """The six left-module laws hold exhaustively for the application
    action and for the projection-lattice action over the three hosts;
    the right action of the two-element quantale passes on every catalog
    lattice."""
    for oml, (f, _) in ((b1, fq_b1), (b2, fq_b2), (mo2, fq_mo2)):
        mod = lin_module(f.base)
        assert mod.lattice is oml
        rep = check_left_module(mod)
        assert rep.passed, str(rep)
        rep = check_left_module(sasaki_module(f, sasaki_oml(f)))
        assert rep.passed, str(rep)
    names = [n for n in catalog_names() if "(" not in n]
    names += ["product(boolean:2,mo:2)", "horizontal_sum(boolean:2,boolean:3)"]
    for name in names:
        rep = check_right_two_module(catalog(name), subject=name)
        assert rep.passed, str(rep)


def test_criterion_08_representation_homomorphism(fq_b1, fq_b2):
    """Representing quantale elements by their action on the projection
    lattice preserves joins, multiplication, the unit, the involution, and
    the complement operator, for the endomorphism quantales of the two
    smallest Boolean hosts; on the two-element host it is a bijection."""
    h1 = hom_h(fq_b1[0], sasaki_oml(fq_b1[0]))
    assert check_hom(h1).passed
    assert h1.injective and len(set(map(tuple, h1.view.values.tolist()))) == len(
        lin_values(h1.sub.oml))
    h2 = hom_h(fq_b2[0], sasaki_oml(fq_b2[0]))
    rep = check_hom(h2)
    assert rep.passed, str(rep)
    for law in ("preserves-join", "preserves-mult", "preserves-unit",
                "preserves-star", "preserves-perp"):
        assert law in rep.axioms


def test_criterion_09_mutation_sensitivity(fq_b2):
    """24 seeded single-entry mutations of the multiplication, involution,
    and projection tables of a 16-element fixture are all detected by the
    corresponding checker, each with a concrete witness."""
    f = fq_b2[0]
    q = f.base
    mult = q.dense_mult()
    star = q.dense_star()
    rng = random.Random(20260817)
    detected = 0
    mutants = []
    for _ in range(8):
        i, j = rng.randrange(q.n), rng.randrange(q.n)
        v = rng.choice([x for x in range(q.n) if x != mult[i, j]])
        mutants.append(("mult", (i, j, v)))
    for _ in range(8):
        i = rng.randrange(q.n)
        v = rng.choice([x for x in range(q.n) if x != star[i]])
        mutants.append(("star", (i, v)))
    for _ in range(8):
        i = rng.randrange(q.n)
        v = rng.choice([x for x in range(q.n) if x != f.sai[i]])
        mutants.append(("sai", (i, v)))
    assert len(mutants) == 24

    for kind, payload in mutants:
        if kind == "mult":
            i, j, v = payload
            m2 = mult.copy()
            m2[i, j] = v
            base = FinQuantale(q.carrier, m2, star, q.unit)
            reports = [
                check_quantale(base),
                check_involutive(base),
                check_foulis(FoulisQuantale(base, f.sai)),
            ]
        elif kind == "star":
            i, v = payload
            s2 = star.copy()
            s2[i] = v
            base = FinQuantale(q.carrier, mult, s2, q.unit)
            reports = [
                check_involutive(base),
                check_foulis(FoulisQuantale(base, f.sai)),
            ]
        else:
            i, v = payload
            sai2 = f.sai.copy()
            sai2[i] = v
            reports = [check_foulis(FoulisQuantale(q, sai2))]
        failing = [r for r in reports if not r.passed]
        assert failing, f"undetected mutant {kind} {payload}"
        assert any(v.witness for r in failing for v in r.violations), (
            f"no witness for mutant {kind} {payload}"
        )
        detected += 1
    assert detected == 24


def test_criterion_10_deterministic_verification(capsys):
    """The full verification pipeline over the six-element atom-pair host
    emits byte-identical JSON across two in-process runs and across two
    fresh interpreters."""
    argv = ["verify", "--catalog", "mo:2", "all", "--format", "json"]
    payloads = []
    for _ in range(2):
        assert main(argv) == 0
        payloads.append(capsys.readouterr().out.encode())
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "omlq", *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append(proc.stdout)
    assert len(set(payloads)) == 1
    json.loads(payloads[0])  # well-formed
