"""Theorem pipelines: per-selector reports, prerequisite gating, and the
aggregate payload."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq import (
    SELECTORS,
    FiniteOML,
    LinMap,
    SubOML,
    catalog,
    dagger_kernel_report,
    dump_json,
    lin_values,
    make_report,
    run_verify,
    sasaki_apply,
    sasaki_facts_report,
    vector_label,
    verify_text,
)
from omlq.cli import main
from omlq.lattice import sasaki_table
from omlq.verify import SELECTOR_REPORTS, VerifyContext
from test_linmap import dagger_reference


def test_selector_listing_is_stable():
    assert SELECTORS == (
        "sasaki-facts",
        "dagger-kernel",
        "quantale",
        "involutive",
        "foulis",
        "star-props",
        "sasaki-oml",
        "modules",
        "hom",
        "roundtrip",
    )


# ---------------------------------------------------------------------------
# Individual pipelines.
# ---------------------------------------------------------------------------


def test_sasaki_facts_hold_on_omls(b2, b3, mo2):
    for oml in (b2, b3, mo2):
        report = sasaki_facts_report(oml)
        assert report.passed, str(report)
        assert set(report.axioms) == {
            "fixed-below", "interior", "annihilates", "adjoint-swap",
        }


def test_sasaki_facts_fail_on_benzene(benzene):
    report = sasaki_facts_report(benzene)
    assert not report.passed


def test_dagger_kernel_report(b2, mo2):
    for oml in (b2, mo2):
        report = dagger_kernel_report(oml, maps=[LinMap(oml, oml, r) for r in lin_values(oml)])
        assert report.passed, str(report)
        assert set(report.axioms) == {
            "kernel-downset", "kills-kernel", "splits-projection",
            "normalized", "embed-dagger-of-coembed", "embed-dagger-mono",
            "weak-kernel",
        }
    assert dagger_kernel_report(b2, maps=[]).passed


DAGGER_KERNEL_AXIOMS = (
    "kernel-downset",
    "kills-kernel",
    "splits-projection",
    "normalized",
    "embed-dagger-of-coembed",
    "embed-dagger-mono",
    "weak-kernel",
)


def dagger_kernel_reference(oml, maps):
    """The kernel checks run on every map, with the one-cell adjoint
    dagger_reference and the splitting built one sasaki_apply call per
    element; each axiom reports its least failing map."""
    values = np.array([f.values for f in maps], dtype=np.int32)
    leq = oml.leq_mat
    S = sasaki_table(oml)

    def per_map(f, row):
        k = int(oml.ortho[dagger_reference(f).values[oml.top]])
        sub = SubOML(oml, k)
        embed = sub.members
        coembed = tuple(int(sub.local[sasaki_apply(oml, k, x)]) for x in range(oml.n))
        dagger_embed = dagger_reference(LinMap(sub.oml, oml, embed)).values
        identity = tuple(range(len(embed)))
        issues = {}
        bad = np.nonzero((row == oml.bottom) != leq[:, k])[0]
        if bad.size:
            issues["kernel-downset"] = (vector_label(f), oml.label(int(bad[0])))
        if any(f.values[e] != oml.bottom for e in embed):
            issues["kills-kernel"] = (vector_label(f),)
        if tuple(embed[c] for c in coembed) != tuple(int(v) for v in S[k]):
            issues["splits-projection"] = (vector_label(f),)
        if tuple(coembed[e] for e in embed) != identity:
            issues["normalized"] = (vector_label(f),)
        if dagger_embed != coembed:
            issues["embed-dagger-of-coembed"] = (vector_label(f),)
        if tuple(dagger_embed[e] for e in embed) != identity:
            issues["embed-dagger-mono"] = (vector_label(f),)
        for m, mv in zip(maps, values):
            if (row[mv] == oml.bottom).all() and (S[k][mv] != mv).any():
                issues["weak-kernel"] = (vector_label(f), vector_label(m))
                break
        return issues

    found = {}
    for f, row in zip(maps, values):
        for axiom, witness in per_map(f, row).items():
            found.setdefault(axiom, witness)
    return make_report(
        "dagger-kernel", [(a, found.get(a)) for a in DAGGER_KERNEL_AXIOMS]
    )


def test_dagger_kernel_report_matches_per_map_reference(b1, b2, mo2, benzene):
    # One to three cells of the enumerated tables overwritten, sometimes
    # shuffled.  On an OML the splitting axioms depend only on k and hold,
    # and every m with f o m = 0 lands below k, so only kernel-downset and
    # kills-kernel can fail there.  benzene fails the OML laws and with them
    # normalized, embed-dagger-mono and weak-kernel.  In twisted the
    # complement of the top is b, so {s : f(s) <= complement(top)} is not
    # the zero set and the report must key on both.
    twisted = FiniteOML(b2, {"0": "a", "a": "0", "b": "1", "1": "b"})
    hosts = [(oml, lin_values(oml).tolist())
             for oml in (b1, b2, mo2, benzene)]
    hosts.append((twisted, hosts[1][1]))
    failed = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        oml, rows = data.draw(st.sampled_from(hosts))
        tables = [r[:] for r in rows]
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(tables) - 1))
            x = data.draw(st.integers(0, oml.n - 1))
            tables[i][x] = data.draw(st.integers(0, oml.n - 1))
        if data.draw(st.booleans()):
            data.draw(st.randoms(use_true_random=False)).shuffle(tables)
        maps = [LinMap(oml, oml, t) for t in tables]
        want = dagger_kernel_reference(oml, maps).to_dict()
        assert dagger_kernel_report(oml, maps=maps).to_dict() == want
        failed.update(a for a, e in want["axioms"].items() if not e["passed"])

    check()
    assert failed >= {
        "kernel-downset", "kills-kernel", "normalized", "embed-dagger-mono",
        "weak-kernel",
    }


# ---------------------------------------------------------------------------
# The aggregate runner.
# ---------------------------------------------------------------------------


def test_run_verify_single_selector(b2):
    payload, code = run_verify(b2, ["sasaki-facts"], subject="square")
    assert code == 0
    assert payload["passed"] is True
    assert payload["input"] == "square"
    assert payload["selected"] == ["sasaki-facts"]
    assert payload["gate"]["passed"] is True
    assert payload["refused"] is False
    assert set(payload["results"]) == {"sasaki-facts"}


def test_run_verify_all_selectors(b2):
    payload, code = run_verify(b2, ["all"])
    assert code == 0
    assert payload["passed"] is True
    assert set(payload["selected"]) == set(SELECTORS)
    # the module stage fans out into four reports
    mods = payload["results"]["modules"]["reports"]
    assert {r["subject"] for r in mods} == {
        "lin-module", "sasaki-module", "two-module", "projection-two-module",
    }
    assert payload["results"]["hom"]["injective"] is True


def test_run_verify_satisfies_prerequisites_implicitly(b2):
    # hom depends on the quantale, involution, annihilator, and projection
    # stages; they run behind the scenes but only the requested selector
    # is reported
    payload, code = run_verify(b2, ["hom"])
    assert code == 0
    assert set(payload["results"]) == {"hom"}
    assert payload["results"]["hom"]["passed"] is True


def test_run_verify_unknown_selector(b2):
    with pytest.raises(ValueError):
        run_verify(b2, ["nonsense"])


def test_run_verify_gate_failure_refuses_explicit_selector(benzene):
    payload, code = run_verify(benzene, ["foulis"])
    assert code == 2
    assert payload["refused"] is True
    assert payload["passed"] is False
    assert payload["gate"]["passed"] is False


def test_run_verify_gate_failure_under_all_reports_and_skips(benzene):
    payload, code = run_verify(benzene, ["all"])
    assert code == 1
    assert payload["refused"] is False
    assert payload["gate"]["passed"] is False
    gate_axioms = payload["gate"]["axioms"]
    assert gate_axioms["orthomodular"]["witness"] == ["x", "y'"]
    for name, entry in payload["results"].items():
        assert entry.get("skipped") is True, name


def test_run_verify_blocked_selectors_skip_refuse_and_short_circuit(monkeypatch, b2):
    # A failing quantale report blocks foulis and everything behind it.  A
    # blocked selector names the first failing prerequisite; the run is
    # refused (exit 2) when that prerequisite was not itself selected, and
    # an unselected prerequisite behind a failure is never run.
    from omlq import verify

    involutive_calls = []
    real_involutive = verify.check_involutive

    def involutive(*args, **kwargs):
        involutive_calls.append(args)
        return real_involutive(*args, **kwargs)

    monkeypatch.setattr(verify, "check_quantale", lambda q: make_report(
        "quantale", [("associative", ("x", "y", "z"))]))
    monkeypatch.setattr(verify, "check_involutive", involutive)

    payload, code = run_verify(b2, ["foulis"])
    assert (code, payload["refused"], payload["passed"]) == (2, True, False)
    assert payload["results"]["foulis"] == {
        "skipped": True, "reason": "prerequisite 'quantale' failed", "passed": None}
    assert involutive_calls == []

    payload, code = run_verify(b2, ["quantale", "foulis"])
    assert (code, payload["refused"]) == (1, False)
    assert payload["results"]["quantale"]["passed"] is False
    assert "foulis: SKIP (prerequisite 'quantale' failed)" in verify_text(payload)

    payload, code = run_verify(b2, ["quantale", "hom"])
    assert (code, payload["refused"]) == (2, True)
    assert payload["results"]["hom"]["reason"] == "prerequisite 'foulis' failed"

    payload, code = run_verify(b2, ["all"])
    assert (code, payload["refused"], payload["passed"]) == (1, False, False)
    skipped = [s for s, e in payload["results"].items() if e["skipped"]]
    assert skipped == ["foulis", "star-props", "sasaki-oml", "modules", "hom", "roundtrip"]
    assert payload["results"]["involutive"]["passed"] is True


def test_run_verify_payload_is_json_ready(mo2):
    payload, code = run_verify(mo2, ["quantale", "involutive"])
    assert code == 0
    text = dump_json(payload)
    assert '"quantale"' in text


def test_verify_text_mentions_every_stage(b2):
    payload, _ = run_verify(b2, ["sasaki-facts", "dagger-kernel"])
    text = verify_text(payload)
    assert "sasaki-facts" in text and "dagger-kernel" in text
    assert "PASS" in text


def test_run_verify_deterministic_across_workers(mo2):
    # run_verify keeps an unread workers keyword for the benchmark's traced
    # replay, which calls it at 1 and 2; the payload must not depend on it.
    texts = {
        dump_json(run_verify(mo2, ["all"], workers=w)[0]) for w in (1, 2, 8)
    }
    assert len(texts) == 1


def test_verify_all_builds_the_projection_lattice_once(monkeypatch, b2):
    # sasaki-oml, modules, hom and roundtrip share the run's projection
    # lattice: one sasaki_oml call, which also checks its OML laws once.
    from omlq import foulis, verify

    calls = []
    real = foulis.sasaki_oml

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(foulis, "sasaki_oml", counting)
    monkeypatch.setattr(verify, "sasaki_oml", counting)
    payload, code = run_verify(b2, ["all"])
    assert code == 0 and payload["results"]["roundtrip"]["passed"]
    assert len(calls) == 1


def test_verify_all_builds_one_quantale(monkeypatch, b2):
    # hom reads its image rows in Lin of the projection lattice through
    # their own J-code index: the run builds the host's quantale and no
    # other.
    from omlq import foulis

    calls = []
    real = foulis.lin_quantale

    def counting(oml, *args, **kwargs):
        calls.append(oml)
        return real(oml, *args, **kwargs)

    monkeypatch.setattr(foulis, "lin_quantale", counting)
    payload, code = run_verify(b2, ["all"])
    assert code == 0 and payload["results"]["hom"]["passed"]
    assert calls == [b2]


@pytest.mark.parametrize("spec", ["boolean:2", "mo:2"])
def test_verify_all_enumerates_lin_twice(monkeypatch, spec):
    # dagger-kernel and the quantale build each enumerate Lin of the input;
    # hom reads only its image rows, so no enumeration of the projection
    # lattice's Lin follows.  Every omlq module that holds the enumerator
    # gets a counting copy.
    from omlq import linmap

    calls = []
    real = linmap.lin_values
    for module in [m for n, m in sys.modules.items() if n.startswith("omlq.")]:
        if getattr(module, "lin_values", None) is real:
            def counting(*args, name=module.__name__, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "lin_values", counting)
    payload, code = run_verify(catalog(spec), ["all"])
    assert code == 0 and payload["results"]["hom"]["passed"]
    assert calls == ["omlq.verify", "omlq.quantale"]


def test_verify_all_makes_one_products_pass_and_one_hom(monkeypatch, mo2):
    # The pass is the quantale build, which the representation certificate
    # of check_quantale and the lin-module read.  The homomorphism h is phi
    # conjugated by the round trip's isomorphism, so its pass, which hom
    # and the sasaki-module read, is recorded without being made; hom_h
    # runs once.
    from omlq import foulis, quantale, verify

    passes, homs = [], []
    real_products, real_hom = quantale.QElementView.products, foulis.hom_h

    def products(view, idx=None):
        passes.append(view)
        return real_products(view, idx)

    def hom(*args, **kwargs):
        homs.append(args)
        return real_hom(*args, **kwargs)

    monkeypatch.setattr(quantale.QElementView, "products", products)
    monkeypatch.setattr(verify, "hom_h", hom)
    payload, code = run_verify(mo2, ["all"])
    assert code == 0
    assert payload["results"]["modules"]["passed"] and payload["results"]["hom"]["passed"]
    assert len(passes) == 1 and len(homs) == 1


@pytest.mark.parametrize("spec", ["boolean:2", "mo:2"])
def test_verify_all_decides_the_representation_once(monkeypatch, spec):
    # check_quantale and certified_view both read whether phi represents
    # the quantale; the quantale decides it once, so its row test over
    # every row of phi runs once.
    from omlq import quantale

    calls = []
    real = quantale.nonadditive_row

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantale, "nonadditive_row", counting)
    payload, code = run_verify(catalog(spec), ["all"])
    assert code == 0 and payload["results"]["involutive"]["passed"]
    assert len(calls) == 1


def test_verify_all_finds_the_rows_of_h_once(monkeypatch):
    # record_conjugation records the pass of h.view, so check_hom and the
    # sasaki-module read it without finding any row; only injective looks
    # up the rows of h.
    from omlq import foulis, quantale, verify

    found, homs = [], []
    real_find, real_hom = quantale.QElementView.find, foulis.hom_h

    def find(view, rows):
        found.append(view)
        return real_find(view, rows)

    def hom(*args, **kwargs):
        homs.append(real_hom(*args, **kwargs))
        return homs[-1]

    monkeypatch.setattr(quantale.QElementView, "find", find)
    monkeypatch.setattr(verify, "hom_h", hom)
    payload, code = run_verify(catalog("mo:2"), ["all"])
    assert code == 0 and payload["results"]["hom"]["passed"]
    assert len(homs) == 1 and sum(view is homs[0].view for view in found) == 1


@pytest.mark.parametrize("spec", ["mo:2", "boolean:3"])
def test_verify_all_builds_no_order_or_meet_on_the_lin_carrier(spec):
    # The Lin carrier is its join table: no selector reads its order or
    # its meets, so neither is built.
    ctx = VerifyContext(catalog(spec), None)
    for sel, reports in SELECTOR_REPORTS.items():
        assert all(r.passed for r in reports(ctx)), sel
    assert "leq_mat" not in vars(ctx.foulis.base.carrier)
    assert "meet_tab" not in vars(ctx.foulis.base.carrier)


def test_verify_all_builds_no_linmap(monkeypatch):
    # dagger-kernel and every other selector read value rows and element
    # indices; no map object is made.
    from omlq import linmap

    calls = []
    real = linmap.LinMap.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(linmap.LinMap, "__init__", counting)
    payload, code = run_verify(catalog("mo:3"), ["all"])
    assert code == 0 and payload["results"]["dagger-kernel"]["passed"]
    assert calls == []


def certificates_off(monkeypatch):
    """Make run_verify find that phi represents no quantale, and build every
    module action without a view, so that no certificate decides a law:
    check_quantale, certified_view and with it FoulisQuantale.certified and
    record_conjugation all rest on represents."""
    from omlq import qmodule, quantale

    real_action = qmodule.ModuleAction
    monkeypatch.setattr(quantale, "represents", lambda q: False)
    monkeypatch.setattr(qmodule, "ModuleAction",
                        lambda quantale, lattice, table, view=None:
                        real_action(quantale, lattice, table))


@pytest.mark.parametrize("spec", ["boolean:1", "boolean:2", "mo:2",
                                  "horizontal_sum(boolean:1,boolean:1)"])
def test_verify_all_payload_is_the_same_with_the_certificates_off(monkeypatch, spec):
    oml = catalog(spec)
    payload, code = run_verify(oml, ["all"])
    with monkeypatch.context() as m:
        certificates_off(m)
        scanned, scanned_code = run_verify(oml, ["all"])
    assert code == scanned_code == 0
    assert dump_json(payload) == dump_json(scanned)


# sha256 of `verify --catalog "horizontal_sum(boolean:2,boolean:3)" all
# --format json`, 11,586 bytes: a ladder host that no reference payload
# covers, whose 10-member projection lattice is the largest sasaki_oml run
# of the suite.
HSUM_B2_B3_VERIFY_SHA256 = "72c6f8a883e73bb0922ccd7375920fb9687ae86bcab481ed2f8bc5a10f6e88f3"


def test_verify_horizontal_sum_prints_pinned_bytes(capsys):
    argv = ["verify", "--catalog", "horizontal_sum(boolean:2,boolean:3)", "all", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 11586 and hashlib.sha256(out).hexdigest() == HSUM_B2_B3_VERIFY_SHA256
