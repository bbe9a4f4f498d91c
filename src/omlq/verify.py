"""End-to-end verification pipelines over a single input lattice.

Each selector names one battery of checks:

  sasaki-facts   the four Sasaki projection laws over all element tuples
  dagger-kernel  kernel extraction and factorization for every endomap
  quantale       quantale laws of the endomorphism quantale
  involutive     involution laws of the endomorphism quantale
  foulis         annihilator projection axioms
  star-props     derived complement laws (fixed point, antitone, Galois)
  sasaki-oml     reconstruction of the projection lattice as an OML
  modules        left module laws for both canonical actions + 2-module
  hom            the representation homomorphism onto the projection lattice
  roundtrip      the isomorphism between the input and its projection lattice

SELECTOR_REPORTS gives each selector's reports over a VerifyContext, which
builds the endomorphism quantale, the projection lattice, the round trip
and h at most once per run; `check-module --catalog` reads the modules row
over the same context.  run_verify gates every pipeline on the input
passing the OML laws.  A selector runs once its prerequisites (PREREQS, in
order) pass; otherwise it is skipped, naming the first that failed, and
the run is refused (exit 2) when that prerequisite was not itself
selected.  Every law is scanned in order on the calling thread, and
payloads contain no machine-dependent data, so a run's bytes depend on
its input and selectors alone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .foulis import (
    check_foulis,
    check_star_props,
    check_hom,
    foulis_from_lin,
    hom_h,
    record_conjugation,
    roundtrip_iso,
    sasaki_embedding,
    sasaki_oml,
    sasaki_oml_report,
)
from .lattice import FiniteOML, Law, check_oml, least, run_laws
from .linmap import adjoint_rows, kernel_split, lin_values
from .qmodule import module_reports
from .quantale import check_involutive, check_quantale
from .selectors import PREREQS, SELECTORS


# ---------------------------------------------------------------------------
# aggregate report builders

def sasaki_facts_report(oml: FiniteOML):
    """The four projection laws, scanned over every (a, y[, z]).

    fixed-below   y <= a  iff  the projection at a fixes y
    interior      projecting the complement of the projection of the
                  complement lands below y
    annihilates   the projection of y at a is 0  iff  y <= complement(a)
    adjoint-swap  proj_a(y) orthogonal to z  iff  y orthogonal to proj_a(z)
    """
    n = oml.n
    leq = oml.leq_mat
    ortho = oml.ortho
    S = oml.sasaki_tab
    ar = np.arange(n)
    return run_laws("sasaki-facts", oml.label, [
        Law("fixed-below", lambda a: leq[:, a] != (S[a] == ar), n),
        Law("interior", lambda a: ~leq[S[a, ortho[S[a, ortho]]], ar], n),
        Law("annihilates", lambda a: (S[a] == oml.bottom) != leq[:, ortho[a]], n),
        # entry (y, z): proj_a(y) orthogonal to z against y orthogonal to proj_a(z)
        Law("adjoint-swap", lambda a: leq[S[a]][:, ortho] != leq[:, ortho[S[a]]], n),
    ])


# workers is unread, kept while perfbench/replay.py passes it (ROADMAP item 3b)
def dagger_kernel_report(oml: FiniteOML, cap=None, workers=1, maps=None):
    """Kernel structure of every endomap.

    For each map f with kernel element k = complement(dagger(f)(top)):
    the set f sends to 0 is exactly the downset of k; f kills the kernel
    embedding; the embedding splits to the projection at k and normalizes
    to the identity; the embedding is a dagger mono whose dagger is the
    coembedding; and every m with f o m = 0 factors: proj_k o m = m.

    Every check reads f only through Z_f = {s : f(s) = 0} and
    D_f = {s : f(s) <= complement(top)}.  Z_f is the zero set, decides
    whether f kills the embedding and picks the m with f o m = 0 (the m
    with values in Z_f).  dagger(f)(top) is the complement of join(D_f),
    so k and its splitting are functions of D_f.  Maps with one key
    (Z_f, D_f) fail the same axioms with the same witnesses but for f
    itself, so the checks run once on the least map of each class, in
    ascending order, and report the witnesses of a scan over every map.
    In an OML D_f = Z_f; keying on both keeps this exact for any tables.
    The four splitting axioms depend on k alone and are decided once per
    distinct k; kernel-downset and weak-kernel are row scans over the
    classes.

    maps, when given, are checked in place of the enumeration.
    """
    if maps is None:
        values = lin_values(oml, cap=cap)
    else:
        values = np.array([f.values for f in maps], dtype=np.int32).reshape(-1, oml.n)
    leq, bottom, S = oml.leq_mat, oml.bottom, oml.sasaki_tab
    key = np.concatenate([values == bottom, leq[values, oml.ortho[oml.top]]], 1)
    _, reps = np.unique(np.packbits(key, axis=1), axis=0, return_index=True)
    fs = values[np.sort(reps)]
    ks = oml.ortho[adjoint_rows(fs, oml, oml)[:, oml.top]]
    distinct, at = np.unique(ks, return_inverse=True)
    fails = [_splitting_fails(oml, k) for k in distinct.tolist()]
    splits = np.array(fails, dtype=bool).reshape(-1, 4)[at]

    def weak(r):
        # entry m: f o m = 0 but the projection at k moves m
        ann = np.flatnonzero((fs[r][values] == bottom).all(axis=1))
        mv, bad = values[ann], np.zeros(len(values), dtype=bool)
        bad[ann] = (S[ks[r]][mv] != mv).any(axis=1)
        return bad

    def vector(row):
        return "[" + ",".join(oml.labels[v] for v in row) + "]"

    label = {"f": lambda r: vector(fs[r]), "m": lambda m: vector(values[m]), "x": oml.label}
    return run_laws("dagger-kernel", label, [
        Law("kernel-downset", lambda r: (fs[r] == bottom) != leq[:, ks[r]], len(fs),
            kinds="fx"),
        Law("kills-kernel", hit=least(((fs != bottom) & leq[:, ks].T).any(axis=1)), kinds="f"),
        *(Law(name, hit=least(splits[:, i]), kinds="f") for i, name in enumerate(
            ("splits-projection", "normalized", "embed-dagger-of-coembed", "embed-dagger-mono"))),
        Law("weak-kernel", weak, len(fs), kinds="fm"),
    ])


def _splitting_fails(oml: FiniteOML, k: int):
    """Whether the splitting at k of the downset embedding e and the
    coembedding p (the projection p_k at k, corestricted) breaks e o p = p_k,
    p o e = 1, dagger(e) = p and dagger(e) o e = 1, in that order."""
    sub, coembed = kernel_split(oml, k)
    embed, ar = np.array(sub.members), np.arange(len(sub.members))
    dagger_embed = adjoint_rows([embed], sub.oml, oml)[0]
    return [(embed[coembed] != oml.sasaki_tab[k]).any(), (coembed[embed] != ar).any(),
            (dagger_embed != coembed).any(), (dagger_embed[embed] != ar).any()]


# ---------------------------------------------------------------------------
# the pipeline

class VerifyContext:
    """Lazily built shared structures for one verification run: the one
    place that decides what is built and what is reused.  The checkers take
    the structures they read, and the Foulis quantale's base carries its
    element view."""

    def __init__(self, oml: FiniteOML, cap):
        self.oml = oml
        self.cap = cap

    @cached_property
    def foulis(self):
        return foulis_from_lin(self.oml, cap=self.cap)[0]

    @cached_property
    def sub_report(self):
        return sasaki_oml_report(self.foulis)

    @property
    def sub(self):
        """The projection lattice; without one, sasaki_oml raises its
        StructureViolation."""
        return self.sub_report[0] or sasaki_oml(self.foulis)

    @cached_property
    def roundtrip(self):
        return roundtrip_iso(self.foulis, self.sub)

    @cached_property
    def hom(self):
        # roundtrip is decided first: its passing report shows that theta is
        # an isomorphism, so h is phi conjugated by theta when
        # record_conjugation's row test holds, and no products pass is made
        h = hom_h(self.foulis, self.sub)
        if self.roundtrip.passed:
            record_conjugation(self.foulis, h, sasaki_embedding(self.foulis.base, self.sub))
        return h


# The reports of each selector over a run's context.
SELECTOR_REPORTS = {
    "sasaki-facts": lambda c: [sasaki_facts_report(c.oml)],
    "dagger-kernel": lambda c: [dagger_kernel_report(c.oml, cap=c.cap)],
    "quantale": lambda c: [check_quantale(c.foulis.base)],
    "involutive": lambda c: [check_involutive(c.foulis.base)],
    "foulis": lambda c: [check_foulis(c.foulis)],
    "star-props": lambda c: [check_star_props(c.foulis)],
    "sasaki-oml": lambda c: [c.sub_report[1]],
    "modules": lambda c: module_reports(c.foulis, c.hom),
    "hom": lambda c: [check_hom(c.foulis, c.hom)],
    "roundtrip": lambda c: [c.roundtrip],
}


# workers is unread, kept while perfbench/replay.py passes it (ROADMAP item 3b)
def run_verify(oml: FiniteOML, selectors, subject="input", cap=None, workers=1):
    """Run the selected pipelines; returns (payload, exit_code).

    Exit 0 when everything selected ran and passed; 1 when a law failed
    (including dependents skipped because a selected prerequisite failed);
    2 when the pipeline refused because the input fails the OML laws or an
    unselected prerequisite fails.
    """
    bad = [s for s in selectors if s not in SELECTORS and s != "all"]
    if bad:
        raise ValueError(f"unknown selector {bad[0]!r}")
    run_all = "all" in selectors
    requested = [s for s in SELECTORS if run_all or s in selectors]
    gate = check_oml(oml, subject="check-oml")
    payload = {
        "input": subject,
        "selected": requested,
        "gate": gate.to_dict(),
        "refused": False,
        "results": {},
    }
    if not gate.passed:
        if not run_all:
            payload["refused"] = True
            payload["passed"] = False
            return payload, 2
        for sel in requested:
            payload["results"][sel] = {
                "skipped": True,
                "reason": "input fails the OML laws",
                "passed": None,
            }
        payload["passed"] = False
        return payload, 1

    ctx = VerifyContext(oml, cap)
    entries: dict[str, dict] = {}
    blocker: dict[str, str] = {}  # a skipped selector's first failing prerequisite

    def passes(sel):
        """Decide sel's prerequisites in order, stopping at the first that
        fails; then run sel's reports, or record it as skipped."""
        if sel not in entries:
            pre = next((p for p in PREREQS[sel] if not passes(p)), None)
            if pre is not None:
                blocker[sel] = pre
                entries[sel] = {"skipped": True, "reason": f"prerequisite '{pre}' failed",
                                "passed": None}
            else:
                reports = SELECTOR_REPORTS[sel](ctx)
                entries[sel] = {"skipped": False, "passed": all(r.passed for r in reports),
                                "reports": [r.to_dict() for r in reports]}
                if sel == "hom":
                    entries[sel]["injective"] = ctx.hom.distinct
        return entries[sel]["passed"] is True

    payload["passed"] = all([passes(sel) for sel in requested])
    payload["results"] = {sel: entries[sel] for sel in requested}
    if any(blocker[sel] not in requested for sel in requested if sel in blocker):
        payload["refused"] = True
        return payload, 2
    return payload, 0 if payload["passed"] else 1


def verify_text(payload: dict) -> str:
    """Human-readable rendering of a verification payload."""
    lines = [f"input: {payload['input']}"]
    gate = payload["gate"]
    lines.append(f"check-oml: {'PASS' if gate['passed'] else 'FAIL'}")
    if not gate["passed"]:
        for v in gate["violations"]:
            lines.append(f"  {v['axiom']} at ({', '.join(v['witness'])})")
    if payload["refused"]:
        lines.append("refused: prerequisite checks failed; nothing verified")
    for sel in payload["selected"]:
        entry = payload["results"].get(sel)
        if entry is None:
            continue
        if entry.get("skipped"):
            lines.append(f"{sel}: SKIP ({entry['reason']})")
            continue
        lines.append(f"{sel}: {'PASS' if entry['passed'] else 'FAIL'}")
        for rep in entry["reports"]:
            for v in rep["violations"]:
                lines.append(
                    f"  {rep['subject']}: {v['axiom']} at ({', '.join(v['witness'])})"
                )
        if "injective" in entry:
            lines.append(f"  injective: {entry['injective']}")
    lines.append(f"overall: {'PASS' if payload.get('passed') else 'FAIL'}")
    return "\n".join(lines) + "\n"
