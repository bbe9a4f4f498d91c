"""Annihilator projections on involutive quantales.

A Foulis structure assigns to every element s a self-adjoint idempotent
sai(s) whose left multiples are exactly the right annihilator of s:

    (a) sai(s) * sai(s) = sai(s) = star(sai(s))
    (b) sai(unit) = 0
    (c) s * x = 0  iff  x = sai(s) * y for some y

The derived complement is perp(t) = sai(star(t)).  Axiom (c) routed
through perp reads: star(s) * x = 0 iff x = perp(s) * y for some y, which
is the orthogonality relation of the quantale against s.  The image of sai
carries an orthomodular lattice under the defined order s <= t iff s = t*s,
reconstructed and cross-checked here, with the induced action u . k =
perp(perp(u * k)) turning it into a module over the quantale.  Row u of
that action is h(u) in Lin(sai(Q)); hom_h returns h as the element view
of these |Q| rows, and h is checked on them alone.

On the endomorphism quantale of an OML the closed form is
sai(s) = the Sasaki projection at complement(dagger(s)(top)).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import AmbiguousSai, FormatError, NotALattice, NotAPoset, NotFoulis, StructureViolation
from .lattice import (
    CheckReport,
    FiniteOML,
    Law,
    cell_dtype,
    check_oml,
    lattice_from_leq,
    least,
    make_report,
    nonadditive_row,
    run_laws,
)
from .linmap import adjoint_rows
from .quantale import FinQuantale, QElementView, lin_quantale


class FoulisQuantale:
    """A quantale together with its annihilator projection table."""

    def __init__(self, base: FinQuantale, sai):
        self.base = base
        sai = np.asarray(sai, dtype=np.int32)
        if sai.shape != (base.n,):
            raise StructureViolation("sai-table-shape")
        self.sai = sai
        self.sai.setflags(write=False)

    @property
    def n(self) -> int:
        return self.base.n

    def label(self, i) -> str:
        return self.base.label(i)

    def members(self) -> list[int]:
        """The projection image, ascending by quantale index."""
        return sorted(int(k) for k in set(self.sai.tolist()))

    @cached_property
    def certified(self) -> bool:
        """Whether the base's view, phi, certifies the annihilator laws.

        It needs base.certified_view, sai equal to closed_form_sai of that
        view and the base's star, and, with S the Sasaki table of the host
        X of the view and p_k the map S[k], S[k, 1] = k, S[k, y] = y for
        y <= k and S[k, y] <= k.  Write x(1) for phi(x)(1), 0 for the zero map
        and k_t for c(phi(star(t))(1)), c the complement of X.

        (1) t * x = 0 iff x(1) <= k_t: phi(t * x) = phi(t) o phi(x), phi is
            injective and phi(zero) = 0, so t * x = 0 iff phi(t) sends
            every phi(x)(s) <= x(1) to 0, and by certified_view phi(t)
            sends y to 0 iff y <= k_t.
        (2) p_k o x = x iff x(1) <= k: if x(1) <= k then every
            x(s) <= x(1) <= k is fixed by p_k; (p_k o x)(1) = S[k, x(1)] <= k.
        (3) The left multiples p_k o y of p_k are exactly the x with
            x(1) <= k: (p_k o y)(1) <= k, and by (2) such an x is p_k o x.
        (4) phi(sai(t)) = p_(k_t), by the closed form.
        (5) perp(r) = sai(star(r)), and star(star(r)) = r by certified_view,
            so phi(perp(r)) = p_(c(r(1))).
        """
        q = self.base
        view = q.certified_view
        if view is None:
            return False
        x = view.host
        S, leq, ar = x.sasaki_tab, x.leq_mat, np.arange(x.n)
        if not ((S[:, x.top] == ar).all() and (S == ar)[leq.T].all() and leq[S, ar[:, None]].all()):
            return False
        try:
            return np.array_equal(closed_form_sai(view, q.dense_star()), self.sai)
        except (FormatError, StructureViolation):  # a projection that is no element
            return False


def derive_sai(q: FinQuantale) -> np.ndarray:
    """Search the annihilator generator for every element.

    Assumes q passes check_quantale and check_involutive.  Raises NotFoulis
    when some annihilator is generated by no self-adjoint idempotent and
    AmbiguousSai when two generate the same one (impossible in a lawful
    involutive quantale, so it signals corrupt tables).
    """
    m = q.dense_mult()
    s = q.dense_star()
    n = q.n
    sa_idem = [p for p in range(n) if m[p, p] == p and s[p] == p]
    generated = {}
    for p in sa_idem:
        generated.setdefault(frozenset(m[p].tolist()), []).append(p)
    sai = np.empty(n, dtype=np.int32)
    for t in range(n):
        ann = frozenset(np.nonzero(m[t] == q.zero)[0].tolist())
        candidates = generated.get(ann, [])
        if not candidates:
            raise NotFoulis(q.label(t))
        if len(candidates) > 1:
            raise AmbiguousSai(
                q.label(t), q.label(candidates[0]), q.label(candidates[1])
            )
        sai[t] = candidates[0]
    return sai


def closed_form_sai(view: QElementView, star) -> np.ndarray:
    """sai(s) = p_{(s*(1))'}, the Sasaki projection at the complement of
    dagger(s)(top), on the J-code index of an endomorphism quantale whose
    star is star; raises StructureViolation unless sai takes every projection."""
    x = view.host
    proj_idx = view.projections
    sai = proj_idx[x.ortho[view.values[star, x.top]]]
    if set(sai.tolist()) != set(proj_idx.tolist()):
        raise StructureViolation("projection-image-mismatch")
    return sai


def foulis_from_lin(oml: FiniteOML, cap: int | None = None):
    """Endomorphism quantale with the projection table closed_form_sai,
    and its view; derive_sai recovers the same table by annihilator search."""
    q = lin_quantale(oml, cap=cap)[0]
    return FoulisQuantale(q, closed_form_sai(q.view, q.dense_star())), q.view


# ---------------------------------------------------------------------------
# law checking

def check_foulis(f: FoulisQuantale) -> CheckReport:
    """Projection axioms plus their restatement through perp.

    The annihilator axioms compare the set {x | s*x = 0} with the set of
    left multiples of the projection; a witness is the offending s paired
    with the least element on which the two sets differ.

    When f.certified holds, both annihilator laws hold and are not scanned:
    by (1), (3) and (4) of FoulisQuantale.certified, the annihilator of t
    and the left multiples of sai(t) are both {x : x(1) <= k_t}, for every
    t, so also for every star(s) that perp-annihilator tests.  The other laws
    keep their vector comparisons; on a decline both laws are scanned.
    """
    q = f.base
    m = q.dense_mult()
    s = q.dense_star()
    sai = f.sai
    perp = sai[s]
    n = q.n
    certified = f.certified

    def annihilator(source):
        # source maps s to the element t whose annihilator {x | t*x = 0}
        # must be the set of left multiples of sai(t)
        def bad(i):
            t = source[i]
            generated = np.zeros(n, dtype=bool)
            generated[m[sai[t]]] = True
            return (m[t] == q.zero) != generated

        return None if certified else bad

    return run_laws("foulis", q.label, [
        Law("sai-idempotent", hit=least(m[sai, sai] != sai)),
        Law("sai-self-adjoint", hit=least(s[sai] != sai)),
        Law("sai-unit", hit=None if sai[q.unit] == q.zero else (q.unit,)),
        Law("sai-annihilator", annihilator(np.arange(n)), n),
        Law("perp-idempotent", hit=least(m[perp, perp] != perp)),
        Law("perp-self-adjoint", hit=least(s[perp] != perp)),
        Law("perp-unit", hit=None if perp[q.unit] == q.zero else (q.unit,)),
        Law("perp-annihilator", annihilator(s), n),
    ])


def check_star_props(f: FoulisQuantale) -> CheckReport:
    """Derived laws of the projection complement under the defined order.

    fixed-point: star(r) * t = 0 iff t = sai(star(r)) * t, all pairs (r, t).
    perp-antitone: t <= r implies perp(r) <= perp(t), with <= the defined
    order, plus perp(perp(k)) = k on the projection image.
    perp-galois: t <= perp(r) iff r <= perp(t), all pairs.

    When f.certified holds, the three pair laws hold and are not scanned;
    the numbers are those of FoulisQuantale.certified.  fixed-point: with
    u = star(r), u * t = 0 iff t(1) <= k_u by (1), iff sai(u) * t = t by
    (4) and (2).  perp-galois: by (5) and (2), t <= perp(r) iff
    t(1) <= c(r(1)), and r <= perp(t) iff r(1) <= c(t(1)); c is an
    order-reversing involution, so the two agree.  perp-antitone: t <= r
    gives t(1) = phi(r)(t(1)) <= r(1), so k = c(r(1)) <= k' = c(t(1)) and
    p_k(1) = k <= k', so p_k' o p_k = p_k by (2): perp(r) <= perp(t).
    double-perp keeps its vector comparison; on a decline the three laws
    are scanned.
    """
    q = f.base
    m = q.dense_mult()  # t <= r iff m[r, t] == t
    s = q.dense_star()
    sai = f.sai
    perp = sai[s]
    n = q.n
    ar = np.arange(n)
    members = np.array(f.members(), dtype=np.int32)
    unfixed = members[perp[perp[members]] != members]

    def scan(bad):
        return None if f.certified else bad

    return run_laws("star-props", q.label, [
        Law("fixed-point", scan(lambda r: (m[s[r]] == q.zero) != (m[sai[s[r]]] == ar)), n),
        # entry r: t <= r but not perp(r) <= perp(t)
        Law("perp-antitone", scan(lambda t: (m[:, t] == t) & (m[perp[t], perp] != perp)), n),
        Law("double-perp", hit=tuple(unfixed[:1].tolist()) or None),
        # entry r: t <= perp(r) against r <= perp(t)
        Law("perp-galois", scan(lambda t: (m[perp, t] == t) != (m[perp[t]] == ar)), n),
    ])


# ---------------------------------------------------------------------------
# the projection lattice

class SasakiOML:
    """The projection image as an OML under the defined order.

    members, the quantale indices of the image ascending, maps local
    indices to the quantale, member i at index members[i], and the array
    local maps quantale indices back, -1 off the image; both are read as
    arrays.  oml is the local structure with complement k -> sai(k) and
    top sai(0); report is its passing check_oml report.
    """

    def __init__(self, local, oml: FiniteOML, report: CheckReport):
        self.local = local
        self.members = tuple(np.flatnonzero(local >= 0).tolist())
        self.oml = oml
        self.report = report


def sasaki_oml(f: FoulisQuantale) -> SasakiOML:
    """Reconstruct the projection lattice and cross-check its arithmetic.

    The order comes from s <= t iff s = t * s and is validated by
    lattice_from_leq; the complement is sai itself; top must be sai(0).
    The meet and join closed forms

        meet(k1, k2) = perp(perp(k1 * sai(sai(k2) * k1)))
        join(S) = sai(sai(carrier join of S))

    are compared, as whole tables, against the bounds the order determines:
    the least failing pair, meet first.  Any mismatch, and any failure of
    the order or of the orthomodular laws, raises StructureViolation.
    """
    q = f.base
    m = q.dense_mult()
    sai = f.sai
    perp = sai[q.dense_star()]
    members = f.members()
    sel = np.array(members, dtype=np.int32)
    local = np.full(q.n, -1, dtype=cell_dtype(len(sel)))
    local[sel] = np.arange(len(sel))
    local_labels = tuple(q.label(k) for k in members)
    order = m[np.ix_(sel, sel)].T == sel[:, None]  # entry (i, j): sel[j] * sel[i] = sel[i]
    try:
        lat = lattice_from_leq(local_labels, order)
    except NotAPoset as e:
        raise StructureViolation(f"projection-order-{e.law}", e.witness) from None
    except NotALattice as e:
        raise StructureViolation(f"projection-{e.kind}-exists", e.witness) from None

    if lat.top != local[sai[q.zero]]:
        raise StructureViolation("top-is-sai-of-zero", (lat.label(lat.top),))
    oml = FiniteOML(lat, local[sai[sel]])

    report = check_oml(oml, subject="projection-lattice")
    if not report.passed:
        v = report.violations[0]
        raise StructureViolation(f"projection-{v.axiom}", v.witness)

    # entry (i, j): the closed form at (sel[i], sel[j]), -1 off the members
    inner = sai[m[sai[sel], sel[:, None]]]
    meet = local[perp[perp[m[sel[:, None], inner]]]]
    join = local[sai[sai[q.carrier.join_tab[np.ix_(sel, sel)]]]]
    hit = least(np.stack([meet != oml.meet_tab, join != oml.join_tab], axis=-1))
    if hit is not None:
        i, j, formula = hit
        raise StructureViolation(("meet-formula", "join-formula")[formula],
                                 (local_labels[i], local_labels[j]))
    # The empty join needs no check: with check_oml passed and top =
    # local[sai(0)], the complement law at the top gives ortho[top] =
    # local[sai(sai(0))] = bottom.
    return SasakiOML(local, oml, report)


def sasaki_oml_report(f: FoulisQuantale):
    """Reporting wrapper: construction failures become a failing report.

    A built projection lattice has passed check_oml inside sasaki_oml, and
    that report is relabelled here.
    """
    try:
        sub = sasaki_oml(f)
    except StructureViolation as e:
        report = make_report("sasaki-oml", [(e.formula, tuple(str(w) for w in e.witness))])
        return None, report
    axioms = ("construction",) + sub.report.axioms
    return sub, CheckReport("sasaki-oml", sub.report.violations, axioms)


# ---------------------------------------------------------------------------
# module action and the representation homomorphism

def sasaki_action_table(f: FoulisQuantale, sub: SasakiOML) -> np.ndarray:
    """Row u: the action u . k = perp(perp(u * k)) on sub, the projection
    lattice of f, in local indices.  perp = sai o star takes values in the
    image of sai, which is sub.members, so the gather through sub.local
    never leaves the projections."""
    q = f.base
    perp = f.sai[q.dense_star()]
    sel = np.array(sub.members, dtype=np.int32)
    return sub.local[perp[perp[q.dense_mult()[:, sel]]]]


def hom_h(f: FoulisQuantale, sub: SasakiOML) -> QElementView:
    """Row s of h, a view on sub.oml: the action of s on sub, the projection
    lattice of f, a map of Lin(sub.oml) unless it moves 0 or breaks a
    binary join of sub.oml; the least such s raises action-not-join-preserving."""
    x = sub.oml
    rows = sasaki_action_table(f, sub)
    moved = np.flatnonzero(rows[:, x.bottom] != x.bottom)
    bad = [int(s) for s in moved[:1]]
    if (s := nonadditive_row(rows, x)) is not None:
        bad.append(s)
    if bad:
        raise StructureViolation("action-not-join-preserving", (f.label(min(bad)),))
    return QElementView(x, rows)


def sasaki_embedding(q: FinQuantale, sub: SasakiOML) -> np.ndarray:
    """theta: a -> the Sasaki projection at a, for a in the host X of
    q.view, in the local indices of sub.  Raises projection-off-image at
    the least a of X whose projection is no member of sub."""
    theta = sub.local[q.view.projections]
    if (theta < 0).any():
        a = int(np.flatnonzero(theta < 0)[0])
        raise StructureViolation("projection-off-image", (q.view.host.label(a),))
    return theta


def record_conjugation(f: FoulisQuantale, h: QElementView, theta) -> bool:
    """Record on q = f.base that preserved_by(h) has no hit, when
    h(s) o theta = theta o phi(s) for every s, with phi the representation
    q.view.

    theta must be a lattice isomorphism from the host X of q.view onto the
    projection lattice h.host, as a passing roundtrip_iso shows of
    sasaki_embedding.  It also needs q.certified_view.  Then h(s) = theta
    o phi(s) o theta^-1, so by represents (ii) h(u * v) = theta phi(u)
    phi(v) theta^-1 = h(u) o h(v), and by (iii), theta preserving joins,
    h(u v v) = h(u) v h(v): the pass looks up the code of row h(w), w =
    u * v (w = u v v), and has no hit.  Returns whether it recorded.
    """
    q = f.base
    view = q.certified_view
    if view is None or not np.array_equal(h.values[:, theta], theta[view.values]):
        return False
    q.record_pass(h)
    return True


def check_hom(f: FoulisQuantale, h: QElementView) -> CheckReport:
    """Structure preservation of the representation h = hom_h(f, sub).

    Joins (binary and empty), multiplication, unit, involution, and the
    derived complement; plus the closed form of the complement on the
    target side: perp of the image map is the Sasaki projection at the
    complement of its value at the top.

    The laws compare rows of h under Lin(X), X = h.host: two
    join-preserving rows are one element when they are equal.  The star of
    f is its adjoint A(f), and its perp sai(A(f)) is the Sasaki projection
    at c(A(A(f))(1)), c the complement of X.  preserves-join and
    preserves-mult are one pass of FinQuantale.preserved_by(h), memoized
    on the source quantale and shared with module_reports, or none when
    record_conjugation recorded it; a composite or join that is no row of
    h is a hit.  A(A(f)) = f: X passed check_oml, so c is an
    order-reversing involution, every row of h preserves joins (hom_h), and
    A is then an involution by the argument of FinQuantale.certified_view.
    So perp is the closed form, read without a second adjoint, and
    perp-closed-form holds; it stays for the payload.
    """
    q, hr, x = f.base, h.values, h.host
    ss = q.dense_star()
    star = adjoint_rows(hr, x, x)
    perp = x.sasaki_tab[x.ortho[hr[:, x.top]]]
    mult_hit, join_hit = q.preserved_by(h)

    def differ(a, b):
        return least((a != b).any(axis=1))

    return run_laws("hom", f.label, [
        Law("preserves-join", hit=join_hit),
        Law("preserves-zero", hit=None if (hr[q.zero] == x.bottom).all() else (q.zero,)),
        Law("preserves-mult", hit=mult_hit),
        Law("preserves-unit", hit=None if (hr[q.unit] == np.arange(x.n)).all() else (q.unit,)),
        Law("preserves-star", hit=differ(hr[ss], star)),
        Law("preserves-perp", hit=differ(hr[f.sai[ss]], perp)),
        Law("perp-closed-form"),
    ])


def roundtrip_iso(f: FoulisQuantale, sub: SasakiOML) -> CheckReport:
    """a -> Sasaki projection at a, as an isomorphism from the host X of
    f.base.view onto sub, the projection lattice of f."""
    oml = f.base.view.host
    n = oml.n
    cand = sasaki_embedding(f.base, sub)
    seen = {}
    dup = next(((seen[c], a) for a, c in enumerate(cand.tolist()) if seen.setdefault(c, a) != a),
               None)
    if dup is not None:
        bijection = Law("bijection", hit=dup, kinds="xx")
    elif len(sub.members) != n:
        bijection = Law("bijection", hit=(n, len(sub.members)), kinds="nn")
    else:
        bijection = Law("bijection")
    img = sub.oml

    def preserves(tab, img_tab):
        # entry b: the image of a op b against cand[a] op cand[b]
        return lambda a: cand[tab[a]] != img_tab[cand[a], cand]

    return run_laws("roundtrip", {"x": oml.label, "n": str}, [
        bijection,
        Law("order-isomorphism", lambda a: oml.leq_mat[a] != img.leq_mat[cand[a], cand],
            n, kinds="xx"),
        Law("complement-preserved", hit=least(cand[oml.ortho] != sub.oml.ortho[cand]), kinds="x"),
        Law("meet-preserved", preserves(oml.meet_tab, img.meet_tab), n, kinds="xx"),
        Law("join-preserved", preserves(oml.join_tab, img.join_tab), n, kinds="xx"),
    ])
