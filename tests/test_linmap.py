"""Join-preserving endomaps: enumeration, daggers, kernels, factorizations.

Oracles used here:

* brute force — every function table on a small domain, filtered by the
  definition, compared as a set against the library's enumeration;
* adjoint pairing — an exhaustive search for a partner h satisfying
  f(x) _|_ y  <=>  x _|_ h(y), compared against the closed-form dagger;
* atom assignment — on Boolean domains a join-preserving map is freely
  determined by its atom values, so the count and the full set of tables
  are predicted independently of the enumerator.
"""

import hashlib
import itertools
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq import (
    CapExceeded,
    DomainMismatch,
    FiniteOML,
    FrontierTooLarge,
    LinMap,
    SubOML,
    dagger,
    is_linear,
    kernel,
    lin_count,
    lin_values,
    oml_to_dict,
    parse_oml,
    sasaki_apply,
    vector_label,
    verify_adjoint_pair,
)
from omlq import linmap as linmap_module
from omlq.cli import main
from omlq.goldens import bruteforce_lin_values
from omlq.linmap import BRUTEFORCE_LIMIT, adjoint_rows, kernel_split

from conftest import atoms, join_all


def brute_force_linear_tables(dom, cod):
    """All value tables of join-preserving maps, found by definition alone."""
    out = []
    n, m = dom.n, cod.n
    for values in itertools.product(range(m), repeat=n):
        if values[dom.bottom] != cod.bottom:
            continue
        ok = all(
            values[dom.join_tab[x, y]] == cod.join_tab[values[x], values[y]]
            for x in range(n)
            for y in range(n)
        )
        if ok:
            out.append(values)
    return sorted(out)


def dagger_reference(f):
    """The closed formula of the adjoint, one cell at a time: t goes to the
    complement of the join of {s : f(s) <= complement(t)}."""
    dom, cod = f.dom, f.cod
    leq = cod.leq_mat
    vals = []
    for t in range(cod.n):
        tp = cod.ortho[t]
        below = [s for s in range(dom.n) if leq[f.values[s], tp]]
        vals.append(dom.ortho[join_all(dom, below)])
    return LinMap(cod, dom, vals)


def projection_row(oml, a):
    """The Sasaki projection at a, one sasaki_apply call per element."""
    return np.array([sasaki_apply(oml, a, y) for y in range(oml.n)])


def row_maps(oml):
    """Every join-preserving endomap of oml, one LinMap per row of lin_values."""
    return [LinMap(oml, oml, row) for row in lin_values(oml)]


def adjoint_partner_tables(oml):
    """Tables admitting some adjoint partner, by exhaustive pairing."""
    n = oml.n
    leq = oml.leq_mat
    o = oml.ortho
    tables = np.array(list(itertools.product(range(n), repeat=n)), dtype=np.int32)
    # A[f, x, y] = "f(x) is orthogonal to y"
    A = leq[tables[:, :, None], o[None, None, :]]
    # B[h, x, y] = "x is orthogonal to h(y)"
    B = np.transpose(leq[:, o[tables]], (1, 0, 2))
    pair = (A[:, None, :, :] == B[None, :, :, :]).all(axis=(2, 3))
    return sorted(map(tuple, tables[pair.any(axis=1)].tolist()))


# ---------------------------------------------------------------------------
# Construction and basic predicates.
# ---------------------------------------------------------------------------


def test_identity_and_bottom_are_linear(mo2):
    assert is_linear(LinMap(mo2, mo2, range(mo2.n)))
    assert is_linear(LinMap(mo2, mo2, [mo2.bottom] * mo2.n))


def test_constant_top_is_not_linear(b2):
    f = LinMap(b2, b2, [b2.top] * b2.n)
    assert not is_linear(f)


def test_sasaki_projections_are_linear(mo2):
    for a in range(mo2.n):
        values = [sasaki_apply(mo2, a, y) for y in range(mo2.n)]
        assert is_linear(LinMap(mo2, mo2, values))


def test_linmap_validation(b2, mo2):
    with pytest.raises(DomainMismatch):
        LinMap(b2, b2, [0, 1, 2])  # wrong length
    with pytest.raises(DomainMismatch):
        LinMap(b2, b2, [0, 1, 2, 9])  # out of range
    with pytest.raises(DomainMismatch):
        LinMap(b2, mo2, [0, 1, 2, 6])  # outside the codomain
    assert LinMap(b2, mo2, [0, 1, 2, 5]).values == (0, 1, 2, 5)


def test_vector_label_format(b2):
    assert vector_label(LinMap(b2, b2, range(b2.n))) == "[0,a,b,1]"


# ---------------------------------------------------------------------------
# Enumeration against the oracles.
# ---------------------------------------------------------------------------


def test_enumeration_matches_brute_force_on_small_domains(b1, b2, mo2):
    mo1 = __import__("omlq").catalog("mo:1")
    for dom in (b1, b2, mo1):
        expected = brute_force_linear_tables(dom, dom)
        got = sorted(map(tuple, lin_values(dom).tolist()))
        assert got == expected
    # mixed domain/codomain
    expected = brute_force_linear_tables(b2, mo1)
    got = sorted(map(tuple, lin_values(b2, cod=mo1).tolist()))
    assert got == expected


def relabelled(oml, seed):
    """oml read back from its file with the element list permuted."""
    d = oml_to_dict(oml)
    order = np.random.default_rng(seed).permutation(oml.n)
    d["elements"] = [d["elements"][i] for i in order]
    return parse_oml(d)


def test_strategies_agree(b2):
    # The generator against the brute-force oracle of goldens: every fixed
    # catalog host within BRUTEFORCE_LIMIT value tables, mixed pairs, and
    # hosts whose element order is permuted, so that the order in which
    # the generator assigns J(X) is not the catalog's.
    from omlq import catalog

    hosts = [catalog(name) for name in
             ("zero", "boolean:1", "boolean:2", "boolean:3", "mo:1", "mo:2", "mo:3", "benzene",
              "product(boolean:1,boolean:1)", "horizontal_sum(boolean:2,boolean:2)")]
    pairs = [(dom, dom) for dom in hosts if dom.n**dom.n <= BRUTEFORCE_LIMIT]
    assert len(pairs) == 8
    mo1 = catalog("mo:1")
    names = ("mo:2", "benzene", "horizontal_sum(boolean:2,boolean:2)")
    moved = [relabelled(catalog(name), seed) for seed, name in enumerate(names)]
    assert all(oml.labels != catalog(name).labels for oml, name in zip(moved, names))
    for dom, cod in pairs + [(b2, mo1), (mo1, b2)] + [(dom, dom) for dom in moved]:
        assert np.array_equal(lin_values(dom, cod), bruteforce_lin_values(dom, cod))


# sha256 of the C-contiguous <i4 bytes of lin_values, as produced by the
# enumerator that decoded every assignment of the join-irreducibles.
PINNED_ROWS = {
    "mo:3": "7aa5defe113d0259e522fcb4707504f7ac63baad6b15f6081ab57c46bd08c670",
    "product(boolean:1,mo:2)":
        "c5590b8d747945d2eb2ebfeebfcfba833c6e809ffc7b2c7485741c0aab580bb4",
    "horizontal_sum(boolean:2,boolean:3)":
        "0f4dc0f17286d00c452956058f8f34b643b4e1d4a7af08c54b7bb9f2f471bd6b",
    "boolean:4": "37a001b10ac58fa4a04771d683abc6c3232ed1fb57d966976f900509d2ef7e48",
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_rows_match_the_decode_all_enumerator(name):
    from omlq import catalog

    values = lin_values(catalog(name))
    assert values.dtype == np.int32 and values.flags.c_contiguous
    digest = hashlib.sha256(values.astype("<i4", copy=False).tobytes()).hexdigest()
    assert digest == PINNED_ROWS[name]


def test_frontier_refuses_beyond_the_limit(monkeypatch):
    # mo:3 assigns its six atoms in index order; the second step offers each
    # of the 8 rows every value above the bottom, 64 candidates.
    from omlq import catalog

    monkeypatch.setattr(linmap_module, "BRUTEFORCE_LIMIT", 63)
    with pytest.raises(CapExceeded, match=r"^enumeration exceeds cap 63: step 2 of 6 has 64 "
                                          r"candidate rows, beyond BRUTEFORCE_LIMIT$"):
        lin_values(catalog("mo:3"))
    monkeypatch.setattr(linmap_module, "BRUTEFORCE_LIMIT", 64)
    with pytest.raises(CapExceeded, match="step 3 of 6 has"):
        lin_values(catalog("mo:3"))


def test_step_refusal_is_a_frontier_refusal(monkeypatch):
    from omlq import catalog

    monkeypatch.setattr(linmap_module, "BRUTEFORCE_LIMIT", 63)
    for count in (lin_values, lin_count):
        with pytest.raises(FrontierTooLarge, match="step 2 of 6 has 64 candidate rows"):
            count(catalog("mo:3"))


# Hosts of 256 and 512 elements: the largest whose frontier is one byte
# wide, and one whose frontier is two.
HOST_256 = "product(boolean:4,boolean:4)"
HOST_512 = "product(boolean:4,product(boolean:4,boolean:1))"


@pytest.mark.parametrize("name, dtype", [(HOST_256, np.uint8), (HOST_512, np.uint16)])
def test_rows_at_the_frontier_dtype_boundaries(b1, name, dtype):
    from omlq import catalog

    cod = catalog(name)
    assert linmap_module._frontier(b1, cod, None)[0].dtype == dtype
    values = lin_values(b1, cod)
    assert values.dtype == np.int32 and values.flags.c_contiguous
    assert np.array_equal(values, bruteforce_lin_values(b1, cod))


def test_count_of_boolean_domain_maps_is_the_power(b2):
    # |Lin(2^n, L)| = |L|^n: a map from 2^n is free on its n atoms.
    from omlq import catalog

    assert lin_count(b2, catalog(HOST_512), cap=300_000) == 512**2


def test_count_equals_the_number_of_rows(b2):
    from omlq import catalog, catalog_names

    mo1 = catalog("mo:1")
    fixed = [catalog(name) for name in catalog_names() if "(" not in name]
    for dom, cod in [(dom, dom) for dom in fixed] + [(b2, mo1), (mo1, b2)]:
        try:
            rows = len(lin_values(dom, cod))
        except CapExceeded as e:
            with pytest.raises(CapExceeded, match=f"^{re.escape(str(e))}$"):
                lin_count(dom, cod)
        else:
            assert lin_count(dom, cod) == rows


def test_boolean_maps_are_free_on_atoms(b3):
    ats = atoms(b3)
    expected = set()
    for targets in itertools.product(range(b3.n), repeat=len(ats)):
        values = tuple(
            join_all(b3, [t for at, t in zip(ats, targets) if b3.leq_mat[at, x]])
            for x in range(b3.n)
        )
        expected.add(values)
    assert len(expected) == b3.n ** len(ats) == 512
    got = set(map(tuple, lin_values(b3).tolist()))
    assert got == expected


def test_enumeration_order_is_lexicographic(b2):
    vecs = lin_values(b2).tolist()
    assert vecs == sorted(vecs)


def test_enumeration_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert main(["lin", "--catalog", "mo:2", "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_enumeration_cap(mo2):
    with pytest.raises(CapExceeded):
        lin_values(mo2, cap=100)
    assert len(lin_values(mo2, cap=234)) == 234


# ---------------------------------------------------------------------------
# Daggers.
# ---------------------------------------------------------------------------


def test_dagger_matches_pairing_oracle(b2):
    linear = {f.values: f for f in row_maps(b2)}
    admits = adjoint_partner_tables(b2)
    assert sorted(linear) == admits
    n = b2.n
    leq = b2.leq_mat
    o = b2.ortho
    for values, f in linear.items():
        fd = dagger(f)
        partners = [
            h
            for h in itertools.product(range(n), repeat=n)
            if all(
                leq[values[x], o[y]] == leq[x, o[h[y]]]
                for x in range(n)
                for y in range(n)
            )
        ]
        assert partners == [fd.values]


def test_adjoint_rows_match_the_reference(b1, b2, mo2, benzene):
    # Tables start from join-preserving maps, including every downset
    # embedding of benzene and mo:2 into its host, and have cells
    # overwritten, so most of them preserve no joins.  The domain differs
    # from the codomain for boolean:1 -> boolean:2 and the embeddings;
    # benzene and twisted boolean:2 carry complements that break the OML
    # laws.
    twisted = FiniteOML(b2, {"0": "a", "a": "0", "b": "1", "1": "b"})
    cases = [(dom, cod, lin_values(dom, cod).tolist())
             for dom, cod in ((b2, b2), (mo2, mo2), (b1, b2), (benzene, benzene))]
    cases.append((twisted, twisted, cases[0][2]))
    for oml in (benzene, mo2):
        for a in range(oml.n):
            sub = SubOML(oml, a)
            cases.append((sub.oml, oml, [list(sub.members)]))
    moved = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        dom, cod, tables = data.draw(st.sampled_from(cases))
        rows = [list(t) for t in data.draw(st.lists(st.sampled_from(tables), min_size=1,
                                                     max_size=4))]
        for _ in range(data.draw(st.integers(0, 3))):
            r = data.draw(st.integers(0, len(rows) - 1))
            rows[r][data.draw(st.integers(0, dom.n - 1))] = data.draw(st.integers(0, cod.n - 1))
        got = adjoint_rows(np.array(rows), dom, cod)
        assert got.shape == (len(rows), cod.n)
        for row, adj in zip(rows, got.tolist()):
            assert adj == list(dagger_reference(LinMap(dom, cod, row)).values)
            moved.append(not is_linear(LinMap(dom, cod, row)))

    check()
    assert any(moved) and not all(moved)


def test_dagger_is_an_involution(b2, mo2):
    for dom in (b2, mo2):
        for f in row_maps(dom):
            assert dagger(dagger(f)).values == f.values


def test_dagger_fixes_sasaki_projections(b2, mo2, b3):
    for oml in (b2, mo2, b3):
        for a in range(oml.n):
            p = LinMap(oml, oml, projection_row(oml, a))
            assert is_linear(p)
            assert dagger(p).values == p.values


def test_dagger_of_identity_and_bottom(mo2):
    identity, bottom = tuple(range(mo2.n)), (mo2.bottom,) * mo2.n
    assert dagger(LinMap(mo2, mo2, identity)).values == identity
    assert dagger(LinMap(mo2, mo2, bottom)).values == bottom


def test_dagger_reverses_composition(b2):
    # g after f is the gather g[f]
    maps = [f.values for f in row_maps(b2)]
    for f in maps:
        for g in maps:
            gf = [g[v] for v in f]
            df, dg = dagger(LinMap(b2, b2, f)).values, dagger(LinMap(b2, b2, g)).values
            assert dagger(LinMap(b2, b2, gf)).values == tuple(df[v] for v in dg)


def test_verify_adjoint_pair(b2):
    f = LinMap(b2, b2, [0, 1, 0, 1])
    assert verify_adjoint_pair(f, dagger(f)).passed
    g = LinMap(b2, b2, [0, 0, 2, 2])
    report = verify_adjoint_pair(f, g)
    assert not report.passed
    assert report.violations[0].witness


# ---------------------------------------------------------------------------
# Kernels and Sasaki factorization.
# ---------------------------------------------------------------------------


def test_kernel_element_is_largest_killed(b2, mo2):
    for oml in (b2, mo2):
        for f in row_maps(oml):
            data = kernel(f)
            killed = {x for x in range(oml.n) if f.values[x] == oml.bottom}
            assert killed == set(np.flatnonzero(oml.leq_mat[:, data.k]).tolist())


def test_kernel_of_projection(b2):
    a = b2.index("a")
    data = kernel(LinMap(b2, b2, projection_row(b2, a)))
    assert b2.label(data.k) == "b"
    assert sorted(b2.label(m) for m in data.sub.members) == ["0", "b"]


def test_kernel_of_identity_and_bottom(mo2):
    assert kernel(LinMap(mo2, mo2, range(mo2.n))).k == mo2.bottom
    assert kernel(LinMap(mo2, mo2, [mo2.bottom] * mo2.n)).k == mo2.top


def test_factorization_splits_projection(b2, mo2):
    # The downset embedding e (sub.members) and the corestricted projection
    # p (a row of local indices): e after p is the projection, p after e
    # the identity, and e is a dagger mono whose dagger is p.
    for oml in (b2, mo2):
        for a in range(oml.n):
            sub, coembed = kernel_split(oml, a)
            embed, local_id = np.array(sub.members), np.arange(len(sub.members))
            assert np.array_equal(embed[coembed], projection_row(oml, a))
            assert np.array_equal(coembed[embed], local_id)
            dagger_embed = dagger(LinMap(sub.oml, oml, embed)).values
            assert dagger_embed == tuple(coembed.tolist())
            assert np.array_equal(np.array(dagger_embed)[embed], local_id)


def test_kernel_embedding_members(b2, mo2):
    for oml in (b2, mo2):
        for f in row_maps(oml):
            data = kernel(f)
            # embedding lands exactly on the downset of k
            assert list(data.sub.members) == np.flatnonzero(oml.leq_mat[:, data.k]).tolist()
            # f kills everything the embedding produces
            assert all(f.values[v] == oml.bottom for v in data.sub.members)


def test_image_of_projection_is_downset(mo2):
    for a in range(mo2.n):
        image = np.unique(projection_row(mo2, a))
        assert image.tolist() == np.flatnonzero(mo2.leq_mat[:, a]).tolist()
