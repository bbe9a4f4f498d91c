"""JSON round trips for every structure kind, input resolution order,
canonical text output, and DOT rendering."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq import (
    FiniteLattice,
    FiniteOML,
    FormatError,
    build_lattice,
    catalog,
    dump_json,
    LinMap,
    foulis_from_lin,
    hom_h,
    lattice_to_dict,
    lin_module,
    linmap_to_dict,
    load_json,
    module_to_dict,
    oml_to_dict,
    parse_lattice,
    parse_linmap,
    parse_module,
    parse_oml,
    parse_quantale,
    parse_structure,
    quantale_to_dict,
    resolve_oml,
    resolve_structure,
    sasaki_module,
    sasaki_oml,
    structure_to_dict,
    to_dot,
)
from omlq.cli import main
from omlq.serialize import foulis_to_dict

from conftest import sasaki_at


# ---------------------------------------------------------------------------
# Round trips.
# ---------------------------------------------------------------------------


def test_oml_round_trip():
    for name in ("boolean:2", "mo:2", "benzene", "zero"):
        oml = catalog(name)
        again = parse_oml(oml_to_dict(oml))
        assert again == oml


def test_lattice_round_trip(b3):
    again = parse_lattice(lattice_to_dict(b3))
    assert again.signature == FiniteLattice.signature.fget(b3)


def test_covers_input_equals_full_order_input(b2):
    d = oml_to_dict(b2)
    covers = {
        "elements": d["elements"],
        "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        "ortho": d["ortho"],
    }
    assert parse_oml(covers) == b2


def test_both_order_keys_rejected(b2):
    d = oml_to_dict(b2)
    d["covers"] = [["0", "a"]]
    with pytest.raises(FormatError):
        parse_oml(d)


def test_missing_order_keys_rejected():
    with pytest.raises(FormatError):
        parse_oml({"elements": ["0"], "ortho": {"0": "0"}})


def test_linmap_round_trip(b2, mo2):
    a = b2.index("a")
    f = LinMap(b2, b2, range(b2.n))
    g = LinMap(b2, b2, [sasaki_at(b2, a, y) for y in range(b2.n)])
    h = LinMap(b2, mo2, [0, 1, 2, 5])
    for m in (f, g, h):
        again = parse_linmap(linmap_to_dict(m))
        assert (again.dom, again.cod, again.values) == (m.dom, m.cod, m.values)


def test_linmap_catalog_domain_reference():
    d = {"dom": "boolean:2", "values": {"0": "0", "a": "a", "b": "0", "1": "a"}}
    f = parse_linmap(d)
    assert f.dom == catalog("boolean:2")
    assert f.values == (0, 1, 0, 1)


def test_linmap_cod_defaults_to_dom():
    d = {"dom": "mo:1", "values": {"0": "0", "a": "a", "a'": "0", "1": "a"}}
    f = parse_linmap(d)
    assert f.cod == f.dom


def test_quantale_round_trip(fq_b2):
    q = fq_b2[0].base
    again = parse_quantale(quantale_to_dict(q))
    assert again.carrier.signature == q.carrier.signature
    assert np.array_equal(again.dense_mult(), q.dense_mult())
    assert np.array_equal(again.dense_star(), q.dense_star())
    assert again.unit == q.unit


def test_foulis_round_trip(fq_b2):
    f = fq_b2[0]
    d = foulis_to_dict(f)
    assert "sai" in d
    again = parse_quantale(d)
    assert hasattr(again, "sai")
    assert np.array_equal(again.sai, f.sai)


def test_plain_quantale_parse_has_no_sai(fq_b2):
    d = quantale_to_dict(fq_b2[0].base)
    again = parse_quantale(d)
    assert not hasattr(again, "sai")


def test_module_round_trip(fq_b2):
    f, _ = fq_b2
    for mod in (lin_module(f.base), sasaki_module(f, hom_h(f, sasaki_oml(f)))):
        again = parse_module(module_to_dict(mod))
        assert np.array_equal(again.table, mod.table)
        assert again.lattice.signature == FiniteLattice.signature.fget(mod.lattice)


def test_structure_dispatch(fq_b2, b2):
    f, _ = fq_b2
    cases = [
        (oml_to_dict(b2), FiniteOML),
    ]
    obj = parse_structure(oml_to_dict(b2))
    assert isinstance(obj, FiniteOML)
    obj = parse_structure(quantale_to_dict(f.base))
    assert type(obj).__name__ == "FinQuantale"
    obj = parse_structure(foulis_to_dict(f))
    assert type(obj).__name__ == "FoulisQuantale"
    obj = parse_structure(linmap_to_dict(LinMap(b2, b2, range(b2.n))))
    assert type(obj).__name__ == "LinMap"
    obj = parse_structure(module_to_dict(sasaki_module(f, hom_h(f, sasaki_oml(f)))))
    assert type(obj).__name__ == "ModuleAction"
    obj = parse_structure(lattice_to_dict(b2))
    assert type(obj).__name__ == "FiniteLattice"
    with pytest.raises(FormatError):
        parse_structure({"what": 1})


def test_structure_to_dict_rejects_unknown():
    with pytest.raises(FormatError):
        structure_to_dict(42)


def test_emitted_structures_reparse_identically(fq_b2, b2):
    # dict -> text -> dict -> structure -> dict is a fixed point
    for obj in (b2, fq_b2[0], LinMap(b2, b2, range(b2.n))):
        d1 = structure_to_dict(obj)
        text = dump_json(d1)
        d2 = json.loads(text)
        assert d2 == d1
        d3 = structure_to_dict(parse_structure(d2))
        assert d3 == d1


# ---------------------------------------------------------------------------
# Resolution and file I/O.
# ---------------------------------------------------------------------------


def test_resolve_prefers_catalog_over_files(tmp_path):
    decoy = tmp_path / "boolean:2"
    decoy.write_text(dump_json(oml_to_dict(catalog("mo:2"))))
    oml = resolve_oml("boolean:2", base_dir=tmp_path)
    assert oml.n == 4  # the catalog entry, not the 6-element decoy


def test_resolve_reads_files(tmp_path):
    p = tmp_path / "custom.json"
    p.write_text(dump_json(oml_to_dict(catalog("mo:2"))))
    oml = resolve_oml("custom.json", base_dir=tmp_path)
    assert oml == catalog("mo:2")
    assert resolve_oml(str(p)).n == 6


def test_resolve_unknown_spec(tmp_path):
    with pytest.raises(FormatError) as exc:
        resolve_oml("no-such-thing", base_dir=tmp_path)
    assert "catalog" in str(exc.value)


def test_resolve_inline_dict(b2):
    assert resolve_oml(oml_to_dict(b2)) == b2


def test_resolve_structure_file(tmp_path, fq_b2):
    p = tmp_path / "q.json"
    p.write_text(dump_json(foulis_to_dict(fq_b2[0])))
    obj = resolve_structure(str(p))
    assert type(obj).__name__ == "FoulisQuantale"


def test_load_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_json(str(bad))


def test_parse_rejects_partial_tables(b2):
    d = oml_to_dict(b2)
    del d["ortho"]["a"]
    with pytest.raises(FormatError):
        parse_oml(d)
    q = quantale_to_dict(foulis_from_lin(catalog("boolean:1"))[0].base)
    del q["star"]["[0,1]"]
    with pytest.raises(FormatError):
        parse_quantale(q)
    q = quantale_to_dict(foulis_from_lin(catalog("boolean:1"))[0].base)
    q["mult"][1][0] = "nope"
    with pytest.raises(FormatError, match="unknown element 'nope'"):
        parse_quantale(q)


def test_parse_module_rejects_unknown_action_labels(fq_b2):
    d = module_to_dict(lin_module(fq_b2[0].base))
    d["action"][3][1] = "nope"
    with pytest.raises(FormatError, match="unknown element 'nope'"):
        parse_module(d)
    d["action"][3][1] = ["a"]
    with pytest.raises(FormatError, match=r"unknown element \['a'\]"):
        parse_module(d)
    d["action"][3] = d["action"][3][:-1]
    with pytest.raises(FormatError, match="label table"):
        parse_module(d)


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


json_scalars = st.one_of(
    st.text(max_size=3), st.sampled_from(["a", "é", "\U0001f600", '"', "\\", "\n"]),
    st.integers(-3, 3), st.floats(allow_nan=True), st.booleans(), st.none(),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.text(max_size=2), max_size=4),  # a row of labels
        st.lists(st.lists(st.text(max_size=2), max_size=3), max_size=4),  # a label table
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=2), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                                  st.floats(allow_nan=False)), inner, max_size=3),
    ),
    max_leaves=20,
)


def dumps_outcome(f, obj):
    try:
        return "text", f(obj)
    except Exception as e:
        return "error", type(e).__name__, str(e)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_dump_json_equals_json_dumps(obj):
    def reference(o):
        return json.dumps(o, sort_keys=True, indent=2) + "\n"

    assert dumps_outcome(dump_json, obj) == dumps_outcome(reference, obj)


@pytest.mark.parametrize("obj", [
    {"a": 1, 2: 3},  # keys that do not sort
    {(1, 2): 3},  # a key JSON cannot hold
    [b"x"], ["a", b"x"], {"a": [1, object()]},  # values JSON cannot hold
])
def test_dump_json_raises_the_json_dumps_error(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        dump_json(obj)
    assert str(got.value) == str(want.value)


def test_dump_json_of_a_cycle_raises_the_json_dumps_error():
    obj = [["a"]]
    obj[0].append(obj)
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json(obj)


# sha256 of `lin-quantale --catalog boolean:3 --format json`, as pinned by
# the benchmark's mutants-b3 workload.
LIN_B3_SHA256 = "203431c971c8bfe38b8eccb1e8c39b897251e875d31791456ae8a6f05629f982"


def test_lin_quantale_b3_json_prints_pinned_bytes(capsys):
    assert main(["lin-quantale", "--catalog", "boolean:3", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LIN_B3_SHA256


# sha256 of `lin --catalog boolean:4 --format json`: 65,536 rows of 16
# labels, each row written by one join.
LIN_B4_MAPS_SHA256 = "dd3202a54bcfa4e938cc2eab6cf7e76c39cda839df97bf69aad3ca3ceecf9f7c"


def test_lin_b4_json_prints_pinned_bytes(capsys):
    assert main(["lin", "--catalog", "boolean:4", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == LIN_B4_MAPS_SHA256


# sha256 of `emit --catalog C --format F`: oml_to_dict's complement pairs and
# to_dot's covers, complement edges and rank lines, read off the tables.
EMIT_SHA256 = {
    ("mo:2", "json"): "06276cf860a7b4e0f8dd2dd43377b9bdb72ca021fb2814932e6f8ae3fcf02697",
    ("mo:2", "dot"): "a4976cf57a95b23e716c0b12ae75b19ae6f008a3a53d13f60109f53bfe782b11",
    ("benzene", "json"): "2f281a7cb98b1b814a86c9dfc55cfe103d26e473d74dafa8c6f9bd640e232c17",
    ("benzene", "dot"): "61aa971fc44454d952ccc0ff849c4605b9e58921dfb4b76e1bcfc9791c867528",
    ("horizontal_sum(boolean:2,boolean:2)", "json"):
        "63072292c549c70a9b50a217427013853a4b230a56f5747de28aec829494d378",
    ("horizontal_sum(boolean:2,boolean:2)", "dot"):
        "2c451d23e87d36edfb6300f270b919882b2de59ddee6dfbf7bdd585d387995be",
}


@pytest.mark.parametrize("name, fmt", sorted(EMIT_SHA256))
def test_emit_prints_pinned_bytes(capsys, name, fmt):
    assert main(["emit", "--catalog", name, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == EMIT_SHA256[name, fmt]


# ---------------------------------------------------------------------------
# DOT rendering.
# ---------------------------------------------------------------------------


def node_lines(dot):
    return [
        l for l in dot.splitlines()
        if l.strip().startswith('"') and " -> " not in l and "rank" not in l
    ]


def test_dot_mo2_shape(mo2):
    dot = to_dot(mo2)
    lines = dot.splitlines()
    assert lines[0].startswith("digraph")
    marker = next(i for i, l in enumerate(lines) if "style=dashed" in l)
    solid = [l for l in lines[:marker] if " -> " in l]
    dashed = [l for l in lines[marker:] if " -> " in l]
    assert len(solid) == 8  # covering edges
    assert len(dashed) == 3  # complement links, one per pair
    assert len(node_lines(dot)) == 6
    # only incomparable complement pairs share a rank
    assert dot.count("rank=same") == 2


def test_dot_zero_is_a_single_node(zero_l):
    dot = to_dot(zero_l)
    assert " -> " not in dot
    assert len(node_lines(dot)) == 1


def test_dot_escapes_quotes():
    lat = build_lattice(['lo"w', "high"], [('lo"w', "high")])
    oml = FiniteOML(lat, [1, 0])
    dot = to_dot(oml)
    assert '\\"' in dot


def test_dot_of_module_draws_no_complements(fq_mo2, mo2):
    # the canonical actions hold OMLs, a module file may name one
    f, _ = fq_mo2
    plain = to_dot(parse_lattice(lattice_to_dict(mo2)))
    lm = lin_module(f.base)
    named = parse_module({**module_to_dict(lm), "lattice": "mo:2"})
    assert isinstance(named.lattice, FiniteOML)
    for mod in (lm, sasaki_module(f, hom_h(f, sasaki_oml(f))), named):
        assert "style=dashed" not in to_dot(mod)
    assert to_dot(lm) == to_dot(named) == plain


def test_dot_of_quantale_uses_carrier(fq_b2):
    dot = to_dot(fq_b2[0])
    assert len(node_lines(dot)) == 16
