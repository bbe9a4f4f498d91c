"""load_json reads label tables row by row with one string per label,
through a bounded window of the file's text.

Its value equals json.loads of the file's text on every text json.loads
accepts, with the same types (1 and True stay apart), and every text it
rejects gives the FormatError json.loads' error would give.  A table of
labels and the order pairs hold one str object per distinct label, which
is what keeps the decode of a Lin(boolean:3) file small.  The window is
shrunk to a few characters here, so that every token, row, CRLF pair and
multi-byte character straddles its edge somewhere.
"""

import hashlib
import json
import os
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq import FormatError, catalog, dump_json, foulis_from_lin, lin_module, load_json
from omlq import module_to_dict, quantale_to_dict
from omlq import serialize
from omlq.cli import main
from omlq.serialize import _decode

KEYS = ("mult", "action", "leq", "covers", "quantale", "lattice", "elements", "unit", "a", "")
SPACES = ("", " ", "\n  ", "\t\r\n ")


def outcome(f, text):
    """repr of f(text), or the type and text of its error; repr tells 1
    from True and 1.0, and shows key order."""
    try:
        return "value", repr(f(text))
    except Exception as e:
        return "error", type(e).__name__, str(e)


scalars = st.one_of(
    st.sampled_from(["a", "b", "0", "1", "", "é", "€", "\U0001f600", "\\", '"']),
    st.integers(-2, 2), st.sampled_from([1.0, 0.0, -0.0, 1e300]), st.booleans(), st.none(),
)
cells = st.one_of(scalars, st.lists(scalars, max_size=2))
rows = st.one_of(st.lists(cells, max_size=4), st.lists(st.sampled_from("ab1"), max_size=4))
tables = st.lists(rows, max_size=4)
values = st.recursive(
    st.one_of(scalars, tables),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(st.tuples(st.sampled_from(KEYS), inner), max_size=4).map(tuple),
    ),
    max_leaves=12,
)
objects = st.lists(st.tuples(st.sampled_from(KEYS), st.one_of(tables, values)),
                   max_size=5).map(tuple)


EDITS = ["", ",", ":", "]", "}", "[", " ", '"', "x", "\ufeff", "\r", "\r\n"]


def render(value, ws, ascii=True):
    """JSON text of value, a tuple of (key, value) pairs standing for an
    object so that keys may repeat, with ws around every token; strings
    hold raw non-ASCII characters unless ascii."""
    if isinstance(value, tuple):
        members = (f"{ws}{json.dumps(k, ensure_ascii=ascii)}{ws}:{ws}{render(v, ws, ascii)}{ws}"
                   for k, v in value)
        return "{" + ",".join(members) + ws + "}"
    if isinstance(value, list):
        return "[" + ",".join(ws + render(v, ws, ascii) + ws for v in value) + ws + "]"
    return json.dumps(value, ensure_ascii=ascii)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES))
def test_decode_equals_json_loads(obj, ws):
    text = render(obj, ws)
    assert outcome(_decode, text) == outcome(json.loads, text)
    plain = json.loads(text)
    for indent in (None, 2):
        text = json.dumps(plain, indent=indent)
        assert outcome(_decode, text) == outcome(json.loads, text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES), st.data())
def test_decode_of_an_edited_text_equals_json_loads(obj, ws, data):
    text = render(obj, ws)
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 2)))
    text = text[:i] + data.draw(st.sampled_from(EDITS)) + text[j:]
    assert outcome(_decode, text) == outcome(json.loads, text)


WINDOWS = (1, 7, 64)


def write(path, text):
    """text as the file's UTF-8 bytes, with no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def windowed_outcomes(text, windows=WINDOWS, walked=False):
    """load_json's outcome on a file holding text, once per window size,
    and the outcome json.loads gives on the file's text read whole, with
    its error as load_json raises it.  With walked, the walk must read
    the file itself, rather than hand it to json.loads."""
    walk = serialize._walk

    def walk_to_the_end(w):
        out = walk(w)
        assert out is not None, "the walk handed the file to json.loads"
        return out

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        write(path, text)
        with open(path, encoding="utf-8") as fh:
            want = outcome(json.loads, fh.read())
        if want[0] == "error":
            want = ("error", "FormatError", f"{path}: {want[2]}")
        got = []
        with pytest.MonkeyPatch.context() as mp:
            if walked:
                mp.setattr(serialize, "_walk", walk_to_the_end)
            for window in windows:
                mp.setattr(serialize, "_WINDOW", window)
                got.append(outcome(load_json, path))
    return got, want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES), st.booleans())
def test_load_json_through_small_windows_equals_json_loads(obj, ws, ascii):
    got, want = windowed_outcomes(render(obj, ws, ascii), walked=True)
    assert got == [want] * len(WINDOWS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES), st.booleans(), st.data())
def test_load_json_of_an_edited_text_through_small_windows_equals_json_loads(obj, ws, ascii, data):
    text = render(obj, ws, ascii)
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 2)))
    text = text[:i] + data.draw(st.sampled_from(EDITS)) + text[j:]
    got, want = windowed_outcomes(text)
    assert got == [want] * len(WINDOWS)


def test_numbers_cut_by_the_window_edge_are_read_whole():
    # The first window ends at every character in turn: a number cut by it
    # ("1" of "1.5e3") is read again, never taken for the shorter one.
    text = '{"a":1.5e3,"b": -20 ,"c":[1, 2.25],"unit":123,"d":{"e":4.0}}'
    got, want = windowed_outcomes(text, range(1, len(text) + 1), walked=True)
    assert want[0] == "value"
    assert got == [want] * len(text)


def test_table_rows_with_numbers_or_true_are_kept_as_read():
    text = '{"mult": [[1, true, 1.0], ["1", 1], ["a", "a"], [], [["a"]]], "action": [1, true]}'
    d = _decode(text)
    assert repr(d) == repr(json.loads(text))
    assert d["mult"][2][0] is d["mult"][2][1]


def test_order_pairs_with_numbers_or_true_are_kept_as_read():
    text = ('{"mult": [["ab"]], '
            '"leq": [[1, true], [true, 1], ["ab", 1], ["ab", "ab", "ab"], ["ab", "ab"]]}')
    d = _decode(text)
    assert repr(d) == repr(json.loads(text))
    assert d["leq"][4][0] is d["leq"][4][1] is d["mult"][0][0]
    assert d["leq"][3][0] is not d["leq"][3][1]


MODULE = dump_json(module_to_dict(lin_module(foulis_from_lin(catalog("boolean:1"))[0].base)))
CUT_AT = (1, 2, 17, len(MODULE) // 3, len(MODULE) // 2, len(MODULE) - 4, len(MODULE) - 2)
MALFORMED = {
    "trailing comma after the last member": '{"unit": "a",}',
    "trailing comma after the last row": '{"mult": [["a"], ["b"],]}',
    "trailing comma in a row": '{"mult": [["a", "b",]]}',
    "missing colon": '{"mult" [["a"]]}',
    "missing comma between rows": '{"mult": [["a"] ["b"]]}',
    "missing comma between members": '{"unit": "a" "star": {}}',
    "UTF-8 BOM": "\ufeff" + MODULE,
    "extra data": MODULE + "{}",
    "empty file": "",
    **{f"cut at {k}": MODULE[:k] for k in CUT_AT},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_give_the_json_loads_error(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[name], encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(MALFORMED[name])
    with pytest.raises(FormatError) as got:
        load_json(str(path))
    assert str(got.value) == f"{path}: {want.value}"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_through_small_windows_give_the_json_loads_error(name):
    got, want = windowed_outcomes(MALFORMED[name])
    assert want[0] == "error"
    assert got == [want] * len(WINDOWS)


@pytest.mark.parametrize("text", ["[1, 2]", '"mult"', " 7 ", "{}", '{"a": {}}', MODULE])
def test_well_formed_files_read_as_json_loads(tmp_path, text):
    path = tmp_path / "ok.json"
    path.write_text(text, encoding="utf-8")
    assert repr(load_json(str(path))) == repr(json.loads(text))


@pytest.mark.parametrize("window", (*WINDOWS, 1 << 20))
def test_a_crlf_file_reads_as_its_lf_text(tmp_path, window, monkeypatch):
    path = tmp_path / "crlf.json"
    write(path, MODULE.replace("\n", "\r\n"))
    monkeypatch.setattr(serialize, "_WINDOW", window)
    assert repr(load_json(str(path))) == repr(json.loads(MODULE))


def test_a_file_shorter_than_one_window_is_walked(tmp_path):
    path = tmp_path / "short.json"
    write(path, MODULE)
    assert len(MODULE) < serialize._WINDOW
    d = load_json(str(path))
    assert repr(d) == repr(json.loads(MODULE))
    # one string per label: the walk read it, not json.loads
    cells = [lab for row in d["quantale"]["mult"] for lab in row]
    assert len({id(lab) for lab in cells}) == len(set(cells))


@pytest.mark.parametrize("tail", ["{}", "x", "\n"])
def test_data_past_the_first_window_is_read(tail):
    # A value followed by whitespace to past the first window's edge, then
    # tail: extra data is json.loads' error, whitespace is no error.
    text = MODULE + " " * serialize._WINDOW + tail
    got, want = windowed_outcomes(text, [serialize._WINDOW])
    assert got == [want]
    assert want[0] == ("value" if tail == "\n" else "error")


@pytest.mark.parametrize("window", (*WINDOWS, 1 << 20))
@pytest.mark.parametrize("at", [0, 15, len(MODULE) // 2, len(MODULE) - 1])
def test_a_file_that_is_not_utf8_gives_the_whole_file_position(tmp_path, monkeypatch, window, at):
    data = MODULE.encode()
    path = tmp_path / "bad.json"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(UnicodeDecodeError) as want:
        path.read_text(encoding="utf-8")
    monkeypatch.setattr(serialize, "_WINDOW", window)
    with pytest.raises(FormatError) as got:
        load_json(str(path))
    assert str(got.value) == f"{path}: {want.value}"
    assert f"position {at}:" in str(got.value)


def test_a_pipe_is_read_whole(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=write, args=(path, MODULE))
    writer.start()
    try:
        assert repr(load_json(str(path))) == repr(json.loads(MODULE))
    finally:
        writer.join()


# ---------------------------------------------------------------------------
# One string per label: a deterministic memory guard.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lin_b3_file(tmp_path_factory, fq_b3):
    path = tmp_path_factory.mktemp("lin") / "lin-b3.json"
    path.write_text(dump_json(quantale_to_dict(fq_b3[0].base)), encoding="utf-8")
    return path


def decode_peak(f, text):
    tracemalloc.start()
    try:
        f(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lin_b3_mult_holds_one_string_per_label(lin_b3_file):
    text = lin_b3_file.read_text(encoding="utf-8")
    d, plain = _decode(text), json.loads(text)
    assert d == plain
    assert len({id(lab) for row in d["mult"] for lab in row}) == 512
    assert len({id(lab) for row in plain["mult"] for lab in row}) == 512 * 512
    assert decode_peak(_decode, text) < 10e6
    assert decode_peak(json.loads, text) > 20e6


def test_lin_b3_order_pairs_hold_the_labels_of_the_table(lin_b3_file):
    d = load_json(str(lin_b3_file))
    table = {id(lab) for row in d["mult"] for lab in row}
    pairs = {id(lab) for pair in d["leq"] for lab in pair}
    assert len(d["leq"]) == 19_171 and pairs == table and len(table) == 512


def test_load_json_of_lin_b3_with_its_read_stays_below_10_mb(lin_b3_file):
    # Reading the 9.1 MB text whole and decoding it peaks at 18.2 MB.
    assert decode_peak(load_json, str(lin_b3_file)) < 10e6


def test_module_file_shares_the_labels_of_its_nested_mult_and_its_action(fq_mo2):
    d = _decode(dump_json(module_to_dict(lin_module(fq_mo2[0].base))))
    cells = [lab for t in (d["quantale"]["mult"], d["action"]) for row in t for lab in row]
    assert len({id(lab) for lab in cells}) == len(set(cells)) == fq_mo2[0].n + 6


# ---------------------------------------------------------------------------
# The file commands' output, pinned byte for byte.
# ---------------------------------------------------------------------------


def test_emit_reproduces_the_lin_b3_file(capsys, lin_b3_file):
    assert main(["emit", "--file", str(lin_b3_file), "--format", "json"]) == 0
    assert capsys.readouterr().out == lin_b3_file.read_text(encoding="utf-8")


MO2_MODULE_TEXT = """\
module: PASS
  act-join: ok
  act-bottom: ok
  join-act: ok
  zero-act: ok
  assoc-act: ok
  unit-act: ok
two-module: PASS
  two-unit-act: ok
  two-zero-act: ok
  two-join-act: ok
  act-two-join: ok
  two-assoc: ok
  bimodule-compat: ok
"""
MO2_MODULE_JSON_SHA256 = "b8e5fdbc25dd603d3ca796e11076e2c0db2d860d48c3d54315de054db7a6497f"


def test_check_module_file_prints_pinned_bytes(capsys, tmp_path, fq_mo2):
    path = tmp_path / "mo2-module.json"
    path.write_text(dump_json(module_to_dict(lin_module(fq_mo2[0].base))), encoding="utf-8")
    assert main(["check-module", "--file", str(path)]) == 0
    assert capsys.readouterr().out == MO2_MODULE_TEXT
    assert main(["check-module", "--file", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == MO2_MODULE_JSON_SHA256
