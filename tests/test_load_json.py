"""load_json reads label tables and order pairs as arrays of label codes,
through a bounded window of the file's text.

Its value, with each LabelCodes table expanded to its lists of labels,
equals json.loads of the file's text on every text json.loads accepts,
with the same types (1 and True stay apart), and every text it rejects
gives the FormatError json.loads' error would give.  The walk reads a
file itself exactly when the file is one object whose "mult", "action",
"leq" and "covers" arrays are rows of strings of one length and whose
"elements" is a list of strings, also in the objects nested as members;
it hands any other file to json.loads.  A table of labels and the order
pairs are integer arrays over one list of labels, one str object per
distinct label, which is what keeps the read of a Lin(boolean:3) file
small; the parsers read the same structure, or raise the same error, from
it as from json.loads' value.  The window and the table chunks are shrunk
to a few characters here, so that every token, row, CRLF pair and
multi-byte character straddles an edge somewhere.
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
from omlq import lin_quantale, module_to_dict, oml_to_dict, parse_linmap, parse_module
from omlq import parse_oml, parse_quantale, quantale_to_dict, sasaki_oml
from omlq import serialize
from omlq.cli import main
from omlq.lattice import LabelCodes

KEYS = ("mult", "action", "leq", "covers", "quantale", "lattice", "elements", "unit", "a", "")
TABLES = ("mult", "action", "leq", "covers")
SPACES = ("", " ", "\n  ", "\t\r\n ")

# (window, chunk) pairs: the defaults, then chunks of a few characters in
# the default window, then windows of a few bytes
CHUNKS = ((1 << 20, 1 << 16), (1 << 20, 1), (1 << 20, 2), (1 << 20, 5), (1 << 20, 9))
WINDOWS = ((1, 1), (7, 1), (64, 16))


def expanded(value):
    """value with each LabelCodes table given back as its lists of labels."""
    if isinstance(value, LabelCodes):
        return value.tolist()
    if isinstance(value, dict):
        return {k: expanded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [expanded(v) for v in value]
    return value


def outcome(f, text):
    """repr of f(text), expanded, or the type and text of its error; repr
    tells 1 from True and 1.0, and shows key order."""
    try:
        return "value", repr(expanded(f(text)))
    except Exception as e:
        return "error", type(e).__name__, str(e)


def label_row(row):
    return isinstance(row, list) and all(isinstance(s, str) for s in row)


def walkable(obj):
    """Whether the walk reads the text of obj, an object given as a dict or
    as a tuple of (key, value) pairs, rather than hand it to json.loads."""
    if not isinstance(obj, (dict, tuple)):
        return False
    for k, v in obj.items() if isinstance(obj, dict) else obj:
        if isinstance(v, (dict, tuple)):
            if not walkable(v):
                return False
        elif k in TABLES and isinstance(v, list):
            if not all(map(label_row, v)) or len({len(row) for row in v}) > 1:
                return False
        elif k == "elements" and not label_row(v):
            return False
    return True


scalars = st.one_of(
    st.sampled_from(["a", "b", "0", "1", "", "é", "€", "\U0001f600", "\\", '"', "],", "[",
                     '\\"],']),
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


def write(path, text):
    """text as the file's UTF-8 bytes, with no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def check_walk(mp, walked):
    """Patch the walk so that it must read the file itself when walked is
    true, and hand it to json.loads when it is false."""
    walk = serialize._walk

    def checked_walk(w):
        out = walk(w)
        assert (out is not None) == walked, "the walk did not decide as expected"
        return out

    mp.setattr(serialize, "_walk", checked_walk)


def windowed_outcomes(text, sizes=CHUNKS + WINDOWS, walked=None):
    """load_json's outcome on a file holding text, once per (window, chunk)
    pair of sizes, and the outcome json.loads gives on the file's text
    read whole, with its error as load_json raises it.  Unless walked is
    None, check_walk checks whether the walk read the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        write(path, text)
        with open(path, encoding="utf-8") as fh:
            want = outcome(json.loads, fh.read())
        if want[0] == "error":
            want = ("error", "FormatError", f"{path}: {want[2]}")
        got = []
        with pytest.MonkeyPatch.context() as mp:
            if walked is not None:
                check_walk(mp, walked)
            for window, chunk in sizes:
                mp.setattr(serialize, "_WINDOW", window)
                mp.setattr(serialize, "_CHUNK", chunk)
                got.append(outcome(load_json, path))
    return got, want


def loaded(text):
    """load_json of a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        write(path, text)
        return load_json(path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES))
def test_load_json_in_small_chunks_equals_json_loads(obj, ws):
    text = render(obj, ws)
    got, want = windowed_outcomes(text, CHUNKS, walked=walkable(obj))
    assert got == [want] * len(CHUNKS)
    plain = json.loads(text)
    for indent in (None, 2):
        text = json.dumps(plain, indent=indent)
        got, want = windowed_outcomes(text, CHUNKS, walked=walkable(plain))
        assert got == [want] * len(CHUNKS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES), st.data())
def test_load_json_of_an_edited_text_in_small_chunks_equals_json_loads(obj, ws, data):
    text = render(obj, ws)
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 2)))
    text = text[:i] + data.draw(st.sampled_from(EDITS)) + text[j:]
    got, want = windowed_outcomes(text, CHUNKS)
    assert got == [want] * len(CHUNKS)


CHUNKED = {
    "a label holding a row's end": '{"mult": [["a],", "b"], ["b", "a],"]], "leq": [["a],", "b"]]}',
    "a label holding an escaped quote before a row's end": (
        r'{"mult": [["x\"],", "b"], ["b", "x\"],"]], "leq": [["x\"],", "b"]]}'),
    "rows longer than a chunk": '{"mult": [["abcdefgh", "ijklmnop"], ["q", "r"]], "covers": []}',
    "a last row longer than twice the chunk": (
        '{"mult": [["q", "r"], ["abcdefghijklmnopqrstuvwxyz", "0123456789"]], "covers": []}'),
    "tables then members": ('{"mult": [["a"], ["b"]], "action": [["x", "y"]],'
                            ' "leq": [["p", "q"], ["q", "p"]], "z": [["],"]], "e": "],"}'),
    "rows of numbers": '{"mult": [1, 2, 3.5e2], "action": [[1], [2]], "leq": [[1, 2]]}',
    "nested rows": '{"mult": [[["a"], "b"], ["c", ["d"]]], "leq": [[["x"], ["y"]], [[], []]]}',
    "a trailing comma after a row": '{"mult": [["a"], ["b"],], "leq": []}',
    "a table that ends the text": '{"mult": [["a"], ["b"]]',
}


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_tables_read_in_chunks_equal_json_loads(name):
    text = CHUNKED[name]
    try:
        walked = walkable(json.loads(text))
    except json.JSONDecodeError:
        walked = False
    got, want = windowed_outcomes(text, walked=walked)
    assert got == [want] * len(CHUNKS + WINDOWS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES), st.booleans())
def test_load_json_through_small_windows_equals_json_loads(obj, ws, ascii):
    got, want = windowed_outcomes(render(obj, ws, ascii), WINDOWS, walked=walkable(obj))
    assert got == [want] * len(WINDOWS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(objects, st.sampled_from(SPACES), st.booleans(), st.data())
def test_load_json_of_an_edited_text_through_small_windows_equals_json_loads(obj, ws, ascii, data):
    text = render(obj, ws, ascii)
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 2)))
    text = text[:i] + data.draw(st.sampled_from(EDITS)) + text[j:]
    got, want = windowed_outcomes(text, WINDOWS)
    assert got == [want] * len(WINDOWS)


def test_numbers_cut_by_the_window_edge_are_read_whole():
    # The first window ends at every character in turn: a number cut by it
    # ("1" of "1.5e3") is read again, never taken for the shorter one.
    text = '{"a":1.5e3,"b": -20 ,"c":[1, 2.25],"unit":123,"d":{"e":4.0}}'
    sizes = [(window, 1) for window in range(1, len(text) + 1)]
    got, want = windowed_outcomes(text, sizes, walked=True)
    assert want[0] == "value"
    assert got == [want] * len(text)


@pytest.mark.parametrize("text", [
    '{"mult": [["a", "b"], [1, true, 1.0], ["1", 1], [], [["a"]]], "action": [1, true]}',
    '{"mult": [["ab", "cd"], ["cd", "ab", "ab"]]}',
    '{"elements": ["a", 1], "mult": [["a"]]}',
])
def test_table_rows_with_numbers_or_true_are_kept_as_read(text):
    # handed to json.loads whole, so every table is the lists it gives
    got, want = windowed_outcomes(text, walked=False)
    assert got == [want] * len(CHUNKS + WINDOWS)


def test_order_pairs_with_numbers_or_true_are_kept_as_read():
    text = ('{"mult": [["ab"]], '
            '"leq": [[1, true], [true, 1], ["ab", 1], ["ab", "ab", "ab"], ["ab", "ab"]]}')
    got, want = windowed_outcomes(text, walked=False)
    assert got == [want] * len(CHUNKS + WINDOWS)


def test_tables_and_pairs_of_one_file_code_into_one_label_list():
    text = ('{"leq": [["b", "a"]], "mult": [["a", "b"], ["b", "b"]], '
            '"elements": ["b", "a"], "covers": [], "action": [[], []]}')
    d = loaded(text)
    assert expanded(d) == json.loads(text)
    assert d["leq"].labels is d["mult"].labels is d["covers"].labels is d["action"].labels
    assert d["mult"].codes.tolist() == [[1, 0], [0, 0]]
    assert d["covers"].codes.shape == (0, 0) and d["action"].codes.shape == (2, 0)
    # "elements" first: each label's code is its index
    d = loaded('{"elements": ["b", "a"], "mult": [["a", "b"], ["b", "b"]]}')
    assert d["mult"].codes.tolist() == [[1, 0], [0, 0]]


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
    got, want = windowed_outcomes(MALFORMED[name], WINDOWS)
    assert want[0] == "error"
    assert got == [want] * len(WINDOWS)


@pytest.mark.parametrize("text", ["[1, 2]", '"mult"', " 7 ", "{}", '{"a": {}}', MODULE])
def test_well_formed_files_read_as_json_loads(tmp_path, text):
    path = tmp_path / "ok.json"
    path.write_text(text, encoding="utf-8")
    assert repr(expanded(load_json(str(path)))) == repr(json.loads(text))


@pytest.mark.parametrize("window", (*(w for w, _ in WINDOWS), 1 << 20))
def test_a_crlf_file_reads_as_its_lf_text(tmp_path, window, monkeypatch):
    path = tmp_path / "crlf.json"
    write(path, MODULE.replace("\n", "\r\n"))
    monkeypatch.setattr(serialize, "_WINDOW", window)
    assert repr(expanded(load_json(str(path)))) == repr(json.loads(MODULE))


def test_a_file_shorter_than_one_window_is_walked(tmp_path):
    path = tmp_path / "short.json"
    write(path, MODULE)
    assert len(MODULE) < serialize._WINDOW
    d = load_json(str(path))
    assert repr(expanded(d)) == repr(json.loads(MODULE))
    # label codes: the walk read it, not json.loads
    assert isinstance(d["quantale"]["mult"], LabelCodes)


@pytest.mark.parametrize("tail", ["{}", "x", "\n"])
def test_data_past_the_first_window_is_read(tail):
    # A value followed by whitespace to past the first window's edge, then
    # tail: extra data is json.loads' error, whitespace is no error.
    text = MODULE + " " * serialize._WINDOW + tail
    got, want = windowed_outcomes(text, [(serialize._WINDOW, serialize._CHUNK)])
    assert got == [want]
    assert want[0] == ("value" if tail == "\n" else "error")


@pytest.mark.parametrize("window", (*(w for w, _ in WINDOWS), 1 << 20))
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


@pytest.mark.parametrize("name", ["module", "missing comma between rows"])
def test_a_pipe_is_read_whole(tmp_path, monkeypatch, name):
    # and then walked as a file is, or handed to json.loads
    text = MODULE if name == "module" else MALFORMED[name]
    path = tmp_path / "fifo"
    os.mkfifo(path)
    check_walk(monkeypatch, text is MODULE)
    writer = threading.Thread(target=write, args=(path, text))
    writer.start()
    try:
        got = outcome(load_json, str(path))
    finally:
        writer.join()
    want = outcome(json.loads, text)
    assert got == (want if want[0] == "value" else ("error", "FormatError", f"{path}: {want[2]}"))


# ---------------------------------------------------------------------------
# Label codes: a deterministic memory guard.
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
    # 512 labels and a 512-by-512 array of their codes, where json.loads
    # gives 512 * 512 strings
    text = lin_b3_file.read_text(encoding="utf-8")
    d, plain = load_json(str(lin_b3_file)), json.loads(text)
    assert expanded(d) == plain
    mult = d["mult"]
    assert mult.codes.shape == (512, 512) and mult.labels == plain["elements"]
    assert len({id(lab) for lab in mult.labels}) == 512
    assert len({id(lab) for row in plain["mult"] for lab in row}) == 512 * 512
    # reading the 9.1 MB text whole and decoding it peaks at 18.2 MB
    assert decode_peak(load_json, str(lin_b3_file)) < 10e6
    assert decode_peak(json.loads, text) > 20e6


def test_lin_b3_order_pairs_hold_the_labels_of_the_table(lin_b3_file):
    d = load_json(str(lin_b3_file))
    assert d["leq"].codes.shape == (19_171, 2)
    assert d["leq"].labels is d["mult"].labels and len(d["mult"].labels) == 512


def test_parse_quantale_of_lin_b3_stays_below_6_5_mb(lin_b3_file):
    # Measured at 4.7 MB, reached while load_json reads; with label rows and
    # pair lists the same call peaked at 7.1 MB.
    assert decode_peak(lambda p: parse_quantale(load_json(p)), str(lin_b3_file)) < 6.5e6


def test_a_grown_window_does_not_keep_the_text_it_replaced(lin_b3_file):
    # Measured at 4.7 MB; while the table loop held the old window text
    # through each grow, the read peaked at 5.8 MB.
    assert decode_peak(load_json, str(lin_b3_file)) < 5.2e6


def test_decoding_the_lin_b3_table_copies_no_index_array(lin_b3_file):
    # Measured at 2.35 MB; a take of the int32 codes first copies them into
    # a 2 MB intp array, which peaked at 3.6 MB.
    assert decode_peak(parse_quantale, load_json(str(lin_b3_file))) < 3e6


@pytest.fixture(scope="module")
def lin_sai_lin_b3_file(tmp_path_factory, fq_b3):
    # Lin(sai(Lin(boolean:3))), a 51 MB file: 512 elements whose labels are
    # rows of Lin(boolean:3) labels, so that each one holds "],"
    path = tmp_path_factory.mktemp("lin") / "lin-sai-lin-b3.json"
    q, _ = lin_quantale(sasaki_oml(fq_b3[0]).oml)
    path.write_text(dump_json(quantale_to_dict(q)), encoding="utf-8")
    return path


def test_labels_holding_a_rows_end_are_read_in_small_chunks(lin_sai_lin_b3_file):
    # A chunk is cut only after a label's closing quote: cut at any "],",
    # no chunk of this file scanned until it held most of a table, and the
    # read peaked at 145 MB; it peaks at 5.0 MB.
    path = str(lin_sai_lin_b3_file)
    d = load_json(path)
    assert isinstance(d["mult"], LabelCodes) and all("]," in lab for lab in d["elements"])
    assert decode_peak(lambda p: parse_quantale(load_json(p)), path) < 10e6


def test_module_file_shares_the_labels_of_its_nested_mult_and_its_action(fq_mo2):
    d = loaded(dump_json(module_to_dict(lin_module(fq_mo2[0].base))))
    labels = d["action"].labels
    assert d["quantale"]["mult"].labels is labels is d["lattice"]["leq"].labels
    assert len({id(lab) for lab in labels}) == len(set(labels)) == fq_mo2[0].n + 6


# ---------------------------------------------------------------------------
# The parsers read load_json's value as they read json.loads'.
# ---------------------------------------------------------------------------


def q_dict():
    return quantale_to_dict(foulis_from_lin(catalog("boolean:2"))[0].base)


def reordered(d, *first):
    return {k: d[k] for k in (*first, *d) if k in d}


def edited(d, path, value):
    """d with the member at path, a tuple of keys and indices, set to value."""
    d = json.loads(json.dumps(d))
    *inner, last = path
    target = d
    for k in inner:
        target = target[k]
    target[last] = value
    return d


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


Q = q_dict()
LAB = Q["elements"][3]
QUANTALES = {
    "as emitted": Q,
    "mult before elements": reordered(Q, "mult", "star", "unit", "leq"),
    "leq last": reordered(Q, "unit", "mult", "elements", "star"),
    "covers for leq": reordered({**without(Q, "leq"), "covers": Q["leq"]}, "covers"),
    "list cell": edited(Q, ("mult", 2, 5), ["x"]),
    "dict cell": edited(Q, ("mult", 2, 5), {"x": 1}),
    "int cell": edited(Q, ("mult", 0, 1), 5),
    "null cell": edited(Q, ("mult", 15, 15), None),
    "true cell": edited(Q, ("mult", 1, 0), True),
    "unknown cell": edited(Q, ("mult", 4, 4), "bogus"),
    "unknown cell first, mult first": reordered(edited(Q, ("mult", 0, 0), "bogus"), "mult"),
    "short row": edited(Q, ("mult", 3), Q["mult"][3][:-1]),
    "long row": edited(Q, ("mult", 3), Q["mult"][3] + [LAB]),
    "every row one label longer": edited(Q, ("mult",), [row + [LAB] for row in Q["mult"]]),
    "short row then unknown cell": edited(edited(Q, ("mult", 3), ["x"]), ("mult", 9, 0), "y"),
    "unknown cell then short row": edited(edited(Q, ("mult", 3, 0), "y"), ("mult", 9), ["x"]),
    "int row": edited(Q, ("mult", 3), 5),
    "extra row": edited(Q, ("mult",), Q["mult"] + [Q["mult"][0]]),
    "empty mult": edited(Q, ("mult",), []),
    "mult of empty rows": edited(Q, ("mult",), [[]] * 16),
    "mult an object": edited(Q, ("mult",), {"a": "b"}),
    "mult a string": edited(Q, ("mult",), "ab"),
    "unknown star key": edited(Q, ("star", "zz"), LAB),
    "missing star key": edited(Q, ("star",), without(Q["star"], LAB)),
    "int unit": edited(Q, ("unit",), 5),
    "list unit": edited(Q, ("unit",), ["x"]),
    "unknown unit": edited(Q, ("unit",), "bogus"),
    "list in a pair": edited(Q, ("leq", 0), [["x"], "y"]),
    "unknown pair label": edited(Q, ("leq", 7), [LAB, "y"]),
    "int pair": edited(Q, ("leq", 2), 5),
    "one-label pair": edited(Q, ("leq", 2), [LAB]),
    "three-label pair": edited(Q, ("leq", 2), [LAB, LAB, LAB]),
    "int labels in a pair": edited(Q, ("leq", 2), [1, 2]),
    "every pair of three labels": edited(Q, ("leq",), [[LAB, LAB, LAB]] * 3),
    "empty pairs": edited(Q, ("leq",), [[]]),
    "leq a string": edited(Q, ("leq",), "ab"),
    "no pairs": edited(Q, ("leq",), []),
    "int element": edited(Q, ("elements", 0), 5),
    "sai": {**Q, "sai": {lab: lab for lab in Q["elements"]}},
}
M = module_to_dict(lin_module(foulis_from_lin(catalog("boolean:1"))[0].base))
MODULES = {
    "as emitted": M,
    "action first": reordered(M, "action", "lattice"),
    "unknown action cell": edited(M, ("action", 1, 1), "bogus"),
    "list action cell": edited(M, ("action", 0, 0), ["a"]),
    "short action row": edited(M, ("action", 1), M["action"][1][:-1]),
    "inline quantale with mult first": edited(M, ("quantale",), reordered(M["quantale"], "mult")),
    "inline quantale with an unknown cell": edited(M, ("quantale", "mult", 1, 1), "bogus"),
    "inline lattice with a bad pair": edited(M, ("lattice", "leq", 0), ["x", ["y"]]),
    "inline lattice with covers": edited(
        M, ("lattice",), {"covers": [["0", "1"]], "elements": ["0", "1"]}),
}
O = oml_to_dict(catalog("mo:2"))
OMLS = {
    "as emitted": O,
    "leq first": reordered(O, "leq", "ortho"),
    "unknown pair label": edited(O, ("leq", 3), ["a", "z"]),
    "null in a pair": edited(O, ("leq", 0), [None, "a"]),
    "unknown ortho label": edited(O, ("ortho", "a"), "z"),
}
# maps from mo:2 to boolean:1; "a" is no label of boolean:1
L = {"dom": O, "cod": "boolean:1", "values": {lab: "0" for lab in O["elements"]}}
LINMAPS = {
    "as emitted": L,
    "values first": reordered(L, "values"),
    "values a list": edited(L, ("values",), ["0"] * 6),
    "missing value": edited(L, ("values",), without(L["values"], "a")),
    "unknown dom label": edited(L, ("values", "z"), "0"),
    "unknown cod label": edited(L, ("values", "b"), "a"),
}
MULT = '"mult" must be an n-by-n label table'
# The error of each malformed case, a FormatError unless a type is given;
# quantale cases by name, the others by parser and name.
ERRORS = {
    "list cell": "unknown element ['x']",
    "dict cell": "unknown element {'x': 1}",
    "int cell": "unknown element 5",
    "null cell": "unknown element None",
    "true cell": "unknown element True",
    "unknown cell": "unknown element 'bogus'",
    "unknown cell first, mult first": "unknown element 'bogus'",
    "short row": MULT,
    "long row": MULT,
    "every row one label longer": MULT,
    "short row then unknown cell": MULT,
    "unknown cell then short row": "unknown element 'y'",
    "int row": MULT,
    "extra row": MULT,
    "empty mult": MULT,
    "mult of empty rows": MULT,
    "mult an object": MULT,
    "mult a string": MULT,
    "unknown star key": "unknown element 'zz'",
    "missing star key": f'"star" misses elements [{LAB!r}]',
    "int unit": "unknown element 5",
    "list unit": "unknown element ['x']",
    "unknown unit": "unknown element 'bogus'",
    "list in a pair": "order pair (['x'], 'y') names unknown elements",
    "unknown pair label": f"order pair ({LAB!r}, 'y') names unknown elements",
    "int pair": "order pair 5 is not a pair",
    "one-label pair": f"order pair [{LAB!r}] is not a pair",
    "three-label pair": f"order pair [{LAB!r}, {LAB!r}, {LAB!r}] is not a pair",
    "int labels in a pair": "order pair (1, 2) names unknown elements",
    "every pair of three labels": f"order pair [{LAB!r}, {LAB!r}, {LAB!r}] is not a pair",
    "empty pairs": "order pair [] is not a pair",
    "leq a string": "order relation must be a list of pairs",
    "no pairs": ("NotALattice", f"no join for pair ({Q['elements'][0]!r}, {Q['elements'][1]!r})"),
    "int element": '"elements" must be a list of names',
    "parse_module unknown action cell": "unknown element 'bogus'",
    "parse_module list action cell": "unknown element ['a']",
    "parse_module short action row": '"action" must be a |Q|-by-|A| label table',
    "parse_module inline quantale with an unknown cell": "unknown element 'bogus'",
    "parse_module inline lattice with a bad pair": "order pair ('x', ['y']) names unknown elements",
    "parse_oml unknown pair label": "order pair ('a', 'z') names unknown elements",
    "parse_oml null in a pair": "order pair (None, 'a') names unknown elements",
    "parse_oml unknown ortho label": "unknown element 'z'",
    "parse_linmap values a list": '"values" must be a label dictionary',
    "parse_linmap missing value": '"values" misses elements [\'a\']',
    "parse_linmap unknown dom label": "unknown element 'z'",
    "parse_linmap unknown cod label": "unknown element 'a'",
}
CASES = ([(parse_quantale, name, d) for name, d in QUANTALES.items()]
         + [(parse_module, name, d) for name, d in MODULES.items()]
         + [(parse_oml, name, d) for name, d in OMLS.items()]
         + [(parse_linmap, name, d) for name, d in LINMAPS.items()])


def parsed(parser, d):
    """The parsed structure as canonical text, or its error."""
    from omlq import structure_to_dict

    try:
        return "value", dump_json(structure_to_dict(parser(d)))
    except Exception as e:
        return "error", type(e).__name__, str(e)


@pytest.mark.parametrize("parser, name, d", CASES,
                         ids=[f"{p.__name__}-{name}" for p, name, _ in CASES])
@pytest.mark.parametrize("window", (7, 1 << 20))
def test_parse_of_load_json_equals_parse_of_json_loads(tmp_path, monkeypatch, parser, name, d, window):
    text = json.dumps(d, indent=1)
    path = tmp_path / "f.json"
    write(path, text)
    monkeypatch.setattr(serialize, "_WINDOW", window)
    got, want = parsed(parser, load_json(str(path))), parsed(parser, json.loads(text))
    assert got == want
    error = ERRORS.get(name if parser is parse_quantale else f"{parser.__name__} {name}")
    if error is None:
        assert got[0] == "value"
    else:
        assert got[1:] == (error if isinstance(error, tuple) else ("FormatError", error))


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
