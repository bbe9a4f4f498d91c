"""JSON file formats and DOT emission.

Structures are exchanged as JSON objects distinguished by their keys:

  lattice   {"elements": [...], "leq": [["x","y"], ...]}
  oml       lattice keys plus {"ortho": {"x": "x'", ...}}
  map       {"dom": <oml-or-catalog-or-path>, "cod": ..., "values": {...}}
  quantale  {"elements": [...], "leq": [...], "mult": [[...]],
             "star": {...}, "unit": "e"}
  foulis    quantale keys plus {"sai": {...}}
  module    {"quantale": <inline-or-path>, "lattice": <inline-or-path>,
             "action": [[...]]}

"covers" is accepted in place of "leq"; the reflexive-transitive closure
is always recomputed, so either the covering relation or the full order
may be supplied.  Emission writes elements in index order and the full
strict order under "leq", so parse(emit(x)) reproduces x exactly.

String specifications resolve catalog-first, then as file paths.

load_json walks a file, or a pipe read into memory, through a bounded
window and gives each "mult", "action", "leq" or "covers" array as a
LabelCodes array of label codes.  A file the walk does not read, because
it is malformed, not one object, or has a table that is not rows of
strings of one length, goes whole to json.loads, whose lists the parsers
code through the same label_codes, so both forms go through one decode.

Only the lattice layers are imported here.  A parse function imports the
quantale, Foulis, module or map layer when it builds one of those
structures, and the type dispatch of structure_to_dict and to_dot when
the object is not a lattice.  So JSON output of the lattice commands, and
a quantale file without "sai", load neither the Foulis nor the module
layer.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import re
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .catalog import catalog
from .errors import FormatError, UnknownCatalogEntry
from .lattice import (
    FiniteLattice,
    FiniteOML,
    LabelCodes,
    LabelMemo,
    build_lattice,
    cell_dtype,
    label_codes,
)

if TYPE_CHECKING:
    from .foulis import FoulisQuantale
    from .linmap import LinMap
    from .qmodule import ModuleAction
    from .quantale import FinQuantale


class _Encoded(dict):
    """Each string's JSON text, by json's C encoder, once per string."""

    def __missing__(self, s):
        self[s] = out = json.encoder.encode_basestring_ascii(s)
        return out


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text of json.dumps(obj, sort_keys=True, indent=2), built by
    _indented so that a list of strings, such as a label row, an order
    pair or "elements", is one join of encoded items rather than a pass
    of json's pure-Python indenting encoder per item, and a list of such
    lists, such as a label table, is one pass over its rows."""
    try:
        return _indented(obj, "\n", _Encoded()) + "\n"
    except RecursionError:  # a cycle: json.dumps raises its own error
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _indented(obj, nl, enc) -> str:
    """obj's text in dump_json, where nl is a newline and the indentation
    of obj's line, and enc encodes strings."""
    if isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        try:  # a list of strings; enc raises TypeError on any other item
            body = ("," + inner).join(map(enc.__getitem__, obj))
        except TypeError:
            body = _items(obj, inner, enc)
        return f"[{inner}{body}{nl}]"
    if isinstance(obj, dict) and obj:
        inner = nl + "  "
        body = ("," + inner).join([f"{enc[_key(k)]}: {_indented(v, inner, enc)}"
                                   for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{nl}}}"
    if isinstance(obj, str):
        return enc[obj]
    # a number, true, false, null, an empty list or object, or the
    # TypeError json.dumps raises for what JSON cannot hold
    return json.dumps(obj)


def _items(obj, inner, enc) -> str:
    """The items of a list in _indented, where inner is their newline and
    indentation: one join of the rows' joins when every item is a nonempty
    list of strings, such as the rows of a label table, and _indented of
    each item otherwise."""
    if all(map(isinstance, obj, repeat((list, tuple)))) and all(obj):
        cell = inner + "  "
        try:
            rows = [("," + cell).join(map(enc.__getitem__, row)) for row in obj]
            return f"[{cell}" + f"{inner}],{inner}[{cell}".join(rows) + f"{inner}]"
        except TypeError:
            pass
    return ("," + inner).join([_indented(v, inner, enc) for v in obj])


def _key(k) -> str:
    """A dict key as json.dumps writes it."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


# ---------------------------------------------------------------------------
# emission

def _strict_pairs(lat: FiniteLattice) -> list[list[str]]:
    out = np.argwhere(lat.leq_mat & ~np.eye(lat.n, dtype=bool))
    return [[lat.label(int(i)), lat.label(int(j))] for i, j in out]


def lattice_to_dict(lat: FiniteLattice) -> dict:
    return {"elements": list(lat.labels), "leq": _strict_pairs(lat)}


def oml_to_dict(oml: FiniteOML) -> dict:
    d = lattice_to_dict(oml)
    ortho = oml.ortho.tolist()
    d["ortho"] = {oml.label(i): oml.label(c) for i, c in enumerate(ortho) if i <= c}
    return d


def linmap_to_dict(f: LinMap) -> dict:
    return {
        "dom": oml_to_dict(f.dom),
        "cod": oml_to_dict(f.cod),
        "values": {f.dom.label(x): f.cod.label(f.values[x]) for x in range(f.dom.n)},
    }


def quantale_to_dict(q: FinQuantale) -> dict:
    mult = q.dense_mult()
    star = q.dense_star()
    return {
        "elements": list(q.carrier.labels),
        "leq": _strict_pairs(q.carrier),
        "mult": [[q.label(int(v)) for v in row] for row in mult],
        "star": {q.label(i): q.label(int(star[i])) for i in range(q.n)},
        "unit": q.label(q.unit),
    }


def foulis_to_dict(f: FoulisQuantale) -> dict:
    d = quantale_to_dict(f.base)
    d["sai"] = {f.label(i): f.label(int(f.sai[i])) for i in range(f.n)}
    return d


def module_to_dict(m: ModuleAction) -> dict:
    return {
        "quantale": quantale_to_dict(m.quantale),
        "lattice": lattice_to_dict(m.lattice),
        "action": [[m.lattice.label(int(v)) for v in row] for row in m.table],
    }


def structure_to_dict(obj) -> dict:
    if isinstance(obj, FiniteOML):
        return oml_to_dict(obj)
    if isinstance(obj, FiniteLattice):
        return lattice_to_dict(obj)
    from .foulis import FoulisQuantale
    from .linmap import LinMap
    from .qmodule import ModuleAction
    from .quantale import FinQuantale

    if isinstance(obj, FoulisQuantale):
        return foulis_to_dict(obj)
    if isinstance(obj, FinQuantale):
        return quantale_to_dict(obj)
    if isinstance(obj, ModuleAction):
        return module_to_dict(obj)
    if isinstance(obj, LinMap):
        return linmap_to_dict(obj)
    raise FormatError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# parsing

def _order_pairs(d: dict):
    if "leq" in d and "covers" in d:
        raise FormatError('give either "leq" or "covers", not both')
    if "leq" in d:
        pairs = d["leq"]
    elif "covers" in d:
        pairs = d["covers"]
    else:
        raise FormatError('missing "leq" (or "covers") relation')
    if not isinstance(pairs, (list, LabelCodes)):
        raise FormatError("order relation must be a list of pairs")
    return pairs


def parse_lattice(d: dict) -> FiniteLattice:
    if not isinstance(d, dict):
        raise FormatError("expected a JSON object")
    elements = d.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise FormatError('"elements" must be a list of names')
    return build_lattice(elements, _order_pairs(d))


def parse_oml(d: dict) -> FiniteOML:
    lat = parse_lattice(d)
    ortho = d.get("ortho")
    if not isinstance(ortho, dict):
        raise FormatError('missing "ortho" complement map')
    return FiniteOML(lat, ortho)


def parse_oml_or_lattice(d: dict):
    return parse_oml(d) if "ortho" in d else parse_lattice(d)


def _label_array(lat, mapping, what, cod=None) -> np.ndarray:
    """mapping, a dictionary from each label of lat to a label of cod (by
    default lat), as the int32 array of cod's indices."""
    cod = lat if cod is None else cod
    if not isinstance(mapping, dict):
        raise FormatError(f'"{what}" must be a label dictionary')
    out = np.empty(lat.n, dtype=np.int32)
    seen = [False] * lat.n
    for x, y in mapping.items():
        i = lat.index(x)
        out[i] = cod.index(y)
        seen[i] = True
    if not all(seen):
        missing = [lat.label(i) for i, s in enumerate(seen) if not s]
        raise FormatError(f'"{what}" misses elements {missing!r}')
    return out


def _label_table(lat, table, height, message) -> np.ndarray:
    """A height-by-lat.n table of labels as indices of cell_dtype(lat.n).
    table is a LabelCodes array from load_json or rows of labels, which
    label_codes codes; the codes take one lookup per label and one gather.
    Any other table, or one naming an unknown label, raises the error of
    its first bad row or label in row-major order."""
    try:
        codes = label_codes([table]) if isinstance(table, list) else table
    except TypeError:
        codes = None
    if isinstance(codes, LabelCodes) and codes.codes.shape == (height, lat.n):
        out = codes.indices({lab: i for i, lab in enumerate(lat.labels)}, cell_dtype(lat.n))
        if out.min() >= 0:
            return out
    rows = table.tolist() if isinstance(table, LabelCodes) else table
    if not isinstance(rows, list) or len(rows) != height:
        raise FormatError(message)
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != lat.n:
            raise FormatError(message)
        for lab in row:
            lat.index(lab)


def parse_quantale(d: dict):
    """A quantale table file; returns FoulisQuantale when "sai" is present."""
    from .quantale import FinQuantale

    lat = parse_lattice(d)
    mult = _label_table(lat, d.get("mult"), lat.n,
                        '"mult" must be an n-by-n label table')
    star = _label_array(lat, d.get("star"), "star")
    if "unit" not in d:
        raise FormatError('missing "unit"')
    unit = lat.index(d["unit"])
    base = FinQuantale(lat, mult, star, unit)
    if "sai" in d:
        from .foulis import FoulisQuantale

        return FoulisQuantale(base, _label_array(lat, d["sai"], "sai"))
    return base


def parse_module(d: dict, base_dir=None) -> ModuleAction:
    if not isinstance(d, dict) or "quantale" not in d or "lattice" not in d:
        raise FormatError('module files need "quantale", "lattice", "action"')
    from .foulis import FoulisQuantale
    from .qmodule import ModuleAction

    q = resolve_quantale(d["quantale"], base_dir)
    if isinstance(q, FoulisQuantale):
        q = q.base
    lat = resolve_lattice(d["lattice"], base_dir)
    table = _label_table(lat, d.get("action"), q.n,
                         '"action" must be a |Q|-by-|A| label table')
    return ModuleAction(q, lat, table)


def parse_structure(d: dict, base_dir=None):
    """Dispatch a JSON object to its structure by discriminating keys."""
    if not isinstance(d, dict):
        raise FormatError("expected a JSON object")
    if "action" in d:
        return parse_module(d, base_dir)
    if "mult" in d:
        return parse_quantale(d)
    if "values" in d:
        return parse_linmap(d, base_dir)
    if "ortho" in d:
        return parse_oml(d)
    if "elements" in d:
        return parse_lattice(d)
    raise FormatError("object matches no known structure format")


def parse_linmap(d: dict, base_dir=None) -> LinMap:
    if not isinstance(d, dict) or "dom" not in d:
        raise FormatError('map files need "dom" and "values"')
    from .linmap import LinMap

    dom = resolve_oml(d["dom"], base_dir)
    cod = resolve_oml(d["cod"], base_dir) if "cod" in d else dom
    return LinMap(dom, cod, _label_array(dom, d.get("values"), "values", cod))


# ---------------------------------------------------------------------------
# reading files

_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match
_WINDOW = 1 << 20  # bytes load_json reads into its window at a time
_TABLES = ("mult", "action", "leq", "covers")  # label rows, coded as read
_CHUNK = 1 << 16  # characters of rows _read_table scans at once, at least
_CUT = re.compile(r'"[ \t\n\r]*(\])[ \t\n\r]*,')  # a label's close, its row's end, a comma


class _Window:
    """The part of a text not yet walked past: text[i:] for the walk's
    index i.  It reads on from a binary file handle in chunks of bytes,
    each at least as long as the part it keeps, and decodes them as a
    text-mode handle does, with universal newlines."""

    def __init__(self, fh):
        self.text, self.fh = "", fh
        utf8 = codecs.getincrementaldecoder("utf-8")()
        self.decode = io.IncrementalNewlineDecoder(utf8, translate=True).decode

    def grow(self, i) -> bool:
        """Drop text[:i] and read on, so that i becomes 0; False, with
        nothing dropped, once the text is read to its end."""
        if self.fh is None:
            return False
        tail, self.text = self.text[i:], ""
        size = max(_WINDOW, len(tail))
        data = self.fh.read(size)
        if len(data) < size:  # a file reads short only at its end
            self.fh = None
        self.text = tail + self.decode(data, final=self.fh is None)
        return True


def _at(w, i) -> tuple[str, int]:
    """The first character at or after i that is not whitespace, "" at the
    end of the text, and its index."""
    while True:
        i = _skip(w.text, i).end()
        if i < len(w.text) or not w.grow(i):
            return w.text[i:i + 1], i
        i = 0


def _next(w, i, *allowed) -> tuple[str, int]:
    """_at(w, i), whose character must be one of allowed."""
    c, i = _at(w, i)
    if c not in allowed:
        raise ValueError(c)
    return c, i


def _value(w, i, *allowed) -> tuple[object, str, int]:
    """The value at i by one scan_once call and _next past it.  The value
    counts as read once the window shows the character after it, so one
    cut by the window's edge, a number among them, is read again from a
    window grown to twice its length."""
    while True:
        try:
            value, j = _scan(w.text, i)
            j = _skip(w.text, j).end()
            c = w.text[j:j + 1]
            if c in allowed:
                return value, c, j
        except (ValueError, StopIteration):
            pass
        if not w.grow(i):
            raise ValueError(i)
        i = 0


def _read_object(w, i, memo) -> tuple[dict, int]:
    """The object at w.text[i] == "{" and the index past it.  Member
    objects are walked in turn, a "mult", "action", "leq" or "covers"
    array is read by _read_table, any other value by _value, and an
    "elements" value is numbered in memo, so that tables read after it
    code each element by its index; label_codes raises TypeError when it
    is not a list of strings."""
    out = {}
    c, i = _next(w, i + 1, '"', "}")
    while c == '"':
        key, _, i = _value(w, i, ":")
        c, i = _at(w, i + 1)
        if c == "{":
            out[key], i = _read_object(w, i, memo)
            c, i = _next(w, i, ",", "}")
        elif c == "[" and key in _TABLES:
            out[key], i = _read_table(w, i, memo)
            c, i = _next(w, i, ",", "}")
        else:
            out[key], c, i = _value(w, i, ",", "}")
            if key == "elements":
                label_codes([[out[key]]], memo)
        if c == ",":
            c, i = _next(w, i + 1, '"')
    return out, i + 1


def _read_table(w, i, memo) -> tuple[LabelCodes, int]:
    """The array at w.text[i] == "[" as label_codes codes it, numbered by
    memo, and the index past it.  Rows are read in chunks, each coded
    before the next is read.  A chunk is the text from a row's start to
    the first '"],' at least size characters on, scanned as an array by
    one scan_once call.  A row of strings ends with its last label's
    closing quote, and inside a label '"],' starts only at an escaped
    quote or at the label's opening quote, so a scan that reads all of the
    chunk has read whole rows, and one that stops early has read the rows
    up to the table's closing bracket.  size is _CHUNK, doubled for a
    chunk that does not scan, as when a label holds '\\"],' or a row is
    longer than twice the size; a chunk that holds the rest of the text
    and does not scan raises ValueError."""
    end = [i + 1]

    def chunks():
        c, i = _at(w, end[0])
        size = _CHUNK
        while c != "]":
            while len(w.text) - i < 2 * size and w.grow(i):
                i = 0
            # positions only: the match holds the window's text, which would
            # then stay alive through the next grow beside the new text
            m = _CUT.search(w.text, i + size)
            k, j = (m.end(1), m.end()) if m else (min(len(w.text), i + 2 * size), 0)
            del m
            try:
                rows, n = _scan(f"[{w.text[i:k]}]", 0)
            except (ValueError, StopIteration):
                n = 0
            if j and n == k - i + 2:  # whole rows, then a comma
                c, i = ",", _at(w, j)[1]
            elif 2 < n < k - i + 2:  # the rows up to the closing bracket
                c, i = "]", i + n - 2
            elif k < len(w.text) or w.fh is not None:
                size *= 2
                continue
            else:
                raise ValueError(i)
            yield rows
            size = _CHUNK
        end[0] = i + 1

    return label_codes(chunks(), memo), end[0]


def _walk(w):
    """The object the text of w holds, walked by _read_object; None when
    the text is not one object, or has a table or "elements" that
    label_codes does not code."""
    try:
        _, i = _next(w, 0, "{")
        out, i = _read_object(w, i, LabelMemo())
        if _at(w, i)[0] == "":
            return out
    except (ValueError, StopIteration, TypeError, RecursionError):
        pass
    return None


def load_json(path: str) -> dict:
    """json.loads of the file's text, with each label table and order
    relation a LabelCodes array.  The file is walked by _walk through a
    window of about _WINDOW bytes, so the whole file is never held at
    once; a pipe is first read into memory, so that it too can be read
    again.  A file the walk does not read, or one that is not UTF-8, is
    read again whole in text mode, so its value or its error is that of
    json.loads or of the whole decode."""
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                fh = io.BytesIO(fh.read())
            out = _walk(_Window(fh))
            if out is None:
                fh.seek(0)
                out = json.loads(io.TextIOWrapper(fh, encoding="utf-8").read())
            return out
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# resolution of string/inline specifications

def _resolve(spec, base_dir, want, parser):
    if isinstance(spec, dict):
        return parser(spec)
    if not isinstance(spec, str):
        raise FormatError(f"expected an inline object or a string, got {spec!r}")
    if want == "oml":
        try:
            return catalog(spec)
        except UnknownCatalogEntry:
            pass
    path = spec if base_dir is None else os.path.join(base_dir, spec)
    try:
        d = load_json(path)
    except FileNotFoundError:
        raise FormatError(
            f"{spec!r} is neither a catalog entry nor a readable file"
        ) from None
    return parser(d)


def resolve_oml(spec, base_dir=None) -> FiniteOML:
    out = _resolve(spec, base_dir, "oml", parse_oml)
    if not isinstance(out, FiniteOML):
        raise FormatError("structure has no complement map")
    return out


def resolve_lattice(spec, base_dir=None):
    return _resolve(spec, base_dir, "oml", parse_oml_or_lattice)


def resolve_quantale(spec, base_dir=None):
    return _resolve(spec, base_dir, "quantale", parse_quantale)


def resolve_structure(spec, base_dir=None):
    """Catalog-first, then file; inline objects parse directly."""
    return _resolve(spec, base_dir, "oml", parse_structure)


# ---------------------------------------------------------------------------
# DOT emission

def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(obj) -> str:
    """Hasse diagram: covering edges upward, complement pairs dashed.

    Complement links never constrain the layout; a same-rank group is
    added for pairs the order leaves incomparable.
    """
    lat = obj
    if not isinstance(obj, FiniteLattice):
        from .foulis import FoulisQuantale
        from .linmap import LinMap
        from .qmodule import ModuleAction
        from .quantale import FinQuantale

        if isinstance(obj, FoulisQuantale):
            obj = obj.base
        if isinstance(obj, FinQuantale):
            obj = obj.carrier
        if isinstance(obj, LinMap):
            obj = obj.dom
        # a module's lattice is drawn without complements, as
        # module_to_dict writes it
        lat = obj.lattice if isinstance(obj, ModuleAction) else obj
    if not isinstance(lat, FiniteLattice):
        raise FormatError(f"cannot draw {type(obj).__name__}")
    ortho = obj.ortho if isinstance(obj, FiniteOML) else None

    def q(i):
        return f'"{_dot_escape(lat.label(i))}"'

    lines = ["digraph {", "  rankdir=BT;"]
    for i in range(lat.n):
        lines.append(f"  {q(i)};")
    for i, j in lat.covers():
        lines.append(f"  {q(i)} -> {q(j)};")
    if ortho is not None:
        pairs = [(i, int(ortho[i])) for i in range(lat.n) if i < ortho[i]]
        if pairs:
            lines.append("  edge [style=dashed, constraint=false, dir=none];")
            for i, j in pairs:
                lines.append(f"  {q(i)} -> {q(j)};")
            for i, j in pairs:
                if not lat.leq_mat[i, j] and not lat.leq_mat[j, i]:
                    lines.append(f"  {{rank=same; {q(i)}; {q(j)};}}")
    lines.append("}")
    return "\n".join(lines) + "\n"
