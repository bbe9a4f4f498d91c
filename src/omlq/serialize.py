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

Only the lattice layers are imported here.  A parse function imports the
quantale, Foulis, module or map layer when it builds one of those
structures, and the type dispatch of structure_to_dict and to_dot when
the object is not a lattice.  So JSON output of the lattice commands, and
a quantale file without "sai", load neither the Foulis nor the module
layer.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

import numpy as np

from .catalog import catalog
from .errors import FormatError, UnknownCatalogEntry
from .lattice import FiniteLattice, FiniteOML, build_lattice, cell_dtype

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
    of json's pure-Python indenting encoder per item."""
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
            body = ("," + inner).join([_indented(v, inner, enc) for v in obj])
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
    d["ortho"] = {
        oml.label(i): oml.label(oml.orthoc(i))
        for i in range(oml.n)
        if i <= oml.orthoc(i)
    }
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
    if not isinstance(pairs, list):
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


def _label_array(lat, mapping, what) -> np.ndarray:
    if not isinstance(mapping, dict):
        raise FormatError(f'"{what}" must be a label dictionary')
    out = np.empty(lat.n, dtype=np.int32)
    seen = [False] * lat.n
    for x, y in mapping.items():
        i = lat.index(x)
        out[i] = lat.index(y)
        seen[i] = True
    if not all(seen):
        missing = [lat.label(i) for i, s in enumerate(seen) if not s]
        raise FormatError(f'"{what}" misses elements {missing!r}')
    return out


def _label_table(lat, rows, height, message) -> np.ndarray:
    """A height-by-lat.n table of labels as indices of cell_dtype(lat.n),
    one dict lookup per cell.  A row with an unknown label is decoded again
    through lat.index, which raises its error for the first such label."""
    if not isinstance(rows, list) or len(rows) != height:
        raise FormatError(message)
    index = {lab: i for i, lab in enumerate(lat.labels)}
    cell = cell_dtype(lat.n)
    out = np.empty((height, lat.n), dtype=cell)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != lat.n:
            raise FormatError(message)
        try:
            out[i] = np.fromiter(map(index.__getitem__, row), cell, lat.n)
        except (KeyError, TypeError):
            out[i] = [lat.index(lab) for lab in row]
    return out


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
    values_map = d.get("values")
    if not isinstance(values_map, dict):
        raise FormatError('"values" must be a label dictionary')
    vals = [None] * dom.n
    for x, y in values_map.items():
        vals[dom.index(x)] = cod.index(y)
    missing = [dom.label(i) for i, v in enumerate(vals) if v is None]
    if missing:
        raise FormatError(f'"values" misses elements {missing!r}')
    return LinMap(dom, cod, vals)


# ---------------------------------------------------------------------------
# reading files

_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match
_WINDOW = 1 << 20  # bytes load_json reads into its window at a time
_TABLES = ("mult", "action")  # arrays of label rows, read row by row
_PAIRS = ("leq", "covers")  # arrays of label pairs, read whole


class _Window:
    """The part of a text not yet walked past: text[i:] for the walk's
    index i.  A window over a binary file handle reads on in chunks of
    bytes, each at least as long as the part it keeps, and decodes them as
    a text-mode handle does, with universal newlines; one over a whole
    text has read all there is."""

    def __init__(self, text, fh=None):
        self.text, self.fh = text, fh
        if fh is not None:
            import codecs
            import io

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


def _value(w, i, ahead, *allowed) -> tuple[object, str, int, int]:
    """The value at i by one scan_once call, _next past it, and the
    length from i to that character.  The window first grows when fewer
    than ahead characters are left in it, so a value shorter than that is
    scanned once.  The value counts as read once the window shows the
    character after it, so one cut by the window's edge, a number among
    them, is read again from a window grown to twice its length."""
    if len(w.text) - i < ahead and w.grow(i):
        i = 0
    while True:
        try:
            value, j = _scan(w.text, i)
            j = _skip(w.text, j).end()
            c = w.text[j:j + 1]
            if c in allowed:
                return value, c, j, j - i
        except (ValueError, StopIteration):
            pass
        if not w.grow(i):
            raise ValueError(i)
        i = 0


def _shared(row, memo):
    """row, rebuilt from memo when it is a list of strings only, so equal
    labels are one object; other rows stay as read, since 1 == True must
    not merge."""
    if type(row) is list and set(map(type, row)) == {str}:
        return list(map(memo.setdefault, row, row))
    return row


def _share_pairs(pairs, memo) -> None:
    """Each pair of two strings in pairs takes its labels from memo, in
    place."""
    sd = memo.setdefault
    for p in pairs:
        if type(p) is list and len(p) == 2 and type(p[0]) is str and type(p[1]) is str:
            x, y = p
            p[0], p[1] = sd(x, x), sd(y, y)


def _read_object(w, i, memo) -> tuple[dict, int]:
    """The object at w.text[i] == "{" and the index past it.  Member
    objects are walked in turn, a "mult" or "action" array is read by
    _read_table, any other value by _value with a window of _WINDOW
    characters ahead, and the pairs of a "leq" or "covers" array take
    their labels from memo."""
    out = {}
    c, i = _next(w, i + 1, '"', "}")
    while c == '"':
        key, _, i, _ = _value(w, i, _WINDOW, ":")
        c, i = _at(w, i + 1)
        if c == "{":
            out[key], i = _read_object(w, i, memo)
            c, i = _next(w, i, ",", "}")
        elif c == "[" and key in _TABLES:
            out[key], i = _read_table(w, i, memo)
            c, i = _next(w, i, ",", "}")
        else:
            out[key], c, i, _ = _value(w, i, _WINDOW, ",", "}")
            if key in _PAIRS and type(out[key]) is list:
                _share_pairs(out[key], memo)
        if c == ",":
            c, i = _next(w, i + 1, '"')
    return out, i + 1


def _read_table(w, i, memo) -> tuple[list, int]:
    """The array at w.text[i] == "[", one _value call per row, each row
    taken through _shared.  A row asks the window for the length of the
    row before, so rows of one length are scanned once each; one cut by
    the window's edge would cost a second scan and an error whose line
    number counts the newlines of the window."""
    rows, last = [], 0
    c, i = _at(w, i + 1)
    if c == "]":
        return rows, i + 1
    while True:
        row, c, i, last = _value(w, i, last, ",", "]")
        rows.append(_shared(row, memo))
        if c == "]":
            return rows, i + 1
        _, i = _at(w, i + 1)


def _walk(w):
    """The object the text of w holds, walked by _read_object; None when
    the text is not one object the walk reads."""
    try:
        _, i = _next(w, 0, "{")
        out, i = _read_object(w, i, {})
        if _at(w, i)[0] == "":
            return out
    except (ValueError, StopIteration, RecursionError):
        pass
    return None


def _decode(text: str):
    """json.loads(text), with an object walked by _walk, so a label table
    and the order pairs hold one string per distinct label.  Any text the
    walk does not expect goes to json.loads, which gives the value or the
    error."""
    out = _walk(_Window(text))
    return json.loads(text) if out is None else out


def load_json(path: str) -> dict:
    """_decode of the file's text, walked through a window of about
    _WINDOW bytes, so the whole file is never held at once.  A file the
    walk does not expect, or one that is not UTF-8, is read again whole in
    text mode, so its value or its error is that of json.loads or of the
    whole decode; a pipe is read whole at once."""
    from io import TextIOWrapper

    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                return _decode(TextIOWrapper(fh, encoding="utf-8").read())
            out = _walk(_Window("", fh))
            if out is None:
                fh.seek(0)
                out = json.loads(TextIOWrapper(fh, encoding="utf-8").read())
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
                if not lat.le(i, j) and not lat.le(j, i):
                    lines.append(f"  {{rank=same; {q(i)}; {q(j)};}}")
    lines.append("}")
    return "\n".join(lines) + "\n"
