"""Command-line interface.

Exit codes: 0 every requested check passed; 1 a mathematical law is
violated (a witness is reported); 2 usage, parse, or input errors, and
quantales too large for dense tables or lattices too large to build.  The
one nuance is enumeration caps: `lin` reports a blown cap as exit 1 (the
requested enumeration is the result, and it is too large), all other
commands treat it as exit 2.  A step of the enumeration beyond the
desk-scale limit (FrontierTooLarge) is an input too large, exit 2 in `lin`
as well.

Inputs are given as --catalog SPEC (see `omlq catalog`) or --file PATH.
Reports are printed as text by default; --format json emits the full
machine-readable payload and --format dot a Hasse diagram where the
command has one to draw.

Only the catalog and the errors are imported here.  Each command imports
the layers it runs, and JSON output imports serialize, which imports only
the lattice layers, so `lin` and `check-oml` load no quantale layer in
either format.  Every scan runs on the calling thread.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .catalog import catalog, catalog_names
from .errors import (
    AmbiguousSai,
    CapExceeded,
    DomainMismatch,
    FormatError,
    FrontierTooLarge,
    NotALattice,
    NotAPoset,
    NotFoulis,
    ParamOutOfRange,
    StructureViolation,
    TableTooLarge,
    UnknownCatalogEntry,
)
from .selectors import SELECTORS

_MATH_ERRORS = (NotFoulis, AmbiguousSai, StructureViolation)
_INPUT_ERRORS = (
    FormatError,
    NotAPoset,
    NotALattice,
    UnknownCatalogEntry,
    ParamOutOfRange,
    DomainMismatch,
    TableTooLarge,
)


def _need_input(args):
    if args.catalog is not None and args.file is not None:
        raise FormatError("give --catalog or --file, not both")
    if args.catalog is None and args.file is None:
        raise FormatError("an input is required: --catalog SPEC or --file PATH")


def _input_oml(args):
    """The input as an OML, with a subject string for reports."""
    _need_input(args)
    if args.catalog is not None:
        return catalog(args.catalog), args.catalog
    from .serialize import load_json, parse_oml

    return parse_oml(load_json(args.file)), args.file


def _input_foulis(args):
    """The input as a Foulis quantale: catalog entries go through their
    endomorphism quantale; files hold quantale tables, deriving sai when
    the file does not carry one.  derive_sai assumes the quantale and
    involution laws, so a file without sai that fails one is refused
    (exit 2) with the first failed law and its witness."""
    from .foulis import FoulisQuantale, derive_sai, foulis_from_lin
    from .quantale import check_involutive, check_quantale
    from .serialize import load_json, parse_quantale

    _need_input(args)
    if args.catalog is not None:
        return foulis_from_lin(catalog(args.catalog), cap=args.cap)[0], args.catalog
    q = parse_quantale(load_json(args.file))
    if isinstance(q, FoulisQuantale):
        return q, args.file
    for check in (check_quantale, check_involutive):
        report = check(q)
        if not report.passed:
            v = report.violations[0]
            raise FormatError(f"{args.file}: {report.subject} law {v.axiom} fails at "
                              f"({', '.join(v.witness)}); sai is derived only for an "
                              "involutive quantale")
    return FoulisQuantale(q, derive_sai(q)), args.file


def _input_map(args):
    from .serialize import load_json, parse_linmap

    _need_input(args)
    if args.file is None:
        raise FormatError("maps are read from files; use --file PATH")
    return parse_linmap(load_json(args.file), os.path.dirname(args.file) or None)


def _no_dot(args):
    if args.fmt == "dot":
        raise FormatError("this command has no DOT rendering")


def _print_json(obj):
    from .serialize import dump_json

    print(dump_json(obj), end="")


def _report_text(report) -> str:
    lines = [f"{report.subject}: {'PASS' if report.passed else 'FAIL'}"]
    failed = {v.axiom: v.witness for v in report.violations}
    for axiom in report.axioms or [v.axiom for v in report.violations]:
        if axiom in failed:
            lines.append(f"  {axiom}: FAIL at ({', '.join(failed[axiom])})")
        else:
            lines.append(f"  {axiom}: ok")
    return "\n".join(lines) + "\n"


def _emit_reports(args, reports) -> int:
    ok = all(r.passed for r in reports)
    if args.fmt == "json":
        payload = {"passed": ok, "reports": [r.to_dict() for r in reports]}
        _print_json(payload)
    else:
        for r in reports:
            print(_report_text(r), end="")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_oml(args) -> int:
    from .lattice import check_oml

    _no_dot(args)
    oml, subject = _input_oml(args)
    report = check_oml(oml, subject=subject)
    return _emit_reports(args, [report])


def cmd_sasaki(args) -> int:
    from .lattice import sasaki_apply

    _no_dot(args)
    oml, _ = _input_oml(args)
    a = oml.index(args.a)
    if args.y is not None:
        out = oml.label(sasaki_apply(oml, a, oml.index(args.y)))
        if args.fmt == "json":
            _print_json({"result": out})
        else:
            print(out)
        return 0
    values = {oml.label(y): oml.label(sasaki_apply(oml, a, y)) for y in range(oml.n)}
    if args.fmt == "json":
        _print_json({"at": args.a, "values": values})
    else:
        for y in range(oml.n):
            lab = oml.label(y)
            print(f"{lab} -> {values[lab]}")
    return 0


def cmd_lin(args) -> int:
    """The maps are listed from the sorted value rows of lin_values, with
    no LinMap built; --count-only counts the frontier unsorted."""
    from .linmap import lin_count, lin_values

    _no_dot(args)
    dom, _ = _input_oml(args)
    cod = dom
    if args.cod is not None:
        from .serialize import resolve_oml

        cod = resolve_oml(args.cod)
    if args.count_only:
        print(lin_count(dom, cod, cap=args.cap))
        return 0
    import numpy as np

    rows = np.array(cod.labels, dtype=object)[lin_values(dom, cod, cap=args.cap)].tolist()
    if args.fmt == "json":
        _print_json(rows)
    else:
        sys.stdout.write("".join("[" + ",".join(row) + "]\n" for row in rows))
    return 0


def cmd_adjoint(args) -> int:
    from .linmap import dagger, is_linear
    from .serialize import linmap_to_dict

    _no_dot(args)
    f = _input_map(args)
    if not is_linear(f):
        print("input map is not join-preserving; no adjoint exists", file=sys.stderr)
        return 1
    h = dagger(f)
    if args.fmt == "json":
        _print_json(linmap_to_dict(h))
    else:
        for y in range(h.dom.n):
            print(f"{h.dom.label(y)} -> {h.cod.label(h.values[y])}")
    return 0


def cmd_kernel(args) -> int:
    from .linmap import is_linear, kernel

    _no_dot(args)
    f = _input_map(args)
    if not is_linear(f):
        print("input map is not join-preserving; no kernel exists", file=sys.stderr)
        return 1
    kd = kernel(f)
    dom = f.dom
    members = [dom.label(p) for p in kd.sub.members]
    if args.fmt == "json":
        payload = {
            "k": dom.label(kd.k),
            "members": members,
            "embed": {
                kd.sub.oml.label(i): dom.label(v)
                for i, v in enumerate(kd.sub.members)
            },
            "coembed": {
                dom.label(i): kd.sub.oml.label(v)
                for i, v in enumerate(kd.coembed.tolist())
            },
        }
        _print_json(payload)
    else:
        print(f"k = {dom.label(kd.k)}")
        print(f"kernel members: {', '.join(members)}")
    return 0


def cmd_lin_quantale(args) -> int:
    from .quantale import lin_quantale
    from .serialize import quantale_to_dict, to_dot

    oml, subject = _input_oml(args)
    q = lin_quantale(oml, cap=args.cap)[0]
    if args.fmt == "dot":
        print(to_dot(q), end="")
    elif args.fmt == "json":
        _print_json(quantale_to_dict(q))
    else:
        print(f"endomorphism quantale of {subject}: {q.n} elements")
        print(f"unit = {q.label(q.unit)}")
        print(f"zero = {q.label(q.zero)}")
    return 0


def cmd_check_quantale(args) -> int:
    from .quantale import check_involutive, check_quantale, lin_quantale
    from .serialize import load_json, parse_quantale

    _no_dot(args)
    _need_input(args)
    if args.catalog is not None:
        q = lin_quantale(catalog(args.catalog), cap=args.cap)[0]
    else:
        d = load_json(args.file)
        q = parse_quantale(d)
        if "sai" in d:  # a FoulisQuantale; its laws are check-foulis's
            q = q.base
    return _emit_reports(args, [check_quantale(q), check_involutive(q)])


def cmd_check_foulis(args) -> int:
    from .foulis import check_foulis

    _no_dot(args)
    f, _ = _input_foulis(args)
    return _emit_reports(args, [check_foulis(f)])


def cmd_sasaki_lattice(args) -> int:
    from .foulis import sasaki_oml
    from .serialize import oml_to_dict, to_dot

    f, subject = _input_foulis(args)
    sub = sasaki_oml(f)
    if args.fmt == "dot":
        print(to_dot(sub.oml), end="")
    elif args.fmt == "json":
        _print_json(oml_to_dict(sub.oml))
    else:
        print(f"projection lattice of {subject}: {sub.oml.n} elements")
        print("members: " + ", ".join(sub.oml.labels))
    return 0


def cmd_check_module(args) -> int:
    from .qmodule import check_left_module, check_right_two_module
    from .serialize import load_json, parse_module

    _no_dot(args)
    _need_input(args)
    if args.file is not None:
        m = parse_module(load_json(args.file), os.path.dirname(args.file) or None)
        return _emit_reports(args, [check_left_module(m), check_right_two_module(m)])
    from .verify import SELECTOR_REPORTS, VerifyContext

    ctx = VerifyContext(catalog(args.catalog), args.cap)
    return _emit_reports(args, SELECTOR_REPORTS["modules"](ctx))


def cmd_verify(args) -> int:
    # serialize is imported before the run: compiled after it, on top of
    # the run's live tables, it would raise the peak RSS.
    from .serialize import dump_json
    from .verify import run_verify, verify_text

    _no_dot(args)
    oml, subject = _input_oml(args)
    payload, code = run_verify(oml, args.selectors, subject=subject, cap=args.cap)
    if args.fmt == "json":
        print(dump_json(payload), end="")
    else:
        print(verify_text(payload), end="")
    return code


def cmd_emit(args) -> int:
    from .serialize import load_json, parse_structure, structure_to_dict, to_dot

    _need_input(args)
    if args.catalog is not None:
        obj = catalog(args.catalog)
    else:
        obj = parse_structure(
            load_json(args.file), os.path.dirname(args.file) or None
        )
    if args.fmt == "dot":
        print(to_dot(obj), end="")
    else:
        _print_json(structure_to_dict(obj))
    return 0


def cmd_catalog(args) -> int:
    _no_dot(args)
    names = catalog_names()
    if args.fmt == "json":
        entries = []
        for name in names:
            if "(" in name:
                entries.append({"entry": name, "elements": None})
            else:
                entries.append({"entry": name, "elements": catalog(name).n})
        _print_json({"entries": entries})
    else:
        for name in names:
            if "(" in name:
                print(f"{name:28} (combinator)")
            else:
                print(f"{name:28} n={catalog(name).n}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "dot"),
        default=argparse.SUPPRESS,
    )

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--catalog", metavar="SPEC", default=None)
    inputs.add_argument("--file", metavar="PATH", default=None)

    p = argparse.ArgumentParser(
        prog="omlq",
        description="Verification toolkit for finite orthomodular lattices "
        "and their endomorphism quantales.",
    )
    p.add_argument("--cap", type=int, default=None)
    p.add_argument(
        "--format", dest="fmt", choices=("text", "json", "dot"), default="text"
    )

    sub = p.add_subparsers(dest="cmd")

    def add(name, func, parents, help_text, **kw):
        sp = sub.add_parser(name, parents=parents, help=help_text, **kw)
        sp.set_defaults(func=func)
        return sp

    add("check-oml", cmd_check_oml, [common, inputs], "check the OML laws")
    sp = add(
        "sasaki", cmd_sasaki, [common, inputs], "evaluate a Sasaki projection"
    )
    sp.add_argument("a", help="element to project onto")
    sp.add_argument("y", nargs="?", default=None, help="element to project")
    sp = add("lin", cmd_lin, [common, inputs], "enumerate join-preserving maps")
    sp.add_argument("--cod", metavar="SPEC", default=None, help="codomain input")
    sp.add_argument("--count-only", action="store_true")
    add("adjoint", cmd_adjoint, [common, inputs], "compute the adjoint of a map")
    add("kernel", cmd_kernel, [common, inputs], "kernel data of a map")
    add(
        "lin-quantale",
        cmd_lin_quantale,
        [common, inputs],
        "build the endomorphism quantale",
    )
    add(
        "check-quantale",
        cmd_check_quantale,
        [common, inputs],
        "check quantale + involution laws",
    )
    add(
        "check-foulis",
        cmd_check_foulis,
        [common, inputs],
        "check annihilator projection axioms",
    )
    add(
        "sasaki-lattice",
        cmd_sasaki_lattice,
        [common, inputs],
        "reconstruct the projection lattice",
    )
    add(
        "check-module",
        cmd_check_module,
        [common, inputs],
        "check module action laws",
    )
    sp = add("verify", cmd_verify, [common, inputs], "run theorem pipelines")
    sp.add_argument(
        "selectors",
        nargs="+",
        choices=SELECTORS + ("all",),
        metavar="SELECTOR",
        help=f"one of: {', '.join(SELECTORS + ('all',))}",
    )
    add("emit", cmd_emit, [common, inputs], "serialize a structure (JSON or DOT)")
    add("catalog", cmd_catalog, [common], "list catalog entries")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap is not None and args.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if args.cmd == "lin" and not isinstance(e, FrontierTooLarge) else 2
    except _MATH_ERRORS as e:
        print(f"violation: {e}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run():
    """The program: main's exit code as the process's.  The collector's
    objects are frozen first, so the interpreter's teardown leaves the
    reference cycles of the loaded modules to the operating system instead
    of freeing them one by one, about 20 ms of every command.  The
    commands close every file they write before main returns."""
    code = main()
    gc.freeze()
    sys.exit(code)


def __getattr__(name):
    """The package's public names, such as load_json, parse_quantale and
    FoulisQuantale, read through this module on first use."""
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


if __name__ == "__main__":
    run()
