"""Command-line interface: subcommands, formats, inputs, and exit codes.

Exit code contract: 0 success, 1 a law or structural requirement failed
on well-formed input, 2 unusable input or usage error.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from omlq import (
    catalog,
    dump_json,
    lin_module,
    module_to_dict,
    oml_to_dict,
    parse_oml,
    parse_quantale,
)
from omlq.cli import main
from omlq.serialize import foulis_to_dict, linmap_to_dict, quantale_to_dict

from conftest import make_nilpotent_chain_quantale
from test_quantale import check_quantale_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check-oml
# ---------------------------------------------------------------------------


def test_check_oml_pass(capsys):
    code, out, _ = run(capsys, "check-oml", "--catalog", "boolean:3")
    assert code == 0
    assert "PASS" in out or "ok" in out


def test_check_oml_benzene_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check-oml", "--catalog", "benzene")
    assert code == 1
    assert "orthomodular" in out
    assert "x" in out and "y'" in out


def test_check_oml_json(capsys):
    code, out, _ = run(capsys, "check-oml", "--catalog", "benzene",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    report = payload["reports"][0]
    assert report["axioms"]["orthomodular"]["witness"] == ["x", "y'"]


def test_check_oml_file_input(capsys, tmp_path):
    p = tmp_path / "b2.json"
    p.write_text(dump_json(oml_to_dict(catalog("boolean:2"))))
    code, out, _ = run(capsys, "check-oml", "--file", str(p))
    assert code == 0


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "check-oml")
    assert code == 2
    assert "error" in err


def test_both_inputs_is_usage_error(capsys, tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{}")
    code, _, err = run(capsys, "check-oml", "--catalog", "boolean:2",
                       "--file", str(p))
    assert code == 2


def test_unknown_catalog_entry(capsys):
    code, _, err = run(capsys, "check-oml", "--catalog", "galaxy")
    assert code == 2
    assert "galaxy" in err


def test_malformed_json_file(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    code, _, err = run(capsys, "check-oml", "--file", str(p))
    assert code == 2


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check-oml", "--file", str(tmp_path / "no.json"))
    assert code == 2


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_bad_cap_value(capsys):
    code, _, err = run(capsys, "lin", "--catalog", "boolean:1", "--cap", "0")
    assert code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_usage_error(capsys, workers):
    # --workers is no option at all, so any count is refused before a run.
    for argv in (["lin", "--catalog", "boolean:1"], ["verify", "--catalog", "boolean:1", "all"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", workers])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --workers" in err


@pytest.mark.parametrize("argv", [
    ["--workers", "2", "verify", "--catalog", "mo:2", "all"],
    ["verify", "--catalog", "mo:2", "all", "--workers", "2"],
])
def test_workers_is_an_unknown_option(capsys, argv):
    # Every scan runs on the calling thread; no option picks a thread count.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--regen-goldens", "lin", "--catalog", "boolean:2"],
    ["lin", "--catalog", "boolean:2", "--regen-goldens"],
])
def test_regen_goldens_is_an_unknown_option(capsys, monkeypatch, tmp_path, argv):
    # Lin counts are checked against oracles in the tests; the package ships
    # no count file, and no option rewrites one.
    import omlq

    package = Path(omlq.__file__).parent

    def files():
        paths = (p for p in package.rglob("*") if "__pycache__" not in p.parts)
        return {p: p.stat().st_mtime_ns for p in paths}

    before = files()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --regen-goldens" in captured.err
    assert files() == before
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# sasaki
# ---------------------------------------------------------------------------


def test_sasaki_single_value(capsys):
    code, out, _ = run(capsys, "sasaki", "--catalog", "mo:2", "a", "b")
    assert code == 0
    assert out.strip() == "a"


def test_sasaki_table(capsys):
    code, out, _ = run(capsys, "sasaki", "--catalog", "mo:2", "a")
    assert code == 0
    lines = dict(
        l.split(" -> ") for l in out.strip().splitlines()
    )
    assert lines == {"0": "0", "a": "a", "a'": "0", "b": "a", "b'": "a", "1": "a"}


def test_sasaki_json(capsys):
    code, out, _ = run(capsys, "sasaki", "--catalog", "mo:2", "a", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["at"] == "a"
    assert payload["values"]["b"] == "a"


def test_sasaki_unknown_element(capsys):
    code, _, err = run(capsys, "sasaki", "--catalog", "mo:2", "q")
    assert code == 2


# ---------------------------------------------------------------------------
# lin
# ---------------------------------------------------------------------------


def test_lin_count_only(capsys):
    for entry, expected in (("boolean:1", 2), ("boolean:2", 16), ("mo:2", 234)):
        code, out, _ = run(capsys, "lin", "--catalog", entry, "--count-only")
        assert code == 0
        assert out.strip() == str(expected)


def test_lin_text_lists_vectors(capsys):
    code, out, _ = run(capsys, "lin", "--catalog", "boolean:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0] == "[0,0,0,0]"
    assert lines[-1] == "[0,1,1,1]" or lines == sorted(lines)


def test_lin_json(capsys):
    code, out, _ = run(capsys, "lin", "--catalog", "boolean:1", "--format", "json")
    assert code == 0
    arr = json.loads(out)
    assert len(arr) == 2


def test_lin_cod(capsys):
    code, out, _ = run(capsys, "lin", "--catalog", "boolean:1", "--cod", "mo:1",
                       "--count-only")
    assert code == 0
    assert out.strip() == "4"


def test_lin_cod_reads_an_oml_file(capsys, tmp_path):
    p = tmp_path / "mo1.json"
    p.write_text(dump_json(oml_to_dict(catalog("mo:1"))))
    code, out, _ = run(capsys, "lin", "--catalog", "boolean:1", "--cod", str(p),
                       "--count-only")
    assert (code, out) == (0, "4\n")


def test_lin_cod_missing_path_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "lin", "--catalog", "boolean:1", "--cod", missing)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "absent.json" in err


def test_lin_cap_exceeded_is_a_math_outcome(capsys):
    code, _, err = run(capsys, "lin", "--catalog", "mo:2", "--cap", "100")
    assert code == 1
    assert "cap" in err


def test_lin_counts_mo4_under_a_raised_cap(capsys):
    # 1,441,810 maps: past the default cap, within the enumerator's bound
    code, out, _ = run(capsys, "lin", "--catalog", "mo:4", "--count-only", "--cap", "2000000")
    assert (code, out) == (0, "1441810\n")
    code, out, err = run(capsys, "lin", "--catalog", "mo:4", "--count-only")
    assert (code, out) == (1, "")
    assert err == "error: enumeration exceeds cap 100000: 1441810 join-preserving maps\n"


@pytest.mark.parametrize("argv", [["boolean:2"], ["mo:2"], ["benzene"],
                                  ["boolean:2", "--cod", "mo:2"]])
def test_lin_listing_matches_the_map_rendering(capsys, argv):
    from omlq import LinMap, lin_values, vector_label

    dom = catalog(argv[0])
    cod = catalog(argv[2]) if len(argv) > 1 else dom
    maps = [LinMap(dom, cod, row) for row in lin_values(dom, cod)]
    code, out, _ = run(capsys, "lin", "--catalog", *argv, "--format", "json")
    assert (code, out) == (0, dump_json([[cod.labels[v] for v in f.values] for f in maps]))
    code, out, _ = run(capsys, "lin", "--catalog", *argv)
    assert (code, out) == (0, "".join(vector_label(f) + "\n" for f in maps))


def test_lin_step_refusal_is_an_input_error(capsys, monkeypatch):
    # Desk scale, not a count: a frontier step beyond BRUTEFORCE_LIMIT exits
    # 2, where a count beyond the cap exits 1.
    import omlq.linmap

    monkeypatch.setattr(omlq.linmap, "BRUTEFORCE_LIMIT", 63)
    code, out, err = run(capsys, "lin", "--catalog", "mo:3", "--count-only")
    assert (code, out) == (2, "")
    assert err == ("error: enumeration exceeds cap 63: step 2 of 6 has 64 candidate rows, "
                   "beyond BRUTEFORCE_LIMIT\n")


def test_lin_has_no_dot_format(capsys):
    code, _, err = run(capsys, "lin", "--catalog", "boolean:1", "--format", "dot")
    assert code == 2


# ---------------------------------------------------------------------------
# adjoint and kernel
# ---------------------------------------------------------------------------


@pytest.fixture()
def proj_map_file(tmp_path):
    p = tmp_path / "proj.json"
    p.write_text(dump_json(
        {"dom": "boolean:2", "values": {"0": "0", "a": "a", "b": "0", "1": "a"}}
    ))
    return str(p)


@pytest.fixture()
def non_linear_map_file(tmp_path):
    p = tmp_path / "bad_map.json"
    p.write_text(dump_json(
        {"dom": "boolean:2", "values": {"0": "a", "a": "a", "b": "0", "1": "a"}}
    ))
    return str(p)


def test_adjoint_of_projection_is_itself(capsys, proj_map_file):
    code, out, _ = run(capsys, "adjoint", "--file", proj_map_file)
    assert code == 0
    values = dict(l.split(" -> ") for l in out.strip().splitlines())
    assert values == {"0": "0", "a": "a", "b": "0", "1": "a"}


def test_adjoint_json_round_trip(capsys, proj_map_file):
    code, out, _ = run(capsys, "adjoint", "--file", proj_map_file,
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["values"] == {"0": "0", "a": "a", "b": "0", "1": "a"}


@pytest.mark.parametrize("cmd", ["adjoint", "kernel"])
@pytest.mark.parametrize("content", ['"random dom"', '["dom"]', "3"])
def test_map_file_that_is_no_json_object_is_an_input_error(capsys, tmp_path, cmd, content):
    p = tmp_path / "map.json"
    p.write_text(content)
    assert run(capsys, cmd, "--file", str(p)) == (
        2, "", 'error: map files need "dom" and "values"\n')


def test_adjoint_rejects_non_linear_table(capsys, non_linear_map_file):
    code, _, err = run(capsys, "adjoint", "--file", non_linear_map_file)
    assert code == 1
    assert "join-preserving" in err


def test_kernel_of_projection(capsys, proj_map_file):
    code, out, _ = run(capsys, "kernel", "--file", proj_map_file)
    assert code == 0
    assert "k = b" in out
    assert "0, b" in out


def test_kernel_json(capsys, proj_map_file):
    code, out, _ = run(capsys, "kernel", "--file", proj_map_file,
                       "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["k"] == "b"
    assert d["members"] == ["0", "b"]


KERNEL_B3_TEXT = "k = ab\nkernel members: 0, a, b, ab\n"
KERNEL_B3_JSON = """{
  "coembed": {
    "0": "0",
    "1": "ab",
    "a": "a",
    "ab": "ab",
    "ac": "a",
    "b": "b",
    "bc": "b",
    "c": "0"
  },
  "embed": {
    "0": "0",
    "a": "a",
    "ab": "ab",
    "b": "b"
  },
  "k": "ab",
  "members": [
    "0",
    "a",
    "b",
    "ab"
  ]
}
"""


def test_kernel_output_of_a_map_that_is_no_projection(capsys, tmp_path):
    # c -> ab and the other atoms to 0: the kernel is the downset of ab,
    # and the coembedding is the projection at ab corestricted to it.
    p = tmp_path / "b3_map.json"
    p.write_text(dump_json({"dom": "boolean:3", "values": {
        "0": "0", "a": "0", "b": "0", "c": "ab", "ab": "0", "ac": "ab", "bc": "ab",
        "1": "ab"}}))
    assert run(capsys, "kernel", "--file", str(p)) == (0, KERNEL_B3_TEXT, "")
    assert run(capsys, "kernel", "--file", str(p), "--format", "json") == (0, KERNEL_B3_JSON, "")


def test_kernel_rejects_non_linear_table(capsys, non_linear_map_file):
    code, _, _ = run(capsys, "kernel", "--file", non_linear_map_file)
    assert code == 1


# ---------------------------------------------------------------------------
# lin-quantale / check-quantale / check-foulis
# ---------------------------------------------------------------------------


def test_lin_quantale_text(capsys):
    code, out, _ = run(capsys, "lin-quantale", "--catalog", "boolean:2")
    assert code == 0
    assert "16 elements" in out
    assert "unit = [0,a,b,1]" in out
    assert "zero = [0,0,0,0]" in out


def test_lin_quantale_json_is_checkable(capsys):
    code, out, _ = run(capsys, "lin-quantale", "--catalog", "boolean:2",
                       "--format", "json")
    assert code == 0
    q = parse_quantale(json.loads(out))
    from omlq import check_quantale

    assert q.n == 16
    assert check_quantale(q).passed


def test_check_quantale_on_catalog(capsys):
    code, out, _ = run(capsys, "check-quantale", "--catalog", "boolean:2")
    assert code == 0


def test_check_quantale_file(capsys, tmp_path):
    q = make_nilpotent_chain_quantale()
    p = tmp_path / "nilpotent.json"
    p.write_text(dump_json(quantale_to_dict(q)))
    code, out, _ = run(capsys, "check-quantale", "--file", str(p))
    assert code == 0  # lawful involutive quantale
    code, _, err = run(capsys, "check-foulis", "--file", str(p))
    assert code == 1  # but no projection table exists
    assert "'m'" in err


def test_check_quantale_detects_broken_mult(capsys, tmp_path):
    q = make_nilpotent_chain_quantale()
    d = quantale_to_dict(q)
    d["mult"][2][2] = "0"  # 1*1 = 0 breaks the unit laws
    p = tmp_path / "broken.json"
    p.write_text(dump_json(d))
    code, out, _ = run(capsys, "check-quantale", "--file", str(p))
    assert code == 1
    assert "unit" in out


@pytest.mark.parametrize("cmd", ["check-quantale", "check-foulis", "check-module", "emit"])
def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, monkeypatch, cmd):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(b'{"elements": ["\xff"]}')
    assert run(capsys, cmd, "--file", "bad.json") == (2, "", (
        "error: bad.json: 'utf-8' codec can't decode byte 0xff in position 15: "
        "invalid start byte\n"))


@pytest.mark.parametrize("key", ["mult", "star", "unit", "leq"])
def test_check_quantale_file_with_a_list_label_is_an_input_error(capsys, tmp_path, key):
    # A JSON list where a label belongs is unhashable; it is an unknown
    # element (exit 2), not a crash.
    d = quantale_to_dict(make_nilpotent_chain_quantale())
    if key == "mult":
        d["mult"][1][2] = ["m"]
    elif key == "star":
        d["star"]["m"] = ["m"]
    elif key == "unit":
        d["unit"] = ["m"]
    else:
        d["leq"][0][1] = ["m"]
    p = tmp_path / "list-label.json"
    p.write_text(dump_json(d))
    code, out, err = run(capsys, "check-quantale", "--file", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "['m']" in err


def test_check_module_file_with_a_list_action_label_is_an_input_error(capsys, tmp_path, fq_b2):
    d = module_to_dict(lin_module(fq_b2[0].base))
    d["action"][1][0] = ["a"]
    p = tmp_path / "list-label.json"
    p.write_text(dump_json(d))
    code, out, err = run(capsys, "check-module", "--file", str(p))
    assert (code, out) == (2, "")
    assert err == "error: unknown element ['a']\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_quantale_file_reads_the_same_with_or_without_sai(capsys, tmp_path, fq_b2, fmt):
    # A file carrying "sai" parses to a FoulisQuantale; check-quantale
    # checks its quantale alone, as on the same file without "sai".  One
    # cell of the Lin(boolean:2) table is changed, so witnesses are reported.
    d = foulis_to_dict(fq_b2[0])
    old = d["mult"][5][9]
    d["mult"][5][9] = next(lab for lab in d["elements"] if lab != old)
    without = {k: v for k, v in d.items() if k != "sai"}
    results = []
    for name, body in (("with-sai.json", d), ("without-sai.json", without)):
        p = tmp_path / name
        p.write_text(dump_json(body))
        results.append(run(capsys, "check-quantale", "--file", str(p), "--format", fmt))
    assert results[0] == results[1]
    code, out, _ = results[0]
    assert code == 1
    assert ("FAIL at (" if fmt == "text" else '"witness"') in out


def test_check_quantale_file_with_a_late_row_mutant(tmp_path, fq_b3):
    # One cell in row 450 of the boolean:3 quantale file: the distributive
    # laws fail in row 450 and in column 300, far from the rows of the
    # join-irreducibles.
    q = fq_b3[0].base
    d = quantale_to_dict(q)
    old = d["mult"][450][300]
    d["mult"][450][300] = next(lab for lab in d["elements"] if lab != old)
    p = tmp_path / "late.json"
    p.write_text(dump_json(d))
    proc = subprocess.run(
        [sys.executable, "-m", "omlq", "check-quantale", "--file", str(p), "--format", "json"],
        capture_output=True,
    )
    assert proc.returncode == 1
    report = next(r for r in json.loads(proc.stdout)["reports"] if r["subject"] == "quantale")
    want = check_quantale_reference(parse_quantale(d)).to_dict()
    assert report == want
    assert want["axioms"]["distributes-left"]["witness"][0] == q.label(450)


def test_check_foulis_on_catalog(capsys):
    code, out, _ = run(capsys, "check-foulis", "--catalog", "boolean:2")
    assert code == 0
    assert "PASS" in out or "ok" in out


@pytest.fixture(scope="module")
def unlawful_files(tmp_path_factory, fq_b3):
    """Quantale files without "sai" that fail a law: mutant 0 of the
    benchmark's seed-0 mutants-b3 workload, one cell of the boolean:3
    quantale file changed, and the nilpotent chain with a star that is no
    involution."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads as wl

    work = tmp_path_factory.mktemp("unlawful")
    wl.mutants_b3(wl.DEFAULT_SEED, work, dump_json(quantale_to_dict(fq_b3[0].base)).encode())
    d = quantale_to_dict(make_nilpotent_chain_quantale())
    d["star"]["m"] = "1"
    (work / "star.json").write_text(dump_json(d))
    return {"mutant": work / "mutant-0.json", "star": work / "star.json"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cmd", ["check-foulis", "sasaki-lattice"])
@pytest.mark.parametrize("name, subject, axiom", [
    ("mutant", "quantale", "associativity"), ("star", "involutive", "star-involution")])
def test_a_file_that_fails_the_quantale_laws_gets_no_derived_sai(
        capsys, unlawful_files, name, subject, axiom, cmd, fmt):
    # derive_sai assumes the quantale and involution laws: a file without
    # "sai" that fails one is refused, naming the first failed law
    path = unlawful_files[name]
    code, out, _ = run(capsys, "check-quantale", "--file", str(path), "--format", "json")
    assert code == 1
    report = next(r for r in json.loads(out)["reports"] if not r["passed"])
    first = report["violations"][0]
    assert (report["subject"], first["axiom"]) == (subject, axiom)
    assert run(capsys, cmd, "--file", str(path), "--format", fmt) == (2, "", (
        f"error: {path}: {subject} law {axiom} fails at ({', '.join(first['witness'])}); "
        "sai is derived only for an involutive quantale\n"))


# ---------------------------------------------------------------------------
# sasaki-lattice / check-module
# ---------------------------------------------------------------------------


def test_sasaki_lattice_text(capsys):
    code, out, _ = run(capsys, "sasaki-lattice", "--catalog", "boolean:2")
    assert code == 0
    assert "4 elements" in out
    for lbl in ("[0,0,0,0]", "[0,a,0,a]", "[0,0,b,b]", "[0,a,b,1]"):
        assert lbl in out


def test_sasaki_lattice_json_is_an_oml(capsys):
    code, out, _ = run(capsys, "sasaki-lattice", "--catalog", "mo:2",
                       "--format", "json")
    assert code == 0
    oml = parse_oml(json.loads(out))
    from omlq import check_oml

    assert oml.n == 6
    assert check_oml(oml).passed


def test_check_module_on_catalog(capsys):
    code, out, _ = run(capsys, "check-module", "--catalog", "boolean:2")
    assert code == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_module_on_a_host_without_a_projection_oml(capsys, fmt):
    # benzene's projections violate the OML laws: the catalog branch reads
    # h, whose build raises the projection lattice's violation, exit 1.
    code, out, err = run(capsys, "check-module", "--catalog", "benzene", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == ("violation: derived structure violates projection-involution "
                   "at ('[0,0,y,y,0,y]',)\n")


def test_check_module_makes_one_products_pass(monkeypatch, capsys):
    # The catalog branch reads verify's builds: h is phi conjugated by the
    # round trip's isomorphism, so its pass is recorded and the quantale
    # build is the only products pass.
    from omlq import quantale

    passes = []
    real = quantale.QElementView.products

    def products(view, idx=None):
        passes.append(view)
        return real(view, idx)

    monkeypatch.setattr(quantale.QElementView, "products", products)
    code, out, _ = run(capsys, "check-module", "--catalog", "mo:2")
    assert code == 0 and "sasaki-module: PASS" in out
    assert len(passes) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_all_on_square(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "boolean:2", "all")
    assert code == 0
    assert "check-oml: PASS" in out
    for sel in ("sasaki-facts", "quantale", "foulis", "hom", "roundtrip"):
        assert f"{sel}: PASS" in out


def test_verify_selected_subset(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "mo:2",
                       "sasaki-facts", "dagger-kernel")
    assert code == 0
    assert "sasaki-facts: PASS" in out
    assert "dagger-kernel: PASS" in out
    assert "foulis" not in out


def test_verify_refuses_gated_selector_on_bad_input(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "benzene", "foulis")
    assert code == 2
    assert "refused" in out


def test_verify_all_on_bad_input_reports_and_skips(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "benzene", "all")
    assert code == 1
    assert "check-oml: FAIL" in out
    assert "SKIP" in out


def test_verify_cap_refusal_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "mo:2", "--cap", "100", "all")
    assert code == 2


def test_verify_unknown_selector_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--catalog", "boolean:2", "nonsense"])
    assert exc.value.code == 2


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "boolean:2",
                       "quantale", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["results"]["quantale"]["passed"] is True


# ---------------------------------------------------------------------------
# emit / catalog
# ---------------------------------------------------------------------------


def test_emit_round_trips_catalog_entry(capsys):
    code, out, _ = run(capsys, "emit", "--catalog", "boolean:2",
                       "--format", "json")
    assert code == 0
    assert parse_oml(json.loads(out)) == catalog("boolean:2")


def test_emit_dot(capsys):
    code, out, _ = run(capsys, "emit", "--catalog", "mo:2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count(" -> ") == 11  # 8 covers + 3 complement links


def test_emit_reads_structure_files(capsys, tmp_path, fq_b2):
    p = tmp_path / "m.json"
    from omlq import LinMap

    b2 = catalog("boolean:2")
    p.write_text(dump_json(linmap_to_dict(LinMap(b2, b2, range(b2.n)))))
    code, out, _ = run(capsys, "emit", "--file", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["values"]["a"] == "a"


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "boolean:1" in out and "benzene" in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert {"entry": "mo:4", "elements": 10} in entries


def test_catalog_has_no_dot_format(capsys):
    code, out, err = run(capsys, "catalog", "--format", "dot")
    assert (code, out) == (2, "")
    assert err == "error: this command has no DOT rendering\n"


# ---------------------------------------------------------------------------
# global flags and the installed entry point
# ---------------------------------------------------------------------------


def test_flags_accepted_before_and_after_subcommand(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "lin",
                         "--catalog", "boolean:1")
    code2, out2, _ = run(capsys, "lin", "--catalog", "boolean:1",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_script_runs():
    for module in ("omlq.cli", "omlq"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "lin", "--catalog", "boolean:2",
             "--count-only"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "16"


@pytest.mark.parametrize("given, kept", [(None, "1"), ("3", "3")])
def test_import_sets_one_blas_thread_unless_the_caller_chose(given, kept):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run(
        [sys.executable, "-c", "import os, omlq; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == kept


def test_lin_count_loads_no_quantale_layer():
    # The start-up guard: the light commands import only what they run.
    heavy = ["omlq.quantale", "omlq.foulis", "omlq.qmodule", "omlq.verify",
             "omlq.serialize", "omlq.goldens", "concurrent.futures"]
    script = (
        "import sys\n"
        "from omlq import cli\n"
        "assert cli.main(['lin', '--catalog', 'mo:2', '--count-only']) == 0\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
        "import omlq, omlq.catalog\n"
        "print(omlq.catalog is sys.modules['omlq.catalog'].catalog)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "234\n[]\nTrue\n"


def test_goldens_import_loads_no_thread_pool():
    # The oracle decodes its chunks in turn; goldens starts no thread pool.
    script = "import sys, omlq.goldens\nprint('concurrent.futures' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def modules_loaded_by(argv, modules):
    """Exit code of cli.main(argv) in a fresh interpreter, and which of
    modules it left loaded."""
    script = (
        "import contextlib, io, sys\n"
        "from omlq import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(code, [m for m in {modules!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_check_quantale_file_loads_no_foulis_module_or_thread_pool(tmp_path, fq_b2):
    p = tmp_path / "lin-boolean2.json"
    p.write_text(dump_json(quantale_to_dict(fq_b2[0].base)))
    heavy = ["omlq.foulis", "omlq.qmodule", "omlq.verify", "omlq.goldens",
             "concurrent.futures"]
    argv = ["check-quantale", "--file", str(p), "--format", "json"]
    assert modules_loaded_by(argv, heavy) == "0 []\n"


def test_check_oml_json_loads_no_quantale_layer():
    heavy = ["omlq.quantale", "omlq.foulis", "omlq.qmodule", "omlq.linmap", "omlq.verify"]
    argv = ["check-oml", "--catalog", "mo:2", "--format", "json"]
    assert modules_loaded_by(argv, heavy) == "0 []\n"


def test_verify_loads_no_thread_pool_or_scan_module():
    argv = ["verify", "--catalog", "boolean:2", "all"]
    assert modules_loaded_by(argv, ["concurrent.futures", "omlq.scan"]) == "0 []\n"


def test_package_names_resolve_to_their_modules():
    import importlib

    import omlq
    import omlq.cli as cli

    exports = {
        "catalog": "benzene_oml boolean_oml catalog catalog_names horizontal_sum_oml mo_oml "
                   "product_oml zero_oml",
        "errors": "AmbiguousSai CapExceeded DomainMismatch FormatError FrontierTooLarge "
                  "NotALattice NotAPoset NotFoulis OmlqError ParamOutOfRange "
                  "StructureViolation TableTooLarge UnknownCatalogEntry",
        "foulis": "FoulisQuantale SasakiOML check_foulis check_hom check_star_props "
                  "derive_sai foulis_from_lin hom_h roundtrip_iso sasaki_oml "
                  "sasaki_oml_report",
        "lattice": "CheckReport FiniteLattice FiniteOML SubOML Violation build_lattice "
                   "check_oml lattice_from_leq make_report",
        "linmap": "KernelData LinMap dagger is_linear kernel lin_count lin_values "
                  "vector_label verify_adjoint_pair",
        "qmodule": "ModuleAction check_left_module check_right_two_module lin_module "
                   "sasaki_module",
        "quantale": "FinQuantale QElementView check_involutive check_quantale lin_quantale",
        "serialize": "dump_json lattice_to_dict linmap_to_dict load_json module_to_dict "
                     "oml_to_dict parse_lattice parse_linmap parse_module parse_oml "
                     "parse_quantale parse_structure quantale_to_dict resolve_oml "
                     "resolve_structure structure_to_dict to_dot",
        "verify": "SELECTORS dagger_kernel_report run_verify sasaki_facts_report verify_text",
    }
    for module, names in exports.items():
        mod = importlib.import_module(f"omlq.{module}")
        for name in names.split():
            assert getattr(omlq, name) is getattr(mod, name), (module, name)
    assert omlq.__all__ == sorted(" ".join(exports.values()).split())
    for name in ("downset_oml", "ortho_pair", "leq_by_mult", "leq_by_mult_matrix",
                 "perp_by_star"):
        with pytest.raises(AttributeError):
            getattr(omlq, name)
    assert cli.catalog is omlq.catalog
    assert cli.load_json is omlq.load_json
    assert cli.parse_quantale is omlq.parse_quantale
    assert cli.FoulisQuantale is omlq.FoulisQuantale


def test_installed_entry_point():
    proc = subprocess.run(
        ["omlq", "catalog"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "boolean:1" in proc.stdout


def test_a_lattice_file_past_the_element_limit_is_refused_before_allocation(
        capsys, tmp_path, monkeypatch):
    # A chain given by its covers needs about log2(n) squarings of its
    # n-by-n order to close; one element past the limit is refused before
    # the first of them, with the exit code of an input too large.
    import omlq.lattice as lattice

    def no_product(a, b):
        raise AssertionError("the order was closed")

    monkeypatch.setattr(lattice, "bool_product", no_product)
    n = lattice.LATTICE_ELEMENT_LIMIT + 1
    labels = [f"c{i}" for i in range(n)]
    chain = {"elements": labels, "covers": [[x, y] for x, y in zip(labels, labels[1:])],
             "ortho": {labels[0]: labels[-1]}}
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(chain))
    code, out, err = run(capsys, "check-oml", "--file", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: a lattice of {n} elements is above the limit of {n - 1} elements\n"


@pytest.mark.parametrize("spec, n", [
    ("product(boolean:4,product(boolean:4,product(boolean:1,boolean:4)))", 8192),
    ("horizontal_sum(product(boolean:4,product(boolean:4,boolean:4)),"
     "product(boolean:4,boolean:4))", 4350),
])
def test_a_catalog_lattice_past_the_element_limit_is_refused_before_any_order_work(
        capsys, monkeypatch, spec, n):
    # A catalog product or horizontal sum is refused from its element count,
    # before it lists an order pair or closes an order.
    import importlib

    import omlq.lattice as lattice

    def no_order(*args):
        raise AssertionError("order work before the refusal")

    monkeypatch.setattr(importlib.import_module("omlq.catalog"), "build_lattice", no_order)
    monkeypatch.setattr(lattice, "bool_product", no_order)
    code, out, err = run(capsys, "check-oml", "--catalog", spec)
    assert (code, out) == (2, "")
    assert err == f"error: a lattice of {n} elements is above the limit of 4096 elements\n"


def test_lin_quantale_too_large_is_refused_before_allocation():
    # boolean:4 has 65,536 endomaps: 65,536^2 cells of dense tables at
    # 9 bytes each.  The child gets a 2 GiB address-space limit, so a guard
    # placed after any k-by-k allocation fails here instead of exhausting
    # the machine.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "omlq.cli", "lin-quantale", "--catalog", "boolean:4"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
    )
    assert proc.returncode == 2
    assert str(65536 * 65536 * 9) in proc.stderr
    assert "65536 elements" in proc.stderr
