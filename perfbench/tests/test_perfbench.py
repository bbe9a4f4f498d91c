"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They check that inputs are a function of the seed and that a planted wrong
witness, count or exit code, a timeout and a memory-limit hit are each
counted as a failed operation.
"""

import json
import os
import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def chain_quantale(n: int) -> dict:
    """The chain 0 < 1 < ... < n-1 with meet as multiplication: a lawful
    commutative quantale with identity involution and unit n-1."""
    labels = [str(i) for i in range(n)]
    return {
        "elements": labels,
        "leq": [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)],
        "mult": [[labels[min(i, j)] for j in range(n)] for i in range(n)],
        "star": {lab: lab for lab in labels},
        "unit": labels[-1],
    }


@pytest.fixture
def runner():
    work = run.OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    yield run.Runner(work, time.perf_counter() + 60)
    shutil.rmtree(work, ignore_errors=True)


def printer(stdout: str, code: int) -> list[str]:
    """argv for a child that prints stdout and exits with code."""
    return ["-c", f"import sys; sys.stdout.write({stdout!r}); sys.exit({code})"]


def failed(r: run.Runner) -> int:
    return sum(op["error"] is not None for op in r.ops)


def test_same_seed_same_mutants():
    t = wl.Table(chain_quantale(9))
    assert wl.pick_mutants(7, t, 5) == wl.pick_mutants(7, t, 5)
    assert wl.pick_mutants(7, t, 5) != wl.pick_mutants(8, t, 5)
    for m in wl.pick_mutants(7, t, 5):
        assert m.a != t.star[m.b] and m.v != t.mult[m.a][m.b]


def test_real_mutant_report_passes_and_planted_faults_fail(runner):
    d = chain_quantale(4)
    t = wl.Table(d)
    m = wl.Mutant(1, 2, 3)  # 1*2 := 3, where meet gives 1
    path = runner.work / "mutant.json"
    path.write_text(json.dumps(wl.mutant_dict(d, m)))
    check = wl.check_mutant(t, m)
    c = runner.job(wl.Job(wl.cli("check-quantale", "--file", str(path),
                                 "--format", "json"), check, "mutant"))
    assert c.code == 1 and failed(runner) == 0

    report = json.loads(c.stdout)
    anti = next(v for r in report["reports"] for v in r["violations"]
                if v["axiom"] == "star-antihomomorphism")
    assert anti["witness"] == ["1", "2"]
    anti["witness"] = ["0", "0"]  # a witness at which the law holds
    planted = json.dumps(report)
    runner.job(wl.Job(printer(planted, 1), check, "planted witness"))
    runner.job(wl.Job(printer(c.stdout.decode(), 0), check, "planted exit"))
    assert failed(runner) == 2


def test_planted_count_and_reference_failures(runner):
    count = wl.check_count(wl.LIN_COUNTS["boolean:4"])
    runner.job(wl.Job(printer("65536\n", 0), count, "right count"))
    assert failed(runner) == 0
    runner.job(wl.Job(printer("65535\n", 0), count, "planted count"))
    runner.job(wl.Job(printer("65536\n", 1), count, "planted exit"))
    ref = b'{\n  "passed": true\n}\n'
    verify = wl.check_verify(ref)
    runner.job(wl.Job(printer(ref.decode(), 0), verify, "right payload"))
    runner.job(wl.Job(printer('{"passed": true}', 0), verify, "other bytes"))
    runner.job(wl.Job(printer('{"passed": false}', 0), verify, "failed verdict"))
    assert failed(runner) == 4


def test_timeout_and_memory_limit_are_failures(runner, monkeypatch):
    runner.deadline = time.perf_counter() + 0.5
    start = time.perf_counter()
    c = runner.child(["-c", "import time; time.sleep(30)"])
    assert c.error and "timeout" in c.error and time.perf_counter() - start < 10
    runner.deadline = time.perf_counter() + 60
    # A small limit keeps the test harmless even if the guard were missing.
    monkeypatch.setattr(run, "AS_LIMIT_BYTES", 256 << 20)
    c = runner.child(["-c", "bytearray(1 << 30)"])
    assert c.error == "hit the address-space limit"
    runner.record("memory", c, c.error)
    assert failed(runner) == 1
