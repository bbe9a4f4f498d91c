"""Workload definitions, input generation and output checks.

A workload is a list of `python -m omlq.cli` jobs run back to back.  Every
job carries a check that turns its exit code and stdout into None (correct)
or a one-line reason it is wrong; a wrong job is a failed operation.

    verify-b3    verify --catalog boolean:3 all.  The largest quantale (512
                 elements) the full pipeline finishes; the cubic quantale
                 scans and two quantale builds dominate, and |J(Q)| is 9.
    verify-mo2   verify --catalog mo:2 all.  The same pipeline on the MO
                 family, where |J(Q)| is 136 of 234 and tables are small, so
                 interpreter and thread start-up dominate.
    kernels-mo3  verify mo:3 sasaki-facts dagger-kernel plus three
                 `lin --count-only` jobs.  Enumeration and per-map kernel
                 work on 13,376 maps; builds no quantale.
    mutants-b3   check-quantale on single-cell mutations of the boolean:3
                 quantale file.  Failing inputs: parsing, carrier tables and
                 the witness path of check_quantale.

Reference outputs in ref/ were captured with `PYTHONPATH=src python -m
omlq.cli <args>` from the commit that added this benchmark.  They pin the
payload bytes and least witnesses, which are the same for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REF = Path(__file__).resolve().parent / "ref"

DEFAULT_SEED = 0
MUTANTS_PER_LIST = 3
# sha256 of `lin-quantale --catalog boolean:3 --format json`, the file the
# mutants are cut from.
BASE_SHA256 = "203431c971c8bfe38b8eccb1e8c39b897251e875d31791456ae8a6f05629f982"

LIN_COUNTS = {
    # |Lin(2^n)| = 2^(n^2) in closed form; the MO and product counts are
    # those of the join-irreducible generator when this file was written.
    "mo:3": 13_376,
    "product(boolean:1,mo:2)": 16_848,
    "boolean:4": 2 ** (4 * 4),
}


@dataclass
class Job:
    """One CLI invocation and the check of its result."""

    argv: list[str]
    check: object  # (exit_code: int, stdout: bytes) -> str | None
    label: str


@dataclass
class Workload:
    """The jobs of one run, the inputs whose set-up time is sampled, and
    how many set-up samples a run takes."""

    jobs: list[Job]
    setup_inputs: list[tuple[str, str]]  # ("catalog", spec) or ("file", path)
    setup_samples: int


# ---------------------------------------------------------------------------
# checks

def check_verify(ref_bytes: bytes):
    """A catalog verify job: exit 0, "passed": true, reference bytes."""

    def check(code, out):
        if code != 0:
            return f"exit {code}, want 0"
        try:
            if json.loads(out).get("passed") is not True:
                return 'payload lacks "passed": true'
        except ValueError:
            return "stdout is not JSON"
        if out != ref_bytes:
            return "stdout differs from the reference"
        return None

    return check


def check_count(expected: int):
    def check(code, out):
        if code != 0:
            return f"exit {code}, want 0"
        if out != f"{expected}\n".encode():
            return f"count {out[:40]!r}, want {expected}"
        return None

    return check


# ---------------------------------------------------------------------------
# the quantale table the mutants are cut from

class Table:
    """A quantale file read by the harness itself, independently of omlq.

    Joins come from the file's own order: the join of a and b is the element
    whose up-set is the intersection of their up-sets.
    """

    def __init__(self, d: dict):
        self.labels = list(d["elements"])
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        up = [1 << i for i in range(n)]
        for lo, hi in d["leq"]:  # the program writes the full strict order
            up[self.index[lo]] |= 1 << self.index[hi]
        self.up = up
        self.by_up = {mask: i for i, mask in enumerate(up)}
        bottoms = [i for i in range(n) if up[i] == (1 << n) - 1]
        if len(bottoms) != 1:
            raise ValueError("the order has no single bottom")
        self.zero = bottoms[0]
        self.mult = [[self.index[lab] for lab in row] for row in d["mult"]]
        self.star = [self.index[d["star"][lab]] for lab in self.labels]
        self.unit = self.index[d["unit"]]

    @property
    def n(self) -> int:
        return len(self.labels)

    def join(self, a: int, b: int) -> int:
        j = self.by_up.get(self.up[a] & self.up[b])
        if j is None:
            raise ValueError(f"no join of {self.labels[a]} and {self.labels[b]}")
        return j


@dataclass(frozen=True)
class Mutant:
    """Cell (a, b) of the multiplication table set to v."""

    a: int
    b: int
    v: int


def pick_mutants(seed: int, table: Table, k: int) -> list[Mutant]:
    """k distinct single-cell mutations, a function of the seed alone.

    Cells with a == star(b) are skipped.  For every other cell, the mutated
    table breaks star(a*b) = star(b)*star(a) at exactly (a, b) and
    (star b, star a), so each mutant must be rejected.
    """
    rng = random.Random(f"mutants-b3/{seed}")
    out, cells = [], set()
    while len(out) < k:
        a, b = rng.randrange(table.n), rng.randrange(table.n)
        if a == table.star[b] or (a, b) in cells:
            continue
        v = rng.randrange(table.n - 1)
        if v >= table.mult[a][b]:
            v += 1
        cells.add((a, b))
        out.append(Mutant(a, b, v))
    return out


def mutant_dict(d: dict, m: Mutant) -> dict:
    mult = list(d["mult"])
    mult[m.a] = list(mult[m.a])
    mult[m.a][m.b] = d["elements"][m.v]
    return dict(d, mult=mult)


def _violated(t: Table, m: Mutant, axiom: str, w: list[int]):
    """Whether witness w breaks the law on the mutated table; None when the
    axiom is unknown to the harness."""

    def mul(x, y):
        return m.v if (x, y) == (m.a, m.b) else t.mult[x][y]

    s, j, u, z = t.star, t.join, t.unit, t.zero
    laws = {
        ("associativity", 3): lambda a, b, c: mul(mul(a, b), c) != mul(a, mul(b, c)),
        ("unit-left", 1): lambda x: mul(u, x) != x,
        ("unit-right", 1): lambda x: mul(x, u) != x,
        ("zero-left", 1): lambda x: mul(z, x) != z,
        ("zero-right", 1): lambda x: mul(x, z) != z,
        ("distributes-left", 3): lambda x, y, w_: mul(x, j(y, w_))
        != j(mul(x, y), mul(x, w_)),
        ("distributes-right", 3): lambda x, y, w_: mul(j(y, w_), x)
        != j(mul(y, x), mul(w_, x)),
        ("star-involution", 1): lambda x: s[s[x]] != x,
        ("star-antihomomorphism", 2): lambda a, b: s[mul(a, b)] != mul(s[b], s[a]),
        ("star-join", 2): lambda a, b: s[j(a, b)] != j(s[a], s[b]),
        ("star-zero", 1): lambda x: x == z and s[z] != z,
        ("unit-self-adjoint", 1): lambda x: x == u and s[u] != u,
    }
    law = laws.get((axiom, len(w)))
    return None if law is None else law(*w)


def check_mutant(t: Table, m: Mutant, ref_bytes: bytes | None = None):
    """A mutant check-quantale job: exit 1, every reported witness breaks
    its law on the mutated table, and the star-antihomomorphism witness is
    the least of the two cells the mutation is known to break."""

    def check(code, out):
        if code != 1:
            return f"exit {code}, want 1"
        try:
            payload = json.loads(out)
            reports = payload["reports"]
            violations = [v for r in reports for v in r["violations"]]
            found = {}
            for v in violations:
                w = [t.index[lab] for lab in v["witness"]]
                bad = _violated(t, m, v["axiom"], w)
                if bad is None:
                    return f"unknown axiom {v['axiom']!r}"
                if not bad:
                    return f"{v['axiom']} witness {v['witness']} holds"
                found[v["axiom"]] = tuple(w)
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed report: {e!r}"
        if payload.get("passed") is not False:
            return 'payload lacks "passed": false'
        least = min((m.a, m.b), (t.star[m.b], t.star[m.a]))
        if found.get("star-antihomomorphism") != least:
            return "star-antihomomorphism witness is not the planted cell"
        if ref_bytes is not None and out != ref_bytes:
            return "stdout differs from the reference"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads

def cli(*args: str) -> list[str]:
    return ["-m", "omlq.cli", *args]


def _verify_job(spec: str, selectors: list[str], ref_name: str) -> Job:
    return Job(
        cli("verify", "--catalog", spec, *selectors, "--format", "json"),
        check_verify((REF / ref_name).read_bytes()),
        f"verify {spec} {' '.join(selectors)}",
    )


def _count_job(spec: str) -> Job:
    return Job(
        cli("lin", "--catalog", spec, "--count-only"),
        check_count(LIN_COUNTS[spec]),
        f"lin {spec} --count-only",
    )


def base_job() -> Job:
    """Writes the boolean:3 quantale file; its bytes are pinned by hash."""

    def check(code, out):
        if code != 0:
            return f"exit {code}, want 0"
        if hashlib.sha256(out).hexdigest() != BASE_SHA256:
            return "quantale file differs from the pinned bytes"
        return None

    return Job(cli("lin-quantale", "--catalog", "boolean:3", "--format", "json"),
               check, "lin-quantale boolean:3")


def verify_b3(seed: int, work: Path, base: bytes | None = None) -> Workload:
    return Workload([_verify_job("boolean:3", ["all"], "verify-boolean3-all.json")],
                    [("catalog", "boolean:3")], 5)


def verify_mo2(seed: int, work: Path, base: bytes | None = None) -> Workload:
    return Workload([_verify_job("mo:2", ["all"], "verify-mo2-all.json")],
                    [("catalog", "mo:2")], 5)


def kernels_mo3(seed: int, work: Path, base: bytes | None = None) -> Workload:
    """The seed fixes the order of the four jobs."""
    jobs = [_verify_job("mo:3", ["sasaki-facts", "dagger-kernel"],
                        "verify-mo3-kernels.json")]
    jobs += [_count_job(spec) for spec in LIN_COUNTS]
    random.Random(f"kernels-mo3/{seed}").shuffle(jobs)
    return Workload(jobs, [("catalog", spec) for spec in LIN_COUNTS], 6)


def mutants_b3(seed: int, work: Path, base: bytes) -> Workload:
    """base is the checked stdout of base_job; the seed picks the cells."""
    d = json.loads(base)
    table = Table(d)
    jobs, files = [], []
    for i, m in enumerate(pick_mutants(seed, table, MUTANTS_PER_LIST)):
        path = work / f"mutant-{i}.json"
        path.write_text(json.dumps(mutant_dict(d, m), sort_keys=True, indent=2))
        ref = None
        if seed == DEFAULT_SEED:
            ref = (REF / f"mutant-seed{DEFAULT_SEED}-{i}.json").read_bytes()
        jobs.append(Job(cli("check-quantale", "--file", str(path), "--format", "json"),
                        check_mutant(table, m, ref),
                        f"check-quantale mutant {i}: cell ({m.a},{m.b}) := {m.v}"))
        files.append(path)
    return Workload(jobs, [("file", str(p)) for p in files], len(files))


WORKLOADS = {
    "verify-b3": verify_b3,
    "verify-mo2": verify_mo2,
    "kernels-mo3": kernels_mo3,
    "mutants-b3": mutants_b3,
}
NEEDS_BASE = {"mutants-b3"}
