"""Traced replay of one workload in a single process.

    PYTHONPATH=src python perfbench/replay.py PLAN_JSON SIDE_JSON

run.py --trace 1 writes PLAN_JSON and starts this script in a guarded child
process.  The plan lists the workload's CLI jobs with the exit code and
stdout each produced untraced.  Every job is replayed in process through
`omlq.cli.main`, with a span recorded around each call of a public function
of catalog, lattice, linmap, quantale, foulis, qmodule, verify and
serialize.  The wrappers are installed from this file by rebinding module
attributes, so no file of the program changes.  Spans stay in memory and go
to SIDE_JSON when the replay ends; nothing is written to stdout.

After the traced jobs, untraced probes time single layers on the objects
the jobs built: the carrier tables, derive_sai, dagger and kernel over all
maps, and check_quantale, dagger_kernel_report and run_verify at workers 1
and 2.
"""

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import sys
import threading
import time
import traceback

T0 = time.perf_counter()
import omlq.cli as cli  # noqa: E402  (timed as cli.import_s)

IMPORT_S = time.perf_counter() - T0

import numpy as np  # noqa: E402  (already loaded by omlq)

LAYERS = ("catalog", "lattice", "linmap", "quantale", "foulis", "qmodule",
          "verify", "serialize")
KEEP_SPAN_S = 1e-3  # shorter spans are only counted in the per-name totals


class Tracer:
    """Span recorder.  A span is (id, name, start, end, parent id).

    Calls made in worker threads have no enclosing span of their own thread;
    their parent is the span open in the main thread, which waits for them.
    """

    def __init__(self, hooks: dict):
        self.spans = []
        self.hooks = hooks  # span name -> f(bound arguments, result)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._patched = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _begin(self):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced

    def stage(self, name, fn, *args):
        """Call fn(*args) in a top-level span, one without a parent."""
        return self._wrap(name, fn)(*args)

    def install(self):
        """Rebind every public function of the layers, in every omlq module
        that holds a reference to it."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"omlq.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "omlq" and not name.startswith("omlq."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds of the outermost calls (a
        call inside a call of the same name is not counted twice) and self
        seconds (duration minus the union of its children's intervals)."""
        by_id = {s[0]: s for s in self.spans}
        children = {}
        for s in self.spans:
            children.setdefault(s[4], []).append((s[2], s[3]))
        out = {}
        for sid, name, start, end, parent in self.spans:
            e = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            e["calls"] += 1
            p = by_id.get(parent)
            while p is not None and p[1] != name:
                p = by_id.get(p[4])
            if p is None:
                e["total_s"] += end - start
            e["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
        return out

    def first(self, name):
        spans = [s for s in self.spans if s[1] == name]
        return min(spans, key=lambda s: s[2]) if spans else None


def _covered(intervals, start, end) -> float:
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Observed:
    """Counts and objects the traced jobs produced, taken from call hooks."""

    def __init__(self):
        self.lock = threading.Lock()
        self.maps = 0
        self.candidates = 0
        self.elements = 0
        self.mult_bytes = 0
        self.carrier_bytes = 0
        self.first = {}

    def keep(self, key, value):
        with self.lock:
            self.first.setdefault(key, value)

    def quantale(self, q):
        if isinstance(q, cli.FoulisQuantale):
            q = q.base
        c = q.carrier
        with self.lock:
            self.elements = max(self.elements, q.n)
            self.mult_bytes = max(self.mult_bytes, q.dense_mult().nbytes)
            self.carrier_bytes = max(
                self.carrier_bytes,
                c.leq_mat.nbytes + c.join_tab.nbytes + c.meet_tab.nbytes)
        self.keep("carrier", q)

    def hooks(self) -> dict:
        linmap = importlib.import_module("omlq.linmap")

        def enumerate_lin(a, maps):
            dom = a["dom"]
            cod = dom if a["cod"] is None else a["cod"]
            # Assignments the enumerator decodes when this file was written:
            # every value table on the brute-force path, else every
            # assignment of the join-irreducibles.
            strategy = a.get("strategy", "auto")
            if strategy == "auto":
                small = cod.n ** dom.n <= getattr(linmap, "BRUTEFORCE_LIMIT", 0)
                strategy = "bruteforce" if small else "irreducible"
            if strategy == "bruteforce":
                cand = cod.n ** dom.n
            else:
                cand = cod.n ** len(dom.lattice.join_irreducibles())
            with self.lock:
                self.maps += len(maps)
                self.candidates += cand

        def check_quantale(a, _):
            self.quantale(a["q"])
            self.keep("check_quantale", (a["q"], a["workers"]))

        return {
            "linmap.enumerate_lin": enumerate_lin,
            "quantale.lin_quantale": lambda a, r: self.quantale(r[0]),
            "serialize.parse_quantale": lambda a, r: self.quantale(r),
            "quantale.check_quantale": check_quantale,
            "foulis.foulis_from_lin": lambda a, r: self.keep("foulis", r[0]),
            "verify.dagger_kernel_report": lambda a, r: self.keep("dagger_kernel", a),
            "verify.run_verify": lambda a, r: self.keep("run_verify", a),
        }


def timed(fn, *args, **kwargs):
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t, result


def replay_jobs(tracer, plan, errors):
    for job in plan["jobs"]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = tracer.stage("job " + " ".join(job["argv"]), cli.main, job["argv"])
        except Exception:  # a crash is a failed replay, reported below
            errors.append(f"{' '.join(job['argv'])}: {traceback.format_exc()}")
            continue
        with open(job["stdout"], "rb") as fh:
            want = fh.read()
        if code != job["exit"] or buf.getvalue().encode() != want:
            errors.append(f"{' '.join(job['argv'])}: exit {code} or stdout "
                          "differs from the untraced run")


def probes(seen, errors) -> dict:
    """Untraced single-layer timings on the objects the traced jobs built."""
    from omlq import foulis, lattice, linmap, quantale, verify

    out = {}
    q = seen.first.get("carrier")
    if q is not None:
        c = q.carrier
        out["carrier"], _ = timed(lattice.lattice_from_leq, c.labels, c.leq_mat)
    f = seen.first.get("foulis")
    if f is not None:
        out["derive_sai"], sai = timed(foulis.derive_sai, f.base)
        if not np.array_equal(sai, f.sai):
            errors.append("derive_sai differs from the closed-form sai table")
    dk = seen.first.get("dagger_kernel")
    if dk is not None and dk["maps"] is not None:
        maps = dk["maps"]
        out["dagger"], _ = timed(lambda: [linmap.dagger(m) for m in maps])
        out["kernel"], _ = timed(lambda: [linmap.kernel(m) for m in maps])

    def by_workers(key, call, default):
        times = {w: timed(call, w)[0] for w in sorted({1, 2, default})}
        out[key] = times
        return times

    if "check_quantale" in seen.first:
        cq, w = seen.first["check_quantale"]
        by_workers("check_quantale", lambda k: quantale.check_quantale(cq, workers=k), w)
    if dk is not None:
        by_workers("dagger_kernel", lambda k: verify.dagger_kernel_report(
            dk["oml"], cap=dk["cap"], workers=k, maps=dk["maps"]), dk["workers"])
    rv = seen.first.get("run_verify")
    if rv is not None:
        by_workers("run_verify", lambda k: verify.run_verify(
            rv["oml"], rv["selectors"], subject=rv["subject"], cap=rv["cap"],
            workers=k), rv["workers"])
    return out


def layer_metrics(tracer, seen, probe) -> dict:
    totals = tracer.totals()

    def tot(*names):
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def speedup(key):
        t = probe.get(key)
        return t[1] / t[2] if t else 0.0

    seen_rv = seen.first.get("run_verify")
    entry, untraced = None, 0.0
    if seen_rv is not None:
        entry, untraced = "verify.run_verify", probe["run_verify"][seen_rv["workers"]]
    elif "check_quantale" in seen.first:
        w = seen.first["check_quantale"][1]
        entry, untraced = "quantale.check_quantale", probe["check_quantale"][w]
    span = tracer.first(entry) if entry else None
    return {
        "lattice.carrier_tables_s": probe.get("carrier", 0.0),
        "lattice.carrier_table_bytes": seen.carrier_bytes,
        "lattice.check_oml_s": tot("lattice.check_oml"),
        "catalog.build_s": tot("catalog.catalog"),
        "cli.import_s": IMPORT_S,
        "linmap.enumerate_s": tot("linmap.enumerate_lin"),
        "linmap.maps": seen.maps,
        "linmap.enum_candidates": seen.candidates,
        "linmap.enum_yield": seen.maps / seen.candidates if seen.candidates else 0.0,
        "linmap.dagger_s": probe.get("dagger", 0.0),
        "linmap.kernel_s": probe.get("kernel", 0.0),
        "verify.dagger_kernel_s": tot("verify.dagger_kernel_report"),
        "quantale.build_s": tot("quantale.lin_quantale"),
        "quantale.elements": seen.elements,
        "quantale.mult_bytes": seen.mult_bytes,
        "quantale.check_s": tot("quantale.check_quantale"),
        "quantale.involutive_s": tot("quantale.check_involutive"),
        "foulis.build_s": tot("foulis.foulis_from_lin"),
        "foulis.derive_sai_s": probe.get("derive_sai", 0.0),
        "foulis.check_s": tot("foulis.check_foulis"),
        "foulis.star_props_s": tot("foulis.check_star_props"),
        "foulis.sasaki_oml_s": tot("foulis.sasaki_oml"),
        "foulis.hom_s": tot("foulis.hom_h"),
        "foulis.check_hom_s": tot("foulis.check_hom"),
        "foulis.roundtrip_s": tot("foulis.roundtrip_iso"),
        "qmodule.build_s": tot("qmodule.lin_module", "qmodule.sasaki_module"),
        "qmodule.check_s": tot("qmodule.check_left_module",
                               "qmodule.check_right_two_module"),
        "verify.sasaki_facts_s": tot("verify.sasaki_facts_report"),
        "verify.run_s": (probe["run_verify"][seen_rv["workers"]]
                         if seen_rv is not None else 0.0),
        "serialize.parse_s": tot("serialize.load_json", "serialize.parse_quantale"),
        "serialize.dump_s": tot("serialize.dump_json"),
        "scan.check_quantale.w2_speedup": speedup("check_quantale"),
        "scan.dagger_kernel.w2_speedup": speedup("dagger_kernel"),
        "scan.run_verify.w2_speedup": speedup("run_verify"),
        "trace.overhead_s": (span[3] - span[2]) - untraced if span else 0.0,
    }


def main(plan_path, side_path) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    errors = []
    seen = Observed()
    tracer = Tracer(seen.hooks())
    tracer.install()
    try:
        replay_jobs(tracer, plan, errors)
    finally:
        tracer.uninstall()
    probe = probes(seen, errors)
    stages = [s for s in tracer.spans if s[4] is None]
    side = {
        "workload": plan["workload"],
        "environment": plan["environment"],
        "errors": errors,
        "stage_total_s": IMPORT_S + sum(s[3] - s[2] for s in stages),
        "metrics": layer_metrics(tracer, seen, probe),
        "probes": {k: v if not isinstance(v, dict) else {str(w): t for w, t in v.items()}
                   for k, v in probe.items()},
        "layers": tracer.totals(),
        "spans_recorded": len(tracer.spans),
        "spans": [
            {"id": sid, "name": name, "start": start - T0, "end": end - T0,
             "parent": parent, "workload": plan["workload"]}
            for sid, name, start, end, parent in tracer.spans
            if end - start >= KEEP_SPAN_S or parent is None
        ],
    }
    with open(side_path, "w", encoding="utf-8") as fh:
        json.dump(side, fh, indent=1)
    for e in errors:
        print(f"replay: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
