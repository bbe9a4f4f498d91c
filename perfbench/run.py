"""omlq benchmark: time and memory to a verdict, per workload.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout that holds src/omlq.  Workloads and
their output checks are in workloads.py; metric names and units come from
BENCHMARK.json.

A run is a closed loop with one client.  The workload's job list runs back
to back, one `python -m omlq.cli` child process at a time, with
PYTHONPATH=src and the CLI's default --workers.  The list runs again while
another list still fits in --seconds.  Before the lists, the run takes
set-up samples: a fresh process that imports omlq.cli and resolves one
input of the workload, and exits.

--trace 0 reports the end-to-end metrics:
    wall_s       median seconds of one job list
    peak_rss_mb  largest peak RSS of any job process, from its rusage
    setup_s      median seconds of one set-up sample
and prints failed_frac: wrong, crashed or killed operations / attempted.

--trace 1 runs the job list once untraced and then replays it in one
process with spans around each layer (replay.py).  It reports the
per-layer metrics; the spans go to a side file, never to stdout.

Each child runs with a wall-clock timeout and an RLIMIT_AS set on that
child only.  A child that is killed or hits the limit is a failed
operation.  Every run writes perfbench/out/<workload>-seed<N>-trace<T>.json
with the samples, each operation and the environment.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # every run ends within 180 s
JOB_TIMEOUT_S = 150.0
AS_LIMIT_BYTES = 3 << 30  # no job here needs more than a few hundred MB


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


@dataclass
class Child:
    code: int
    stdout: bytes
    wall_s: float
    rss_mb: float
    cpu_s: float
    error: str | None  # set when the guard killed the child or it ran out of memory


class Runner:
    """Starts guarded child processes and records every operation."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.ops = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(self, argv: list[str]) -> Child:
        timeout = max(0.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        fired = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                preexec_fn=_limit_memory)

            def kill():
                fired.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        error = None
        if fired.is_set():
            error = f"killed after the {timeout:.0f} s timeout"
        elif b"MemoryError" in stderr:
            error = "hit the address-space limit"
        if error is None and code not in (0, 1):
            error = f"exit {code}: {stderr[-300:].decode(errors='replace').strip()}"
        return Child(code, out_path.read_bytes(), wall, usage.ru_maxrss / 1024,
                     usage.ru_utime + usage.ru_stime, error)

    def record(self, label: str, c: Child, error: str | None):
        self.ops.append({"op": label, "exit": c.code, "wall_s": c.wall_s,
                         "rss_mb": c.rss_mb, "cpu_s": c.cpu_s, "error": error})
        if error is not None:
            print(f"FAILED {label}: {error}", file=sys.stderr)

    def job(self, job: wl.Job) -> Child:
        c = self.child(job.argv)
        self.record(job.label, c, c.error or job.check(c.code, c.stdout))
        return c

    def setup(self, kind: str, arg: str) -> Child:
        c = self.child([str(HERE / "setup_probe.py"), kind, arg])
        self.record(f"set-up {kind} {arg}", c,
                    c.error or (None if c.code == 0 else f"exit {c.code}"))
        return c


def measure(runner: Runner, w: wl.Workload, seconds: float):
    """Set-up samples, then job lists until the next would pass --seconds."""
    start = time.perf_counter()
    setup = [runner.setup(*w.setup_inputs[i % len(w.setup_inputs)]).wall_s
             for i in range(w.setup_samples)]
    walls, rss = [], 0.0
    while True:
        t = time.perf_counter()
        for job in w.jobs:
            rss = max(rss, runner.job(job).rss_mb)
        walls.append(time.perf_counter() - t)
        now = time.perf_counter()
        if now - start + walls[-1] > seconds or now + walls[-1] > runner.deadline:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
    }
    return metrics, {"wall_s": walls, "setup_s": setup}


def traced(runner: Runner, w: wl.Workload, name: str, seed: int):
    """One untraced job list, then the in-process replay of the same jobs."""
    plan_jobs, cpu = [], 0.0
    t = time.perf_counter()
    for i, job in enumerate(w.jobs):
        c = runner.job(job)
        cpu += c.cpu_s
        out = runner.work / f"job-{i}.out"
        out.write_bytes(c.stdout)
        plan_jobs.append({"argv": job.argv[2:], "exit": c.code, "stdout": str(out)})
    wall = time.perf_counter() - t
    plan = runner.work / "plan.json"
    plan.write_text(json.dumps({"workload": name, "environment": environment(seed),
                                "jobs": plan_jobs}))
    side = OUT / f"{name}-seed{seed}-spans.json"
    c = runner.child([str(HERE / "replay.py"), str(plan), str(side)])
    error = c.error
    if error is None and c.code != 0:
        error = f"replay exit {c.code}: see {side.name}"
    runner.record("traced replay", c, error)
    if error is not None:
        return {}, {}
    spans = json.loads(side.read_text())
    metrics = dict(spans["metrics"])
    metrics["proc.cpu_s"] = cpu
    metrics["trace.coverage"] = spans["stage_total_s"] / wall
    return metrics, {"untraced_wall_s": wall, "side_file": str(side.relative_to(ROOT))}


def environment(seed: int) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, units: dict) -> dict:
    """One run of one workload; prints its summary and returns the result."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    runner = Runner(work, time.perf_counter() + RUN_LIMIT_S)
    values, samples = {}, {}
    try:
        base = None
        if name in wl.NEEDS_BASE:
            c = runner.job(wl.base_job())
            if runner.ops[-1]["error"] is None:
                base = c.stdout
        if base is not None or name not in wl.NEEDS_BASE:
            w = wl.WORKLOADS[name](seed, work, base)
            if trace:
                values, samples = traced(runner, w, name, seed)
            else:
                values, samples = measure(runner, w, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.ops)
    failed = sum(op["error"] is not None for op in runner.ops)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"FAILED: no value for {', '.join(missing)}", file=sys.stderr)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    env = environment(seed)
    result = {"correct": failed == 0 and not missing, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    failed_frac = failed / max(attempted, 1)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "workload": name, "seconds": seconds, "trace": trace, "environment": env,
        **result, "failed_frac": failed_frac, "samples": samples,
        "operations": runner.ops,
    }, indent=1))

    print(f"workload {name}  seed {seed}  trace {trace}  python {env['python']}  "
          f"numpy {env['numpy']}  nproc {env['nproc']}  cpu_count {env['cpu_count']}")
    for n, m in metrics.items():
        note = f"median of {len(samples[n])}" if n in samples else ""
        print(f"  {n:34} {m['value']:14.6g} {m['unit']:6} {note}")
    print(f"  {'failed_frac':34} {failed_frac:14.6g} {'ratio':6} "
          f"{failed} of {attempted} operations")
    print(f"  result file {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "omlq" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src/omlq'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, units)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
