"""The benchmark's reference payloads, reproduced in process.

perfbench/ref/ holds the stdout of every benchmark job whose bytes are
pinned: verify boolean:3 all, verify mo:2 all, the mo:3 kernels and the
three seed-0 mutants of the boolean:3 quantale file.  Each job runs here
through omlq.cli.main, with the arguments the benchmark gives it: once as
the benchmark runs it, and once each with workers=1 and workers=2 passed
to check_quantale, dagger_kernel_report and run_verify.  The traced replay
of perfbench/replay.py calls those three with that keyword; it is unread,
so the bytes must not move.  Its exit code and stdout must pass the job's
own check in perfbench/workloads.py, which compares the bytes with the
reference.  The files are only read.
"""

import contextlib
import functools
import io
import sys
from pathlib import Path

import pytest

from omlq import cli, quantale, verify

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as wl  # noqa: E402


def run_cli(argv):
    """Exit code and stdout bytes of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def cli_args(job):
    """The job's CLI arguments."""
    assert job.argv[:2] == ["-m", "omlq.cli"]
    return job.argv[2:]


def pass_workers(monkeypatch, workers):
    """Call the entry points the traced replay probes with workers given."""
    for module, name in ((quantale, "check_quantale"), (verify, "check_quantale"),
                         (verify, "dagger_kernel_report"), (verify, "run_verify")):
        monkeypatch.setattr(module, name,
                            functools.partial(getattr(module, name), workers=workers))


@pytest.fixture(scope="module")
def mutant_base():
    job = wl.base_job()
    code, out = run_cli(cli_args(job))
    assert job.check(code, out) is None
    return out


@pytest.mark.parametrize("workers", [None, 1, 2])
@pytest.mark.parametrize("name", ["verify-b3", "verify-mo2", "kernels-mo3", "mutants-b3"])
def test_jobs_reproduce_the_reference_bytes(name, workers, mutant_base, tmp_path,
                                            monkeypatch):
    if workers is not None:
        pass_workers(monkeypatch, workers)
    workload = wl.WORKLOADS[name](wl.DEFAULT_SEED, tmp_path, mutant_base)
    pinned = [job for job in workload.jobs if job.argv[2] != "lin"]
    assert pinned  # the lin --count-only jobs of kernels-mo3 pin a count only
    for job in pinned:
        assert job.check(*run_cli(cli_args(job))) is None, job.label
