"""The benchmark's reference payloads, reproduced in process.

perfbench/ref/ holds the stdout of every benchmark job whose bytes are
pinned: verify boolean:3 all, verify mo:2 all, the mo:3 kernels and the
three seed-0 mutants of the boolean:3 quantale file.  Each job runs here
through omlq.cli.main without --workers, as the benchmark runs it, and at
1 and 2 workers.  Its exit code and stdout must pass the job's own check
in perfbench/workloads.py, which compares the bytes with the reference.
The files are only read.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from omlq import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as wl  # noqa: E402


def run_cli(argv):
    """Exit code and stdout bytes of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def cli_args(job, workers):
    """The job's CLI arguments; workers None leaves the default."""
    assert job.argv[:2] == ["-m", "omlq.cli"]
    flag = [] if workers is None else ["--workers", str(workers)]
    return [*job.argv[2:], *flag]


@pytest.fixture(scope="module")
def mutant_base():
    job = wl.base_job()
    code, out = run_cli(cli_args(job, 1))
    assert job.check(code, out) is None
    return out


@pytest.mark.parametrize("workers", [None, 1, 2])
@pytest.mark.parametrize("name", ["verify-b3", "verify-mo2", "kernels-mo3", "mutants-b3"])
def test_jobs_reproduce_the_reference_bytes(name, workers, mutant_base, tmp_path):
    workload = wl.WORKLOADS[name](wl.DEFAULT_SEED, tmp_path, mutant_base)
    pinned = [job for job in workload.jobs if job.argv[2] != "lin"]
    assert pinned  # the lin --count-only jobs of kernels-mo3 pin a count only
    for job in pinned:
        assert job.check(*run_cli(cli_args(job, workers))) is None, job.label
