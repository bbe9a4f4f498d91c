"""Row scans of run_laws: each law's rows are read in order on the calling
thread, the reported witness is the least hit, and no row after the first
row with a hit is read."""

import random
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omlq.lattice import Law, run_laws

INNER = 6


def scan_of(hits, read=None):
    """A per-row mask over range(INNER) marking the (row, inner) pairs in
    hits; read, when given, records each row the scan is asked for."""

    def scan(i):
        if read is not None:
            read.append(i)
        mask = np.zeros(INNER, dtype=bool)
        mask[[j for r, j in hits if r == i]] = True
        return mask

    return scan


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 60).flatmap(
        lambda total: st.tuples(
            st.just(total),
            st.sets(st.tuples(st.integers(0, max(total - 1, 0)), st.integers(0, INNER - 1)),
                    max_size=6) if total else st.just(set()),
        )
    ),
)
def test_first_hit_is_the_least_hit(total_hits):
    total, hits = total_hits
    report = run_laws("scan", int, [Law("law", scan_of(hits), total)])
    assert report.witness("law") == (min(hits) if hits else None)


def test_chunks_after_a_hit_are_not_started():
    # Every row from 3 on has a hit: rows 0..3 are read, in order, and no
    # row after the first hit is; a law without hits reads every row once.
    read = []
    hits = {(i, j) for i in range(3, 1000) for j in (1, 4)}
    report = run_laws("scan", int, [Law("hit", scan_of(hits, read), 1000),
                                    Law("clean", scan_of(set(), read), 5)])
    assert report.witness("hit") == (3, 1)
    assert report.witness("clean") is None
    assert read == [0, 1, 2, 3, 0, 1, 2, 3, 4]


def test_first_hit_under_forced_thread_switches():
    # A thread switch every microsecond and a busy second thread: the scan
    # still reads each row once, in order, on the calling thread, and
    # reports the least hit.
    interval = sys.getswitchinterval()
    stop = threading.Event()
    busy = threading.Thread(target=lambda: [None for _ in iter(stop.is_set, True)])
    sys.setswitchinterval(1e-6)
    busy.start()
    try:
        caller = threading.get_ident()
        for trial in range(200):
            rng = random.Random(trial)
            total = rng.randrange(1, 400)
            hits = {(rng.randrange(total), rng.randrange(INNER)) for _ in range(rng.randrange(4))}
            read, threads = [], set()
            scan = scan_of(hits, read)

            def on_caller(i):
                threads.add(threading.get_ident())
                return scan(i)

            report = run_laws("scan", int, [Law("law", on_caller, total)])
            least = min(hits) if hits else None
            assert report.witness("law") == least
            assert read == list(range(least[0] + 1 if hits else total))
            assert threads == {caller}
    finally:
        stop.set()
        busy.join()
        sys.setswitchinterval(interval)
