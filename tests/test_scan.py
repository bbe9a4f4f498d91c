"""Chunked first-hit scanning: the reported witness is the least hit for
any worker count, and chunks after a hit are not started."""

import random
import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from omlq.scan import CHUNKS_PER_WORKER, first_hit, stripe_bounds


def scan_of(hits):
    """A scan over outer indices whose witnesses are the (outer, inner)
    pairs in hits, least first within each chunk."""

    def scan(lo, hi):
        found = [h for h in hits if lo <= h[0] < hi]
        return min(found) if found else None

    return scan


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 60).flatmap(
        lambda total: st.tuples(
            st.just(total),
            st.sets(st.tuples(st.integers(0, max(total - 1, 0)), st.integers(0, 5)),
                    max_size=6) if total else st.just(set()),
        )
    ),
    st.integers(1, 4),
)
def test_first_hit_is_the_least_hit(total_hits, workers):
    total, hits = total_hits
    assert first_hit(scan_of(hits), total, workers) == (min(hits) if hits else None)


def test_chunks_after_a_hit_are_not_started():
    started = []
    lock = threading.Lock()

    def scan(lo, hi):
        with lock:
            started.append(lo)
        if lo == 0:
            time.sleep(0.2)
        return (lo,)

    # every chunk has a hit, and the second one reports first
    assert first_hit(scan, 1000, workers=2) == (0,)
    assert len(started) <= 3 < 2 * CHUNKS_PER_WORKER


def test_first_hit_under_forced_thread_switches():
    # More workers than cores and a thread switch every microsecond: a lost
    # update of the shared chunk order would run a chunk twice or skip one.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(200):
            rng = random.Random(trial)
            total = rng.randrange(1, 400)
            hits = {(rng.randrange(total), 0) for _ in range(rng.randrange(4))}
            started = []

            def scan(lo, hi):
                started.append(lo)
                found = [h for h in hits if lo <= h[0] < hi]
                return min(found) if found else None

            assert first_hit(scan, total, workers=8) == (min(hits) if hits else None)
            assert len(started) == len(set(started))
            if not hits:
                chunks = stripe_bounds(total, 8 * CHUNKS_PER_WORKER)
                assert sorted(started) == [lo for lo, _ in chunks]
    finally:
        sys.setswitchinterval(interval)
