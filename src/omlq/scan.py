"""Deterministic striped scanning for the exhaustive checkers.

lattice.run_laws calls first_hit for every law that has a row of
witnesses per outer index; a linear law is one vector comparison and
does not come here.  A scan iterates an outer index range that may be
partitioned across worker threads.  Every scan reports witnesses whose
first component is the outer index, so the least witness of a chunk is
below every witness of a later chunk, and the first hit in chunk order is
the lexicographically smallest one regardless of the partitioning.
"""

import threading

# Chunks per worker: a hit in an early chunk stops the scan after the
# chunks already running, not after the rest of a whole stripe.
CHUNKS_PER_WORKER = 4


def stripe_bounds(total, parts):
    w = max(1, min(int(parts), total))
    base, rem = divmod(total, w)
    bounds = []
    lo = 0
    for i in range(w):
        hi = lo + base + (1 if i < rem else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


def first_hit(scan, total, workers=1):
    """Least witness over range(total), or None.

    scan(lo, hi) must inspect outer indices in ascending order and return
    the least witness tuple within the chunk, with the outer index as its
    first component, or None.  Workers take chunks in ascending order, the
    calling thread among them, and take none past a chunk with a hit: every
    chunk before the least such chunk has run, so its hit is the least.
    """
    if total <= 0:
        return None
    workers = max(1, int(workers))
    bounds = stripe_bounds(total, 1 if workers == 1 else workers * CHUNKS_PER_WORKER)
    if len(bounds) == 1:
        return scan(*bounds[0])
    from concurrent.futures import ThreadPoolExecutor  # only threaded scans pay its import

    hits = {}
    order = iter(range(len(bounds)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                k = next(order, len(bounds))
                if k >= min(hits, default=len(bounds)):
                    return
            hit = scan(*bounds[k])
            if hit is not None:
                with lock:
                    hits[k] = hit

    threads = min(workers, len(bounds))
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        helpers = [pool.submit(work) for _ in range(threads - 1)]
        work()
        for f in helpers:
            f.result()
    return hits[min(hits)] if hits else None
