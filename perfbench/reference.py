"""A fixed reference loop that measures how fast the host runs right now.

Host speed on a shared machine drifts by 20% or more over seconds to minutes,
which swamps run-to-run comparisons of wall time. The benchmark times this
loop just before every op and rescales the op's wall time to a host on which
the loop takes ``REF_SECONDS``.

The loop is a frozen copy of the augmenting-path search that dominates the
scan (``reserves._kernels.augment`` at the time the benchmark was defined),
run on a fixed graph with many failed searches. It imports nothing from
``reserves``, so changes to the library never change it.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

# median time of one reference() on the 2-vCPU Xeon VM the benchmark was
# defined on; normalized op times are seconds on a host this fast
REF_SECONDS = 0.075

_AGENTS, _CATEGORIES, _CAPACITY, _PASSES = 160, 20, 3, 3


def _search(u, indptr, cats, cap, used, slot_base, slots, match, visited):
    for k in range(indptr[u], indptr[u + 1]):
        c = cats[k]
        if visited[c]:
            continue
        visited[c] = True
        if used[c] < cap[c]:
            slots[slot_base[c] + used[c]] = u
            used[c] += 1
            match[u] = c
            return True
        for s in range(slot_base[c], slot_base[c] + used[c]):
            if _search(slots[s], indptr, cats, cap, used, slot_base, slots, match, visited):
                slots[s] = u
                match[u] = c
                return True
    return False


def _graph():
    rng = random.Random(3)
    rows = [[c for c in range(_CATEGORIES) if rng.random() < 0.5] for _ in range(_AGENTS)]
    indptr = np.zeros(_AGENTS + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    cats = np.array([c for r in rows for c in r], dtype=np.int64)
    return indptr, cats


_INDPTR, _CATS = _graph()


def reference() -> float:
    """Run the loop once; returns its wall time in seconds."""
    t0 = perf_counter()
    cap = np.full(_CATEGORIES, _CAPACITY, dtype=np.int64)
    slot_base = np.arange(_CATEGORIES, dtype=np.int64) * _CAPACITY
    used = np.zeros(_CATEGORIES, dtype=np.int64)
    slots = np.full(_CATEGORIES * _CAPACITY, -1, dtype=np.int64)
    match = np.full(_AGENTS, -1, dtype=np.int64)
    visited = np.zeros(_CATEGORIES, dtype=np.bool_)
    for _ in range(_PASSES):
        for u in range(_AGENTS):
            if match[u] < 0:
                visited[:] = False
                _search(u, _INDPTR, _CATS, cap, used, slot_base, slots, match, visited)
    return perf_counter() - t0
