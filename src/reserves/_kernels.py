"""Augmenting-path b-matching kernels over flat CSR lists.

This is the one hot loop in the package: every rule queries maximum matching
sizes of (reduced) reservation graphs, and the rejection scan does so once
per agent. The kernels are plain Python over lists of ints, which are the
cheapest containers to index from the interpreter.

Conventions: left vertices are agent ids ``0..n-1`` (rows of the CSR), right
vertices are dense category columns. ``epos[k]`` is the priority position of
the edge's agent in the edge's category; an edge is live iff
``epos[k] <= thr[c]``. ``THR_INF`` means "no pruning". Matched agents for a
category ``c`` occupy ``slots[slot_base[c] : slot_base[c] + used[c]]``.
"""

from __future__ import annotations

THR_INF = 2**31


def greedy(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots):
    """Seed pass: first live category with spare capacity, in scan order."""
    got = 0
    for u in order:
        if not alive[u] or match[u] >= 0:
            continue
        for k in range(indptr[u], indptr[u + 1]):
            c = cats[k]
            if epos[k] <= thr[c] and used[c] < cap[c]:
                slots[slot_base[c] + used[c]] = u
                used[c] += 1
                match[u] = c
                got += 1
                break
    return got


def augment(u, indptr, cats, epos, thr, cap, used, slot_base, slots, match, visited):
    """Try to match ``u``, rerouting already-matched agents along an
    alternating path. Each category is entered at most once per search."""
    for k in range(indptr[u], indptr[u + 1]):
        c = cats[k]
        if epos[k] > thr[c] or visited[c]:
            continue
        visited[c] = True
        if used[c] < cap[c]:
            slots[slot_base[c] + used[c]] = u
            used[c] += 1
            match[u] = c
            return True
        for s in range(slot_base[c], slot_base[c] + used[c]):
            if augment(slots[s], indptr, cats, epos, thr, cap, used, slot_base, slots, match,
                       visited):
                slots[s] = u
                match[u] = c
                return True
    return False


def augment_pass(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots,
                 need):
    """One augmentation attempt per unmatched agent, in scan order, stopping
    after ``need`` augmentations. Starting from any valid partial matching,
    with ``need`` at least the missing size, this reaches maximum cardinality.

    ``visited`` is cleared only after a successful augmentation (Kuhn's dead
    marks): a category entered by a failed search cannot reach spare capacity
    until the matching changes, so skipping it leaves every search's path as
    it would be with a fresh ``visited``."""
    got = 0
    n_cols = len(cap)
    visited = [False] * n_cols
    for u in order:
        if got >= need:
            break
        if not alive[u] or match[u] >= 0:
            continue
        if augment(u, indptr, cats, epos, thr, cap, used, slot_base, slots, match, visited):
            got += 1
            visited = [False] * n_cols
    return got
