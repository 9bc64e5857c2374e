"""Augmenting-path b-matching kernels over flat CSR lists.

This is the one hot loop in the package: every rule queries maximum matching
sizes of (reduced) reservation graphs, and the rejection scan does so once
per agent. The kernels are plain Python over lists of ints, which are the
cheapest containers to index from the interpreter.

Conventions: left vertices are agent ids ``0..n-1`` (rows of the CSR), right
vertices are dense category columns. ``epos[k]`` is the priority position of
the edge's agent in the edge's category; an edge is live iff its agent is
alive and ``epos[k] <= thr[c]``. ``THR_INF`` means "no pruning". Matched
agents for a category ``c`` occupy ``slots[slot_base[c] : slot_base[c] +
used[c]]``, and ``spos``, parallel to ``slots``, holds each holder's
position in her category: every kernel that writes a slot writes its
position with it, read off the edge that seats the agent. The column side is
a second CSR over the same edges: ``cagents[cptr[c] : cptr[c + 1]]`` are
column ``c``'s agents, sorted by their positions ``cpos``, so the live ones
are a prefix up to ``thr[c]``.

Two searches find augmenting paths. The forward one (``augment``) starts at
an unmatched agent and builds matchings from scratch. The backward one
(``fill``) starts at a column with spare capacity and re-augments after a
tentative removal that kills a pair; a removal that kills none leaves the
matching maximum, and the scan commits it without a pass. A removal frees
capacity in a few columns, and a failed backward search explores only the
columns from which some spare column can be reached. Both rely on Kuhn's
lemma ("The Hungarian method for the assignment problem"): if no augmenting
path starts at a vertex, none does after augmenting along other paths. It
holds for columns and agents alike, so one pass over either side reaches
maximum cardinality. Both are loops over an explicit stack rather than
recursive calls, so a path may be as long as the columns are many, whatever
Python's recursion limit.

Every pass also stops at the capacity bound. No matching holds more pairs
than its columns hold units, so once the units are all placed (or, in
``fill_pass``, once the lost pairs are made up) no agent can be seated and
no augmenting path can end anywhere: the rest of the pass could only fail,
and a failed search changes nothing. A pass therefore costs what the units
need, not what the agents number.
"""

from __future__ import annotations

THR_INF = 2**31


def greedy(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots, spos):
    """Seed pass: first live category with spare capacity, in scan order,
    until every unit is placed."""
    got = 0
    room = sum(cap) - sum(used)
    for u in order:
        if got == room:
            break
        if not alive[u] or match[u] >= 0:
            continue
        for k in range(indptr[u], indptr[u + 1]):
            c = cats[k]
            p = epos[k]
            if p <= thr[c] and used[c] < cap[c]:
                s = slot_base[c] + used[c]
                slots[s] = u
                spos[s] = p
                used[c] += 1
                match[u] = c
                got += 1
                break
    return got


def augment(u, indptr, cats, epos, thr, cap, used, slot_base, slots, spos, match, visited):
    """Try to match ``u``, rerouting already-matched agents along an
    alternating path. Each category is entered at most once per search, a
    full one through its holders in slot order. The stack keeps one frame
    per hop, (agent, next edge, column, holder's slot): the agent takes
    that slot, at the position of the edge before the next one, once a
    path is found."""
    stack = []
    k = indptr[u]
    while True:
        for k in range(k, indptr[u + 1]):
            c = cats[k]
            if epos[k] > thr[c] or visited[c]:
                continue
            visited[c] = True
            if used[c] < cap[c]:
                s = slot_base[c] + used[c]
                slots[s] = u
                spos[s] = epos[k]
                used[c] += 1
                match[u] = c
                for u, k, c, s in stack:
                    slots[s] = u
                    spos[s] = epos[k - 1]
                    match[u] = c
                return True
            if used[c]:
                s = slot_base[c]
                stack.append((u, k + 1, c, s))
                u = slots[s]
                k = indptr[u]
                break
        else:
            # u's search failed: try the next holder of the column above it
            if not stack:
                return False
            u, k, c, s = stack.pop()
            s += 1
            if s < slot_base[c] + used[c]:
                stack.append((u, k, c, s))
                u = slots[s]
                k = indptr[u]


def augment_pass(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots,
                 spos):
    """One augmentation attempt per unmatched agent, in scan order. Starting
    from any valid partial matching, this reaches maximum cardinality; it
    stops once every unit is placed.

    ``visited`` is cleared only after a successful augmentation (Kuhn's dead
    marks): a category entered by a failed search cannot reach spare capacity
    until the matching changes, so skipping it leaves every search's path as
    it would be with a fresh ``visited``."""
    got = 0
    room = sum(cap) - sum(used)
    n_cols = len(cap)
    visited = [False] * n_cols
    for u in order:
        if got == room:
            break
        if not alive[u] or match[u] >= 0:
            continue
        if augment(u, indptr, cats, epos, thr, cap, used, slot_base, slots, spos, match,
                   visited):
            got += 1
            visited = [False] * n_cols
    return got


def fill(c, s, alive, match, cptr, cagents, cpos, thr, used, slot_base, slots, spos, visited,
         log):
    """Put a live agent into slot ``s`` of column ``c`` along an alternating
    path that ends at an unmatched live agent, searching backwards: ``c``'s
    agents in priority order, up to the first position above ``thr[c]``. A
    matched agent's column is entered at most once per search; the caller
    marks ``c`` itself. Each write to ``slots``, ``spos`` and ``match`` on
    the path is appended to ``log`` as (list, index, old value) before it is
    made, the hop nearest the unmatched agent first. The stack keeps one
    frame per column above the current one: (column, slot, next edge)."""
    stack = []
    k = cptr[c]
    while True:
        t = thr[c]
        end = cptr[c + 1]
        # the hottest loop: kept apart from the path's writes, so that its
        # jumps are short (one byte of argument in the bytecode)
        while k < end and cpos[k] <= t:
            a = cagents[k]
            k += 1
            if alive[a]:
                m = match[a]
                if m < 0 or not visited[m]:
                    break
        else:
            # c's search failed: resume the column above it
            if not stack:
                return False
            c, s, k = stack.pop()
            continue
        if m < 0:
            # shift every agent on the path into the column above it
            while True:
                log.append((slots, s, slots[s]))
                log.append((spos, s, spos[s]))
                log.append((match, a, match[a]))
                slots[s] = a
                spos[s] = cpos[k - 1]
                match[a] = c
                if not stack:
                    return True
                c, s, k = stack.pop()
                a = cagents[k - 1]
        visited[m] = True
        stack.append((c, s, k))
        c, s, k = m, slots.index(a, slot_base[m], slot_base[m] + used[m]), cptr[m]


def fill_pass(alive, match, cptr, cagents, cpos, thr, cap, used, slot_base, slots, spos, need,
              log):
    """One pass over the columns with spare capacity, filling each until it
    is full or its search fails, and stopping after ``need`` augmentations.
    Starting from any valid partial matching, with ``need`` at least the
    missing size, this reaches maximum cardinality: every augmenting path
    runs from a spare column to an unmatched agent, augmenting never empties
    a slot, and a column whose search failed stays without a path (Kuhn's
    lemma). Dead marks follow ``augment_pass``: a column entered by a failed
    search cannot reach an unmatched agent until the matching changes, so the
    marks are kept across failures and cleared after a success. Every write
    to ``used``, ``slots``, ``spos`` and ``match`` is appended to ``log`` as
    (list, index, old value), so replaying it newest first undoes the pass."""
    got = 0
    n_cols = len(cap)
    visited = [False] * n_cols
    for c in range(n_cols):
        if got == need:
            break
        while got < need and used[c] < cap[c] and not visited[c]:
            visited[c] = True
            if not fill(c, slot_base[c] + used[c], alive, match, cptr, cagents, cpos, thr,
                        used, slot_base, slots, spos, visited, log):
                break
            log.append((used, c, used[c]))
            used[c] += 1
            got += 1
            visited = [False] * n_cols
    return got
