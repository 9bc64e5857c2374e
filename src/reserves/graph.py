"""The matching engine: maximum b-matchings of the reservation graph.

The reservation graph of an instance joins each agent to every category she
is eligible for; rejecting agents both removes them and prunes any edge a
rejected agent outranks. Matching sizes of such graphs drive every rule, and
``_RejectionEngine`` computes them all: only it knows the CSR layout and
calls the kernels. It lays the CSR out straight from each category's
eligible tiers. ``remove`` drops one agent and re-augments, logging every
list write it makes, kernels' path writes included, as (list, index, old
value) to a log its caller holds; ``revert`` replays such a log newest
first. Nothing n-long is copied. ``scan`` is the one scan loop, behind the
rejection scan and srr's early grants, and ``fresh_matching`` gives the
deterministic maximum matching of the graph the engine holds.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, repeat
from operator import sub
from typing import Iterable, Sequence

from . import _kernels
from .model import Instance, Matching


class _RejectionEngine:
    """A maximum matching of an instance's graph, re-augmented after removals.

    Column ``j`` is category ``cat_ids[j]``, with its quota as capacity and
    its eligible tiers as edges. The edges are laid out by column in
    priority order for backward searches: a strict ranking's eligible ids
    are one slice of its flat ids, and a tied ranking's tiers are laid out
    agent by agent, a tier of two or more sorted by id. The rows, for
    forward searches, are transposed from the columns by counting sort, so
    each row lists its columns in increasing order, and an agent's position
    in a column is found by bisecting her row. The engine holds the two
    CSRs, the thresholds and the matching: O(agents + edges + units). Every
    agent starts alive. An edge is live while its agent is alive and its
    position is at most its column's threshold, which pruning lowers.

    A caller commits a removal by dropping its log, or, inside a removal it
    may still revert, by appending the log to that removal's log; it undoes
    one with ``revert``. ``scan`` commits or reverts each of its removals at
    once; the oracle's F-set walk nests them.
    """

    def __init__(self, inst: Instance, cat_ids: Sequence[int]):
        n, n_cols = inst.n, len(cat_ids)
        self.cat_ids = tuple(cat_ids)
        cptr: list[int] = [0]
        cagents: list[int] = []
        cpos: list[int] = []
        deg = [0] * n
        for c in self.cat_ids:
            ranking = inst.categories[c].ranking
            tiers, cutoff, flat = ranking.tiers, ranking.cutoff, ranking._flat
            if len(flat) == len(tiers):  # strict: no tier is empty, so each holds one agent
                column = flat[:cutoff]
                cagents += column
                cpos += range(cutoff)
                for a in column:
                    deg[a] += 1
            else:
                for t, tier in enumerate(tiers[:cutoff]):
                    for a in sorted(tier) if len(tier) > 1 else tier:
                        cagents.append(a)
                        cpos.append(t)
                        deg[a] += 1
            cptr.append(len(cagents))
        indptr = [0, *accumulate(deg)]
        cats, epos = [0] * len(cagents), [0] * len(cagents)
        nxt = indptr[:-1]  # each row's next free edge, filled column by column
        cols = chain.from_iterable(map(repeat, range(n_cols), map(sub, cptr[1:], cptr)))
        for a, p, j in zip(cagents, cpos, cols):
            e = nxt[a]
            nxt[a] = e + 1
            cats[e] = j
            epos[e] = p
        self.cptr, self.cagents, self.cpos = cptr, cagents, cpos
        self.indptr, self.cats, self.epos = indptr, cats, epos
        self.cap = [min(inst.categories[c].quota, max(n, 1)) for c in self.cat_ids]
        self.slot_base = [0, *accumulate(self.cap)][:n_cols]
        self.thr = [_kernels.THR_INF] * n_cols
        self.alive = [True] * n
        self.order = inst.baseline  # the order matchings are solved in
        self.match, self.used, self.slots = self._solve()
        self._size = sum(self.used)
        self._fill_args = (self.cptr, self.cagents, self.cpos, self.thr, self.cap, self.used,
                           self.slot_base, self.slots)

    def _solve(self) -> tuple[list[int], list[int], list[int]]:
        """A maximum matching of the live graph from scratch: (match, used, slots)."""
        match = [-1] * len(self.alive)
        used = [0] * len(self.cap)
        slots = [-1] * sum(self.cap)
        args = (self.indptr, self.cats, self.epos, self.thr, self.cap, used,
                self.slot_base, slots)
        _kernels.greedy(self.order, self.alive, match, *args)
        _kernels.augment_pass(self.order, self.alive, match, *args)
        return match, used, slots

    def size(self) -> int:
        return self._size

    def scan(self, order: Iterable[int], prune: bool,
             limit: int | None = None) -> list[tuple[int, int]]:
        """Remove each live agent of ``order`` in turn (pruning outranked
        edges when asked), keep the removal when the size stays at its value
        on entry and revert it otherwise, and stop once ``limit`` removals
        are kept. Returns (agent, tested size) in scan order; an agent's
        removal is kept exactly when her size equals the size on entry.

        The rejection scan is the scan up the baseline with pruning; srr's
        early grants are the scan down it without pruning, up to the number
        of early units. A kept removal commits by dropping its log, and a
        reverted one replays it; a step whose agent is unmatched and lowers
        no threshold writes only her alive flag."""
        target, alive = self._size, self.alive
        log: list = []
        tested = []
        kept = 0
        for i in order:
            if kept == limit:
                break
            if alive[i]:
                size = self.remove(i, prune, log)
                if size == target:
                    kept += 1
                else:
                    self.revert(log, target)
                log.clear()
                tested.append((i, size))
        return tested

    def remove(self, i: int, prune: bool, log: list) -> int:
        """Drop agent ``i``, re-augment, and return the new size. Every list
        write is logged to ``log`` as (list, index, old value).

        Only the pairs that die are unmatched: ``i``'s own and, in a column
        whose threshold pruning lowers, those of agents now ranked below it.
        A holder's position in her column is read off her row, whose columns
        are in increasing order, by bisection.
        The new graph is a subgraph of the old one, so its maximum is at most
        the current size, and re-augmentation stops once the lost pairs are
        made up.

        Re-augmentation is one backward pass from the columns with spare
        capacity (``_kernels.fill_pass``). Every augmenting path joins a
        spare column to an unmatched agent, and a column whose search fails
        stays without one while other paths are augmented, so one pass, with
        the dead marks of failed searches kept, reaches the maximum. The pass
        may choose other paths than a from-scratch ``_solve`` would, so the
        engine's own matching can differ from ``fresh_matching``; only the
        size leaves it, and a maximum size is unique."""
        match, thr, used, slots, alive = self.match, self.thr, self.used, self.slots, self.alive
        indptr, cats, epos = self.indptr, self.cats, self.epos
        alive[i] = False
        log.append((alive, i, True))
        hit = set()  # columns that may hold a dead pair
        if match[i] >= 0:
            hit.add(match[i])
        if prune:
            for k in range(indptr[i], indptr[i + 1]):
                c = cats[k]
                if epos[k] < thr[c]:
                    log.append((thr, c, thr[c]))
                    thr[c] = epos[k]
                    hit.add(c)
        dropped = 0
        for c in hit:
            t = thr[c]
            base, end = self.slot_base[c], self.slot_base[c] + used[c]
            out = base
            for s in range(base, end):
                a = slots[s]
                if alive[a] and epos[bisect_left(cats, c, indptr[a], indptr[a + 1])] <= t:
                    if out < s:
                        log.append((slots, out, slots[out]))
                        slots[out] = a
                    out += 1
                else:
                    log.append((match, a, c))
                    match[a] = -1
            if out < end:
                log.append((used, c, used[c]))
                used[c] = out - base
                dropped += end - out
        if dropped:
            got = _kernels.fill_pass(alive, match, *self._fill_args, dropped, log)
            self._size += got - dropped
        return self._size

    def revert(self, log: list, size: int) -> None:
        """Replay ``log`` newest first, back to the state of size ``size``."""
        for values, k, old in reversed(log):
            values[k] = old
        self._size = size

    def fresh_matching(self) -> Matching:
        """Deterministic maximum matching of the current reduced graph,
        computed from scratch with the same policy as the initial one."""
        match = self._solve()[0]
        return Matching({a: self.cat_ids[c] for a, c in enumerate(match) if c >= 0})

