"""The matching engine: maximum b-matchings of the reservation graph.

The reservation graph of an instance joins each agent to every category she
is eligible for; rejecting agents both removes them and prunes any edge a
rejected agent outranks. Matching sizes of such graphs drive every rule, and
``_RejectionEngine`` computes them all: only it knows the CSR layout and
calls the kernels. It lays the CSR out straight from each category's
eligible tiers, logs every list write a tentative removal makes, kernels'
path writes included, as (list, index, old value), and undoes the removal
by replaying that log newest first; nothing n-long is copied. The rejection
scan itself is the engine's ``reject_scan``, and ``fresh_matching`` gives
the deterministic maximum matching of the graph the engine holds.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Sequence

from . import _kernels
from .model import Instance, Matching


class _RejectionEngine:
    """A maximum matching of a CSR graph, re-augmented after tentative removals.

    ``tiers[j]`` lists column ``j``'s agents by priority position, and column
    ``j`` is category ``cat_ids[j]`` with capacity ``quotas[j]``. The edges
    are laid out by column in priority order (a tier's agents in id order;
    only tiers of two or more are sorted) for backward searches, and from
    that by row for forward ones. The rows are filled column by column, so
    each row lists its columns in increasing order, and an agent's position
    in a column is found by bisecting her row. The engine holds the two
    CSRs, the thresholds and the matching: O(agents + edges + units). An
    edge is live while its agent is alive and its position is at most its
    column's threshold, which pruning lowers. Agents are scanned in
    ``order``. Each
    ``test_remove`` pushes a trail record that its ``keep`` or ``undo`` pops,
    so tests may nest and be undone innermost first; undoing a test also
    undoes the tests kept inside it. ``reject_scan`` and the tests share one
    removal routine (``_remove``) and one revert routine (``_revert``).
    """

    def __init__(self, n: int, tiers: Sequence[Sequence[Sequence[int]]], cat_ids: Sequence[int],
                 quotas: Sequence[int], active: Iterable[int], order: Iterable[int]):
        n_cols = len(cat_ids)
        self.cat_ids = tuple(cat_ids)
        self.cptr = [0]
        self.cagents: list[int] = []
        self.cpos: list[int] = []
        cagents, cpos = self.cagents, self.cpos
        deg = [0] * n
        for col in tiers:
            for t, tier in enumerate(col):
                for a in sorted(tier) if len(tier) > 1 else tier:
                    cagents.append(a)
                    cpos.append(t)
                    deg[a] += 1
            self.cptr.append(len(cagents))
        self.indptr = [0, *accumulate(deg)]
        self.cats = [0] * len(cagents)
        self.epos = [0] * len(cagents)
        nxt = self.indptr[:-1]  # each row's next free edge, filled column by column
        for j in range(n_cols):
            for k in range(self.cptr[j], self.cptr[j + 1]):
                e = nxt[cagents[k]]
                nxt[cagents[k]] = e + 1
                self.cats[e], self.epos[e] = j, cpos[k]
        self.cap = [min(q, max(n, 1)) for q in quotas]
        self.slot_base = [0, *accumulate(self.cap)][:n_cols]
        self.thr = [_kernels.THR_INF] * n_cols
        active = set(active)
        self.alive = [a in active for a in range(n)]
        self.order = list(order)
        self.match, self.used, self.slots = self._solve()
        self._size = sum(self.used)
        self._fill_args = (self.cptr, self.cagents, self.cpos, self.thr, self.cap, self.used,
                           self.slot_base, self.slots)
        self._trail: list[list] = []

    @classmethod
    def of(cls, inst: Instance, cat_ids: Sequence[int]) -> "_RejectionEngine":
        """Engine on ``inst``'s eligibility edges into ``cat_ids``, weighted
        by priority position (an eligible agent's tier index), every agent
        alive, scanning in baseline order."""
        rankings = [inst.categories[c].ranking for c in cat_ids]
        return cls(inst.n, [r.tiers[:r.cutoff] for r in rankings], cat_ids,
                   [inst.categories[c].quota for c in cat_ids], range(inst.n), inst.baseline)

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

    def reject_scan(self) -> list[tuple[int, int]]:
        """Walk the live agents from the bottom of the scan order and reject
        each one whose removal, with pruning, keeps the matching size.
        Returns (agent, tested size) in scan order; an agent is rejected
        exactly when her size equals the size on entry. Call it with no test
        pending; the engine ends on the final reduced graph.

        A rejection commits by dropping its step's log and a kept agent is
        reverted by replaying it; a step whose agent is unmatched and lowers
        no threshold writes only her alive flag."""
        target, alive = self._size, self.alive
        log: list = []
        tested = []
        for i in reversed(self.order):
            if alive[i]:
                size = self._remove(i, True, log)
                if size != target:
                    self._revert(log, target)
                log.clear()
                tested.append((i, size))
        return tested

    def test_remove(self, i: int, prune: bool) -> int:
        """Tentatively drop agent ``i`` (pruning outranked edges when asked)
        and return the new maximum matching size. Follow with keep()/undo(),
        possibly after further tests that are themselves kept or undone.
        The trail record holds the removal's log and the size before it."""
        log: list = []
        self._trail.append((log, self._size))
        return self._remove(i, prune, log)

    def keep(self) -> None:
        """Commit the latest pending test_remove. Inside a pending test, its
        log is appended to that test's log, so undoing the outer test undoes
        this one too."""
        log, _ = self._trail.pop()
        if self._trail:
            self._trail[-1][0].extend(log)

    def undo(self) -> None:
        """Revert the latest pending test_remove, with the tests kept inside it."""
        self._revert(*self._trail.pop())

    def _remove(self, i: int, prune: bool, log: list) -> int:
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

    def _revert(self, log: list, size: int) -> None:
        """Replay ``log`` newest first, back to the state of size ``size``."""
        for values, k, old in reversed(log):
            values[k] = old
        self._size = size

    def fresh_matching(self) -> Matching:
        """Deterministic maximum matching of the current reduced graph,
        computed from scratch with the same policy as the initial one."""
        match = self._solve()[0]
        return Matching({a: self.cat_ids[c] for a, c in enumerate(match) if c >= 0})

