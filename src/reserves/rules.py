"""Allocation rules.

The central rule is the rejection scan (``rr``): walk the baseline from the
bottom, reject an agent exactly when a full-size matching survives without
her and without giving her justified envy, then match everyone left. ``srr``
wraps it with an unreserved category whose units are handed out partly
before and partly after the preferential ones. The classical one-category
rules (minimum guarantees, over-and-above) and an agent-proposing deferred
acceptance baseline are provided for comparison, plus a soft-reserves
variant that hands leftover preferential units to ineligible agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from . import _kernels
from .model import Instance, Matching, ValidationError


class PreconditionError(ValueError):
    """A rule was invoked on an instance outside its stated domain."""


@dataclass(frozen=True)
class RrDecision:
    agent: int
    rejected: bool
    ms_tested: int


@dataclass(frozen=True)
class RrTrace:
    """Scan record: per-agent decisions in scan order (lowest baseline first)."""

    rejected: frozenset[int]
    decisions: tuple[RrDecision, ...]
    ms_total: int


@dataclass(frozen=True)
class UnreservedSplit:
    """How many unreserved units are processed before / after the
    preferential categories."""

    q1: int
    q2: int


class _RejectionEngine:
    """Incremental max-matching state for rejection scans.

    Keeps a maximum matching of the current reduced graph and re-augments
    after tentative removals instead of recomputing from scratch; sizes agree
    with a fresh computation by the standard augmenting-path argument.
    """

    def __init__(self, inst: Instance, cat_ids: Sequence[int], active: Iterable[int]):
        self.inst = inst
        self.cat_ids = tuple(cat_ids)
        n = inst.n
        n_cols = len(self.cat_ids)
        col = {c: j for j, c in enumerate(self.cat_ids)}
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for c in self.cat_ids:
            for a in inst.agents_eligible_for(c):
                rows[a].append((col[c], inst.position(c, a)))
        self.indptr = [0]
        self.cats: list[int] = []
        self.epos: list[int] = []
        # pos[j][a]: priority position of agent a in column j (edges only)
        self.pos = [[0] * n for _ in range(n_cols)]
        for a in range(n):
            for j, pos in sorted(rows[a]):
                self.cats.append(j)
                self.epos.append(pos)
                self.pos[j][a] = pos
            self.indptr.append(len(self.cats))
        bound = max(n, 1)
        self.cap = [min(inst.categories[c].quota, bound) for c in self.cat_ids]
        self.slot_base = [0, *accumulate(self.cap)][:n_cols]
        self.slots = [-1] * sum(self.cap)
        self.used = [0] * n_cols
        self.thr = [_kernels.THR_INF] * n_cols
        self.alive = [False] * n
        for a in active:
            self.alive[a] = True
        self.order = list(inst.baseline)
        self.match = [-1] * n
        self._args = (self.indptr, self.cats, self.epos, self.thr, self.cap,
                      self.used, self.slot_base, self.slots)
        _kernels.greedy(self.order, self.alive, self.match, *self._args)
        _kernels.augment_pass(self.order, self.alive, self.match, *self._args, n)
        self.ms = self.size()
        self._snap = None

    def size(self) -> int:
        return len(self.match) - self.match.count(-1)

    def test_remove(self, i: int, prune: bool) -> int:
        """Tentatively drop agent ``i`` (pruning outranked edges when asked)
        and return the new maximum matching size. Follow with keep()/undo().

        Only the pairs that die are unmatched: ``i``'s own and, in a column
        whose threshold pruning lowers, those of agents now ranked below it.
        The new graph is a subgraph of the old one, so its maximum is at most
        the current size: if no pair died the matching is still maximum, and
        otherwise re-augmentation stops once the lost pairs are made up."""
        match, thr, used, slots, alive = self.match, self.thr, self.used, self.slots, self.alive
        self._snap = (i, match[:], thr[:], used[:], slots[:])
        alive[i] = False
        hit = set()  # columns that may hold a dead pair
        if match[i] >= 0:
            hit.add(match[i])
        if prune:
            cats, epos = self.cats, self.epos
            for k in range(self.indptr[i], self.indptr[i + 1]):
                c = cats[k]
                if epos[k] < thr[c]:
                    thr[c] = epos[k]
                    hit.add(c)
        dropped = 0
        for c in hit:
            pos, t = self.pos[c], thr[c]
            base, end = self.slot_base[c], self.slot_base[c] + used[c]
            out = base
            for s in range(base, end):
                a = slots[s]
                if alive[a] and pos[a] <= t:
                    slots[out] = a
                    out += 1
                else:
                    match[a] = -1
            used[c] = out - base
            dropped += end - out
        if dropped:
            _kernels.augment_pass(self.order, alive, match, *self._args, dropped)
        return self.size()

    def keep(self) -> None:
        self._snap = None

    def undo(self) -> None:
        i, match, thr, used, slots = self._snap
        self.match[:] = match
        self.thr[:] = thr
        self.used[:] = used
        self.slots[:] = slots
        self.alive[i] = True
        self._snap = None

    def fresh_matching(self) -> Matching:
        """Deterministic maximum matching of the current reduced graph:
        greedy in baseline order, categories in declaration order, then
        augmentation in baseline order (same policy as graph.max_matching)."""
        n = self.inst.n
        match = [-1] * n
        used = [0] * len(self.cat_ids)
        slots = [-1] * len(self.slots)
        args = (self.indptr, self.cats, self.epos, self.thr, self.cap,
                used, self.slot_base, slots)
        _kernels.greedy(self.order, self.alive, match, *args)
        _kernels.augment_pass(self.order, self.alive, match, *args, n)
        return Matching({a: self.cat_ids[c] for a, c in enumerate(match) if c >= 0})


def rr(inst: Instance, cats: Optional[Iterable[int]] = None) -> tuple[Matching, RrTrace]:
    """Rejection scan over the given categories (default all).

    Scans the baseline from lowest to highest priority and rejects an agent
    exactly when the reduced reservation graph without her still admits a
    matching as large as the full graph's maximum. Every surviving agent ends
    up matched, so the output is a maximum-size matching that complies with
    eligibility and leaves no rejected agent with justified envy.
    """
    if cats is not None:
        cats = tuple(cats)
        if not cats:
            raise ValidationError("cats must be a non-empty subset of categories")
    else:
        cats = tuple(range(len(inst.categories)))
    engine = _RejectionEngine(inst, cats, range(inst.n))
    ms_total = engine.ms
    rejected: set[int] = set()
    decisions: list[RrDecision] = []
    for i in reversed(inst.baseline):
        size = engine.test_remove(i, prune=True)
        if size == ms_total:
            engine.keep()
            rejected.add(i)
            decisions.append(RrDecision(i, True, size))
        else:
            engine.undo()
            decisions.append(RrDecision(i, False, size))
    matching = engine.fresh_matching()
    return matching, RrTrace(frozenset(rejected), tuple(decisions), ms_total)


def _resolve_split(inst: Instance, split: Optional[UnreservedSplit]) -> UnreservedSplit:
    cf, cl = inst.unreserved_first_id, inst.unreserved_last_id
    if cf is None or cl is None:
        raise PreconditionError("instance has no unreserved category pair")
    if split is None:
        split = UnreservedSplit(inst.categories[cf].quota, inst.categories[cl].quota)
    if split.q1 < 0 or split.q2 < 0 or split.q1 + split.q2 != inst.unreserved_quota:
        raise PreconditionError(
            f"split ({split.q1}, {split.q2}) does not partition the unreserved "
            f"quota {inst.unreserved_quota}"
        )
    return split


def srr(inst: Instance, split: Optional[UnreservedSplit] = None) -> Matching:
    """Rejection scan with an unreserved category processed around it.

    Phase 1 walks the baseline from the top and hands an early unreserved
    unit to each agent who is not needed for a full-size matching of the
    preferential categories, while units remain. Phase 2 runs the rejection
    scan on the preferential categories for everyone else. Phase 3 hands the
    late unreserved units to the remaining unmatched agents in baseline
    order. The split defaults to the instance's declared one.
    """
    split = _resolve_split(inst, split)
    cf, cl = inst.unreserved_first_id, inst.unreserved_last_id
    pref = inst.preferential_ids

    engine = _RejectionEngine(inst, pref, range(inst.n))
    mstar = engine.ms
    n1: list[int] = []
    if split.q1 > 0:
        for i in inst.baseline:
            if len(n1) >= split.q1:
                break
            if engine.test_remove(i, prune=False) == mstar:
                engine.keep()
                n1.append(i)
            else:
                engine.undo()

    taken = set(n1)
    remaining = [a for a in range(inst.n) if a not in taken]
    engine2 = _RejectionEngine(inst, pref, remaining) if pref else None
    assignment: dict[int, int] = {i: cf for i in n1}
    if engine2 is not None:
        ms2 = engine2.ms
        for i in reversed(inst.baseline):
            if i in assignment:
                continue
            if engine2.test_remove(i, prune=True) == ms2:
                engine2.keep()
            else:
                engine2.undo()
        assignment.update(engine2.fresh_matching().assignment)

    granted = 0
    for i in inst.baseline:
        if granted >= split.q2:
            break
        if i not in assignment:
            assignment[i] = cl
            granted += 1
    return Matching(assignment)


def _unique_pref_category(inst: Instance) -> dict[int, Optional[int]]:
    """Map each agent to her single preferential category (or None); error if
    any agent is eligible for two."""
    out: dict[int, Optional[int]] = {i: None for i in range(inst.n)}
    for c in inst.preferential_ids:
        for a in inst.agents_eligible_for(c):
            if out[a] is not None:
                raise PreconditionError(
                    f"agent {inst.agent_names[a]!r} is eligible for more than one "
                    "preferential category"
                )
            out[a] = c
    return out


def _check_consistent_priorities(inst: Instance) -> None:
    """Eligible agents of every preferential category must be ranked strictly
    in baseline order."""
    for c in inst.preferential_ids:
        ranking = inst.categories[c].ranking
        by_base = sorted(ranking.eligible_agents(), key=lambda a: inst.baseline_pos[a])
        positions = [ranking.position(a) for a in by_base]
        if any(p >= q for p, q in zip(positions, positions[1:])):
            raise PreconditionError(
                f"category {inst.categories[c].name!r} priorities are not "
                "consistent with the baseline ordering"
            )


def minimum_guarantees(inst: Instance) -> Matching:
    """One pass down the baseline: take a unit of your preferential category
    if one is free, otherwise an unreserved unit if any remains.

    Requires at most one preferential category per agent and
    baseline-consistent priorities. Unreserved units come from the late pool.
    """
    owner = _unique_pref_category(inst)
    _check_consistent_priorities(inst)
    cl = inst.unreserved_last_id
    if cl is None:
        cl = inst.unreserved_first_id
    q_cu = inst.unreserved_quota
    used: dict[int, int] = {c: 0 for c in inst.preferential_ids}
    granted = 0
    assignment: dict[int, int] = {}
    for i in inst.baseline:
        c = owner[i]
        if c is not None and used[c] < inst.categories[c].quota:
            assignment[i] = c
            used[c] += 1
        elif granted < q_cu:
            assignment[i] = cl
            granted += 1
    return Matching(assignment)


def over_and_above(inst: Instance) -> Matching:
    """Unreserved units go first, down the baseline, but never to an agent her
    preferential category will need; the preferential categories are then
    filled with their highest-priority unmatched agents.

    Same preconditions as minimum_guarantees. Unreserved units come from the
    early pool.
    """
    owner = _unique_pref_category(inst)
    _check_consistent_priorities(inst)
    cf = inst.unreserved_first_id
    if cf is None:
        cf = inst.unreserved_last_id
    q_cu = inst.unreserved_quota
    assignment: dict[int, int] = {}
    granted = 0
    for i in inst.baseline:
        if granted >= q_cu:
            break
        c = owner[i]
        if c is not None:
            others = sum(1 for j in inst.agents_eligible_for(c)
                         if j != i and j not in assignment)
            if others < inst.categories[c].quota:
                continue
        assignment[i] = cf
        granted += 1
    for c in inst.preferential_ids:
        elig = [a for a in inst.agents_eligible_for(c) if a not in assignment]
        elig.sort(key=lambda a: inst.position(c, a))
        take = min(inst.categories[c].quota, len(inst.agents_eligible_for(c)))
        for a in elig[:take]:
            assignment[a] = c
    return Matching(assignment)


def deferred_acceptance(inst: Instance, prefs: Mapping[int, Sequence[int]]) -> Matching:
    """Agent-proposing deferred acceptance over per-agent strict category lists.

    Each category tentatively holds its highest-priority proposers up to
    quota, breaking priority ties by the baseline. Lists may only mention
    categories the agent is eligible for. The result respects priorities and
    wastes no unit of a listed category, but its size is whatever the lists
    allow.
    """
    lists: dict[int, list[int]] = {}
    for i, cats in prefs.items():
        if not 0 <= i < inst.n:
            raise ValidationError(f"unknown agent id {i} in preferences")
        cats = list(cats)
        if len(set(cats)) != len(cats):
            raise PreconditionError(f"agent {inst.agent_names[i]!r} lists a category twice")
        for c in cats:
            if not 0 <= c < len(inst.categories):
                raise ValidationError(f"unknown category id {c} in preferences")
            if not inst.eligible(i, c):
                raise PreconditionError(
                    f"agent {inst.agent_names[i]!r} lists category "
                    f"{inst.categories[c].name!r} she is not eligible for"
                )
        lists[i] = cats

    def key(c: int, a: int) -> tuple[int, int]:
        return (inst.position(c, a), inst.baseline_pos[a])

    pointer = {i: 0 for i in lists}
    held: dict[int, list[int]] = {c: [] for c in range(len(inst.categories))}
    matched: dict[int, int] = {}
    free = [i for i in inst.baseline if i in lists]
    while free:
        i = free.pop(0)
        if i in matched or pointer[i] >= len(lists[i]):
            continue
        c = lists[i][pointer[i]]
        pointer[i] += 1
        quota = inst.categories[c].quota
        if quota <= 0:
            free.append(i)
            continue
        if len(held[c]) < quota:
            held[c].append(i)
            matched[i] = c
        else:
            worst = max(held[c], key=lambda a: key(c, a))
            if key(c, i) < key(c, worst):
                held[c].remove(worst)
                del matched[worst]
                held[c].append(i)
                matched[i] = c
                free.append(worst)
            else:
                free.append(i)
    return Matching(matched)


def soft_reserves(inst: Instance, split: Optional[UnreservedSplit] = None) -> Matching:
    """srr, then leftover preferential units go to unmatched agents in
    baseline order regardless of eligibility.

    Requires every strict ranking among a preferential category's ineligible
    agents to agree with the baseline, so the overflow grants cannot
    contradict the reported priorities.
    """
    for c in inst.preferential_ids:
        ranking = inst.categories[c].ranking
        ranked = {a for tier in ranking.tiers for a in tier}
        absent = [a for a in range(inst.n) if a not in ranked]
        groups = [absent] + [list(t) for t in ranking.tiers[ranking.cutoff:]]
        groups = [g for g in groups if g]
        for above, below in zip(groups, groups[1:]):
            if max(inst.baseline_pos[a] for a in above) > \
                    min(inst.baseline_pos[a] for a in below):
                raise PreconditionError(
                    f"category {inst.categories[c].name!r} ranks ineligible agents "
                    "against the baseline ordering"
                )
    matching = srr(inst, split)
    spare = {c: inst.categories[c].quota - matching.count_in(c) for c in inst.preferential_ids}
    pool = [c for c in inst.preferential_ids if spare[c] > 0]
    for i in inst.baseline:
        if not pool:
            break
        if i in matching.assignment:
            continue
        c = pool[0]
        matching.assignment[i] = c
        spare[c] -= 1
        if spare[c] == 0:
            pool.pop(0)
    return matching
