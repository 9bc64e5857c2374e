"""Allocation rules.

The central rule is the rejection scan (``rr``): walk the baseline from the
bottom, reject an agent exactly when a full-size matching survives without
her and without giving her justified envy, then match everyone left. ``srr``
wraps it with an unreserved category whose units are handed out partly
before and partly after the preferential ones. The instance carries that
split (``Instance.split``); ``Instance.with_split`` gives the same instance
at another one. The classical reserve rules are srr at its two extreme
splits: minimum guarantees processes every unreserved unit last,
over-and-above every unit first. An agent-proposing deferred acceptance
baseline is provided for comparison, plus a soft-reserves variant that hands
leftover preferential units to ineligible agents.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush, heapreplace
from typing import Mapping, Sequence

from .graph import _RejectionEngine
from .model import Instance, Matching, ValidationError


class PreconditionError(ValueError):
    """A rule was invoked on an instance outside its stated domain."""


@dataclass(frozen=True)
class RrTrace:
    """Scan record: the scan's (agent, size tested without her) pairs in scan
    order, lowest baseline first. An agent is rejected exactly when her size
    equals ``ms_total``."""

    rejected: frozenset[int]
    tested: tuple[tuple[int, int], ...]
    ms_total: int


def rr(inst: Instance) -> tuple[Matching, RrTrace]:
    """Rejection scan over every category.

    Scans the baseline from lowest to highest priority and rejects an agent
    exactly when the reduced reservation graph without her still admits a
    matching as large as the full graph's maximum. Every surviving agent ends
    up matched, so the output is a maximum-size matching that complies with
    eligibility and leaves no rejected agent with justified envy.
    """
    engine = _RejectionEngine(inst, range(len(inst.categories)))
    ms_total = engine.size()
    tested = tuple(engine.scan(reversed(inst.baseline), True))
    rejected = frozenset([i for i, size in tested if size == ms_total])
    return engine.fresh_matching(), RrTrace(rejected, tested, ms_total)


def srr(inst: Instance) -> Matching:
    """Rejection scan with an unreserved category processed around it.

    Phase 1 walks the baseline from the top and hands an early unreserved
    unit to each agent who is not needed for a full-size matching of the
    preferential categories, while units remain. Phase 2 runs the rejection
    scan on the preferential categories for everyone else. Phase 3 hands the
    late unreserved units to the remaining unmatched agents in baseline
    order. ``inst.split`` gives the (early, late) unit counts.
    """
    if inst.split is None:
        raise PreconditionError("instance has no unreserved category pair")
    first, last = inst.split
    cf, cl = inst.unreserved_first_id, inst.unreserved_last_id

    engine = _RejectionEngine(inst, inst.preferential_ids)
    mstar = engine.size()
    n1 = [i for i, size in engine.scan(inst.baseline, False, first) if size == mstar]

    # the engine now holds a maximum matching (size m*) of the remaining agents
    engine.scan(reversed(inst.baseline), True)
    assignment = {i: cf for i in n1}
    assignment.update(engine.fresh_matching().assignment)

    granted = 0
    for i in inst.baseline:
        if granted >= last:
            break
        if i not in assignment:
            assignment[i] = cl
            granted += 1
    return Matching(assignment)


def _check_classical(inst: Instance) -> None:
    """The classical reserve domain: every agent is eligible for at most one
    preferential category, and each one's eligible agents are ranked
    strictly in baseline order."""
    owned: set[int] = set()
    for c in inst.preferential_ids:
        for a in inst.agents_eligible_for(c):
            if a in owned:
                raise PreconditionError(
                    f"agent {inst.agent_names[a]!r} is eligible for more than one "
                    "preferential category"
                )
            owned.add(a)
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
    """Minimum guarantees: down the baseline, each agent takes a unit of her
    preferential category while one is free, otherwise an unreserved unit
    while any remains. Unreserved units come from the late pool.

    This is srr with every unreserved unit processed last, and rr without an
    unreserved category. Requires the classical domain: at most one
    preferential category per agent and baseline-consistent priorities.
    """
    _check_classical(inst)
    if not inst.has_unreserved:
        return rr(inst)[0]
    return srr(inst.with_split(0, inst.unreserved_quota))


def over_and_above(inst: Instance) -> Matching:
    """Over-and-above: unreserved units go first, down the baseline, to every
    agent her preferential category does not need; each preferential
    category then takes its highest-priority unmatched eligible agents.
    Unreserved units come from the early pool.

    This is srr with every unreserved unit processed first, and rr without
    an unreserved category. Same domain as minimum_guarantees.
    """
    _check_classical(inst)
    if not inst.has_unreserved:
        return rr(inst)[0]
    return srr(inst.with_split(inst.unreserved_quota, 0))


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

    pointer = {i: 0 for i in lists}
    # each category's holders as a max-heap on (position, baseline position),
    # negated: the key is unique, so the top is the one holder to displace
    held: dict[int, list[tuple[int, int, int]]] = {c: [] for c in range(len(inst.categories))}
    matched: dict[int, int] = {}
    free = deque(i for i in inst.baseline if i in lists)
    while free:
        i = free.popleft()
        if i in matched or pointer[i] >= len(lists[i]):
            continue
        c = lists[i][pointer[i]]
        pointer[i] += 1
        quota = inst.categories[c].quota
        if quota <= 0:
            free.append(i)
            continue
        entry = (-inst.position(c, i), -inst.baseline_pos[i], i)
        if len(held[c]) < quota:
            heappush(held[c], entry)
            matched[i] = c
        elif entry > held[c][0]:
            worst = heapreplace(held[c], entry)[2]
            del matched[worst]
            matched[i] = c
            free.append(worst)
        else:
            free.append(i)
    return Matching(matched)


def soft_reserves(inst: Instance) -> Matching:
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
    matching = srr(inst)
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
