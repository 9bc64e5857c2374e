"""Allocation rules.

The central rule is the rejection scan (``rr``): walk the baseline from the
bottom, reject an agent exactly when a full-size matching survives without
her and without giving her justified envy, then match everyone left. ``srr``
wraps it with an unreserved category whose units are handed out partly
before and partly after the preferential ones. The instance carries that
split (``Instance.split``); ``Instance.with_split`` gives the same instance
at another one. The classical one-category rules (minimum guarantees,
over-and-above) and an agent-proposing deferred acceptance baseline are
provided for comparison, plus a soft-reserves variant that hands leftover
preferential units to ineligible agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .graph import _RejectionEngine, _check_cats
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
    cats = _check_cats(inst, cats)
    engine = _RejectionEngine.of(inst, cats)
    trace = _rr_trace(engine)
    return engine.fresh_matching(), trace


def _rr_trace(engine: _RejectionEngine) -> RrTrace:
    """Run the rejection scan on an engine holding a maximum matching of the
    full graph; the engine ends on the final reduced graph."""
    ms_total = engine.size()
    decisions = _reject_scan(engine)
    rejected = frozenset(d.agent for d in decisions if d.rejected)
    return RrTrace(rejected, decisions, ms_total)


def _reject_scan(engine: _RejectionEngine) -> tuple[RrDecision, ...]:
    """Walk the engine's live agents from the bottom of the scan order and
    reject each one whose removal, with pruning, keeps the matching size.
    The engine must hold a maximum matching; it ends on the final reduced
    graph."""
    target = engine.size()
    decisions = []
    for i in reversed(engine.order):
        if not engine.alive[i]:
            continue
        size = engine.test_remove(i, prune=True)
        if size == target:
            engine.keep()
        else:
            engine.undo()
        decisions.append(RrDecision(i, size == target, size))
    return tuple(decisions)


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

    engine = _RejectionEngine.of(inst, inst.preferential_ids)
    mstar = engine.size()
    n1: list[int] = []
    if first > 0:
        for i in inst.baseline:
            if len(n1) >= first:
                break
            if engine.test_remove(i, prune=False) == mstar:
                engine.keep()
                n1.append(i)
            else:
                engine.undo()

    # the engine now holds a maximum matching (size m*) of the remaining agents
    _reject_scan(engine)
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
