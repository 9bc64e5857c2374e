"""Axiom checkers and manipulation harnesses.

Every checker is a pure predicate over (instance, matching) that returns an
AxiomReport carrying concrete witnesses for each violation found, capped at a
configurable count. The two harnesses re-run a rule, named as on the command
line (``rr``, ``srr`` or ``soft``, the keys of ``HARNESS_RULES``), under
enumerated priority decreases of unmatched agents, so their verdicts are
relative to the tested manipulation space; ``harness_reports`` gives both
from one re-run per manipulation. srr and soft run at the split the
instance carries, which every manipulated instance keeps. A manipulated
instance outside the rule's domain is a report the agent cannot make under
that rule: it is skipped, and the report's note counts it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import filterfalse
from typing import Callable, Optional, Sequence

from .graph import _RejectionEngine
from .model import (Instance, Matching, ValidationError,
                    enumerate_priority_decreases, validate_matching)
from .rules import PreconditionError, rr, soft_reserves, srr

MAX_WITNESSES = 10


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    holds: bool
    witnesses: tuple
    witnesses_total: int
    note: Optional[str] = None


@dataclass(frozen=True)
class EligibilityWitness:
    agent: int
    category: int


@dataclass(frozen=True)
class EnvyWitness:
    envier: int
    envied: int
    category: int


@dataclass(frozen=True)
class WasteWitness:
    agent: int
    category: int


@dataclass(frozen=True)
class SizeGapWitness:
    found: int
    optimum: int


@dataclass(frozen=True)
class OrderWitness:
    clause: int
    agent_early: int   # the higher-priority agent stuck in a later category
    agent_late: int
    category_early: int
    category_late: int


@dataclass(frozen=True)
class ManipulationWitness:
    agent: int
    manipulation: int
    matched_before: bool
    matched_after: bool


@dataclass(frozen=True)
class NonBossinessWitness:
    agent: int
    manipulation: int
    affected: int
    matched_before: bool
    matched_after: bool


def _report(axiom: str, witnesses: list, max_witnesses: int,
            note: Optional[str] = None) -> AxiomReport:
    return AxiomReport(axiom, not witnesses, tuple(witnesses[:max_witnesses]),
                       len(witnesses), note)


def check_eligibility(inst: Instance, m: Matching,
                      max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """Every matched agent must be strictly above the empty slot in her category."""
    validate_matching(inst, m)
    rankings = [cat.ranking for cat in inst.categories]
    bad = [EligibilityWitness(i, c) for i, c in m.pairs()
           if rankings[c].positions[i] >= rankings[c].cutoff]
    return _report("eligibility", bad, max_witnesses)


def check_respect_priorities(inst: Instance, m: Matching,
                             max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No unmatched agent may strictly outrank a matched agent in her category."""
    validate_matching(inst, m)
    matched = m.assignment
    held: dict[int, list[int]] = {}
    for i, c in matched.items():
        held.setdefault(c, []).append(i)
    bad = []
    for c, group in held.items():
        positions = inst.categories[c].ranking.positions
        holders = [(positions[i], i) for i in group]
        # an unmatched agent can envy in c only if she outranks c's worst holder
        for j in filterfalse(matched.__contains__, inst.agents_above(c, max(holders)[0])):
            pj = positions[j]
            bad.extend(EnvyWitness(j, i, c) for pi, i in holders if pj < pi)
    bad.sort(key=lambda w: (w.envier, w.envied, w.category))
    return _report("respect_priorities", bad, max_witnesses)


def check_nonwasteful(inst: Instance, m: Matching,
                      max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No unit may sit idle while an eligible agent is unmatched."""
    validate_matching(inst, m)
    counts = Counter(m.assignment.values())
    bad = sorted((i, c) for c, cat in enumerate(inst.categories) if counts[c] < cat.quota
                 for i in inst.agents_eligible_for(c) if not m.is_matched(i))
    return _report("nonwasteful", [WasteWitness(i, c) for i, c in bad], max_witnesses)


def _keep_last(fn: Callable[[Instance], int]) -> Callable[[Instance], int]:
    """``fn`` with its last instance's answer kept, matched by identity. An
    ``Instance`` hashes every ranking's tiers, and builds a strict parsed
    ranking's, so a hash-keyed cache walks the whole instance per call. The
    entry holds the instance itself, so no other instance can reuse its id
    while it is kept. ``cache_clear`` drops it."""
    last: list = [None, None]

    @wraps(fn)
    def cached(inst: Instance) -> int:
        if last[0] is not inst:
            last[:] = inst, fn(inst)
        return last[1]

    def cache_clear() -> None:
        last[0] = None

    cached.cache_clear = cache_clear
    return cached


@_keep_last
def _preferential_optimum(inst: Instance) -> int:
    """The most agents an eligibility-compliant matching can place in
    preferential categories. The last instance's answer is kept, so that
    ``check_max_size`` and ``check_max_beneficiary`` on one instance build
    one engine."""
    return _RejectionEngine(inst, inst.preferential_ids).size()


def _preferential_optimum_given(inst: Instance, m: Matching) -> int:
    """``_preferential_optimum(inst)``, certified by ``m`` where it can be.

    No matching places more agents in the preferential categories than
    their quotas hold, so if ``m``'s eligible preferential pairs fill every
    preferential unit, their count is the optimum and no engine is built.
    Otherwise the engine answers."""
    pref = set(inst.preferential_ids)
    units = sum(inst.categories[c].quota for c in pref)
    rankings = [cat.ranking for cat in inst.categories]
    placed = sum(1 for i, c in m.assignment.items()
                 if c in pref and rankings[c].positions[i] < rankings[c].cutoff)
    return placed if placed == units else _preferential_optimum(inst)


def check_max_size(inst: Instance, m: Matching,
                   max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """The matching must be as large as any eligibility-compliant matching.
    Only defined for compliant matchings; raises otherwise."""
    elig = check_eligibility(inst, m)
    if not elig.holds:
        raise ValidationError("max-size is defined only for eligibility-compliant matchings")
    return _max_size_report(inst, m, max_witnesses)


def _max_size_report(inst: Instance, m: Matching,
                     max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """check_max_size's report on a matching already known to be compliant."""
    # the unreserved pools admit every agent, so on top of a maximum
    # preferential matching they fill every unit or seat everyone left over
    pref = _preferential_optimum_given(inst, m)
    optimum = pref + min(inst.unreserved_quota, inst.n - pref)
    bad = [] if m.size() == optimum else [SizeGapWitness(m.size(), optimum)]
    return _report("max_size", bad, max_witnesses)


def check_max_beneficiary(inst: Instance, m: Matching,
                          max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """As many agents as possible must be matched into preferential categories."""
    validate_matching(inst, m)
    pref = set(inst.preferential_ids)
    found = sum(1 for c in m.assignment.values() if c in pref)
    optimum = _preferential_optimum_given(inst, m)
    bad = [] if found == optimum else [SizeGapWitness(found, optimum)]
    return _report("max_beneficiary", bad, max_witnesses)


def check_order_preservation(inst: Instance, m: Matching,
                             max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No two agents may be able to swap so that an earlier pool (early
    unreserved, then preferential, then late unreserved) gains a
    higher-priority agent without breaking eligibility."""
    if inst.split is None:
        raise ValidationError("order preservation needs the unreserved category pair")
    cf, cl = inst.unreserved_first_id, inst.unreserved_last_id
    validate_matching(inst, m)

    groups: dict[int, list[int]] = {}
    for i, c in m.assignment.items():
        groups.setdefault(c, []).append(i)
    rankings = [cat.ranking for cat in inst.categories]

    def ranked(c: int, positions: Sequence[int] | dict[int, int]) -> list[tuple[int, int]]:
        """Pool ``c``'s holders as (position, agent), best first."""
        return sorted([(positions[i], i) for i in groups[c]])

    bad = []
    # clause 1: j holds an early unreserved unit although i, stuck in a later
    # pool, outranks her there and j could take i's seat; it compares in the
    # early pool's ranking, which is the baseline
    if cf in groups:
        base = inst.baseline_pos
        later = [(c, rankings[c], ranked(c, base))
                 for c in (*inst.preferential_ids, cl) if c in groups]
        for j in groups[cf]:
            for ci, r, group in later:
                if r.positions[j] < r.cutoff:
                    above = bisect_left(group, (base[j],))
                    if above:
                        bad.extend(OrderWitness(1, i, j, ci, cf) for _, i in group[:above])
    # clause 2: i holds a late unreserved unit although she outranks j
    # in j's earlier category and is eligible for it
    if cl in groups:
        earlier = [(c, rankings[c], ranked(c, rankings[c].positions))
                   for c in (*inst.preferential_ids, cf) if c in groups]
        for i in groups[cl]:
            for cj, r, group in earlier:
                pi = r.positions[i]
                if pi < r.cutoff:
                    below = bisect_left(group, (pi + 1,))
                    if below < len(group):
                        bad.extend(OrderWitness(2, i, j, cl, cj) for _, j in group[below:])
    bad.sort(key=lambda w: (w.clause, w.agent_early, w.agent_late))
    return _report("order_preservation", bad, max_witnesses)


#: the rules the harnesses can re-run, by CLI name: instance -> matching
HARNESS_RULES = {"rr": lambda inst: rr(inst)[0], "srr": srr, "soft": soft_reserves}


def _rule_fn(rule: str) -> Callable[[Instance], Matching]:
    if rule not in HARNESS_RULES:
        raise ValidationError(
            f"manipulation harnesses support {tuple(HARNESS_RULES)}, not {rule!r}")
    return HARNESS_RULES[rule]


def harness_reports(rule: str, inst: Instance, base: Matching, budget: int = 8,
                    max_witnesses: int = MAX_WITNESSES) -> dict[str, AxiomReport]:
    """The strategyproofness and weak non-bossiness reports, by axiom name,
    from one re-run of ``rule`` per enumerated priority decrease of each
    agent unmatched in ``base``, the rule's matching on ``inst``."""
    fn = _rule_fn(rule)
    pos = inst.baseline_pos
    manipulations, bossy = [], []
    skipped = 0
    for i in range(inst.n):
        if base.is_matched(i):
            continue
        for idx, manipulated in enumerate(enumerate_priority_decreases(inst, i, budget)):
            try:
                after = fn(manipulated)
            except PreconditionError:
                skipped += 1
                continue
            if after.is_matched(i):
                manipulations.append(ManipulationWitness(i, idx, False, True))
            flipped = base.assignment.keys() ^ after.assignment.keys()
            bossy.extend(NonBossinessWitness(i, idx, j, base.is_matched(j), after.is_matched(j))
                         for j in sorted(flipped) if pos[i] < pos[j])
    note = f"within tested manipulation space (hide subsets + demotions, budget={budget})"
    if skipped:
        note += f"; {skipped} manipulated instances outside the rule's domain skipped"
    return {"strategyproofness": _report("strategyproofness", manipulations, max_witnesses,
                                         note),
            "weak_nonbossiness": _report("weak_nonbossiness", bossy, max_witnesses, note)}


def check_strategyproofness(rule: str, inst: Instance, budget: int = 8,
                            max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No unmatched agent may become matched by lowering her own reports.

    Exhaustive over hide-subsets of each unmatched agent's preferential
    eligibilities; single-tier demotions are added up to ``budget``.
    """
    base = _rule_fn(rule)(inst)
    return harness_reports(rule, inst, base, budget, max_witnesses)["strategyproofness"]


def check_weak_nonbossiness(rule: str, inst: Instance, budget: int = 8,
                            max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """An unmatched agent's priority decrease may not flip the matched status
    of anyone below her in the baseline."""
    base = _rule_fn(rule)(inst)
    return harness_reports(rule, inst, base, budget, max_witnesses)["weak_nonbossiness"]
