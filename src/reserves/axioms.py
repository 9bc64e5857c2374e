"""Axiom checkers and manipulation harnesses.

Every checker is a pure predicate over (instance, matching) that returns an
AxiomReport carrying concrete witnesses for each violation found, capped at a
configurable count. The two harnesses re-run a rule, named as on the command
line (``rr``, ``srr`` or ``soft``, the keys of ``HARNESS_RULES``), under
enumerated priority decreases of unmatched agents, so their verdicts are
relative to the tested manipulation space. srr and soft run at the split the
instance carries, which every manipulated instance keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .graph import _RejectionEngine
from .model import (Instance, Matching, ValidationError,
                    enumerate_priority_decreases, validate_matching)
from .rules import rr, soft_reserves, srr

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
    bad = [EligibilityWitness(i, c) for i, c in m.pairs() if not inst.eligible(i, c)]
    return _report("eligibility", bad, max_witnesses)


def check_respect_priorities(inst: Instance, m: Matching,
                             max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No unmatched agent may strictly outrank a matched agent in her category."""
    validate_matching(inst, m)
    unmatched = [j for j in range(inst.n) if not m.is_matched(j)]
    # an unmatched agent can envy in c only if she outranks c's worst holder
    held: dict[int, list[tuple[int, int]]] = {}
    for i, c in m.pairs():
        held.setdefault(c, []).append((inst.position(c, i), i))
    bad = []
    for c, holders in held.items():
        position = inst.categories[c].ranking.position
        worst = max(holders)[0]
        for j in unmatched:
            pj = position(j)
            if pj < worst:
                bad.extend(EnvyWitness(j, i, c) for pi, i in holders if pj < pi)
    bad.sort(key=lambda w: (w.envier, w.envied, w.category))
    return _report("respect_priorities", bad, max_witnesses)


def check_nonwasteful(inst: Instance, m: Matching,
                      max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No unit may sit idle while an eligible agent is unmatched."""
    validate_matching(inst, m)
    counts = {c: m.count_in(c) for c in range(len(inst.categories))}
    bad = [WasteWitness(i, c)
           for i in range(inst.n) if not m.is_matched(i)
           for c in inst.eligible_categories(i)
           if counts[c] < inst.categories[c].quota]
    return _report("nonwasteful", bad, max_witnesses)


def check_max_size(inst: Instance, m: Matching,
                   max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """The matching must be as large as any eligibility-compliant matching.
    Only defined for compliant matchings; raises otherwise."""
    elig = check_eligibility(inst, m)
    if not elig.holds:
        raise ValidationError("max-size is defined only for eligibility-compliant matchings")
    optimum = _RejectionEngine.of(inst, range(len(inst.categories))).size()
    bad = [] if m.size() == optimum else [SizeGapWitness(m.size(), optimum)]
    return _report("max_size", bad, max_witnesses)


def check_max_beneficiary(inst: Instance, m: Matching,
                          max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """As many agents as possible must be matched into preferential categories."""
    validate_matching(inst, m)
    pref = set(inst.preferential_ids)
    found = sum(1 for _, c in m.pairs() if c in pref)
    optimum = _RejectionEngine.of(inst, inst.preferential_ids).size()
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
    pref = set(inst.preferential_ids)
    bad = []
    for i, ci in m.pairs():
        for j, cj in m.pairs():
            if i == j:
                continue
            # clause 1: j holds an early unreserved unit although i, stuck in a
            # later pool, outranks her there and j could take i's seat
            if cj == cf and (ci in pref or ci == cl) and \
                    inst.position(cj, i) < inst.position(cj, j) and inst.eligible(j, ci):
                bad.append(OrderWitness(1, i, j, ci, cj))
            # clause 2: i holds a late unreserved unit although she outranks j
            # in j's earlier category and is eligible for it
            if ci == cl and (cj in pref or cj == cf) and \
                    inst.position(cj, i) < inst.position(cj, j) and inst.eligible(i, cj):
                bad.append(OrderWitness(2, i, j, ci, cj))
    bad.sort(key=lambda w: (w.clause, w.agent_early, w.agent_late))
    return _report("order_preservation", bad, max_witnesses)


#: the rules the harnesses can re-run, by CLI name: instance -> matching
HARNESS_RULES = {"rr": lambda inst: rr(inst)[0], "srr": srr, "soft": soft_reserves}


def _rule_fn(rule: str) -> Callable[[Instance], Matching]:
    if rule not in HARNESS_RULES:
        raise ValidationError(
            f"manipulation harnesses support {tuple(HARNESS_RULES)}, not {rule!r}")
    return HARNESS_RULES[rule]


def check_strategyproofness(rule: str, inst: Instance, budget: int = 8,
                            max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """No unmatched agent may become matched by lowering her own reports.

    Exhaustive over hide-subsets of each unmatched agent's preferential
    eligibilities; single-tier demotions are added up to ``budget``.
    """
    fn = _rule_fn(rule)
    base = fn(inst)
    bad = []
    for i in range(inst.n):
        if base.is_matched(i):
            continue
        for idx, manipulated in enumerate(enumerate_priority_decreases(inst, i, budget)):
            if fn(manipulated).is_matched(i):
                bad.append(ManipulationWitness(i, idx, False, True))
    note = f"within tested manipulation space (hide subsets + demotions, budget={budget})"
    return _report("strategyproofness", bad, max_witnesses, note)


def check_weak_nonbossiness(rule: str, inst: Instance, budget: int = 8,
                            max_witnesses: int = MAX_WITNESSES) -> AxiomReport:
    """An unmatched agent's priority decrease may not flip the matched status
    of anyone below her in the baseline."""
    fn = _rule_fn(rule)
    base = fn(inst)
    bad = []
    for i in range(inst.n):
        if base.is_matched(i):
            continue
        below = [j for j in range(inst.n)
                 if inst.baseline_pos[i] < inst.baseline_pos[j]]
        for idx, manipulated in enumerate(enumerate_priority_decreases(inst, i, budget)):
            after = fn(manipulated)
            for j in below:
                if base.is_matched(j) != after.is_matched(j):
                    bad.append(NonBossinessWitness(i, idx, j, base.is_matched(j),
                                                   after.is_matched(j)))
    note = f"within tested manipulation space (hide subsets + demotions, budget={budget})"
    return _report("weak_nonbossiness", bad, max_witnesses, note)
