import itertools
import math
import time

import pytest

from conftest import make_instance, reference_size
from reserves import oracle
from reserves.axioms import check_respect_priorities
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine
from reserves.model import Instance, Matching
from reserves.oracle import (OracleBoundError, axiom_satisfying_set,
                             enumerate_matchings, rr_outcome_set,
                             verify_characterization)
from reserves.rules import rr


def test_enumerates_exactly_the_five_running_matchings(running):
    got = sorted(m.canonical() for m in enumerate_matchings(running))
    assert got == sorted([
        (), ((1, 0),), ((1, 1),), ((2, 0),), ((1, 1), (2, 0)),
    ])


def test_enumerates_only_empty_without_eligibility():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [], "cutoff": 0}]}
    inst = make_instance(doc)
    assert [m.canonical() for m in enumerate_matchings(inst)] == [()]


def test_enumerates_two_for_single_eligible_agent():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [["a"]], "cutoff": 1}]}
    inst = make_instance(doc)
    assert sorted(m.canonical() for m in enumerate_matchings(inst)) == [(), ((0, 0),)]


def test_count_matches_closed_form_for_exclusive_categories():
    # disjoint eligibility pools of sizes 2, 3, 1 with quotas 1, 2, 1: the
    # matchings per category are independent binomial choices
    names = [f"a{i}" for i in range(6)]
    doc = {"agents": names, "baseline": names, "categories": [
        {"name": "c0", "quota": 1, "kind": "preferential",
         "tiers": [["a0"], ["a1"]], "cutoff": 2},
        {"name": "c1", "quota": 2, "kind": "preferential",
         "tiers": [["a2"], ["a3"], ["a4"]], "cutoff": 3},
        {"name": "c2", "quota": 1, "kind": "preferential",
         "tiers": [["a5"]], "cutoff": 1},
    ]}
    inst = make_instance(doc)
    expected = 1
    for pool, quota in ((2, 1), (3, 2), (1, 1)):
        expected *= sum(math.comb(pool, k) for k in range(min(pool, quota) + 1))
    assert sum(1 for _ in enumerate_matchings(inst)) == expected


def test_axiom_satisfying_set_running(running):
    assert axiom_satisfying_set(running) == {((1, 1), (2, 0))}


def test_axiom_satisfying_set_scan(scan):
    got = axiom_satisfying_set(scan)
    assert ((0, 0), (2, 1)) in got
    assert got == {((0, 0), (2, 1)), ((0, 1), (3, 0))}


def test_rr_outcomes_running_unique(running):
    assert rr_outcome_set(running) == {((1, 1), (2, 0))}


def test_characterization_on_worked_examples(running, scan):
    assert verify_characterization(running).ok
    rep = verify_characterization(scan)
    assert rep.ok and rep.only_rule_side == () and rep.only_axiom_side == ()


def test_characterization_empty_instance():
    inst = make_instance({"agents": [], "baseline": [], "categories": []})
    assert verify_characterization(inst).ok


def test_outcomes_are_always_axiom_satisfying():
    for seed in range(20):
        inst = random_instance(4, 2, seed=seed, eligibility_density=0.6, tie_prob=0.3)
        assert rr_outcome_set(inst) <= axiom_satisfying_set(inst)


def _plain_outcome_union(inst):
    """rr_outcome_set without skipping: scan, reduce and enumerate on every
    ordering. Also returns the distinct rejected sets seen."""
    base = oracle._symmetrize(inst)
    out, rejected_sets = set(), set()
    for perm in itertools.permutations(range(inst.n)):
        rebased = Instance(base.agent_names, base.categories, perm)
        rejected = rr(rebased)[1].rejected
        rejected_sets.add(rejected)
        adj = oracle._reduced_adj(rebased, rejected)
        matchings = list(oracle._graph_matchings(adj, [c.quota for c in rebased.categories]))
        ms = max((len(m) for m in matchings), default=0)
        out.update(tuple(sorted(m.items())) for m in matchings if len(m) == ms)
    return frozenset(out), rejected_sets


def test_outcome_set_equals_plain_union_over_orderings():
    varied = 0
    for seed in range(30):
        inst = random_instance(4 + seed % 3, 2, seed=seed, eligibility_density=0.6,
                               tie_prob=0.4, unreserved=seed % 3)
        expected, rejected_sets = _plain_outcome_union(inst)
        assert rr_outcome_set(inst) == expected, seed
        varied += len(rejected_sets) >= 3
    # seeds 5, 7 and 17 reach 3, 3 and 4 distinct final reduced graphs
    assert varied >= 3


def test_walk_final_sets_are_the_scans_rejected_sets():
    """The state walk ends on exactly the rejected sets rr reaches over
    every ordering of the symmetrized instance."""
    with_unreserved = 0
    for seed in range(20):
        inst = random_instance(3 + seed % 4, 2, seed=seed, eligibility_density=0.6,
                               tie_prob=0.4, unreserved=seed % 3)
        with_unreserved += inst.has_unreserved
        base = oracle._symmetrize(inst)
        expected = {rr(Instance(base.agent_names, base.categories, perm))[1].rejected
                    for perm in itertools.permutations(range(inst.n))}
        assert oracle._final_rejected_sets(base) == expected, seed
    assert with_unreserved >= 10


def test_outcome_set_equals_plain_union_at_seven_tied_agents():
    inst = random_instance(7, 2, seed=2, eligibility_density=0.6, tie_prob=0.5,
                           unreserved=2)
    assert inst.has_unreserved and any(
        len(tier) > 1 for c in inst.categories for tier in c.ranking.tiers)
    expected, rejected_sets = _plain_outcome_union(inst)
    assert rr_outcome_set(inst) == expected
    # 5 distinct final reduced graphs, 8 outcomes
    assert len(rejected_sets) == 5 and len(expected) == 8


def test_bounds_are_enforced():
    inst = random_instance(oracle.MAX_AGENTS + 1, 2, seed=0)
    with pytest.raises(OracleBoundError):
        list(enumerate_matchings(inst))
    with pytest.raises(OracleBoundError):
        axiom_satisfying_set(inst)
    with pytest.raises(OracleBoundError):
        rr_outcome_set(inst)
    with pytest.raises(OracleBoundError):
        verify_characterization(inst)


def test_one_agent_bound_is_read_at_each_call(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_AGENTS", 5)
    entry_points = (lambda inst: list(enumerate_matchings(inst)), axiom_satisfying_set,
                    rr_outcome_set, verify_characterization)
    over = random_instance(6, 2, seed=0)
    for run in entry_points:
        with pytest.raises(OracleBoundError, match="6 agents, bound is 5"):
            run(over)
    at = random_instance(5, 2, seed=0)
    for run in entry_points:
        run(at)


def test_walk_budget_stops_a_dense_instance_under_the_agent_bound():
    # 12 agents is well under the agent bound, yet without the node budget
    # the axiom side's walk runs for minutes
    inst = random_instance(12, 4, max_quota=4, eligibility_density=0.9, tie_prob=0.4,
                           seed=0, unreserved=4)
    start = time.perf_counter()
    with pytest.raises(OracleBoundError, match="nodes"):
        axiom_satisfying_set(inst)
    assert time.perf_counter() - start < 20


def test_walk_budget_is_counted_in_both_walks(monkeypatch):
    inst = random_instance(8, 3, eligibility_density=0.7, seed=0)
    monkeypatch.setattr(oracle, "MAX_WALK_NODES", 10)
    with pytest.raises(OracleBoundError, match="10 nodes"):
        list(enumerate_matchings(inst))
    with pytest.raises(OracleBoundError, match="10 nodes"):
        axiom_satisfying_set(inst)
    with pytest.raises(OracleBoundError, match="10 nodes"):
        rr_outcome_set(inst)


def test_characterization_at_eight_agents():
    for seed in range(12):
        inst = random_instance(8, 2 + seed % 4, max_quota=2, eligibility_density=0.6,
                               tie_prob=0.4 * (seed % 2), seed=seed, unreserved=seed % 3)
        assert verify_characterization(inst).ok, seed


def test_characterization_beyond_eight_agents():
    # a dense generator (4 categories, 2 unreserved units) and a scarce one
    # (2 categories, 1 unreserved unit), up to 16 agents
    for n, seed in ((10, 0), (12, 0), (14, 2), (16, 1)):
        inst = random_instance(n, 4, max_quota=3, eligibility_density=0.7, tie_prob=0.4,
                               seed=seed, unreserved=2)
        assert verify_characterization(inst).ok, (n, seed)
    for n, seed in ((12, 2), (14, 1), (16, 2)):
        inst = random_instance(n, 2, max_quota=2, tie_prob=0.5, seed=seed, unreserved=1)
        assert verify_characterization(inst).ok, (n, seed)


def _guard_instances():
    """Seeded instances of 3-8 agents: ties, and an unreserved pair at the
    splits (0, q), (q, 0) and one in between."""
    for seed in range(24):
        inst = random_instance(3 + seed % 6, 1 + seed % 3, max_quota=2,
                               eligibility_density=0.6, tie_prob=0.4 * (seed % 3 > 0),
                               seed=seed, unreserved=seed % 4)
        yield inst
        if inst.has_unreserved:
            q = inst.unreserved_quota
            yield inst.with_split(q, 0)
            if q > 1:
                yield inst.with_split(1, q - 1)


def test_guard_instances_cover_ties_and_extreme_splits():
    instances = list(_guard_instances())
    assert {inst.n for inst in instances} == set(range(3, 9))
    assert any(len(tier) > 1 for inst in instances for c in inst.categories
               for tier in c.ranking.tiers)
    splits = {inst.split for inst in instances if inst.has_unreserved}
    assert {(0, 3), (3, 0), (0, 1), (1, 0)} <= splits


def _largest(matchings):
    matchings = [tuple(sorted(m.items())) for m in matchings]
    best = max(map(len, matchings), default=0)
    return {m for m in matchings if len(m) == best}


def test_pruned_walks_equal_the_unpruned_reference():
    """The maximum-only walker is shared by both sides, so it is held to
    the unpruned enumeration: on the rule side, the maximum matchings of
    every final reduced graph and of the full graph; on the axiom side,
    the priority-respecting ones among the maximum matchings."""
    for inst in _guard_instances():
        base = oracle._symmetrize(inst)
        quota = [c.quota for c in base.categories]
        for rejected in oracle._final_rejected_sets(base) | {frozenset()}:
            adj = oracle._reduced_adj(base, rejected)
            got = oracle._maximum_matchings(adj, quota, False)
            assert len(got) == len(set(got))
            assert set(got) == _largest(oracle._graph_matchings(adj, quota)), (inst, rejected)
        expected = {m for m in _largest(m.assignment for m in enumerate_matchings(inst))
                    if check_respect_priorities(inst, Matching(dict(m))).holds}
        assert axiom_satisfying_set(inst) == expected, inst


def test_walk_returns_the_brute_force_maximal_f_sets():
    """The F-set walk ends on exactly the maximal sets R whose reduced
    graph keeps the full maximum, found here over all subsets with scipy's
    maximum flow rather than the engine's tests and undos."""
    several = 0
    for inst in _guard_instances():
        base = oracle._symmetrize(inst)
        full = reference_size(base)
        f_sets = [frozenset(r) for k in range(inst.n + 1)
                  for r in itertools.combinations(range(inst.n), k)
                  if reference_size(base, r) == full]
        maximal = {r for r in f_sets if not any(r < s for s in f_sets)}
        assert oracle._final_rejected_sets(base) == maximal, inst
        several += len(maximal) >= 3
    assert several >= 5


def test_corrupted_scan_is_detected(scan, monkeypatch):
    """An engine that under-reports its first rejecting removal must surface
    as a discrepancy."""
    real_remove = _RejectionEngine.remove
    corrupted = []

    def miss_first_rejection(engine, i, prune, log):
        before = engine.size()
        size = real_remove(engine, i, prune, log)
        if size == before and not corrupted:
            corrupted.append(i)
            return size - 1
        return size

    monkeypatch.setattr(_RejectionEngine, "remove", miss_first_rejection)
    rep = verify_characterization(scan)
    assert corrupted
    assert not rep.ok and rep.only_rule_side
