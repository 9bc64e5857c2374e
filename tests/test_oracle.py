import itertools
import math

import pytest

from conftest import make_instance
from reserves import oracle
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine, reduced_graph
from reserves.model import Instance
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
        matchings = list(oracle._graph_matchings(reduced_graph(rebased, rejected=rejected)))
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
    inst = random_instance(9, 2, seed=0)
    with pytest.raises(OracleBoundError):
        list(enumerate_matchings(inst))
    with pytest.raises(OracleBoundError):
        rr_outcome_set(inst)


def test_characterization_at_eight_agents():
    for seed in range(12):
        inst = random_instance(8, 2 + seed % 4, max_quota=2, eligibility_density=0.6,
                               tie_prob=0.4 * (seed % 2), seed=seed, unreserved=seed % 3)
        assert verify_characterization(inst, 8).ok, seed


def test_corrupted_scan_is_detected(scan, monkeypatch):
    """An engine that under-reports its first rejecting test must surface as
    a discrepancy."""
    real_test_remove = _RejectionEngine.test_remove
    corrupted = []

    def miss_first_rejection(engine, i, prune):
        before = engine.size()
        size = real_test_remove(engine, i, prune)
        if size == before and not corrupted:
            corrupted.append(i)
            return size - 1
        return size

    monkeypatch.setattr(_RejectionEngine, "test_remove", miss_first_rejection)
    rep = verify_characterization(scan)
    assert corrupted
    assert not rep.ok and rep.only_rule_side
