import random

import pytest

from conftest import make_instance
from reserves.axioms import (EnvyWitness, check_eligibility, check_max_beneficiary,
                             check_max_size, check_nonwasteful,
                             check_order_preservation, check_respect_priorities,
                             check_strategyproofness, check_weak_nonbossiness)
from reserves.generator import random_instance
from reserves.graph import reduced_graph
from reserves.model import Matching, ValidationError
from reserves.oracle import enumerate_matchings
from reserves.rules import rr

# matchings of the running example, keyed by the usual enumeration
MU = {
    1: Matching({}),
    2: Matching({1: 0}),
    3: Matching({1: 1}),
    4: Matching({2: 0}),
    5: Matching({1: 1, 2: 0}),
}


def test_eligibility(running):
    assert check_eligibility(running, MU[5]).holds
    rep = check_eligibility(running, Matching({0: 0}))
    assert not rep.holds
    assert (rep.witnesses[0].agent, rep.witnesses[0].category) == (0, 0)
    assert check_eligibility(running, MU[1]).holds


def test_respect_priorities(running):
    for k in (1, 2, 3, 5):
        assert check_respect_priorities(running, MU[k]).holds
    rep = check_respect_priorities(running, MU[4])
    assert not rep.holds
    w = rep.witnesses[0]
    assert (w.envier, w.envied, w.category) == (1, 2, 0)


def test_respect_priorities_vacuous_when_everyone_matched():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [{"name": "c", "quota": 2, "kind": "preferential",
                           "tiers": [["b"], ["a"]], "cutoff": 2}]}
    inst = make_instance(doc)
    assert check_respect_priorities(inst, Matching({0: 0, 1: 0})).holds


def _respect_priorities_reference(inst, m):
    """Every (matched, unmatched) pair compared directly."""
    unmatched = [j for j in range(inst.n) if not m.is_matched(j)]
    bad = [EnvyWitness(j, i, c)
           for i, c in m.pairs()
           for j in unmatched
           if inst.position(c, j) < inst.position(c, i)]
    return sorted(bad, key=lambda w: (w.envier, w.envied, w.category))


def test_respect_priorities_matches_pairwise_reference():
    violations = 0
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(1, 25), rng.randint(1, 4), max_quota=3,
                               eligibility_density=rng.choice((0.3, 0.7)),
                               tie_prob=rng.choice((0.0, 0.5)), seed=seed, unreserved=2)
        room = {c: cat.quota for c, cat in enumerate(inst.categories)}
        assignment = {}
        for a in rng.sample(range(inst.n), rng.randint(0, inst.n)):
            c = rng.randrange(len(inst.categories))
            if room[c]:
                room[c] -= 1
                assignment[a] = c
        m = Matching(assignment)
        ref = _respect_priorities_reference(inst, m)
        violations += bool(ref)
        for cap in (0, 3, 10, 1000):
            rep = check_respect_priorities(inst, m, max_witnesses=cap)
            assert rep.witnesses == tuple(ref[:cap]), seed
            assert (rep.holds, rep.witnesses_total) == (not ref, len(ref)), seed
    assert violations > 100


def test_nonwasteful(running):
    assert check_nonwasteful(running, MU[2]).holds
    assert check_nonwasteful(running, MU[5]).holds
    rep = check_nonwasteful(running, MU[3])
    assert not rep.holds and (rep.witnesses[0].agent, rep.witnesses[0].category) == (2, 0)
    assert not check_nonwasteful(running, MU[1]).holds


def test_nonwasteful_zero_quota():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "c", "quota": 0, "kind": "preferential",
                           "tiers": [["a"]], "cutoff": 1}]}
    inst = make_instance(doc)
    assert check_nonwasteful(inst, Matching({})).holds


def test_max_size(running):
    assert check_max_size(running, MU[5]).holds
    rep = check_max_size(running, MU[2])
    assert not rep.holds
    assert (rep.witnesses[0].found, rep.witnesses[0].optimum) == (1, 2)
    with pytest.raises(ValidationError):
        check_max_size(running, Matching({0: 0}))


def test_max_size_empty_instance():
    inst = make_instance({"agents": [], "baseline": [], "categories": []})
    assert check_max_size(inst, Matching({})).holds


def test_max_beneficiary(reserve):
    assert check_max_beneficiary(reserve, Matching({0: 0, 1: 2})).holds
    rep = check_max_beneficiary(reserve, Matching({0: 2}))
    assert not rep.holds
    assert (rep.witnesses[0].found, rep.witnesses[0].optimum) == (0, 1)


def test_max_beneficiary_without_preferential():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "u", "quota": 1, "kind": "unreserved"}]}
    inst = make_instance(doc)
    assert check_max_beneficiary(inst, Matching({})).holds


def test_order_preservation_holds_for_mg_outcome(reserve):
    work = reserve.with_split(0, 1)
    assert check_order_preservation(work, Matching({0: 0, 1: 2})).holds


def test_order_preservation_clause2_violation(reserve):
    # agent 1 parks in the late pool while agent 4 takes the category that
    # ranks agent 1 first
    work = reserve.with_split(0, 1)
    rep = check_order_preservation(work, Matching({3: 0, 0: 2}))
    assert not rep.holds
    w = rep.witnesses[0]
    assert (w.clause, w.agent_early, w.agent_late) == (2, 0, 3)


def test_order_preservation_clause1_violation(early_pool):
    # agent 3 holds the early unreserved unit although agent 1, matched into
    # c1, outranks her in the baseline and 3 could take c1 instead
    # (ids: 0/1 = unreserved early/late pools, 2 = c1, 3 = c2)
    m = Matching({2: 0, 0: 2, 1: 3})
    rep = check_order_preservation(early_pool.with_split(1, 0), m)
    assert not rep.holds
    w = rep.witnesses[0]
    assert (w.clause, w.agent_early, w.agent_late) == (1, 0, 2)


def test_order_preservation_vacuous_without_pool_use(reserve):
    assert check_order_preservation(reserve.with_split(0, 1), Matching({0: 0})).holds


def test_strategyproofness_running(running):
    assert check_strategyproofness("rr", running, budget=8).holds


def test_strategyproofness_scan_instance(scan):
    rep = check_strategyproofness("rr", scan, budget=8)
    assert rep.holds
    assert "manipulation space" in rep.note


def test_strategyproofness_single_agent():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [], "cutoff": 0}]}
    inst = make_instance(doc)
    assert check_strategyproofness("rr", inst, budget=8).holds


def test_harness_rejects_other_rules(running):
    with pytest.raises(ValidationError):
        check_strategyproofness("mg", running, budget=1)


def test_weak_nonbossiness_scan_instance(scan):
    # hiding c1 changes who is matched (full non-bossiness fails) but the
    # manipulating agent is last in the baseline, so the weak form holds
    assert check_weak_nonbossiness("rr", scan, budget=8).holds


def test_weak_nonbossiness_random():
    for seed in range(25):
        inst = random_instance(5, 2, seed=seed, eligibility_density=0.6, tie_prob=0.3)
        assert check_weak_nonbossiness("rr", inst, budget=4).holds


def test_priority_respecting_full_cover_matchings_live_in_reduced_graph():
    # if a matching respects priorities and matches exactly N minus U, it is
    # a matching of the graph reduced by U
    for seed in range(25):
        inst = random_instance(5, 2, seed=seed, eligibility_density=0.6, tie_prob=0.2)
        for m in enumerate_matchings(inst):
            if not check_respect_priorities(inst, m).holds:
                continue
            unmatched = set(range(inst.n)) - m.matched_agents()
            g = reduced_graph(inst, rejected=unmatched)
            assert set(m.pairs()) <= set(g.edges)


def test_rr_outputs_pass_every_checker():
    for seed in range(25):
        inst = random_instance(6, 3, seed=1000 + seed, eligibility_density=0.5,
                               tie_prob=0.3)
        m, _ = rr(inst)
        for check in (check_eligibility, check_respect_priorities,
                      check_nonwasteful, check_max_size):
            assert check(inst, m).holds


def test_witnesses_are_capped_with_full_count():
    n = 13
    names = [str(i) for i in range(n)]
    doc = {"agents": names, "baseline": names,
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [[nm] for nm in names], "cutoff": n}]}
    inst = make_instance(doc)
    rep = check_respect_priorities(inst, Matching({n - 1: 0}))
    assert not rep.holds
    assert len(rep.witnesses) == 10 and rep.witnesses_total == 12
    wide = check_respect_priorities(inst, Matching({n - 1: 0}), max_witnesses=20)
    assert len(wide.witnesses) == 12
