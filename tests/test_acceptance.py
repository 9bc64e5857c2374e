"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the random suites are fully seeded and deterministic.
"""

import itertools
import resource
import time

from conftest import (RUNNING_DOC, make_instance, mg_pattern_instance, names_of,
                      reference_size)
from reserves.axioms import (check_eligibility, check_max_beneficiary,
                             check_nonwasteful, check_order_preservation,
                             check_respect_priorities, check_strategyproofness,
                             check_weak_nonbossiness)
from reserves.generator import random_instance
from reserves.model import PriorityRanking, apply_manipulation
from reserves.oracle import enumerate_matchings, verify_characterization
from reserves.rules import (deferred_acceptance, minimum_guarantees, over_and_above,
                            rr, srr)


def _pass(criterion: int, message: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {message}")


def test_criterion_1_running_example_every_ordering(running):
    per_ordering_ms = []
    for perm in itertools.permutations(["1", "2", "3"]):
        inst = make_instance(dict(RUNNING_DOC, baseline=list(perm)))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            matching, _ = rr(inst)
            best = min(best, (time.perf_counter() - t0) * 1e3)
        assert names_of(inst, matching) == {"2": "c2", "3": "c1"}
        per_ordering_ms.append(best)
    assert max(per_ordering_ms) < 1.0, f"slowest ordering {max(per_ordering_ms):.3f} ms"
    _pass(1, f"unique outcome on all 6 orderings, max {max(per_ordering_ms):.3f} ms each")


def test_criterion_2_scan_trace(scan):
    matching, trace = rr(scan)
    scan_order = [(scan.agent_names[i], i in trace.rejected) for i, _ in trace.tested]
    assert scan_order == [("4", True), ("3", False), ("2", True), ("1", False)]
    assert names_of(scan, matching) == {"1": "c1", "3": "c2"}
    _pass(2, "scan rejects 4 then 2, accepts 3 and 1, outputs {1->c1, 3->c2}")


def test_criterion_3_deferred_acceptance_gap(running):
    da = deferred_acceptance(running, {1: [0, 1], 2: [0]})
    matching, _ = rr(running)
    assert da.size() == 1 and matching.size() == 2
    _pass(3, "deferred acceptance with a shared first choice fills 1 of 2 units")


def test_criterion_4_reserve_rule_goldens(reserve, early_pool):
    assert names_of(reserve, minimum_guarantees(reserve)) == {"1": "c", "2": "c_u"}
    assert names_of(reserve, over_and_above(reserve)) == {"1": "c_u", "4": "c"}
    assert names_of(early_pool, over_and_above(early_pool)) == \
        {"1": "c_u", "3": "c1", "2": "c2"}
    _pass(4, "minimum-guarantees and over-and-above reproduce all golden outcomes")


def test_criterion_5_hiding_changes_others_but_weak_nonbossiness_holds(scan):
    truthful, _ = rr(scan)
    assert names_of(scan, truthful) == {"1": "c1", "3": "c2"}
    hidden = apply_manipulation(scan, 3, {0: PriorityRanking(((0,), (1,), (3,)), 2)})
    after, _ = rr(hidden)
    assert names_of(hidden, after) == {"1": "c2", "2": "c1"}
    # the matched set changed, so the unqualified non-bossiness property fails
    assert truthful.matched_agents() != after.matched_agents()
    # but agent 4 is last in the baseline, so the weak form survives
    assert check_weak_nonbossiness("rr", scan, budget=8).holds
    _pass(5, "hiding flips the matched set while weak non-bossiness holds")


def test_criterion_6_core_property_suite():
    t0 = time.perf_counter()
    count = 0
    for density in (0.3, 0.6, 0.9):
        for tie in (0.0, 0.3):
            for seed in range(170):
                count += 1
                inst = random_instance(4 + seed % 4, 1 + seed % 3, max_quota=2,
                                       eligibility_density=density, tie_prob=tie,
                                       seed=seed + int(density * 100) + int(tie * 10) * 1000)
                matching, trace = rr(inst)
                assert check_eligibility(inst, matching).holds
                assert check_respect_priorities(inst, matching).holds
                oracle_best = max((m.size() for m in enumerate_matchings(inst)), default=0)
                assert matching.size() == oracle_best
                assert matching.matched_agents() == set(range(inst.n)) - trace.rejected
                assert check_strategyproofness("rr", inst, budget=0).holds
                assert check_weak_nonbossiness("rr", inst, budget=0).holds
    elapsed = time.perf_counter() - t0
    assert count >= 1000
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _pass(6, f"{count} instances pass the full core suite in {elapsed:.1f}s")


def test_criterion_7_characterization():
    t0 = time.perf_counter()
    count = 0
    for seed in range(500):
        count += 1
        inst = random_instance(2 + seed % 4, 1 + seed % 3, max_quota=2,
                               eligibility_density=(0.3, 0.6, 0.9)[seed % 3],
                               tie_prob=(0.0, 0.3)[seed % 2], seed=9000 + seed)
        report = verify_characterization(inst)
        assert report.ok, f"seed {9000 + seed}: {report}"
    elapsed = time.perf_counter() - t0
    assert count >= 500
    assert elapsed < 120.0, f"characterization took {elapsed:.1f}s"
    _pass(7, f"outcome sets match the axiom sets on {count} instances in {elapsed:.1f}s")


def test_criterion_8_unreserved_property_suite():
    instances = 0
    q_cu = 2
    for seed in range(500):
        instances += 1
        inst = random_instance(4 + seed % 3, 2, max_quota=2,
                               eligibility_density=(0.3, 0.6, 0.9)[seed % 3],
                               tie_prob=(0.0, 0.3)[seed % 2], seed=20000 + seed,
                               unreserved=q_cu)
        for split in ((0, q_cu), (q_cu, 0), (1, q_cu - 1)):
            work = inst.with_split(*split)
            matching = srr(work)
            assert check_eligibility(work, matching).holds
            assert check_max_beneficiary(work, matching).holds
            assert check_respect_priorities(work, matching).holds
            assert check_order_preservation(work, matching).holds
            assert check_strategyproofness("srr", work, budget=0).holds
            assert check_weak_nonbossiness("srr", work, budget=0).holds
    assert instances >= 500
    _pass(8, f"srr passes the six-property suite on {instances} instances x 3 splits")


def test_criterion_9_classical_rules_versus_srr():
    count = 0
    for seed in range(200):
        count += 1
        inst = mg_pattern_instance(seed, agents=5 + seed % 3, cats=1 + seed % 2,
                                   unreserved=1 + seed % 3)
        q = inst.unreserved_quota
        assert srr(inst.with_split(0, q)) == minimum_guarantees(inst)
        work = inst.with_split(q, 0)
        early = srr(work)
        assert check_eligibility(work, early).holds
        assert check_max_beneficiary(work, early).holds
        assert check_respect_priorities(work, early).holds
        assert check_nonwasteful(work, early).holds
        assert check_order_preservation(work, early).holds
    assert count >= 200
    _pass(9, f"srr(0,q) equals minimum-guarantees exactly on {count} instances; "
             "srr(q,0) satisfies the over-and-above property set")


def test_criterion_10_scalability():
    inst = random_instance(1000, 20, max_quota=50, eligibility_density=0.5,
                           tie_prob=0.0, seed=77)
    t0 = time.perf_counter()
    matching, trace = rr(inst)
    elapsed = time.perf_counter() - t0
    assert matching.size() == trace.ms_total
    assert matching.size() == reference_size(inst)
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 512, f"peak RSS {peak_mb:.0f} MB"
    _pass(10, f"n=1000, 20 categories: scan in {elapsed:.2f}s, peak {peak_mb:.0f} MB")
