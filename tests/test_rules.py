import hashlib
import itertools
import json
import random
import time

import pytest

from conftest import (RUNNING_DOC, classical_corpus_doc, make_instance, mg_pattern_instance,
                      names_of, reference_size, surviving_edges, with_quotas)
from reserves.axioms import (check_eligibility, check_max_beneficiary,
                             check_nonwasteful, check_order_preservation,
                             check_respect_priorities)
from reserves.generator import random_instance
from reserves.rules import (PreconditionError, RrTrace, deferred_acceptance, minimum_guarantees,
                            over_and_above, rr, soft_reserves, srr)


def _brute_force_ms(edges, quota) -> int:
    """Independent maximum-matching size: depth-first enumeration over the
    surviving edges, no shared code with the kernels."""
    agents = sorted({a for a, _ in edges})
    adj = {a: sorted(c for b, c in edges if b == a) for a in agents}

    def walk(k: int, used: dict) -> int:
        if k == len(agents):
            return 0
        a = agents[k]
        best = walk(k + 1, used)
        for c in adj[a]:
            if used.get(c, 0) < quota[c]:
                used[c] = used.get(c, 0) + 1
                best = max(best, 1 + walk(k + 1, used))
                used[c] -= 1
        return best

    return walk(0, {})


def _naive_rejected(inst) -> set[int]:
    """Reference rejection scan using the brute-force matching size."""
    quota = [c.quota for c in inst.categories]
    ms_total = _brute_force_ms(surviving_edges(inst), quota)
    rejected: set[int] = set()
    for i in reversed(inst.baseline):
        if _brute_force_ms(surviving_edges(inst, rejected | {i}), quota) == ms_total:
            rejected.add(i)
    return rejected


# ---------------------------------------------------------------------------
# rejection scan
# ---------------------------------------------------------------------------

def test_rr_running_example_every_ordering():
    base = dict(RUNNING_DOC)
    for perm in itertools.permutations(["1", "2", "3"]):
        doc = dict(base, baseline=list(perm))
        inst = make_instance(doc)
        matching, trace = rr(inst)
        assert names_of(inst, matching) == {"2": "c2", "3": "c1"}
        assert trace.ms_total == 2


def test_rr_scan_trace(scan):
    matching, trace = rr(scan)
    assert names_of(scan, matching) == {"1": "c1", "3": "c2"}
    order = [(scan.agent_names[i], i in trace.rejected) for i, _ in trace.tested]
    assert order == [("4", True), ("3", False), ("2", True), ("1", False)]
    assert sorted(scan.agent_names[a] for a in trace.rejected) == ["2", "4"]
    for i, size in trace.tested:
        assert (i in trace.rejected) == (size == trace.ms_total)


def test_rr_trace_keeps_the_scan_pairs():
    # ties in every other instance, unreserved units in two of three
    for seed in range(60):
        inst = random_instance(4 + seed % 37, 1 + seed % 5, max_quota=3,
                               eligibility_density=0.5, tie_prob=(0.0, 0.4)[seed % 2],
                               seed=500 + seed, unreserved=2 * (seed % 3))
        _, trace = rr(inst)
        ms_total = trace.ms_total
        fresh = RrTrace(trace.rejected, trace.tested, ms_total)
        agents = [i for i, _ in trace.tested]
        assert agents == [a for a in reversed(inst.baseline) if a in set(agents)]
        assert trace.rejected == frozenset(i for i, s in trace.tested if s == ms_total)
        assert trace == fresh and hash(trace) == hash(fresh)


def test_rr_nothing_eligible():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [], "cutoff": 0}]}
    inst = make_instance(doc)
    matching, trace = rr(inst)
    assert matching.size() == 0
    assert trace.rejected == frozenset({0, 1})


def test_rr_matches_naive_reference():
    for seed in range(40):
        inst = random_instance(5, 2, seed=seed,
                               eligibility_density=(0.3, 0.6, 0.9)[seed % 3],
                               tie_prob=(0.0, 0.3)[seed % 2])
        matching, trace = rr(inst)
        assert trace.rejected == frozenset(_naive_rejected(inst))
        assert matching.matched_agents() == set(range(inst.n)) - trace.rejected
        assert matching.size() == trace.ms_total


def test_rr_ms_tested_matches_fresh_matching_when_many_pairs_die():
    # scarce, sparse, tied instances: one pruning removal often unmatches
    # several agents of a category at once, and the scan's incremental
    # re-augmentation must still land on the from-scratch maximum
    for seed in range(20):
        inst = random_instance(100 + 5 * seed, 3 + seed % 6, max_quota=12,
                               eligibility_density=0.3, tie_prob=0.3, seed=1000 + seed)
        _, trace = rr(inst)
        rejected: set[int] = set()
        for i, size in trace.tested:
            assert size == reference_size(inst, rejected | {i}), (seed, i)
            if i in trace.rejected:
                rejected.add(i)


@pytest.mark.parametrize("agents,density", [(3000, 0.5), (30000, 0.05)],
                         ids=["3000-agents", "30000-agents"])
def test_rr_scan_at_50_categories(agents, density):
    # at 3000 agents, 1452 of the 3000 tests lower the size; re-augmenting
    # each from every unmatched agent took about 33 s, from the spare columns
    # about 1 s. At 30000 agents, copying the engine's lists at every test
    # took about 12 s; the trail, which copies only when a pair dies, about 1 s
    inst = random_instance(agents, 50, max_quota=50, eligibility_density=density, seed=77)
    t0 = time.perf_counter()
    matching, trace = rr(inst)
    elapsed = time.perf_counter() - t0
    assert matching.size() == trace.ms_total == reference_size(inst)
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s"


def test_rr_final_matching_equals_public_path():
    for seed in range(30):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.5, tie_prob=0.2)
        matching, trace = rr(inst)
        assert set(matching.pairs()) <= set(surviving_edges(inst, trace.rejected))
        assert matching.size() == reference_size(inst, trace.rejected)


def test_rr_core_properties_random():
    for seed in range(60):
        inst = random_instance(7, 3, seed=100 + seed, eligibility_density=0.5, tie_prob=0.3)
        matching, trace = rr(inst)
        assert check_eligibility(inst, matching).holds
        assert check_respect_priorities(inst, matching).holds
        assert check_nonwasteful(inst, matching).holds
        assert matching.size() == reference_size(inst)


# ---------------------------------------------------------------------------
# srr and the classical reserve rules
# ---------------------------------------------------------------------------

def test_srr_reserve_example_both_splits(reserve):
    late = srr(reserve.with_split(0, 1))
    assert names_of(reserve, late) == {"1": "c", "2": "c_u"}
    early = srr(reserve.with_split(1, 0))
    assert names_of(reserve, early) == {"1": "c_u", "4": "c"}


def test_srr_matches_mg_and_oaa_on_reserve_example(reserve):
    assert srr(reserve.with_split(0, 1)) == minimum_guarantees(reserve)
    assert srr(reserve.with_split(1, 0)) == over_and_above(reserve)


def test_srr_no_unreserved_units_reduces_to_rr():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [
               {"name": "c", "quota": 1, "kind": "preferential",
                "tiers": [["a"], ["b"]], "cutoff": 2},
               {"name": "u", "quota": 0, "kind": "unreserved"}]}
    matching = srr(make_instance(doc).with_split(0, 0))
    rr_matching, _ = rr(make_instance({**doc, "categories": doc["categories"][:1]}))
    assert matching.matched_agents() == rr_matching.matched_agents()


def test_srr_requires_unreserved(running):
    with pytest.raises(PreconditionError):
        srr(running)


def test_srr_early_pool_golden(early_pool):
    m = srr(early_pool)  # declared split (1, 0)
    assert names_of(early_pool, m) == {"1": "c_u", "3": "c1", "2": "c2"}


def test_srr_properties_random():
    for seed in range(40):
        q_cu = 2
        inst = random_instance(6, 2, seed=seed, eligibility_density=0.5,
                               tie_prob=0.3, unreserved=q_cu)
        for q1 in range(q_cu + 1):
            work = inst.with_split(q1, q_cu - q1)
            m = srr(work)
            assert check_eligibility(work, m).holds
            assert check_max_beneficiary(work, m).holds
            assert check_respect_priorities(work, m).holds
            assert check_nonwasteful(work, m).holds
            assert check_order_preservation(work, m).holds


def test_mg_golden(reserve):
    assert names_of(reserve, minimum_guarantees(reserve)) == {"1": "c", "2": "c_u"}


def test_oaa_golden(reserve, early_pool):
    assert names_of(reserve, over_and_above(reserve)) == {"1": "c_u", "4": "c"}
    m = over_and_above(early_pool)
    assert names_of(early_pool, m) == {"1": "c_u", "3": "c1", "2": "c2"}


def test_mg_without_preferential_is_serial_dictatorship():
    doc = {"agents": ["a", "b", "c"], "baseline": ["c", "a", "b"],
           "categories": [{"name": "u", "quota": 2, "kind": "unreserved"}]}
    inst = make_instance(doc)
    m = minimum_guarantees(inst)
    assert m.matched_agents() == {inst.baseline[0], inst.baseline[1]}


def test_mg_oaa_precondition_two_categories(running):
    # agent 2 is eligible for both preferential categories
    with pytest.raises(PreconditionError):
        minimum_guarantees(running)
    with pytest.raises(PreconditionError):
        over_and_above(running)


def test_mg_oaa_precondition_inconsistent_priorities():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [["b"], ["a"]], "cutoff": 2}]}
    inst = make_instance(doc)
    with pytest.raises(PreconditionError):
        minimum_guarantees(inst)
    with pytest.raises(PreconditionError):
        over_and_above(inst)


def test_srr_all_late_equals_mg_exactly():
    for seed in range(40):
        inst = mg_pattern_instance(seed)
        assert srr(inst.with_split(0, inst.unreserved_quota)) == minimum_guarantees(inst)


def test_mg_oaa_outputs_pinned_on_classical_corpus():
    # Pins both rules' outputs independently of srr: the digest was taken
    # from the one-pass implementations of minimum guarantees and
    # over-and-above on these 2,000 documents. A PreconditionError counts by
    # its message, so the first error an instance outside the domain raises
    # is pinned too.
    rows, kinds = [], {"in domain": 0, "two categories": 0, "inconsistent": 0}
    for seed in range(2000):
        inst = make_instance(classical_corpus_doc(seed))
        row = []
        for rule in (minimum_guarantees, over_and_above):
            try:
                row.append(rule(inst).canonical())
            except PreconditionError as e:
                row.append(str(e))
        rows.append(row)
        if isinstance(row[0], tuple):
            kinds["in domain"] += 1
        else:
            assert row[1] == row[0]
            kinds["two categories" if "more than one" in row[0] else "inconsistent"] += 1
    assert kinds == {"in domain": 1667, "two categories": 154, "inconsistent": 179}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "12735dc5fc09819e668b517965a996cdca2df446857245461eb3b1f2560716f5"


def test_rr_srr_outputs_pinned_on_a_seeded_corpus():
    # Pins rr's matching, rejection trace and maximum size, and srr's
    # matching at every split, on 400 seeded instances of 5-64 agents: ties
    # in half of them, unreserved units in two thirds. The digest was taken
    # before the engine's scans shared one loop. About 1 s.
    rows = []
    for seed in range(400):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(5, 64), rng.randint(1, 6), max_quota=rng.randint(1, 4),
                               eligibility_density=rng.choice((0.2, 0.4, 0.7)),
                               tie_prob=0.4 if seed % 2 else 0.0, seed=seed,
                               unreserved=rng.randint(1, 8) if seed % 3 else 0)
        matching, trace = rr(inst)
        row = [matching.canonical(), trace.tested, trace.ms_total]
        if inst.has_unreserved:
            q = inst.unreserved_quota
            row.append([srr(inst.with_split(k, q - k)).canonical() for k in range(q + 1)])
        rows.append(row)
    assert sum(len(row) == 4 for row in rows) == 266
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "dfdc03781e3b5c5f6358ea17aac502f395477b7c1e344cddfec51cb778ca8e0a"


# ---------------------------------------------------------------------------
# deferred acceptance
# ---------------------------------------------------------------------------

def test_da_common_first_choice_shrinks_outcome(running):
    prefs = {0: [], 1: [0, 1], 2: [0]}  # everyone aims at c1 first
    da = deferred_acceptance(running, prefs)
    assert names_of(running, da) == {"2": "c1"}
    matching, _ = rr(running)
    assert da.size() == 1 < matching.size() == 2


def test_da_hand_simulated_case(running):
    da = deferred_acceptance(running, {1: [1, 0], 2: [0]})
    assert names_of(running, da) == {"2": "c2", "3": "c1"}


def test_da_disjoint_single_listings():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [
               {"name": "c1", "quota": 1, "kind": "preferential",
                "tiers": [["a"]], "cutoff": 1},
               {"name": "c2", "quota": 1, "kind": "preferential",
                "tiers": [["b"]], "cutoff": 1}]}
    inst = make_instance(doc)
    da = deferred_acceptance(inst, {0: [0], 1: [1]})
    assert da.assignment == {0: 0, 1: 1}


def test_da_rejects_ineligible_listing(running):
    with pytest.raises(PreconditionError):
        deferred_acceptance(running, {0: [0]})  # agent 1 is not eligible for c1


def test_da_with_complete_lists_respects_priorities():
    for seed in range(30):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.6, tie_prob=0.2)
        rng = random.Random(seed)
        prefs = {}
        for i in range(inst.n):
            elig = inst.eligible_categories(i)
            rng.shuffle(elig)
            prefs[i] = elig
        m = deferred_acceptance(inst, prefs)
        assert check_respect_priorities(inst, m).holds


def test_da_with_partial_lists_guarantees_hold_for_listed_categories():
    for seed in range(30):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.6, tie_prob=0.2)
        rng = random.Random(seed)
        prefs = {}
        for i in range(inst.n):
            elig = inst.eligible_categories(i)
            rng.shuffle(elig)
            prefs[i] = elig[: rng.randint(0, len(elig))]
        m = deferred_acceptance(inst, prefs)
        for j in range(inst.n):
            if m.is_matched(j):
                continue
            for c in prefs[j]:
                # no wasted unit of a listed category
                assert m.count_in(c) >= inst.categories[c].quota
                # no justified envy toward a listed category
                for i, ci in m.pairs():
                    if ci == c:
                        assert not inst.position(c, j) < inst.position(c, i)


def test_da_outputs_pinned_on_a_seeded_corpus():
    # Pins deferred acceptance's matching on 300 seeded instances of 5-60
    # agents: ties in half, unreserved units in a third, one category's
    # quota set to 0 in a quarter, each agent listing a random subset of her
    # eligible categories in random order, a tenth absent from the lists. The
    # digest was taken while each proposal scanned every holder.
    rows = []
    for seed in range(300):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(5, 60), rng.randint(1, 6), max_quota=rng.randint(1, 5),
                               eligibility_density=rng.choice((0.2, 0.5, 0.8)),
                               tie_prob=0.5 if seed % 2 else 0.0, seed=seed,
                               unreserved=rng.randint(1, 6) if seed % 3 == 0 else 0)
        if seed % 4 == 1:
            quotas = [cat.quota for cat in inst.categories]
            quotas[rng.randrange(len(quotas))] = 0
            inst = with_quotas(inst, quotas)
        prefs = {}
        for i in range(inst.n):
            if rng.random() < 0.1:
                continue
            elig = inst.eligible_categories(i)
            rng.shuffle(elig)
            prefs[i] = elig[:rng.randint(1, max(1, len(elig)))]
        rows.append(deferred_acceptance(inst, prefs).canonical())
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "e4dd1ae884db19e0f20c9e2427f9d00398a1007535e8690f1a193bf79d87e70d"


# ---------------------------------------------------------------------------
# soft reserves
# ---------------------------------------------------------------------------

def test_soft_gives_leftover_unit_to_ineligible_agent():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [
               {"name": "c", "quota": 2, "kind": "preferential",
                "tiers": [["a"]], "cutoff": 1},
               {"name": "u", "quota": 0, "kind": "unreserved"}]}
    inst = make_instance(doc)
    m = soft_reserves(inst.with_split(0, 0))
    assert m.assignment == {0: 0, 1: 0}
    assert not inst.eligible(1, 0)
    # brute force: among all quota-respecting assignments this is the only
    # one that matches both agents
    full = [dict(zip((0, 1), combo))
            for combo in itertools.product((0,), repeat=2)]
    assert {0: 0, 1: 0} in full


def test_soft_identical_to_srr_without_leftovers(reserve):
    work = reserve.with_split(0, 1)
    assert soft_reserves(work) == srr(work)


def test_soft_identical_to_srr_without_recipients():
    # a preferential unit is left over but every agent is already matched
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [
               {"name": "c", "quota": 2, "kind": "preferential",
                "tiers": [["a"]], "cutoff": 1},
               {"name": "u", "quota": 0, "kind": "unreserved"}]}
    inst = make_instance(doc)
    work = inst.with_split(0, 0)
    assert soft_reserves(work) == srr(work)
    assert soft_reserves(work).assignment == {0: 0}


def test_soft_precondition_rejects_inconsistent_ineligible_ranking():
    doc = {"agents": ["a", "b", "x"], "baseline": ["a", "b", "x"],
           "categories": [
               {"name": "c", "quota": 1, "kind": "preferential",
                "tiers": [["a"], ["x"], ["b"]], "cutoff": 1},
               {"name": "u", "quota": 0, "kind": "unreserved"}]}
    inst = make_instance(doc)  # x is ranked above b below the cutoff, baseline disagrees?
    # baseline a > b > x but the category ranks x above b among ineligibles
    with pytest.raises(PreconditionError):
        soft_reserves(inst.with_split(0, 0))
