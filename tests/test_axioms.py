import hashlib
import itertools
import json
import random
import time

import pytest

from conftest import adj_edges, make_instance
from reserves import axioms, cli
from reserves.axioms import (EnvyWitness, OrderWitness, SizeGapWitness, WasteWitness,
                             _preferential_optimum, check_eligibility,
                             check_max_beneficiary, check_max_size, check_nonwasteful,
                             check_order_preservation, check_respect_priorities,
                             check_strategyproofness, check_weak_nonbossiness)
from reserves.generator import random_instance, random_instance_document
from reserves.graph import _RejectionEngine
from reserves.model import Matching, ValidationError, instance_from_document
from reserves.oracle import _reduced_adj, enumerate_matchings
from reserves.rules import PreconditionError, rr, srr

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
    violations = below_slot = 0
    for seed, cut in itertools.product(range(300), (False, True)):
        rng = random.Random(seed)
        doc = random_instance_document(rng.randint(1, 25), rng.randint(1, 4), max_quota=3,
                                       eligibility_density=rng.choice((0.3, 0.7)),
                                       tie_prob=rng.choice((0.0, 0.5)), seed=seed, unreserved=2)
        if cut:
            # the empty slot anywhere in the ranking, so that holders can sit
            # below it, as soft's overflow grants do
            cut_rng = random.Random(-seed)
            for cat in doc["categories"]:
                if cat["kind"] == "preferential":
                    cat["cutoff"] = cut_rng.randint(0, len(cat["tiers"]))
        inst = make_instance(doc)
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
        below_slot += any(inst.position(c, i) > inst.categories[c].ranking.cutoff
                          for i, c in m.pairs())
        for cap in (0, 3, 10, 1000):
            rep = check_respect_priorities(inst, m, max_witnesses=cap)
            assert rep.witnesses == tuple(ref[:cap]), seed
            assert (rep.holds, rep.witnesses_total) == (not ref, len(ref)), seed
    assert violations > 200 and below_slot > 50, (violations, below_slot)


def _nonwasteful_reference(inst, m):
    """Every unmatched agent against every category she is eligible for."""
    counts = {c: m.count_in(c) for c in range(len(inst.categories))}
    return [WasteWitness(i, c)
            for i in range(inst.n) if not m.is_matched(i)
            for c in inst.eligible_categories(i)
            if counts[c] < inst.categories[c].quota]


def _order_preservation_reference(inst, m):
    """Every ordered pair of matched agents compared directly."""
    cf, cl = inst.unreserved_first_id, inst.unreserved_last_id
    pref = set(inst.preferential_ids)
    bad = []
    for i, ci in m.pairs():
        for j, cj in m.pairs():
            if i == j:
                continue
            if cj == cf and (ci in pref or ci == cl) and \
                    inst.position(cj, i) < inst.position(cj, j) and inst.eligible(j, ci):
                bad.append(OrderWitness(1, i, j, ci, cj))
            if ci == cl and (cj in pref or cj == cf) and \
                    inst.position(cj, i) < inst.position(cj, j) and inst.eligible(i, cj):
                bad.append(OrderWitness(2, i, j, ci, cj))
    bad.sort(key=lambda w: (w.clause, w.agent_early, w.agent_late))
    return bad


def _random_matching(rng, inst, ineligible):
    """A random matching within quota; eligible pairs only unless ``ineligible``."""
    room = [cat.quota for cat in inst.categories]
    assignment = {}
    for a in rng.sample(range(inst.n), rng.randint(0, inst.n)):
        options = [c for c, left in enumerate(room) if left and (ineligible or inst.eligible(a, c))]
        if options:
            c = rng.choice(options)
            room[c] -= 1
            assignment[a] = c
    return Matching(assignment)


def test_nonwasteful_and_order_preservation_match_pairwise_references():
    witnesses = {"nonwasteful": 0, "order_preservation": 0}
    for seed in range(3000):
        rng = random.Random(seed)
        q = rng.randint(1, 6)
        inst = random_instance(rng.randint(1, 25), rng.randint(0, 4), max_quota=3,
                               eligibility_density=rng.choice((0.3, 0.7)),
                               tie_prob=rng.choice((0.0, 0.5)), seed=seed, unreserved=q)
        first = rng.choice((0, q, rng.randint(0, q)))
        inst = inst.with_split(first, q - first)
        m = _random_matching(rng, inst, ineligible=rng.random() < 0.3)
        for check, reference in ((check_nonwasteful, _nonwasteful_reference),
                                 (check_order_preservation, _order_preservation_reference)):
            ref = reference(inst, m)
            for cap in (1, 3, 10, 1000):
                rep = check(inst, m, max_witnesses=cap)
                assert (rep.holds, rep.witnesses, rep.witnesses_total, rep.note) == \
                    (not ref, tuple(ref[:cap]), len(ref), None), (seed, rep.axiom, cap)
            witnesses[rep.axiom] += len(ref)
    assert witnesses["nonwasteful"] > 10000 and witnesses["order_preservation"] > 1000


def test_checkers_scale_with_the_matching():
    """Order preservation and non-wastefulness on srr's output at n=10,000
    (about 3,300 matched agents): the pairwise order-preservation loop took
    7 s here, the per-agent waste loop 0.17 s."""
    inst = random_instance(10000, 50, max_quota=50, eligibility_density=0.05, tie_prob=0.4,
                           seed=77, unreserved=2000).with_split(1000, 1000)
    m = srr(inst)
    for check in (check_order_preservation, check_nonwasteful):
        t0 = time.perf_counter()
        rep = check(inst, m)
        elapsed = time.perf_counter() - t0
        assert rep.holds, rep
        assert elapsed < 1.0, (rep.axiom, elapsed)


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


def test_check_builds_the_preferential_engine_once(tmp_path, monkeypatch):
    """max-size and max-beneficiary need at most one preferential engine
    between them, and none when the matching fills every preferential unit
    with eligible agents."""
    inst, matching = tmp_path / "i.json", tmp_path / "m.json"
    inst.write_text(json.dumps(random_instance_document(8, 3, seed=5, unreserved=2)))
    given = ["--split", "1,1", "--instance", str(inst)]
    assert cli.main(["allocate", "--rule", "srr", *given, "--out", str(matching)]) == 0
    builds = []
    init = _RejectionEngine.__init__
    monkeypatch.setattr(_RejectionEngine, "__init__",
                        lambda engine, *args: builds.append(args) or init(engine, *args))
    _preferential_optimum.cache_clear()
    report = tmp_path / "report.json"
    check = ["check", *given, "--matching", str(matching), "--out", str(report)]
    # srr's matching fills c0, c1 and both units of c2: it certifies its own size
    assert cli.main([*check, "--axioms", "all"]) == 0
    assert builds == []
    # without a0's unit in c1 the engine gives the optimum, once for both axioms
    doc = json.loads(matching.read_text())
    assert doc["assignment"].pop("a0") == "c1"
    matching.write_text(json.dumps(doc))
    assert cli.main([*check, "--axioms", "max_size,max_beneficiary"]) == 1
    assert len(builds) == 1
    gaps = {r["axiom"]: r["witnesses"] for r in json.loads(report.read_text())}
    assert gaps == {"max_size": [{"found": 5, "optimum": 6}],
                    "max_beneficiary": [{"found": 3, "optimum": 4}]}
    # an ineligible pair fills the only unit, but just one agent is eligible
    # for it: the count of placed agents proves nothing, and the engine finds
    # the gap
    builds.clear()
    lone = make_instance({"agents": ["a", "b"], "baseline": ["a", "b"],
                          "categories": [{"name": "c", "quota": 2, "kind": "preferential",
                                          "tiers": [["a"]], "cutoff": 1}]})
    rep = check_max_beneficiary(lone, Matching({0: 0, 1: 0}))
    assert (rep.holds, rep.witnesses) == (False, (SizeGapWitness(2, 1),))
    assert len(builds) == 1


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


def test_harnesses_skip_manipulations_outside_soft_domain():
    # a hide puts the agent below the agents absent from the ranking, which
    # soft rejects against the baseline: that report is not available to her
    inst = random_instance(5, 2, seed=7, unreserved=1)
    for check in (check_strategyproofness, check_weak_nonbossiness):
        soft = check("soft", inst, budget=8)
        assert soft.holds
        assert soft.note.endswith("; 2 manipulated instances outside the rule's domain skipped")
        for rule in ("rr", "srr"):
            assert check(rule, inst, budget=8).note == \
                "within tested manipulation space (hide subsets + demotions, budget=8)"


def test_harness_still_rejects_unmanipulated_instance_outside_domain():
    doc = {"agents": ["a", "b", "x"], "baseline": ["a", "b", "x"],
           "categories": [
               {"name": "c", "quota": 1, "kind": "preferential",
                "tiers": [["a"], ["x"], ["b"]], "cutoff": 1},
               {"name": "u", "quota": 0, "kind": "unreserved"}]}
    inst = make_instance(doc).with_split(0, 0)
    for check in (check_strategyproofness, check_weak_nonbossiness):
        with pytest.raises(PreconditionError):
            check("soft", inst)


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
            assert set(m.pairs()) <= adj_edges(_reduced_adj(inst, unmatched))


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


def _referee_rows(seed: int) -> list:
    """The JSON reports of the six matching checkers on rr's and srr's
    outputs for one seeded instance, and on mutants of each output with
    one pair moved, dropped or swapped. A checker that refuses its input
    contributes its error message instead."""
    rng = random.Random(seed)
    doc = random_instance_document(
        rng.randint(4, 40), rng.randint(1, 5), max_quota=rng.randint(1, 3),
        eligibility_density=rng.choice((0.3, 0.5, 0.8)), tie_prob=0.4 if seed % 2 else 0.0,
        seed=seed, unreserved=rng.randint(1, 6) if seed % 3 else 0)
    if seed % 4 == 3:  # rank some agents below the empty slot
        for cat in doc["categories"]:
            if "tiers" in cat:
                cat["cutoff"] = rng.randint(0, len(cat["tiers"]))
    inst = instance_from_document(doc)
    if inst.has_unreserved:
        first = rng.randint(0, inst.unreserved_quota)
        inst = inst.with_split(first, inst.unreserved_quota - first)
    outputs = [rr(inst)[0]] + ([srr(inst)] if inst.has_unreserved else [])
    matchings = []
    for m in outputs:
        matchings.append(m)
        pairs = m.pairs()
        if not pairs:
            continue
        i, c = rng.choice(pairs)
        matchings.append(Matching({**m.assignment, i: rng.randrange(len(inst.categories))}))
        matchings.append(Matching({a: b for a, b in pairs if a != i}))
        j, d = rng.choice(pairs)
        matchings.append(Matching({**m.assignment, i: d, j: c}))
    rows = []
    for m in matchings:
        for axiom in cli.MATCHING_AXIOMS:
            try:
                rows.append(cli.report_doc(inst, getattr(axioms, f"check_{axiom}")(inst, m)))
            except ValidationError as e:
                rows.append([axiom, str(e)])
    return rows


def test_matching_checkers_reports_pinned_on_a_seeded_corpus():
    # Pins every report of the six matching checkers, witnesses and counts
    # included, on rr's and srr's outputs and their one-pair mutants over 200
    # seeded instances: ties in half, unreserved units in two thirds, tiers
    # below the empty slot in a quarter. The digest was taken before the
    # checkers read position tables. About 0.3 s.
    rows = [_referee_rows(seed) for seed in range(200)]
    flat = [r for rs in rows for r in rs]
    assert sum(isinstance(r, dict) and not r["holds"] for r in flat) > 500
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "d4b69fd5e2bc589afd7807968685387e532128e7a682e62ea56865f0ddda160f"
