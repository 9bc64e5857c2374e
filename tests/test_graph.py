"""The matching engine of ``reserves.graph`` and the reduced graph G(R).

G(R) is read off the oracle's adjacency. The engine's sizes and matchings
are held to scipy's maximum flow or to the oracle's brute-force
enumeration, never to the engine itself: after removals, nested and
reverted or committed; at every step of its scans; and in a stateful model
of nested removals.
"""

import random
import tracemalloc
from itertools import accumulate

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from conftest import adj_edges, make_instance, reference_size, with_quotas
from reserves import _kernels
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine
from reserves.model import enumerate_priority_decreases
from reserves.oracle import _reduced_adj, enumerate_matchings


def _engine(inst):
    """The engine on every category of ``inst``."""
    return _RejectionEngine(inst, range(len(inst.categories)))


def _state(engine):
    return ([list(x) for x in (engine.alive, engine.thr, engine.match, engine.used,
                               engine.slots, engine.spos)], engine.size())


def _eligible_edges(inst):
    return {(a, c) for a in range(inst.n) for c in range(len(inst.categories))
            if inst.eligible(a, c)}


# --- the reduced graph G(R) -------------------------------------------------

def test_reservation_graph_running(running):
    adj = _reduced_adj(running)
    assert adj_edges(adj) == {(1, 0), (2, 0), (1, 1)}
    assert len(adj) == 3


def test_reservation_graph_scan(scan):
    assert adj_edges(_reduced_adj(scan)) == {(0, 0), (1, 0), (3, 0), (0, 1), (2, 1)}


def test_reservation_graph_no_categories():
    inst = make_instance({"agents": ["a", "b"], "baseline": ["b", "a"], "categories": []})
    assert _reduced_adj(inst) == [[], []]
    engine = _engine(inst)
    assert engine.size() == 0 and engine.fresh_matching().size() == 0


def test_reduced_graph_prunes_outranked_edges(scan):
    # rejecting agent 4 removes agent 2's edge to c1 (4 outranks 2 there)
    adj = _reduced_adj(scan, {3})
    assert adj_edges(adj) == {(0, 0), (0, 1), (2, 1)}
    assert len(adj) == 3


def test_reduced_graph_empty_rejection_is_identity(scan):
    assert adj_edges(_reduced_adj(scan, set())) == _eligible_edges(scan)


def test_reduced_graph_two_rejections(scan):
    assert adj_edges(_reduced_adj(scan, {1, 3})) == {(0, 0), (0, 1), (2, 1)}


def test_reduced_graph_monotone_in_rejections():
    # rejecting one more agent only removes edges, and the engine, rejecting
    # the same agents with pruning, follows G(R)'s maximum down
    for seed in range(25):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.6, tie_prob=0.3)
        engine = _engine(inst)
        full = engine.size()
        prev = adj_edges(_reduced_adj(inst))
        rejected: set[int] = set()
        for a in range(inst.n):
            rejected.add(a)
            cur = adj_edges(_reduced_adj(inst, rejected))
            assert cur <= prev
            engine.remove(a, True, [])
            assert engine.size() == reference_size(inst, rejected) <= full
            prev = cur


def test_edges_mirror_eligibility():
    for seed in range(20):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.5, tie_prob=0.3)
        assert adj_edges(_reduced_adj(inst)) == _eligible_edges(inst)


def test_engine_memory_follows_the_edges():
    # 4,000 agents and 200 columns but about 4,000 edges: one n-long list per
    # column would take 6.9 MiB, the two CSRs, thresholds and matching 0.8
    inst = random_instance(4000, 200, max_quota=50, eligibility_density=0.005, seed=77)
    tracemalloc.start()
    try:
        _RejectionEngine(inst, range(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def _reference_layout(inst, cat_ids):
    """The engine's CSRs built tier by tier and edge by edge, each tier's
    agents in id order: columns (cptr, cagents, cpos), then rows (indptr,
    cats, epos) filled column by column."""
    cptr, cagents, cpos, deg = [0], [], [], [0] * inst.n
    for c in cat_ids:
        ranking = inst.categories[c].ranking
        for t, tier in enumerate(ranking.tiers[:ranking.cutoff]):
            for a in sorted(tier):
                cagents.append(a)
                cpos.append(t)
                deg[a] += 1
        cptr.append(len(cagents))
    indptr = [0, *accumulate(deg)]
    cats, epos, nxt = [0] * len(cagents), [0] * len(cagents), indptr[:-1]
    for j in range(len(cat_ids)):
        for k in range(cptr[j], cptr[j + 1]):
            e = nxt[cagents[k]]
            nxt[cagents[k]] = e + 1
            cats[e], epos[e] = j, cpos[k]
    return cptr, cagents, cpos, indptr, cats, epos


def _layout_doc(rng):
    """An instance document with strict or tied rankings (tie probability
    0, 0.4 or 0.9), cutoffs anywhere from 0 to full length, agents in no
    tier, zero quotas and, in half of them, an unreserved pair."""
    n = rng.randint(0, 24)
    names = [f"a{i}" for i in range(n)]
    baseline = rng.sample(names, n)
    tie_prob = rng.choice((0.0, 0.0, 0.4, 0.9))
    cats = []
    for k in range(rng.randint(0, 6)):
        tiers = []
        for a in rng.sample(names, rng.randint(0, n)):
            if tiers and rng.random() < tie_prob:
                tiers[-1].append(a)
            else:
                tiers.append([a])
        cutoff = rng.choice((0, len(tiers), rng.randint(0, len(tiers))))
        cats.append({"name": f"c{k}", "quota": rng.randint(0, 3), "kind": "preferential",
                     "tiers": tiers, "cutoff": cutoff})
    doc = {"agents": names, "baseline": baseline, "categories": cats}
    if rng.random() < 0.5:
        q = rng.randint(0, 4)
        cats.insert(rng.randint(0, len(cats)), {"name": "u", "quota": q, "kind": "unreserved"})
        first = rng.randint(0, q)
        doc["unreserved_split"] = {"first": first, "last": q - first}
    return doc


def test_engine_layout_equals_the_tier_by_tier_reference():
    """Strict rankings are laid out in one slice and tied ones tier by tier;
    both give the reference's arrays, on parsed instances and on the
    manipulated ones the harnesses build, over every column and over the
    preferential ones."""
    shapes = {"strict": 0, "tied": 0, "cutoff 0": 0, "full": 0, "zero quota": 0,
              "unranked agent": 0, "unreserved": 0, "manipulated": 0}
    for seed in range(320):
        rng = random.Random(seed)
        inst = make_instance(_layout_doc(rng))
        insts = [inst]
        if inst.n and seed % 4 == 0:
            insts += list(enumerate_priority_decreases(inst, rng.randrange(inst.n), budget=3))
            shapes["manipulated"] += len(insts) - 1
        for cat in inst.categories:
            r = cat.ranking
            shapes["tied" if len(r._flat) > len(r.tiers) else "strict"] += 1
            shapes["cutoff 0"] += r.cutoff == 0
            shapes["full"] += 0 < r.cutoff == len(r.tiers)
            shapes["zero quota"] += cat.quota == 0
            shapes["unranked agent"] += len(r._flat) < inst.n
        shapes["unreserved"] += inst.has_unreserved
        for each in insts:
            for cat_ids in (range(len(each.categories)), each.preferential_ids):
                engine = _RejectionEngine(each, cat_ids)
                got = (engine.cptr, engine.cagents, engine.cpos, engine.indptr, engine.cats,
                       engine.epos)
                assert got == _reference_layout(each, cat_ids), seed
    assert min(shapes.values()) >= 50, shapes


# --- the engine's maximum matchings -----------------------------------------

def test_max_matching_size_golden(running, scan):
    assert _engine(running).size() == 2
    # without agents 3 and 4 only agent 1 keeps edges: one agent, one unit
    engine = _engine(scan)
    engine.remove(2, True, [])
    assert engine.remove(3, True, []) == 1


def test_max_matching_forced_and_unique(scan):
    inst = make_instance({"agents": ["a"], "baseline": ["a"], "categories": [
        {"name": "c", "quota": 1, "kind": "preferential", "tiers": [["a"]], "cutoff": 1}]})
    assert _engine(inst).fresh_matching().assignment == {0: 0}
    # after rejecting 2 and 4 the only size-2 matching is 1->c1, 3->c2
    engine = _engine(scan)
    engine.remove(1, True, [])
    engine.remove(3, True, [])
    assert engine.fresh_matching().assignment == {0: 0, 2: 1}


def test_max_matching_running(running):
    assert _engine(running).fresh_matching().assignment == {1: 1, 2: 0}


def test_max_matching_is_valid_and_deterministic():
    for seed in range(40):
        inst = random_instance(7, 3, seed=seed, eligibility_density=0.5, tie_prob=0.3)
        m1, m2 = _engine(inst).fresh_matching(), _engine(inst).fresh_matching()
        assert m1 == m2
        assert set(m1.pairs()) <= _eligible_edges(inst)
        for c, cat in enumerate(inst.categories):
            assert m1.count_in(c) <= cat.quota
        assert m1.size() == reference_size(inst)


def test_matching_size_agrees_with_enumeration_oracle():
    for seed in range(60):
        inst = random_instance(4 + seed % 4, 1 + seed % 3, max_quota=2, seed=seed,
                               eligibility_density=(0.3, 0.6, 0.9)[seed % 3],
                               tie_prob=(0.0, 0.3)[seed % 2])
        oracle_best = max((m.size() for m in enumerate_matchings(inst)), default=0)
        assert _engine(inst).size() == oracle_best


# --- the rejection engine's re-augmentation after tentative removals ---------

def _assert_consistent(engine):
    """Every matched agent is alive, sits in its column's slots at her
    position in that column, and holds a live edge; no column is over
    capacity."""
    for c, (base, used) in enumerate(zip(engine.slot_base, engine.used)):
        assert used <= engine.cap[c]
        for s in range(base, base + used):
            a = engine.slots[s]
            assert engine.alive[a] and engine.match[a] == c
            k = engine.cats.index(c, engine.indptr[a], engine.indptr[a + 1])
            assert engine.spos[s] == engine.epos[k] <= engine.thr[c]
    assert sum(engine.used) == engine.size()


def _doc(agents, baseline, categories):
    return {"agents": agents, "baseline": baseline, "categories": [
        {"name": name, "quota": quota, "kind": "preferential", "tiers": tiers,
         "cutoff": len(tiers)} for name, quota, tiers in categories]}


def test_engine_refills_a_column_spare_before_the_removal():
    # i holds C and x holds A, while B, x's other column, stays spare.
    # Removing i prunes x's edge to A: the only augmenting path runs from x,
    # whose pair the removal dropped, to B, which no dropped pair frees.
    inst = make_instance(_doc(["i", "x"], ["x", "i"],
                              [("A", 1, [["i"], ["x"]]), ("B", 1, [["x"]]), ("C", 1, [["i"]])]))
    engine = _engine(inst)
    assert engine.match == [2, 0] and engine.used[1] == 0
    assert engine.remove(0, True, []) == 1 == reference_size(inst, {0})
    assert engine.match[1] == 1
    _assert_consistent(engine)


def test_engine_refills_a_freed_column_from_an_agent_already_unmatched():
    # i holds A, z holds B and y, eligible only for B, is unmatched. Removing
    # i frees A: the only augmenting path runs from y through B to A.
    inst = make_instance(_doc(["i", "z", "y"], ["i", "z", "y"],
                              [("A", 1, [["z"], ["i"]]), ("B", 1, [["z"], ["y"]])]))
    engine = _engine(inst)
    assert engine.match == [0, 1, -1]
    assert engine.remove(0, True, []) == 2 == reference_size(inst, {0})
    assert engine.match == [-1, 0, 1]
    _assert_consistent(engine)


def test_engine_clears_dead_marks_after_each_augmentation():
    # b holds A; d and a hold B (quota 2); e is unmatched. Removing a prunes
    # d from B, and B needs two augmentations: e -> A -> b -> B, then
    # d -> A -> e -> B. The second passes through A, which the first entered.
    inst = make_instance(_doc(["a", "e", "b", "d"], ["b", "d", "a", "e"],
                              [("A", 1, [["e"], ["b"], ["d"]]),
                               ("B", 2, [["b"], ["e"], ["a"], ["d"]])]))
    engine = _engine(inst)
    assert engine.match == [1, -1, 0, 1]
    assert engine.remove(0, True, []) == 3 == reference_size(inst, {0})
    _assert_consistent(engine)


def _walk(engine, inst, target, rejected, unscanned, seen):
    # the oracle's walk: a rejecting removal stays pending while it goes deeper
    if (rejected, unscanned) in seen:
        return
    seen.add((rejected, unscanned))
    for i in unscanned:
        log, before = [], engine.size()
        size = engine.remove(i, True, log)
        assert size == reference_size(inst, rejected | {i}), (rejected, i)
        _assert_consistent(engine)
        if size == target:
            _walk(engine, inst, target, rejected | {i}, unscanned - {i}, seen)
        engine.revert(log, before)
        assert engine.size() == reference_size(inst, rejected)
        if size != target:
            _walk(engine, inst, target, rejected, unscanned - {i}, seen)


def test_engine_sizes_in_nested_test_and_undo_sequences():
    for seed in range(12):
        inst = random_instance(6, 3, max_quota=2, eligibility_density=0.5,
                               tie_prob=0.4, seed=seed)
        engine = _engine(inst)
        _walk(engine, inst, engine.size(), frozenset(), frozenset(range(inst.n)), set())


def test_engine_sizes_under_random_keep_and_undo():
    # scarce instances, so that removals often drop several pairs at once;
    # each pending removal holds its log and the size before it, a removal
    # committed while an outer one is pending extends the outer one's log and
    # is reverted with it, and every revert restores the engine exactly as it
    # was before its removal
    rng = random.Random(5)
    for seed in range(60):
        inst = random_instance(rng.randint(8, 30), rng.randint(2, 6),
                               max_quota=rng.randint(1, 4),
                               eligibility_density=rng.choice((0.3, 0.5)),
                               tie_prob=rng.choice((0.0, 0.4)), seed=seed)
        engine = _engine(inst)
        # removals per level: the committed ones, then one list per pending one
        levels: list[list[tuple[int, bool]]] = [[]]
        pending = []  # (log, size before) of each pending removal
        before = []  # the engine's state before each pending removal
        for _ in range(2 * inst.n):
            alive = [a for a in range(inst.n) if engine.alive[a]]
            if len(levels) > 1 and (not alive or rng.random() < 0.4):
                done = levels.pop()
                state = before.pop()
                log, size = pending.pop()
                if rng.random() < 0.5:
                    if pending:
                        pending[-1][0].extend(log)
                    levels[-1] += done
                else:
                    engine.revert(log, size)
                    assert _state(engine) == state, (seed, levels)
            elif alive:
                test = (rng.choice(alive), rng.random() < 0.7)
                before.append(_state(engine))
                log = []
                pending.append((log, engine.size()))
                engine.remove(*test, log)
                levels.append([test])
            removed = [test for level in levels for test in level]
            expected = reference_size(inst, {a for a, p in removed if p},
                                      {a for a, p in removed if not p})
            assert engine.size() == expected, (seed, removed)
            _assert_consistent(engine)


# --- the engine's scans, and nested removals as a state machine ------------

def _case(seed):
    """(case, instance, early grants) for a seed. The "zero" case's instance
    has about half its quotas set to 0."""
    rng = random.Random(seed)
    case = ("scarce", "abundant", "tied", "zero", "unreserved")[seed % 5]
    n = rng.randint(1, 10) if case == "abundant" else rng.randint(10, 40)
    inst = random_instance(n, rng.randint(1, 5), max_quota=6 if case == "abundant" else 3,
                           eligibility_density=rng.choice((0.3, 0.6, 0.9)),
                           tie_prob=0.5 if case == "tied" else 0.0, seed=seed,
                           unreserved=rng.randint(1, n) if case == "unreserved" else 0)
    if case == "zero":
        inst = with_quotas(inst, [cat.quota if rng.random() < 0.5 else 0
                                  for cat in inst.categories])
    first = rng.randint(0, inst.unreserved_quota) if case == "unreserved" else 0
    return case, inst, first


def test_engine_scan_sizes_equal_the_reference():
    # srr's two scans on the preferential columns: its early grants, down the
    # baseline without pruning and up to ``first`` kept removals, then the
    # rejection scan; every tested size is scipy's maximum on the removals
    # made so far
    seen, stops = {}, {"limit": 0, "baseline": 0}
    for seed in range(250):
        case, inst, first = _case(seed)
        pref = inst.preferential_ids
        units = sum(inst.categories[c].quota for c in pref)
        if (case == "scarce" and units >= inst.n) or (case == "abundant" and units <= inst.n):
            continue
        seen[case] = seen.get(case, 0) + 1
        engine = _RejectionEngine(inst, pref)
        target, state = engine.size(), _state(engine)
        assert engine.scan(inst.baseline, False, 0) == [] and _state(engine) == state, seed
        granted = []
        tested = engine.scan(inst.baseline, False, first)
        for i, size in tested:
            assert size == reference_size(inst, (), granted + [i], pref), (seed, i)
            if size == target:
                granted.append(i)
        assert len(granted) <= first, seed
        if len(granted) < first:
            stops["baseline"] += 1
            assert [i for i, _ in tested] == list(inst.baseline), seed
        elif first:
            stops["limit"] += 1
            assert tested[-1] == (granted[-1], target), seed
        else:
            assert tested == [], seed
        rejected = []
        tested = engine.scan(reversed(inst.baseline), True)
        for i, size in tested:
            assert size == reference_size(inst, rejected + [i], granted, pref), (seed, i)
            if size == target:
                rejected.append(i)
        assert [i for i, _ in tested] == [i for i in reversed(inst.baseline) if i not in granted]
        assert engine.size() == target, seed
        _assert_consistent(engine)
    assert len(seen) == 5 and min(seen.values()) >= 30, seen
    assert min(stops.values()) >= 5, stops


def _scan_through_remove(engine, order, prune, limit=None):
    """``scan`` with every step made by ``remove``: a step that kills no pair
    is logged, committed by dropping its log, and costs a ``remove`` call."""
    target, log, tested, kept = engine.size(), [], [], 0
    for i in order:
        if kept == limit:
            break
        if engine.alive[i]:
            size = engine.remove(i, prune, log)
            if size == target:
                kept += 1
            else:
                engine.revert(log, target)
            log.clear()
            tested.append((i, size))
    return tested


def test_scan_commits_steps_that_kill_no_pair_without_remove(monkeypatch):
    """On rr-scarce-shaped and srr-pipeline-shaped inputs, ``scan`` tests
    the same sizes and leaves the same engine as a scan whose every step goes
    through ``remove``. It calls ``remove`` only for steps that kill a pair,
    each of which re-augments, so it re-augments exactly as often and writes
    fewer log entries."""
    fills = []
    fill_pass = _kernels.fill_pass
    monkeypatch.setattr(_kernels, "fill_pass",
                        lambda *args: fills.append(1) or fill_pass(*args))
    for seed in range(16):
        if seed % 2:
            inst = random_instance(160, 20, max_quota=3, eligibility_density=0.5, seed=seed)
            cat_ids, first = range(20), None
        else:
            inst = random_instance(300, 4, max_quota=10, eligibility_density=0.3, tie_prob=0.9,
                                   unreserved=40, seed=seed).with_split(20, 20)
            cat_ids, first = inst.preferential_ids, 20
        runs = []
        for scan in (_RejectionEngine.scan, _scan_through_remove):
            engine = _RejectionEngine(inst, cat_ids)
            counts = {"remove": 0, "log": 0}

            def remove(i, prune, log, remove=engine.remove, counts=counts):
                counts["remove"] += 1
                before = len(log)
                size = remove(i, prune, log)
                counts["log"] += len(log) - before
                return size

            engine.remove = remove
            fills.clear()
            tested = scan(engine, inst.baseline, False, first) if first is not None else []
            tested += scan(engine, reversed(inst.baseline), True)
            _assert_consistent(engine)
            runs.append((tested, _state(engine), len(fills), counts))
        (tested, state, n_fills, counts), (ref_tested, ref_state, ref_fills, ref_counts) = runs
        assert tested == ref_tested and state == ref_state, seed
        assert counts["remove"] == n_fills == ref_fills < ref_counts["remove"] == len(tested), seed
        assert counts["log"] < ref_counts["log"], seed


class EngineMachine(RuleBasedStateMachine):
    """Nested removals on one engine, each pending one held as its log and
    the size before it: each is committed, extending the log of the one
    pending around it, or reverted, innermost first. The size is the
    reference maximum and the matching consistent after every step, and
    each revert restores the engine exactly as it was before its removal."""

    @initialize(seed=st.integers(0, 10**6))
    def build(self, seed):
        rng = random.Random(seed)
        n, n_cats = rng.randint(3, 12), rng.randint(2, 5)
        # quotas drawn apart from the generator's leave columns spare, so a
        # pruned agent often moves to a column that no dead pair freed
        self.inst = with_quotas(random_instance(n, n_cats, max_quota=1,
                                                eligibility_density=rng.choice((0.4, 0.7)),
                                                tie_prob=rng.choice((0.0, 0.4)), seed=seed),
                                [rng.randint(0, 4) for _ in range(n_cats)])
        self.engine = _engine(self.inst)
        self.levels = [[]]  # removals: the committed ones, then one list per pending one
        self.pending = []  # (log, size before) of each pending removal
        self.before = []  # the engine's state before each pending removal

    @precondition(lambda self: any(self.engine.alive))
    @rule(pick=st.integers(0, 10**6), prune=st.booleans())
    def remove(self, pick, prune):
        alive = [a for a, live in enumerate(self.engine.alive) if live]
        i = alive[pick % len(alive)]
        self.before.append(_state(self.engine))
        log = []
        self.pending.append((log, self.engine.size()))
        self.engine.remove(i, prune, log)
        self.levels.append([(i, prune)])

    @precondition(lambda self: not self.before and not any(self.engine.alive))
    @rule()
    def restart(self):
        self.engine = _engine(self.inst)
        self.levels = [[]]

    @precondition(lambda self: self.before)
    @rule()
    def commit(self):
        self.before.pop()
        log, _ = self.pending.pop()
        if self.pending:
            self.pending[-1][0].extend(log)
        done = self.levels.pop()
        self.levels[-1] += done

    @precondition(lambda self: self.before)
    @rule()
    def revert(self):
        state = self.before.pop()
        self.engine.revert(*self.pending.pop())
        self.levels.pop()
        assert _state(self.engine) == state

    @invariant()
    def size_is_the_maximum(self):
        if not hasattr(self, "engine"):
            return
        removed = [test for level in self.levels for test in level]
        pruned = {a for a, p in removed if p}
        unpruned = {a for a, p in removed if not p}
        assert self.engine.size() == reference_size(self.inst, pruned, unpruned)
        _assert_consistent(self.engine)


EngineMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                           derandomize=True, database=None, deadline=None)
test_engine_machine = EngineMachine.TestCase
