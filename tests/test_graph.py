"""The matching engine of ``reserves.graph`` and the reduced graph G(R).

G(R) is read off the oracle's adjacency. The engine's sizes and matchings
are held to scipy's maximum flow or to the oracle's brute-force
enumeration, never to the engine itself: after tentative removals, nested
and undone or kept; in its own rejection scan against the scan over
test_remove/keep/undo; and in a stateful model of nested tests.
"""

import random
import tracemalloc

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from conftest import adj_edges, make_instance, reference_size
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine
from reserves.oracle import _reduced_adj, enumerate_matchings


def _engine(inst, cat_ids=None, quotas=None):
    """The engine on ``inst``'s columns ``cat_ids`` with ``quotas`` (default:
    every category, at its quota)."""
    if cat_ids is None:
        return _RejectionEngine.of(inst, range(len(inst.categories)))
    rankings = [inst.categories[c].ranking for c in cat_ids]
    return _RejectionEngine(inst.n, [r.tiers[:r.cutoff] for r in rankings], cat_ids, quotas,
                            range(inst.n), inst.baseline)


def _state(engine):
    return ([list(x) for x in (engine.alive, engine.thr, engine.match, engine.used,
                               engine.slots)], engine.size())


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
            engine.test_remove(a, prune=True)
            engine.keep()
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
        _RejectionEngine.of(inst, range(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


# --- the engine's maximum matchings -----------------------------------------

def test_max_matching_size_golden(running, scan):
    assert _engine(running).size() == 2
    # without agents 3 and 4 only agent 1 keeps edges: one agent, one unit
    engine = _engine(scan)
    engine.test_remove(2, prune=True)
    assert engine.test_remove(3, prune=True) == 1


def test_max_matching_forced_and_unique(scan):
    inst = make_instance({"agents": ["a"], "baseline": ["a"], "categories": [
        {"name": "c", "quota": 1, "kind": "preferential", "tiers": [["a"]], "cutoff": 1}]})
    assert _engine(inst).fresh_matching().assignment == {0: 0}
    # after rejecting 2 and 4 the only size-2 matching is 1->c1, 3->c2
    engine = _engine(scan)
    engine.test_remove(1, prune=True)
    engine.test_remove(3, prune=True)
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
    """Every matched agent is alive, sits in its column's slots, and holds a
    live edge; no column is over capacity."""
    for c, (base, used) in enumerate(zip(engine.slot_base, engine.used)):
        assert used <= engine.cap[c]
        for a in engine.slots[base:base + used]:
            assert engine.alive[a] and engine.match[a] == c
            k = engine.cats.index(c, engine.indptr[a], engine.indptr[a + 1])
            assert engine.epos[k] <= engine.thr[c]
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
    assert engine.test_remove(0, prune=True) == 1 == reference_size(inst, {0})
    assert engine.match[1] == 1
    _assert_consistent(engine)


def test_engine_refills_a_freed_column_from_an_agent_already_unmatched():
    # i holds A, z holds B and y, eligible only for B, is unmatched. Removing
    # i frees A: the only augmenting path runs from y through B to A.
    inst = make_instance(_doc(["i", "z", "y"], ["i", "z", "y"],
                              [("A", 1, [["z"], ["i"]]), ("B", 1, [["z"], ["y"]])]))
    engine = _engine(inst)
    assert engine.match == [0, 1, -1]
    assert engine.test_remove(0, prune=True) == 2 == reference_size(inst, {0})
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
    assert engine.test_remove(0, prune=True) == 3 == reference_size(inst, {0})
    _assert_consistent(engine)


def _walk(engine, inst, target, rejected, unscanned, seen):
    # the oracle's walk: a rejecting test stays pending while it goes deeper
    if (rejected, unscanned) in seen:
        return
    seen.add((rejected, unscanned))
    for i in unscanned:
        size = engine.test_remove(i, prune=True)
        assert size == reference_size(inst, rejected | {i}), (rejected, i)
        _assert_consistent(engine)
        if size == target:
            _walk(engine, inst, target, rejected | {i}, unscanned - {i}, seen)
        engine.undo()
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
    # a test kept while an outer one is pending is undone with the outer one,
    # and every undo restores the engine exactly as it was before its test
    rng = random.Random(5)
    for seed in range(60):
        inst = random_instance(rng.randint(8, 30), rng.randint(2, 6),
                               max_quota=rng.randint(1, 4),
                               eligibility_density=rng.choice((0.3, 0.5)),
                               tie_prob=rng.choice((0.0, 0.4)), seed=seed)
        engine = _engine(inst)
        # removals per level: the committed ones, then one list per pending test
        levels: list[list[tuple[int, bool]]] = [[]]
        before = []  # the engine's state before each pending test
        for _ in range(2 * inst.n):
            alive = [a for a in range(inst.n) if engine.alive[a]]
            if len(levels) > 1 and (not alive or rng.random() < 0.4):
                done = levels.pop()
                state = before.pop()
                if rng.random() < 0.5:
                    engine.keep()
                    levels[-1] += done
                else:
                    engine.undo()
                    assert _state(engine) == state, (seed, levels)
            elif alive:
                test = (rng.choice(alive), rng.random() < 0.7)
                before.append(_state(engine))
                engine.test_remove(*test)
                levels.append([test])
            removed = [test for level in levels for test in level]
            expected = reference_size(inst, {a for a, p in removed if p},
                                      {a for a, p in removed if not p})
            assert engine.size() == expected, (seed, removed)
            _assert_consistent(engine)


# --- the engine's own scan, and nested tests as a state machine -------------

def _reject_scan_by_tests(engine):
    """The reference scan: a test_remove per live agent from the bottom,
    kept when the size holds, else undone."""
    target = engine.size()
    tested = []
    for i in reversed(engine.order):
        if not engine.alive[i]:
            continue
        size = engine.test_remove(i, prune=True)
        if size == target:
            engine.keep()
        else:
            engine.undo()
        tested.append((i, size))
    return tested


def _srr_phase_1(engine, inst, first):
    """srr's early grants: untested removals without pruning, kept while the
    preferential maximum holds, until ``first`` agents are granted."""
    target, granted = engine.size(), 0
    for i in inst.baseline:
        if granted >= first:
            break
        if engine.test_remove(i, prune=False) == target:
            engine.keep()
            granted += 1
        else:
            engine.undo()


def _case(seed):
    """(case, instance, column ids, quotas, early grants) for a seed."""
    rng = random.Random(seed)
    case = ("scarce", "abundant", "tied", "zero", "unreserved")[seed % 5]
    n = rng.randint(1, 10) if case == "abundant" else rng.randint(10, 40)
    inst = random_instance(n, rng.randint(1, 5), max_quota=6 if case == "abundant" else 3,
                           eligibility_density=rng.choice((0.3, 0.6, 0.9)),
                           tie_prob=0.5 if case == "tied" else 0.0, seed=seed,
                           unreserved=rng.randint(1, n) if case == "unreserved" else 0)
    cat_ids = inst.preferential_ids
    quotas = [inst.categories[c].quota for c in cat_ids]
    if case == "zero":
        quotas = [q if rng.random() < 0.5 else 0 for q in quotas]
    first = rng.randint(0, inst.unreserved_quota) if case == "unreserved" else 0
    return case, inst, cat_ids, quotas, first


def test_engine_scan_equals_the_scan_over_tests():
    seen = {}
    for seed in range(250):
        case, inst, cat_ids, quotas, first = _case(seed)
        units = sum(quotas)
        if (case == "scarce" and units >= inst.n) or (case == "abundant" and units <= inst.n):
            continue
        seen[case] = seen.get(case, 0) + 1
        old, new = _engine(inst, cat_ids, quotas), _engine(inst, cat_ids, quotas)
        _srr_phase_1(old, inst, first)
        _srr_phase_1(new, inst, first)
        assert _state(old) == _state(new), seed
        assert new.reject_scan() == _reject_scan_by_tests(old), seed
        assert _state(new) == _state(old), seed
        assert not new._trail and not old._trail
    assert len(seen) == 5 and min(seen.values()) >= 30, seen


class EngineMachine(RuleBasedStateMachine):
    """Nested tests on one engine: each test is kept or undone innermost
    first, the size is the reference maximum and the matching consistent
    after every step, and each undo restores the engine exactly as it was
    before its test."""

    @initialize(seed=st.integers(0, 10**6))
    def build(self, seed):
        rng = random.Random(seed)
        n, n_cats = rng.randint(3, 12), rng.randint(2, 5)
        self.inst = random_instance(n, n_cats, max_quota=1,
                                    eligibility_density=rng.choice((0.4, 0.7)),
                                    tie_prob=rng.choice((0.0, 0.4)), seed=seed)
        # quotas drawn apart from the generator's leave columns spare, so a
        # pruned agent often moves to a column that no dead pair freed
        self.quotas = [rng.randint(0, 4) for _ in range(n_cats)]
        self.engine = _engine(self.inst, range(n_cats), self.quotas)
        self.levels = [[]]  # removals: the committed ones, then one list per pending test
        self.before = []  # the engine's state before each pending test

    @precondition(lambda self: any(self.engine.alive))
    @rule(pick=st.integers(0, 10**6), prune=st.booleans())
    def test_remove(self, pick, prune):
        alive = [a for a, live in enumerate(self.engine.alive) if live]
        i = alive[pick % len(alive)]
        self.before.append(_state(self.engine))
        self.engine.test_remove(i, prune)
        self.levels.append([(i, prune)])

    @precondition(lambda self: not self.before and not any(self.engine.alive))
    @rule()
    def restart(self):
        self.engine = _engine(self.inst, range(len(self.quotas)), self.quotas)
        self.levels = [[]]

    @precondition(lambda self: self.before)
    @rule()
    def keep(self):
        self.before.pop()
        self.engine.keep()
        done = self.levels.pop()
        self.levels[-1] += done

    @precondition(lambda self: self.before)
    @rule()
    def undo(self):
        state = self.before.pop()
        self.engine.undo()
        self.levels.pop()
        assert _state(self.engine) == state

    @invariant()
    def size_is_the_maximum(self):
        if not hasattr(self, "engine"):
            return
        removed = [test for level in self.levels for test in level]
        pruned = {a for a, p in removed if p}
        unpruned = {a for a, p in removed if not p}
        assert self.engine.size() == reference_size(self.inst, pruned, unpruned, quotas=self.quotas)
        _assert_consistent(self.engine)


EngineMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                           derandomize=True, database=None, deadline=None)
test_engine_machine = EngineMachine.TestCase
