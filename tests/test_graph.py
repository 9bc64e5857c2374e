import random

import pytest

from conftest import make_instance
from reserves.generator import random_instance
from reserves.graph import (ReservationGraph, _RejectionEngine, max_matching,
                            max_matching_size, reduced_graph, reservation_graph)
from reserves.model import ValidationError
from reserves.oracle import enumerate_matchings


def test_reservation_graph_running(running):
    g = reservation_graph(running)
    assert g.edges == {(1, 0), (2, 0), (1, 1)}
    assert g.left == frozenset({0, 1, 2})
    assert dict(g.right) == {0: 1, 1: 1}


def test_reservation_graph_scan(scan):
    g = reservation_graph(scan)
    assert g.edges == {(0, 0), (1, 0), (3, 0), (0, 1), (2, 1)}


def test_reservation_graph_no_categories():
    g = reservation_graph(make_instance({"agents": ["a", "b"], "baseline": ["b", "a"],
                                         "categories": []}))
    assert g.right == () and g.edges == frozenset()
    assert max_matching_size(g) == 0


def test_reduced_graph_prunes_outranked_edges(scan):
    # rejecting agent 4 removes agent 2's edge to c1 (4 outranks 2 there)
    g = reduced_graph(scan, rejected={3})
    assert g.edges == {(0, 0), (0, 1), (2, 1)}
    assert g.left == frozenset({0, 1, 2})


def test_reduced_graph_empty_rejection_is_identity(scan):
    assert reduced_graph(scan, rejected=set()).edges == reservation_graph(scan).edges


def test_reduced_graph_two_rejections(scan):
    g = reduced_graph(scan, rejected={1, 3})
    assert g.edges == {(0, 0), (0, 1), (2, 1)}


def test_reduced_graph_monotone_in_rejections():
    for seed in range(25):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.6, tie_prob=0.3)
        prev = reservation_graph(inst).edges
        rejected: set[int] = set()
        for a in range(inst.n):
            rejected.add(a)
            cur = reduced_graph(inst, rejected=rejected).edges
            assert cur <= prev
            assert max_matching_size(reduced_graph(inst, rejected=rejected)) <= \
                max_matching_size(reservation_graph(inst))
            prev = cur


def test_max_matching_size_golden(running, scan):
    assert max_matching_size(reservation_graph(running)) == 2
    # without agents 3 and 4 only agent 1 keeps edges: one agent, one unit
    assert max_matching_size(reduced_graph(scan, rejected={2, 3})) == 1


def test_max_matching_forced_and_unique(scan):
    g = ReservationGraph(frozenset({5}), ((0, 1),), frozenset({(5, 0)}), (5,))
    assert max_matching(g).assignment == {5: 0}
    # after rejecting 2 and 4 the only size-2 matching is 1->c1, 3->c2
    m = max_matching(reduced_graph(scan, rejected={1, 3}))
    assert m.assignment == {0: 0, 2: 1}


def test_max_matching_running(running):
    assert max_matching(reservation_graph(running)).assignment == {1: 1, 2: 0}


def test_max_matching_is_valid_and_deterministic():
    for seed in range(40):
        inst = random_instance(7, 3, seed=seed, eligibility_density=0.5, tie_prob=0.3)
        g = reservation_graph(inst)
        m1, m2 = max_matching(g), max_matching(g)
        assert m1 == m2
        assert set(m1.pairs()) <= set(g.edges)
        for c, q in g.right:
            assert m1.count_in(c) <= q
        assert m1.size() == max_matching_size(g)


def test_matching_size_agrees_with_enumeration_oracle():
    for seed in range(60):
        inst = random_instance(4 + seed % 4, 1 + seed % 3, max_quota=2, seed=seed,
                               eligibility_density=(0.3, 0.6, 0.9)[seed % 3],
                               tie_prob=(0.0, 0.3)[seed % 2])
        oracle_best = max((m.size() for m in enumerate_matchings(inst)), default=0)
        assert max_matching_size(reservation_graph(inst)) == oracle_best


def test_edges_mirror_eligibility():
    for seed in range(20):
        inst = random_instance(6, 3, seed=seed, eligibility_density=0.5, tie_prob=0.3)
        g = reservation_graph(inst)
        expected = {(a, c) for a in range(inst.n) for c in range(len(inst.categories))
                    if inst.eligible(a, c)}
        assert g.edges == expected


def test_dropping_an_edge_never_increases_matching_size():
    for seed in range(15):
        inst = random_instance(5, 2, seed=seed, eligibility_density=0.7)
        g = reservation_graph(inst)
        full = max_matching_size(g)
        for edge in sorted(g.edges):
            smaller = ReservationGraph(g.left, g.right, g.edges - {edge}, g.scan_order)
            assert max_matching_size(smaller) <= full


def test_invalid_graph_inputs(running):
    with pytest.raises(ValidationError):
        reduced_graph(running, rejected={11})
    with pytest.raises(ValidationError):
        ReservationGraph(frozenset({0}), ((0, 1),), frozenset({(1, 0)}), (0,))


# --- the rejection engine's re-augmentation after tentative removals ---------

def _fresh_size(inst, pruned, unpruned=()):
    """Maximum size after removing ``pruned`` with pruning and ``unpruned``
    without, from scratch on the forward path."""
    g = reduced_graph(inst, rejected=pruned)
    out = set(unpruned)
    return max_matching_size(ReservationGraph(
        g.left - out, g.right, frozenset(e for e in g.edges if e[0] not in out),
        tuple(a for a in g.scan_order if a not in out)))


def _engine(inst):
    return _RejectionEngine.of(inst, range(len(inst.categories)))


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
    assert engine.test_remove(0, prune=True) == 1 == _fresh_size(inst, {0})
    assert engine.match[1] == 1
    _assert_consistent(engine)


def test_engine_refills_a_freed_column_from_an_agent_already_unmatched():
    # i holds A, z holds B and y, eligible only for B, is unmatched. Removing
    # i frees A: the only augmenting path runs from y through B to A.
    inst = make_instance(_doc(["i", "z", "y"], ["i", "z", "y"],
                              [("A", 1, [["z"], ["i"]]), ("B", 1, [["z"], ["y"]])]))
    engine = _engine(inst)
    assert engine.match == [0, 1, -1]
    assert engine.test_remove(0, prune=True) == 2 == _fresh_size(inst, {0})
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
    assert engine.test_remove(0, prune=True) == 3 == _fresh_size(inst, {0})
    _assert_consistent(engine)


def _walk(engine, inst, target, rejected, unscanned, seen):
    # the oracle's walk: a rejecting test stays pending while it goes deeper
    if (rejected, unscanned) in seen:
        return
    seen.add((rejected, unscanned))
    for i in unscanned:
        size = engine.test_remove(i, prune=True)
        assert size == _fresh_size(inst, rejected | {i}), (rejected, i)
        _assert_consistent(engine)
        if size == target:
            _walk(engine, inst, target, rejected | {i}, unscanned - {i}, seen)
        engine.undo()
        assert engine.size() == _fresh_size(inst, rejected)
        if size != target:
            _walk(engine, inst, target, rejected, unscanned - {i}, seen)


def test_engine_sizes_in_nested_test_and_undo_sequences():
    for seed in range(12):
        inst = random_instance(6, 3, max_quota=2, eligibility_density=0.5,
                               tie_prob=0.4, seed=seed)
        engine = _engine(inst)
        _walk(engine, inst, engine.size(), frozenset(), frozenset(range(inst.n)), set())


def _state(engine):
    return ([list(x) for x in (engine.match, engine.used, engine.slots, engine.thr,
                               engine.alive)], engine.size())


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
            expected = _fresh_size(inst, {a for a, p in removed if p},
                                   {a for a, p in removed if not p})
            assert engine.size() == expected, (seed, removed)
            _assert_consistent(engine)
