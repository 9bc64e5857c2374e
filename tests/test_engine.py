"""The rejection engine's logged undo: its scan against the scan over
test_remove/keep/undo, and a stateful model of nested tests."""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from reserves.generator import random_instance
from reserves.graph import _RejectionEngine
from test_graph import _assert_consistent


def _engine(inst, cat_ids, quotas):
    rankings = [inst.categories[c].ranking for c in cat_ids]
    return _RejectionEngine(inst.n, [r.tiers[:r.cutoff] for r in rankings], cat_ids, quotas,
                            range(inst.n), inst.baseline)


def _state(engine):
    return ([list(x) for x in (engine.alive, engine.thr, engine.match, engine.used,
                               engine.slots)], engine.size())


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


def _reference_size(inst, quotas, pruned, unpruned):
    """Hopcroft-Karp on the capacity-expanded live graph (one column per
    unit): agent ``a`` keeps edge (a, c) iff she is eligible for ``c``, not
    removed, and not ranked in ``c`` below a pruned agent eligible for it."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rows, cols = [], []
    first_unit = 0
    for c, q in enumerate(quotas):
        ranking = inst.categories[c].ranking
        eligible = ranking.eligible_agents()
        thr = min((ranking.position(r) for r in pruned if r in eligible), default=None)
        for a in eligible:
            if a in pruned or a in unpruned or (thr is not None and ranking.position(a) > thr):
                continue
            rows += [a] * q
            cols += range(first_unit, first_unit + q)
        first_unit += q
    if not rows:
        return 0
    graph = sparse.csr_matrix(([1] * len(rows), (rows, cols)), shape=(inst.n, first_unit))
    return int((csgraph.maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


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
        assert self.engine.size() == _reference_size(self.inst, self.quotas, pruned, unpruned)
        _assert_consistent(self.engine)


EngineMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30,
                                           derandomize=True, database=None, deadline=None)
test_engine_machine = EngineMachine.TestCase
