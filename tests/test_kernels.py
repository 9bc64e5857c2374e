"""The forward kernels' capacity-bound stop changes no matching."""

import random

from reserves import _kernels
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine


def _greedy_unbounded(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots):
    """``_kernels.greedy`` as it was before the stop: every agent is visited."""
    got = 0
    for u in order:
        if not alive[u] or match[u] >= 0:
            continue
        for k in range(indptr[u], indptr[u + 1]):
            c = cats[k]
            if epos[k] <= thr[c] and used[c] < cap[c]:
                slots[slot_base[c] + used[c]] = u
                used[c] += 1
                match[u] = c
                got += 1
                break
    return got


def _augment_pass_unbounded(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base,
                            slots):
    """``_kernels.augment_pass`` as it was before the stop: one search per
    unmatched agent, even once every unit is placed."""
    got = 0
    n_cols = len(cap)
    visited = [False] * n_cols
    for u in order:
        if not alive[u] or match[u] >= 0:
            continue
        if _kernels.augment(u, indptr, cats, epos, thr, cap, used, slot_base, slots, match,
                            visited):
            got += 1
            visited = [False] * n_cols
    return got


def _solve_unbounded(engine):
    match = [-1] * len(engine.alive)
    used = [0] * len(engine.cap)
    slots = [-1] * sum(engine.cap)
    args = (engine.indptr, engine.cats, engine.epos, engine.thr, engine.cap, used,
            engine.slot_base, slots)
    _greedy_unbounded(engine.order, engine.alive, match, *args)
    _augment_pass_unbounded(engine.order, engine.alive, match, *args)
    return match, used, slots


def _engine(inst, quotas):
    rankings = [cat.ranking for cat in inst.categories]
    return _RejectionEngine(inst.n, [r.tiers[:r.cutoff] for r in rankings],
                            range(len(rankings)), quotas, range(inst.n), inst.baseline)


def test_capacity_bound_stop_changes_no_matching():
    seen = {"scarce": 0, "abundant": 0, "zero": 0}
    for seed in range(200):
        rng = random.Random(seed)
        case = ("scarce", "abundant", "zero")[seed % 3]
        if case == "abundant":
            inst = random_instance(rng.randint(1, 8), rng.randint(3, 6), max_quota=6,
                                   eligibility_density=rng.choice((0.3, 0.8)),
                                   tie_prob=rng.choice((0.0, 0.5)), seed=seed)
        else:
            inst = random_instance(rng.randint(10, 40), rng.randint(1, 4), max_quota=3,
                                   eligibility_density=rng.choice((0.3, 0.8)),
                                   tie_prob=rng.choice((0.0, 0.5)), seed=seed, unreserved=2)
        quotas = [0 if case == "zero" else cat.quota for cat in inst.categories]
        units = sum(quotas)
        if case != ("zero" if not units else "scarce" if units < inst.n
                    else "abundant" if units > inst.n else None):
            continue
        seen[case] += 1
        engine = _engine(inst, quotas)
        assert engine._solve() == _solve_unbounded(engine), seed
        # and on reduced graphs: dead agents and lowered thresholds
        for i in rng.sample(range(inst.n), min(inst.n, 3)):
            engine.test_remove(i, prune=rng.random() < 0.5)
            engine.keep()
            assert engine._solve() == _solve_unbounded(engine), seed
    assert min(seen.values()) >= 50, seen
