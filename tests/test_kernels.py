"""The forward kernels' capacity-bound stop changes no matching, and the
explicit-stack searches follow the recursive ones hop for hop."""

import random

from conftest import chain_doc, make_instance, with_quotas
from reserves import _kernels
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine


def _greedy_unbounded(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots,
                      spos):
    """``_kernels.greedy`` as it was before the stop: every agent is visited."""
    got = 0
    for u in order:
        if not alive[u] or match[u] >= 0:
            continue
        for k in range(indptr[u], indptr[u + 1]):
            c = cats[k]
            if epos[k] <= thr[c] and used[c] < cap[c]:
                slots[slot_base[c] + used[c]] = u
                spos[slot_base[c] + used[c]] = epos[k]
                used[c] += 1
                match[u] = c
                got += 1
                break
    return got


def _augment_pass_unbounded(order, alive, match, indptr, cats, epos, thr, cap, used, slot_base,
                            slots, spos):
    """``_kernels.augment_pass`` as it was before the stop: one search per
    unmatched agent, even once every unit is placed."""
    got = 0
    n_cols = len(cap)
    visited = [False] * n_cols
    for u in order:
        if not alive[u] or match[u] >= 0:
            continue
        if _kernels.augment(u, indptr, cats, epos, thr, cap, used, slot_base, slots, spos, match,
                            visited):
            got += 1
            visited = [False] * n_cols
    return got


def _solve_unbounded(engine):
    match = [-1] * len(engine.alive)
    used = [0] * len(engine.cap)
    slots = [-1] * sum(engine.cap)
    spos = [-1] * len(slots)
    args = (engine.indptr, engine.cats, engine.epos, engine.thr, engine.cap, used,
            engine.slot_base, slots, spos)
    _greedy_unbounded(engine.order, engine.alive, match, *args)
    _augment_pass_unbounded(engine.order, engine.alive, match, *args)
    return match, used, slots, spos


def _engine(inst):
    return _RejectionEngine(inst, range(len(inst.categories)))


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
        engine = _engine(with_quotas(inst, quotas))
        assert engine._solve() == _solve_unbounded(engine), seed
        # and on reduced graphs: dead agents and lowered thresholds
        for i in rng.sample(range(inst.n), min(inst.n, 3)):
            engine.remove(i, rng.random() < 0.5, [])
            assert engine._solve() == _solve_unbounded(engine), seed
    assert min(seen.values()) >= 50, seen


def _augment_recursive(u, indptr, cats, epos, thr, cap, used, slot_base, slots, spos, match,
                       visited):
    """``_kernels.augment`` as it was before its explicit stack: one call per
    agent on the path."""
    for k in range(indptr[u], indptr[u + 1]):
        c = cats[k]
        if epos[k] > thr[c] or visited[c]:
            continue
        visited[c] = True
        if used[c] < cap[c]:
            slots[slot_base[c] + used[c]] = u
            spos[slot_base[c] + used[c]] = epos[k]
            used[c] += 1
            match[u] = c
            return True
        for s in range(slot_base[c], slot_base[c] + used[c]):
            if _augment_recursive(slots[s], indptr, cats, epos, thr, cap, used, slot_base, slots,
                                  spos, match, visited):
                slots[s] = u
                spos[s] = epos[k]
                match[u] = c
                return True
    return False


def _fill_recursive(c, s, alive, match, cptr, cagents, cpos, thr, used, slot_base, slots, spos,
                    visited, log):
    """``_kernels.fill`` as it was before its explicit stack: one call per
    column on the path."""
    t = thr[c]
    for k in range(cptr[c], cptr[c + 1]):
        if cpos[k] > t:
            break
        a = cagents[k]
        if not alive[a]:
            continue
        m = match[a]
        if m < 0:
            log.append((slots, s, slots[s]))
            log.append((spos, s, spos[s]))
            log.append((match, a, m))
            slots[s] = a
            spos[s] = cpos[k]
            match[a] = c
            return True
        if visited[m]:
            continue
        visited[m] = True
        if _fill_recursive(m, slots.index(a, slot_base[m], slot_base[m] + used[m]), alive, match,
                           cptr, cagents, cpos, thr, used, slot_base, slots, spos, visited, log):
            log.append((slots, s, slots[s]))
            log.append((spos, s, spos[s]))
            log.append((match, a, m))
            slots[s] = a
            spos[s] = cpos[k]
            match[a] = c
            return True
    return False


def _augment_run(augment, engine, match, used, slots, spos):
    """``augment_pass`` without its stop, on copies of the given lists: each
    search's result and marks, then the lists."""
    match, used, slots, spos = match[:], used[:], slots[:], spos[:]
    searches = []
    visited = [False] * len(engine.cap)
    for u in engine.order:
        if engine.alive[u] and match[u] < 0:
            got = augment(u, engine.indptr, engine.cats, engine.epos, engine.thr, engine.cap, used,
                          engine.slot_base, slots, spos, match, visited)
            searches.append((u, got, visited[:]))
            if got:
                visited = [False] * len(engine.cap)
    return searches, match, used, slots, spos


def _fill_run(fill, engine, alive, match, used, slots, spos):
    """``fill_pass`` without its stop, on copies of the given lists: each
    search's result and marks, the lists, and the log with each list named."""
    match, used, slots, spos = match[:], used[:], slots[:], spos[:]
    searches, log = [], []
    visited = [False] * len(engine.cap)
    for c in range(len(engine.cap)):
        while used[c] < engine.cap[c] and not visited[c]:
            visited[c] = True
            got = fill(c, engine.slot_base[c] + used[c], alive, match, engine.cptr, engine.cagents,
                       engine.cpos, engine.thr, used, engine.slot_base, slots, spos, visited, log)
            searches.append((c, got, visited[:]))
            if not got:
                break
            used[c] += 1
            visited = [False] * len(engine.cap)
    names = {id(match): "match", id(slots): "slots", id(spos): "spos"}
    return searches, match, used, slots, spos, [(names[id(v)], k, old) for v, k, old in log]


def _greedy_state(engine):
    """The lists after ``greedy`` alone, on the engine's current graph."""
    match = [-1] * len(engine.alive)
    used = [0] * len(engine.cap)
    slots = [-1] * sum(engine.cap)
    spos = [-1] * len(slots)
    _kernels.greedy(engine.order, engine.alive, match, engine.indptr, engine.cats, engine.epos,
                    engine.thr, engine.cap, used, engine.slot_base, slots, spos)
    return match, used, slots, spos


def _unseated(engine, rng, share):
    """The engine's lists with about ``share`` of its pairs dropped and some
    matched agents killed: (alive, match, used, slots, spos), all copies."""
    alive, match, used, slots = engine.alive[:], engine.match[:], engine.used[:], engine.slots[:]
    spos = engine.spos[:]
    for c, base in enumerate(engine.slot_base):
        held = list(zip(slots[base:base + used[c]], spos[base:base + used[c]]))
        kept = [h for h in held if rng.random() >= share]
        for h in held:
            if h not in kept:
                match[h[0]] = -1
                alive[h[0]] = rng.random() < 0.8
        slots[base:base + len(kept)] = [a for a, _ in kept]
        spos[base:base + len(kept)] = [p for _, p in kept]
        used[c] = len(kept)
    return alive, match, used, slots, spos


def _assert_same_searches(engine, rng):
    state = _greedy_state(engine)
    assert (_augment_run(_augment_recursive, engine, *state)
            == _augment_run(_kernels.augment, engine, *state))
    for share in (0.2, 0.6):
        state = _unseated(engine, rng, share)
        assert (_fill_run(_fill_recursive, engine, *state)
                == _fill_run(_kernels.fill, engine, *state))


def test_explicit_stack_searches_equal_the_recursive_ones():
    for seed in range(120):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(5, 60), rng.randint(1, 12), max_quota=rng.choice((1, 3)),
                               eligibility_density=rng.choice((0.2, 0.5, 0.9)),
                               tie_prob=rng.choice((0.0, 0.5)), seed=seed)
        engine = _engine(inst)
        _assert_same_searches(engine, rng)
        # and on reduced graphs: dead agents and lowered thresholds
        for i in rng.sample(range(inst.n), min(inst.n, 3)):
            engine.remove(i, rng.random() < 0.5, [])
            _assert_same_searches(engine, rng)


def test_explicit_stack_searches_equal_the_recursive_ones_on_chains():
    # every augmenting path runs through the whole chain
    for m in (1, 2, 5, 40, 300):
        for tail in (False, True):
            inst = make_instance(chain_doc(m, tail))
            engine = _engine(inst)
            _assert_same_searches(engine, random.Random(m))
            # chain B: a{m-1} leaves, and x is re-seated along the whole chain;
            # chain F: x leaves, and the search from c0 fails at the far end
            gone = m if tail else m - 1
            alive, match, used, slots = (engine.alive[:], engine.match[:], engine.used[:],
                                         engine.slots[:])
            alive[gone] = False
            used[match[gone]] -= 1
            match[gone] = -1
            fills = [_fill_run(fill, engine, alive, match, used, slots, engine.spos)
                     for fill in (_fill_recursive, _kernels.fill)]
            assert fills[0] == fills[1]
            searches, match, _, _, _, log = fills[1]
            if tail:
                assert searches == [(0, False, [True] * (m + 1))] and not log
            else:
                assert match[m] == 0 and len(log) == 3 * m
