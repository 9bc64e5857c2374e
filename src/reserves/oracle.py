"""Exhaustive ground truth on small instances.

Two sides are computed independently and compared. The axiom side walks
the eligibility-compliant matchings of the instance directly (no shared code
with the matching kernels) and keeps the priority-respecting ones of maximum
size. The rule side is the union of the rejection scan's outcomes over every
baseline ordering, found without running the orderings one by one.

Every ranking is fixed by the instance, an unreserved category's included,
and the orderings the rule side ranges over are scan orders only: it never
re-derives a ranking from a permuted baseline. So the reduced graph G(R)
after rejecting a set R depends on R alone. Write F(R) for "G(R) keeps the
full graph's maximum matching size m". F is closed under subsets: if R is a
subset of R', then G(R') is a subgraph of G(R) (fewer agents, thresholds no
higher), so F(R') implies F(R). The scan rejects an agent exactly when her
test succeeds, so it ends on a maximal F-set, and every maximal F-set is
where the scan ends that tests its members first. The rule side is therefore
the union, over the maximal F-sets R, of the maximum matchings of G(R).
Every maximal F-set has exactly n - m agents (``_final_rejected_sets`` gives
the swap argument), so one matching engine walks the F-sets up to that size
and no further.

Both sides enumerate only maximum matchings, by a depth-first walk that
cuts a branch once it cannot reach the best size found. Hard bounds guard
the exponential enumerations: an agent count, and a node count for each
matching walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import _RejectionEngine
from .model import Instance, Matching

#: canonical form of a matching: sorted (agent, category) pairs
Canonical = tuple[tuple[int, int], ...]
MatchingSet = frozenset[Canonical]

#: agents an instance may have; read at each call, like MAX_WALK_NODES
MAX_AGENTS = 19
#: nodes one matching walk may visit before it gives up
MAX_WALK_NODES = 2_000_000


class OracleBoundError(RuntimeError):
    """The requested enumeration exceeds the configured resource guard."""


def _check_bound(inst: Instance) -> None:
    if inst.n > MAX_AGENTS:
        raise OracleBoundError(f"instance has {inst.n} agents, bound is {MAX_AGENTS}")


def _walk_bound() -> OracleBoundError:
    return OracleBoundError(f"matching walk exceeds {MAX_WALK_NODES} nodes")


def enumerate_matchings(inst: Instance) -> Iterator[Matching]:
    """Yield every eligibility-compliant matching exactly once.

    Depth-first over agents in id order; each agent tries her eligible
    categories in declaration order and then stays unmatched. Nothing is
    pruned, so this is the reference the maximum-only walks are tested
    against.
    """
    _check_bound(inst)
    quota = [c.quota for c in inst.categories]
    return (Matching(m) for m in _graph_matchings(_reduced_adj(inst), quota))


def _reduced_adj(inst: Instance, rejected: Iterable[int] = ()) -> list[list[tuple[int, int]]]:
    """The adjacency of G(R), the graph left after rejecting the agents R.

    ``adj[a]`` lists agent ``a``'s categories in id order as (category,
    priority position). Rejected agents have none, and the list ends at the
    last agent not rejected, since trailing rejected agents would only add
    nodes to every walk over it. An eligible edge (a, c) survives when no
    rejected agent strictly outranks ``a`` in ``c``: a category's threshold
    is the best position among the rejected agents, or its cutoff, which
    every eligible position is below, when none is rejected.
    """
    rej = set(rejected)
    thr = [min((inst.position(c, r) for r in rej), default=cat.ranking.cutoff)
           for c, cat in enumerate(inst.categories)]
    last = max(set(range(inst.n)) - rej, default=-1)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(last + 1)]
    for a in range(last + 1):
        if a not in rej:
            for c in inst.eligible_categories(a):
                p = inst.position(c, a)
                if p <= thr[c]:
                    adj[a].append((c, p))
    return adj


def _graph_matchings(adj: Sequence[Sequence[tuple[int, int]]],
                     quota: Sequence[int]) -> Iterator[dict[int, int]]:
    """Every matching of the graph ``adj`` (as ``_reduced_adj`` gives it)
    under ``quota``, each once, unpruned."""
    used = [0] * len(quota)
    current: dict[int, int] = {}
    nodes = 0

    def walk(a: int) -> Iterator[dict[int, int]]:
        nonlocal nodes
        nodes += 1
        if nodes > MAX_WALK_NODES:
            raise _walk_bound()
        if a == len(adj):
            yield dict(current)
            return
        for c, _ in adj[a]:
            if used[c] < quota[c]:
                used[c] += 1
                current[a] = c
                yield from walk(a + 1)
                del current[a]
                used[c] -= 1
        yield from walk(a + 1)

    return walk(0)


def _maximum_matchings(adj: Sequence[Sequence[tuple[int, int]]], quota: Sequence[int],
                       respect: bool) -> list[Canonical]:
    """Every matching of maximum size, each once, in canonical form.

    ``adj[a]`` lists agent ``a``'s categories as (category, priority
    position). Agents are decided in id order: each tries her categories in
    turn and then stays unmatched. A branch is cut once its size plus the
    undecided agents that have a category falls below the best size found.
    With ``respect``, a branch is also cut as soon as an unmatched agent
    outranks a holder of one of her categories, whichever of the two was
    decided first, so only priority-respecting matchings are walked and the
    maximum is taken over them.
    """
    n = len(adj)
    reach = [0] * (n + 1)  # reach[k]: agents k.. that have a category
    for k in range(n - 1, -1, -1):
        reach[k] = reach[k + 1] + bool(adj[k])
    used = [0] * len(quota)
    held: list[list[int]] = [[] for _ in quota]  # holders' positions
    passed: list[list[int]] = [[] for _ in quota]  # unmatched agents' positions
    current: list[tuple[int, int]] = []
    best = 0
    found: list[Canonical] = []
    nodes = 0

    def walk(k: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > MAX_WALK_NODES:
            raise _walk_bound()
        if len(current) + reach[k] < best:
            return
        if k == n:
            if len(current) > best:
                best = len(current)
                found.clear()
            found.append(tuple(current))
            return
        for c, p in adj[k]:
            if used[c] < quota[c] and not (respect and passed[c] and min(passed[c]) < p):
                used[c] += 1
                held[c].append(p)
                current.append((k, c))
                walk(k + 1)
                current.pop()
                held[c].pop()
                used[c] -= 1
        if respect:
            if any(held[c] and p < max(held[c]) for c, p in adj[k]):
                return
            for c, p in adj[k]:
                passed[c].append(p)
            walk(k + 1)
            for c, p in adj[k]:
                passed[c].pop()
        else:
            walk(k + 1)

    walk(0)
    return found


def axiom_satisfying_set(inst: Instance) -> MatchingSet:
    """All eligibility-compliant, priority-respecting matchings of maximum
    size, enumerated from the instance alone (independent of the kernels).

    The walk keeps only priority-respecting matchings, so its maximum is
    taken over them. The rule side's matchings have the overall maximum
    size, so were that larger, the two sides would differ and
    ``verify_characterization`` would still report it."""
    _check_bound(inst)
    return frozenset(_maximum_matchings(_reduced_adj(inst), [c.quota for c in inst.categories],
                                        True))


def rr_outcome_set(inst: Instance) -> MatchingSet:
    """Union over every baseline ordering of all maximum matchings of the
    final reduced graph left by the rejection scan.

    The final rejected sets are the maximal F-sets (``_final_rejected_sets``),
    and each one's reduced graph has its maximum matchings enumerated once."""
    _check_bound(inst)
    quota = [c.quota for c in inst.categories]
    out: set[Canonical] = set()
    for rejected in _final_rejected_sets(inst):
        out.update(_maximum_matchings(_reduced_adj(inst, rejected), quota, False))
    return frozenset(out)


def _final_rejected_sets(inst: Instance) -> set[frozenset[int]]:
    """The rejected sets the rejection scan ends with, over every ordering
    of the agents of ``inst``, its rankings held fixed: the maximal F-sets,
    where F(R) means that the reduced graph G(R) after rejecting R keeps the
    full graph's maximum size m.

    The lemma: F is closed under subsets, since rejecting more agents only
    removes agents and lowers thresholds. The scan rejects agent i at
    rejected set R exactly when F(R + {i}), so each of its rejected sets is
    an F-set, and an agent it keeps fails at the final set too: the scan
    ends on a maximal F-set. Conversely, the scan that tests a maximal
    F-set's members first rejects them all and keeps everyone else.

    The size fact: every maximal F-set R has n - m agents. Let M be a
    maximum matching of G(R), and suppose M leaves an agent j outside R
    unmatched. F(R + {j}) is false, so some holder a in M, in a category c
    where j is live, ranks strictly below j; otherwise pruning j's
    categories would kill no pair of M, and M would survive in G(R + {j}).
    Swapping j in for a gives another maximum matching of G(R), in which
    c's holder ranks strictly higher and a is unmatched. That cannot repeat
    forever, so every maximum matching of G(R) matches every agent outside
    R, and |R| = n - m. No F-set has more agents, since G(R) has only
    n - |R| agents to match, so the F-sets of n - m agents are exactly the
    maximal ones. ``_walk_f_sets`` reaches each of them once, adding agents
    in increasing id order on one engine, and cuts every branch that can
    no longer reach that size."""
    engine = _RejectionEngine(inst, range(len(inst.categories)))
    target = engine.size()
    final: set[frozenset[int]] = set()
    _walk_f_sets(engine, target, [], range(inst.n), inst.n - target, final)
    return final


def _walk_f_sets(engine: _RejectionEngine, target: int, rejected: list[int],
                 candidates: Sequence[int], need: int, final: set[frozenset[int]]) -> None:
    """Add to ``final`` every F-set of ``need`` more agents that extends
    ``rejected`` by ``candidates``. The engine holds the graph after
    rejecting ``rejected``, and ``candidates`` are the agents above its last
    one that kept the target at the parent: by the lemma, no other agent
    keeps it here. Each candidate is removed and the removal reverted; the
    walk recurses into each keeper, with its removal re-applied and the
    keepers after it as candidates, while enough of them remain to reach
    ``need``, and reverts the removal on return."""
    if need == 0:
        final.add(frozenset(rejected))
        return
    keepers = [i for i in candidates if _keeps(engine, i, target)]
    for k in range(len(keepers) - need + 1):
        log: list = []
        engine.remove(keepers[k], True, log)
        rejected.append(keepers[k])
        _walk_f_sets(engine, target, rejected, keepers[k + 1:], need - 1, final)
        rejected.pop()
        engine.revert(log, target)


def _keeps(engine: _RejectionEngine, i: int, target: int) -> bool:
    log: list = []
    keeps = engine.remove(i, True, log) == target
    engine.revert(log, target)
    return keeps


@dataclass(frozen=True)
class CharacterizationReport:
    ok: bool
    only_rule_side: tuple[Canonical, ...]
    only_axiom_side: tuple[Canonical, ...]


def verify_characterization(inst: Instance) -> CharacterizationReport:
    """Check that the rejection-scan outcomes over all orderings are exactly
    the eligibility-compliant, priority-respecting, maximum-size matchings."""
    rule_side = rr_outcome_set(inst)
    axiom_side = axiom_satisfying_set(inst)
    return CharacterizationReport(
        rule_side == axiom_side,
        tuple(sorted(rule_side - axiom_side)),
        tuple(sorted(axiom_side - rule_side)),
    )
