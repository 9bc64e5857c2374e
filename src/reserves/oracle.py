"""Exhaustive ground truth on small instances.

Enumerates every eligibility-compliant matching directly from the instance
(no shared code with the matching kernels), computes the set of matchings
that also respect priorities and have maximum size, and compares it against
the union of rejection-scan outcomes over every baseline ordering. The
orderings are not run one by one: a scan step's decision depends only on
the agents already rejected and the agent tested, so one matching engine
walks the scan states (rejected, unscanned) depth-first, expanding each
once, and every ordering's scan is one path through them. Each distinct
final reduced graph has its maximum matchings enumerated once. Hard bounds
guard the exponential enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from .axioms import check_respect_priorities
from .graph import ReservationGraph, _RejectionEngine, reduced_graph, reservation_graph
from .model import Instance, Kind, Matching

#: canonical form of a matching: sorted (agent, category) pairs
Canonical = tuple[tuple[int, int], ...]
MatchingSet = frozenset[Canonical]

MAX_ENUM_AGENTS = 8
MAX_ORDERING_AGENTS = 8


class OracleBoundError(RuntimeError):
    """The requested enumeration exceeds the configured resource guard."""


def enumerate_matchings(inst: Instance, max_agents: int = MAX_ENUM_AGENTS) -> Iterator[Matching]:
    """Yield every eligibility-compliant matching exactly once.

    Depth-first over agents in id order; each agent tries her eligible
    categories in declaration order and then stays unmatched.
    """
    if inst.n > max_agents:
        raise OracleBoundError(f"instance has {inst.n} agents, bound is {max_agents}")
    return (Matching(m) for m in _graph_matchings(reservation_graph(inst)))


def _graph_matchings(g: ReservationGraph) -> Iterator[dict[int, int]]:
    agents = sorted(g.left)
    order = {c: j for j, (c, _) in enumerate(g.right)}
    adj = {a: sorted((c for b, c in g.edges if b == a), key=order.__getitem__)
           for a in agents}
    quota = dict(g.right)
    used = {c: 0 for c, _ in g.right}
    current: dict[int, int] = {}

    def walk(k: int) -> Iterator[dict[int, int]]:
        if k == len(agents):
            yield dict(current)
            return
        a = agents[k]
        for c in adj[a]:
            if used[c] < quota[c]:
                used[c] += 1
                current[a] = c
                yield from walk(k + 1)
                del current[a]
                used[c] -= 1
        yield from walk(k + 1)

    return walk(0)


def axiom_satisfying_set(inst: Instance, max_agents: int = MAX_ENUM_AGENTS) -> MatchingSet:
    """All eligibility-compliant, priority-respecting matchings of maximum
    size, with the maximum taken by enumeration (independent of the kernels).
    Priorities are checked only on the matchings of maximum size."""
    best = 0
    largest: list[Matching] = []
    for m in enumerate_matchings(inst, max_agents):
        size = m.size()
        if size > best:
            best, largest = size, []
        if size == best:
            largest.append(m)
    return frozenset(m.canonical() for m in largest
                     if check_respect_priorities(inst, m).holds)


def _symmetrize(inst: Instance) -> Instance:
    """Recast unreserved categories as preferential ones with the same fixed
    ranking, so the baseline can be permuted freely."""
    cats = tuple(replace(c, kind=Kind.PREFERENTIAL) for c in inst.categories)
    return Instance(inst.agent_names, cats, inst.baseline)


def rr_outcome_set(inst: Instance, max_agents: int = MAX_ORDERING_AGENTS) -> MatchingSet:
    """Union over every baseline ordering of all maximum matchings of the
    final reduced graph left by the rejection scan.

    The final rejected sets come from ``_final_rejected_sets`` on the
    symmetrized instance, whose categories all have fixed rankings, so the
    reduced graph's edges depend only on the rejected set and its matchings
    are enumerated once per distinct set.
    """
    if inst.n > max_agents:
        raise OracleBoundError(f"instance has {inst.n} agents, bound is {max_agents}")
    base = _symmetrize(inst)
    out: set[Canonical] = set()
    for rejected in _final_rejected_sets(base):
        g = reduced_graph(base, rejected=rejected)
        matchings = list(_graph_matchings(g))
        ms = max((len(m) for m in matchings), default=0)
        for m in matchings:
            if len(m) == ms:
                out.add(tuple(sorted(m.items())))
    return frozenset(out)


def _final_rejected_sets(inst: Instance) -> set[frozenset[int]]:
    """The rejected sets the rejection scan ends with, over every ordering
    of the agents of ``inst`` (whose categories must all have fixed rankings).

    After rejecting a set R the reduced graph depends on R alone (the live
    agents and each category's threshold), and so does its maximum size.
    Scanning agent i then rejects her exactly when the graph of R + {i}
    keeps the full graph's maximum: a decision fixed by (R, i). So the scan
    of an ordering is one path through the states (rejected, unscanned),
    every complete path is the scan of some ordering, and a depth-first walk
    that expands each state once finds every final rejected set.
    """
    engine = _RejectionEngine.of(inst, range(len(inst.categories)))
    seen: set[tuple[frozenset[int], frozenset[int]]] = set()
    _walk_scan_states(engine, engine.size(), frozenset(), frozenset(range(inst.n)), seen)
    return {rejected for rejected, unscanned in seen if not unscanned}


def _walk_scan_states(engine: _RejectionEngine, target: int, rejected: frozenset[int],
                      unscanned: frozenset[int],
                      seen: set[tuple[frozenset[int], frozenset[int]]]) -> None:
    """Add the state (rejected, unscanned) and every state reachable from it
    to ``seen``, expanding none twice. The engine holds the graph after
    rejecting ``rejected``; it goes deeper while a rejecting test is pending
    and undoes the test on the way back."""
    if (rejected, unscanned) in seen:
        return
    seen.add((rejected, unscanned))
    for i in unscanned:
        rest = unscanned - {i}
        if engine.test_remove(i, prune=True) == target:
            _walk_scan_states(engine, target, rejected | {i}, rest, seen)
            engine.undo()
        else:
            engine.undo()
            _walk_scan_states(engine, target, rejected, rest, seen)


@dataclass(frozen=True)
class CharacterizationReport:
    ok: bool
    only_rule_side: tuple[Canonical, ...]
    only_axiom_side: tuple[Canonical, ...]


def verify_characterization(inst: Instance,
                            max_agents: int = MAX_ORDERING_AGENTS) -> CharacterizationReport:
    """Check that the rejection-scan outcomes over all orderings are exactly
    the eligibility-compliant, priority-respecting, maximum-size matchings."""
    rule_side = rr_outcome_set(inst, max_agents)
    axiom_side = axiom_satisfying_set(inst, max(max_agents, MAX_ENUM_AGENTS))
    return CharacterizationReport(
        rule_side == axiom_side,
        tuple(sorted(rule_side - axiom_side)),
        tuple(sorted(axiom_side - rule_side)),
    )
