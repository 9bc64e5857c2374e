"""Exhaustive ground truth on small instances.

Enumerates every eligibility-compliant matching directly from the instance
(no shared code with the matching kernels), computes the set of matchings
that also respect priorities and have maximum size, and compares it against
the union of rejection-scan outcomes over every baseline ordering. One
matching engine is built per instance and reset to each ordering, and rr's
own scan runs on every ordering; each distinct final reduced graph has its
maximum matchings enumerated once. Hard bounds guard the factorial and
exponential enumerations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

from .axioms import check_respect_priorities
from .graph import ReservationGraph, _RejectionEngine, reduced_graph, reservation_graph
from .model import Instance, Kind, Matching
from .rules import _rr_trace

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
    size, with the maximum taken by enumeration (independent of the kernels)."""
    best = 0
    respecting: list[tuple[int, Canonical]] = []
    for m in enumerate_matchings(inst, max_agents):
        best = max(best, m.size())
        if check_respect_priorities(inst, m).holds:
            respecting.append((m.size(), m.canonical()))
    return frozenset(c for s, c in respecting if s == best)


def _symmetrize(inst: Instance) -> Instance:
    """Recast unreserved categories as preferential ones with the same fixed
    ranking, so the baseline can be permuted freely."""
    cats = tuple(replace(c, kind=Kind.PREFERENTIAL) for c in inst.categories)
    return Instance(inst.agent_names, cats, inst.baseline)


def rr_outcome_set(inst: Instance, max_agents: int = MAX_ORDERING_AGENTS) -> MatchingSet:
    """Union over every baseline ordering of all maximum matchings of the
    final reduced graph left by the rejection scan.

    One engine is built on the symmetrized instance and reset to each
    ordering, and rr's scan runs on every ordering. Every category of the
    symmetrized instance has a fixed ranking, so the engine's rows do not
    depend on the ordering, the reduced graph's edges depend only on the
    rejected set, and its matchings are enumerated once per distinct set.
    """
    if inst.n > max_agents:
        raise OracleBoundError(f"instance has {inst.n} agents, bound is {max_agents}")
    base = _symmetrize(inst)
    engine = _RejectionEngine.of(base, range(len(base.categories)))
    out: set[Canonical] = set()
    seen: set[frozenset[int]] = set()
    for perm in itertools.permutations(range(inst.n)):
        rejected = _rr_trace(engine.reset(perm)).rejected
        if rejected in seen:
            continue
        seen.add(rejected)
        g = reduced_graph(base, rejected=rejected)
        matchings = list(_graph_matchings(g))
        ms = max((len(m) for m in matchings), default=0)
        for m in matchings:
            if len(m) == ms:
                out.add(tuple(sorted(m.items())))
    return frozenset(out)


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
