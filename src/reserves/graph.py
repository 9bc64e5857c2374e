"""Reservation graphs and the maximum-cardinality b-matching primitive.

The reservation graph of an instance joins each agent to every category she
is eligible for; rejecting agents both removes them and prunes any edge a
rejected agent outranks. Matching sizes of such graphs drive every rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from . import _kernels
from .model import Instance, Matching, ValidationError


@dataclass(frozen=True)
class ReservationGraph:
    """Bipartite eligibility graph between agents and capacitated categories.

    ``scan_order`` fixes the deterministic tiebreak: agents are seeded and
    augmented in this order (baseline order when built from an instance).
    """

    left: frozenset[int]
    right: tuple[tuple[int, int], ...]  # (category id, capacity)
    edges: frozenset[tuple[int, int]]
    scan_order: tuple[int, ...]

    def __post_init__(self) -> None:
        cat_ids = {c for c, _ in self.right}
        if len(cat_ids) != len(self.right):
            raise ValidationError("duplicate category on the right side")
        for a, c in self.edges:
            if a not in self.left or c not in cat_ids:
                raise ValidationError(f"edge ({a}, {c}) has a missing endpoint")
        if sorted(self.scan_order) != sorted(self.left):
            raise ValidationError("scan_order must enumerate the left vertices")

    @cached_property
    def _arrays(self):
        n_rows = max(self.left) + 1 if self.left else 0
        col = {c: j for j, (c, _) in enumerate(self.right)}
        by_row: list[list[int]] = [[] for _ in range(n_rows)]
        for a, c in self.edges:
            by_row[a].append(col[c])
        indptr = [0]
        cats: list[int] = []
        for a in range(n_rows):
            cats.extend(sorted(by_row[a]))
            indptr.append(len(cats))
        bound = max(len(self.left), 1)
        cap = [min(q, bound) for _, q in self.right]
        slot_base = [0, *accumulate(cap)][:len(cap)]
        alive = [False] * n_rows
        for a in self.left:
            alive[a] = True
        return indptr, cats, cap, slot_base, alive, list(self.scan_order)

    def _solve(self, order: Optional[Sequence[int]] = None) -> list[int]:
        indptr, cats, cap, slot_base, alive, scan = self._arrays
        if order is not None:
            if sorted(order) != sorted(self.left):
                raise ValidationError("tiebreak order must enumerate the left vertices")
            scan = list(order)
        n_rows = len(alive)
        n_cols = len(cap)
        epos = [0] * len(cats)
        thr = [_kernels.THR_INF] * n_cols
        match = [-1] * n_rows
        used = [0] * n_cols
        slots = [-1] * sum(cap)
        _kernels.greedy(scan, alive, match, indptr, cats, epos, thr, cap, used, slot_base, slots)
        _kernels.augment_pass(scan, alive, match, indptr, cats, epos, thr, cap, used,
                              slot_base, slots, n_rows)
        return match


def reservation_graph(inst: Instance, cats: Optional[Iterable[int]] = None,
                      quotas: Optional[dict[int, int]] = None) -> ReservationGraph:
    """Eligibility graph over all agents and the given categories (default all)."""
    cat_ids = _check_cats(inst, cats)
    right = tuple((c, quotas[c] if quotas and c in quotas else inst.categories[c].quota)
                  for c in cat_ids)
    edges = frozenset((a, c) for c in cat_ids for a in inst.agents_eligible_for(c))
    return ReservationGraph(frozenset(range(inst.n)), right, edges, inst.baseline)


def reduced_graph(inst: Instance, cats: Optional[Iterable[int]] = None,
                  rejected: Iterable[int] = ()) -> ReservationGraph:
    """Reservation graph after rejections: rejected agents leave, and an edge
    (j, c) survives only if no rejected agent strictly outranks j in c."""
    cat_ids = _check_cats(inst, cats)
    rej = set(rejected)
    for r in rej:
        if not 0 <= r < inst.n:
            raise ValidationError(f"unknown rejected agent id {r}")
    left = [a for a in range(inst.n) if a not in rej]
    thr = {c: min((inst.position(c, r) for r in rej), default=None) for c in cat_ids}
    edges = set()
    for c in cat_ids:
        for a in inst.agents_eligible_for(c):
            if a in rej:
                continue
            if thr[c] is None or inst.position(c, a) <= thr[c]:
                edges.add((a, c))
    right = tuple((c, inst.categories[c].quota) for c in cat_ids)
    order = tuple(a for a in inst.baseline if a not in rej)
    return ReservationGraph(frozenset(left), right, frozenset(edges), order)


def max_matching_size(g: ReservationGraph) -> int:
    """Number of edges in a maximum matching (agents once, categories up to capacity)."""
    match = g._solve()
    return len(match) - match.count(-1)


def max_matching(g: ReservationGraph, order: Optional[Sequence[int]] = None) -> Matching:
    """A maximum matching, deterministic for a fixed tiebreak order: greedy
    seeding then augmentation, scanning agents in ``order`` (default: the
    graph's scan order) and categories in declaration order."""
    match = g._solve(order)
    return Matching({a: g.right[c][0] for a, c in enumerate(match) if c >= 0})


def _check_cats(inst: Instance, cats: Optional[Iterable[int]]) -> tuple[int, ...]:
    if cats is None:
        return tuple(range(len(inst.categories)))
    out = tuple(cats)
    for c in out:
        if not 0 <= c < len(inst.categories):
            raise ValidationError(f"unknown category id {c}")
    if len(set(out)) != len(out):
        raise ValidationError("duplicate category ids")
    return out
