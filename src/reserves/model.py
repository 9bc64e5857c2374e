"""Domain model: rationing instances, priority rankings, matchings, manipulations.

Agents and categories are dense integer ids; human-readable names are kept in
side tables and only used for I/O. Priorities are weak rankings (ordered
tiers) over agents with an explicit eligibility cutoff: tiers before the
cutoff are above the empty slot, tiers at or after it are below. Agents
absent from a ranking are treated as tied with the empty slot, hence
ineligible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Optional, Union

#: Marker for the empty slot in priority comparisons (an agent strictly above
#: it is eligible, an agent at or below it is not).
EMPTY = None

AgentRef = Optional[int]  # agent id or EMPTY


class ParseError(ValueError):
    """Malformed instance/matching text (bad JSON, missing or mistyped keys)."""


class ValidationError(ValueError):
    """Structurally well-formed input that violates a model invariant."""


class _Positions(dict):
    """A ranking's position table, agent -> position. An agent in no tier,
    and EMPTY, are missing from it and read as the cutoff."""

    __slots__ = ("cutoff",)

    def __init__(self, cutoff: int, items) -> None:
        super().__init__(items)
        self.cutoff = cutoff

    def __missing__(self, a: AgentRef) -> int:
        return self.cutoff


class Kind(str, Enum):
    PREFERENTIAL = "preferential"
    UNRESERVED_FIRST = "unreserved_first"
    UNRESERVED_LAST = "unreserved_last"

    @property
    def is_unreserved(self) -> bool:
        return self is not Kind.PREFERENTIAL


@dataclass(frozen=True)
class PriorityRanking:
    """Ordered tiers of agents, highest priority first, with an eligibility cutoff.

    ``cutoff`` is the index where the empty slot sits: agents in
    ``tiers[:cutoff]`` are eligible, agents in ``tiers[cutoff:]`` are ranked
    strictly below the empty slot. Agents in no tier are tied with it.
    """

    tiers: tuple[tuple[int, ...], ...]
    cutoff: int

    @classmethod
    def _resolved(cls, tiers: tuple[tuple[int, ...], ...], cutoff: int,
                  flat: tuple[int, ...], n: int) -> "PriorityRanking":
        """The ranking of ``tiers``, given ``flat``, the ids of ``tiers`` in
        order, which a parser has already built from its table of ``n``
        agent names; it becomes ``_flat``, and ``validate(n)`` trusts that
        its ids are in ``range(n)``."""
        ranking = cls(tiers, cutoff)
        ranking.__dict__["_flat"] = flat
        ranking.__dict__["_ids_below"] = n
        return ranking

    @cached_property
    def _flat(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.tiers))

    def validate(self, n: int) -> None:
        """Raise ValidationError unless the cutoff is in range and the tiers
        are nonempty and hold distinct ids in ``range(n)``. One bulk check
        decides, and its success is recorded for ``n``, so a ranking shared
        by derived instances is checked once; only a ranking that fails it
        is walked agent by agent, to name the first offender. The id range
        is not checked for the ``n`` a parser resolved the ids against."""
        d = self.__dict__
        if d.get("_valid_for") == n:
            return
        tiers, cutoff, flat = self.tiers, self.cutoff, self._flat
        if (0 <= cutoff <= len(tiers) and all(tiers) and len(set(flat)) == len(flat)
                and (not flat or d.get("_ids_below") == n or 0 <= min(flat) and max(flat) < n)):
            d["_valid_for"] = n
            return
        if not 0 <= cutoff <= len(tiers):
            raise ValidationError(f"cutoff {cutoff} out of range for {len(tiers)} tiers")
        seen: set[int] = set()
        for tier in tiers:
            if not tier:
                raise ValidationError("empty tier in priority ranking")
            for a in tier:
                if not 0 <= a < n:
                    raise ValidationError(f"unknown agent id {a} in priority ranking")
                if a in seen:
                    raise ValidationError(f"agent {a} appears in more than one tier")
                seen.add(a)

    @cached_property
    def positions(self) -> _Positions:
        """The table of ``position``, built on the ranking's first query:
        ``positions[a]`` is ``position(a)`` for every agent and EMPTY."""
        tiers, cutoff, flat = self.tiers, self.cutoff, self._flat
        ranks = chain(range(cutoff), range(cutoff + 1, len(tiers) + 1))
        if len(flat) != len(tiers):  # ties: each tier's rank once per agent
            ranks = chain.from_iterable(map(repeat, ranks, map(len, tiers)))
        return _Positions(cutoff, zip(flat, ranks))

    def position(self, a: AgentRef) -> int:
        """Comparable rank: smaller is higher priority. The empty slot sits at
        ``cutoff``; tiers below it are shifted by one; absent agents tie with it."""
        return self.positions[a]

    def is_eligible(self, a: int) -> bool:
        return self.positions[a] < self.cutoff

    def _tier_index(self, a: int) -> Optional[int]:
        """The index of ``a``'s tier, None if she is in no tier."""
        p, cutoff = self.positions[a], self.cutoff
        return None if p == cutoff else p - (p > cutoff)

    def eligible_agents(self) -> list[int]:
        return [a for tier in self.tiers[: self.cutoff] for a in tier]


def strictly_prefers(ranking: PriorityRanking, a: AgentRef, b: AgentRef) -> bool:
    """True iff ``a`` is ranked strictly above ``b`` (either may be EMPTY)."""
    return ranking.position(a) < ranking.position(b)


@dataclass(frozen=True)
class Category:
    name: str
    quota: int
    kind: Kind
    ranking: PriorityRanking


@dataclass(frozen=True)
class Instance:
    """A rationing problem: agents, categories with quotas and priorities, baseline.

    The baseline is a strict permutation of all agents, highest priority
    first. Unreserved categories come in an (earlier, later) pair sharing one
    display name; their rankings always equal the baseline.
    """

    agent_names: tuple[str, ...]
    categories: tuple[Category, ...]
    baseline: tuple[int, ...]

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        n = self.n
        if len(set(self.agent_names)) != n:
            raise ValidationError("duplicate agent names")
        # n entries that cover range(n) are a permutation of it
        if len(self.baseline) != n or not set(self.baseline).issuperset(range(n)):
            raise ValidationError("baseline must list every agent exactly once")
        kinds = [c.kind for c in self.categories]
        firsts = kinds.count(Kind.UNRESERVED_FIRST)
        if firsts > 1 or kinds.count(Kind.UNRESERVED_LAST) != firsts:
            raise ValidationError("unreserved categories must form one (first, last) pair")
        for c in self.categories:
            if c.quota < 0:
                raise ValidationError(f"negative quota for category {c.name!r}")
            r = c.ranking
            # n nonempty tiers that list the baseline hold one agent each: the
            # baseline's own ranking, which its permutation check has validated
            if (c.kind.is_unreserved and r.cutoff == n == len(r.tiers)
                    and r._flat == self.baseline and all(r.tiers)):
                continue
            try:
                r.validate(n)
            except ValidationError as e:
                raise ValidationError(f"category {c.name!r}: {e}") from None
            if c.kind.is_unreserved:
                raise ValidationError(
                    f"unreserved category {c.name!r} must rank every agent "
                    "eligible in baseline order"
                )

    @property
    def n(self) -> int:
        return len(self.agent_names)

    @cached_property
    def baseline_pos(self) -> tuple[int, ...]:
        pos = [0] * self.n
        for p, a in enumerate(self.baseline):
            pos[a] = p
        return tuple(pos)

    def position(self, c: int, a: AgentRef) -> int:
        return self.categories[c].ranking.positions[a]

    def eligible(self, i: int, c: int) -> bool:
        ranking = self.categories[c].ranking
        return ranking.positions[i] < ranking.cutoff

    def eligible_categories(self, i: int) -> list[int]:
        return [c for c, cat in enumerate(self.categories)
                if cat.ranking.positions[i] < cat.ranking.cutoff]

    def agents_eligible_for(self, c: int) -> list[int]:
        return self.categories[c].ranking.eligible_agents()

    def agents_above(self, c: int, p: int) -> Iterable[int]:
        """The agents at a position below ``p`` in category ``c``, that is
        strictly above an agent at ``p``, in no particular order."""
        ranking = self.categories[c].ranking
        if p > ranking.cutoff:  # the agents in no tier sit at the cutoff
            return [a for a in range(self.n) if ranking.positions[a] < p]
        # above the empty slot a tier's index is its agents' position
        return chain.from_iterable(ranking.tiers[:p])

    @cached_property
    def preferential_ids(self) -> tuple[int, ...]:
        return tuple(c for c, cat in enumerate(self.categories) if cat.kind is Kind.PREFERENTIAL)

    def _unreserved_id(self, kind: Kind) -> int | None:
        for c, cat in enumerate(self.categories):
            if cat.kind is kind:
                return c
        return None

    @property
    def unreserved_first_id(self) -> int | None:
        return self._unreserved_id(Kind.UNRESERVED_FIRST)

    @property
    def unreserved_last_id(self) -> int | None:
        return self._unreserved_id(Kind.UNRESERVED_LAST)

    @property
    def has_unreserved(self) -> bool:
        return self.unreserved_first_id is not None

    @property
    def split(self) -> tuple[int, int] | None:
        """The unreserved units processed (first, last), around the
        preferential categories; None without an unreserved pair."""
        cf, cl = self.unreserved_first_id, self.unreserved_last_id
        if cf is None:
            return None
        return self.categories[cf].quota, self.categories[cl].quota

    @property
    def unreserved_quota(self) -> int:
        return sum(self.split or ())

    def with_split(self, first: int, last: int) -> "Instance":
        """Same instance with the unreserved quota repartitioned as (first, last)."""
        cf, cl = self.unreserved_first_id, self.unreserved_last_id
        if cf is None or cl is None:
            raise ValidationError("instance has no unreserved category to split")
        if first < 0 or last < 0 or first + last != self.unreserved_quota:
            raise ValidationError(
                f"split ({first}, {last}) does not partition the unreserved quota "
                f"{self.unreserved_quota}"
            )
        cats = list(self.categories)
        cats[cf] = replace(cats[cf], quota=first)
        cats[cl] = replace(cats[cl], quota=last)
        return Instance(self.agent_names, tuple(cats), self.baseline)


@dataclass
class Matching:
    """Partial assignment of agents to categories; absent agents are unmatched."""

    assignment: dict[int, int] = field(default_factory=dict)

    def size(self) -> int:
        return len(self.assignment)

    def is_matched(self, i: int) -> bool:
        return i in self.assignment

    def matched_agents(self) -> set[int]:
        return set(self.assignment)

    def count_in(self, c: int) -> int:
        return sum(1 for v in self.assignment.values() if v == c)

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.assignment.items())

    def canonical(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.pairs())


def validate_matching(inst: Instance, m: Matching) -> None:
    """Raise ValidationError on unknown ids or quota breaches. Eligibility is a
    separate, checkable axiom and is deliberately not enforced here.

    One bulk pass decides: a ``Counter`` of the categories, then the id
    ranges by ``min`` and ``max`` and the counts against the quotas. Only a
    matching with an unknown id is walked pair by pair, to name the first
    bad pair; of the categories over quota, the lowest id is named."""
    pairs, k = m.assignment, len(inst.categories)
    counts = Counter(pairs.values())
    if pairs and not (0 <= min(pairs) and max(pairs) < inst.n
                      and 0 <= min(counts) and max(counts) < k):
        for i, c in pairs.items():
            if not 0 <= i < inst.n:
                raise ValidationError(f"matching references unknown agent id {i}")
            if not 0 <= c < k:
                raise ValidationError(f"matching references unknown category id {c}")
    over = [c for c, used in counts.items() if used > inst.categories[c].quota]
    if over:
        c = min(over)
        cat = inst.categories[c]
        raise ValidationError(f"category {cat.name!r} over quota: {counts[c]} > {cat.quota}")


# ---------------------------------------------------------------------------
# Manipulations (priority decreases)
# ---------------------------------------------------------------------------

def _moved(ranking: PriorityRanking, agent: int, target: int) -> PriorityRanking:
    """``ranking`` with the ranked ``agent`` moved into old tier ``target``;
    ``len(ranking.tiers)`` opens a new last tier, below the empty slot. A tier
    she leaves empty is dropped."""
    tiers = [list(t) for t in ranking.tiers] + [[]]
    ti = ranking._tier_index(agent)
    tiers[target].append(agent)
    tiers[ti].remove(agent)
    cutoff = ranking.cutoff - (ti < ranking.cutoff and not tiers[ti])
    return PriorityRanking(tuple(tuple(t) for t in tiers if t), cutoff)


def priority_decrease_holds(old: Instance, new: Instance, agent: int) -> bool:
    """Check the formal relation: all other agents (and the empty slot) keep
    their mutual order in every category, and ``agent`` only moves down."""
    if old.n != new.n or len(old.categories) != len(new.categories):
        return False
    others: list[AgentRef] = [j for j in range(old.n) if j != agent]
    others.append(EMPTY)
    for c in range(len(old.categories)):
        ro, rn = old.categories[c].ranking, new.categories[c].ranking
        ranked = sorted(others, key=lambda x: (ro.position(x), -1 if x is EMPTY else x))
        for x, y in zip(ranked, ranked[1:]):
            po, pn = ro.position(x) - ro.position(y), rn.position(x) - rn.position(y)
            if (po == 0) != (pn == 0) or (po < 0) != (pn < 0):
                return False
        pa_old, pa_new = ro.position(agent), rn.position(agent)
        for x in others:
            if ro.position(x) <= pa_old and not rn.position(x) <= pa_new:
                return False
            if ro.position(x) < pa_old and not rn.position(x) < pa_new:
                return False
    return True


def _with_rankings(inst: Instance, rankings: dict[int, PriorityRanking]) -> Instance:
    """``inst`` with the given {category id: ranking} map swapped in."""
    cats = list(inst.categories)
    for c, ranking in rankings.items():
        cats[c] = replace(cats[c], ranking=ranking)
    return Instance(inst.agent_names, tuple(cats), inst.baseline)


def apply_manipulation(inst: Instance, agent: int,
                       rankings: dict[int, PriorityRanking]) -> Instance:
    """``inst`` with ``agent``'s report changed to the given {category id:
    ranking} map; reject anything that is not a pure priority decrease."""
    if not 0 <= agent < inst.n:
        raise ValidationError(f"unknown agent id {agent}")
    for c in rankings:
        if not 0 <= c < len(inst.categories):
            raise ValidationError(f"unknown category id {c}")
        if inst.categories[c].kind.is_unreserved:
            raise ValidationError("unreserved rankings are fixed to the baseline")
    out = _with_rankings(inst, rankings)
    if not priority_decrease_holds(inst, out, agent):
        raise ValidationError("rankings would raise the agent's priority")
    return out


def enumerate_priority_decreases(inst: Instance, i: int, budget: int = 8) -> Iterator[Instance]:
    """Distinct instances reachable by agent ``i`` lowering her own reports.

    Every nonempty hide-subset of ``i``'s eligible preferential categories is
    always produced; one-tier-down demotions are appended while the total
    yield stays within ``budget``. Order is deterministic. The outputs are
    priority decreases and distinct by construction, so neither is checked:
    ``_moved`` only moves ``i`` down, each hide leaves her alone in a new
    last tier of its categories, and each demotion moves her into an
    existing tier of one category.
    """
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    rankings = {c: inst.categories[c].ranking for c in inst.preferential_ids}
    hidden = {c: _moved(r, i, len(r.tiers)) for c, r in rankings.items() if r.is_eligible(i)}
    for mask in range(1, 1 << len(hidden)):
        yield _with_rankings(inst, {c: r for b, (c, r) in enumerate(hidden.items())
                                    if mask >> b & 1})

    produced = (1 << len(hidden)) - 1
    for c, r in rankings.items():
        if produced >= budget:
            break
        ti = r._tier_index(i)
        if ti is not None and ti + 1 < len(r.tiers):
            produced += 1
            yield _with_rankings(inst, {c: _moved(r, i, ti + 1)})


# ---------------------------------------------------------------------------
# Instance documents (canonical JSON wire format)
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, typ, where: str):
    if key not in doc:
        raise ParseError(f"missing key {key!r} in {where}")
    val = doc[key]
    # bool is a subclass of int, but true/false is never a count
    if not isinstance(val, typ) or (typ is int and isinstance(val, bool)):
        raise ParseError(f"{where}.{key} has wrong type {type(val).__name__}")
    return val


def _resolve(name, ids: dict[str, int], where: str) -> int:
    if not isinstance(name, str):
        raise ParseError(f"agent reference in {where} must be a string")
    if name not in ids:
        raise ValidationError(f"unknown agent {name!r} in {where}")
    return ids[name]


def _resolve_all(names: list, ids: dict[str, int], where: str) -> tuple[int, ...]:
    """The ids of ``names``, looked up in one pass at C speed; if a lookup
    fails, ``_resolve`` walks the names again and raises the first bad one's
    error."""
    try:
        return tuple(map(ids.__getitem__, names))
    except (KeyError, TypeError):  # an unknown name, or an unhashable one
        for a in names:
            _resolve(a, ids, where)
        raise


def _parse_tiers(tiers_doc: list, ids: dict[str, int],
                 where: str) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Resolve a ranking's tiers of agent names to tiers of ids; returns the
    tiers and their ids in order. The names of all tiers resolve in one
    ``_resolve_all`` pass, and the tiers are cut back out of it: zipped when
    every tier holds one agent, as in strict rankings, else sliced by tier
    length."""
    if not all(map(isinstance, tiers_doc, repeat(list))):
        raise ParseError(f"each tier in {where} must be a JSON array")
    flat = _resolve_all(list(chain.from_iterable(tiers_doc)), ids, where)
    if len(flat) == len(tiers_doc) and all(tiers_doc):
        return tuple(zip(flat)), flat
    ends = list(accumulate(map(len, tiers_doc)))
    return tuple(flat[s:e] for s, e in zip([0, *ends], ends)), flat


def parse_instance(data: Union[bytes, str]) -> Instance:
    """Parse the canonical JSON instance document (see instance_from_document)."""
    return instance_from_document(parse_document(data))


def decode_json(data: Union[bytes, str], not_utf8: str, invalid: str):
    """``json.loads`` for outside input: undecodable bytes, malformed JSON and
    nesting too deep for the decoder raise ParseError, with the message
    prefixed by ``not_utf8`` or ``invalid``."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{not_utf8}{e}") from None
    try:
        return json.loads(data)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"{invalid}{e}") from None


def parse_document(data: Union[bytes, str]) -> dict:
    """Decode JSON instance text into the document object, unchecked."""
    doc = decode_json(data, "instance file is not UTF-8: ", "invalid JSON: ")
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    return doc


def instance_from_document(doc: dict) -> Instance:
    """Build and validate the instance a decoded document describes.

    A document's single ``unreserved`` category becomes the internal
    (earlier, later) pair; ``unreserved_split`` fixes their quotas and
    defaults to processing every unreserved unit last. Category names must
    be unique and may not end in ``[first]`` or ``[last]``, the suffixes
    that tell the two unreserved pools apart in matching documents.
    """
    agent_names = _require(doc, "agents", list, "document")
    if not (all(map(isinstance, agent_names, repeat(str))) and all(agent_names)):
        raise ParseError("agent names must be non-empty strings")
    n = len(agent_names)
    ids = dict(zip(agent_names, range(n)))

    baseline = _resolve_all(_require(doc, "baseline", list, "document"), ids, "baseline")

    cat_docs = _require(doc, "categories", list, "document")
    split = doc.get("unreserved_split")
    unreserved_doc = None
    categories: list[Category] = []
    seen_names: set[str] = set()
    for cd in cat_docs:
        if not isinstance(cd, dict):
            raise ParseError("each category must be a JSON object")
        name = _require(cd, "name", str, "category")
        if name in seen_names:
            raise ValidationError(f"duplicate category name {name!r}")
        seen_names.add(name)
        if name.endswith(("[first]", "[last]")):
            raise ValidationError(f"category name {name!r} may not end in [first] or [last]")
        quota = _require(cd, "quota", int, f"category {name!r}")
        kind = _require(cd, "kind", str, f"category {name!r}")
        if kind == "preferential":
            tiers, flat = _parse_tiers(_require(cd, "tiers", list, f"category {name!r}"),
                                       ids, f"category {name!r}")
            cutoff = _require(cd, "cutoff", int, f"category {name!r}")
            categories.append(Category(name, quota, Kind.PREFERENTIAL,
                                       PriorityRanking._resolved(tiers, cutoff, flat, n)))
        elif kind == "unreserved":
            if unreserved_doc is not None:
                raise ValidationError("more than one unreserved category")
            unreserved_doc = (name, quota, cd)
            base_ranking = PriorityRanking._resolved(tuple(zip(baseline)), n, baseline, n)
            tiers = base_ranking.tiers
            if "tiers" in cd:
                tiers, _ = _parse_tiers(_require(cd, "tiers", list, f"category {name!r}"),
                                        ids, f"category {name!r}")
            cutoff = _require(cd, "cutoff", int, f"category {name!r}") if "cutoff" in cd else n
            if (tiers, cutoff) != (base_ranking.tiers, n):
                raise ValidationError(
                    f"unreserved category {name!r} priority must equal the baseline"
                )
            first, last = 0, quota
            if split is not None:
                if not isinstance(split, dict):
                    raise ParseError("unreserved_split must be an object")
                first = _require(split, "first", int, "unreserved_split")
                last = _require(split, "last", int, "unreserved_split")
                if first < 0 or last < 0 or first + last != quota:
                    raise ValidationError(
                        f"unreserved_split ({first}, {last}) must partition quota {quota}"
                    )
            categories.append(Category(name, first, Kind.UNRESERVED_FIRST, base_ranking))
            categories.append(Category(name, last, Kind.UNRESERVED_LAST, base_ranking))
        else:
            raise ParseError(f"unknown category kind {kind!r}")
    if split is not None and unreserved_doc is None:
        raise ValidationError("unreserved_split given but no unreserved category")

    return Instance(tuple(agent_names), tuple(categories), baseline)


def serialize_instance(inst: Instance) -> dict:
    """Inverse of parse_instance (the unreserved pair folds back into one entry)."""
    names = inst.agent_names
    split = inst.split
    merge_at = min(inst.unreserved_first_id, inst.unreserved_last_id) if split else None

    cats: list[dict] = []
    for c, cat in enumerate(inst.categories):
        if cat.kind.is_unreserved:
            if c == merge_at:
                cats.append({"name": cat.name, "quota": sum(split), "kind": "unreserved"})
            continue
        cats.append({
            "name": cat.name,
            "quota": cat.quota,
            "kind": "preferential",
            "tiers": [[names[a] for a in tier] for tier in cat.ranking.tiers],
            "cutoff": cat.ranking.cutoff,
        })
    doc = {
        "agents": list(names),
        "baseline": [names[a] for a in inst.baseline],
        "categories": cats,
    }
    if split is not None:
        doc["unreserved_split"] = {"first": split[0], "last": split[1]}
    return doc
