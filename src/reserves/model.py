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
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional, Union

#: Marker for the empty slot in priority comparisons (an agent strictly above
#: it is eligible, an agent at or below it is not).
EMPTY = None

AgentRef = Optional[int]  # agent id or EMPTY


class ParseError(ValueError):
    """Malformed instance/matching text (bad JSON, missing or mistyped keys)."""


class ValidationError(ValueError):
    """Structurally well-formed input that violates a model invariant."""


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

    def validate(self, n: int) -> None:
        if not 0 <= self.cutoff <= len(self.tiers):
            raise ValidationError(f"cutoff {self.cutoff} out of range for {len(self.tiers)} tiers")
        seen: set[int] = set()
        for tier in self.tiers:
            if not tier:
                raise ValidationError("empty tier in priority ranking")
            for a in tier:
                if not 0 <= a < n:
                    raise ValidationError(f"unknown agent id {a} in priority ranking")
                if a in seen:
                    raise ValidationError(f"agent {a} appears in more than one tier")
                seen.add(a)

    @cached_property
    def _tier_of(self) -> dict[int, int]:
        return {a: t for t, tier in enumerate(self.tiers) for a in tier}

    def position(self, a: AgentRef) -> int:
        """Comparable rank: smaller is higher priority. The empty slot sits at
        ``cutoff``; tiers below it are shifted by one; absent agents tie with it."""
        if a is EMPTY:
            return self.cutoff
        t = self._tier_of.get(a)
        if t is None:
            return self.cutoff
        return t if t < self.cutoff else t + 1

    def is_eligible(self, a: int) -> bool:
        return self.position(a) < self.cutoff

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
        if sorted(self.baseline) != list(range(n)):
            raise ValidationError("baseline is not a permutation of all agents")
        kinds = [c.kind for c in self.categories]
        firsts = kinds.count(Kind.UNRESERVED_FIRST)
        if firsts > 1 or kinds.count(Kind.UNRESERVED_LAST) != firsts:
            raise ValidationError("unreserved categories must form one (first, last) pair")
        for c in self.categories:
            if c.quota < 0:
                raise ValidationError(f"negative quota for category {c.name!r}")
            c.ranking.validate(n)
            if c.kind.is_unreserved:
                expected = PriorityRanking(tuple((a,) for a in self.baseline), n)
                if c.ranking != expected:
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
        return self.categories[c].ranking.position(a)

    def eligible(self, i: int, c: int) -> bool:
        return self.categories[c].ranking.is_eligible(i)

    def eligible_categories(self, i: int) -> list[int]:
        return [c for c in range(len(self.categories)) if self.eligible(i, c)]

    def agents_eligible_for(self, c: int) -> list[int]:
        return self.categories[c].ranking.eligible_agents()

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

    def category_of(self, i: int) -> int | None:
        return self.assignment.get(i)

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
    separate, checkable axiom and is deliberately not enforced here."""
    counts = [0] * len(inst.categories)
    for i, c in m.assignment.items():
        if not 0 <= i < inst.n:
            raise ValidationError(f"matching references unknown agent id {i}")
        if not 0 <= c < len(inst.categories):
            raise ValidationError(f"matching references unknown category id {c}")
        counts[c] += 1
    for c, used in enumerate(counts):
        if used > inst.categories[c].quota:
            raise ValidationError(
                f"category {inst.categories[c].name!r} over quota: {used} > "
                f"{inst.categories[c].quota}"
            )


# ---------------------------------------------------------------------------
# Manipulations (priority decreases)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryEdit:
    """One category's report change: ``hide`` drops the agent below the empty
    slot; ``demote`` joins an existing lower tier (index in the old tier list)."""

    action: str  # "hide" | "demote"
    tier: int | None = None


@dataclass(frozen=True)
class Manipulation:
    agent: int
    edits: tuple[tuple[int, CategoryEdit], ...]  # (category id, edit), category-sorted


def _apply_edit(ranking: PriorityRanking, agent: int, edit: CategoryEdit) -> PriorityRanking:
    tiers = [list(t) for t in ranking.tiers]
    cutoff = ranking.cutoff
    ti = next((t for t, tier in enumerate(tiers) if agent in tier), None)

    if edit.action == "hide":
        if ti is not None:
            tiers[ti].remove(agent)
        tiers.append([agent])  # strictly below every ranked agent and the empty slot
    elif edit.action == "demote":
        if ti is None:
            raise ValidationError(f"agent {agent} is not ranked, cannot demote")
        if edit.tier is None or not ti < edit.tier < len(tiers):
            raise ValidationError(f"demotion target {edit.tier} is not strictly below tier {ti}")
        tiers[edit.tier].append(agent)
        tiers[ti].remove(agent)
    else:
        raise ValidationError(f"unknown edit action {edit.action!r}")

    if ti is not None and not tiers[ti]:
        del tiers[ti]
        if ti < cutoff:
            cutoff -= 1
    return PriorityRanking(tuple(tuple(t) for t in tiers), cutoff)


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


def apply_manipulation(inst: Instance, m: Manipulation) -> Instance:
    """Apply a report change; reject anything that is not a pure priority decrease."""
    if not 0 <= m.agent < inst.n:
        raise ValidationError(f"unknown agent id {m.agent}")
    cats = list(inst.categories)
    for c, edit in m.edits:
        if not 0 <= c < len(cats):
            raise ValidationError(f"unknown category id {c}")
        if cats[c].kind.is_unreserved:
            raise ValidationError("unreserved rankings are fixed to the baseline")
        cats[c] = replace(cats[c], ranking=_apply_edit(cats[c].ranking, m.agent, edit))
    out = Instance(inst.agent_names, tuple(cats), inst.baseline)
    if not priority_decrease_holds(inst, out, m.agent):
        raise ValidationError("edit would raise the agent's priority")
    return out


def enumerate_priority_decreases(inst: Instance, i: int, budget: int = 8) -> Iterator[Instance]:
    """Distinct instances reachable by agent ``i`` lowering her own reports.

    Every nonempty hide-subset of ``i``'s eligible preferential categories is
    always produced; one-tier-down demotions are appended while the total
    yield stays within ``budget``. Order is deterministic.
    """
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    hide = CategoryEdit("hide")
    elig = [c for c in inst.eligible_categories(i)
            if not inst.categories[c].kind.is_unreserved]
    seen: set[tuple] = set()
    produced = 0

    def key(out: Instance) -> tuple:
        return tuple((c.ranking.tiers, c.ranking.cutoff) for c in out.categories)

    for mask in range(1, 1 << len(elig)):
        subset = tuple(c for b, c in enumerate(elig) if mask >> b & 1)
        out = apply_manipulation(inst, Manipulation(i, tuple((c, hide) for c in subset)))
        k = key(out)
        if k not in seen:
            seen.add(k)
            produced += 1
            yield out

    for c, cat in enumerate(inst.categories):
        if cat.kind.is_unreserved:
            continue
        ti = next((t for t, tier in enumerate(cat.ranking.tiers) if i in tier), None)
        if ti is None or ti + 1 >= len(cat.ranking.tiers):
            continue
        if produced >= budget:
            break
        out = apply_manipulation(inst, Manipulation(i, ((c, CategoryEdit("demote", ti + 1)),)))
        k = key(out)
        if k not in seen:
            seen.add(k)
            produced += 1
            yield out


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


def _parse_tiers(tiers_doc: list, ids: dict[str, int], where: str) -> tuple[tuple[int, ...], ...]:
    for tier in tiers_doc:
        if not isinstance(tier, list):
            raise ParseError(f"each tier in {where} must be a JSON array")
    return tuple(tuple(_resolve(a, ids, where) for a in tier) for tier in tiers_doc)


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
    for a in agent_names:
        if not isinstance(a, str) or not a:
            raise ParseError("agent names must be non-empty strings")
    if len(set(agent_names)) != len(agent_names):
        raise ValidationError("duplicate agent names")
    ids = {a: i for i, a in enumerate(agent_names)}
    n = len(agent_names)

    baseline_names = _require(doc, "baseline", list, "document")
    baseline = tuple(_resolve(a, ids, "baseline") for a in baseline_names)
    if sorted(baseline) != list(range(n)):
        raise ValidationError("baseline must list every agent exactly once")

    cat_docs = _require(doc, "categories", list, "document")
    split = doc.get("unreserved_split")
    unreserved_doc = None
    categories: list[Category] = []
    for cd in cat_docs:
        if not isinstance(cd, dict):
            raise ParseError("each category must be a JSON object")
        name = _require(cd, "name", str, "category")
        if any(c.name == name for c in categories):
            raise ValidationError(f"duplicate category name {name!r}")
        if name.endswith(("[first]", "[last]")):
            raise ValidationError(f"category name {name!r} may not end in [first] or [last]")
        quota = _require(cd, "quota", int, f"category {name!r}")
        kind = _require(cd, "kind", str, f"category {name!r}")
        if kind == "preferential":
            tiers = _parse_tiers(_require(cd, "tiers", list, f"category {name!r}"),
                                 ids, f"category {name!r}")
            cutoff = _require(cd, "cutoff", int, f"category {name!r}")
            categories.append(Category(name, quota, Kind.PREFERENTIAL, PriorityRanking(tiers, cutoff)))
        elif kind == "unreserved":
            if unreserved_doc is not None:
                raise ValidationError("more than one unreserved category")
            unreserved_doc = (name, quota, cd)
            base_ranking = PriorityRanking(tuple((a,) for a in baseline), n)
            if "tiers" in cd:
                tiers = _parse_tiers(_require(cd, "tiers", list, f"category {name!r}"),
                                     ids, f"category {name!r}")
                cutoff = _require(cd, "cutoff", int, f"category {name!r}") if "cutoff" in cd else n
                given = PriorityRanking(tiers, cutoff)
                if given != base_ranking:
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
