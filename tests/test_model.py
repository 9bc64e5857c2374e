import hashlib
import itertools
import json
import random
from dataclasses import replace
from itertools import chain

import pytest

from conftest import RUNNING_DOC, SCAN_DOC, make_instance
from reserves.generator import random_instance, random_instance_document
from reserves.model import (EMPTY, Category, Instance, Kind, Matching, ParseError,
                            PriorityRanking, ValidationError, _moved, apply_manipulation,
                            enumerate_priority_decreases, instance_from_document, parse_instance,
                            priority_decrease_holds, serialize_instance,
                            strictly_prefers, validate_matching)

# c1 of SCAN_DOC after agent 4 hides: agent 2 moves up to the second tier
# and agent 4 drops below the empty slot
SCAN_C1_HIDDEN = PriorityRanking(((0,), (1,), (3,)), 2)


def test_parse_running_example_eligibility(running):
    assert running.n == 3
    pairs = {(a, c) for c in range(2) for a in running.agents_eligible_for(c)}
    assert pairs == {(1, 0), (2, 0), (1, 1)}  # agents 2,3 for c1; agent 2 for c2


def test_parse_zero_categories():
    inst = parse_instance(json.dumps({"agents": ["x"], "baseline": ["x"], "categories": []}))
    assert inst.n == 1 and inst.categories == ()


def test_parse_rejects_duplicate_baseline():
    doc = {"agents": ["a", "b"], "baseline": ["a", "a"], "categories": []}
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_unknown_agent_and_duplicate_tier():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [["b"]], "cutoff": 1}]}
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))
    doc["categories"][0]["tiers"] = [["a"], ["a"]]
    doc["categories"][0]["cutoff"] = 2
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_malformed_json_and_types():
    with pytest.raises(ParseError):
        parse_instance(b"{not json")
    with pytest.raises(ParseError):
        parse_instance(json.dumps({"agents": ["a"]}))


def test_parse_rejects_unreserved_priority_mismatch():
    doc = {"agents": ["a", "b"], "baseline": ["a", "b"],
           "categories": [{"name": "u", "quota": 1, "kind": "unreserved",
                           "tiers": [["b"], ["a"]], "cutoff": 2}]}
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def _doc(tiers=(["a"],), cutoff=1, baseline=("a", "b")) -> dict:
    return {"agents": ["a", "b"], "baseline": list(baseline),
            "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                            "tiers": list(tiers), "cutoff": cutoff}]}


def _unreserved_doc(cutoff) -> dict:
    """An unreserved category given a cutoff and no tiers."""
    return {"agents": ["a", "b"], "baseline": ["a", "b"],
            "categories": [{"name": "u", "quota": 1, "kind": "unreserved", "cutoff": cutoff}]}


NOT_A_STRING = "agent reference in category 'c' must be a string"
UNKNOWN = "unknown agent 'zz' in category 'c'"
EMPTY_TIER = "category 'c': empty tier in priority ranking"
DUPLICATE = "category 'c': agent 0 appears in more than one tier"


@pytest.mark.parametrize("doc, error, message", [
    (_doc([["a", 1]]), ParseError, NOT_A_STRING),
    (_doc([[None]]), ParseError, NOT_A_STRING),
    (_doc([[True]]), ParseError, NOT_A_STRING),
    (_doc([["a", ["x"]]]), ParseError, NOT_A_STRING),
    (_doc([[{"x": 1}]]), ParseError, NOT_A_STRING),
    (_doc(["a"]), ParseError, "each tier in category 'c' must be a JSON array"),
    (_doc([["zz"]]), ValidationError, UNKNOWN),
    (_doc([["zz", 1]]), ValidationError, UNKNOWN),
    (_doc([[1, "zz"]]), ParseError, NOT_A_STRING),
    (_doc([["a"], []], 2), ValidationError, EMPTY_TIER),
    (_doc([["a", "a"]]), ValidationError, DUPLICATE),
    (_doc([["a"], ["a"]], 2), ValidationError, DUPLICATE),
    (_doc([[], ["a"], ["a"]], 3), ValidationError, EMPTY_TIER),
    (_doc([["a"], ["a"], []], 3), ValidationError, DUPLICATE),
    (_doc([["a"]], 2), ValidationError, "category 'c': cutoff 2 out of range for 1 tiers"),
    (_doc(baseline=["a", 1]), ParseError, "agent reference in baseline must be a string"),
    (_doc(baseline=["a", ["b"]]), ParseError, "agent reference in baseline must be a string"),
    (_doc(baseline=["a", "zz"]), ValidationError, "unknown agent 'zz' in baseline"),
    (_doc(baseline=["a", "a"]), ValidationError, "baseline must list every agent exactly once"),
    (_unreserved_doc("zz"), ParseError, "category 'u'.cutoff has wrong type str"),
    (_unreserved_doc(0), ValidationError,
     "unreserved category 'u' priority must equal the baseline"),
], ids=["int", "null", "true", "list", "dict", "tier-not-array", "unknown", "unknown-then-int",
        "int-then-unknown", "empty-tier", "duplicate-in-tier", "duplicate-across-tiers",
        "empty-then-duplicate", "duplicate-then-empty", "cutoff", "baseline-int",
        "baseline-list", "baseline-unknown", "baseline-duplicate", "unreserved-cutoff-type",
        "unreserved-cutoff-zero"])
def test_parse_error_class_and_message(doc, error, message):
    """The first bad entry decides the error; ranking errors name their category."""
    with pytest.raises(ValueError) as e:
        parse_instance(json.dumps(doc))
    assert (type(e.value), str(e.value)) == (error, message)


@pytest.mark.parametrize("agent", [-1, 2])
def test_ranking_validate_names_an_unknown_id(agent):
    ranking = PriorityRanking(((0,), (agent,)), 2)
    if agent >= 0:
        ranking.validate(3)  # valid among three agents, and recorded for three only
    with pytest.raises(ValueError) as e:
        ranking.validate(2)
    assert (type(e.value), str(e.value)) == (
        ValidationError, f"unknown agent id {agent} in priority ranking")


# rankings of two agents built directly, not by the parser, and the error
# validate names for each
BAD_RANKINGS = [
    (PriorityRanking(((0,), (0,)), 2), "agent 0 appears in more than one tier"),
    (PriorityRanking(((0, 1), (1,)), 2), "agent 1 appears in more than one tier"),
    (PriorityRanking(((0,), ()), 2), "empty tier in priority ranking"),
    (PriorityRanking(((0,), (2,)), 2), "unknown agent id 2 in priority ranking"),
    (PriorityRanking(((-1,),), 1), "unknown agent id -1 in priority ranking"),
    (PriorityRanking(((0,),), 2), "cutoff 2 out of range for 1 tiers"),
    (PriorityRanking(((0,),), -1), "cutoff -1 out of range for 1 tiers"),
]
BAD_IDS = ["duplicate", "duplicate-in-tier", "empty-tier", "unknown", "negative", "cutoff-high",
           "cutoff-negative"]


def _with_ranking(inst, c, ranking):
    cats = list(inst.categories)
    cats[c] = replace(cats[c], ranking=ranking)
    return tuple(cats)


@pytest.mark.parametrize("ranking, message", BAD_RANKINGS, ids=BAD_IDS)
def test_directly_built_rankings_are_validated(ranking, message):
    """Only the parser hands a ranking its flat ids; every other path still
    validates it in full, with the same message."""
    doc = {"agents": ["a", "b"], "baseline": ["b", "a"],
           "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                           "tiers": [["a"], ["b"]], "cutoff": 2},
                          {"name": "u", "quota": 2, "kind": "unreserved"}],
           "unreserved_split": {"first": 1, "last": 1}}
    inst = make_instance(doc)
    expected = (ValidationError, f"category 'c': {message}")
    with pytest.raises(ValueError) as e:
        Instance(inst.agent_names, _with_ranking(inst, 0, ranking), inst.baseline)
    assert (type(e.value), str(e.value)) == expected
    with pytest.raises(ValueError) as e:
        apply_manipulation(inst, 1, {0: ranking})
    assert (type(e.value), str(e.value)) == expected
    # with_split rebuilds the instance from its categories and validates them
    # again: here an instance that skipped validation holds the bad ranking
    unchecked = object.__new__(Instance)
    for name, value in (("agent_names", inst.agent_names), ("baseline", inst.baseline),
                        ("categories", _with_ranking(inst, 0, ranking))):
        object.__setattr__(unchecked, name, value)
    with pytest.raises(ValueError) as e:
        unchecked.with_split(2, 0)
    assert (type(e.value), str(e.value)) == expected
    # and without an unreserved pair, where no baseline ranking is built
    plain = make_instance({"agents": doc["agents"], "baseline": doc["baseline"],
                           "categories": doc["categories"][:1]})
    with pytest.raises(ValueError) as e:
        Instance(plain.agent_names, _with_ranking(plain, 0, ranking), plain.baseline)
    assert (type(e.value), str(e.value)) == expected


def _rankings_off_range():
    """(label, ranking, bad id): rankings holding an id outside the two-agent
    instance below, from the parser of a three-agent document and derived
    from one, and built directly."""
    parsed = make_instance({"agents": ["a", "b", "z"], "baseline": ["a", "b", "z"],
                            "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                                            "tiers": [["a"], ["z"], ["b"]], "cutoff": 2}]}
                           ).categories[0].ranking
    negative = PriorityRanking(((0,), (-1,), (1,)), 2)
    return [
        ("parsed for three agents", parsed, 2),
        ("_moved", _moved(parsed, 0, 2), 2),
        ("replace", replace(parsed, cutoff=3), 2),
        ("direct", PriorityRanking(parsed.tiers, parsed.cutoff), 2),
        ("_moved, negative", _moved(negative, 1, 2), -1),
        ("replace, negative", replace(parsed, tiers=((0,), (-1,), (1,))), -1),
        ("direct, negative", negative, -1),
    ]


@pytest.mark.parametrize("label, ranking, bad", _rankings_off_range(),
                         ids=[label for label, _, _ in _rankings_off_range()])
def test_range_pass_is_skipped_only_for_the_parsers_agent_count(label, ranking, bad):
    """The parser vouches for its ids in ``range(n)`` for its own n only: a
    ranking it resolved for three agents, or one derived from it by
    ``_moved`` or ``dataclasses.replace``, or built directly, still fails in
    a two-agent instance with the unknown id named."""
    inst = make_instance(_doc([["a"], ["b"]], 2))
    with pytest.raises(ValueError) as e:
        Instance(inst.agent_names, _with_ranking(inst, 0, ranking), inst.baseline)
    assert (type(e.value), str(e.value)) == (
        ValidationError, f"category 'c': unknown agent id {bad} in priority ranking")


@pytest.mark.parametrize("tiers, message", [
    ([["b"], ["a"], ["b"]], "category 'c': agent 1 appears in more than one tier"),
    ([["a"], ["b"], ["a"], ["b"]], DUPLICATE),
    ([["b"], ["a"], ["a"], []], "category 'c': agent 0 appears in more than one tier"),
])
def test_a_strict_parsed_ranking_that_repeats_an_agent_names_the_first_repeat(tiers, message):
    with pytest.raises(ValueError) as e:
        parse_instance(json.dumps(_doc(tiers, 2)))
    assert (type(e.value), str(e.value)) == (ValidationError, message)


@pytest.mark.parametrize("seed", range(12))
def test_parsed_rankings_equal_directly_built_ones(seed):
    inst = random_instance(3 + 4 * seed, 1 + seed % 4, eligibility_density=0.6,
                           tie_prob=(0.0, 0.5)[seed % 2], seed=seed, unreserved=seed % 2)
    for cat in inst.categories:
        parsed = cat.ranking
        direct = PriorityRanking(tuple(tuple(t) for t in parsed.tiers), parsed.cutoff)
        assert parsed == direct and hash(parsed) == hash(direct)
        assert parsed._flat == direct._flat == tuple(chain.from_iterable(parsed.tiers))


def test_quota_sum_is_unconstrained():
    doc = {"agents": ["a"], "baseline": ["a"],
           "categories": [{"name": "c", "quota": 7, "kind": "preferential",
                           "tiers": [["a"]], "cutoff": 1}]}
    assert parse_instance(json.dumps(doc)).categories[0].quota == 7


def test_strictly_prefers(running):
    c1, c2 = running.categories[0].ranking, running.categories[1].ranking
    assert strictly_prefers(c1, 1, 2)          # agent 2 above agent 3
    assert not strictly_prefers(c1, 1, 1)      # irreflexive
    assert strictly_prefers(c2, EMPTY, 2)      # empty slot above agent 3
    assert strictly_prefers(c2, EMPTY, 0)
    assert strictly_prefers(c1, 0, EMPTY) is False  # agent 1 is below the cutoff


def test_eligible(running):
    assert not running.eligible(0, 0) and not running.eligible(0, 1)
    assert running.eligible(1, 0) and running.eligible(1, 1)
    assert running.eligible(2, 0) and not running.eligible(2, 1)


def test_unreserved_always_eligible(reserve):
    for c in (reserve.unreserved_first_id, reserve.unreserved_last_id):
        assert all(reserve.eligible(i, c) for i in range(reserve.n))


def test_apply_hide_moves_below_everyone(scan):
    out = apply_manipulation(scan, 3, {0: SCAN_C1_HIDDEN})
    assert list(enumerate_priority_decreases(scan, 3, budget=0)) == [out]
    assert not out.eligible(3, 0)
    assert out.categories[1] == scan.categories[1]


def test_apply_identity_manipulation(scan):
    assert apply_manipulation(scan, 3, {}) == scan


def test_apply_rejects_priority_raise(scan):
    # agent 2 sits in the third tier of c1; joining the first tier is a raise
    with pytest.raises(ValidationError):
        apply_manipulation(scan, 1, {0: PriorityRanking(((0, 1), (3,)), 2)})


def test_demote_one_tier(scan):
    out = apply_manipulation(scan, 3, {0: PriorityRanking(((0,), (1, 3)), 2)})
    assert list(enumerate_priority_decreases(scan, 3, budget=2))[1:] == [out]
    assert out.eligible(3, 0)
    assert priority_decrease_holds(scan, out, 3)


def test_enumerate_hide_subsets_count(running):
    # agent 2 is eligible for both categories: 2^2 - 1 hide subsets
    outs = list(enumerate_priority_decreases(running, 1, budget=0))
    assert len(outs) == 3
    assert all(priority_decrease_holds(running, o, 1) for o in outs)


def test_enumerate_empty_when_nothing_to_lower():
    doc = {"agents": ["a"], "baseline": ["a"], "categories": []}
    inst = parse_instance(json.dumps(doc))
    assert list(enumerate_priority_decreases(inst, 0, budget=10)) == []


def test_enumerate_includes_hide_instance(scan):
    target = apply_manipulation(scan, 3, {0: SCAN_C1_HIDDEN})
    outs = list(enumerate_priority_decreases(scan, 3, budget=10))
    assert any(o == target for o in outs)


def test_enumerate_all_outputs_are_decreases():
    # the second instance per seed has ties, an unreserved pair and a budget
    # above the 2^3 - 1 hides plus 3 demotions, so every demotion is made
    for seed in range(30):
        for inst, budget in (
                (random_instance(5, 2, seed=seed, eligibility_density=0.6, tie_prob=0.3), 6),
                (random_instance(6, 3, seed=seed, eligibility_density=0.6, tie_prob=0.5,
                                 unreserved=2).with_split(1, 1), 11)):
            for i in range(inst.n):
                outs = list(enumerate_priority_decreases(inst, i, budget=budget))
                assert all(priority_decrease_holds(inst, out, i) for out in outs)
                assert len(set(outs)) == len(outs)
                # the enumerator's unchecked instances are the checked path's
                for out in outs:
                    changed = {c: cat.ranking for c, (cat, old) in
                               enumerate(zip(out.categories, inst.categories)) if cat != old}
                    assert out == apply_manipulation(inst, i, changed)


def test_enumerate_is_deterministic(scan):
    a = [serialize_instance(o) for o in enumerate_priority_decreases(scan, 3, budget=5)]
    b = [serialize_instance(o) for o in enumerate_priority_decreases(scan, 3, budget=5)]
    assert a == b


@pytest.mark.parametrize("doc", [RUNNING_DOC, SCAN_DOC])
def test_serialize_round_trip(doc):
    inst = make_instance(doc)
    again = parse_instance(json.dumps(serialize_instance(inst)))
    assert again == inst


def test_serialize_round_trip_with_unreserved():
    doc = {"agents": ["a", "b"], "baseline": ["b", "a"],
           "categories": [
               {"name": "c", "quota": 1, "kind": "preferential",
                "tiers": [["a"]], "cutoff": 1},
               {"name": "u", "quota": 3, "kind": "unreserved"}],
           "unreserved_split": {"first": 1, "last": 2}}
    inst = make_instance(doc)
    assert inst.unreserved_quota == 3
    assert inst.categories[inst.unreserved_first_id].quota == 1
    again = parse_instance(json.dumps(serialize_instance(inst)))
    assert again == inst


def test_with_split(reserve, running):
    assert reserve.split == (0, 1)
    assert running.split is None
    shifted = reserve.with_split(1, 0)
    assert shifted.split == (1, 0)
    assert shifted.categories[shifted.unreserved_first_id].quota == 1
    assert shifted.categories[shifted.unreserved_last_id].quota == 0
    with pytest.raises(ValidationError):
        reserve.with_split(2, 1)
    # at its own split an instance is returned as is, not rebuilt
    assert reserve.with_split(*reserve.split) is reserve
    assert shifted.with_split(1, 0) is shifted
    with pytest.raises(ValidationError):  # a lone unreserved pool has no split
        Instance(reserve.agent_names, reserve.categories[:2], reserve.baseline)


def test_unreserved_ids_are_found_once_per_instance(reserve, monkeypatch):
    calls = []
    find = Instance._unreserved_id
    monkeypatch.setattr(Instance, "_unreserved_id",
                        lambda self, kind: calls.append(self) or find(self, kind))
    for _ in range(3):
        assert reserve.split == (0, 1) and reserve.has_unreserved
        assert reserve.unreserved_quota == 1
    assert len(calls) == 2
    # a copy at another split finds its own, from its own categories
    shifted = reserve.with_split(1, 0)
    assert (shifted.split, shifted.unreserved_quota) == ((1, 0), 1)
    assert [c for c in calls if c is shifted] == [shifted, shifted]
    assert (shifted.unreserved_first_id, shifted.unreserved_last_id) == (
        reserve.unreserved_first_id, reserve.unreserved_last_id)
    assert len(calls) == 4


def test_validate_matching(running):
    validate_matching(running, Matching({1: 1, 2: 0}))
    validate_matching(running, Matching({}))
    with pytest.raises(ValidationError, match=r"^category 'c1' over quota: 2 > 1$"):
        validate_matching(running, Matching({1: 0, 2: 0}))  # c1 quota 1
    with pytest.raises(ValidationError, match="^matching references unknown agent id 7$"):
        validate_matching(running, Matching({7: 0}))


@pytest.mark.parametrize("assignment, message", [
    ({-1: 0}, "matching references unknown agent id -1"),
    ({0: 2}, "matching references unknown category id 2"),
    ({0: -1}, "matching references unknown category id -1"),
    # the first bad pair is named, after a good one and before a later one
    ({1: 1, 2: 5, 9: 0}, "matching references unknown category id 5"),
    ({1: 1, 9: 0, 2: 5}, "matching references unknown agent id 9"),
    # with both categories over quota, the lower id is named
    ({0: 1, 1: 1, 2: 0, 3: 0}, "category 'c1' over quota: 2 > 1"),
    ({0: 1, 1: 1, 2: 1}, "category 'c2' over quota: 3 > 1"),
])
def test_validate_matching_names_the_defect(scan, assignment, message):
    with pytest.raises(ValidationError) as err:
        validate_matching(scan, Matching(assignment))
    assert str(err.value) == message


@pytest.mark.parametrize("baseline", [
    (0, 0, 2),     # duplicate
    (0, 1),        # missing
    (0, 1, 2, 2),  # too long
    (0, 1, 3),     # out of range
    (-1, 0, 1),    # negative
    (0, 1.5, 2),   # not an int
    ("a", "b", "c"),
])
def test_instance_rejects_a_baseline_that_is_not_a_permutation(running, baseline):
    with pytest.raises(ValidationError) as err:
        Instance(running.agent_names, running.categories, baseline)
    assert str(err.value) == "baseline must list every agent exactly once"


@pytest.mark.parametrize("first, last", [
    (((1,), (0,), (2,)), 3),   # another order
    (((0,), (1,), (2,)), 2),   # another cutoff
    (((0,), (1,)), 2),         # an agent missing
])
def test_instance_rejects_an_unreserved_ranking_off_the_baseline(running, first, last):
    cats = (*running.categories,
            Category("u", 1, Kind.UNRESERVED_FIRST, PriorityRanking(first, last)),
            Category("u", 1, Kind.UNRESERVED_LAST, PriorityRanking(((0,), (1,), (2,)), 3)))
    with pytest.raises(ValidationError) as err:
        Instance(running.agent_names, cats, (0, 1, 2))
    assert str(err.value) == ("unreserved category 'u' must rank every agent eligible "
                              "in baseline order")


def test_instance_names_an_unreserved_ranking_that_is_invalid(running):
    cats = (*running.categories,
            Category("u", 1, Kind.UNRESERVED_FIRST, PriorityRanking(((0, 1), (2,)), 3)),
            Category("u", 1, Kind.UNRESERVED_LAST, PriorityRanking(((0,), (1,), (2,)), 3)))
    with pytest.raises(ValidationError) as err:
        Instance(running.agent_names, cats, (0, 1, 2))
    assert str(err.value) == "category 'u': cutoff 3 out of range for 2 tiers"


def _reference_position(tiers, cutoff: int, a) -> int:
    """The index of ``a``'s group in the order tiers[:cutoff], then the empty
    slot with every agent in no tier, then tiers[cutoff:]."""
    groups = [set(t) for t in tiers[:cutoff]]
    groups.append({EMPTY} | ({a} - set(chain.from_iterable(tiers))))
    groups += [set(t) for t in tiers[cutoff:]]
    return next(g for g, group in enumerate(groups) if a in group)


def test_positions_match_a_reference_from_the_tiers():
    rng = random.Random(5)
    for _ in range(300):
        n, k = rng.randint(1, 9), rng.randint(1, 4)
        cats = []
        for c in range(k):
            ranked = rng.sample(range(n), rng.randint(1, n))
            tiers = [[ranked[0]]]
            for a in ranked[1:]:
                if rng.random() < 0.4:
                    tiers[-1].append(a)
                else:
                    tiers.append([a])
            ranking = PriorityRanking(tuple(map(tuple, tiers)), rng.randint(0, len(tiers)))
            cats.append(Category(f"c{c}", 1, Kind.PREFERENTIAL, ranking))
        inst = Instance(tuple(map(str, range(n))), tuple(cats), tuple(range(n)))
        refs = [[_reference_position(cat.ranking.tiers, cat.ranking.cutoff, a)
                 for a in (*range(n), EMPTY)] for cat in cats]
        for c, cat in enumerate(cats):
            r, ref = cat.ranking, refs[c]
            assert [r.position(a) for a in (*range(n), EMPTY)] == ref
            assert [inst.position(c, a) for a in (*range(n), EMPTY)] == ref
            for a in range(n):
                eligible = any(a in t for t in r.tiers[:r.cutoff])
                assert r.is_eligible(a) == inst.eligible(a, c) == eligible
            for x, y in itertools.product((*range(n), EMPTY), repeat=2):
                assert strictly_prefers(r, x, y) == (ref[n if x is EMPTY else x]
                                                     < ref[n if y is EMPTY else y])
        for a in range(n):
            assert inst.eligible_categories(a) == [
                c for c, cat in enumerate(cats) if any(a in t for t in
                                                       cat.ranking.tiers[:cat.ranking.cutoff])]


def test_enumerated_decreases_pinned_on_a_seeded_corpus():
    # Pins every instance enumerate_priority_decreases yields, hides and
    # demotions, on 60 seeded instances with ties, tiers below the empty slot
    # and unreserved pairs. The digest was taken while _moved read each
    # agent's tier from a map of its own.
    rows = []
    for seed in range(60):
        rng = random.Random(seed)
        doc = random_instance_document(rng.randint(3, 8), rng.randint(1, 4), seed=seed,
                                       eligibility_density=0.7, tie_prob=0.4,
                                       unreserved=2 if seed % 2 else 0)
        for cat in doc["categories"]:
            if "tiers" in cat:
                cat["cutoff"] = rng.randint(0, len(cat["tiers"]))
        inst = instance_from_document(doc)
        rows.append([[serialize_instance(out)["categories"]
                      for out in enumerate_priority_decreases(inst, i, budget=12)]
                     for i in range(inst.n)])
    assert sum(len(outs) for row in rows for outs in row) > 500
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "b6c7b359f6df7219d08596f0e41f35179c3399592519c690c50adecb5ba27a05"
