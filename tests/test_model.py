import json

import pytest

from conftest import RUNNING_DOC, SCAN_DOC, make_instance
from reserves.generator import random_instance
from reserves.model import (EMPTY, CategoryEdit, Instance, Manipulation, Matching,
                            ParseError, ValidationError, apply_manipulation,
                            enumerate_priority_decreases, parse_instance,
                            priority_decrease_holds, serialize_instance,
                            strictly_prefers, validate_matching)


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
    out = apply_manipulation(scan, Manipulation(3, ((0, CategoryEdit("hide")),)))
    r = out.categories[0].ranking
    # agent 2 moves up to the second tier; agent 4 drops below the empty slot
    assert r.tiers == ((0,), (1,), (3,)) and r.cutoff == 2
    assert not out.eligible(3, 0)
    assert out.categories[1] == scan.categories[1]


def test_apply_identity_manipulation(scan):
    assert apply_manipulation(scan, Manipulation(3, ())) == scan


def test_apply_rejects_priority_raise(scan):
    # agent 2 sits in the third tier of c1; "demoting" to a lower index is a raise
    with pytest.raises(ValidationError):
        apply_manipulation(scan, Manipulation(1, ((0, CategoryEdit("demote", 0)),)))


def test_demote_one_tier(scan):
    out = apply_manipulation(scan, Manipulation(3, ((0, CategoryEdit("demote", 2)),)))
    r = out.categories[0].ranking
    assert r.tiers == ((0,), (1, 3)) and r.cutoff == 2
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
    target = apply_manipulation(scan, Manipulation(3, ((0, CategoryEdit("hide")),)))
    outs = list(enumerate_priority_decreases(scan, 3, budget=10))
    assert any(o == target for o in outs)


def test_enumerate_all_outputs_are_decreases():
    for seed in range(30):
        inst = random_instance(5, 2, seed=seed, eligibility_density=0.6, tie_prob=0.3)
        for i in range(inst.n):
            for out in enumerate_priority_decreases(inst, i, budget=6):
                assert priority_decrease_holds(inst, out, i)


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
    with pytest.raises(ValidationError):  # a lone unreserved pool has no split
        Instance(reserve.agent_names, reserve.categories[:2], reserve.baseline)


def test_validate_matching(running):
    validate_matching(running, Matching({1: 1, 2: 0}))
    with pytest.raises(ValidationError):
        validate_matching(running, Matching({1: 0, 2: 0}))  # c1 quota 1
    with pytest.raises(ValidationError):
        validate_matching(running, Matching({7: 0}))
