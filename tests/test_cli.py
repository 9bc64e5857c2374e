import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (EARLY_POOL_DOC, RESERVE_DOC, RUNNING_DOC, SCAN_DOC, chain_doc,
                      make_instance, reference_size)
import reserves
from reserves import axioms, cli, oracle
from reserves.cli import build_parser, main, report_doc
from reserves.generator import random_instance, random_instance_document
from reserves.model import (Instance, Matching, ParseError, enumerate_priority_decreases,
                            serialize_instance)
from reserves.rules import rr


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def with_files(tmp_path, argv):
    """argv with each document (anything but a string) written to a JSON file
    and replaced by its path."""
    return [a if isinstance(a, str) else write(tmp_path, f"{k}.json", a)
            for k, a in enumerate(argv)]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith(("{", "[")) else out)


def test_allocate_rr(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    code, doc = run(capsys, ["allocate", "--rule", "rr", "--instance", inst])
    assert code == 0
    assert doc["assignment"] == {"2": "c2", "3": "c1"}
    assert doc["rejected"] == ["1"]
    assert doc["ms_total"] == 2
    assert [d["agent"] for d in doc["trace"]] == ["3", "2", "1"]


def test_allocate_rr_trace_keys_come_from_the_scan_pairs(tmp_path, capsys):
    # the trace and rejected keys equal those built from the library's scan
    # pairs and rejected set; ties in every other instance and unreserved
    # units in two of three
    for seed in range(24):
        inst = random_instance(4 + 3 * seed, 1 + seed % 4, max_quota=3,
                               eligibility_density=0.5, tie_prob=(0.0, 0.4)[seed % 2],
                               seed=900 + seed, unreserved=2 * (seed % 3))
        path = write(tmp_path, "i.json", serialize_instance(inst))
        code, out = run(capsys, ["allocate", "--rule", "rr", "--instance", path])
        _, trace = rr(inst)
        names = inst.agent_names
        assert code == 0 and out["ms_total"] == trace.ms_total
        assert out["rejected"] == sorted(names[a] for a in trace.rejected)
        assert out["trace"] == [{"agent": names[i], "rejected": i in trace.rejected,
                                 "ms_tested": size} for i, size in trace.tested]
        assert all(list(d) == ["agent", "rejected", "ms_tested"] for d in out["trace"])


def test_allocate_mg_and_oaa(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    code, doc = run(capsys, ["allocate", "--rule", "mg", "--instance", inst])
    assert code == 0 and doc["assignment"] == {"1": "c", "2": "c_u"}
    code, doc = run(capsys, ["allocate", "--rule", "oaa", "--instance", inst])
    assert code == 0 and doc["assignment"] == {"1": "c_u", "4": "c"}


def test_each_split_is_derived_once(tmp_path, capsys, monkeypatch):
    # mg runs at the document's own split (0, q), so loading it builds the
    # only instance; oaa derives (q, 0) once more. verify's srr run is at
    # the generated split (0, q). Each built 3, 3 and 93 when the rules and
    # the CLI derived the split each on their own.
    built = []
    post_init = Instance.__post_init__
    monkeypatch.setattr(Instance, "__post_init__", lambda self: built.append(post_init(self)))
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    for argv, count in ((["allocate", "--rule", "mg", "--instance", inst], 1),
                        (["allocate", "--rule", "oaa", "--instance", inst], 2),
                        (["verify", "--count", "20", "--max-agents", "6", "--categories", "2",
                          "--unreserved", "1", "--tie-prob", "0.5", "--seed", "5"], 73)):
        built.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(built) == count, argv


def test_allocate_empty_instance(tmp_path, capsys):
    inst = write(tmp_path, "i.json", {"agents": [], "baseline": [], "categories": []})
    code, doc = run(capsys, ["allocate", "--rule", "rr", "--instance", inst])
    assert code == 0 and doc["assignment"] == {} and doc["size"] == 0


def test_allocate_srr_split_flag(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    code, doc = run(capsys, ["allocate", "--rule", "srr", "--instance", inst,
                             "--split", "1,0"])
    assert code == 0 and doc["assignment"] == {"1": "c_u", "4": "c"}
    assert doc["split"] == {"first": 1, "last": 0}


def test_allocate_check_pipeline(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    code, doc = run(capsys, ["allocate", "--rule", "rr", "--instance", inst])
    matching = write(tmp_path, "m.json", doc)
    code, reports = run(capsys, ["check", "--instance", inst, "--matching", matching])
    assert code == 0
    assert {r["axiom"] for r in reports} >= {"eligibility", "respect_priorities",
                                             "nonwasteful", "max_size"}
    assert all(r["holds"] for r in reports)


def test_check_matching_from_stdin(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    payload = json.dumps({"assignment": {"2": "c2", "3": "c1"}}).encode()
    monkeypatch.setattr(sys, "stdin",
                        type("S", (), {"buffer": io.BytesIO(payload)})())
    code, reports = run(capsys, ["check", "--instance", inst, "--matching", "-"])
    assert code == 0 and all(r["holds"] for r in reports)


def test_check_envy_witness_and_exit_code(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    matching = write(tmp_path, "m.json", {"assignment": {"3": "c1"}})
    code, reports = run(capsys, ["check", "--instance", inst, "--matching", matching,
                                 "--axioms", "respect_priorities"])
    assert code == 1
    w = reports[0]["witnesses"][0]
    assert (w["envier"], w["envied"], w["category"]) == ("2", "3", "c1")


def test_a_report_names_its_witnesses_from_one_table(tmp_path, capsys, monkeypatch):
    # agent 1 holds c1 below its empty slot, 2 and 3 outrank her there, and
    # c2's unit lies idle while 2 is eligible for it: three reports with four
    # witnesses. Each witness built its own table before, plus one to read
    # the matching.
    built = []
    names = cli.category_display_names
    monkeypatch.setattr(cli, "category_display_names",
                        lambda inst: built.append(inst) or names(inst))
    code, reports = run(capsys, with_files(tmp_path, [
        "check", "--instance", RUNNING_DOC, "--matching", {"assignment": {"1": "c1"}},
        "--axioms", "eligibility,respect_priorities,nonwasteful"]))
    with_witnesses = [r for r in reports if r["witnesses"]]
    assert code == 1 and len(with_witnesses) == 3
    assert sum(len(r["witnesses"]) for r in reports) == 4
    assert reports[1]["witnesses"][0] == {"envier": "2", "envied": "1", "category": "c1"}
    assert len(built) <= len(with_witnesses) + 1
    # allocate builds one table for the assignment and the utilization
    built.clear()
    code, doc = run(capsys, ["allocate", "--rule", "rr", "--instance",
                             write(tmp_path, "i.json", RUNNING_DOC)])
    assert code == 0 and doc["utilization"]["c1"] == {"used": 1, "quota": 1}
    assert len(built) == 1


@pytest.mark.parametrize("rule, name", [("srr", "srr"), ("soft", "soft_reserves")])
def test_split_rules_run_the_module_global_they_name(tmp_path, capsys, monkeypatch,
                                                      rule, name):
    # a wrapper rebound onto axioms' global (a tracer's) sees every call
    calls = []
    fn = getattr(axioms, name)
    monkeypatch.setattr(axioms, name, lambda inst: calls.append(inst) or fn(inst))
    code, doc = run(capsys, ["allocate", "--rule", rule, "--split", "0,1", "--instance",
                             write(tmp_path, "i.json", RESERVE_DOC)])
    assert code == 0 and doc["assignment"] == {"1": "c", "2": "c_u"}
    assert len(calls) == 1


def test_check_rule_output_all_axioms(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    code, reports = run(capsys, ["check", "--instance", inst, "--rule", "srr",
                                 "--split", "0,1", "--manipulation-budget", "2"])
    assert code == 0
    names = {r["axiom"] for r in reports}
    assert "strategyproofness" in names and "order_preservation" in names
    assert all(r["holds"] for r in reports)


def test_check_runs_the_rule_once_per_manipulation_for_both_harnesses(
        tmp_path, capsys, monkeypatch, scan):
    calls = []
    rule = axioms.HARNESS_RULES["rr"]
    monkeypatch.setitem(axioms.HARNESS_RULES, "rr",
                        lambda inst: calls.append(inst) or rule(inst))
    code, reports = run(capsys, ["check", "--rule", "rr", "--instance",
                                 write(tmp_path, "i.json", SCAN_DOC),
                                 "--axioms", "strategyproofness,weak_nonbossiness"])
    base, _ = rr(scan)
    decreases = sum(len(list(enumerate_priority_decreases(scan, i, 8)))
                    for i in range(scan.n) if not base.is_matched(i))
    assert code == 0 and decreases > 1
    # the unmanipulated outcome is rr's own, run once by the CLI
    assert len(calls) == decreases
    alone = [check("rr", scan, budget=8)
             for check in (axioms.check_strategyproofness, axioms.check_weak_nonbossiness)]
    assert reports == [report_doc(scan, r) for r in alone]


def test_verify_runs_rr_once_plus_once_per_manipulation(capsys, monkeypatch):
    calls = []
    rule = axioms.HARNESS_RULES["rr"]
    monkeypatch.setitem(axioms.HARNESS_RULES, "rr",
                        lambda inst: calls.append(inst) or rule(inst))
    assert main(["verify", "--count", "1", "--max-agents", "6", "--categories", "2",
                 "--unreserved", "1", "--seed", "4"]) == 0
    inst = random_instance(6, 2, unreserved=1, seed=4)
    base, _ = rr(inst)
    decreases = sum(len(list(enumerate_priority_decreases(inst, i, 4)))
                    for i in range(inst.n) if not base.is_matched(i))
    assert decreases > 1
    assert len(calls) == 1 + decreases


MATCHING_NAMES = ["eligibility", "respect_priorities", "nonwasteful", "max_size",
                  "max_beneficiary", "order_preservation"]
HARNESS_NAMES = ["strategyproofness", "weak_nonbossiness"]
UNRESERVED_ONLY_DOC = {"agents": ["1"], "baseline": ["1"],
                       "categories": [{"name": "u", "quota": 1, "kind": "unreserved"}]}


@pytest.mark.parametrize("doc,flags,expected", [
    (RESERVE_DOC, ["--matching", {"assignment": {"1": "c", "2": "c_u"}}], MATCHING_NAMES),
    (RUNNING_DOC, ["--matching", {"assignment": {"2": "c2", "3": "c1"}}], MATCHING_NAMES[:5]),
    (UNRESERVED_ONLY_DOC, ["--matching", {"assignment": {"1": "u"}}],
     MATCHING_NAMES[:4] + MATCHING_NAMES[5:]),
    (RESERVE_DOC, ["--rule", "rr"], MATCHING_NAMES + HARNESS_NAMES),
    (RESERVE_DOC, ["--rule", "srr", "--split", "0,1"], MATCHING_NAMES + HARNESS_NAMES),
    (RESERVE_DOC, ["--rule", "soft", "--split", "0,1"], MATCHING_NAMES + HARNESS_NAMES),
    (RESERVE_DOC, ["--rule", "mg"], MATCHING_NAMES),
    (RESERVE_DOC, ["--rule", "oaa"], MATCHING_NAMES),
    (RUNNING_DOC, ["--rule", "da", "--prefs", {"prefs": {"2": ["c1", "c2"], "3": ["c1"]}}],
     MATCHING_NAMES[:5]),
])
def test_check_all_reports_exact_axiom_names(tmp_path, capsys, doc, flags, expected):
    # "all" drops max_beneficiary without a preferential category and
    # order_preservation without the unreserved pair, and adds the harnesses
    # for the rules they can re-run
    code, reports = run(capsys, with_files(tmp_path, [
        "check", "--instance", doc, "--manipulation-budget", "2", *flags]))
    assert code in (0, 1)
    assert [r["axiom"] for r in reports] == expected


def test_harness_error_names_cli_rules(tmp_path, capsys):
    assert main(["gen", "--agents", "4", "--categories", "1", "--seed", "3",
                 "--unreserved", "2", "--out", str(tmp_path / "i.json")]) == 0
    err = input_error(capsys, ["check", "--instance", str(tmp_path / "i.json"),
                               "--rule", "mg", "--axioms", "strategyproofness"])
    assert "'soft'" in err and "soft_reserves" not in err and "'mg'" in err


def test_soft_harnesses_skip_unavailable_reports(tmp_path, capsys):
    inst = str(tmp_path / "i.json")
    assert main(["gen", "--agents", "5", "--categories", "2", "--seed", "7",
                 "--unreserved", "1", "--out", inst]) == 0
    code, reports = run(capsys, ["check", "--rule", "soft", "--instance", inst,
                                 "--split", "0,1", "--axioms",
                                 "strategyproofness,weak_nonbossiness"])
    assert code == 0
    assert [r["axiom"] for r in reports] == HARNESS_NAMES
    assert all("2 manipulated instances outside the rule's domain skipped" in r["note"]
               for r in reports)


def test_check_da_max_size_gap(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    prefs = write(tmp_path, "p.json", {"prefs": {"2": ["c1", "c2"], "3": ["c1"]}})
    code, reports = run(capsys, ["check", "--instance", inst, "--rule", "da",
                                 "--prefs", prefs, "--axioms", "max_size"])
    assert code == 1
    w = reports[0]["witnesses"][0]
    assert (w["found"], w["optimum"]) == (1, 2)


def test_check_all_reports_ineligible_pair_instead_of_max_size(tmp_path, capsys):
    # max_size is defined only for compliant matchings, so "all" skips it and
    # the eligibility witness decides the exit code
    assert main(["gen", "--agents", "4", "--categories", "1", "--seed", "2",
                 "--unreserved", "2", "--out", str(tmp_path / "i.json")]) == 0
    matching = write(tmp_path, "m.json", {"assignment": {"a3": "c0"}})
    code, reports = run(capsys, ["check", "--instance", str(tmp_path / "i.json"),
                                 "--matching", matching])
    assert code == 1
    by_axiom = {r["axiom"]: r for r in reports}
    assert "max_size" not in by_axiom
    assert by_axiom["eligibility"]["witnesses"] == [{"agent": "a3", "category": "c0"}]


@pytest.mark.parametrize("axiom_list", ["eligibility,max_size", "max_size"])
def test_check_max_size_on_ineligible_matching_reports_eligibility_once(
        tmp_path, capsys, axiom_list):
    # whatever the axiom list, max_size is not evaluated on an ineligible
    # matching: the eligibility witness is reported once and decides the exit
    assert main(["gen", "--agents", "4", "--categories", "1", "--seed", "2",
                 "--unreserved", "2", "--out", str(tmp_path / "i.json")]) == 0
    matching = write(tmp_path, "m.json", {"assignment": {"a3": "c0"}})
    code, reports = run(capsys, ["check", "--instance", str(tmp_path / "i.json"),
                                 "--matching", matching, "--axioms", axiom_list])
    assert code == 1
    assert [r["axiom"] for r in reports] == ["eligibility"]
    assert reports[0]["witnesses"] == [{"agent": "a3", "category": "c0"}]


CHAIN_M = 3000  # columns on one augmenting path, three times the default recursion limit


@pytest.mark.parametrize("tail", [False, True], ids=["chain_b", "chain_f"])
def test_rr_on_a_chain_longer_than_the_recursion_limit(tmp_path, capsys, tail):
    # chain B: the scan re-seats x from c{m-1} back to c0; chain F: the
    # initial solve seats x from c0 to c{m}
    doc = chain_doc(CHAIN_M, tail)
    code, out = run(capsys, ["allocate", "--rule", "rr", "--instance",
                             write(tmp_path, "i.json", doc)])
    assert code == 0
    assert out["size"] == reference_size(make_instance(doc))
    assert len(out["trace"]) == CHAIN_M + 1


def test_srr_on_a_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    doc = chain_doc(CHAIN_M, False, unreserved=2)
    code, out = run(capsys, ["allocate", "--rule", "srr", "--instance",
                             write(tmp_path, "i.json", doc)])
    assert code == 0
    assert out["size"] == reference_size(make_instance(doc))


def test_check_short_matching_on_a_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    # one pair short of x -> c0, a{i} -> c{i+1}: the preferential optimum
    # comes from an engine whose initial solve seats x along the whole chain
    short = {"assignment": {f"a{i}": f"c{i + 1}" for i in range(CHAIN_M)}}
    code = main(["check", "--instance", write(tmp_path, "i.json", chain_doc(CHAIN_M, True)),
                 "--matching", write(tmp_path, "m.json", short), "--axioms", "max_size"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == [{
        "axiom": "max_size", "holds": False, "witnesses_total": 1,
        "witnesses": [{"found": CHAIN_M, "optimum": CHAIN_M + 1}]}]
    assert captured.err.count("\n") <= 1 and "Traceback" not in captured.err


def test_exit_codes(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    bad = write(tmp_path, "bad.json", {"agents": ["a"], "baseline": ["a", "a"],
                                       "categories": []})
    running = write(tmp_path, "r.json", RUNNING_DOC)
    assert main(["allocate", "--rule", "nope", "--instance", inst]) == 2
    capsys.readouterr()
    assert main(["allocate", "--rule", "srr", "--instance", inst]) == 3  # no split anywhere
    capsys.readouterr()
    assert main(["allocate", "--rule", "mg", "--instance", running]) == 3  # preconditions
    capsys.readouterr()
    assert main(["allocate", "--rule", "rr", "--instance", bad]) == 2
    capsys.readouterr()
    assert main(["allocate", "--rule", "da", "--instance", inst]) == 3  # prefs missing
    capsys.readouterr()


def input_error(capsys, argv):
    """Run argv and assert it fails as an input error: exit 2 with one line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["allocate", "--rule", "rr"],                                   # missing --instance
    ["check", "--instance", "i.json", "--manipulation-budget", "x"],  # bad int
    ["allocate", "--rule", "srr", "--instance", "i.json", "--split", "-1,3"],
    ["nope"],                                                       # unknown subcommand
    [],
])
def test_usage_errors_are_one_line(capsys, argv):
    input_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    [], ["nosuch"], ["--format", "json", "allocate"], ["allocate"], ["allocate", "--bogus"],
    ["allocate", "--rule", "rr", "--instance", "i.json", "extra"],
    ["allocate", "--", "--rule", "rr"], ["check", "--instance", "i.json", "--axioms"],
    ["check", "--instance", "i.json", "--manipulation-budget", "x"],
    ["gen", "--agents", "1"], ["gen", "--agents", "1", "--categories", "1", "--seed", "1.5"],
    ["verify", "--count", "1", "--out", "x.txt"], ["verify", "--count"],
])
def test_a_command_parser_reports_what_the_top_parser_reports(capsys, argv):
    # main parses a command's options with its own parser alone; the top
    # parser, which also parses the command's name, raises the same message
    with pytest.raises(ParseError) as top:
        build_parser().parse_args(argv)
    assert input_error(capsys, argv) == f"error: {top.value}\n"


def test_main_parses_a_command_line_once(tmp_path, capsys, monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a: calls.append(self.prog) or parse(self, *a))
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    assert main(["allocate", "--rule", "rr", "--instance", inst]) == 0
    assert calls == ["reserves allocate"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as done:
        main(["allocate", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: reserves allocate ")


def test_a_wide_check_finds_the_unreserved_pair_once_per_instance(tmp_path, capsys,
                                                                   monkeypatch):
    # each read of the pair's ids scanned all 20,000 categories: 41 scans here
    calls = Counter()
    find = Instance._unreserved_id
    monkeypatch.setattr(Instance, "_unreserved_id",
                        lambda self, kind: calls.update([id(self)]) or find(self, kind))
    doc = random_instance_document(2000, 20000, max_quota=1, eligibility_density=0.001,
                                   seed=7, unreserved=3)
    code, reports = run(capsys, with_files(tmp_path, [
        "check", "--matching", {}, "--split", "1,2", "--instance", doc]))
    assert code == 1 and {r["axiom"] for r in reports} >= {"max_size", "order_preservation"}
    assert len(calls) == 2 and max(calls.values()) <= 2, calls


@pytest.mark.parametrize("argv", [
    ["allocate", "--rule", "srr"],
    ["allocate", "--rule", "soft"],
    ["check", "--rule", "srr"],
    ["check", "--rule", "soft"],
    ["check", "--matching", {"assignment": {"1": "c"}}],
])
def test_split_that_does_not_partition_the_quota_is_an_input_error(tmp_path, capsys, argv):
    assert "does not partition" in input_error(capsys, with_files(
        tmp_path, [*argv, "--instance", RESERVE_DOC, "--split", "5,5"]))


def test_split_without_unreserved_pair_stays_a_precondition_error(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    assert main(["allocate", "--rule", "srr", "--instance", inst, "--split", "0,0"]) == 3
    assert "unreserved category pair" in capsys.readouterr().err


def test_matching_split_without_unreserved_pair_is_an_input_error(tmp_path, capsys):
    assert "no unreserved category" in input_error(capsys, with_files(tmp_path, [
        "check", "--instance", RUNNING_DOC, "--matching", {}, "--split", "1,1"]))


@pytest.mark.parametrize("assignment, message", [
    ({"zz": "c1"}, "unknown agent 'zz' in matching"),
    ({"2": "c9"}, "unknown category 'c9' in matching"),
    ({"2": 0}, "unknown category 0 in matching"),
    ({"2": ["c1"]}, "unknown category ['c1'] in matching"),
    # the first bad pair is named, after a good one
    ({"2": "c1", "3": "c9", "zz": "c2"}, "unknown category 'c9' in matching"),
    ({"2": "c1", "zz": "c2", "3": "c9"}, "unknown agent 'zz' in matching"),
    ({"2": "c1", "3": "c1"}, "category 'c1' over quota: 2 > 1"),
])
def test_matching_document_names_the_first_defect(tmp_path, capsys, assignment, message):
    assert input_error(capsys, with_files(tmp_path, [
        "check", "--instance", RUNNING_DOC, "--matching", {"assignment": assignment}])) == \
        f"error: {message}\n"


def defective(first_category=(), **changes):
    """RESERVE_DOC with the given keys of its first category and the given
    top-level keys replaced."""
    doc = json.loads(json.dumps(RESERVE_DOC))
    doc["categories"][0].update(first_category)
    doc.update(changes)
    return doc


def allocate_argv(doc, *flags, rule="rr"):
    return ["allocate", "--rule", rule, "--instance", doc, *flags]


def check_argv(*flags):
    return ["check", "--instance", RESERVE_DOC, *flags]


@pytest.mark.parametrize("argv, code, line", [
    # instance documents with one defect each, found by model.py
    (allocate_argv({"agents": ["a", "a"], "baseline": ["a", "a"], "categories": []}), 2,
     "error: duplicate agent names"),
    (allocate_argv(defective({"quota": -1})), 2,
     "error: negative quota for category 'c'"),
    (allocate_argv([]), 2, "error: instance document must be a JSON object"),
    (allocate_argv(defective(agents=["1", "2", "3", ""])), 2,
     "error: agent names must be non-empty strings"),
    (allocate_argv(defective(categories=[1])), 2, "error: each category must be a JSON object"),
    (allocate_argv(defective(categories=[RESERVE_DOC["categories"][1],
                                         {"name": "v", "quota": 1, "kind": "unreserved"}])), 2,
     "error: more than one unreserved category"),
    (allocate_argv(defective(unreserved_split=[0, 1])), 2,
     "error: unreserved_split must be an object"),
    (allocate_argv(defective(unreserved_split={"first": 1, "last": 1})), 2,
     "error: unreserved_split (1, 1) must partition quota 1"),
    (allocate_argv(defective({"kind": "vip"})), 2, "error: unknown category kind 'vip'"),
    (allocate_argv(dict(RUNNING_DOC, unreserved_split={"first": 0, "last": 0})), 2,
     "error: unreserved_split given but no unreserved category"),
    # command lines and the documents they name, checked by cli.py
    (allocate_argv("MISSING"), 2, "error: cannot read "),
    (allocate_argv(RESERVE_DOC, "--split", "1", rule="srr"), 2,
     "error: --split must be 'q1,q2', got '1'"),
    (check_argv("--matching", []), 2,
     "error: matching document must be an object with an 'assignment' map"),
    (allocate_argv(RESERVE_DOC, "--prefs", [], rule="da"), 2,
     "error: preferences document must be an object with a 'prefs' map"),
    (allocate_argv(RESERVE_DOC, "--prefs", {"prefs": {"zz": []}}, rule="da"), 2,
     "error: unknown agent 'zz' in preferences"),
    (check_argv("--matching", {}, "--axioms", "strategyproofness"), 2,
     "error: axiom 'strategyproofness' needs --rule, not a fixed matching"),
    (check_argv(), 2, "error: give exactly one of --matching or --rule"),
    (check_argv("--rule", "rr", "--axioms", "zz"), 2, "error: unknown axiom 'zz'"),
    (allocate_argv(RESERVE_DOC, "--prefs", {"prefs": {"1": ["c", "c"]}}, rule="da"), 3,
     "precondition error: agent '1' lists a category twice"),
], ids=["duplicate_agents", "negative_quota", "not_an_object", "empty_agent_name",
        "category_not_an_object", "two_unreserved", "split_not_an_object",
        "split_not_a_partition", "unknown_kind", "split_without_unreserved",
        "unreadable_instance", "split_flag_one_number", "matching_not_an_object",
        "prefs_not_an_object", "prefs_unknown_agent", "harness_axiom_on_a_matching",
        "neither_matching_nor_rule", "unknown_axiom", "da_category_twice"])
def test_each_input_defect_exits_with_its_one_line(tmp_path, capsys, argv, code, line):
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a
            for a in with_files(tmp_path, argv)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [err] = captured.err.splitlines()
    if argv[-1].endswith("missing.json"):  # the OS's reason follows the path
        assert err.startswith(line + argv[-1] + ": ")
    else:
        assert err == line


@pytest.mark.parametrize("rule", ["rr", "mg", "oaa", "da"])
def test_split_flag_is_an_input_error_for_other_rules(tmp_path, capsys, rule):
    # mg and oaa fix their own split; rr and da have none
    for command in ("allocate", "check"):
        for split in ("1,0", "garbage"):
            err = input_error(capsys, with_files(tmp_path, [
                command, "--rule", rule, "--instance", RESERVE_DOC, "--split", split,
                "--prefs", {"prefs": {}}]))
            assert err == f"error: --split applies to srr and soft, not {rule!r}\n"


@pytest.mark.parametrize("argv", [
    *([command, "--rule", rule] for command in ("allocate", "check")
      for rule in ("rr", "srr", "mg", "oaa", "soft")),
    ["check", "--matching", {}],
])
def test_prefs_flag_is_an_input_error_except_for_da(tmp_path, capsys, argv):
    err = input_error(capsys, with_files(tmp_path, [
        *argv, "--instance", RESERVE_DOC, "--prefs", str(tmp_path / "missing.json")]))
    assert err.startswith("error: --prefs applies to da, not ")


@pytest.mark.parametrize("argv", [
    ["allocate", "--rule", "rr", "--instance", "DEEP"],
    ["check", "--instance", RUNNING_DOC, "--matching", "DEEP"],
    ["allocate", "--rule", "da", "--instance", RUNNING_DOC, "--prefs", "DEEP"],
])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    input_error(capsys, [str(deep) if a == "DEEP" else a for a in with_files(tmp_path, argv)])


def test_booleans_are_not_counts(tmp_path, capsys):
    for cat, split in (({"quota": True}, None), ({"cutoff": True}, None),
                       ({}, {"first": True, "last": 0}), ({}, {"first": 0, "last": False})):
        doc = json.loads(json.dumps(RESERVE_DOC))
        doc["categories"][0].update(cat)
        doc["categories"][1]["quota"] = 1
        if split is not None:
            doc["unreserved_split"] = split
        inst = write(tmp_path, "i.json", doc)
        assert "wrong type bool" in input_error(
            capsys, ["allocate", "--rule", "rr", "--instance", inst])


def test_non_utf8_prefs_file(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    prefs = tmp_path / "p.json"
    prefs.write_bytes(b'{"prefs": {"1": ["\xff"]}}')
    assert "not UTF-8" in input_error(
        capsys, ["allocate", "--rule", "da", "--instance", inst, "--prefs", str(prefs)])


def test_malformed_prefs_file_is_named(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    prefs = tmp_path / "p.json"
    prefs.write_text("{")
    assert input_error(capsys, [
        "allocate", "--rule", "da", "--instance", inst, "--prefs", str(prefs)
    ]).startswith("error: invalid preferences JSON: ")


def test_category_list_must_be_an_array(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    for cats in ("c", "cc"):
        prefs = write(tmp_path, "p.json", {"prefs": {"1": cats}})
        assert "must be a JSON array" in input_error(
            capsys, ["allocate", "--rule", "da", "--instance", inst, "--prefs", prefs])


def test_tier_must_be_an_array(tmp_path, capsys):
    doc = json.loads(json.dumps(RESERVE_DOC))
    doc["categories"][0]["tiers"] = ["1", "4"]
    inst = write(tmp_path, "i.json", doc)
    assert "must be a JSON array" in input_error(
        capsys, ["allocate", "--rule", "rr", "--instance", inst])


def test_category_names_are_unique(tmp_path, capsys):
    for clash in ("c", "c_u"):  # a second preferential c; a preferential named as c_u
        doc = json.loads(json.dumps(RESERVE_DOC))
        doc["categories"].append({"name": clash, "quota": 1, "kind": "preferential",
                                  "tiers": [["2"]], "cutoff": 1})
        inst = write(tmp_path, "i.json", doc)
        assert f"duplicate category name {clash!r}" in input_error(
            capsys, ["allocate", "--rule", "rr", "--instance", inst])


def test_duplicate_category_name_at_the_end_of_a_wide_document(tmp_path, capsys):
    # each name is looked up among the earlier ones in a set: comparing it
    # with every earlier name made parsing quadratic in the categories
    doc = chain_doc(6000, False)
    doc["categories"].append({"name": "c0", "quota": 1, "kind": "preferential",
                              "tiers": [["x"]], "cutoff": 1})
    inst = write(tmp_path, "i.json", doc)
    assert input_error(capsys, ["allocate", "--rule", "rr", "--instance", inst]) == (
        "error: duplicate category name 'c0'\n")


def test_category_names_may_not_end_like_an_unreserved_pool(tmp_path, capsys):
    # with split (1, 1) the pools print as u[first] and u[last], so a category
    # named so would share their display name in outputs and matchings
    for name in ("u[first]", "u[last]"):
        doc = {"agents": ["1", "2", "3"], "baseline": ["1", "2", "3"],
               "categories": [{"name": name, "quota": 1, "kind": "preferential",
                               "tiers": [["3"]], "cutoff": 1},
                              {"name": "u", "quota": 2, "kind": "unreserved"}],
               "unreserved_split": {"first": 1, "last": 1}}
        inst = write(tmp_path, "i.json", doc)
        assert "may not end in [first] or [last]" in input_error(
            capsys, ["allocate", "--rule", "srr", "--instance", inst])


def test_unwritable_out_path(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    out = str(tmp_path / "missing" / "x.json")
    assert "cannot write" in input_error(
        capsys, ["allocate", "--rule", "rr", "--instance", inst, "--out", out])


def test_empty_out_path_is_an_input_error(tmp_path, capsys):
    # an unset shell variable must not send the document to stdout
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    code = main(["allocate", "--rule", "rr", "--instance", inst, "--out", ""])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write : ")


GEN_ARGV = ["gen", "--agents", "30", "--categories", "3", "--seed", "5"]


def stdout_bytes(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("extra", [100_000, -100], ids=["longer", "shorter"])
def test_out_replaces_an_existing_file_in_place(tmp_path, capsys, extra):
    expected = stdout_bytes(capsys, GEN_ARGV)
    target = tmp_path / "out.json"
    target.write_bytes(b"x" * (len(expected) + extra))
    target.chmod(0o600)
    before = target.stat()
    assert main([*GEN_ARGV, "--out", str(target)]) == 0
    after = target.stat()
    assert target.read_bytes() == expected
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_out_through_a_symlink_reaches_every_hard_link(tmp_path, capsys):
    expected = stdout_bytes(capsys, GEN_ARGV)
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 1000)
    symlink, hard_link = tmp_path / "symlink.json", tmp_path / "hard.json"
    symlink.symlink_to(target)
    os.link(target, hard_link)
    assert main([*GEN_ARGV, "--out", str(symlink)]) == 0
    assert symlink.is_symlink()
    assert target.read_bytes() == hard_link.read_bytes() == expected


def test_out_to_dev_null(capsys):
    # a character device: written, never truncated
    assert main([*GEN_ARGV, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_closed_stdout_exits_2_with_one_line(tmp_path):
    # the reader is gone before the first write: a short output fails in
    # main's flush, a long one in the write itself
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    env = dict(os.environ, PYTHONPATH=str(Path(reserves.__file__).parents[1]))
    for argv in (["allocate", "--rule", "rr", "--instance", inst],
                 ["gen", "--agents", "2000", "--categories", "5"]):
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run([sys.executable, "-m", "reserves.cli", *argv], stdout=writer,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(writer)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr


def test_verify_rejects_negative_count(capsys):
    assert "--count" in input_error(capsys, ["verify", "--count", "-3"])


def test_verify_takes_no_output_options(tmp_path, capsys):
    # verify prints its summary to stdout: --format and --out are usage errors
    target = tmp_path / "verify.txt"
    for flags in (["--out", str(target)], ["--format", "table"]):
        assert "unrecognized arguments" in input_error(
            capsys, ["verify", "--count", "1", "--max-agents", "3", *flags])
    assert not target.exists()
    commands = build_parser()._subparsers._group_actions[0].choices
    options = {name: {s for a in commands[name]._actions for s in a.option_strings
                      if s not in ("-h", "--help")} for name in ("gen", "verify")}
    shared = {"--max-quota", "--eligibility-density", "--tie-prob", "--seed", "--unreserved"}
    assert options["verify"] == shared | {"--count", "--max-agents", "--categories",
                                          "--manipulation-budget"}
    assert options["gen"] == shared | {"--agents", "--categories", "--format", "--out"}


def test_check_rejects_empty_axiom_list(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    for axioms in (",", " , "):
        assert "no axiom" in input_error(
            capsys, ["check", "--instance", inst, "--rule", "rr", "--axioms", axioms])


def test_negative_manipulation_budget(tmp_path, capsys):
    # everyone is matched, so the harnesses never enumerate a manipulation
    inst = write(tmp_path, "i.json", {
        "agents": ["1"], "baseline": ["1"],
        "categories": [{"name": "c", "quota": 1, "kind": "preferential",
                        "tiers": [["1"]], "cutoff": 1}]})
    for argv in (["check", "--instance", inst, "--rule", "rr"], ["verify", "--count", "0"]):
        assert "--manipulation-budget" in input_error(
            capsys, argv + ["--manipulation-budget", "-1"])


def test_allocate_srr_uses_declared_split(tmp_path, capsys):
    inst = write(tmp_path, "i.json", EARLY_POOL_DOC)
    code, doc = run(capsys, ["allocate", "--rule", "srr", "--instance", inst])
    assert code == 0
    assert doc["assignment"] == {"1": "c_u", "3": "c1", "2": "c2"}


def test_gen_is_deterministic_and_respects_density(tmp_path, capsys):
    args = ["gen", "--agents", "4", "--categories", "2", "--seed", "11"]
    _, a = run(capsys, args)
    _, b = run(capsys, args)
    assert a == b
    _, empty = run(capsys, args + ["--eligibility-density", "0"])
    assert all(c["tiers"] == [] for c in empty["categories"])
    _, full = run(capsys, args + ["--eligibility-density", "1", "--tie-prob", "0"])
    for c in full["categories"]:
        assert sorted(t[0] for t in c["tiers"]) == sorted(empty["agents"])
        assert all(len(t) == 1 for t in c["tiers"])


def test_gen_rejects_bad_probability(capsys):
    assert main(["gen", "--agents", "2", "--categories", "1",
                 "--eligibility-density", "1.5"]) == 2
    capsys.readouterr()


def test_verify_zero_and_small_run(capsys):
    assert main(["verify", "--count", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 passed" in out or "verified 0" in out
    assert main(["verify", "--count", "8", "--max-agents", "4", "--seed", "5",
                 "--unreserved", "1", "--manipulation-budget", "2"]) == 0
    assert "8 passed" in capsys.readouterr().out


def test_verify_reports_failures_and_first_discrepancy(capsys, monkeypatch):
    failing = axioms.AxiomReport("nonwasteful", False, (axioms.WasteWitness(0, 0),), 1)
    monkeypatch.setattr(axioms, "check_nonwasteful", lambda inst, m: failing)
    assert main(["verify", "--count", "2", "--max-agents", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("verified 2 instances: 0 passed, 2 failed, "
                        "0 skipped characterization (bound)")
    assert lines[1] == ("first discrepancy at instance 0: rr violates nonwasteful: "
                        "(WasteWitness(agent=0, category=0),)")


def test_verify_counts_failures_per_rule_and_axiom(capsys, monkeypatch):
    # an srr that matches nobody breaks max_beneficiary alone, and only on
    # instances where some agent can take a preferential unit
    monkeypatch.setitem(axioms.HARNESS_RULES, "srr", lambda inst: Matching({}))
    assert main(["verify", "--count", "4", "--max-agents", "4", "--seed", "2",
                 "--unreserved", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "verified 4 instances: 0 passed, 4 failed, 0 skipped characterization (bound)",
        "first discrepancy at instance 0: srr violates max_beneficiary: "
        "(SizeGapWitness(found=0, optimum=3),)",
        "srr max_beneficiary: 4 failed, first at instance 0: "
        "(SizeGapWitness(found=0, optimum=3),)",
    ]
    # rr's nonwasteful checker failing too gets a line of its own, in the
    # order the failures were first seen
    failing = axioms.AxiomReport("nonwasteful", False, (axioms.WasteWitness(0, 0),), 1)
    monkeypatch.setattr(axioms, "check_nonwasteful", lambda inst, m: failing)
    assert main(["verify", "--count", "4", "--max-agents", "4", "--seed", "2",
                 "--unreserved", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "first discrepancy at instance 0: rr violates nonwasteful: "
        "(WasteWitness(agent=0, category=0),)",
        "rr nonwasteful: 4 failed, first at instance 0: (WasteWitness(agent=0, category=0),)",
        "srr max_beneficiary: 4 failed, first at instance 0: "
        "(SizeGapWitness(found=0, optimum=3),)",
    ]
    # a characterization mismatch counts against rr
    mismatch = oracle.CharacterizationReport(False, (((0, 0),),), ())
    monkeypatch.setattr(oracle, "verify_characterization", lambda inst: mismatch)
    assert main(["verify", "--count", "2", "--max-agents", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "first discrepancy at instance 0: characterization mismatch: "
        "rule-only=(((0, 0),),) axiom-only=()",
        "rr characterization: 2 failed, first at instance 0: rule-only=(((0, 0),),) axiom-only=()",
        "rr nonwasteful: 2 failed, first at instance 0: (WasteWitness(agent=0, category=0),)",
    ]


def test_table_format_carries_same_fields(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    code, text = run(capsys, ["allocate", "--rule", "rr", "--instance", inst,
                              "--format", "table"])
    assert code == 0
    for token in ("assignment", "c2", "utilization", "rejected"):
        assert token in text


def test_table_format_of_rr_is_pinned(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    assert main(["allocate", "--rule", "rr", "--instance", inst, "--format", "table"]) == 0
    assert capsys.readouterr().out == """\
rule: rr
assignment:
  2: c2
  3: c1
size: 2
utilization:
  c1:
    used: 1
    quota: 1
  c2:
    used: 1
    quota: 1
ms_total: 2
rejected:
  - 1
trace:
    agent: 3
    rejected: False
    ms_tested: 1

    agent: 2
    rejected: False
    ms_tested: 0

    agent: 1
    rejected: True
    ms_tested: 2
"""


def test_table_format_of_rr_pinned_on_a_seeded_corpus(tmp_path, capsys):
    # 0-16 agents (no trace at all at 0), strict rankings in half of the
    # documents and ties in the other half, 0-3 unreserved units. The
    # digest was taken when the trace was rendered from one dict per agent.
    h = hashlib.sha256()
    path = tmp_path / "i.json"
    for seed in range(120):
        doc = random_instance_document(seed % 17, 1 + seed % 4, max_quota=1 + seed % 3,
                                       tie_prob=(0.0, 0.5)[seed % 2], seed=seed,
                                       unreserved=seed % 4)
        path.write_text(json.dumps(doc))
        assert main(["allocate", "--rule", "rr", "--instance", str(path),
                     "--format", "table"]) == 0
        h.update(capsys.readouterr().out.encode() + b"\0")
    assert h.hexdigest() == "740bc54b8ef359118935ea18f43888ce5ab84689dd8c7a1dc442c653969c69d6"


# each character str.splitlines breaks at, the other C0 controls, DEL, and
# the backslash, which the table writes escaped
TABLE_ESCAPED = [*map(chr, range(0x20)), "\x7f", "\x85", "\u2028", "\u2029", "\\"]


def test_table_escapes_names_that_would_forge_lines(tmp_path, capsys):
    names = ["a", "b\n    ms_tested: 9"] + [f"x{k}{ch}    ms_tested: 9"
                                           for k, ch in enumerate(TABLE_ESCAPED)]
    doc = {"agents": names, "baseline": names,
           "categories": [{"name": "c\n  size: 99", "quota": 1, "kind": "preferential",
                           "tiers": [names], "cutoff": 1}]}
    inst = write(tmp_path, "i.json", doc)
    assert main(["allocate", "--rule", "rr", "--instance", inst, "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.lstrip().startswith("ms_tested:") for line in lines) == len(names)
    assert sum(line.lstrip().startswith("size:") for line in lines) == 1
    # the escapes are JSON's, so the trace's agent lines decode back to the names
    shown = [line.split("agent: ", 1)[1] for line in lines if line.startswith("    agent: ")]
    assert sorted(s.encode("ascii").decode("unicode_escape") for s in shown) == sorted(names)
    assert "  c\\n  size: 99:" in lines and "  - b\\n    ms_tested: 9" in lines


def test_out_flag_writes_file(tmp_path, capsys):
    inst = write(tmp_path, "i.json", RUNNING_DOC)
    target = tmp_path / "result.json"
    assert main(["allocate", "--rule", "rr", "--instance", inst,
                 "--out", str(target)]) == 0
    assert json.loads(target.read_text())["assignment"] == {"2": "c2", "3": "c1"}


def test_successive_calls_in_one_process_match_separate_processes(tmp_path, capsys):
    # main builds its parser once per process: no flag may carry over from
    # one call to the next
    inst = write(tmp_path, "i.json", RESERVE_DOC)
    calls = [
        ["allocate", "--rule", "rr", "--instance", inst, "--out", "{dir}/rr.json"],
        ["allocate", "--rule", "srr", "--instance", inst, "--split", "1,0"],
        ["check", "--instance", inst, "--matching", "{dir}/rr.json", "--format", "table"],
        ["check", "--rule", "srr", "--instance", inst, "--split", "0,1",
         "--axioms", "max_size,order_preservation", "--out", "{dir}/check.json"],
        ["allocate", "--rule", "srr", "--instance", inst],  # no split: exit 3
        ["check", "--rule", "rr", "--instance", inst],
        ["gen", "--agents", "3", "--categories", "1", "--seed", "4"],
        ["verify", "--count", "2", "--max-agents", "4", "--seed", "3"],
        ["allocate", "--rule", "rr", "--instance", inst, "--split", "1,0"],  # exit 2
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(reserves.__file__).parents[1]))
    results = {}
    for side in ("in-process", "separate"):
        out_dir = tmp_path / side
        out_dir.mkdir()
        results[side] = []
        for argv in calls:
            argv = [a.replace("{dir}", str(out_dir)) for a in argv]
            if side == "in-process":
                code, stdout = main(argv), capsys.readouterr().out
            else:
                proc = subprocess.run([sys.executable, "-m", "reserves.cli", *argv],
                                      capture_output=True, text=True, env=env, timeout=60)
                code, stdout = proc.returncode, proc.stdout
            results[side].append((code, stdout))
        results[side].append(sorted((p.name, p.read_text()) for p in out_dir.iterdir()))
    assert results["in-process"] == results["separate"]
    assert [code for code, _ in results["separate"][:-1]] == [0, 0, 0, 0, 3, 0, 0, 0, 2]
