"""The CLI's JSON is ``json.dumps(doc, indent=2)`` output, character for
character, though ``cli._indented`` builds it with the C encoder."""

import json
import random

from hypothesis import example, given, settings, strategies as st

from conftest import classical_corpus_doc
from reserves.cli import _indented, main
from reserves.generator import random_instance_document

# strings that look like the item boundaries _indented rewrites
TRICKY = st.sampled_from(["},\n    {", "],\n  [", "}, {", '"', '\\"', "\n", "\t", "é", "名前",
                          "\U0001f600", "", "{", "]"])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | TRICKY
           | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
KEYS = st.text(max_size=6) | TRICKY | st.integers() | st.floats() | st.booleans() | st.none()
EMPTY = st.sampled_from([[], (), {}])


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(KEYS, children, max_size=4)
            # lists of flat dicts and of flat lists, the one-replace path
            | st.lists(st.dictionaries(KEYS, SCALARS, min_size=1, max_size=3), min_size=1,
                       max_size=4)
            | st.lists(st.lists(SCALARS, min_size=1, max_size=3), min_size=1, max_size=4)
            # and near misses, whose items hold an empty container
            | st.lists(st.dictionaries(st.text(max_size=2), SCALARS | EMPTY, min_size=1,
                                       max_size=3), min_size=1, max_size=4)
            | st.lists(st.lists(SCALARS | EMPTY, min_size=1, max_size=3), min_size=1,
                       max_size=4))


DOCUMENTS = st.recursive(SCALARS | EMPTY, containers, max_leaves=30)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(DOCUMENTS)
@example([[[], []]])
@example([[], []])
@example({"a": [{"b": "},\n    {"}, {"c": 1}], 2: [[1.5, None]]})
def test_indented_equals_json_dumps(doc):
    assert _indented(doc) == json.dumps(doc, indent=2)


# keys and strings that hold the text the dict-of-dicts path cuts at
CUT_TEXT = (st.text(max_size=4)
            | st.sampled_from(['"},\n  {"', "},\n  {", '",\n    "', "\n", "é", "名前", ""]))
FLAT_DICTS = st.dictionaries(CUT_TEXT | KEYS, SCALARS | CUT_TEXT, min_size=1, max_size=3)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.dictionaries(CUT_TEXT, FLAT_DICTS, min_size=1, max_size=5), CUT_TEXT)
@example({"c0": {"used": 3, "quota": 3}, "u[first]": {"used": 0, "quota": 1}}, "utilization")
def test_dicts_of_flat_dicts_equal_json_dumps(doc, key):
    """A dict of nonempty dicts of strict scalars, like ``utilization``, is
    one encoder call cut back into items; at top level and nested."""
    for obj in (doc, {key: doc}, {"size": 1, key: doc, "": [doc]}):
        assert _indented(obj) == json.dumps(obj, indent=2)


def _split_flag(doc: dict) -> list[str]:
    pools = [c["quota"] for c in doc["categories"] if c["kind"] == "unreserved"]
    if not pools or "unreserved_split" in doc:
        return []
    return ["--split", f"{pools[0] // 2},{pools[0] - pools[0] // 2}"]


def test_every_cli_document_is_json_dumps_indented(tmp_path, capsys):
    """allocate (all six rules), check (with failing reports and their
    witnesses) and gen, on seeded documents, to stdout and to --out."""
    outputs: dict[str, int] = {}
    failing_witnesses = 0

    def run(label, argv, out=None):
        nonlocal failing_witnesses
        code = main(argv + (["--out", str(out)] if out else []))
        text = out.read_text() if out else capsys.readouterr().out
        if code in (0, 1):
            assert text == json.dumps(json.loads(text), indent=2) + "\n", (label, argv)
            outputs[label] = outputs.get(label, 0) + 1
            if label.startswith("check"):
                failing_witnesses += sum(1 for r in json.loads(text)
                                         if not r["holds"] and r["witnesses"])
        capsys.readouterr()
        return code, text

    for seed in range(40):
        rng = random.Random(seed)
        # near the classical reserve setting (mg, oaa), and with every listed
        # agent eligible and ranked ineligible agents absent (da, soft)
        for doc in (classical_corpus_doc(seed),
                    random_instance_document(3 + seed % 10, 1 + seed % 3, tie_prob=0.4,
                                             seed=seed, unreserved=1 + seed % 3)):
            inst = tmp_path / "i.json"
            inst.write_text(json.dumps(doc))
            split = _split_flag(doc)
            prefs = {a: [c["name"] for c in doc["categories"] if c["kind"] == "unreserved"
                         or any(a in t for t in c["tiers"][:c["cutoff"]])]
                     for a in doc["agents"]}
            for cats in prefs.values():
                rng.shuffle(cats)
            prefs_path = tmp_path / "p.json"
            prefs_path.write_text(json.dumps({"prefs": prefs}))
            base = ["--instance", str(inst)]
            for rule in ("rr", "srr", "mg", "oaa", "da", "soft"):
                argv = ["allocate", "--rule", rule, *base]
                argv += split if rule in ("srr", "soft") else []
                argv += ["--prefs", str(prefs_path)] if rule == "da" else []
                code, text = run(f"allocate {rule}", argv)
                if code != 0 or rule not in ("rr", "srr"):
                    continue
                run(f"allocate {rule} --out", argv, tmp_path / "out.json")
                # check the matching, then the same matching one pair short
                assignment = json.loads(text)["assignment"]
                check = ["check", *base, *(split if rule == "srr" else [])]
                matching = tmp_path / "m.json"
                matching.write_text(json.dumps(assignment))
                run("check --matching", check + ["--matching", str(matching)])
                if assignment:
                    del assignment[rng.choice(sorted(assignment))]
                    matching.write_text(json.dumps(assignment))
                    run("check --matching, one pair short", check + ["--matching", str(matching)])
            run("check --rule", ["check", *base, "--rule", "rr", "--axioms", "all"])
        gen = ["gen", "--agents", str(seed % 9), "--categories", str(seed % 4),
               "--tie-prob", "0.5", "--seed", str(seed), "--unreserved", str(seed % 3)]
        run("gen", gen)
        run("gen --out", gen, tmp_path / "gen.json")

    assert min(outputs.values()) >= 30 and len(outputs) == 13, outputs
    assert failing_witnesses >= 100, failing_witnesses
