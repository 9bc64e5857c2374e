"""Command line surface: allocate, check, gen, verify.

Documents are JSON. Exit codes: 0 success / all axioms hold, 1 axiom
failure, 2 input error, 3 rule precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import axioms, oracle
from .generator import random_instance_document
from .model import (Instance, Matching, ParseError, ValidationError, decode_json,
                    instance_from_document, parse_document, validate_matching)
from .rules import (PreconditionError, deferred_acceptance, minimum_guarantees,
                    over_and_above, rr)

EXIT_OK = 0
EXIT_AXIOM_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

RULES = ("rr", "srr", "mg", "oaa", "da", "soft")
SPLIT_RULES = ("srr", "soft")  # the rules --split applies to
MATCHING_AXIOMS = ("eligibility", "respect_priorities", "nonwasteful", "max_size",
                   "max_beneficiary", "order_preservation")
HARNESS_AXIOMS = ("strategyproofness", "weak_nonbossiness")
# what verify checks of rr's output, and of srr's at split (0, q)
VERIFY_RR_AXIOMS = ("eligibility", "respect_priorities", "nonwasteful", "max_size",
                    *HARNESS_AXIOMS)
VERIFY_SRR_AXIOMS = ("eligibility", "respect_priorities", "max_beneficiary", "order_preservation")


# ---------------------------------------------------------------------------
# names and documents
# ---------------------------------------------------------------------------

def category_display_names(inst: Instance) -> dict[int, str]:
    """Display name per category id. The unreserved pair is suffixed with
    [first]/[last] only when both pools hold units; otherwise the plain name
    unambiguously refers to the nonempty pool."""
    cf, cl = inst.unreserved_first_id, inst.unreserved_last_id
    both = (cf is not None and cl is not None
            and inst.categories[cf].quota > 0 and inst.categories[cl].quota > 0)
    names = {}
    for c, cat in enumerate(inst.categories):
        if cat.kind.is_unreserved and both:
            names[c] = cat.name + ("[first]" if c == cf else "[last]")
        else:
            names[c] = cat.name
    return names


def category_id_by_name(inst: Instance) -> dict[str, int]:
    rev: dict[str, int] = {}
    for c, nm in category_display_names(inst).items():
        if nm in rev and inst.categories[c].quota == 0:
            continue
        rev[nm] = c
    return rev


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def load_instance(path: str) -> tuple[Instance, dict]:
    doc = parse_document(_read(path))
    return instance_from_document(doc), doc


def apply_split_flag(inst: Instance, flag: Optional[str]) -> Instance:
    """The instance at the split a ``--split q1,q2`` flag gives, which must
    partition the unreserved quota; unchanged without a flag or an unreserved
    pair (srr and soft then report the missing pair, check --matching
    rejects the flag)."""
    if flag is None:
        return inst
    try:
        first, last = (int(part) for part in flag.split(","))
    except ValueError:
        raise ParseError(f"--split must be 'q1,q2', got {flag!r}") from None
    return inst.with_split(first, last) if inst.has_unreserved else inst


def parse_matching_doc(inst: Instance, raw: bytes) -> Matching:
    doc = decode_json(raw, "invalid matching JSON: ", "invalid matching JSON: ")
    if isinstance(doc, dict) and "assignment" in doc:
        doc = doc["assignment"]
    if not isinstance(doc, dict):
        raise ParseError("matching document must be an object with an 'assignment' map")
    agent_ids = dict(zip(inst.agent_names, range(inst.n)))
    cat_ids = category_id_by_name(inst)
    try:  # one pass at C speed; a failed lookup walks the pairs to name the first bad one
        m = Matching(dict(zip(map(agent_ids.__getitem__, doc),
                              map(cat_ids.__getitem__, doc.values()))))
    except (KeyError, TypeError):  # an unknown name, or an unhashable category
        for agent, cat in doc.items():
            if agent not in agent_ids:
                raise ValidationError(f"unknown agent {agent!r} in matching") from None
            if not isinstance(cat, str) or cat not in cat_ids:
                raise ValidationError(f"unknown category {cat!r} in matching") from None
        raise
    validate_matching(inst, m)
    return m


def matching_doc(inst: Instance, m: Matching) -> dict[str, str]:
    names = category_display_names(inst)
    return {inst.agent_names[a]: names[c] for a, c in m.pairs()}


def utilization_doc(inst: Instance, m: Matching) -> dict:
    names = category_display_names(inst)
    used = Counter(m.assignment.values())
    out: dict[str, dict[str, int]] = {}
    for c, cat in enumerate(inst.categories):
        entry = out.setdefault(names[c], {"used": 0, "quota": 0})
        entry["used"] += used[c]
        entry["quota"] += cat.quota
    return out


def _names_in_witness(inst: Instance, doc: dict) -> dict:
    cat_names = category_display_names(inst)
    for key, val in doc.items():
        if key in ("agent", "envier", "envied", "affected", "agent_early", "agent_late"):
            doc[key] = inst.agent_names[val]
        elif key.startswith("category") and isinstance(val, int):
            doc[key] = cat_names[val]
    return doc


def report_doc(inst: Instance, report: axioms.AxiomReport) -> dict:
    """The report as a JSON object, built shallowly: every field but the
    witnesses is a scalar, and each witness holds ints only."""
    doc = {"axiom": report.axiom, "holds": report.holds,
           "witnesses": [_names_in_witness(inst, dict(vars(w))) for w in report.witnesses],
           "witnesses_total": report.witnesses_total}
    if report.note is not None:
        doc["note"] = report.note
    return doc


_INDENT = "  "
_STRICT_SCALARS = frozenset((str, int, float, bool, type(None)))
# what the table writes for each character str.splitlines breaks at, each
# other C0 control and DEL, as JSON escapes them, and for a backslash
_TABLE_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7f, 0x85, 0x2028, 0x2029)}
_TABLE_ESCAPES.update(zip(map(ord, "\\\b\f\n\r\t"), ("\\\\", "\\b", "\\f", "\\n", "\\r", "\\t")))


def _shown(name: str) -> str:
    """A name as the table writes it: on one line, and unambiguous."""
    return name.translate(_TABLE_ESCAPES)


class _TraceRows:
    """rr's ``trace``: the scan's (agent, size tested without her) pairs, in
    scan order, read as the objects ``{"agent": name, "rejected": size ==
    ms_total, "ms_tested": size}``. Both renderers write it a row at a time
    from one format, so no object is built per agent. Names enter the rows
    as ``%`` arguments, never as part of a format."""

    __slots__ = ("names", "pairs", "ms_total")

    def __init__(self, names: Sequence[str], pairs: Sequence[tuple[int, int]], ms_total: int):
        self.names, self.pairs, self.ms_total = names, pairs, ms_total

    def __len__(self) -> int:
        return len(self.pairs)

    def indented(self, depth: int) -> str:
        """``json.dumps(indent=2)``'s text of the objects as a list at ``depth``."""
        if not self.pairs:
            return "[]"
        outer = "\n" + _INDENT * depth
        inner = outer + _INDENT
        deeper = inner + _INDENT
        row = ("{" + deeper + '"agent": %s,' + deeper + '"rejected": %s,' + deeper
               + '"ms_tested": %d' + inner + "}")
        names, ms_total = self.names, self.ms_total
        return "[" + inner + ("," + inner).join([
            row % (encode_basestring_ascii(names[i]), "true" if size == ms_total else "false",
                   size) for i, size in self.pairs]) + outer + "]"

    def table(self, indent: str) -> str:
        """``_as_table``'s text of the objects as a list at ``indent``."""
        item = indent + _INDENT
        row = item + "agent: %s\n" + item + "rejected: %s\n" + item + "ms_tested: %d"
        names, ms_total = self.names, self.ms_total
        return "\n\n".join([row % (_shown(names[i]), size == ms_total, size)
                            for i, size in self.pairs])


@functools.lru_cache(maxsize=None)
def _encoder(depth: int):
    """The C encoder with ``json.dumps(indent=2)``'s item separator at
    ``depth``. An indent sends ``json`` to its pure-Python encoder, so the
    newlines go into the separator instead. Every payload is a fresh tree,
    so no call needs the circular-reference check."""
    return json.JSONEncoder(separators=(",\n" + _INDENT * depth, ": "),
                            check_circular=False).encode


def _strict(values) -> bool:
    return _STRICT_SCALARS.issuperset(map(type, values))


def _flat_items(items, of_dicts: bool) -> bool:
    """Whether ``items``, all dicts or all lists, are nonempty and hold
    strict scalars only."""
    return all(items) and _strict(chain.from_iterable(map(dict.values, items) if of_dicts
                                                      else items))


def _one_replace(items, depth: int) -> str:
    """``_indented`` of a list of nonempty dicts, or of nonempty lists, of
    strict scalars: one encoder call at the items' depth, whose item
    boundaries are rewritten with one replace."""
    outer = "\n" + _INDENT * depth
    inner = outer + _INDENT
    deeper = inner + _INDENT
    text = _encoder(depth + 2)(items)
    open_, close = text[1], text[-2]
    text = text[2:-2].replace(close + "," + deeper + open_,
                              inner + close + "," + inner + open_ + deeper)
    return "[" + inner + open_ + deeper + text + inner + close + outer + "]"


def _indented(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, character for character, in few C
    encoder calls. A container of scalars and empty containers is one call,
    and so is a list of nonempty dicts, or of nonempty lists, of strict
    scalars (``_one_replace``): its item boundaries are rewritten with one
    replace. That is safe because ``json`` escapes every control character
    in strings, so a raw newline is always a separator, and no scalar ends
    in a closing bracket or starts with an opening one. An empty container
    inside such an item would break it (``[[[], []]]``). A dict with ``str``
    keys whose values are such dicts takes the same path for its values,
    and its keys are put back between the items. rr's trace writes itself."""
    if type(obj) is _TraceRows:
        return obj.indented(depth)
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return _encoder(0)(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    outer = "\n" + _INDENT * depth
    inner = outer + _INDENT
    if _strict(values) or all(type(v) in _STRICT_SCALARS
                              or (isinstance(v, (list, tuple, dict)) and not v) for v in values):
        text = _encoder(depth + 1)(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    kinds = set(map(type, values))
    if not isinstance(obj, dict):
        if (kinds == {dict} or kinds <= {list, tuple}) and _flat_items(obj, dict in kinds):
            return _one_replace(obj, depth)
        return "[" + inner + ("," + inner).join(_indented(v, depth + 1) for v in obj) + outer + "]"
    if not all(isinstance(k, str) for k in obj):
        return json.dumps(obj, indent=2).replace("\n", outer)
    keys = map(encode_basestring_ascii, obj)
    if kinds == {dict} and _flat_items(values, True):
        # Cut the values' text back into items after each "," + inner + "{":
        # inside an item every line starts "," + inner + '  "', so no cut
        # falls inside one, and no key has been through the replace.
        items = _one_replace(list(values), depth)[len(inner) + 2:-len(outer) - 1]
        return "{" + inner + ("," + inner).join(
            k + ": {" + item for k, item in zip(keys, items.split("," + inner + "{"))
        ) + outer + "}"
    return "{" + inner + ("," + inner).join(
        k + ": " + _indented(v, depth + 1) for k, v in zip(keys, values)) + outer + "}"


def _emit(args, payload: dict | list) -> None:
    if args.format == "json":
        text = _indented(payload)
    else:
        text = _as_table(payload)
    if args.out is not None:
        # overwritten in place and cut at the end, not truncated on open: on
        # ext4 closing a file truncated to zero and rewritten starts writeback
        try:
            fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w") as f:
                f.write(text + "\n")
                if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null, a pipe or a tty
                    f.truncate()
        except OSError as e:
            raise ParseError(f"cannot write {args.out}: {e}") from None
    else:
        print(text)


def _as_table(payload, indent: str = "") -> str:
    if type(payload) is _TraceRows:
        return payload.table(indent)
    lines = []
    if isinstance(payload, dict):
        for key, val in payload.items():
            if isinstance(val, (dict, list, _TraceRows)) and val:
                lines.append(f"{indent}{_shown(key)}:")
                lines.append(_as_table(val, indent + "  "))
            else:
                val = _shown(val) if type(val) is str else val
                lines.append(f"{indent}{_shown(key)}: {val if val or val == 0 else '-'}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(_as_table(item, indent + "  ").rstrip())
                lines.append("")
            else:
                lines.append(f"{indent}- {_shown(item) if type(item) is str else item}")
        while lines and not lines[-1]:
            lines.pop()
    else:
        lines.append(f"{indent}{payload}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_rule(rule: str, inst: Instance, doc: dict, args):
    """Returns (matching, evaluation instance, trace or None)."""
    if rule not in RULES:
        raise ValidationError(f"unknown rule {rule!r} (choose from {', '.join(RULES)})")
    if args.split is not None and rule not in SPLIT_RULES:
        raise ValidationError(f"--split applies to srr and soft, not {rule!r}")
    if args.prefs is not None and rule != "da":
        raise ValidationError(f"--prefs applies to da, not {rule!r}")
    if rule == "rr":
        matching, trace = rr(inst)
        return matching, inst, trace
    if rule in SPLIT_RULES:
        if args.split is None and "unreserved_split" not in doc:
            raise PreconditionError("rule needs --split q1,q2 (or unreserved_split in the instance)")
        work = apply_split_flag(inst, args.split)
        return axioms.HARNESS_RULES[rule](work), work, None
    if rule in ("mg", "oaa"):
        # srr at the split (0, q) or (q, 0), derived once: the rule runs on it as is
        if inst.has_unreserved:
            q = inst.unreserved_quota
            inst = inst.with_split(*((0, q) if rule == "mg" else (q, 0)))
        return (minimum_guarantees if rule == "mg" else over_and_above)(inst), inst, None
    if not args.prefs:
        raise PreconditionError("rule da needs --prefs <path>")
    prefs_doc = decode_json(_read(args.prefs), "preferences file is not UTF-8: ",
                            "invalid preferences JSON: ")
    if isinstance(prefs_doc, dict) and "prefs" in prefs_doc:
        prefs_doc = prefs_doc["prefs"]
    if not isinstance(prefs_doc, dict):
        raise ParseError("preferences document must be an object with a 'prefs' map")
    agent_ids = {nm: i for i, nm in enumerate(inst.agent_names)}
    cat_ids = category_id_by_name(inst)
    prefs = {}
    for agent, cats in prefs_doc.items():
        if agent not in agent_ids:
            raise ValidationError(f"unknown agent {agent!r} in preferences")
        if not isinstance(cats, list):
            raise ParseError(f"category list for agent {agent!r} must be a JSON array")
        try:
            prefs[agent_ids[agent]] = [cat_ids[c] for c in cats]
        except (KeyError, TypeError):
            raise ValidationError(f"bad category list for agent {agent!r}") from None
    return deferred_acceptance(inst, prefs), inst, None


def cmd_allocate(args) -> int:
    inst, doc = load_instance(args.instance)
    matching, work, trace = _run_rule(args.rule, inst, doc, args)
    out = {
        "rule": args.rule,
        "assignment": matching_doc(work, matching),
        "size": matching.size(),
        "utilization": utilization_doc(work, matching),
    }
    if args.rule not in ("rr", "da") and work.split is not None:
        # the rules that process the unreserved pools in order echo their split
        out["split"] = {"first": work.split[0], "last": work.split[1]}
    if trace is not None:
        out["ms_total"] = trace.ms_total
        names = inst.agent_names
        out["rejected"] = sorted([names[a] for a in trace.rejected])
        out["trace"] = _TraceRows(names, trace.tested, trace.ms_total)
    _emit(args, out)
    return EXIT_OK


def _evaluate(work: Instance, matching: Matching, names: Sequence[str],
              rule: Optional[str], budget: int) -> list[axioms.AxiomReport]:
    """Run each named axiom: matching checkers on (work, matching), harnesses
    on ``rule`` re-run over manipulations of ``work``."""
    eligibility = None  # the pre-check's report, which the eligibility axiom reuses
    if "max_size" in names:
        eligibility = axioms.check_eligibility(work, matching)
        if not eligibility.holds:
            # max_size is defined only for compliant matchings: otherwise the
            # eligibility report, with its witness, stands in for it, once
            names = [("eligibility" if a == "max_size" else a) for a in names
                     if a != "max_size" or "eligibility" not in names]
    reports = []
    harness: dict[str, axioms.AxiomReport] = {}
    for axiom in names:
        if axiom == "eligibility" and eligibility is not None:
            reports.append(eligibility)
        elif axiom == "max_size":
            # the pre-check above found the matching compliant
            reports.append(axioms._max_size_report(work, matching))
        elif axiom not in HARNESS_AXIOMS:
            reports.append(getattr(axioms, f"check_{axiom}")(work, matching))
        elif rule is None:
            raise ValidationError(f"axiom {axiom!r} needs --rule, not a fixed matching")
        else:
            # both harnesses come from one pass over the manipulated instances
            harness = harness or axioms.harness_reports(rule, work, matching, budget=budget)
            reports.append(harness[axiom])
    return reports


def cmd_check(args) -> int:
    if args.manipulation_budget < 0:
        raise ValidationError("--manipulation-budget must be nonnegative")
    inst, doc = load_instance(args.instance)
    if bool(args.matching) == bool(args.rule):
        raise ValidationError("give exactly one of --matching or --rule")

    requested = MATCHING_AXIOMS if args.axioms == "all" else tuple(
        a.strip() for a in args.axioms.split(",") if a.strip())
    if not requested:
        raise ValidationError("--axioms names no axiom")
    for a in requested:
        if a not in MATCHING_AXIOMS + HARNESS_AXIOMS:
            raise ValidationError(f"unknown axiom {a!r}")

    if args.rule:
        matching, work, _ = _run_rule(args.rule, inst, doc, args)
    else:
        if args.prefs is not None:
            raise ValidationError("--prefs applies to da, not a fixed matching")
        work = apply_split_flag(inst, args.split)
        if args.split is not None and not work.has_unreserved:
            raise ValidationError("--split given, but the instance has no unreserved "
                                  "category to split")
        matching = parse_matching_doc(work, _read(args.matching))
    if args.axioms == "all":
        requested = tuple(a for a in requested
                          if (a != "max_beneficiary" or work.preferential_ids)
                          and (a != "order_preservation" or work.has_unreserved))
        if args.rule in axioms.HARNESS_RULES:
            requested += HARNESS_AXIOMS

    reports = [report_doc(work, rep) for rep in _evaluate(
        work, matching, requested, args.rule, args.manipulation_budget)]
    _emit(args, reports)
    return EXIT_OK if all(r["holds"] for r in reports) else EXIT_AXIOM_FAIL


def _generated(args, agents: int, seed: int) -> dict:
    """The document ``_add_generator``'s options give for ``agents`` and ``seed``."""
    return random_instance_document(
        agents, args.categories, max_quota=args.max_quota,
        eligibility_density=args.eligibility_density, tie_prob=args.tie_prob,
        seed=seed, unreserved=args.unreserved)


def cmd_gen(args) -> int:
    _emit(args, _generated(args, args.agents, args.seed))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.count < 0:
        raise ValidationError("--count must be nonnegative")
    if args.manipulation_budget < 0:
        raise ValidationError("--manipulation-budget must be nonnegative")
    passed = failed = skipped = 0
    # (rule, axiom) -> [instances failing it, the first one, its message, its witness]
    failures: dict[tuple[str, str], list] = {}
    for idx in range(args.count):
        inst = instance_from_document(_generated(args, args.max_agents, args.seed + idx))
        problems = []  # (rule, axiom, message, witness)
        try:
            rep = oracle.verify_characterization(inst)
            if not rep.ok:
                witness = f"rule-only={rep.only_rule_side} axiom-only={rep.only_axiom_side}"
                problems.append(("rr", "characterization",
                                 f"characterization mismatch: {witness}", witness))
        except oracle.OracleBoundError as e:
            print(f"instance {idx}: skipped characterization ({e})", file=sys.stderr)
            skipped += 1

        runs = [("rr", inst, VERIFY_RR_AXIOMS)]
        if inst.has_unreserved:  # at the generator's split (0, q): no copy
            runs.append(("srr", inst.with_split(0, inst.unreserved_quota), VERIFY_SRR_AXIOMS))
        for rule, work, names in runs:
            matching = axioms.HARNESS_RULES[rule](work)
            for rep in _evaluate(work, matching, names, rule, args.manipulation_budget):
                if not rep.holds:
                    witness = f"{rep.witnesses[:1]}"
                    problems.append((rule, rep.axiom, f"{rule} violates {rep.axiom}: {witness}",
                                     witness))

        if problems:
            failed += 1
        else:
            passed += 1
        for rule, axiom, message, witness in problems:
            failures.setdefault((rule, axiom), [0, idx, message, witness])[0] += 1

    print(f"verified {args.count} instances: {passed} passed, {failed} failed, "
          f"{skipped} skipped characterization (bound)")
    if failures:
        _, idx, message, _ = next(iter(failures.values()))
        print(f"first discrepancy at instance {idx}: {message}")
    for (rule, axiom), (count, idx, _, witness) in failures.items():
        print(f"{rule} {axiom}: {count} failed, first at instance {idx}: {witness}")
    return EXIT_OK if failed == 0 else EXIT_AXIOM_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="write output to a file instead of stdout")


def _add_generator(p: argparse.ArgumentParser) -> None:
    """The options gen and verify build their documents from, but --categories."""
    p.add_argument("--max-quota", type=int, default=2)
    p.add_argument("--eligibility-density", type=float, default=0.5)
    p.add_argument("--tie-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unreserved", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, so main reports them in one line;
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="reserves", description="priority-respecting rationing rules")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run an allocation rule on an instance")
    p.add_argument("--rule", required=True,
                   help="one of rr, srr, mg, oaa, da, soft")
    p.add_argument("--instance", required=True)
    p.add_argument("--split", help="q1,q2 partition of the unreserved quota (srr/soft)")
    p.add_argument("--prefs", help="preference lists for da")
    _add_common(p)
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("check", help="check axioms of a matching or a rule's output")
    p.add_argument("--instance", required=True)
    p.add_argument("--matching", help="matching document path, or - for stdin")
    p.add_argument("--rule", help="check this rule's own output")
    p.add_argument("--split", help="q1,q2 for srr/soft and split-aware checks")
    p.add_argument("--prefs", help="preference lists for da")
    p.add_argument("--axioms", default="all",
                   help="comma list or 'all' (default)")
    p.add_argument("--manipulation-budget", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--categories", type=int, required=True)
    _add_generator(p)
    _add_common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="cross-check rule outcomes against the oracle")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-agents", type=int, default=5)
    p.add_argument("--categories", type=int, default=2)
    _add_generator(p)
    p.add_argument("--manipulation-budget", type=int, default=4)
    p.set_defaults(fn=cmd_verify)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; parse_args leaves
    it unchanged, so every call to main can share it."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return code
    except BrokenPipeError as e:
        # the flush at exit would raise again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
