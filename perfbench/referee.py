"""Independent checks of every op's CLI output.

Nothing here imports ``reserves``: the referee reads the instance document
the benchmark generated and the documents the CLI wrote, and recomputes
maximum matching sizes with scipy's Hopcroft-Karp on the capacity-expanded
graph (one column per unit). Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MATCHING_AXIOMS = ("eligibility", "respect_priorities", "nonwasteful", "max_size",
                   "max_beneficiary", "order_preservation")


@dataclass(frozen=True)
class Pool:
    """A category as the CLI displays it: quota and priority positions."""

    quota: int
    pos: dict  # agent name -> rank position, smaller is higher
    cutoff: int  # positions below this are eligible; unlisted agents sit here
    preferential: bool

    def position(self, agent: str) -> int:
        return self.pos.get(agent, self.cutoff)

    def eligible(self, agent: str) -> bool:
        return self.position(agent) < self.cutoff


def pools(doc: dict) -> dict[str, Pool]:
    """Display name -> pool. The unreserved category is split into
    ``name[first]`` and ``name[last]`` when both parts hold units."""
    baseline = {a: i for i, a in enumerate(doc["baseline"])}
    n = len(doc["agents"])
    out = {}
    for cd in doc["categories"]:
        if cd["kind"] == "preferential":
            pos = {}
            for t, tier in enumerate(cd["tiers"]):
                for a in tier:
                    pos[a] = t if t < cd["cutoff"] else t + 1
            out[cd["name"]] = Pool(cd["quota"], pos, cd["cutoff"], True)
            continue
        split = doc.get("unreserved_split", {"first": 0, "last": cd["quota"]})
        first, last = split["first"], split["last"]
        if first > 0 and last > 0:
            out[cd["name"] + "[first]"] = Pool(first, baseline, n, False)
            out[cd["name"] + "[last]"] = Pool(last, baseline, n, False)
        else:
            out[cd["name"]] = Pool(first + last, baseline, n, False)
    return out


def max_matching_size(doc: dict, names: list[str]) -> int:
    """Maximum number of agents matched within the given pools."""
    # imported here so that scipy is not loaded before peak RSS is read
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    by_pool = pools(doc)
    agent_id = {a: i for i, a in enumerate(doc["agents"])}
    rows, cols = [], []
    col = 0
    for name in names:
        pool = by_pool[name]
        eligible = [agent_id[a] for a in doc["agents"] if pool.eligible(a)]
        for _ in range(min(pool.quota, len(eligible))):
            rows.extend(eligible)
            cols.extend([col] * len(eligible))
            col += 1
    if col == 0:
        return 0
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(len(agent_id), col))
    return int(np.count_nonzero(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def matching_problems(doc: dict, assignment: dict) -> list[str]:
    """Known names, quotas, eligibility and no justified envy in any pool."""
    by_pool = pools(doc)
    agents = set(doc["agents"])
    problems = []
    members: dict[str, list[str]] = {name: [] for name in by_pool}
    for agent, name in assignment.items():
        if agent not in agents or name not in by_pool:
            problems.append(f"unknown pair {agent!r} -> {name!r}")
            continue
        members[name].append(agent)
        if not by_pool[name].eligible(agent):
            problems.append(f"{agent} is not eligible for {name}")
    unmatched = [a for a in doc["agents"] if a not in assignment]
    for name, held in members.items():
        pool = by_pool[name]
        if len(held) > pool.quota:
            problems.append(f"{name} holds {len(held)} > quota {pool.quota}")
        if not held:
            continue
        worst = max(pool.position(a) for a in held)
        envious = [a for a in unmatched if pool.position(a) < worst]
        if envious:
            problems.append(f"{envious[0]} has justified envy in {name}")
    return problems


def allocate_problems(doc: dict, raw: bytes, rule: str) -> list[str]:
    """Referee one ``allocate`` output for rule rr (all pools at maximum
    size, survivors exactly the non-rejected) or srr (preferential pools at
    their maximum, the document's split echoed)."""
    try:
        out = json.loads(raw)
        assignment = out["assignment"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable allocate output: {e}"]
    problems = matching_problems(doc, assignment)
    if out.get("size") != len(assignment):
        problems.append(f"size field {out.get('size')} != {len(assignment)} assigned")
    by_pool = pools(doc)
    if rule == "rr":
        optimum = max_matching_size(doc, list(by_pool))
        if len(assignment) != optimum or out.get("ms_total") != optimum:
            problems.append(f"rr matched {len(assignment)} (ms_total {out.get('ms_total')}), "
                            f"maximum is {optimum}")
        survivors = set(doc["agents"]) - set(out.get("rejected", ()))
        if survivors != set(assignment):
            problems.append("matched agents differ from the agents not rejected")
        if len(out.get("trace", ())) != len(doc["agents"]):
            problems.append("trace does not hold one decision per agent")
    else:
        preferential = [name for name, pool in by_pool.items() if pool.preferential]
        found = sum(1 for name in assignment.values() if by_pool[name].preferential)
        optimum = max_matching_size(doc, preferential)
        if found != optimum:
            problems.append(f"srr matched {found} preferentially, maximum is {optimum}")
        if out.get("split") != doc.get("unreserved_split"):
            problems.append(f"split {out.get('split')} != {doc.get('unreserved_split')}")
    return problems


def check_problems(raw: bytes) -> list[str]:
    """``check --axioms all`` on an instance with preferential and unreserved
    pools must report each matching axiom once, all holding."""
    try:
        reports = [(r["axiom"], r["holds"]) for r in json.loads(raw)]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable check output: {e}"]
    problems = []
    if sorted(a for a, _ in reports) != sorted(MATCHING_AXIOMS):
        problems.append(f"check reported {[a for a, _ in reports]}")
    problems += [f"check says {a} fails" for a, holds in reports if holds is not True]
    return problems


def verify_problems(raw: bytes) -> list[str]:
    """``verify --count 1`` must report one instance passed and none failed."""
    text = raw.decode("utf-8", "replace")
    if "verified 1 instances: 1 passed, 0 failed" not in text:
        return [f"verify reported: {text.strip()[:200]!r}"]
    return []
