"""Hand-built instance documents shared by the tests and by CI's console-script
step: plain data and ``chain_doc``. Importing this module needs only the
standard library."""


# Three agents, two quota-1 categories. c1 ranks 2 > 3 > empty > 1,
# c2 ranks 2 > empty > 1 > 3; agent 1 is eligible nowhere.
RUNNING_DOC = {
    "agents": ["1", "2", "3"],
    "baseline": ["1", "2", "3"],
    "categories": [
        {"name": "c1", "quota": 1, "kind": "preferential",
         "tiers": [["2"], ["3"], ["1"]], "cutoff": 2},
        {"name": "c2", "quota": 1, "kind": "preferential",
         "tiers": [["2"], ["1"], ["3"]], "cutoff": 1},
    ],
}

# Four agents, two quota-1 categories. c1 ranks 1 > 4 > 2 > empty,
# c2 ranks 1 > 3 > empty. The scan under baseline 1>2>3>4 rejects 4 then 2.
SCAN_DOC = {
    "agents": ["1", "2", "3", "4"],
    "baseline": ["1", "2", "3", "4"],
    "categories": [
        {"name": "c1", "quota": 1, "kind": "preferential",
         "tiers": [["1"], ["4"], ["2"]], "cutoff": 3},
        {"name": "c2", "quota": 1, "kind": "preferential",
         "tiers": [["1"], ["3"]], "cutoff": 2},
    ],
}

# One preferential category reserved for {1, 4} plus one unreserved unit.
RESERVE_DOC = {
    "agents": ["1", "2", "3", "4"],
    "baseline": ["1", "2", "3", "4"],
    "categories": [
        {"name": "c", "quota": 1, "kind": "preferential",
         "tiers": [["1"], ["4"]], "cutoff": 2},
        {"name": "c_u", "quota": 1, "kind": "unreserved"},
    ],
}

# Three quota-1 categories: an early unreserved pool plus c1 reserved for
# {1, 3} and c2 reserved for {2, 4}.
EARLY_POOL_DOC = {
    "agents": ["1", "2", "3", "4"],
    "baseline": ["1", "2", "3", "4"],
    "categories": [
        {"name": "c_u", "quota": 1, "kind": "unreserved"},
        {"name": "c1", "quota": 1, "kind": "preferential",
         "tiers": [["1"], ["3"]], "cutoff": 2},
        {"name": "c2", "quota": 1, "kind": "preferential",
         "tiers": [["2"], ["4"]], "cutoff": 2},
    ],
    "unreserved_split": {"first": 1, "last": 0},
}


def chain_doc(m: int, tail: bool, unreserved: int = 0) -> dict:
    """m strict quota-1 categories whose augmenting paths run through all of
    them. Agents a0 .. a{m-1} then x, in baseline order; c0 ranks x > a0
    and cj ranks a{j-1} > aj. Without ``tail`` (chain B), the scan's removal
    of a{m-1} re-seats x along a path from c{m-1} back to c0. With it
    (chain F), c{m} = [a{m-1}], and the initial solve seats x along a path
    from c0 to c{m}. ``unreserved`` adds an unreserved category of that many
    units, split evenly."""
    agents = [f"a{i}" for i in range(m)] + ["x"]
    cats = [{"name": f"c{j}", "quota": 1, "kind": "preferential",
             "tiers": [[agents[j - 1] if j else "x"], [agents[j]]], "cutoff": 2}
            for j in range(m)]
    if tail:
        cats.append({"name": f"c{m}", "quota": 1, "kind": "preferential",
                     "tiers": [[agents[m - 1]]], "cutoff": 1})
    doc = {"agents": agents, "baseline": agents, "categories": cats}
    if unreserved:
        cats.append({"name": "u", "quota": unreserved, "kind": "unreserved"})
        doc["unreserved_split"] = {"first": unreserved // 2,
                                   "last": unreserved - unreserved // 2}
    return doc
