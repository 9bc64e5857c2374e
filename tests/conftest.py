import json
import random
from dataclasses import replace

import pytest

from documents import (EARLY_POOL_DOC, RESERVE_DOC, RUNNING_DOC, SCAN_DOC,  # noqa: F401
                       chain_doc)
from reserves.model import Instance, Kind, parse_instance


def make_instance(doc: dict) -> Instance:
    return parse_instance(json.dumps(doc))


def with_quotas(inst: Instance, quotas) -> Instance:
    """``inst`` with category ``c``'s quota set to ``quotas[c]``."""
    cats = tuple(replace(cat, quota=q) for cat, q in zip(inst.categories, quotas, strict=True))
    return Instance(inst.agent_names, cats, inst.baseline)


def symmetrize(inst: Instance) -> Instance:
    """Recast unreserved categories as preferential ones with the same fixed
    ranking, so the baseline can be permuted freely."""
    cats = tuple(replace(c, kind=Kind.PREFERENTIAL) for c in inst.categories)
    return Instance(inst.agent_names, cats, inst.baseline)


def names_of(inst: Instance, matching) -> dict[str, str]:
    return {inst.agent_names[a]: inst.categories[c].name for a, c in matching.pairs()}


def surviving_edges(inst: Instance, pruned=(), unpruned=(), cats=None) -> list[tuple[int, int]]:
    """The edges (a, c) of the reduced graph, read off the instance alone:
    ``a`` is eligible for ``c`` (one of ``cats``, default all), is in
    neither ``pruned`` nor ``unpruned``, and no agent of ``pruned`` strictly
    outranks her in ``c``."""
    gone = set(pruned) | set(unpruned)
    edges = []
    for c in range(len(inst.categories)) if cats is None else cats:
        thr = min((inst.position(c, r) for r in pruned), default=None)
        for a in inst.agents_eligible_for(c):
            if a not in gone and (thr is None or inst.position(c, a) <= thr):
                edges.append((a, c))
    return edges


def adj_edges(adj) -> set[tuple[int, int]]:
    """The (agent, category) pairs of an adjacency such as the oracle's
    ``_reduced_adj``, whose entries are (category, priority position)."""
    return {(a, c) for a, cats in enumerate(adj) for c, _ in cats}


def reference_size(inst: Instance, pruned=(), unpruned=(), cats=None) -> int:
    """Maximum matching size of ``surviving_edges``, by scipy's maximum flow
    on source -> agent (capacity 1) -> category (1) -> sink (the category's
    quota). It shares no code with the library's kernels."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    edges = surviving_edges(inst, pruned, unpruned, cats)
    n, m = inst.n, len(inst.categories)
    source, sink = n + m, n + m + 1
    rows = [source] * n + [a for a, _ in edges] + [n + c for c in range(m)]
    cols = [*range(n), *(n + c for _, c in edges), *[sink] * m]
    caps = np.array([1] * (n + len(edges)) + [cat.quota for cat in inst.categories],
                    dtype=np.int32)
    graph = sparse.csr_matrix((caps, (rows, cols)), shape=(n + m + 2, n + m + 2))
    return int(csgraph.maximum_flow(graph, source, sink).flow_value)


@pytest.fixture
def running():
    return make_instance(RUNNING_DOC)


@pytest.fixture
def scan():
    return make_instance(SCAN_DOC)


@pytest.fixture
def reserve():
    return make_instance(RESERVE_DOC)


@pytest.fixture
def early_pool():
    return make_instance(EARLY_POOL_DOC)


def mg_pattern_instance(seed: int, agents: int = 6, cats: int = 2,
                        unreserved: int = 2) -> Instance:
    """Instances in the classical reserve setting: at most one preferential
    category per agent, priorities read off the baseline."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(agents)]
    baseline = names[:]
    rng.shuffle(baseline)
    owners = {nm: rng.randrange(cats + 1) for nm in names}  # == cats means none
    cat_docs = []
    for k in range(cats):
        eligible = [nm for nm in baseline if owners[nm] == k]
        cat_docs.append({"name": f"c{k}", "quota": rng.randint(1, 2),
                         "kind": "preferential",
                         "tiers": [[nm] for nm in eligible], "cutoff": len(eligible)})
    cat_docs.append({"name": "u", "quota": unreserved, "kind": "unreserved"})
    return make_instance({"agents": names, "baseline": baseline, "categories": cat_docs})


def classical_corpus_doc(seed: int) -> dict:
    """A seeded instance document near the classical reserve setting.

    1-30 agents, 0-5 preferential categories with quotas 0-4 (some with
    nobody eligible), agents with no preferential category, strict tiers
    read off the baseline above the cutoff and random tiers with ties below
    it. Most documents add an unreserved category of 0-8 units at a random
    position, half of them with a declared split. About one category in
    twelve leaves the domain: it takes in an agent another category owns,
    or swaps or ties two of its eligible agents.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    names = [f"a{i}" for i in range(n)]
    baseline = names[:]
    rng.shuffle(baseline)
    k = rng.randint(0, 5)
    owner = {nm: rng.randrange(k + 1) for nm in names}  # == k means none
    cats = []
    for c in range(k):
        tiers = [[nm] for nm in baseline if owner[nm] == c]
        fault = rng.random()
        others = [nm for nm in names if owner[nm] not in (c, k)]
        if fault < 0.03 and others:
            tiers.insert(rng.randint(0, len(tiers)), [rng.choice(others)])
        elif fault < 0.06 and len(tiers) > 1:
            j = rng.randrange(len(tiers) - 1)
            tiers[j], tiers[j + 1] = tiers[j + 1], tiers[j]
        elif fault < 0.08 and len(tiers) > 1:
            j = rng.randrange(len(tiers) - 1)
            tiers[j:j + 2] = [tiers[j] + tiers[j + 1]]
        cutoff = len(tiers)
        listed = {nm for tier in tiers for nm in tier}
        below = [nm for nm in names if nm not in listed and rng.random() < 0.4]
        rng.shuffle(below)
        for nm in below:
            if len(tiers) > cutoff and rng.random() < 0.3:
                tiers[-1].append(nm)
            else:
                tiers.append([nm])
        cats.append({"name": f"c{c}", "quota": rng.randint(0, 4), "kind": "preferential",
                     "tiers": tiers, "cutoff": cutoff})
    doc = {"agents": names, "baseline": baseline, "categories": cats}
    if rng.random() < 0.8:
        q = rng.randint(0, 8)
        cats.insert(rng.randint(0, k), {"name": "u", "quota": q, "kind": "unreserved"})
        if rng.random() < 0.5:
            first = rng.randint(0, q)
            doc["unreserved_split"] = {"first": first, "last": q - first}
    return doc
