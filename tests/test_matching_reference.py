"""The matching kernels against an independent maximum matching, above the
oracle's size bound, and the runtime's import footprint."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reserves.axioms import SizeGapWitness, check_max_beneficiary, check_max_size
from reserves.generator import random_instance
from reserves.graph import max_matching, max_matching_size, reservation_graph
from reserves.model import Matching
from reserves.rules import rr, srr

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_size(inst, rejected=frozenset(), cats=None):
    """Hopcroft-Karp maximum matching on the capacity-expanded graph (one
    column per unit) of the reduced graph after ``rejected`` over ``cats``
    (default all): an edge (j, c) survives iff j is eligible for c, not
    rejected, and not strictly outranked in c by a rejected agent."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rows, cols = [], []
    first_unit = 0
    for c, cat in enumerate(inst.categories):
        if cats is not None and c not in cats:
            continue
        thr = min((inst.position(c, r) for r in rejected), default=None)
        for j in inst.agents_eligible_for(c):
            if j in rejected or (thr is not None and inst.position(c, j) > thr):
                continue
            for unit in range(first_unit, first_unit + cat.quota):
                rows.append(j)
                cols.append(unit)
        first_unit += cat.quota
    graph = sparse.csr_matrix(([1] * len(rows), (rows, cols)), shape=(inst.n, first_unit))
    match = csgraph.maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum())


def instances():
    """Three in four carry an unreserved category of 5, 10 or 15 units."""
    for seed in range(20):
        yield seed, random_instance(50 + 5 * seed, 3 + seed % 8, max_quota=4 + seed % 5,
                                    eligibility_density=(0.1, 0.25, 0.5)[seed % 3],
                                    tie_prob=(0.0, 0.4)[seed % 2], seed=500 + seed,
                                    unreserved=5 * (seed % 4))


def test_max_matching_size_equals_reference():
    """Every maximum size the library computes: the graph's, a matching under a
    shuffled tiebreak, the checkers' optima (the pref-only graph's maximum for
    max_beneficiary), and srr's preferential count at three splits."""
    for seed, inst in instances():
        ref, pref = reference_size(inst), reference_size(inst, cats=inst.preferential_ids)
        g = reservation_graph(inst)
        assert max_matching_size(g) == ref, seed
        order = list(g.scan_order)
        random.Random(seed).shuffle(order)
        m = max_matching(g, order)
        assert m.size() == ref and set(m.pairs()) <= g.edges, seed
        assert all(m.count_in(c) <= q for c, q in g.right), seed
        for check, optimum in ((check_max_size, ref), (check_max_beneficiary, pref)):
            report = check(inst, Matching())
            assert report.witnesses == ((SizeGapWitness(0, optimum),) if optimum else ()), seed
        if not inst.has_unreserved:
            continue
        q = inst.unreserved_quota
        for split in ((0, q), (q, 0), (q // 2, q - q // 2)):
            work = inst.with_split(*split)
            matching = srr(work)
            assert check_max_beneficiary(work, matching).holds
            got = sum(1 for _, c in matching.pairs() if c in inst.preferential_ids)
            assert got == pref, (seed, split)


def test_rr_ms_tested_equals_reference():
    for seed, inst in instances():
        _, trace = rr(inst)
        assert trace.ms_total == reference_size(inst), seed
        rejected: set[int] = set()
        for d in trace.decisions:
            assert d.ms_tested == reference_size(inst, rejected | {d.agent}), (seed, d)
            if d.rejected:
                rejected.add(d.agent)


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, reserves.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out.strip() == "False"
