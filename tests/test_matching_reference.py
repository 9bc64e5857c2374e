"""The matching kernels against an independent maximum matching (scipy's
maximum flow), above the oracle's size bound, and the runtime's import
footprint."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import reference_size, surviving_edges
from reserves.axioms import SizeGapWitness, check_max_beneficiary, check_max_size
from reserves.generator import random_instance
from reserves.graph import _RejectionEngine
from reserves.model import Matching
from reserves.rules import rr, srr

SRC = Path(__file__).resolve().parents[1] / "src"


def instances():
    """Three in four carry an unreserved category of 5, 10 or 15 units."""
    for seed in range(20):
        yield seed, random_instance(50 + 5 * seed, 3 + seed % 8, max_quota=4 + seed % 5,
                                    eligibility_density=(0.1, 0.25, 0.5)[seed % 3],
                                    tie_prob=(0.0, 0.4)[seed % 2], seed=500 + seed,
                                    unreserved=5 * (seed % 4))


def test_max_matching_size_equals_reference():
    """Every maximum size the library computes: the engine's and its fresh
    matching's, the checkers' optima (the pref-only graph's maximum for
    max_beneficiary), and srr's preferential count at three splits."""
    for seed, inst in instances():
        ref, pref = reference_size(inst), reference_size(inst, cats=inst.preferential_ids)
        engine = _RejectionEngine.of(inst, range(len(inst.categories)))
        m = engine.fresh_matching()
        assert engine.size() == m.size() == ref, seed
        assert set(m.pairs()) <= set(surviving_edges(inst)), seed
        assert all(m.count_in(c) <= cat.quota for c, cat in enumerate(inst.categories)), seed
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


def test_max_size_optimum_where_the_unreserved_pools_outnumber_the_rest():
    """check_max_size adds min(unreserved quota, agents left over) to the
    preferential optimum: cases where the min takes the agents left over,
    only an unreserved category, and no category at all."""
    cases = [random_instance(8 + seed, 1 + seed % 4, max_quota=2, eligibility_density=0.4,
                             tie_prob=0.4, seed=900 + seed, unreserved=6 + seed)
             for seed in range(12)]
    cases += [random_instance(n, 0, seed=n, unreserved=u) for n, u in ((5, 3), (5, 9))]
    cases.append(random_instance(4, 0, seed=1))
    binding = 0
    for inst in cases:
        pref = reference_size(inst, cats=inst.preferential_ids)
        binding += inst.unreserved_quota > inst.n - pref
        optimum = reference_size(inst)
        report = check_max_size(inst, Matching())
        assert report.witnesses == ((SizeGapWitness(0, optimum),) if optimum else ())
    assert binding >= 8


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
