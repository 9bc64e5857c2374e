"""The benchmark's workloads: seeded inputs, one op each, and its referee.

Inputs are generated here rather than by ``reserves.generator`` so that they
stay the same when the library's generator changes. Sizes are fixed per
workload (exact eligible counts and quotas, not Bernoulli draws). The work
per op still varies by 13 to 30% between inputs, so each run spreads its ops
over many distinct inputs (about one per op at today's speed) to keep run
medians close across seeds.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import referee


@dataclass
class OpInput:
    key: str
    argv_seed: int = 0  # verify-small: the seed handed to the CLI
    doc: dict | None = None  # instance document, until written to ``path``
    path: Path | None = None

    def load(self) -> dict:
        return json.loads(self.path.read_text())


@dataclass
class OpResult:
    seconds: float
    codes: list[int]
    outputs: dict[str, bytes]


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int  # distinct inputs; ops cycle over them
    make_inputs: Callable[[random.Random, int], Iterator[OpInput]]
    run_op: Callable[[Callable, OpInput, Path], OpResult]
    check: Callable[[OpInput, dict[str, bytes]], list[str]]  # referee verdict


def _category(rng: random.Random, name: str, agents: list[str], eligible: int,
              quota: int, tie_prob: float) -> dict:
    chosen = rng.sample(agents, eligible)
    tiers: list[list[str]] = []
    for a in chosen:
        if tiers and rng.random() < tie_prob:
            tiers[-1].append(a)
        else:
            tiers.append([a])
    return {"name": name, "quota": quota, "kind": "preferential",
            "tiers": tiers, "cutoff": len(tiers)}


def _instance(rng: random.Random, n: int, categories: int, eligible: int, quota: int,
              tie_prob: float, unreserved: int = 0) -> dict:
    agents = [f"a{i}" for i in range(n)]
    baseline = agents[:]
    rng.shuffle(baseline)
    cats = [_category(rng, f"c{k}", agents, eligible, quota, tie_prob)
            for k in range(categories)]
    doc = {"agents": agents, "baseline": baseline, "categories": cats}
    if unreserved:
        cats.append({"name": "u", "quota": unreserved, "kind": "unreserved"})
        first = unreserved // 2
        doc["unreserved_split"] = {"first": first, "last": unreserved - first}
    return doc


def _call(cli_main: Callable, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse rejects argv
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


# --- rr-scarce: the scan's hot path ------------------------------------------

RR_AGENTS, RR_CATEGORIES, RR_QUOTA = 160, 20, 3


def _rr_inputs(rng: random.Random, count: int) -> Iterator[OpInput]:
    for k in range(count):
        yield OpInput(f"rr{k}", doc=_instance(rng, RR_AGENTS, RR_CATEGORIES, RR_AGENTS // 2,
                                              RR_QUOTA, tie_prob=0.0))


def _rr_op(cli_main: Callable, inp: OpInput, work: Path) -> OpResult:
    out = work / "rr-out.json"
    t0 = perf_counter()
    code, _ = _call(cli_main, ["allocate", "--rule", "rr", "--instance", str(inp.path),
                               "--out", str(out)])
    seconds = perf_counter() - t0
    return OpResult(seconds, [code], {"allocate": out.read_bytes() if code == 0 else b""})


def _rr_referee(inp: OpInput, outputs: dict[str, bytes]) -> list[str]:
    return referee.allocate_problems(inp.load(), outputs["allocate"], "rr")


# --- srr-pipeline: allocate --rule srr | check --matching ----------------------

SRR_AGENTS, SRR_CATEGORIES, SRR_QUOTA, SRR_UNRESERVED = 300, 4, 10, 40


def _srr_inputs(rng: random.Random, count: int) -> Iterator[OpInput]:
    for k in range(count):
        yield OpInput(f"srr{k}", doc=_instance(rng, SRR_AGENTS, SRR_CATEGORIES,
                                               int(0.3 * SRR_AGENTS), SRR_QUOTA,
                                               tie_prob=0.9, unreserved=SRR_UNRESERVED))


def _srr_op(cli_main: Callable, inp: OpInput, work: Path) -> OpResult:
    alloc, check = work / "srr-out.json", work / "check-out.json"
    t0 = perf_counter()
    codes = [_call(cli_main, ["allocate", "--rule", "srr", "--instance", str(inp.path),
                              "--out", str(alloc)])[0]]
    if codes[0] == 0:
        codes.append(_call(cli_main, ["check", "--instance", str(inp.path),
                                      "--matching", str(alloc), "--out", str(check)])[0])
    seconds = perf_counter() - t0
    outputs = {"allocate": alloc.read_bytes() if codes[0] == 0 else b"",
               "check": check.read_bytes() if codes == [0, 0] else b""}
    return OpResult(seconds, codes, outputs)


def _srr_referee(inp: OpInput, outputs: dict[str, bytes]) -> list[str]:
    return (referee.allocate_problems(inp.load(), outputs["allocate"], "srr")
            + referee.check_problems(outputs["check"]))


# --- verify-small: the oracle and manipulation harnesses ---------------------

VERIFY_ARGS = ["--max-agents", "6", "--categories", "2", "--unreserved", "1",
               "--tie-prob", "0.5"]


def _verify_inputs(rng: random.Random, count: int) -> Iterator[OpInput]:
    for k in range(count):
        yield OpInput(f"verify{k}", argv_seed=rng.randrange(2**31))


def _verify_op(cli_main: Callable, inp: OpInput, work: Path) -> OpResult:
    t0 = perf_counter()
    code, stdout = _call(cli_main, ["verify", "--count", "1", "--seed", str(inp.argv_seed)]
                         + VERIFY_ARGS)
    seconds = perf_counter() - t0
    return OpResult(seconds, [code], {"stdout": stdout.encode()})


def _verify_referee(inp: OpInput, outputs: dict[str, bytes]) -> list[str]:
    return referee.verify_problems(outputs["stdout"])


WORKLOADS = {w.name: w for w in (
    Workload("rr-scarce", 64, _rr_inputs, _rr_op, _rr_referee),
    Workload("srr-pipeline", 64, _srr_inputs, _srr_op, _srr_referee),
    Workload("verify-small", 128, _verify_inputs, _verify_op, _verify_referee),
)}


def write_inputs(inputs: Iterator[OpInput], work: Path) -> list[OpInput]:
    """Write each instance document to a file as it is generated and drop it,
    so that the inputs do not count in the peak RSS of the run."""
    written = []
    for inp in inputs:
        if inp.doc is not None:
            inp.path = work / f"{inp.key}.json"
            inp.path.write_text(json.dumps(inp.doc))
            inp.doc = None
        written.append(inp)
    return written
