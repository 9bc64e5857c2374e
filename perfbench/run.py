#!/usr/bin/env python3
"""Benchmark of the ``reserves`` CLI, end to end and layer by layer.

One run measures one workload in this process, calling ``reserves.cli.main``
one op at a time (a closed loop with one client):

    python3 perfbench/run.py --workload rr-scarce --seed 1 --seconds 35 --trace 0

Every workload, each in a fresh process, with a summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 10

Workloads (see workloads.py): ``rr-scarce`` (allocate --rule rr on scarce,
strict instances), ``srr-pipeline`` (allocate --rule srr, then check
--matching with all six matching axioms) and ``verify-small`` (verify
--count 1 on 6-agent instances).

Inputs come from ``--seed`` and are written to files before any timer
starts. Ops cycle over the inputs until ``--seconds`` have passed. Every
op's output is refereed afterwards by code that shares nothing with the
library (referee.py); an op that raises, exits non-zero, fails the referee
or differs from an earlier op on the same input counts as failed.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (ops per second
of op time), ``op_p50_s`` (median op time), ``peak_rss_mb`` (ru_maxrss of
this process, read before scipy is imported) and ``setup_s`` (median of cold
interpreter starts that import reserves.cli and call ``_kernels.warm_up``).
The shared host's speed drifts by 20% or more between runs, so every time is
normalized to host speed: it is rescaled by ``REF_SECONDS`` over the time of
the reference loop (reference.py) run just before it. The wall times as
measured are printed and stored as ``ops_per_s_raw``, ``op_p50_s_raw`` and
``setup_s_raw``. ``fail_ratio`` is printed with them and carried by the
``attempted``/``failed`` fields. ``--trace 1`` runs one
untraced pass over the first eight inputs, then traced passes over them (at
least two) with wrappers from tracing.py, and reports the per-layer metrics plus ``bench.trace_overhead``
(traced over untraced ops per second). Exact counters must repeat on every
traced pass.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Details (environment stamp, op samples, output digests, exact
counters, missing metrics) go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
from reference import REF_SECONDS, reference  # noqa: E402
from workloads import WORKLOADS, OpInput, Workload, write_inputs  # noqa: E402

SETUP_STARTS = 9
TRACE_INPUTS = 8  # traced runs repeat whole passes over this many inputs
# warm_up compiles the kernels when numba is active; skipped if it is gone
SETUP_CODE = ("import sys, reserves.cli; "
              "getattr(sys.modules.get('reserves._kernels'), 'warm_up', lambda: None)()")


class Runner:
    """Runs ops, keeps their timings and output digests, and referees the
    distinct outputs once the timed loops are over. Outputs wait on disk, so
    they do not count in the peak RSS of the run."""

    def __init__(self, workload: Workload, inputs: list[OpInput], work: Path, cli_main):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.cli_main = cli_main
        self.ops: list[tuple[str, str | None, str | None]] = []  # key, digest, error
        self.outputs: dict[tuple[str, str], tuple[OpInput, dict[str, Path]]] = {}

    def op(self, inp: OpInput, tracer=None) -> float | None:
        frame = None
        if tracer is not None:
            tracer.op_id = len(self.ops)
            frame = tracer.enter("op")
        try:
            res = self.workload.run_op(self.cli_main, inp, self.work)
        except Exception:  # an op that raises is a failed op, not a failed run
            self.ops.append((inp.key, None, traceback.format_exc(limit=4)))
            return None
        finally:
            if frame is not None:
                tracer.exit(frame)
        sha = hashlib.sha256()
        for name in sorted(res.outputs):
            sha.update(name.encode() + b"\0" + res.outputs[name] + b"\0")
        digest = sha.hexdigest()
        if (inp.key, digest) not in self.outputs:
            saved = {}
            for name, data in res.outputs.items():
                saved[name] = self.work / f"out{len(self.outputs)}-{name}"
                saved[name].write_bytes(data)
            self.outputs[(inp.key, digest)] = (inp, saved)
        error = None if all(c == 0 for c in res.codes) else f"exit codes {res.codes}"
        self.ops.append((inp.key, digest, error))
        return res.seconds if error is None else None

    def referee(self) -> tuple[int, list[str], dict[str, str]]:
        """Returns (failed ops, problems, digest of each input's output)."""
        verdict = {}
        for (key, digest), (inp, saved) in self.outputs.items():
            outputs = {name: path.read_bytes() for name, path in saved.items()}
            verdict[(key, digest)] = self.workload.check(inp, outputs)
        first: dict[str, str] = {}
        for key, digest, _ in self.ops:
            if digest is not None:
                first.setdefault(key, digest)
        failed, problems = 0, []
        for key, digest, error in self.ops:
            issues = [error] if error else []
            if digest is not None:
                issues += verdict[(key, digest)]
                if digest != first[key]:
                    issues.append("output differs from the first op on this input")
            if issues:
                failed += 1
                problems.append(f"{key}: {'; '.join(issues)}")
        return failed, problems, first


def timed_ops(runner: Runner, seconds: float, start: float, whole_passes: int = 0,
              tracer=None, after_pass=None,
              refs: list[float] | None = None) -> tuple[list[float | None], float]:
    """Ops in input order until ``seconds`` have passed since ``start``. With
    ``whole_passes``, run at least that many passes and stop only at the end
    of a pass. With ``refs``, time the reference loop before every op."""
    samples: list[float | None] = []
    t0 = perf_counter()
    passes = 0
    while True:
        for inp in runner.inputs:
            if refs is not None:
                refs.append(reference())
            samples.append(runner.op(inp, tracer))
            if not whole_passes and perf_counter() - start >= seconds:
                return samples, perf_counter() - t0
        passes += 1
        if after_pass is not None:
            after_pass()
        if passes >= whole_passes and perf_counter() - start >= seconds:
            return samples, perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_samples() -> list[tuple[float, float]]:
    """(cold start seconds, reference loop seconds just before it) pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = []
    for _ in range(SETUP_STARTS):
        ref = reference()
        t0 = perf_counter()
        # no timeout: waiting with one polls every 50 ms and quantizes the samples
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        out.append((perf_counter() - t0, ref))
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError) as e:
        return f"unknown ({type(e).__name__})"
    return sha + ("-dirty" if dirty else "")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    kernels = sys.modules.get("reserves._kernels")
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "using_numba": getattr(kernels, "USING_NUMBA", None),
        "RESERVES_NO_NUMBA": os.environ.get("RESERVES_NO_NUMBA"),
        "seed": seed,
    }


def tail_percentile(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    if len(values) < 20:
        return None
    pct = int(100 * (1 - 10 / len(values)))
    ordered = sorted(values)
    return {"percentile": pct, "value": ordered[math.ceil(len(ordered) * pct / 100) - 1]}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    work = BENCH / ".work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = write_inputs(workload.make_inputs(random.Random(args.seed),
                                                   workload.pool_size), work)
        from reserves import cli
        runner = Runner(workload, inputs, work, cli.main)
        runner.op(inputs[0])  # warm-up: first-call costs stay out of the samples
        if args.trace:
            metrics, details = traced_run(runner, args.seconds)
        else:
            metrics, details = untraced_run(runner, args.seconds)
        failed, problems, digests = runner.referee()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = details.pop("problems", []) + problems
    attempted = len(runner.ops)
    correct = failed == 0 and not problems
    results_path = Path(args.results) if args.results else \
        RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": workload.name, "trace": args.trace, "seconds": args.seconds,
        "stamp": stamp(args.seed), "correct": correct, "attempted": attempted,
        "failed": failed, "fail_ratio": failed / attempted, "problems": problems[:50],
        "metrics": metrics, "output_digests": digests, **details,
    }
    spans = record.pop("spans", None)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(results_path.with_suffix(".spans.jsonl"), "w") as f:
            f.write("# id name start end parent op\n")
            for span in spans:
                f.write(json.dumps(span) + "\n")

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {attempted} ops "
          f"(warm-up included), {failed} failed")
    for name, m in {**metrics, **record.get("raw_metrics", {})}.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}"
              + (f"  [missing: {m['missing']}]" if "missing" in m else ""))
    if not args.trace:
        print(f"  fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for p in problems[:5]:
        print(f"  problem: {p}")
    print(f"  results: {results_path.relative_to(ROOT) if results_path.is_relative_to(ROOT) else results_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def normalized(pairs: list[tuple[float, float]]) -> list[float]:
    """Wall times rescaled to a host on which the reference loop takes
    REF_SECONDS, using the loop's time measured just before each sample."""
    return [t * REF_SECONDS / ref for t, ref in pairs]


def untraced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    reference()  # warm-up
    refs: list[float] = []
    samples, elapsed = timed_ops(runner, seconds, perf_counter(), refs=refs)
    rss = peak_rss_mb()
    pairs = [(s, r) for s, r in zip(samples, refs) if s is not None]
    if not pairs:  # every op failed; the run is reported incorrect
        pairs = [(elapsed, REF_SECONDS)]
    times = [s for s, _ in pairs]
    norm = normalized(pairs)
    setup = setup_samples()
    metrics = {
        "ops_per_s": {"value": len(norm) / sum(norm), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(norm), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(normalized(setup)), "unit": "s"},
    }
    raw = {
        "ops_per_s_raw": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_s_raw": {"value": statistics.median(times), "unit": "s"},
        "setup_s_raw": {"value": statistics.median(t for t, _ in setup), "unit": "s"},
    }
    details = {"raw_metrics": raw, "timed_ops": len(samples), "timed_s": elapsed,
               "op_samples_s": samples, "reference_samples_s": refs,
               "op_tail_s": tail_percentile(norm), "op_tail_s_raw": tail_percentile(times),
               "setup_samples_s": setup}
    return metrics, details


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import tracing

    runner.inputs = runner.inputs[:TRACE_INPUTS]
    start = perf_counter()
    base, base_s = timed_ops(runner, 0, start, whole_passes=1)
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    per_pass: list[dict] = []
    last = [tracer.exact_counts()]

    def after_pass():
        now = tracer.exact_counts()
        per_pass.append({k: now[k] - last[0][k] for k in now})
        last[0] = now

    hooks.install()
    try:
        traced, traced_s = timed_ops(runner, seconds, start, whole_passes=2,
                                     tracer=tracer, after_pass=after_pass)
    finally:
        hooks.remove()
    metrics = tracing.layer_metrics(tracer, len(traced), hooks.missing)
    overhead = (len(traced) / traced_s) / (len(base) / base_s)
    metrics["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    problems = []
    if any(p != per_pass[0] for p in per_pass):
        problems.append(f"exact counters differ between passes: {per_pass}")
    details = {
        "untraced_ops": len(base), "untraced_s": base_s,
        "traced_ops": len(traced), "traced_s": traced_s,
        "exact_counters_per_pass": per_pass,
        "missing_hooks": hooks.missing,
        "search_yield_base": {"searches": tracer.searches,
                              "augmentations": tracer.augmentations},
        "scan_step_samples": len(tracer.steps),
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        "metric_definitions": {k: v[2] for k, v in tracing.LAYER_METRICS.items()},
        "problems": problems, "spans": tracer.spans,
    }
    return metrics, details


def run_all(args) -> int:
    """Each workload in fresh processes: untraced, then traced twice to check
    that exact counters repeat across processes."""
    rows, bad = [], False
    summary = {}
    for name in WORKLOADS:
        runs = {}
        for label, trace in (("e2e", 0), ("trace", 1), ("trace-repeat", 1)):
            path = RESULTS / f"{name}-seed{args.seed}-{label}.json"
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--results", str(path)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad = True
                print(f"{name} {label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                      file=sys.stderr)
            if lines:
                runs[label] = json.loads(lines[-1])
                runs[label]["record"] = json.loads(path.read_text())
        if "trace" in runs and "trace-repeat" in runs:
            a = runs["trace"]["record"]["exact_counters_per_pass"][0]
            b = runs["trace-repeat"]["record"]["exact_counters_per_pass"][0]
            if a != b:
                bad = True
                print(f"{name}: exact counters differ across processes: {a} != {b}",
                      file=sys.stderr)
        for label in ("e2e", "trace"):
            if label not in runs:
                continue
            r = runs[label]
            record = r["record"]
            for metric, m in {**record["metrics"], **record.get("raw_metrics", {})}.items():
                missing = m.get("missing")
                rows.append((name, metric, m["value"], m["unit"],
                             f"missing: {missing}" if missing else ""))
            if label == "e2e":
                rows.append((name, "fail_ratio", r["failed"] / r["attempted"], "ratio",
                             f"{r['failed']} of {r['attempted']} ops"))
        summary[name] = {k: {kk: vv for kk, vv in v.items() if kk != "record"}
                         for k, v in runs.items()}
    print(f"{'workload':14} {'metric':32} {'value':>14} unit")
    for name, metric, value, unit, note in rows:
        print(f"{name:14} {metric:32} {value:14.6g} {unit} {note}".rstrip())
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="every workload, fresh processes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="results file (default under perfbench/results/)")
    args = p.parse_args(argv)
    if not (SRC / "reserves" / "cli.py").is_file():
        print(f"error: {SRC / 'reserves'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
