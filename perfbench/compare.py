#!/usr/bin/env python3
"""Compare two benchmark results files, typically a parent and a change.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Both files must come from the same workload and seed, and from the same
numba state: jitted and pure runs are never compared. Prints whether the CLI
output of every input both runs reached is byte-identical (by digest) and
each metric's ratio after/before. Exits 0 when the outputs are identical, 1
when they differ and 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(open(path).read()) for path in argv)
    for key in ("using_numba", "RESERVES_NO_NUMBA", "seed"):
        if before["stamp"][key] != after["stamp"][key]:
            print(f"error: {key} differs ({before['stamp'][key]!r} vs "
                  f"{after['stamp'][key]!r}); runs are not comparable", file=sys.stderr)
            return 2
    if before["workload"] != after["workload"]:
        print("error: different workloads", file=sys.stderr)
        return 2
    print(f"{before['workload']} seed {before['stamp']['seed']}: "
          f"{before['stamp']['git_sha']} -> {after['stamp']['git_sha']}")
    a, b = before["output_digests"], after["output_digests"]
    shared = sorted(a.keys() & b.keys())
    differing = [k for k in shared if a[k] != b[k]]
    print(f"outputs: {len(shared) - len(differing)} of {len(shared)} shared inputs "
          "byte-identical" + (f"; differ on {', '.join(differing)}" if differing else ""))
    metrics_after = {**after["metrics"], **after.get("raw_metrics", {})}
    for name, m in {**before["metrics"], **before.get("raw_metrics", {})}.items():
        other = metrics_after.get(name)
        if other is None or "missing" in m or "missing" in other:
            print(f"  {name}: not comparable (missing on one side)")
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"  {name}: {m['value']:.6g} -> {other['value']:.6g} {m['unit']} "
              f"(x{ratio:.3f})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
