"""Compare two sets of benchmark records, refusing unlike pairs.

Usage (from the repository root)::

    python3 perfbench/compare.py --base perfbench/out/A*.json \\
        --new perfbench/out/B*.json

Each argument is a record written by ``perfbench/run.py``.  The sets
must agree on benchmark version, workload, trace mode, scale, point
set and the seeds they ran; otherwise the comparison is refused with
exit code 2, because those results measure different work.  For each
metric the medians and quartiles of both sides are printed, with the
change in the metric's "worse" direction against its bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Fields that must agree for two records to measure the same work.
IDENTITY = ("bench_version", "workload", "trace", "scale", "points")


def _identity(record: dict) -> str:
    return json.dumps({k: record.get(k) for k in IDENTITY}, sort_keys=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--new", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    base = [json.loads(p.read_text()) for p in args.base]
    new = [json.loads(p.read_text()) for p in args.new]

    identities = {_identity(r) for r in base + new}
    if len(identities) != 1:
        print("refused: records differ in version, workload, trace mode, "
              "scale or point set:", file=sys.stderr)
        for ident in sorted(identities):
            print(f"  {ident[:300]}", file=sys.stderr)
        return 2
    seeds_base = Counter(r["seed"] for r in base)
    seeds_new = Counter(r["seed"] for r in new)
    if seeds_base != seeds_new:
        print(f"refused: seeds differ: base {sorted(seeds_base.elements())} "
              f"new {sorted(seeds_new.elements())}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':<36} {'base q1/med/q3':>34} {'new median':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for name in base[0]["metrics"]:
        meta = declared[name]
        b = sorted(r["metrics"][name]["value"] for r in base)
        n = sorted(r["metrics"][name]["value"] for r in new)
        q1, bmed, q3 = _quartiles(b)
        nmed = statistics.median(n)
        if bmed:
            change = (nmed - bmed) / bmed
            worse = change if meta["better"] == "lower" else -change
            worse_s = f"{worse:+.3f}"
        else:
            worse_s = "n/a"
        bound = meta.get("bound")
        print(f"{name:<36} {q1:>11.4g}/{bmed:>10.4g}/{q3:>10.4g} "
              f"{nmed:>12.4g} {worse_s:>9} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
