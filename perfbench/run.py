"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-full --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  Every metric is printed by name with its unit, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record of the run (environment, seed, scale, point set, digests,
metrics, and for traced runs the spans) is written under
``perfbench/out/``.  The command exits 1 when any simulated output
fails its digest or conservation check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = {"sim-full": "wl_sim_full", "figures-cold": "wl_figures_cold",
           "serve-mixed": "wl_serve_mixed"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, str(ROOT / "src"))
    import harness

    # Everything the run writes, temporary files included, stays under
    # perfbench/out in the checkout.
    (harness.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(harness.OUT / "tmp")
    import tempfile

    tempfile.tempdir = str(harness.OUT / "tmp")
    module = importlib.import_module(MODULES[args.workload])

    env_before = harness.environment()
    tracer = harness.Tracer(bool(args.trace), uuid.uuid4().hex[:12])
    started = time.time()
    outcome = module.run(args.seed, args.seconds, tracer)
    env_after = harness.environment()

    measured = outcome["layer"] if args.trace else outcome["e2e"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer a workload never reaches reads 0 on it (see README.md).
    not_reached = sorted(set(units) - set(measured))
    if not_reached and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {not_reached}")
    metrics = {name: {"value": float(measured.get(name, 0.0)),
                      "unit": units[name]} for name in units}
    correct = outcome["failed"] == 0 and not outcome["problems"]

    record = {
        "bench_version": harness.BENCH_VERSION, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "env_before": env_before,
        "loadavg_after": env_after["loadavg"],
        "calibration_ms_after": env_after["calibration_ms"],
        "steal_s": env_after["steal_s"] - env_before["steal_s"],
        "not_reached": not_reached,
        "correct": correct, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "problems": outcome["problems"][:50],
        "metrics": metrics, **outcome["record"],
    }
    path = harness.write_record(record, tracer)

    for problem in outcome["problems"][:20]:
        print(f"FAILED: {problem}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>16.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
