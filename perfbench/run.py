#!/usr/bin/env python3
"""cascadekit benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-stream --seed 1 --seconds 30 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it carries provenance (seed, input digests, Python, numpy,
core and BLAS thread counts).  The package is imported from this checkout's
``src/``; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# Stage matrices are at most a few hundred columns wide, so BLAS threads
# only add hand-off cost and noise; one thread is also <= nproc everywhere.
# Set before numpy is first imported.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cascadekit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cascadekit" / "__init__.py").is_file():
        print(f"error: no cascadekit sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import cascadekit

    if Path(cascadekit.__file__).resolve().parent != (src / "cascadekit").resolve():
        print(f"error: imported cascadekit from {cascadekit.__file__}, not {src}", file=sys.stderr)
        return 2

    from bench_runner import measure
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), WORK / f"{args.workload}-{os.getpid()}"
    )
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: workload produced no value for {missing}", file=sys.stderr)
        return 2
    info = result["info"]
    line = {
        "correct": result["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {
            m["name"]: {"value": float(result["metrics"][m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    record = WORK / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, **line}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
