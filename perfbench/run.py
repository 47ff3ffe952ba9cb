"""Run one riskfuse benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a riskfuse checkout; riskfuse is imported from its
`src/`. With --trace 0 the last line carries the end-to-end metrics named
in BENCHMARK.json, with --trace 1 the per-layer metrics of a traced run.
The lines before it give the environment stamp, output checks and sample
counts. Exits 2 without a result when the checkout has no riskfuse source.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before anything imports numpy
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent


def describe(result, name) -> str:
    if name not in result["summary"]:
        return ""
    _, raw_median, n = result["summary"][name]
    if raw_median is None:
        return f"  ({n} samples)"
    return f"  (median of {n} samples; uncalibrated {raw_median:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riskfuse" / "__init__.py").is_file():
        print(f"error: no riskfuse source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)

    print("env " + json.dumps(result["env"]))
    print(f"workload {result['workload']} seed {args.seed} trace {args.trace}: "
          f"{result['cycles']} cycles, {result['attempted']} operations, "
          f"{result['failed']} failed, error_rate "
          f"{result['failed'] / max(result['attempted'], 1):.4g}")
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']}" + describe(result, m["name"]))
    for name, unit in ({} if args.trace else bench.REPORTED_ONLY).items():
        if name in result["metrics"]:
            print(f"  {name} = {result['metrics'][name]:.6g} {unit}"
                  + describe(result, name) + ", not gated")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
