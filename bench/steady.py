"""Run one workload over several seeds and print each metric's median and
spread (inter-quartile range ÷ median), the figures a benchmark bound is
judged against.

    python3 bench/steady.py --workload spark-short --seeds 1 2 3 4 5
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = defaultdict(list)
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode or not result["correct"]:
            print(out.stderr[-3000:], file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, xs in values.items():
        med = measure.median(xs)
        spread = measure.spread(xs) if len(xs) > 1 and med else float("nan")
        bound = bounds.get(name)
        flag = ("" if bound is None or spread <= bound / 3
                else "  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:40s} median {med:10.4g}  spread {spread:.3f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
