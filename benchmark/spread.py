"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --seeds 1-10
    python3 benchmark/spread.py --workload check,reconstruct --seeds 1-5

Runs `run.py` once per workload and seed, one run at a time (every workload
by default), and prints for each workload and metric the median and the
distance between the first and third quartiles (`statistics.quantiles(values,
n=4)`) as a share of the median, next to the metric's bound from
BENCHMARK.json, and the share of failed operations per run.  Results are
appended to benchmark/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=",".join(w["name"] for w in SPEC["workloads"]),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workload.split(","):
        print(f"== {workload}", flush=True)
        if spread(workload, seeds_from(args.seeds)):
            return 1
    return 0


def spread(workload: str, seeds: list[int]) -> int:
    """Untraced runs of SPEC["run_seconds"] each, one per seed."""
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(HERE / "out" / "spread.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    names = list(runs[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / med if med else float("nan")
        else:
            iqr = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if iqr <= bound / 3 else ("  WITHIN BOUND" if iqr <= bound else "  OVER BOUND"))
        print(f"{name:28s} median {med:12.5g}  iqr/median {iqr:7.4f}  bound {bound}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
