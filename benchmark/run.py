"""Benchmark runner for the weakhopf toolkit.

    python3 benchmark/run.py --workload check --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded, as one closed-loop
caller: the next operation starts when the previous one returns.  Operations
are issued in whole rounds (every round attempts the same kinds of operation
in the same numbers, in a seeded order; its inputs are made between rounds,
outside the timed operations) until `--seconds` have passed.  Every output
is checked.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1` (spans are then also
written under benchmark/out/).  Run from the repository root; the toolkit is
imported from `src/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PACKAGE = "weakhopf"
MODULES = ("errors", "exactla", "structure", "weakbia", "comod", "tannaka", "decomp",
           "fixtures", "serialize")
SETUP_REPEATS = 5

# latency_tail_ms is this percentile: the highest whole one that leaves at
# least ten operations beyond it in the shortest 30-second run of the
# reference sets (check 1008 operations, decompose-dense 280, reconstruct
# 260) made a fifth shorter, as on a machine a fifth slower.  It is fixed per
# workload so that runs with different operation counts stay comparable.
TAIL_PERCENTILE = {"check": 98, "decompose-dense": 95, "reconstruct": 95}


def load_package():
    """Import the toolkit afresh from src/ and return its modules by name."""
    src = HERE.parent / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


def set_up(workload: str, seed: int, tiny: bool):
    """Import, load the resident objects and make the first round, timed."""
    t0 = time.perf_counter()
    wh = load_package()
    rng = random.Random(f"{workload}:{seed}")
    next_round = workloads.WORKLOADS[workload](wh, rng, tiny)
    ops = next_round()
    return next_round, ops, time.perf_counter() - t0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(next_round, ops, seconds: float, order_rng: random.Random, tracer: Tracer | None):
    latencies = []
    round_rates = []
    attempted = failed = 0
    correct = True
    index = 0
    deadline = time.perf_counter() + seconds
    while True:
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        if tracer is not None:
            tracer.begin_round()
        round_start = len(latencies)
        for i in order:
            op = ops[i]
            attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    result = op.run()
                    dt = time.perf_counter() - t0
                else:
                    result, dt = tracer.run_op(index, op.run)
            except Exception as exc:  # a fault of the toolkit: count it, keep going
                failed += 1
                print(f"operation {op.label} failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                index += 1
            latencies.append(dt)
            if not op.verify(result):
                correct = False
                print(f"operation {op.label} gave a wrong answer: {result!r}", file=sys.stderr)
        round_time = sum(latencies[round_start:])
        if round_time:
            round_rates.append((len(latencies) - round_start) / round_time)
        if time.perf_counter() >= deadline:
            return latencies, round_rates, attempted, failed, correct
        # the next round's inputs, made with the wrappers off so that no span
        # outside an operation is recorded
        if tracer is not None:
            tracer.uninstall()
        ops = next_round()
        if tracer is not None:
            tracer.install()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a small subset of each round (for tests)")
    args = parser.parse_args(argv)
    tiny = args.size == "tiny"

    setup_times = []
    next_round = ops = None
    for _ in range(SETUP_REPEATS):
        next_round = ops = None  # free the previous set-up's objects before the next one
        gc.collect()
        try:
            next_round, ops, seconds = set_up(args.workload, args.seed, tiny)
        except ImportError as exc:
            print(f"cannot load the toolkit: {exc}", file=sys.stderr)
            return 2
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)

    order_rng = random.Random(f"order:{args.workload}:{args.seed}")
    tracer = None
    if args.trace:
        tracer = Tracer(PACKAGE)
        tracer.install()
    try:
        latencies, round_rates, attempted, failed, correct = measure(
            next_round, ops, args.seconds, order_rng, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()

    lat = sorted(latencies)
    # the median over rounds damps bursts of load from other processes
    ops_per_s = statistics.median(round_rates) if round_rates else 0.0
    p50_ms = statistics.median(lat) * 1e3 if lat else 0.0
    tail_q = TAIL_PERCENTILE[args.workload]
    tail_ms = percentile(lat, tail_q) * 1e3 if lat else 0.0
    print(
        f"{args.workload} seed {args.seed}: {attempted} attempted, {failed} failed, "
        f"{len(lat)} timed, {ops_per_s:.3f} op/s, p50 {p50_ms:.2f} ms, "
        f"p{tail_q} {tail_ms:.2f} ms, set-up {setup_s:.3f} s"
        + (" (traced)" if tracer else ""),
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s, "op/s"),
            "latency_p50_ms": (p50_ms, "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics(attempted)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
