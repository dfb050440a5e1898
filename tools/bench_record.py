"""Record the benchmark's end-to-end metrics over several seeds as BENCH_<label>.json.

    python3 tools/bench_record.py LABEL[=CHECKOUT] ...

Each LABEL names one colorica checkout (the current directory when no
CHECKOUT is given).  For each of the ten seeds 31-40, every workload listed
in the first checkout's BENCHMARK.json runs once per checkout with
`python3 perfbench/run.py --seconds 40 --trace 0`.  Seed i runs the labels
in their given order rotated by (i // 2) % k, for k labels, and reversed
when i is odd, so no label always runs in the same slot: over the ten seeds
each of two labels goes first five times, and with three labels each pair
of labels splits first place 5/5 and each label holds each slot at least
twice.
Each BENCH_<label>.json, written to the current directory, holds the median
and quartiles of every end-to-end metric per workload, every run's metrics
and exact counts, and the provenance line of the runs (Python, numpy, CPU,
core count and commit).  Each run is checked as tools/bench_smoke.py checks
one (exit code, a strict JSON object last, `correct`, every end-to-end
metric); the first that fails stops the recording with its checkout,
workload and seed named.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED_BASE = 31
SEEDS = 10
SECONDS = 40.0

_spec = importlib.util.spec_from_file_location("bench_smoke", Path(__file__).with_name("bench_smoke.py"))
bench_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_smoke)


def parse_args(argv):
    p = argparse.ArgumentParser(description="Record BENCH_<label>.json files from perfbench runs.")
    p.add_argument("labels", nargs="+", metavar="LABEL[=CHECKOUT]")
    args = p.parse_args(argv)
    checkouts = {}
    for item in args.labels:
        label, _, path = item.partition("=")
        root = Path(path or ".").resolve()
        if not label or label in checkouts:
            p.error(f"bad or repeated label in {item!r}")
        if not (root / "perfbench" / "run.py").is_file():
            p.error(f"{root} holds no perfbench/run.py")
        checkouts[label] = root
    args.checkouts = checkouts
    return args


def run_once(root: Path, workload: str, seed: int, expected: list[str]) -> dict:
    """One perfbench run: its result line and the provenance line before it.
    Exits naming the run if `bench_smoke.check_run` finds it failed or its
    result without a metric of `expected`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    problems = bench_smoke.check_run(proc.returncode, proc.stdout, expected)
    if problems:
        sys.exit(f"error: {root} {workload} seed {seed}: {'; '.join(problems)}\n{proc.stderr[-2000:]}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "exact": detail["exact"],
        "provenance": detail["provenance"],
    }


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs."""
    out = {}
    for name, unit in runs[0]["units"].items():
        values = sorted(r["metrics"][name] for r in runs)
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def turn(labels: list[str], i: int) -> list[str]:
    """The order seed number i (0-based) runs `labels` in: rotated by
    (i // 2) % len(labels), reversed when i is odd."""
    shift = (i // 2) % len(labels)
    order = labels[shift:] + labels[:shift]
    return order[::-1] if i % 2 else order


def main(argv=None) -> int:
    args = parse_args(argv)
    first = next(iter(args.checkouts.values()))
    spec = json.loads((first / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = [m["name"] for m in spec["end_to_end"]]
    runs = {label: {w: [] for w in workloads} for label in args.checkouts}
    order = list(args.checkouts)
    seeds = [SEED_BASE + i for i in range(SEEDS)]
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for label in turn(order, i):
                run = run_once(args.checkouts[label], workload, seed, expected)
                runs[label][workload].append(run)
                print(f"{label} {workload} seed {seed}: op_s.p50 {run['metrics']['op_s.p50']:.4f}", file=sys.stderr)
    for label, by_workload in runs.items():
        any_run = by_workload[workloads[0]][0]
        provenance = {k: v for k, v in any_run["provenance"].items() if k != "seed"}
        record = {
            "label": label,
            "provenance": provenance,
            "seconds": SECONDS,
            "seeds": seeds,
            "workloads": {
                w: {"metrics": summarize(rs), "runs": [{k: v for k, v in r.items() if k != "units"} for r in rs]}
                for w, rs in by_workload.items()
            },
        }
        path = Path(f"BENCH_{label}.json")
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
