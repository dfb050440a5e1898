"""Compare two BENCH_<label>.json records, workload by workload.

    python3 tools/bench_compare.py PARENT.json CHANGE.json

For every workload in both records and every end-to-end metric listed in the
BENCHMARK.json beside this script's tools/ directory, it prints one line:
the parent's and the change's medians and the change's relative difference;
the pairs the change won, its runs paired with the parent's by seed, a tie
counting for neither side; the parent's interquartile range (q3 - q1) and
whether the medians differ by more than it; and BOUND where the change is
worse than the parent by more than the metric's `bound`, read as a fraction
of the parent's median.  `better` says which direction is better.  It exits
1 when any row is marked BOUND and 0 otherwise, after printing every row.
Both records are as tools/bench_record.py writes them.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per workload of `parent` also in `change` and per metric of
    `end_to_end` (BENCHMARK.json's list) that both summarize."""
    rows = []
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            continue
        by_seed = {run["seed"]: run["metrics"] for run in before["runs"]}
        for metric in end_to_end:
            name = metric["name"]
            if name not in before["metrics"] or name not in after["metrics"]:
                continue
            sign = 1 if metric["better"] == "higher" else -1
            old, new = before["metrics"][name]["median"], after["metrics"][name]["median"]
            # how much better the change is in each pair: > 0 won, < 0 lost, 0 tied
            gains = [
                sign * (run["metrics"][name] - by_seed[run["seed"]][name])
                for run in after["runs"]
                if name in run["metrics"] and name in by_seed.get(run["seed"], {})
            ]
            iqr = before["metrics"][name]["q3"] - before["metrics"][name]["q1"]
            worse = sign * (old - new)
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": old,
                "change": new,
                "relative": (new - old) / abs(old) if old else None,
                "won": sum(g > 0 for g in gains),
                "lost": sum(g < 0 for g in gains),
                "pairs": len(gains),
                "parent_iqr": iqr,
                "beyond_iqr": abs(new - old) > iqr,
                "over_bound": worse > 0 and (not old or worse / abs(old) > metric["bound"]),
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    """The rows as a fixed-width table, one line each."""
    lines = [
        f"{'workload':14} {'metric':12} {'parent':>12} {'change':>12} {'rel':>8} "
        f"{'won':>6} {'lost':>5} {'parent IQR':>11} {'>IQR':>5}  flag"
    ]
    for r in rows:
        rel = "n/a" if r["relative"] is None else f"{r['relative']:+.1%}"
        lines.append(
            f"{r['workload']:14} {r['metric']:12} {r['parent']:12.5g} {r['change']:12.5g} {rel:>8} "
            f"{r['won']:>3}/{r['pairs']:<2} {r['lost']:>5} {r['parent_iqr']:11.3g} "
            f"{'yes' if r['beyond_iqr'] else 'no':>5}  {'BOUND' if r['over_bound'] else ''}".rstrip()
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two BENCH_<label>.json records.")
    p.add_argument("parent", type=Path, help="the parent's record")
    p.add_argument("change", type=Path, help="the change's record")
    args = p.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = (json.loads(path.read_text()) for path in (args.parent, args.change))
    rows = compare(parent, change, end_to_end)
    print(format_rows(rows))
    return int(any(r["over_bound"] for r in rows))


if __name__ == "__main__":
    sys.exit(main())
