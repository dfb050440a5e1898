"""Compare two BENCH_<label>.json records, workload by workload.

    python3 tools/bench_compare.py PARENT.json CHANGE.json [--control CONTROL.json]

For every workload in both records and every end-to-end metric listed in the
BENCHMARK.json beside this script's tools/ directory, it prints one line:
the parent's and the change's medians and the change's relative difference;
the pairs the change won, its runs paired with the parent's by seed, a tie
counting for neither side; the parent's interquartile range (q3 - q1) and
whether the medians differ by more than it; BOUND where the change is
worse than the parent by more than the metric's `bound`, read as a fraction
of the parent's median; and GAIN where the change's median is better, it won
at least 9 in 10 of the pairs, and the medians differ by more than the
parent's interquartile range.  `better` says which direction is better.
Given a control, a record of a second checkout of the parent made in the same
session, each row also shows the control's relative difference from the
parent, and GAIN then also needs the change's median further from the
parent's than the control's is: a smaller gain does not tell the change from
the drift between two checkouts of the same code.  It exits 1 when any row is
marked BOUND and 0 otherwise, after printing every row.  The records are as
tools/bench_record.py writes them.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(parent: dict, change: dict, end_to_end: list[dict], control: dict | None = None) -> list[dict]:
    """One row per workload of `parent` also in `change` and per metric of
    `end_to_end` (BENCHMARK.json's list) that both summarize.  Given `control`,
    each row holds its relative difference from the parent ("control", None
    where it lacks the metric), and a row is a gain only past it."""
    rows = []
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            continue
        beside = {} if control is None else control["workloads"].get(workload, {}).get("metrics", {})
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
            won = sum(g > 0 for g in gains)
            ctl = beside[name]["median"] if name in beside else None
            past_control = control is None or (ctl is not None and abs(new - old) > abs(ctl - old))
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": old,
                "change": new,
                "relative": (new - old) / abs(old) if old else None,
                "won": won,
                "lost": sum(g < 0 for g in gains),
                "pairs": len(gains),
                "parent_iqr": iqr,
                "beyond_iqr": abs(new - old) > iqr,
                "over_bound": worse > 0 and (not old or worse / abs(old) > metric["bound"]),
                "gain": worse < 0 and 10 * won >= 9 * len(gains) and abs(new - old) > iqr and past_control,
            })
            if control is not None:
                rows[-1]["control"] = (ctl - old) / abs(old) if old and ctl is not None else None
    return rows


def _percent(relative: float | None) -> str:
    return "n/a" if relative is None else f"{relative:+.1%}"


def format_rows(rows: list[dict]) -> str:
    """The rows as a fixed-width table, one line each; with a control, its
    relative difference follows the change's."""
    with_control = any("control" in r for r in rows)
    lines = [
        f"{'workload':14} {'metric':12} {'parent':>12} {'change':>12} {'rel':>8} "
        + (f"{'control':>8} " if with_control else "")
        + f"{'won':>6} {'lost':>5} {'parent IQR':>11} {'>IQR':>5}  flag"
    ]
    for r in rows:
        ctl = f"{_percent(r.get('control')):>8} " if with_control else ""
        lines.append(
            f"{r['workload']:14} {r['metric']:12} {r['parent']:12.5g} {r['change']:12.5g} {_percent(r['relative']):>8} "
            f"{ctl}{r['won']:>3}/{r['pairs']:<2} {r['lost']:>5} {r['parent_iqr']:11.3g} "
            f"{'yes' if r['beyond_iqr'] else 'no':>5}  {'BOUND' if r['over_bound'] else 'GAIN' if r['gain'] else ''}".rstrip()
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two BENCH_<label>.json records.")
    p.add_argument("parent", type=Path, help="the parent's record")
    p.add_argument("change", type=Path, help="the change's record")
    p.add_argument("--control", type=Path, help="a record of a second checkout of the parent, made in the same session")
    args = p.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = (json.loads(path.read_text()) for path in (args.parent, args.change))
    control = None if args.control is None else json.loads(args.control.read_text())
    rows = compare(parent, change, end_to_end, control)
    print(format_rows(rows))
    return int(any(r["over_bound"] for r in rows))


if __name__ == "__main__":
    sys.exit(main())
