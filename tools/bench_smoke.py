"""Run every benchmark workload once, briefly, and check what each run prints.

    python3 tools/bench_smoke.py

Run it from the root of a colorica checkout.  Each workload listed in
BENCHMARK.json runs once for SECONDS seconds with seed SEED, through
`python3 perfbench/run.py` at `--trace 0` and again at `--trace 1`.  A run
passes when it exits 0, its last line of standard output is one strict JSON
object (NaN and Infinity are refused), its `correct` is true, and its metrics
hold every metric that BENCHMARK.json lists for its trace mode: the
end-to-end ones at `--trace 0`, the per-layer ones at `--trace 1`.  Prints
one line per run and exits 1 if any run fails.
Uses the standard library only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 1
SEED = 1


def _refuse(name: str):
    raise ValueError(f"{name} is not JSON")


def check_run(returncode: int, stdout: str, expected: list[str]) -> list[str]:
    """What is wrong with one run, given its exit code, its output and the
    metric names its trace mode must report; empty when nothing is."""
    if returncode != 0:
        return [f"exited {returncode}"]
    lines = stdout.strip().splitlines()
    if not lines:
        return ["printed nothing"]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse)
    except ValueError as exc:
        return [f"last line is not strict JSON ({exc}): {lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {lines[-1][:200]!r}"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["no metrics object"]
    missing = [name for name in expected if name not in metrics]
    if missing:
        problems.append(f"missing metrics: {', '.join(missing)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(SECONDS), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            problems = check_run(proc.returncode, proc.stdout, expected[trace])
            print(f"{workload} --trace {trace}: {'; '.join(problems) or 'ok'}")
            if problems:
                failed += 1
                print(proc.stderr[-2000:], file=sys.stderr)
    print(f"{failed} of {2 * len(spec['workloads'])} runs failed" if failed else "all runs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
