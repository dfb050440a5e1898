"""Run one colorica benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dica-queen7 --seed 1 --seconds 40 --trace 0

Run it from the root of a colorica checkout; the library is imported from
`src/`, nothing is installed or built.  Op i of a run uses solver seeds from
`seed + i * seeds_per_op` on, the way `colorica bench --seed-base` numbers
its trials.  The run repeats ops until `--seconds` have passed and at least
the workload's minimum number of ops is done; exact counts cover only that
minimum, so they repeat for a given seed however fast the program is.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The line before it holds provenance,
the exact counts and the first errors.  See README.md beside this file.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
SETUP_REPS = 10
# past this, stop adding ops even below the minimum, so a run ends within 180 s
HARD_LIMIT_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one colorica benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_library() -> str:
    """Import colorica from this checkout's src/ and return the numpy version."""
    src = ROOT / "src"
    if not (src / "colorica" / "__init__.py").is_file():
        sys.exit(f"error: no colorica sources under {src}; run from the root of a colorica checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import numpy
    import colorica

    if Path(colorica.__file__).resolve().parent != (src / "colorica").resolve():
        sys.exit(f"error: colorica was imported from {colorica.__file__}, not from {src}")
    return numpy.__version__


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD read from .git directly; a checkout without .git reports 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class OpRun:
    seconds: float
    outcome: object
    stats: object = None
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


def attempt(workload, probe, seed: int, traced: bool = False, op_id=None) -> OpRun:
    """Run and time one op, then check it outside the timed region."""
    from workloads import Outcome

    stats = None
    t0 = time.perf_counter()
    try:
        if traced:
            raw, stats = probe.tracer.run_op(op_id, lambda: workload.op(seed))
        else:
            raw = workload.op(seed)
        seconds = stats.seconds if traced else time.perf_counter() - t0
        outcome = workload.verify(raw)
    except Exception as exc:  # an op that raises is counted as failed, and the run goes on
        seconds = time.perf_counter() - t0
        probe.take_solves()
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(0, [], [f"op seed {seed} raised {exc!r}"], None)
    return OpRun(seconds, outcome, stats)


def measure(workload, probe, args, min_ops: int):
    """Timed ops until the run's time is up; with tracing, each op is repeated traced.

    The reference kernel runs between ops; each op is scaled by the mean of
    the reference times just before and just after it.  Without tracing,
    SETUP_REPS set-up probes are spread evenly over the run, so that they
    sample the same mix of machine states as the ops.
    """
    from reference import NOMINAL_S, reference_seconds

    ref = reference_seconds()

    def scaled(run: OpRun) -> OpRun:
        nonlocal ref
        after = reference_seconds()
        run.factor = 2 * NOMINAL_S / (ref + after)
        ref = after
        return run

    start = time.perf_counter()
    plain, traced, setup_times = [], [], []
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (i >= min_ops or elapsed >= HARD_LIMIT_S):
            break
        if not args.trace and len(setup_times) < SETUP_REPS and (
            elapsed >= len(setup_times) * args.seconds / SETUP_REPS
        ):
            setup_times.append(setup_seconds(args))
            ref = reference_seconds()
        seed = args.seed + i * workload.seeds_per_op
        run = scaled(attempt(workload, probe, seed))
        if args.trace:
            probe.set_traced(True)
            again = scaled(attempt(workload, probe, seed, traced=True, op_id=i))
            probe.set_traced(False)
            probe.tracer.record = False
            run.outcome.errors.extend(again.outcome.errors)
            traced.append(again)
            if again.outcome.fingerprint != run.outcome.fingerprint:
                run.outcome.errors.append(f"op seed {seed} differed when traced")
        plain.append(run)
        i += 1
    if not args.trace:
        again = attempt(workload, probe, args.seed)
        if again.outcome.fingerprint != plain[0].outcome.fingerprint:
            plain[0].outcome.errors.append(f"op seed {args.seed} was not bit-identical when repeated")
    return plain, traced, setup_times


def exact_counts(counted) -> dict:
    solves = [c for r in counted for c in r.outcome.solves]
    return {
        "ops": len(counted),
        "evaluations": sum(r.outcome.evaluations for r in counted),
        "dica.decades": sum(c.solve.result.decades_executed for c in solves if c.solve.algo == "dica"),
        "ga.generations": sum(c.solve.result.decades_executed for c in solves if c.solve.algo == "ga"),
        "solves": len(solves),
        "successes": sum(c.check.success for c in solves),
    }


def setup_seconds(args) -> float:
    """Raw set-up time of a fresh interpreter, from its first statement to a ready workload."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def end_to_end(plain, setup_times) -> dict:
    """Set-up is scaled by the run's median speed factor: one set-up is too short to
    line up with the reference runs around it, but the run's slow spells do show in both."""
    failed = sum(1 for r in plain if r.outcome.errors)
    factor = statistics.median(r.factor for r in plain)
    return {
        "setup_s": (statistics.median(setup_times) * factor, "s"),
        "op_s.p50": (statistics.median(r.scaled for r in plain), "s"),
        "evals_per_s": (statistics.median(r.outcome.evaluations / r.scaled for r in plain), "1/s"),
        "ok_rate": (1.0 - failed / len(plain), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _improving(histories) -> float:
    """Iterations whose best cost fell below the previous one, over all iterations."""
    better = sum(sum(1 for a, b in zip(h, h[1:]) if b < a) for h in histories)
    return _ratio(better, sum(len(h) for h in histories))


def per_layer(probe, setup_stats, plain, traced, counted_n: int) -> dict:
    ok = [t for t in traced if t.stats is not None]
    stats = [t.stats for t in ok]
    counted = stats[:counted_n]
    op_seconds = sum(t.scaled for t in ok)
    metrics = {}
    for name in probe.present:
        if any(s.calls.get(name) for s in stats):
            calls = _ratio(sum(s.calls.get(name, 0) for s in counted), len(counted))
            n = sum(s.calls.get(name, 0) for s in stats)
            self_s = sum(t.stats.self_s.get(name, 0.0) * t.factor for t in ok)
            share = _ratio(self_s, op_seconds)
        else:
            # called only while setting up: reported per set-up, as a share of set-up time
            calls = n = setup_stats.calls.get(name, 0)
            self_s = setup_stats.self_s.get(name, 0.0)
            share = _ratio(self_s, setup_stats.seconds)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.us"] = (_ratio(self_s, n) * 1e6, "us")
        metrics[f"{name}.share"] = (share, "ratio")

    def total(key, table="calls"):
        return sum(getattr(s, table).get(key, 0) for s in counted)

    present = set(probe.present)
    if "dica.exchange_if_better" in present:
        metrics["dica.exchange_if_better.hit_ratio"] = (
            _ratio(total("dica.exchange_if_better.promotions", "extra"), total("dica.exchange_if_better")),
            "ratio",
        )
    if {"dica.revolve", "dica.assimilate"} <= present:
        metrics["dica.revolve.per_assimilate"] = (
            _ratio(total("dica.revolve"), total("dica.assimilate")),
            "ratio",
        )
    if "dica.unite_similar_empires" in present:
        metrics["dica.unite_similar_empires.merged"] = (
            _ratio(total("dica.unite_similar_empires.merged", "extra"), len(counted)),
            "count",
        )
    if {"ga.crossover_2pt", "ga.roulette_select"} <= present:
        metrics["ga.crossover_2pt.per_pair"] = (
            _ratio(total("ga.crossover_2pt"), total("ga.roulette_select")),
            "ratio",
        )

    runs = plain[:counted_n]
    solves = [c for r in runs for c in r.outcome.solves]
    dica = [c.solve for c in solves if c.solve.algo == "dica"]
    ga = [c.solve for c in solves if c.solve.algo == "ga"]
    counts = exact_counts(runs)
    metrics["dica.decades"] = (_ratio(counts["dica.decades"], len(runs)), "count")
    metrics["dica.empires_final"] = (_ratio(sum(s.empires_final for s in dica), len(dica)), "count")
    metrics["ga.generations"] = (_ratio(counts["ga.generations"], len(runs)), "count")
    metrics["dica.improving_ratio"] = (_improving([s.result.cost_history for s in dica]), "ratio")
    metrics["ga.improving_ratio"] = (_improving([s.result.cost_history for s in ga]), "ratio")
    metrics["success_rate"] = (_ratio(counts["successes"], counts["solves"]), "ratio")
    metrics["best_cost.mean"] = (_ratio(sum(c.check.cost for c in solves), len(solves)), "cost")
    metrics["tracing.overhead"] = (
        statistics.median(t.scaled for t in traced) / statistics.median(r.scaled for r in plain) - 1.0,
        "ratio",
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    numpy_version = load_library()
    from probe import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    factory, min_ops = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        factory(None).setup(OUT_DIR)
        print(time.perf_counter() - T0)
        return 0

    probe = Probe()
    workload = factory(probe)
    workload.setup(OUT_DIR)
    setup_stats = None
    if args.trace:
        probe.set_traced(True)
        probe.tracer.record = True
        _, setup_stats = probe.tracer.run_op("setup", lambda: workload.setup(OUT_DIR))
        probe.set_traced(False)

    plain, traced, setup_times = measure(workload, probe, args, min_ops)
    counted_n = min(min_ops, len(plain))
    if args.trace:
        metrics = per_layer(probe, setup_stats, plain, traced, counted_n)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        probe.tracer.write_spans(spans)
    else:
        metrics = end_to_end(plain, setup_times)
        spans = None
    probe.restore()

    failed = sum(1 for r in plain if r.outcome.errors)
    errors = [e for r in plain for e in r.outcome.errors]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "samples": len(plain),
        "setup_s_samples": setup_times,
        "op_s_raw.p50": statistics.median(r.seconds for r in plain),
        "speed_factor.p50": statistics.median(r.factor for r in plain),
        "exact": exact_counts(plain[:counted_n]),
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "commit": _git_commit(),
        },
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        "errors": errors[:10],
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(plain),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
