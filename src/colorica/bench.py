"""Repeated-run benchmark driver with success tallies per graph and algorithm.

A trial succeeds when the returned colouring, re-checked against the graph
here rather than trusted from solver bookkeeping, is conflict-free and uses
no more colours than the instance's known chromatic number.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import astuple, dataclass, replace

from .coloring import count_conflicts, distinct_colours
from .dica import DicaParams, run_dica
from .ga import GaParams, run_ga
from .graphs import Graph, GraphMeta
from .oracle import OracleLimitExceeded, chromatic_number_exact

ALGORITHMS = ("dica", "ga")
# the harness defaults, which the CLI's bench flags take too
DEFAULT_RUNS = 20
DEFAULT_SEED_BASE = 1
FORMATS = ("table", "csv", "json")

CSV_HEADER = (
    "graph,algorithm,seed,success,conflicts,colours_used,best_cost,iterations,elapsed_ms"
)


@dataclass(frozen=True)
class TrialRecord:
    """One solve's report row: its fields fill CSV_HEADER's columns, in order."""

    graph_name: str
    algorithm: str
    seed: int
    success: bool
    conflicts: int
    colours_used: int
    best_cost: float
    iterations_executed: int
    elapsed_ms: float


@dataclass(frozen=True)
class BenchReport:
    graph_name: str
    algorithm: str
    runs: int
    successes: int
    failures: int
    mean_best_cost: float
    min_best_cost: float
    mean_colours_used: float | None
    mean_elapsed_ms: float


def resolve_chromatic(g: Graph, meta: GraphMeta) -> int:
    """Known chromatic number from metadata, else the exact oracle; error if neither."""
    if meta.known_chromatic is not None:
        chi = meta.known_chromatic
        if not 1 <= chi <= g.n:
            raise ValueError(f"chromatic number {chi} of {meta.name} is not in 1..{g.n}")
        return chi
    try:
        return chromatic_number_exact(g)
    except OracleLimitExceeded as exc:
        raise ValueError(
            f"chromatic number of {meta.name} is not known and the exact "
            f"search refused it: {exc}"
        ) from exc


def run_trials(
    g: Graph,
    meta: GraphMeta,
    algo: str,
    base_params,
    runs: int = DEFAULT_RUNS,
    seed_base: int = DEFAULT_SEED_BASE,
) -> list[TrialRecord]:
    """Run `runs` independent solves seeded seed_base..seed_base+runs-1, judged
    against `meta`'s chromatic number, else the exact oracle's."""
    solver, kind = (run_dica, DicaParams) if algo == "dica" else (run_ga, GaParams)
    if algo not in ALGORITHMS or not isinstance(base_params, kind):
        raise ValueError(f"need 'dica' with DicaParams or 'ga' with GaParams, got {algo!r} with {type(base_params).__name__}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    chi = resolve_chromatic(g, meta)
    records: list[TrialRecord] = []
    for i in range(runs):
        seed = seed_base + i
        params = replace(base_params, rng_seed=seed)
        t0 = time.perf_counter()
        result = solver(g, params)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        conflicts = count_conflicts(g, result.best)
        used = distinct_colours(result.best)
        records.append(
            TrialRecord(
                graph_name=meta.name,
                algorithm=algo,
                seed=seed,
                success=conflicts == 0 and used <= chi,
                conflicts=conflicts,
                colours_used=used,
                best_cost=result.best_cost,
                iterations_executed=result.decades_executed,
                elapsed_ms=elapsed_ms,
            )
        )
    return records


def aggregate(records: list[TrialRecord]) -> list[BenchReport]:
    """Group records into one report per (graph, algorithm), first-seen order."""
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[tuple[str, str], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.graph_name, r.algorithm), []).append(r)
    reports = []
    for (name, algo), rs in groups.items():
        succ = [r for r in rs if r.success]
        reports.append(
            BenchReport(
                graph_name=name,
                algorithm=algo,
                runs=len(rs),
                successes=len(succ),
                failures=len(rs) - len(succ),
                mean_best_cost=sum(r.best_cost for r in rs) / len(rs),
                min_best_cost=min(r.best_cost for r in rs),
                mean_colours_used=(
                    sum(r.colours_used for r in succ) / len(succ) if succ else None
                ),
                mean_elapsed_ms=sum(r.elapsed_ms for r in rs) / len(rs),
            )
        )
    return reports


def _fmt_num(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:g}"


def emit_report(records: list[TrialRecord], format: str = FORMATS[0]) -> str:
    """Render records as an aligned table, exact-schema CSV, or JSON array."""
    if not records:
        raise ValueError("no records to report")
    columns = CSV_HEADER.split(",")
    rows = [dict(zip(columns, astuple(r))) for r in records]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            row["success"] = str(row["success"]).lower()
            row["best_cost"] = _fmt_num(row["best_cost"])
            row["elapsed_ms"] = f"{row['elapsed_ms']:.3f}"
            writer.writerow(row)
        return buf.getvalue()
    if format == "json":
        return json.dumps(rows, indent=2)
    if format == "table":
        header = (
            "graph",
            "algorithm",
            "runs",
            "success(failure)",
            "mean_cost",
            "min_cost",
            "mean_colours",
            "mean_ms",
        )
        rows = [header]
        for rep in aggregate(records):
            rows.append(
                (
                    rep.graph_name,
                    rep.algorithm,
                    str(rep.runs),
                    f"{rep.successes}({rep.failures})",
                    _fmt_num(round(rep.mean_best_cost, 3)),
                    _fmt_num(rep.min_best_cost),
                    _fmt_num(round(rep.mean_colours_used, 3))
                    if rep.mean_colours_used is not None
                    else "-",
                    f"{rep.mean_elapsed_ms:.1f}",
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be one of {', '.join(FORMATS)}; got {format!r}")
