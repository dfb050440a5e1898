"""Command-line front end: generate instances, solve, benchmark, exact-check.

Exit codes: 0 success, 1 usage/parse/parameter errors, 2 a solve whose best
colouring still has conflicts, 3 exact-search refusal.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import typing
from dataclasses import fields
from pathlib import Path

from .bench import ALGORITHMS, DEFAULT_RUNS, DEFAULT_SEED_BASE, FORMATS, emit_report, resolve_chromatic, run_trials
from .coloring import format_colouring
from .dica import DicaParams, run_dica
from .engine import SearchParams
from .ga import GaParams, run_ga
from .graphs import (
    GENERATORS,
    DimacsFormatError,
    Graph,
    GraphMeta,
    family_chromatic,
    parse_dimacs,
    write_dimacs,
)
from .oracle import OracleLimit, OracleLimitExceeded, chromatic_number_exact, exists_colouring

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFLICTS = 2
EXIT_ORACLE_REFUSED = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's stock exit code is reserved for solve results)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    # a None default means "not given"; the flag's help says what that does
    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


# engine parameter -> (flag, help); a flag's type and default are its field's.
# known_chromatic comes from solve's --chromatic or bench's instance instead
_ENGINE_FLAGS = {
    "rng_seed": ("--seed", "RNG seed"),
    "population_size": ("--population-size", "countries per run"),
    "k_max": ("--k-max", "initial colour range (default: max degree + 1)"),
    "penalty": ("--penalty", "conflict penalty (default: vertex count)"),
    "early_stop_at_chromatic": ("--early-stop", "stop once a proper colouring within the known chromatic number appears"),
    "imperialist_fraction": ("--imperialist-fraction", "share of the population made imperialists"),
    "decades": ("--decades", "iteration budget"),
    "revolution_rate": ("--revolution-rate", "per-colony swap probability"),
    "uniting_threshold": ("--uniting-threshold", "normalized-distance bound for merging empires"),
    "damp_ratio": ("--damp-ratio", "per-decade decay of the revolution rate"),
    "xi": ("--xi", "mean-colony-cost weight in empire totals"),
    "generations": ("--generations", "iteration budget"),
    "mutation_rate": ("--mutation-rate", "per-child mutation probability"),
    "selection_probability": ("--selection-probability", "crossover (vs clone) probability per parent pair"),
    "elitism_count": ("--elitism", "best individuals carried over unchanged"),
}


def _add_field_flags(group, cls, skip=()) -> None:
    """Add the flag of each field of `cls` not named in `skip`."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in _ENGINE_FLAGS and f.name not in skip:
            flag, help_text = _ENGINE_FLAGS[f.name]
            # an `int | None` field takes int values, and a bool field is a switch
            kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            group.add_argument(flag, default=f.default, help=help_text, **how)


def _add_common_solver_flags(p: argparse.ArgumentParser, skip=()) -> None:
    _add_field_flags(p, SearchParams, skip)
    shared = {f.name for f in fields(SearchParams)}
    grp_d = p.add_argument_group("dica options")
    _add_field_flags(grp_d, DicaParams, shared)
    grp_d.add_argument("--assimilation-coefficient", type=float, default=None, help="accepted for compatibility; has no effect")
    grp_g = p.add_argument_group("ga options")
    _add_field_flags(grp_g, GaParams, shared)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colorica",
        description="Graph-colouring search: imperialist-style and genetic solvers, "
        "instance generators, benchmarks, and an exact checker for small graphs.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="{gen,solve,bench,oracle}")
    sub.required = True

    p_gen = sub.add_parser(
        "gen",
        help="write a generated instance as a DIMACS file",
        formatter_class=_HelpFormatter,
    )
    p_gen.add_argument("family", choices=sorted(GENERATORS), help="instance family")
    p_gen.add_argument("param", type=int, help="size parameter (vertices, level, or board side)")
    p_gen.add_argument("--out", default=None, help="output path (default: <family>-<param>.col)")

    p_solve = sub.add_parser(
        "solve",
        help="run one seeded solve on a DIMACS file",
        formatter_class=_HelpFormatter,
    )
    p_solve.add_argument("graph", help="DIMACS .col file")
    p_solve.add_argument(
        "--chromatic",
        type=int,
        default=None,
        help="known chromatic number (needed for --early-stop)",
    )
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="dica", help="solver to run")
    _add_common_solver_flags(p_solve)

    p_bench = sub.add_parser(
        "bench",
        help="repeated seeded runs with success tallies",
        formatter_class=_HelpFormatter,
        # else a --seed meant for solve would be read as --seed-base
        allow_abbrev=False,
    )
    p_bench.add_argument(
        "instances",
        nargs="+",
        metavar="INSTANCE",
        help="DIMACS file path or generator spec family:param (e.g. queen:5)",
    )
    p_bench.add_argument("--runs", type=int, default=DEFAULT_RUNS, help="trials per (instance, algorithm)")
    p_bench.add_argument("--seed-base", type=int, default=DEFAULT_SEED_BASE, help="first seed; trial i uses seed-base + i")
    p_bench.add_argument("--format", choices=FORMATS, default=FORMATS[0], help="report format")
    p_bench.add_argument(
        "--algos",
        choices=(*ALGORITHMS, "both"),
        default="both",
        help="which solvers to benchmark",
    )
    p_bench.add_argument(
        "--chromatic",
        action="append",
        default=[],
        metavar="NAME=K",
        help="declare a known chromatic number for an instance (repeatable)",
    )
    # bench seeds each trial from --seed-base, so it takes no --seed
    _add_common_solver_flags(p_bench, skip=("rng_seed",))

    p_oracle = sub.add_parser(
        "oracle",
        help="exact chromatic number or k-colourability of a small graph",
        formatter_class=_HelpFormatter,
    )
    p_oracle.add_argument("graph", help="DIMACS .col file")
    p_oracle.add_argument("--k", type=int, default=None, help="check k-colourability instead of computing the chromatic number")
    p_oracle.add_argument("--max-vertices", type=int, default=OracleLimit.max_vertices, help="refuse graphs larger than this")
    p_oracle.add_argument("--node-budget", type=int, default=OracleLimit.node_budget, help="refuse after this many search nodes")

    return parser


# the parser depends on nothing that varies between calls, so `main` builds it
# once per process; argparse reads it without changing it
_parser = functools.cache(build_parser)


def _warn_vestigial(ns: argparse.Namespace) -> None:
    if ns.assimilation_coefficient is not None:
        logger.warning("--assimilation-coefficient is accepted for compatibility and has no effect")


def _engine_params(ns: argparse.Namespace, algo: str, known_chromatic: int | None):
    """The DicaParams or GaParams that the parsed engine flags describe."""
    cls = DicaParams if algo == "dica" else GaParams
    names = {f.name for f in fields(cls)}
    # argparse names each flag's attribute after the flag: --early-stop -> early_stop;
    # a field whose flag the subcommand lacks keeps its default
    attrs = {name: flag[2:].replace("-", "_") for name, (flag, _) in _ENGINE_FLAGS.items() if name in names}
    given = {name: getattr(ns, attr) for name, attr in attrs.items() if hasattr(ns, attr)}
    return cls(**given, known_chromatic=known_chromatic)


def _load_graph(path: str) -> Graph:
    return parse_dimacs(Path(path).read_text())


def _parse_instance(spec: str) -> tuple[Graph, GraphMeta]:
    """An instance argument is a family:param generator spec or a file path."""
    head, sep, tail = spec.partition(":")
    if sep and head in GENERATORS and not Path(spec).exists():
        try:
            param = int(tail)
        except ValueError:
            raise ValueError(f"bad generator spec {spec!r}: param must be an integer")
        g = GENERATORS[head](param)
        return g, GraphMeta(name=f"{head}-{param}", known_chromatic=family_chromatic(head, param))
    g = _load_graph(spec)
    return g, GraphMeta(name=Path(spec).stem, known_chromatic=None)


def _cmd_gen(ns: argparse.Namespace) -> int:
    g = GENERATORS[ns.family](ns.param)
    out = Path(ns.out) if ns.out else Path(f"{ns.family}-{ns.param}.col")
    out.write_text(write_dimacs(g))
    print(f"wrote: {out}")
    print(f"n: {g.n}")
    print(f"m: {g.m}")
    chi = family_chromatic(ns.family, ns.param)
    if chi is not None:
        print(f"chromatic_number: {chi}")
    return EXIT_OK


def _cmd_solve(ns: argparse.Namespace) -> int:
    g = _load_graph(ns.graph)
    _warn_vestigial(ns)
    if ns.chromatic is not None:
        resolve_chromatic(g, GraphMeta(Path(ns.graph).stem, ns.chromatic))  # range check
    solver = run_dica if ns.algo == "dica" else run_ga
    result = solver(g, _engine_params(ns, ns.algo, ns.chromatic))
    print(f"best_cost: {result.best_cost:g}")
    print(f"conflicts: {result.conflicts}")
    print(f"colours_used: {result.colours_used}")
    print(f"iterations: {result.decades_executed}")
    print(f"terminated_by: {result.terminated_by}")
    print(f"colouring: {format_colouring(result.best)}")
    return EXIT_OK if result.conflicts == 0 else EXIT_CONFLICTS


def _cmd_bench(ns: argparse.Namespace) -> int:
    overrides: dict[str, int] = {}
    for item in ns.chromatic:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad --chromatic {item!r}: expected NAME=K")
        if name in overrides:
            raise ValueError(f"--chromatic names {name} more than once")
        try:
            overrides[name] = int(value)
        except ValueError:
            raise ValueError(f"bad --chromatic {item!r}: K must be an integer")
    _warn_vestigial(ns)
    instances = [_parse_instance(spec) for spec in ns.instances]
    names = [meta.name for _, meta in instances]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"instances {ns.instances[names.index(name)]} and {ns.instances[i]} share the name {name}")
    unmatched = sorted(set(overrides) - set(names))
    if unmatched:
        raise ValueError(f"--chromatic names no instance: {', '.join(unmatched)} (instances: {', '.join(names)})")
    algos = ALGORITHMS if ns.algos == "both" else (ns.algos,)
    records = []
    for g, meta in instances:
        if meta.name in overrides:
            meta = GraphMeta(name=meta.name, known_chromatic=overrides[meta.name])
        # resolved once, for every engine's early stop and success check
        meta = GraphMeta(name=meta.name, known_chromatic=resolve_chromatic(g, meta))
        for algo in algos:
            base = _engine_params(ns, algo, meta.known_chromatic)
            records.extend(
                run_trials(g, meta, algo, base, runs=ns.runs, seed_base=ns.seed_base)
            )
    sys.stdout.write(emit_report(records, format=ns.format))
    return EXIT_OK


def _cmd_oracle(ns: argparse.Namespace) -> int:
    g = _load_graph(ns.graph)
    limit = OracleLimit(max_vertices=ns.max_vertices, node_budget=ns.node_budget)
    if ns.k is not None:
        found = exists_colouring(g, ns.k, limit)
        print(f"exists: {'true' if found else 'false'}")
    else:
        chi = chromatic_number_exact(g, limit)
        print(f"chromatic_number: {chi}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        ns = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[ns.subcommand](ns)
    except OracleLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_REFUSED
    except (DimacsFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
