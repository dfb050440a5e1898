"""Observe and trace library calls from outside the library.

`from x import y` binds `y` into the importing module, so a function is
replaced at every module attribute that holds it: `cost` is reached as
`colorica.coloring.cost`, `colorica.dica.cost` and `colorica.ga.cost`, and
`run_dica` also as `colorica.bench.run_dica`.  A listed function the library
no longer has is skipped, and its metrics are reported absent.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# layer (module of the colorica package) -> public functions traced in it
LAYERS = {
    "graphs": ("parse_dimacs", "write_dimacs", "queen_graph", "mycielski_graph", "complete_graph"),
    "coloring": ("cost", "count_conflicts", "distinct_colours"),
    "dica": (
        "run_dica",
        "init_population",
        "form_empires",
        "assimilate",
        "revolve",
        "exchange_if_better",
        "unite_similar_empires",
        "normalized_distance",
        "imperialistic_competition",
    ),
    "ga": ("run_ga", "roulette_select", "crossover_2pt", "mutate"),
    "oracle": ("chromatic_number_exact", "exists_colouring"),
    "bench": ("resolve_chromatic", "run_trials", "emit_report"),
    "cli": ("main",),
}

# counts taken from a traced call's arguments and result: name -> (counter, fn)
_HOOKS = {
    "dica.exchange_if_better": ("promotions", lambda args, result: int(bool(result))),
    "dica.unite_similar_empires": ("merged", lambda args, result: len(args[0]) - len(result)),
}


@dataclass(frozen=True)
class Solve:
    """One engine call seen by the observer."""

    algo: str
    params: object
    result: object
    evaluations: int
    empires_final: int


@dataclass(frozen=True)
class OpStats:
    """What the tracer saw during one traced op (or the traced set-up)."""

    seconds: float
    calls: dict
    self_s: dict
    extra: dict


class Tracer:
    """Spans with self time per traced function; full spans kept only while `record` is set."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.record = False
        self.op = None
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn):
        stack, calls, self_s, extra = self.stack, self.calls, self.self_s, self.extra
        ids, clock = self._ids, time.perf_counter
        counter, hook = _HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                if parent is not None:
                    parent[0] += elapsed
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if self.record:
                    self.spans.append(
                        (frame[1], name, t0, t1, parent[1] if parent else None, self.op)
                    )
            if hook is not None:
                extra[f"{name}.{counter}"] += hook(args, result)
            return result

        return traced

    def run_op(self, op_id, fn):
        """Run `fn` under a root span; return its result and the op's stats."""
        frame = [0.0, next(self._ids)]
        self.stack.append(frame)
        self.op = op_id
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            if self.record:
                self.spans.append((frame[1], "op", t0, t1, None, op_id))
            stats = OpStats(t1 - t0, dict(self.calls), dict(self.self_s), dict(self.extra))
            self.calls.clear()
            self.self_s.clear()
            self.extra.clear()
        return out, stats

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start_us, end_us, parent id, op id."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                start, end = round((t0 - self._t0) * 1e6, 1), round((t1 - self._t0) * 1e6, 1)
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")


class Probe:
    """Installs observing (always) and tracing (on request) wrappers in the package."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.solves: list[Solve] = []
        self.present: list[str] = []
        self._sites: dict[str, list[tuple]] = {}
        self._plain: dict[str, object] = {}
        self._traced: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "colorica" or name.startswith("colorica."))
        ]
        by_id = {}
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"colorica.{layer}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None) if mod is not None else None
                if callable(fn):
                    by_id[id(fn)] = (f"{layer}.{fn_name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    self._sites.setdefault(hit[0], []).append((mod, attr))
        for name, fn in by_id.values():
            self.present.append(name)
            self._originals[name] = fn
            plain = self._observe(name, fn)
            self._plain[name] = plain
            self._traced[name] = self.tracer.wrap(name, plain)
        self.set_traced(False)

    def _observe(self, name: str, fn):
        if name == "dica.run_dica":
            return self._observe_dica(fn)
        if name == "ga.run_ga":
            return self._observe_ga(fn)
        return fn

    def _observe_dica(self, run_dica):
        solves = self.solves

        def observed(g, params, _inspect=None):
            seen = {"evaluations": params.population_size, "empires": 0}

            def inspect(stage, decade, empires):
                # every colony is scored once per decade, before post_exchange
                if stage == "post_exchange":
                    seen["evaluations"] += sum(len(e.colonies) for e in empires)
                else:
                    seen["empires"] = len(empires)
                if _inspect is not None:
                    _inspect(stage, decade, empires)

            result = run_dica(g, params, _inspect=inspect)
            solves.append(Solve("dica", params, result, seen["evaluations"], seen["empires"]))
            return result

        return observed

    def _observe_ga(self, run_ga):
        solves = self.solves

        def observed(g, params, *args, **kwargs):
            result = run_ga(g, params, *args, **kwargs)
            size = params.population_size
            evaluations = size + result.decades_executed * (size - params.elitism_count)
            solves.append(Solve("ga", params, result, evaluations, 0))
            return result

        return observed

    def take_solves(self) -> list[Solve]:
        taken = list(self.solves)
        self.solves.clear()
        return taken

    def set_traced(self, on: bool) -> None:
        table = self._traced if on else self._plain
        for name, sites in self._sites.items():
            for mod, attr in sites:
                setattr(mod, attr, table[name])

    def restore(self) -> None:
        for name, sites in self._sites.items():
            for mod, attr in sites:
                setattr(mod, attr, self._originals[name])
