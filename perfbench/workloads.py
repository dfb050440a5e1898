"""The benchmark's workloads: what one op runs and how its outputs are checked.

Library functions are always looked up through their module at call time
(`colorica.dica.run_dica`, never a name bound at import), so the probe's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import colorica.cli
import colorica.dica
import colorica.ga
import colorica.graphs

from recheck import compare_result, recheck


@dataclass(frozen=True)
class Checked:
    """A solve together with the benchmark's own re-check of its colouring."""

    solve: object
    check: object


@dataclass
class Outcome:
    """One op as checked: colourings scored, re-checked solves, errors, and a
    fingerprint that a repeat of the op must reproduce exactly."""

    evaluations: int
    solves: list
    errors: list
    fingerprint: object


def _instance(family: str, param: int):
    """Generate a graph, fill its cached properties, and return it with its chi."""
    generator = getattr(colorica.graphs, f"{family}_graph")
    g = generator(param)
    g.edge_index_arrays
    g.adjacency
    return g, colorica.graphs.family_chromatic(family, param)


def _check_solves(solves, g, chi, errors) -> list:
    checked = []
    for s in solves:
        try:
            check = recheck(g.edges, g.n, chi, s.result.best)
        except ValueError as exc:
            errors.append(f"{s.algo}: {exc}")
            continue
        errors.extend(f"{s.algo} seed {s.params.rng_seed}: {e}" for e in compare_result(check, s.result))
        checked.append(Checked(s, check))
    return checked


class Engine:
    """One seeded solve per op, early stop off, so every solve spends its whole budget."""

    seeds_per_op = 1

    def __init__(self, probe, algo: str, family: str, param: int) -> None:
        self.probe = probe
        self.algo = algo
        self.family = family
        self.param = param

    def setup(self, out_dir: Path) -> None:
        self.graph, self.chi = _instance(self.family, self.param)

    def op(self, seed: int):
        if self.algo == "dica":
            colorica.dica.run_dica(self.graph, colorica.dica.DicaParams(rng_seed=seed, k_max=self.chi))
        else:
            colorica.ga.run_ga(self.graph, colorica.ga.GaParams(rng_seed=seed, k_max=self.chi))
        return self.probe.take_solves()

    def verify(self, solves) -> Outcome:
        errors = []
        if len(solves) != 1:
            errors.append(f"expected one {self.algo} solve per op, saw {len(solves)}")
        checked = _check_solves(solves, self.graph, self.chi, errors)
        return Outcome(
            evaluations=sum(s.evaluations for s in solves),
            solves=checked,
            errors=errors,
            fingerprint=[(s.result, s.evaluations) for s in solves],
        )


class Harness:
    """One sweep per op: `bench` on three easy DIMACS files, then `oracle` on myciel4."""

    RUNS = 10
    BENCHED = (("k15", "complete", 15), ("k20", "complete", 20), ("myciel3", "mycielski", 4))
    ORACLE = ("myciel4", "mycielski", 5)
    seeds_per_op = RUNS

    def __init__(self, probe) -> None:
        self.probe = probe

    def setup(self, out_dir: Path) -> None:
        self.instances = {}
        for name, family, param in self.BENCHED + (self.ORACLE,):
            g, chi = _instance(family, param)
            path = out_dir / f"{name}.col"
            path.write_text(colorica.graphs.write_dimacs(g))
            self.instances[name] = (g, chi, path)

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = colorica.cli.main(argv)
        return code, buf.getvalue()

    def op(self, seed: int):
        calls = []
        for name, _, _ in self.BENCHED:
            _, chi, path = self.instances[name]
            argv = [
                "bench", str(path), "--algos", "both", "--early-stop", "--k-max", str(chi),
                "--runs", str(self.RUNS), "--seed-base", str(seed), "--format", "json",
            ]
            code, out = self._main(argv)
            calls.append((name, seed, code, out, self.probe.take_solves()))
        code, out = self._main(["oracle", str(self.instances[self.ORACLE[0]][2])])
        return calls, (code, out)

    def verify(self, raw) -> Outcome:
        calls, (oracle_code, oracle_out) = raw
        errors, checked, records_seen, evaluations = [], [], [], 0
        for name, seed, code, out, solves in calls:
            g, chi, _ = self.instances[name]
            evaluations += sum(s.evaluations for s in solves)
            if code != 0:
                errors.append(f"bench {name} exited {code}")
                continue
            try:
                records = json.loads(out)
            except json.JSONDecodeError as exc:
                errors.append(f"bench {name} printed no JSON: {exc}")
                continue
            if len(records) != 2 * self.RUNS or len(solves) != len(records):
                errors.append(f"bench {name}: {len(records)} records for {len(solves)} solves")
                continue
            ok = _check_solves(solves, g, chi, errors)
            checked.extend(ok)
            if len(ok) != len(records):
                continue
            seeds = [seed + j for j in range(self.RUNS)] * 2
            for rec, c, want_seed in zip(records, ok, seeds):
                got = (rec["graph"], rec["algorithm"], rec["seed"], rec["success"],
                       rec["conflicts"], rec["colours_used"], rec["best_cost"], rec["iterations"])
                want = (name, c.solve.algo, want_seed, c.check.success, c.check.clashes,
                        c.check.colours, c.check.cost, c.solve.result.decades_executed)
                if got != want:
                    errors.append(f"bench {name} record {got} != re-checked {want}")
                records_seen.append({k: v for k, v in rec.items() if k != "elapsed_ms"})
        want_chi = self.instances[self.ORACLE[0]][1]
        if oracle_code != 0 or oracle_out.strip() != f"chromatic_number: {want_chi}":
            errors.append(f"oracle exited {oracle_code} with {oracle_out.strip()!r}, want {want_chi}")
        return Outcome(
            evaluations=evaluations,
            solves=checked,
            errors=errors,
            fingerprint=(records_seen, [c.solve.result.best for c in checked], oracle_out),
        )


# name -> (factory taking the probe, minimum ops per run)
WORKLOADS = {
    "dica-queen7": (lambda probe: Engine(probe, "dica", "queen", 7), 24),
    "ga-myciel5": (lambda probe: Engine(probe, "ga", "mycielski", 6), 18),
    "harness-easy": (Harness, 20),
}
