"""Tests of the benchmark's own checks and counts.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import colorica  # noqa: E402
from colorica import coloring, dica, ga, graphs  # noqa: E402

import run  # noqa: E402
from probe import Probe  # noqa: E402
from recheck import recheck  # noqa: E402
from workloads import Engine  # noqa: E402

ORIGINAL_COST = coloring.cost
GRAPHS = {
    "queen5": graphs.queen_graph(5),
    "myciel4": graphs.mycielski_graph(5),
    "k6": graphs.complete_graph(6),
}


@pytest.fixture
def probe():
    p = Probe()
    yield p
    p.restore()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_recheck_agrees_with_library_cost(name):
    g = GRAPHS[name]
    rng = np.random.default_rng(11)
    colourings = [np.arange(1, g.n + 1)]  # all distinct: proper
    colourings += [rng.integers(1, int(rng.integers(2, g.n + 1)) + 1, size=g.n) for _ in range(200)]
    clashing = 0
    for col in colourings:
        check = recheck(g.edges, g.n, g.n, col)
        assert check.clashes == coloring.count_conflicts(g, col)
        assert check.colours == coloring.distinct_colours(col)
        assert check.cost == coloring.cost(g, col, coloring.CostParams(float(g.n)))
        clashing += check.clashes > 0
    assert 0 < clashing < len(colourings)


def test_recheck_rejects_malformed_colourings():
    g = GRAPHS["k6"]
    with pytest.raises(ValueError):
        recheck(g.edges, g.n, 6, [1, 2, 3])
    with pytest.raises(ValueError):
        recheck(g.edges, g.n, 6, [0, 1, 2, 3, 4, 5])


def test_probe_wraps_every_lookup_site(probe):
    probe.set_traced(True)
    assert colorica.dica.cost is colorica.ga.cost is colorica.coloring.cost
    assert colorica.dica.init_population is colorica.ga.init_population
    assert colorica.bench.run_dica is colorica.dica.run_dica
    assert colorica.dica.cost is not ORIGINAL_COST
    probe.restore()
    assert colorica.dica.cost is colorica.ga.cost is colorica.coloring.cost is ORIGINAL_COST


def test_corrupted_colouring_counts_in_error_rate(monkeypatch, tmp_path):
    real_run_ga = colorica.ga.run_ga

    def corrupting(g, params, *args, **kwargs):
        result = real_run_ga(g, params, *args, **kwargs)
        return replace(result, best=(1,) * g.n)

    workload = Engine(None, "ga", "mycielski", 4)
    workload.setup(tmp_path)

    honest = Probe()
    workload.probe = honest
    good = run.attempt(workload, honest, seed=1)
    honest.restore()
    assert good.outcome.errors == []

    monkeypatch.setattr(colorica.ga, "run_ga", corrupting)
    lying = Probe()
    workload.probe = lying
    bad = run.attempt(workload, lying, seed=1)
    lying.restore()
    assert bad.outcome.errors

    metrics = run.end_to_end([good, bad], setup_times=[0.1])
    assert metrics["ok_rate"][0] == 0.5


@pytest.mark.parametrize("early_stop", [False, True])
def test_ga_evaluation_formula_matches_inspect_count(probe, monkeypatch, early_stop):
    g = graphs.mycielski_graph(4)
    params = ga.GaParams(
        population_size=30,
        generations=12,
        elitism_count=2,
        early_stop_at_chromatic=early_stop,
        known_chromatic=4,
        rng_seed=5,
    )
    seen = {}
    real_init = colorica.ga.init_population

    def recording_init(*args):
        population = real_init(*args)
        seen["evaluations"] = len(population)  # each initial country is scored once
        seen["previous"] = list(population)
        return population

    def inspect(stage, generation, population, costs):
        # a child is a new array; elites are carried over as the same objects
        carried = {id(c) for c in seen["previous"]}
        seen["evaluations"] += sum(1 for c in population if id(c) not in carried)
        seen["previous"] = list(population)

    monkeypatch.setattr(colorica.ga, "init_population", recording_init)
    result = colorica.ga.run_ga(g, params, _inspect=inspect)
    (solve,) = probe.take_solves()
    assert solve.result == result
    assert solve.evaluations == seen["evaluations"]
    assert solve.evaluations == 30 + result.decades_executed * (30 - 2)
    assert early_stop == (result.decades_executed < 12)


@pytest.mark.parametrize("algo", ["dica", "ga"])
def test_evaluations_equal_cost_calls(probe, algo):
    g = graphs.queen_graph(5)
    if algo == "dica":
        call = lambda: colorica.dica.run_dica(g, dica.DicaParams(population_size=40, decades=15, rng_seed=3))
    else:
        call = lambda: colorica.ga.run_ga(g, ga.GaParams(population_size=40, generations=15, rng_seed=3))
    probe.set_traced(True)
    _, stats = probe.tracer.run_op(0, call)
    (solve,) = probe.take_solves()
    assert solve.evaluations == stats.calls["coloring.cost"]
