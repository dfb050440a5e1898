"""Benchmark harness: seeding, re-verification, aggregation and report formats."""

import dataclasses
import json

import pytest

from colorica.bench import (
    CSV_HEADER,
    BenchReport,
    TrialRecord,
    aggregate,
    emit_report,
    resolve_chromatic,
    run_trials,
)
from colorica.dica import DicaParams, RunResult
from colorica.ga import GaParams
from colorica.graphs import GraphMeta, complete_graph, queen_graph

FAST_DICA = DicaParams(population_size=10, decades=5)
FAST_GA = GaParams(population_size=10, generations=5)


def _k3_meta():
    return complete_graph(3), GraphMeta(name="k3", known_chromatic=3)


def _record(**overrides):
    base = dict(
        graph_name="k3",
        algorithm="dica",
        seed=1,
        success=True,
        conflicts=0,
        colours_used=3,
        best_cost=3.0,
        iterations_executed=5,
        elapsed_ms=1.25,
    )
    base.update(overrides)
    return TrialRecord(**base)


class TestResolveChromatic:
    def test_metadata_value_wins(self):
        g = complete_graph(4)
        assert resolve_chromatic(g, GraphMeta(name="x", known_chromatic=2)) == 2

    def test_falls_back_to_exact_search(self):
        g = complete_graph(4)
        assert resolve_chromatic(g, GraphMeta(name="x")) == 4

    @pytest.mark.parametrize("chi", [0, 5])
    def test_out_of_range_metadata_rejected(self, chi):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            resolve_chromatic(g, GraphMeta(name="x", known_chromatic=chi))

    def test_unknown_and_unprovable_names_the_instance(self):
        g = queen_graph(7)  # 49 vertices, past the default search limit
        with pytest.raises(ValueError, match="board"):
            resolve_chromatic(g, GraphMeta(name="board"))


class TestRunTrials:
    def test_seed_ladder(self):
        g, meta = _k3_meta()
        records = run_trials(g, meta, "dica", FAST_DICA, runs=5, seed_base=100)
        assert [r.seed for r in records] == [100, 101, 102, 103, 104]

    def test_easy_instance_succeeds(self):
        g, meta = _k3_meta()
        records = run_trials(g, meta, "dica", FAST_DICA, runs=4)
        assert all(r.success for r in records)
        for r in records:
            assert r.conflicts == 0
            assert r.colours_used <= 3
            assert r.elapsed_ms >= 0

    def test_ga_engine_also_runs(self):
        g, meta = _k3_meta()
        records = run_trials(g, meta, "ga", FAST_GA, runs=3)
        assert len(records) == 3
        assert {r.algorithm for r in records} == {"ga"}

    @pytest.mark.parametrize("algo, params", [("dica", FAST_DICA), ("ga", FAST_GA)], ids=["dica", "ga"])
    def test_reported_success_is_recomputed_not_trusted(self, monkeypatch, algo, params):
        # a solver that lies about conflicts must still be caught, whichever engine it stands in for
        def lying_solver(g, params):
            return RunResult(
                best=(1, 1, 1),
                best_cost=1.0,
                conflicts=0,
                colours_used=1,
                decades_executed=1,
                cost_history=(1.0,),
                terminated_by="decades_exhausted",
            )

        monkeypatch.setattr(f"colorica.bench.run_{algo}", lying_solver)
        g, meta = _k3_meta()
        records = run_trials(g, meta, algo, params, runs=2)
        for r in records:
            assert not r.success
            assert r.conflicts == 3
            assert r.colours_used == 1

    def test_deterministic_apart_from_timing(self):
        g, meta = _k3_meta()
        a = run_trials(g, meta, "dica", FAST_DICA, runs=3)
        b = run_trials(g, meta, "dica", FAST_DICA, runs=3)
        strip = lambda r: {
            k: v for k, v in dataclasses.asdict(r).items() if k != "elapsed_ms"
        }
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_unknown_algorithm_rejected(self):
        g, meta = _k3_meta()
        with pytest.raises(ValueError):
            run_trials(g, meta, "tabu", FAST_DICA)

    @pytest.mark.parametrize("algo, params", [("dica", FAST_GA), ("ga", FAST_DICA)])
    def test_params_of_the_other_engine_rejected(self, algo, params):
        g, meta = _k3_meta()
        name = type(params).__name__
        with pytest.raises(ValueError, match=f"got '{algo}' with {name}$"):
            run_trials(g, meta, algo, params)

    def test_zero_runs_rejected(self):
        g, meta = _k3_meta()
        with pytest.raises(ValueError):
            run_trials(g, meta, "dica", FAST_DICA, runs=0)


class TestAggregate:
    def test_tally_identity_and_grouping(self):
        records = [
            _record(seed=1),
            _record(seed=2, success=False, conflicts=1, best_cost=12.0),
            _record(seed=1, algorithm="ga"),
        ]
        reports = aggregate(records)
        assert [(r.graph_name, r.algorithm) for r in reports] == [("k3", "dica"), ("k3", "ga")]
        for rep in reports:
            assert rep.successes + rep.failures == rep.runs

    def test_means_and_minimum(self):
        records = [
            _record(seed=1, best_cost=3.0, colours_used=3),
            _record(seed=2, best_cost=5.0, colours_used=3),
        ]
        rep = aggregate(records)[0]
        assert rep.mean_best_cost == 4.0
        assert rep.min_best_cost == 3.0
        assert rep.mean_colours_used == 3.0

    def test_no_successes_leaves_colour_mean_empty(self):
        records = [_record(success=False, conflicts=2, best_cost=21.0)]
        rep = aggregate(records)[0]
        assert rep.successes == 0
        assert rep.mean_colours_used is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestEmitReport:
    def test_csv_schema(self):
        records = [_record(), _record(seed=2, success=False, conflicts=1, best_cost=12.5)]
        out = emit_report(records, format="csv")
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "k3,dica,1,true,0,3,3,5,1.250"
        assert lines[2] == "k3,dica,2,false,1,3,12.5,5,1.250"

    def test_json_round_trip(self):
        records = [_record()]
        data = json.loads(emit_report(records, format="json"))
        assert data == [
            {
                "graph": "k3",
                "algorithm": "dica",
                "seed": 1,
                "success": True,
                "conflicts": 0,
                "colours_used": 3,
                "best_cost": 3.0,
                "iterations": 5,
                "elapsed_ms": 1.25,
            }
        ]

    def test_table_tallies_successes_and_failures(self):
        records = [_record(seed=i) for i in range(1, 4)] + [
            _record(seed=i, success=False, conflicts=1, best_cost=12.0) for i in (4, 5)
        ]
        out = emit_report(records, format="table")
        lines = out.splitlines()
        assert lines[0].split() == [
            "graph",
            "algorithm",
            "runs",
            "success(failure)",
            "mean_cost",
            "min_cost",
            "mean_colours",
            "mean_ms",
        ]
        assert "3(2)" in lines[1]
        assert lines[1].startswith("k3")

    def test_table_marks_missing_colour_mean(self):
        records = [_record(success=False, conflicts=1, best_cost=12.0)]
        out = emit_report(records, format="table")
        assert " - " in out.splitlines()[1] + " "

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], format="csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([_record()], format="xml")

    def test_csv_from_live_runs_is_stable_once_timing_is_masked(self):
        g, meta = _k3_meta()

        def masked_csv():
            records = run_trials(g, meta, "dica", FAST_DICA, runs=3)
            rows = emit_report(records, format="csv").splitlines()
            return [",".join(row.split(",")[:-1]) for row in rows]

        assert masked_csv() == masked_csv()
