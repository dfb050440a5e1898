"""Command-line behaviour: outputs, exit codes, defaults and report formats."""

import json
import logging
import subprocess
import sys

import pytest

from colorica import bench, cli, graphs
from colorica.cli import build_parser, main
from colorica.dica import DicaParams
from colorica.engine import RunResult
from colorica.ga import GaParams
from colorica.graphs import parse_dimacs
from colorica.oracle import OracleLimit, chromatic_number_exact

FAST = ["--population-size", "10", "--decades", "5", "--generations", "5"]


def _write_k3(tmp_path, name="k3.col"):
    p = tmp_path / name
    p.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    return p


class TestParserDefaults:
    def test_solver_flag_defaults(self):
        ns = build_parser().parse_args(["solve", "g.col"])
        assert ns.algo == "dica"
        assert ns.seed == 1
        assert ns.population_size == 300
        assert ns.imperialist_fraction == 0.10
        assert ns.decades == 100
        assert ns.revolution_rate == 0.25
        assert ns.uniting_threshold == 0.02
        assert ns.damp_ratio == 0.90
        assert ns.xi == 0.1
        assert ns.generations == 100
        assert ns.mutation_rate == 0.25
        assert ns.selection_probability == 0.50
        assert ns.elitism == 1
        assert ns.k_max is None and ns.penalty is None

    @pytest.mark.parametrize("algo,expected", [("dica", DicaParams()), ("ga", GaParams())])
    def test_no_flags_build_the_default_params(self, algo, expected, tmp_path, monkeypatch):
        # pins every flag-to-field mapping, not only the defaults on the namespace
        seen = []

        def solver(g, params):
            seen.append(params)
            return RunResult((1, 2, 3), 3, 0, 3, 1, (3,), "decades_exhausted")

        monkeypatch.setattr(cli, f"run_{algo}", solver)
        path = _write_k3(tmp_path)
        argv = ["solve", str(path)] + (["--algo", "ga"] if algo == "ga" else [])
        assert main(argv) == 0
        assert seen == [expected]

    def test_bench_flag_defaults(self):
        ns = build_parser().parse_args(["bench", "g.col"])
        assert ns.runs == 20
        assert ns.seed_base == 1
        assert ns.format == "table"
        assert ns.algos == "both"

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default: 300" in out
        assert "default: 0.25" in out

    @pytest.mark.parametrize("sub", ["solve", "bench"])
    def test_help_prints_one_default_per_flag(self, sub, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in out
        assert "initial colour range (default: max degree + 1)" in out
        assert "conflict penalty (default: vertex count)" in out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("gen", "solve", "bench", "oracle"):
            assert sub in out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["paint"],
            ["gen", "torus", "3"],
            ["gen", "complete"],
            ["solve"],
            ["solve", "g.col", "--seed", "x"],
            ["bench"],
            ["bench", "g.col", "--format", "yaml"],
        ],
    )
    def test_bad_invocations_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err != ""


class TestGen:
    def test_writes_dimacs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "tri.col"
        assert main(["gen", "complete", "3", "--out", str(out)]) == 0
        assert out.read_text() == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
        stdout = capsys.readouterr().out
        assert f"wrote: {out}" in stdout
        assert "n: 3" in stdout
        assert "m: 3" in stdout
        assert "chromatic_number: 3" in stdout

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "mycielski", "4"]) == 0
        g = parse_dimacs((tmp_path / "mycielski-4.col").read_text())
        assert (g.n, g.m) == (11, 20)
        assert "chromatic_number: 4" in capsys.readouterr().out

    def test_unknown_chromatic_line_omitted(self, tmp_path, capsys):
        out = tmp_path / "q4.col"
        assert main(["gen", "queen", "4", "--out", str(out)]) == 0
        assert "chromatic_number" not in capsys.readouterr().out

    @pytest.mark.parametrize("family,param", [("queen", "129"), ("mycielski", "15")])
    def test_more_vertices_than_the_bound_exits_one(self, family, param, tmp_path, capsys):
        out = tmp_path / "big.col"
        assert main(["gen", family, param, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "16384" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_more_edges_than_the_bound_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 10)
        out = tmp_path / "k6.col"
        assert main(["gen", "complete", "6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: complete graph 6 has 15 edges") and "Traceback" not in err
        assert not out.exists()

    def test_nonpositive_param_exits_one(self, tmp_path, capsys):
        assert main(["gen", "complete", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: complete graph needs k >= 1, got 0")


class TestSolve:
    @pytest.mark.parametrize("sub,extra", [("solve", []), ("bench", ["--runs", "1"])])
    def test_huge_population_exits_one(self, sub, extra, tmp_path, capsys):
        # refused before the population is allocated
        path = _write_k3(tmp_path)
        assert main([sub, str(path), "--population-size", "1000000000000", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cells" in err
        assert "Traceback" not in err

    def test_proper_colouring_exits_zero(self, tmp_path, capsys):
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--seed", "3", *FAST]) == 0
        out = capsys.readouterr().out
        assert "best_cost: 3" in out
        assert "conflicts: 0" in out
        assert "colours_used: 3" in out
        assert "iterations:" in out
        assert "terminated_by:" in out
        colouring = out.split("colouring: ")[1].split()
        assert len(colouring) == 3
        assert len({int(c) for c in colouring}) == 3

    def test_unresolvable_conflicts_exit_two(self, tmp_path, capsys):
        # two colours cannot properly colour a triangle
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--k-max", "2", *FAST]) == 2
        assert "conflicts: 0" not in capsys.readouterr().out

    def test_ga_backend(self, tmp_path, capsys):
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--algo", "ga", *FAST]) == 0
        assert "conflicts: 0" in capsys.readouterr().out

    def test_early_stop_with_declared_chromatic(self, tmp_path, capsys):
        path = _write_k3(tmp_path)
        code = main(["solve", str(path), "--early-stop", "--chromatic", "3", *FAST])
        assert code == 0
        assert "terminated_by: early_stop" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["dica", "ga"])
    def test_early_stop_without_chromatic_exits_one(self, algo, tmp_path, capsys):
        # without a chromatic number there is nothing to stop at
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--algo", algo, "--early-stop", *FAST]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: early_stop_at_chromatic needs known_chromatic\n"
        assert captured.out == ""

    def test_chromatic_out_of_range_exits_one(self, tmp_path):
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--chromatic", "9"]) == 1

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.col")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 3 1\ne 1 99\n")
        assert main(["solve", str(bad)]) == 1

    def test_too_many_vertices_exits_one_with_a_message(self, tmp_path, capsys):
        huge = tmp_path / "huge.col"
        huge.write_text("p edge 10000000000 0\n")
        assert main(["solve", str(huge)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: 10000000000 vertices exceed")
        assert "Traceback" not in err

    def test_more_edges_than_the_bound_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 2)
        path = _write_k3(tmp_path)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: more than the supported 2 edges")
        assert "Traceback" not in err

    @pytest.mark.parametrize("algo", ["dica", "ga"])
    @pytest.mark.parametrize("penalty", ["nan", "inf", "1e308"])
    def test_non_finite_penalty_exits_one_with_a_message(self, algo, penalty, tmp_path, capsys):
        # every K4 colouring with two colours clashes, so every cost is penalised
        k4 = tmp_path / "k4.col"
        k4.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
        argv = ["solve", str(k4), "--algo", algo, "--k-max", "2", "--penalty", penalty, *FAST]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: penalty") and "Traceback" not in err

    @pytest.mark.parametrize("algo", ["dica", "ga"])
    def test_k_max_past_the_vertex_bound_exits_one_with_a_message(self, algo, tmp_path, capsys):
        # 10**20 does not fit a C long, which the palette's modulo needs
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--algo", algo, "--k-max", str(10**20), *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k_max must be in 1..") and "Traceback" not in err

    def test_imperialists_leaving_no_colony_exit_one_with_a_message(self, tmp_path, capsys):
        path = _write_k3(tmp_path)
        argv = ["solve", str(path), "--population-size", "2", "--imperialist-fraction", "0.9", "--decades", "5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: imperialist_fraction 0.9 of population_size 2 makes 2 imperialists, leaving no colony\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv,seed", [(["solve", "--seed=-1"], -1), (["bench", "--seed-base=-5"], -5)])
    def test_negative_seed_exits_one_with_a_message(self, argv, seed, tmp_path, capsys):
        path = _write_k3(tmp_path)
        assert main([argv[0], str(path), *argv[1:], *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: rng_seed must be >= 0, got {seed}") and "Traceback" not in err

    def test_vestigial_flag_is_accepted_with_notice(self, tmp_path, caplog):
        path = _write_k3(tmp_path)
        with caplog.at_level(logging.WARNING, logger="colorica.cli"):
            code = main(["solve", str(path), "--assimilation-coefficient", "2", *FAST])
        assert code == 0
        assert any("no effect" in r.message for r in caplog.records)


class TestOracle:
    def test_chromatic_number(self, tmp_path, capsys):
        path = _write_k3(tmp_path)
        assert main(["oracle", str(path)]) == 0
        assert "chromatic_number: 3" in capsys.readouterr().out

    def test_existence_check(self, tmp_path, capsys):
        path = _write_k3(tmp_path)
        assert main(["oracle", str(path), "--k", "2"]) == 0
        assert "exists: false" in capsys.readouterr().out
        assert main(["oracle", str(path), "--k", "3"]) == 0
        assert "exists: true" in capsys.readouterr().out

    def test_vertex_limit_refusal_exits_three(self, tmp_path, capsys):
        big = tmp_path / "big.col"
        main(["gen", "mycielski", "4", "--out", str(big)])
        capsys.readouterr()
        assert main(["oracle", str(big), "--max-vertices", "5"]) == 3
        assert "error" in capsys.readouterr().err

    def test_node_budget_refusal_exits_three(self, tmp_path):
        big = tmp_path / "big.col"
        main(["gen", "mycielski", "4", "--out", str(big)])
        assert main(["oracle", str(big), "--node-budget", "10"]) == 3

    def test_invalid_k_exits_one(self, tmp_path):
        path = _write_k3(tmp_path)
        assert main(["oracle", str(path), "--k", "0"]) == 1

    @pytest.mark.parametrize("flag,name", [("--node-budget=-1", "node_budget"), ("--max-vertices=0", "max_vertices")])
    def test_nonpositive_limit_exits_one_with_a_message(self, flag, name, tmp_path, capsys):
        path = _write_k3(tmp_path)
        assert main(["oracle", str(path), flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be >= 1") and "Traceback" not in err


class TestBench:
    def test_csv_over_generated_instance(self, capsys):
        code = main(
            ["bench", "complete:3", "--runs", "2", "--format", "csv", *FAST]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("graph,algorithm,seed,")
        assert len(lines) == 5  # header + 2 algos * 2 runs
        assert all(line.startswith("complete-3,") for line in lines[1:])
        assert all(",true," in line for line in lines[1:])

    def test_csv_is_reproducible_once_timing_is_masked(self, capsys):
        argv = ["bench", "complete:3", "--runs", "2", "--format", "csv", *FAST]

        def masked():
            assert main(argv) == 0
            rows = capsys.readouterr().out.splitlines()
            return [",".join(r.split(",")[:-1]) for r in rows]

        assert masked() == masked()

    def test_json_format(self, capsys):
        code = main(
            ["bench", "complete:3", "--runs", "1", "--algos", "dica", "--format", "json", *FAST]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        assert data[0]["graph"] == "complete-3"
        assert data[0]["success"] is True

    def test_table_format_aggregates(self, capsys):
        code = main(["bench", "complete:3", "--runs", "3", "--algos", "both", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "success(failure)" in out
        assert "3(0)" in out
        assert "dica" in out and "ga" in out

    def test_file_instance_with_declared_chromatic(self, tmp_path, capsys):
        path = _write_k3(tmp_path, name="tri.col")
        code = main(
            ["bench", str(path), "--chromatic", "tri=3", "--runs", "1",
             "--algos", "dica", "--format", "csv", "--early-stop", *FAST]
        )
        assert code == 0
        assert ",true," in capsys.readouterr().out

    @pytest.mark.parametrize("override", ["tri3", "tri=x"])
    def test_bad_chromatic_override_exits_one(self, tmp_path, override):
        path = _write_k3(tmp_path, name="tri.col")
        assert main(["bench", str(path), "--chromatic", override]) == 1

    def test_early_stop_needs_resolvable_chromatic(self, tmp_path, capsys):
        big = tmp_path / "level6.col"
        main(["gen", "mycielski", "6", "--out", str(big)])
        capsys.readouterr()
        assert main(["bench", str(big), "--early-stop", "--runs", "1", *FAST]) == 1
        assert "error" in capsys.readouterr().err

    def test_algo_is_not_a_bench_flag(self, capsys):
        # bench picks its engines with --algos
        assert main(["bench", "complete:3", "--algo", "ga", "--runs", "1", *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--algo ga" in err

    def test_file_chromatic_number_is_resolved_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(g, limit=OracleLimit()):
            calls.append(g)
            return chromatic_number_exact(g, limit)

        monkeypatch.setattr("colorica.bench.chromatic_number_exact", counted)
        path = _write_k3(tmp_path)
        argv = ["bench", str(path), "--early-stop", "--algos", "both", "--runs", "2", *FAST]
        assert main(argv) == 0
        assert len(calls) == 1
        assert "2(0)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "instance, override, name",
        [("file", "k3.col=2", "k3"), ("queen:5", "queen5=2", "queen-5")],
    )
    def test_chromatic_naming_no_instance_exits_one(self, instance, override, name, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "run_trials", lambda *args, **kw: solves.append(args) or [])
        spec = str(_write_k3(tmp_path)) if instance == "file" else instance
        assert main(["bench", spec, "--chromatic", override, "--runs", "1", *FAST]) == 1
        out, err = capsys.readouterr()
        unmatched = override.partition("=")[0]
        assert err == f"error: --chromatic names no instance: {unmatched} (instances: {name})\n"
        assert out == "" and solves == []

    def test_repeated_chromatic_exits_one(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "run_trials", lambda *args, **kw: solves.append(args) or [])
        path = _write_k3(tmp_path)
        argv = ["bench", str(path), "--chromatic", "k3=2", "--chromatic", "k3=3", "--runs", "1", *FAST]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == "error: --chromatic names k3 more than once\n"
        assert out == "" and solves == []

    def test_instances_sharing_a_name_exit_one(self, tmp_path, capsys, monkeypatch):
        # a triangle and an edgeless graph would share one report group and one --chromatic
        solves = []
        monkeypatch.setattr(cli, "run_trials", lambda *args, **kw: solves.append(args) or [])
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = _write_k3(tmp_path / "a")
        second = tmp_path / "b" / "k3.col"
        second.write_text("p edge 4 0\n")
        assert main(["bench", str(first), str(second), "--runs", "1", *FAST]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: instances {first} and {second} share the name k3\n"
        assert out == "" and solves == []

    def test_solvers_are_looked_up_when_called(self, tmp_path, capsys, monkeypatch):
        # perfbench's probe sees bench's solves by replacing these module attributes
        calls = []

        def counted(solver):
            def wrapper(g, params):
                calls.append(solver.__name__)
                return solver(g, params)
            return wrapper

        monkeypatch.setattr(bench, "run_dica", counted(bench.run_dica))
        monkeypatch.setattr(bench, "run_ga", counted(bench.run_ga))
        path = _write_k3(tmp_path)
        assert main(["bench", str(path), "--runs", "2", "--format", "csv", *FAST]) == 0
        assert calls == ["run_dica", "run_dica", "run_ga", "run_ga"]
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_bad_generator_spec_exits_one(self):
        assert main(["bench", "complete:x", "--runs", "1"]) == 1

    def test_generator_spec_above_the_vertex_bound_exits_one(self, capsys):
        assert main(["bench", "queen:129", "--runs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: queen graph 129") and "16384" in err

    def test_generator_spec_above_the_edge_bound_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 100)
        assert main(["bench", "queen:5", "--runs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: queen graph 5 has 160 edges") and "Traceback" not in err

    def test_missing_instance_file_exits_one(self, tmp_path):
        assert main(["bench", str(tmp_path / "nope.col"), "--runs", "1"]) == 1

    def test_seed_is_rejected(self, tmp_path, capsys):
        # trials are seeded from --seed-base; --seed is not read as an abbreviation of it
        assert main(["bench", "complete:3", "--runs", "1", "--seed", "99", *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--seed 99" in err
        path = _write_k3(tmp_path)
        assert main(["solve", str(path), "--seed", "99", *FAST]) == 0


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "p.col"
        proc = subprocess.run(
            [sys.executable, "-m", "colorica.cli", "gen", "complete", "4", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "n: 4" in proc.stdout
        assert out.exists()
