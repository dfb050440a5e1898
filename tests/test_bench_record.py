"""tools/bench_record.py: its argument checks, its quartiles and its refusal of a
bad run; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(name, values, unit="s"):
    return [{"metrics": {name: v}, "units": {name: unit}} for v in values]


class TestSummarize:
    def test_inclusive_quartiles(self, bench_record):
        out = bench_record.summarize(_runs("op_s.p50", [4.0, 1.0, 3.0, 2.0]))
        assert out == {"op_s.p50": {"unit": "s", "median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}}

    def test_odd_count_takes_the_middle_runs(self, bench_record):
        out = bench_record.summarize(_runs("ok_rate", [5, 1, 4, 2, 3], unit="ratio"))
        assert out["ok_rate"] == {"unit": "ratio", "median": 3, "q1": 2, "q3": 4, "n": 5}

    def test_one_run_is_its_own_median_and_quartiles(self, bench_record):
        out = bench_record.summarize(_runs("peak_rss_mb", [42.5], unit="MB"))
        assert out["peak_rss_mb"] == {"unit": "MB", "median": 42.5, "q1": 42.5, "q3": 42.5, "n": 1}

    def test_every_metric_of_the_runs(self, bench_record):
        runs = [
            {"metrics": {"a": 1.0, "b": 10.0}, "units": {"a": "s", "b": "MB"}},
            {"metrics": {"a": 3.0, "b": 30.0}, "units": {"a": "s", "b": "MB"}},
        ]
        out = bench_record.summarize(runs)
        assert sorted(out) == ["a", "b"]
        assert out["a"]["median"] == 2.0 and out["b"]["median"] == 20.0


class TestParseArgs:
    def test_labels_and_seeds(self, bench_record):
        args = bench_record.parse_args([f"old={ROOT}", f"new={ROOT}"])
        assert args.checkouts == {"old": ROOT, "new": ROOT}
        assert bench_record.SEED_BASE == 31

    def test_default_seed_count(self, bench_record):
        assert bench_record.SEEDS == 10

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([f"a={ROOT}", f"a={ROOT}"], "bad or repeated label"),
            ([f"={ROOT}"], "bad or repeated label"),
        ],
    )
    def test_refused(self, bench_record, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            bench_record.parse_args(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    def test_checkout_without_the_benchmark_refused(self, bench_record, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            bench_record.parse_args([f"a={tmp_path}"])
        assert exit_.value.code == 2
        assert "holds no perfbench/run.py" in capsys.readouterr().err


def _fake_checkout(root, last_line):
    """A checkout whose perfbench/run.py prints a provenance line, then `last_line`."""
    (root / "perfbench").mkdir()
    detail = json.dumps({"exact": {}, "provenance": {}})
    (root / "perfbench" / "run.py").write_text(f"print({detail!r})\nprint({last_line!r})\n")
    return root


class TestRunOnce:
    def test_a_last_line_not_json_exits_naming_the_run(self, bench_record, tmp_path):
        root = _fake_checkout(tmp_path, "Traceback (most recent call last):")
        with pytest.raises(SystemExit) as exit_:
            bench_record.run_once(root, "dica-queen7", 7, ["op_s.p50"])
        message = str(exit_.value.code)
        assert message.startswith(f"error: {root} dica-queen7 seed 7: last line is not strict JSON")

    def test_an_incorrect_run_exits(self, bench_record, tmp_path):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {"op_s.p50": {"value": 1.0, "unit": "s"}}}
        root = _fake_checkout(tmp_path, json.dumps(result))
        with pytest.raises(SystemExit) as exit_:
            bench_record.run_once(root, "ga-myciel5", 3, ["op_s.p50"])
        assert "ga-myciel5 seed 3: correct is False" in str(exit_.value.code)

    def test_a_good_run_is_recorded(self, bench_record, tmp_path):
        result = {"correct": True, "attempted": 2, "failed": 0, "metrics": {"op_s.p50": {"value": 1.5, "unit": "s"}}}
        root = _fake_checkout(tmp_path, json.dumps(result))
        run = bench_record.run_once(root, "harness-easy", 5, ["op_s.p50"])
        assert run["metrics"] == {"op_s.p50": 1.5} and run["units"] == {"op_s.p50": "s"}
        assert (run["seed"], run["correct"], run["exact"], run["provenance"]) == (5, True, {}, {})


class TestTurnOrder:
    """Which slot each label runs in, seed by seed: main with `run_once` patched
    to record the order, over fake checkouts whose BENCHMARK.json lists one workload."""

    @staticmethod
    def _orders(bench_record, monkeypatch, tmp_path, labels):
        spec = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "op_s.p50"}]}
        argv, owner = [], {}
        for label in labels:
            root = tmp_path / label
            (root / "perfbench").mkdir(parents=True)
            (root / "perfbench" / "run.py").write_text("")
            (root / "BENCHMARK.json").write_text(json.dumps(spec))
            argv.append(f"{label}={root}")
            owner[root] = label
        calls = []

        def run_once(root, workload, seed, expected):
            calls.append((seed, owner[root]))
            return {"seed": seed, "metrics": {"op_s.p50": 1.0}, "units": {"op_s.p50": "s"}, "provenance": {}}

        monkeypatch.setattr(bench_record, "run_once", run_once)
        monkeypatch.chdir(tmp_path)
        assert bench_record.main(argv) == 0
        assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == sorted(f"BENCH_{x}.json" for x in labels)
        seeds = [bench_record.SEED_BASE + i for i in range(bench_record.SEEDS)]
        assert [seed for seed, _ in calls] == [s for s in seeds for _ in labels]
        return [[label for seed, label in calls if seed == s] for s in seeds]

    def test_three_labels_split_every_pair_and_hold_every_slot(self, bench_record, monkeypatch, tmp_path):
        labels = ["parent", "control", "change"]
        orders = self._orders(bench_record, monkeypatch, tmp_path, labels)
        assert orders[:3] == [labels, labels[::-1], ["control", "change", "parent"]]
        for a in labels:
            for b in labels:
                if a != b:
                    assert sum(o.index(a) < o.index(b) for o in orders) == 5
            assert all(sum(o.index(a) == slot for o in orders) >= 2 for slot in range(3))

    def test_two_labels_each_go_first_on_five_seeds(self, bench_record, monkeypatch, tmp_path):
        orders = self._orders(bench_record, monkeypatch, tmp_path, ["old", "new"])
        assert sum(o[0] == "old" for o in orders) == sum(o[0] == "new" for o in orders) == 5

    def test_one_label_runs_alone(self, bench_record, monkeypatch, tmp_path):
        assert self._orders(bench_record, monkeypatch, tmp_path, ["only"]) == [["only"]] * 10
