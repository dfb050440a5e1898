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
