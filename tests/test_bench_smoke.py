"""tools/bench_smoke.py: its check of one run's output; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", ROOT / "tools" / "bench_smoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(result, before='{"workload": "w"}'):
    return before + "\n" + (result if isinstance(result, str) else json.dumps(result)) + "\n"


GOOD = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.0, "unit": "s"}}}


class TestCheckRun:
    def test_a_good_run_passes(self, smoke):
        assert smoke.check_run(0, _output(GOOD), ["a"]) == []

    def test_non_zero_exit(self, smoke):
        assert smoke.check_run(2, _output(GOOD), ["a"]) == ["exited 2"]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_not_json(self, smoke, constant):
        line = json.dumps(GOOD).replace("1.0", constant)
        [problem] = smoke.check_run(0, _output(line), ["a"])
        assert problem.startswith("last line is not strict JSON")

    def test_a_line_printed_after_the_result(self, smoke):
        [problem] = smoke.check_run(0, _output(GOOD) + "done\n", ["a"])
        assert problem.startswith("last line is not strict JSON")

    def test_no_output_and_not_an_object(self, smoke):
        assert smoke.check_run(0, "", ["a"]) == ["printed nothing"]
        assert smoke.check_run(0, _output("[1, 2]"), ["a"])[0].startswith("last line is not a JSON object")

    def test_incorrect_run_and_missing_metrics(self, smoke):
        bad = dict(GOOD, correct=False)
        assert smoke.check_run(0, _output(bad), ["a", "b", "c"]) == [
            "correct is False", "missing metrics: b, c"
        ]
