"""tools/bench_compare.py on two small synthetic records; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

END_TO_END = [
    {"name": "op_s.p50", "better": "lower", "bound": 0.24},
    {"name": "evals_per_s", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "tools" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(runs, workload="dica-queen7"):
    """A record of `runs`, {seed: {metric: value}}, with a summary in bench_record's
    form; here the median is the middle value and the quartiles the extremes."""
    metrics = {}
    for name in next(iter(runs.values())):
        values = sorted(r[name] for r in runs.values())
        metrics[name] = {"median": values[len(values) // 2], "q1": values[0], "q3": values[-1], "n": len(values)}
    return {"workloads": {workload: {"metrics": metrics, "runs": [
        {"seed": seed, "metrics": m} for seed, m in runs.items()
    ]}}}


PARENT = _record({
    31: {"op_s.p50": 0.20, "evals_per_s": 100.0, "peak_rss_mb": 40.0},
    32: {"op_s.p50": 0.21, "evals_per_s": 110.0, "peak_rss_mb": 40.0},
    33: {"op_s.p50": 0.22, "evals_per_s": 120.0, "peak_rss_mb": 40.0},
})
# runs listed out of seed order: pairs go by seed, not by position
CHANGE = _record({
    33: {"op_s.p50": 0.19, "evals_per_s": 90.0, "peak_rss_mb": 45.0},
    31: {"op_s.p50": 0.17, "evals_per_s": 70.0, "peak_rss_mb": 44.0},
    32: {"op_s.p50": 0.21, "evals_per_s": 80.0, "peak_rss_mb": 43.9},
})


def _rows(bench_compare):
    return {r["metric"]: r for r in bench_compare.compare(PARENT, CHANGE, END_TO_END)}


def test_medians_and_relative_change(bench_compare):
    row = _rows(bench_compare)["op_s.p50"]
    assert (row["workload"], row["parent"], row["change"]) == ("dica-queen7", 0.21, 0.19)
    assert row["relative"] == pytest.approx(-0.02 / 0.21)


def test_pairs_go_by_seed_and_a_tie_counts_for_neither(bench_compare):
    row = _rows(bench_compare)["op_s.p50"]
    # seed 31: 0.17 < 0.20 won, seed 32: 0.21 = 0.21 tied, seed 33: 0.19 < 0.22 won
    assert (row["won"], row["lost"], row["pairs"]) == (2, 0, 3)
    evals = _rows(bench_compare)["evals_per_s"]
    assert (evals["won"], evals["lost"]) == (0, 3)  # higher is better and every run is lower


def test_parent_iqr_and_whether_the_medians_differ_by_more(bench_compare):
    rows = _rows(bench_compare)
    assert rows["op_s.p50"]["parent_iqr"] == pytest.approx(0.02)
    assert rows["op_s.p50"]["beyond_iqr"] is False  # 0.02 apart is not more than 0.02
    assert rows["peak_rss_mb"]["parent_iqr"] == 0.0
    assert rows["peak_rss_mb"]["beyond_iqr"] is True


def test_flags_only_what_is_worse_than_its_bound(bench_compare):
    rows = _rows(bench_compare)
    assert rows["op_s.p50"]["over_bound"] is False  # better
    # 110 -> 80 is 27% worse, past 0.24; 40 -> 44 MB is 10% worse, at 0.1 but not past it; 44.1 MB is past it
    assert rows["evals_per_s"]["over_bound"] is True
    assert rows["peak_rss_mb"]["over_bound"] is False
    worse = _record({s: {"peak_rss_mb": 44.1} for s in (31, 32, 33)})
    (row,) = bench_compare.compare(PARENT, worse, END_TO_END)
    assert row["over_bound"] is True


def test_gain_needs_nine_in_ten_pairs_won_and_medians_apart_by_more_than_the_iqr(bench_compare):
    seeds = range(31, 41)
    parent = _record({s: {"op_s.p50": 0.20 + 0.001 * (s - 31)} for s in seeds})  # IQR 0.009, median 0.205
    # every pair won by 0.01: the medians are 0.01 apart, past the IQR
    (row,) = bench_compare.compare(parent, _record({s: {"op_s.p50": 0.19 + 0.001 * (s - 31)} for s in seeds}), END_TO_END)
    assert (row["won"], row["pairs"], row["beyond_iqr"], row["gain"]) == (10, 10, True, True)
    assert bench_compare.format_rows([row]).splitlines()[1].split()[-1] == "GAIN"
    # 9 of 10 won is enough, 8 of 10 is not
    nine = {s: {"op_s.p50": 0.19 + 0.001 * (s - 31)} for s in seeds}
    nine[40] = {"op_s.p50": 0.30}
    (row,) = bench_compare.compare(parent, _record(nine), END_TO_END)
    assert (row["won"], row["gain"]) == (9, True)
    nine[39] = {"op_s.p50": 0.30}
    (row,) = bench_compare.compare(parent, _record(nine), END_TO_END)
    assert (row["won"], row["gain"]) == (8, False)
    # every pair won by 0.005: the medians are not apart by more than the IQR
    (row,) = bench_compare.compare(parent, _record({s: {"op_s.p50": 0.195 + 0.001 * (s - 31)} for s in seeds}), END_TO_END)
    assert (row["won"], row["beyond_iqr"], row["gain"]) == (10, False, False)
    # a worse change is never a gain, however far apart the medians are
    (row,) = bench_compare.compare(parent, _record({s: {"op_s.p50": 0.30} for s in seeds}), END_TO_END)
    assert (row["gain"], row["over_bound"]) == (False, True)
    assert not any(r["gain"] for r in bench_compare.compare(PARENT, CHANGE, END_TO_END))


def test_main_prints_a_line_per_workload_and_metric(bench_compare, tmp_path, capsys):
    parent = tmp_path / "BENCH_a.json"
    change = tmp_path / "BENCH_b.json"
    # a workload only the parent ran is left out
    extra = dict(PARENT["workloads"], **_record({31: {"op_s.p50": 1.0}}, workload="ga-myciel5")["workloads"])
    parent.write_text(json.dumps({"workloads": extra}))
    change.write_text(json.dumps(CHANGE))
    # evals_per_s is past its bound, so the exit status is 1
    assert bench_compare.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["workload", "metric", "parent", "change"]
    body = [line.split() for line in lines[1:]]
    assert [(b[0], b[1]) for b in body] == [
        ("dica-queen7", "op_s.p50"), ("dica-queen7", "evals_per_s"), ("dica-queen7", "peak_rss_mb"),
    ]
    assert body[0][4:6] == ["-9.5%", "2/3"]
    assert body[1][-1] == "BOUND" and body[0][-1] != "BOUND"


def test_main_exits_zero_when_no_row_is_past_its_bound(bench_compare, tmp_path, capsys):
    parent = tmp_path / "BENCH_a.json"
    change = tmp_path / "BENCH_b.json"
    parent.write_text(json.dumps(PARENT))
    # every metric better than or equal to the parent's
    change.write_text(json.dumps(_record({
        31: {"op_s.p50": 0.20, "evals_per_s": 100.0, "peak_rss_mb": 40.0},
        32: {"op_s.p50": 0.20, "evals_per_s": 120.0, "peak_rss_mb": 39.0},
        33: {"op_s.p50": 0.21, "evals_per_s": 130.0, "peak_rss_mb": 40.0},
    })))
    assert bench_compare.main([str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and not any(line.endswith("BOUND") for line in lines)


def test_a_control_is_shown_and_a_gain_must_pass_it(bench_compare):
    seeds = range(31, 41)
    parent = _record({s: {"op_s.p50": 0.20 + 0.001 * (s - 31)} for s in seeds})  # IQR 0.009, median 0.205
    change = _record({s: {"op_s.p50": 0.19 + 0.001 * (s - 31)} for s in seeds})  # median 0.195, 0.01 off
    near = _record({s: {"op_s.p50": 0.198 + 0.001 * (s - 31)} for s in seeds})  # median 0.203, 0.002 off
    far = _record({s: {"op_s.p50": 0.19 + 0.001 * (s - 31)} for s in seeds})  # as far off as the change
    (row,) = bench_compare.compare(parent, change, END_TO_END, near)
    assert row["control"] == pytest.approx(-0.002 / 0.205) and row["gain"] is True
    (row,) = bench_compare.compare(parent, change, END_TO_END, far)
    assert row["control"] == pytest.approx(-0.01 / 0.205) and row["gain"] is False
    # a control further off in the worse direction is just as far from the parent
    (row,) = bench_compare.compare(parent, change, END_TO_END, _record({s: {"op_s.p50": 0.22} for s in seeds}))
    assert row["gain"] is False
    # a control without the metric or the workload cannot be passed, so no row is a gain
    (row,) = bench_compare.compare(parent, change, END_TO_END, _record({s: {"peak_rss_mb": 40.0} for s in seeds}))
    assert (row["control"], row["gain"]) == (None, False)
    (row,) = bench_compare.compare(parent, change, END_TO_END, _record({31: {"op_s.p50": 0.2}}, workload="ga-myciel5"))
    assert (row["control"], row["gain"]) == (None, False)
    # BOUND does not look at the control
    (row,) = bench_compare.compare(parent, _record({s: {"op_s.p50": 0.30} for s in seeds}), END_TO_END, near)
    assert (row["over_bound"], row["gain"]) == (True, False)


def test_main_prints_the_control_beside_each_row(bench_compare, tmp_path, capsys):
    paths = {name: tmp_path / f"BENCH_{name}.json" for name in ("a", "b", "c")}
    paths["a"].write_text(json.dumps(PARENT))
    paths["b"].write_text(json.dumps(CHANGE))
    control = _record({
        31: {"op_s.p50": 0.20, "evals_per_s": 100.0},
        32: {"op_s.p50": 0.22, "evals_per_s": 110.0},
        33: {"op_s.p50": 0.22, "evals_per_s": 120.0},
    })
    paths["c"].write_text(json.dumps(control))
    # evals_per_s is still past its bound, so the exit status is still 1
    assert bench_compare.main([str(paths["a"]), str(paths["b"]), "--control", str(paths["c"])]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[4:6] == ["rel", "control"]
    body = [line.split() for line in lines[1:]]
    # op_s.p50: the change -9.5%, the control 0.22 against 0.21; the control has no peak_rss_mb
    assert [b[4:7] for b in body] == [["-9.5%", "+4.8%", "2/3"], ["-27.3%", "+0.0%", "0/3"], ["+10.0%", "n/a", "0/3"]]
    assert body[1][-1] == "BOUND"
