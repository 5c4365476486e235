"""Perf-trajectory mechanics: extraction, append idempotence, the gate."""

import json

import pytest

from repro.dist.trajectory import (
    MetricRule,
    TrajectoryError,
    append_run,
    check,
    latest,
    load_trajectory,
    metrics_from_report,
    rule_for,
)

SPEEDUP_REPORT = {
    "benchmark": "compile_amortization",
    "data": [
        {"method": "uncached", "seconds": 1.0},
        {"method": "aggregate", "speedup": 2.5},
    ],
}

SERVING_REPORT = {
    "benchmark": "serving_throughput",
    "data": {
        "levels": [
            {"clients": 4, "req_per_s": 450.0, "p50_ms": 8.0},
            {"clients": 16, "req_per_s": 440.0, "p50_ms": 30.0},
        ]
    },
}


def _bench_dir(tmp_path, name="fresh", speedup=2.5, req4=450.0, req16=440.0):
    directory = tmp_path / name
    directory.mkdir(exist_ok=True)
    speedup_report = json.loads(json.dumps(SPEEDUP_REPORT))
    speedup_report["data"][1]["speedup"] = speedup
    serving = json.loads(json.dumps(SERVING_REPORT))
    serving["data"]["levels"][0]["req_per_s"] = req4
    serving["data"]["levels"][1]["req_per_s"] = req16
    (directory / "BENCH_compile_amortization.json").write_text(json.dumps(speedup_report))
    (directory / "BENCH_serving_throughput.json").write_text(json.dumps(serving))
    return directory


def test_metrics_from_speedup_report():
    assert metrics_from_report(SPEEDUP_REPORT) == {"aggregate_speedup": 2.5}


def test_metrics_from_serving_report():
    assert metrics_from_report(SERVING_REPORT) == {
        "req_per_s_c4": 450.0,
        "req_per_s_c16": 440.0,
    }


def test_metrics_from_unknown_report_shape_is_empty():
    assert metrics_from_report({"data": "not structured"}) == {}


def test_append_run_is_idempotent_per_commit(tmp_path):
    fresh = _bench_dir(tmp_path)
    trajectory = tmp_path / "trajectory.jsonl"
    first = append_run(trajectory, fresh, commit="abc1234", source="test")
    assert {(row["bench"], row["metric"]) for row in first} == {
        ("compile_amortization", "aggregate_speedup"),
        ("serving_throughput", "req_per_s_c4"),
        ("serving_throughput", "req_per_s_c16"),
    }
    assert append_run(trajectory, fresh, commit="abc1234", source="test") == []
    assert len(load_trajectory(trajectory)) == 3
    # a new commit appends without rewriting history
    second = append_run(trajectory, fresh, commit="def5678", source="test")
    assert len(second) == 3 and len(load_trajectory(trajectory)) == 6


def test_latest_takes_the_last_row_per_metric(tmp_path):
    fresh = _bench_dir(tmp_path, speedup=2.5)
    trajectory = tmp_path / "trajectory.jsonl"
    append_run(trajectory, fresh, commit="a")
    append_run(trajectory, _bench_dir(tmp_path, "better", speedup=4.0), commit="b")
    last = latest(load_trajectory(trajectory))
    assert last[("compile_amortization", "aggregate_speedup")]["value"] == 4.0


def test_gate_passes_within_tolerance(tmp_path):
    trajectory = tmp_path / "trajectory.jsonl"
    append_run(trajectory, _bench_dir(tmp_path), commit="a")
    fresh = _bench_dir(tmp_path, "fresh2", speedup=2.0, req4=200.0, req16=150.0)
    outcomes = check(trajectory, fresh)
    assert outcomes and all(outcome.ok for outcome in outcomes)


def test_gate_fails_on_real_regression(tmp_path):
    trajectory = tmp_path / "trajectory.jsonl"
    append_run(trajectory, _bench_dir(tmp_path), commit="a")
    # compile speedup collapsed below both the ratio band and the 1.5x floor
    fresh = _bench_dir(tmp_path, "slow", speedup=1.1)
    outcomes = {(o.bench, o.metric): o for o in check(trajectory, fresh)}
    assert not outcomes[("compile_amortization", "aggregate_speedup")].ok
    assert outcomes[("serving_throughput", "req_per_s_c4")].ok


def test_gate_fails_on_missing_report(tmp_path):
    trajectory = tmp_path / "trajectory.jsonl"
    append_run(trajectory, _bench_dir(tmp_path), commit="a")
    sparse = tmp_path / "sparse"
    sparse.mkdir()
    fresh = _bench_dir(tmp_path)
    (sparse / "BENCH_compile_amortization.json").write_text(
        (fresh / "BENCH_compile_amortization.json").read_text()
    )
    outcomes = {(o.bench, o.metric): o for o in check(trajectory, sparse)}
    serving = outcomes[("serving_throughput", "req_per_s_c4")]
    assert not serving.ok and "missing fresh report" in serving.detail
    assert outcomes[("compile_amortization", "aggregate_speedup")].ok


def test_gate_fails_on_lost_metric(tmp_path):
    trajectory = tmp_path / "trajectory.jsonl"
    append_run(trajectory, _bench_dir(tmp_path), commit="a")
    fresh = _bench_dir(tmp_path, "lost")
    report = json.loads((fresh / "BENCH_serving_throughput.json").read_text())
    report["data"]["levels"] = report["data"]["levels"][:1]  # c16 level gone
    (fresh / "BENCH_serving_throughput.json").write_text(json.dumps(report))
    outcomes = {(o.bench, o.metric): o for o in check(trajectory, fresh)}
    assert not outcomes[("serving_throughput", "req_per_s_c16")].ok
    assert outcomes[("serving_throughput", "req_per_s_c4")].ok


def test_gate_without_trajectory_raises(tmp_path):
    with pytest.raises(TrajectoryError, match="no trajectory"):
        check(tmp_path / "missing.jsonl", _bench_dir(tmp_path))


def test_rule_floors_apply_to_named_benches():
    rule = rule_for("bind_amortization", "aggregate_speedup")
    assert rule.floor == 5.0
    assert rule_for("compile_amortization", "aggregate_speedup").floor == 1.5
    assert rule_for("term_replay", "aggregate_speedup").floor == 5.0
    assert rule_for("hit_path", "aggregate_speedup").floor == 0.67
    assert rule_for("engine_speedup", "aggregate_speedup").floor == 25.0
    assert rule_for("gradient", "aggregate_speedup").floor == 4.0
    assert rule_for("plan_replay", "aggregate_speedup").floor == 2.0
    assert rule_for("other_bench", "aggregate_speedup").floor is None
    assert rule_for("serving_throughput", "req_per_s_c4").ratio == 0.2
    assert rule_for("unknown", "unknown_metric") == MetricRule()


def test_malformed_trajectory_rows_raise(tmp_path):
    bad = tmp_path / "trajectory.jsonl"
    bad.write_text('{"bench": "x", "metric": "y"}\n')  # value missing
    with pytest.raises(TrajectoryError, match="missing 'value'"):
        load_trajectory(bad)
    bad.write_text("not json\n")
    with pytest.raises(TrajectoryError, match="invalid trajectory row"):
        load_trajectory(bad)


def test_checked_in_trajectory_parses_and_covers_all_benches():
    from pathlib import Path

    rows = load_trajectory(Path(__file__).resolve().parents[2] / "benchmarks" / "trajectory.jsonl")
    benches = {row["bench"] for row in rows}
    assert {
        "compile_amortization",
        "bind_amortization",
        "serving_throughput",
        "term_replay",
        "engine_speedup",
        "gradient",
        "plan_replay",
    } <= benches
    # Every floored claim held when its baseline was recorded.
    for (bench, metric), row in latest(rows).items():
        floor = rule_for(bench, metric).floor
        assert floor is None or row["value"] >= floor, (bench, metric)
