"""The perf-regression gate: snapshot, check, and the planted failure."""

import json

import pytest

from repro.config import config_hash
from repro.perfgate import (
    GATED_METRICS,
    GatedMetric,
    PerfGateError,
    check,
    load_results,
    lookup,
    snapshot,
)


class TestLookup:
    def test_dotted_path_resolution(self):
        payload = {"a": {"b": {"c": 1.5}}}
        assert lookup(payload, "a.b.c") == 1.5

    def test_absent_path_is_none(self):
        assert lookup({"a": {}}, "a.b") is None
        assert lookup({}, "a") is None

    def test_non_numeric_leaves_rejected(self):
        assert lookup({"a": "fast"}, "a") is None
        assert lookup({"a": True}, "a") is None  # bool is not a metric
        assert lookup({"a": 3}, "a") == 3.0


class TestLimits:
    def test_max_direction_allows_improvement(self):
        lo, hi = GatedMetric("m", "max", rel_tol=0.01).limits(100.0)
        assert lo == float("-inf")
        assert hi == pytest.approx(101.0)

    def test_both_direction_pins_the_value(self):
        lo, hi = GatedMetric("m", "both").limits(0.0)
        assert (lo, hi) == (0.0, 0.0)

    def test_abs_tol_adds_slack_for_zero_baselines(self):
        lo, hi = GatedMetric("m", "both", abs_tol=1e-9).limits(0.0)
        assert (lo, hi) == (-1e-9, 1e-9)

    def test_unknown_direction_raises(self):
        with pytest.raises(PerfGateError, match="direction"):
            GatedMetric("m", "min").limits(1.0)


def _write_results(root, bench, payload):
    (root / "bench_results").mkdir(exist_ok=True)
    (root / "bench_results" / f"BENCH_{bench}.json").write_text(
        json.dumps(payload), encoding="utf-8"
    )


def _full_results(root, value=1.0):
    """Results covering every gated metric, all set to ``value``."""
    for bench, metrics in GATED_METRICS.items():
        payload = {}
        for metric in metrics:
            node = payload
            *parents, leaf = metric.path.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = value
        _write_results(root, bench, payload)


class TestSnapshotCheckRoundTrip:
    def test_clean_round_trip_passes(self, tmp_path):
        _full_results(tmp_path)
        written = snapshot(tmp_path)
        assert sorted(p.stem for p in written) == sorted(GATED_METRICS)
        report = check(tmp_path)
        assert report.ok
        assert report.checked == sum(len(m) for m in GATED_METRICS.values())
        assert report.render().endswith("PASS")

    def test_planted_regression_fails_every_metric(self, tmp_path):
        _full_results(tmp_path)
        snapshot(tmp_path)
        report = check(tmp_path, planted_regression=True)
        assert not report.ok
        assert len(report.deviations) == report.checked
        assert report.render().endswith("FAIL")
        assert "REGRESSION" in report.deviations[0].render()

    def test_real_regression_beyond_tolerance_fails(self, tmp_path):
        _full_results(tmp_path, value=1.0)
        snapshot(tmp_path)
        _full_results(tmp_path, value=1.5)  # all metrics 50% worse
        report = check(tmp_path)
        assert not report.ok

    def test_improvement_passes_max_metrics(self, tmp_path):
        _write_results(tmp_path, "faults", {
            "no_fault_overhead": {"overhead_fraction": 0.0},
            "crash_recovery": {"healthy_seconds": 2.0, "slowdown": 1.3},
        })
        baselines = tmp_path / "perf_baselines"
        baselines.mkdir()
        (baselines / "faults.json").write_text(json.dumps({
            "schema_version": 1,
            "bench": "faults",
            "metrics": {
                "no_fault_overhead.overhead_fraction":
                    {"value": 0.0, "direction": "both"},
                "crash_recovery.healthy_seconds":
                    {"value": 2.0, "direction": "max", "rel_tol": 0.01},
                "crash_recovery.slowdown":
                    {"value": 1.5, "direction": "max", "rel_tol": 0.02},
            },
        }), encoding="utf-8")
        report = check(tmp_path, baselines_dir=baselines)
        # slowdown improved 1.5 -> 1.3: the gate stays silent; every
        # other bench has no committed baseline and is reported.
        assert not report.deviations
        assert sorted(report.missing_results) == sorted(
            f"{bench} (no committed baseline)"
            for bench in GATED_METRICS if bench != "faults"
        )

    def test_within_tolerance_drift_passes(self, tmp_path):
        _full_results(tmp_path, value=1.0)
        baselines = tmp_path / "perf_baselines"
        snapshot(tmp_path, baselines_dir=baselines)
        # Bump only the rel_tol'd sim-seconds metrics by half a percent.
        payload = json.loads(
            (tmp_path / "bench_results" / "BENCH_obs.json").read_text()
        )
        for row in payload["per_workload"].values():
            row["sim_seconds"] = 1.005
        _write_results(tmp_path, "obs", payload)
        assert check(tmp_path, baselines_dir=baselines).ok


class TestMissingPieces:
    def test_snapshot_refuses_missing_results(self, tmp_path):
        with pytest.raises(PerfGateError, match="run the benchmark suite"):
            snapshot(tmp_path)

    def test_snapshot_refuses_a_metric_hole(self, tmp_path):
        _full_results(tmp_path)
        payload = json.loads(
            (tmp_path / "bench_results" / "BENCH_obs.json").read_text()
        )
        del payload["disabled_sim_overhead_seconds"]
        _write_results(tmp_path, "obs", payload)
        with pytest.raises(PerfGateError, match="lack gated metric"):
            snapshot(tmp_path)

    def test_check_reports_missing_baselines_not_silent_pass(self, tmp_path):
        _full_results(tmp_path)
        report = check(tmp_path)
        assert not report.ok
        assert len(report.missing_results) == len(GATED_METRICS)

    def test_check_reports_missing_fresh_metrics(self, tmp_path):
        _full_results(tmp_path)
        snapshot(tmp_path)
        payload = json.loads(
            (tmp_path / "bench_results" / "BENCH_obs.json").read_text()
        )
        del payload["attribution"]
        _write_results(tmp_path, "obs", payload)
        report = check(tmp_path)
        assert not report.ok
        assert any("attribution" in m for m in report.missing_metrics)

    def test_check_reports_results_from_another_config(self, tmp_path):
        _full_results(tmp_path)
        snapshot(tmp_path)
        path = tmp_path / "bench_results" / "BENCH_fleet.json"
        payload = json.loads(path.read_text())
        payload["meta"] = {"bench": "fleet", "config_hash": config_hash()}
        _write_results(tmp_path, "fleet", payload)
        assert check(tmp_path).ok
        payload["meta"]["config_hash"] = "3e89b1a7fc95"
        _write_results(tmp_path, "fleet", payload)
        report = check(tmp_path)
        assert not report.ok
        assert not report.deviations and not report.missing_metrics
        [stale] = report.stale_config
        assert stale.startswith("fleet:") and "3e89b1a7fc95" in stale
        assert config_hash() in stale
        assert "STALE config fleet:" in report.render()
        assert report.to_jsonable()["stale_config"] == [stale]

    def test_unreadable_results_raise(self, tmp_path):
        (tmp_path / "bench_results").mkdir()
        (tmp_path / "bench_results" / "BENCH_obs.json").write_text("{nope")
        with pytest.raises(PerfGateError, match="unreadable"):
            load_results("obs", tmp_path)


class TestCommittedBaselines:
    def test_the_repo_ships_a_baseline_per_bench(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for bench in GATED_METRICS:
            path = root / "perf_baselines" / f"{bench}.json"
            assert path.exists(), f"missing committed baseline {path}"
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["schema_version"] == 1
            committed = set(payload["metrics"])
            gated = {metric.path for metric in GATED_METRICS[bench]}
            assert committed == gated

    def test_zero_overhead_invariants_are_pinned_at_zero(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        payload = json.loads(
            (root / "perf_baselines" / "obs.json").read_text(encoding="utf-8")
        )
        for path in ("disabled_sim_overhead_seconds",
                     "attribution.identity_residual",
                     "attribution.sim_overhead_seconds"):
            spec = payload["metrics"][path]
            assert spec["value"] == 0.0
            assert spec["direction"] == "both"
            assert spec["rel_tol"] == 0.0 and spec["abs_tol"] == 0.0


class TestGateReportShape:
    def test_jsonable(self, tmp_path):
        _full_results(tmp_path)
        snapshot(tmp_path)
        payload = check(tmp_path, planted_regression=True).to_jsonable()
        assert payload["ok"] is False
        assert payload["deviations"]
        assert {"bench", "path", "baseline", "actual"} <= set(
            payload["deviations"][0]
        )
