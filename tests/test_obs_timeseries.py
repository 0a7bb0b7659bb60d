"""The flight recorder: series semantics, alerts, and the Observability wiring."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.fleet import percentile
from repro.obs import (
    AlertRule,
    FlightRecorder,
    Observability,
    TimeSeries,
    evaluate_alerts,
    sparkline,
)


class TestTimeSeries:
    def test_points_keep_time_order(self):
        series = TimeSeries("s", "samples", capacity=8)
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        with pytest.raises(ObservabilityError):
            series.append(0.5, 3.0)

    def test_gauge_same_instant_overwrites(self):
        series = TimeSeries("s", "gauge", capacity=8)
        series.append(1.0, 10.0)
        series.append(1.0, 20.0)
        assert list(series) == [(1.0, 20.0)]

    def test_sample_same_instant_appends(self):
        series = TimeSeries("s", "samples", capacity=8)
        series.append(1.0, 10.0)
        series.append(1.0, 20.0)
        assert series.values() == [10.0, 20.0]

    def test_ring_drops_oldest(self):
        series = TimeSeries("s", "gauge", capacity=3)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert series.times() == [2.0, 3.0, 4.0]
        assert series.last() == (4.0, 40.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            TimeSeries("s", "ewma", capacity=8)

    @pytest.mark.parametrize("kind", ["gauge", "samples", "rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, kind, bad):
        series = TimeSeries("s", kind, capacity=8)
        with pytest.raises(ObservabilityError, match="finite"):
            series.append(bad, 1.0)
        series.append(1.0, 1.0)
        with pytest.raises(ObservabilityError, match="finite"):
            series.append(bad, 2.0)
        assert list(series) == [(1.0, 1.0)]


class TestFlightRecorder:
    def test_kind_exclusivity(self):
        recorder = FlightRecorder()
        recorder.gauge("x", 0.0, 1.0)
        with pytest.raises(ObservabilityError):
            recorder.count("x", 1.0)
        with pytest.raises(ObservabilityError):
            recorder.observe("x", 1.0, 1.0)

    def test_unknown_series_is_loud(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder().series("nope")

    def test_rate_windows_emit_events_per_second(self):
        recorder = FlightRecorder(window_s=0.5)
        recorder.count("r", 0.1)
        recorder.count("r", 0.2)
        recorder.count("r", 0.3, amount=2.0)
        # Nothing emitted until time leaves the window...
        assert len(recorder.series("r")) == 0
        recorder.count("r", 0.7)
        # ...then the closed window lands at its end timestamp, in /s.
        assert list(recorder.series("r")) == [(0.5, 8.0)]
        recorder.finalize(0.7)
        assert list(recorder.series("r")) == [(0.5, 8.0), (1.0, 2.0)]

    def test_rate_zero_fills_quiet_windows(self):
        recorder = FlightRecorder(window_s=1.0)
        recorder.count("r", 0.5)
        recorder.count("r", 3.5)
        assert list(recorder.series("r")) == [(1.0, 1.0), (2.0, 0.0), (3.0, 0.0)]

    def test_rate_zero_fill_is_capacity_bounded(self):
        recorder = FlightRecorder(window_s=1.0, capacity=4)
        recorder.count("r", 0.5)
        recorder.count("r", 1000.5)
        assert len(recorder.series("r")) == 4

    def test_rate_rejects_negative_and_backwards(self):
        recorder = FlightRecorder(window_s=1.0)
        with pytest.raises(ObservabilityError):
            recorder.count("r", 0.5, amount=-1.0)
        recorder.count("r", 5.0)
        with pytest.raises(ObservabilityError):
            recorder.count("r", 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamps_rejected(self, bad):
        recorder = FlightRecorder(window_s=1.0)
        recorder.observe("s", 1.0, 1.0)
        recorder.count("r", 1.0)
        for record in (
            lambda: recorder.observe("s", bad, 2.0),
            lambda: recorder.gauge("g", bad, 2.0),
            lambda: recorder.count("r", bad),
            lambda: recorder.count("fresh", bad),
            lambda: recorder.finalize(bad),
        ):
            with pytest.raises(ObservabilityError, match="finite"):
                record()
        # The rejected points left nothing behind, and the time-order
        # check still holds after them (a stored NaN would disable it).
        assert list(recorder.series("s")) == [(1.0, 1.0)]
        with pytest.raises(ObservabilityError, match="backwards"):
            recorder.observe("s", 0.5, 3.0)

    def test_window_at_nan_now_rejected(self):
        recorder = FlightRecorder(window_s=1.0)
        recorder.observe("s", 1.0, 1.0)
        with pytest.raises(ObservabilityError, match="NaN"):
            recorder.window_values("s", math.nan)

    @pytest.mark.parametrize("now", [-math.inf, math.inf])
    def test_window_at_infinite_now_is_empty(self, now):
        recorder = FlightRecorder(window_s=1.0)
        recorder.observe("s", 1.0, 1.0)
        assert recorder.window_values("s", now) == []

    def test_window_values_edges(self):
        recorder = FlightRecorder(window_s=1.0, sample_horizon_s=2.0)
        for t, value in [(1.0, 10.0), (2.0, 20.0), (2.0, 21.0), (3.0, 30.0),
                         (5.0, 50.0)]:
            recorder.observe("s", t, value)
        assert recorder.window_values("s", 0.5) == []
        assert recorder.window_values("s", 2.0) == [10.0, 20.0, 21.0]
        assert recorder.window_values("s", 2.5) == [10.0, 20.0, 21.0]
        assert recorder.window_values("s", 3.0) == [10.0, 20.0, 21.0, 30.0]
        assert recorder.window_values("s", 3.5) == [20.0, 21.0, 30.0]
        assert recorder.window_values("s", 4.0) == [20.0, 21.0, 30.0]
        assert recorder.window_values("s", 9.0) == []

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0])
            | st.floats(min_value=0.0, max_value=3.0),
            min_size=1, max_size=48,
        ),
        start=st.sampled_from([-4.0, 0.0, 10.0]),
        capacity=st.integers(min_value=1, max_value=20),
        horizon=st.sampled_from([0.5, 1.0, 2.0])
        | st.floats(min_value=0.01, max_value=10.0),
        offsets=st.lists(
            st.floats(min_value=-15.0, max_value=15.0), max_size=8,
        ),
    )
    def test_back_scan_matches_full_ring_filter(
        self, gaps, start, capacity, horizon, offsets
    ):
        """The back-scan returns exactly what a full-ring filter returns."""
        recorder = FlightRecorder(
            window_s=0.25, capacity=capacity, sample_horizon_s=horizon,
        )
        times = []
        t = start
        for index, gap in enumerate(gaps):
            t += gap
            times.append(t)
            recorder.observe("lat", t, float(index))  # unique: order shows
        kept = recorder.series("lat").times()
        # Every recorded instant (evicted ones too), the horizon boundary
        # landing exactly on each, the midpoints between them, and
        # points before the first and after the last.
        nows = set(times)
        nows.update(t + horizon for t in times)
        nows.update((a + b) / 2 for a, b in zip(kept, kept[1:]))
        nows.update((kept[0] - 1.0, kept[-1] + 1.0, kept[-1] + horizon))
        nows.update(kept[-1] + offset for offset in offsets)
        for now in sorted(nows):
            horizon_start = now - horizon
            oracle = [
                value for t, value in recorder.series("lat")
                if horizon_start <= t <= now
            ]
            assert recorder.window_values("lat", now) == oracle, now

    def test_window_percentile_matches_slo_percentile(self):
        recorder = FlightRecorder(window_s=1.0, sample_horizon_s=4.0)
        samples = [(0.0, 9.0), (7.0, 1.0), (8.0, 2.0), (9.0, 3.0), (10.0, 4.0)]
        for t, value in samples:
            recorder.observe("lat", t, value)
        in_window = [1.0, 2.0, 3.0, 4.0]  # the t=0 sample fell out
        assert recorder.window_values("lat", 10.0) == in_window
        for q in (0.0, 50.0, 99.0, 100.0):
            assert recorder.window_percentile("lat", q, 10.0) == percentile(
                in_window, q
            )

    def test_window_percentile_empty_horizon_is_zero(self):
        recorder = FlightRecorder(window_s=1.0, sample_horizon_s=1.0)
        recorder.observe("lat", 0.0, 5.0)
        assert recorder.window_percentile("lat", 99.0, 100.0) == 0.0

    def test_to_jsonable_sorted_and_complete(self):
        recorder = FlightRecorder(window_s=0.5)
        recorder.gauge("z", 0.0, 1.0)
        recorder.observe("a", 0.0, 2.0)
        recorder.count("m", 0.0)
        payload = recorder.to_jsonable()
        assert list(payload["series"]) == ["a", "m", "z"]
        assert payload["window_s"] == 0.5
        assert payload["series"]["a"] == {"kind": "samples", "points": [[0.0, 2.0]]}

    def test_render_mentions_every_series(self):
        recorder = FlightRecorder()
        assert "no series" in recorder.render()
        recorder.gauge("depth", 0.0, 3.0)
        dashboard = recorder.render()
        assert "depth" in dashboard and "gauge" in dashboard

    def test_validation(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder(window_s=0.0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity=0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(sample_horizon_s=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ObservabilityError):
                FlightRecorder(window_s=bad)
        with pytest.raises(ObservabilityError):
            FlightRecorder(sample_horizon_s=math.nan)


class TestSparkline:
    def test_empty_and_constant(self):
        assert sparkline([]) == "(empty)"
        flat = sparkline([2.0, 2.0, 2.0])
        assert len(flat) == 3 and len(set(flat)) == 1

    def test_monotone_values_render_monotone_blocks(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert list(line) == sorted(line)
        assert line[0] != line[-1]

    def test_width_keeps_most_recent(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ))
    def test_output_is_always_blocks(self, values):
        line = sparkline(values)
        assert 0 < len(line) <= 60
        assert set(line) <= set("▁▂▃▄▅▆▇█")


class TestAlerts:
    def _recorder_with(self, points, name="p99"):
        recorder = FlightRecorder()
        for t, value in points:
            recorder.gauge(name, t, value)
        return recorder

    def test_fires_on_nth_consecutive_breach(self):
        rule = AlertRule(name="hot", series="p99", threshold=1.0, consecutive=3)
        recorder = self._recorder_with(
            [(0.0, 2.0), (1.0, 2.0), (2.0, 0.5), (3.0, 2.0), (4.0, 2.0),
             (5.0, 2.0), (6.0, 2.0)]
        )
        events = evaluate_alerts(recorder, [rule])
        # The first streak dies at two; the second fires once at t=5
        # and stays quiet at t=6 (no re-fire without recovery).
        assert [event.at_time for event in events] == [5.0]
        assert events[0].rule == "hot"
        assert events[0].value == 2.0

    def test_rearms_after_recovery(self):
        rule = AlertRule(name="hot", series="p99", threshold=1.0, consecutive=2)
        recorder = self._recorder_with(
            [(0.0, 2.0), (1.0, 2.0), (2.0, 0.5), (3.0, 2.0), (4.0, 2.0)]
        )
        events = evaluate_alerts(recorder, [rule])
        assert [event.at_time for event in events] == [1.0, 4.0]

    def test_missing_series_is_quiet(self):
        rule = AlertRule(name="hot", series="never-recorded", threshold=1.0)
        assert evaluate_alerts(FlightRecorder(), [rule]) == ()

    def test_comparison_ops(self):
        recorder = self._recorder_with([(0.0, 0.5)], name="low")
        rule = AlertRule(
            name="cold", series="low", threshold=1.0, op="<", consecutive=1
        )
        events = evaluate_alerts(recorder, [rule])
        assert len(events) == 1
        assert "ALERT cold" in events[0].render()
        assert events[0].to_jsonable()["threshold"] == 1.0

    def test_rule_validation(self):
        with pytest.raises(ObservabilityError):
            AlertRule(name="", series="s", threshold=1.0)
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", series="s", threshold=1.0, op="!=")
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", series="s", threshold=1.0, consecutive=0)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
        consecutive=st.integers(min_value=1, max_value=5),
    )
    def test_alert_count_matches_breach_episodes(self, values, consecutive):
        """One alert per episode of >= `consecutive` breaching points."""
        recorder = self._recorder_with(
            [(float(i), value) for i, value in enumerate(values)]
        )
        rule = AlertRule(name="r", series="p99", threshold=1.0,
                         consecutive=consecutive)
        events = evaluate_alerts(recorder, [rule])
        episodes = 0
        streak = 0
        for value in values:
            streak = streak + 1 if value > 1.0 else 0
            if streak == consecutive:
                episodes += 1
        assert len(events) == episodes


class TestObservabilityWiring:
    def test_with_timeseries_attaches_recorder(self):
        obs = Observability.with_timeseries(window_s=0.5)
        assert obs.recording
        assert obs.timeseries.window_s == 0.5
        assert not Observability().recording
        assert not Observability.disabled().recording

    def test_ts_helpers_record_when_enabled(self):
        obs = Observability.with_timeseries()
        obs.ts_gauge("g", 0.0, 1.0)
        obs.ts_count("c", 0.0)
        obs.ts_observe("o", 0.0, 2.0)
        assert obs.timeseries.names() == ["c", "g", "o"]

    def test_ts_helpers_no_op_without_recorder(self):
        for obs in (Observability(), Observability.disabled()):
            obs.ts_gauge("g", 0.0, 1.0)
            obs.ts_count("c", 0.0)
            obs.ts_observe("o", 0.0, 2.0)
            assert obs.timeseries is None or not obs.timeseries.names()

    def test_disabled_handle_with_recorder_stays_silent(self):
        obs = Observability(
            enabled=False, timeseries=FlightRecorder()
        )
        obs.ts_gauge("g", 0.0, 1.0)
        assert obs.timeseries.names() == []

    def test_adopt_redirects_recorder(self):
        mine = Observability.with_timeseries()
        machine_side = Observability()
        machine_side.adopt(mine)
        machine_side.ts_gauge("g", 0.0, 1.0)
        assert mine.timeseries.names() == ["g"]

    def test_ensure_timeseries_is_idempotent(self):
        obs = Observability()
        recorder = obs.ensure_timeseries(window_s=0.125)
        assert obs.ensure_timeseries() is recorder
        assert recorder.window_s == 0.125
