"""Execution timeline recording and rendering."""

import pytest

from repro.analysis.timeline import ExecutionTimeline, merge
from repro.errors import ReproError
from repro.runtime.activepy import ActivePy, RunOptions

from .conftest import make_toy_dataset, make_toy_program


class TestRecording:
    def test_spans_sorted_by_time(self):
        timeline = ExecutionTimeline()
        timeline.record(2.0, 3.0, "host", "compute", "b")
        timeline.record(0.0, 1.0, "host", "compute", "a")
        assert [s.label for s in timeline.spans] == ["a", "b"]

    def test_busy_seconds_per_resource(self):
        timeline = ExecutionTimeline()
        timeline.record(0.0, 1.5, "host", "compute", "a")
        timeline.record(1.5, 2.0, "csd", "compute", "b")
        assert timeline.busy_seconds("host") == pytest.approx(1.5)
        assert timeline.busy_seconds("csd") == pytest.approx(0.5)

    def test_makespan(self):
        timeline = ExecutionTimeline()
        timeline.record(1.0, 2.0, "host", "compute", "a")
        timeline.record(3.0, 5.0, "csd", "compute", "b")
        assert timeline.makespan == pytest.approx(4.0)

    def test_backwards_span_rejected(self):
        with pytest.raises(ReproError):
            ExecutionTimeline().record(2.0, 1.0, "host", "compute", "x")

    def test_span_of(self):
        timeline = ExecutionTimeline()
        timeline.record(0.0, 1.0, "host", "compute", "scan")
        assert timeline.span_of("scan").end == 1.0
        with pytest.raises(ReproError):
            timeline.span_of("nope")

    def test_merge(self):
        a = ExecutionTimeline()
        a.record(0.0, 1.0, "host", "compute", "a")
        b = ExecutionTimeline()
        b.record(1.0, 2.0, "csd", "compute", "b")
        merged = merge([a, b])
        assert len(merged.spans) == 2


class TestRendering:
    def test_empty(self):
        assert ExecutionTimeline().render() == "(empty timeline)"

    def test_lanes_per_resource(self):
        timeline = ExecutionTimeline()
        timeline.record(0.0, 1.0, "host", "compute", "a")
        timeline.record(1.0, 2.0, "csd", "transfer", "b")
        text = timeline.render(width=20)
        assert "host" in text and "csd" in text
        assert "#" in text and ">" in text


class TestIntegrationWithRuntime:
    def test_traced_run_covers_every_line(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = ActivePy(config).run(
            program, dataset, options=RunOptions(trace=True)
        )
        timeline = report.timeline
        assert timeline is not None
        labels = {span.label for span in timeline.spans}
        assert {"sampling-phase", "codegen", "scan", "crunch", "reduce"} <= labels

    def test_trace_time_conservation(self, config):
        # Spans on the critical path must tile the run: sampling +
        # compile + per-line spans account for the whole duration.
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = ActivePy(config).run(
            program, dataset, options=RunOptions(trace=True)
        )
        covered = sum(
            span.duration for span in report.timeline.spans
            if span.kind in ("sampling", "compile", "compute")
        )
        assert covered == pytest.approx(report.total_seconds, rel=0.02)

    def test_untraced_run_has_no_timeline(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = ActivePy(config).run(program, dataset)
        assert report.timeline is None

    def test_migration_span_recorded(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = ActivePy(config).run(
            program, dataset,
            options=RunOptions(trace=True, progress_triggers=((0.3, 0.05),)),
        )
        if report.result.migrated:
            kinds = {span.kind for span in report.timeline.spans}
            assert "migration" in kinds
