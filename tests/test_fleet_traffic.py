"""Traffic generator and SLO math: seeded, stable, numpy-exact."""

import math
import struct

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet.slo import sorted_percentile
from repro.fleet import (
    SloSnapshot,
    TenantSpec,
    TrafficGenerator,
    default_tenants,
    percentile,
)


def _tenants(*rates):
    return tuple(
        TenantSpec(name=f"tenant-{chr(ord('a') + i)}", rate_jobs_per_s=rate,
                   priority=len(rates) - i)
        for i, rate in enumerate(rates)
    )


class TestDeterminism:
    def test_same_seed_same_schedule_byte_identical(self):
        tenants = _tenants(4.0, 2.0, 1.0)
        first = TrafficGenerator(tenants, seed=42).schedule(200)
        second = TrafficGenerator(tenants, seed=42).schedule(200)
        assert first == second  # frozen dataclasses: full field equality

    def test_different_seeds_differ(self):
        tenants = _tenants(4.0, 2.0)
        assert (TrafficGenerator(tenants, seed=1).schedule(50)
                != TrafficGenerator(tenants, seed=2).schedule(50))

    def test_tenant_streams_are_independent_of_other_tenants(self):
        # Adding a tenant must not perturb the arrival times of the
        # existing ones — each stream is keyed on (seed, tenant name).
        base = TrafficGenerator(_tenants(4.0, 2.0), seed=7).schedule(300)
        extended = TrafficGenerator(
            _tenants(4.0, 2.0) + (TenantSpec(name="tenant-z",
                                             rate_jobs_per_s=3.0),),
            seed=7,
        ).schedule(300)
        base_a = [a.arrival_time for a in base if a.tenant == "tenant-a"][:40]
        ext_a = [a.arrival_time for a in extended
                 if a.tenant == "tenant-a"][:40]
        assert base_a == ext_a

    def test_job_ids_dense_and_times_sorted(self):
        schedule = TrafficGenerator(_tenants(3.0, 3.0), seed=0).schedule(100)
        assert [a.job_id for a in schedule] == list(range(100))
        times = [a.arrival_time for a in schedule]
        assert times == sorted(times)

    def test_declaration_order_does_not_matter(self):
        forward = TrafficGenerator(_tenants(4.0, 2.0), seed=3).schedule(100)
        backward = TrafficGenerator(
            tuple(reversed(_tenants(4.0, 2.0))), seed=3,
        ).schedule(100)
        assert forward == backward


class TestRates:
    def test_per_tenant_rates_within_tolerance(self):
        # Open-loop Poisson arrivals: over a long horizon each tenant's
        # empirical rate converges to its configured one.
        tenants = _tenants(5.0, 2.0)
        schedule = TrafficGenerator(tenants, seed=11).schedule(6000)
        for tenant in tenants:
            mine = [a.arrival_time for a in schedule
                    if a.tenant == tenant.name]
            assert len(mine) > 100
            empirical = len(mine) / mine[-1]
            assert empirical == pytest.approx(
                tenant.rate_jobs_per_s, rel=0.10,
            )

    def test_workloads_drawn_from_the_tenant_rotation(self):
        tenants = (TenantSpec(name="t", rate_jobs_per_s=5.0,
                              workloads=("kmeans", "pagerank")),)
        schedule = TrafficGenerator(tenants, seed=1).schedule(200)
        assert {a.workload for a in schedule} == {"kmeans", "pagerank"}


class TestValidation:
    def test_unresolved_rate_is_rejected(self):
        with pytest.raises(FleetError, match="resolved rate"):
            TrafficGenerator(default_tenants(2), seed=0)

    def test_duplicate_names_rejected(self):
        tenant = TenantSpec(name="t", rate_jobs_per_s=1.0)
        with pytest.raises(FleetError, match="unique"):
            TrafficGenerator((tenant, tenant), seed=0)

    def test_bad_tenant_specs_rejected(self):
        with pytest.raises(FleetError):
            TenantSpec(name="")
        with pytest.raises(FleetError):
            TenantSpec(name="t", rate_jobs_per_s=-1.0)
        with pytest.raises(FleetError):
            TenantSpec(name="t", queue_limit=0)
        with pytest.raises(FleetError):
            TenantSpec(name="t", workloads=())

    def test_default_tenants_priorities_descend(self):
        tenants = default_tenants(3)
        assert [t.name for t in tenants] == ["tenant-a", "tenant-b", "tenant-c"]
        assert [t.priority for t in tenants] == [3, 2, 1]


class TestPercentile:
    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=120,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_numpy_percentile(self, samples, q):
        ours = percentile(samples, q)
        theirs = float(numpy.percentile(numpy.array(samples, dtype=float), q))
        assert math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-9)

    def test_exact_on_known_values(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([5.0], 99.0) == 5.0
        assert percentile([1.0, 2.0], 0.0) == 1.0
        assert percentile([1.0, 2.0], 100.0) == 2.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(FleetError):
            percentile([], 50.0)
        with pytest.raises(FleetError):
            percentile([1.0], 101.0)
        with pytest.raises(FleetError):
            sorted_percentile([], 50.0)
        with pytest.raises(FleetError):
            sorted_percentile([1.0], -1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        samples=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
            | st.floats(min_value=-1e6, max_value=1e6,
                        allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
        q=st.sampled_from([0.0, 50.0, 99.0, 100.0])
        | st.floats(min_value=0.0, max_value=100.0),
    )
    def test_sorted_percentile_is_percentile_bit_for_bit(self, samples, q):
        """Sorting once up front changes no bit, signed zeros included."""
        ours = sorted_percentile(sorted(samples), q)
        assert struct.pack("<d", ours) == struct.pack(
            "<d", percentile(samples, q)
        )


class TestSloSnapshot:
    def test_from_samples_and_render(self):
        snapshot = SloSnapshot.from_samples(
            tenant="tenant-a", priority=3, arrived=10, admitted=9,
            completed=8, degraded=1, shed=1,
            queue_waits=[0.1, 0.2, 0.3], end_to_ends=[1.0, 2.0, 3.0],
        )
        assert snapshot.queue_wait_p50_s == pytest.approx(0.2)
        assert snapshot.end_to_end_p50_s == pytest.approx(2.0)
        assert "tenant-a" in snapshot.render()

    def test_empty_samples_report_zero(self):
        snapshot = SloSnapshot.from_samples(
            tenant="t", priority=1, arrived=0, admitted=0,
            completed=0, degraded=0, shed=0,
            queue_waits=[], end_to_ends=[],
        )
        assert snapshot.queue_wait_p99_s == 0.0
        assert snapshot.end_to_end_p99_s == 0.0

    def test_single_sample_is_every_percentile(self):
        snapshot = SloSnapshot.from_samples(
            tenant="t", priority=1, arrived=1, admitted=1,
            completed=1, degraded=0, shed=0,
            queue_waits=[0.125], end_to_ends=[1.5],
        )
        assert snapshot.queue_wait_p50_s == 0.125
        assert snapshot.queue_wait_p99_s == 0.125
        assert snapshot.end_to_end_p50_s == 1.5
        assert snapshot.end_to_end_p99_s == 1.5

    def test_window_percentile_matches_snapshot_edge_conventions(self):
        """The flight recorder's sliding window uses the same 0- and
        1-sample conventions as the whole-run SloSnapshot."""
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(sample_horizon_s=10.0)
        recorder.observe("lat", 0.0, 1.5)
        # One sample in the window: it is every percentile.
        for q in (0.0, 50.0, 99.0, 100.0):
            assert recorder.window_percentile("lat", q, 0.0) == 1.5
        # Zero samples in the horizon: 0.0, same as the empty snapshot.
        assert recorder.window_percentile("lat", 99.0, 100.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e3,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=80,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_sliding_window_agrees_with_whole_run(self, samples, q):
        """With a horizon covering every sample, a sliding-window
        percentile equals the whole-run percentile exactly — a uniform
        workload's live dashboard converges on the final SLO report."""
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(sample_horizon_s=float(len(samples) + 1))
        for i, value in enumerate(samples):
            recorder.observe("e2e", float(i), value)
        now = float(len(samples) - 1)
        assert recorder.window_percentile("e2e", q, now) == percentile(
            samples, q
        )
