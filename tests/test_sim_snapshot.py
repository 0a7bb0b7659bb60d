"""Snapshot, restore, and fork semantics of the simulator."""

import pytest

from repro.sim import SimSnapshot, Simulator


class TestSnapshotRestore:
    def test_restore_rewinds_clock_and_events(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.run_all()
        snap = sim.snapshot()
        assert isinstance(snap, SimSnapshot)
        sim.schedule_at(5.0, lambda: fired.append("b"))
        sim.run_all()
        assert fired == ["a", "b"]
        assert sim.now == 5.0

        sim.restore(snap)
        assert sim.now == 1.0
        assert sim.pending_events == 0
        sim.run_all()
        assert fired == ["a", "b"]  # the restored timeline has no "b"

    def test_restore_preserves_pending_events(self, sim):
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("later"))
        snap = sim.snapshot()
        assert snap.pending_events == 1
        sim.run_all()
        assert fired == ["later"]

        sim.restore(snap)
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["later", "later"]

    def test_snapshot_is_restorable_repeatedly(self, sim):
        counter = []
        sim.schedule_at(1.0, lambda: counter.append(sim.now))
        snap = sim.snapshot()
        for _ in range(3):
            sim.restore(snap)
            sim.run_all()
        assert counter == [1.0, 1.0, 1.0]

    def test_mutation_after_snapshot_does_not_leak_into_it(self, sim):
        """Post-snapshot schedules/cancels stay out of the snapshot."""
        fired = []
        keeper = sim.schedule_at(3.0, lambda: fired.append("keeper"))
        snap = sim.snapshot()
        keeper.cancel()
        sim.schedule_at(1.0, lambda: fired.append("intruder"))
        sim.run_all()
        assert fired == ["intruder"]

        sim.restore(snap)
        sim.run_all()
        assert fired == ["intruder", "keeper"]

    def test_events_fired_restored(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run_all()
        snap = sim.snapshot()
        sim.schedule_at(2.0, lambda: None)
        sim.run_all()
        assert sim.events_fired == 2
        sim.restore(snap)
        assert sim.events_fired == 1

    def test_cancel_before_snapshot_survives_restore(self, sim):
        fired = []
        doomed = sim.schedule_at(1.0, lambda: fired.append("doomed"))
        sim.schedule_at(2.0, lambda: fired.append("kept"))
        doomed.cancel()
        snap = sim.snapshot()
        assert snap.pending_events == 1
        sim.restore(snap)
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["kept"]

    def test_restore_detaches_older_handles(self, sim):
        """A stale handle's cancel cannot skew the restored live count."""
        fired = []
        stale = sim.schedule_at(2.0, lambda: fired.append("kept"))
        snap = sim.snapshot()
        sim.restore(snap)
        stale.cancel()
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["kept"]

    def test_restore_keeps_seq_order(self, sim):
        """Seqs continue from the snapshot, so same-time ties stay FIFO."""
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("old"))
        snap = sim.snapshot()
        sim.schedule_at(1.0, lambda: fired.append("discarded"))
        sim.restore(snap)
        late = sim.schedule_at(1.0, lambda: fired.append("new"))
        assert late.seq == 1
        sim.run_all()
        assert fired == ["old", "new"]


class TestFork:
    def test_fork_starts_at_parent_state(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run_all()
        sim.schedule_at(4.0, lambda: None)
        branch = sim.fork()
        assert branch.now == sim.now == 1.0
        assert branch.pending_events == 1

    def test_fork_diverges_independently(self, sim):
        parent_fired = []
        sim.schedule_at(2.0, lambda: parent_fired.append("shared"))
        branch = sim.fork()

        branch_fired = []
        branch.schedule_at(1.0, lambda: branch_fired.append("branch-only"))
        branch.run_all()
        # The pending "shared" event was copied into the branch, so its
        # callback (closing over parent_fired) runs once per timeline.
        assert branch_fired == ["branch-only"]
        assert branch.now == 2.0

        sim.run_all()
        assert parent_fired == ["shared", "shared"]
        assert sim.now == 2.0

    def test_parent_unaffected_by_forked_run(self, sim):
        sim.schedule_at(1.0, lambda: None)
        branch = sim.fork()
        branch.run_all()
        assert branch.events_fired == 1
        assert sim.events_fired == 0
        assert sim.pending_events == 1
        assert sim.now == 0.0

    def test_fork_of_fork(self, sim):
        sim.schedule_at(1.0, lambda: None)
        grandchild = sim.fork().fork()
        assert grandchild.pending_events == 1
        grandchild.run_all()
        assert grandchild.events_fired == 1
        assert sim.pending_events == 1

    def test_forks_do_not_share_a_clock(self, sim):
        branch = sim.fork()
        branch.clock.advance(5.0)
        assert sim.now == 0.0
