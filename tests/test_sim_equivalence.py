"""The simulator against an independent heapq oracle.

For any schedule — same-time ties, interleaved cancels,
cancel-after-fire, callbacks that schedule or cancel mid-drain,
snapshots restored mid-script — :class:`~repro.sim.Simulator` must fire
exactly the events a bare ``(time, seq)`` heap fires, in exactly that
order.  This module checks that two ways:

* a hypothesis property test driving the simulator and a ~30-line
  heapq oracle (written independently of it) through random scripts of
  schedules, cancels, drains, snapshots and restores;
* hand-written scripts for the adversarial cases (in-callback
  scheduling ahead of already-due events, cancels aimed at events
  already due).
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class HeapOracle:
    """Independent reference: a bare (time, seq) heap, nothing shared
    with the production engine."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.cancelled = set()
        self.fired = []

    def schedule(self, time):
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.heap, (time, seq))
        return seq

    def cancel(self, seq):
        self.cancelled.add(seq)

    def drain(self, deadline):
        while self.heap and self.heap[0][0] <= deadline:
            time, seq = heapq.heappop(self.heap)
            if seq in self.cancelled:
                continue
            self.fired.append((time, seq))

    def state(self):
        """A copy of the scheduling state (the firing log is history)."""
        return list(self.heap), self.seq, set(self.cancelled)

    def restore(self, state):
        heap, seq, cancelled = state
        self.heap, self.seq, self.cancelled = list(heap), seq, set(cancelled)


def run_script(script):
    """Drive a Simulator through (op, ...) tuples; return the firing log.

    Ops: ``("schedule", t)`` (skipped when ``t`` is in the past),
    ``("cancel", i)`` (i-th handle since the last restore, modulo),
    ``("drain", deadline_delta)``, ``("snapshot",)`` and
    ``("restore", i)`` (i-th snapshot taken so far, modulo).  The log
    records ``(time, seq)`` for every fired event, so the simulator and
    the oracle agree iff their logs are equal.
    """
    sim = Simulator()
    handles = []
    snapshots = []
    log = []

    def make_action(cell):
        def action():
            log.append((sim.now, cell[0].seq))
        return action

    for op in script:
        if op[0] == "schedule":
            if op[1] < sim.now:
                continue
            cell = []
            cell.append(sim.schedule_at(op[1], make_action(cell)))
            handles.append(cell[0])
        elif op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif op[0] == "drain":
            sim.run_until(sim.now + op[1])
        elif op[0] == "snapshot":
            snapshots.append(sim.snapshot())
        elif op[0] == "restore":
            if snapshots:
                sim.restore(snapshots[op[1] % len(snapshots)])
                handles = []  # handles do not survive a restore
    sim.run_all()
    return log


def run_oracle(script):
    oracle = HeapOracle()
    seqs = []
    snapshots = []
    now = 0.0
    for op in script:
        if op[0] == "schedule":
            if op[1] < now:
                continue
            seqs.append(oracle.schedule(op[1]))
        elif op[0] == "cancel":
            if seqs:
                oracle.cancel(seqs[op[1] % len(seqs)])
        elif op[0] == "drain":
            now = now + op[1]
            oracle.drain(now)
        elif op[0] == "snapshot":
            snapshots.append((now, oracle.state()))
        elif op[0] == "restore":
            if snapshots:
                now, state = snapshots[op[1] % len(snapshots)]
                oracle.restore(state)
                seqs = []
    oracle.drain(float("inf"))
    return oracle.fired


# Timestamps from a small grid so same-time collisions are common.
_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0, 5.0, 10.0])

_OP = st.one_of(
    st.tuples(st.just("schedule"), _TIMES),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("drain"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])),
    st.just(("snapshot",)),
    st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
)


class TestPropertyEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OP, min_size=1, max_size=40))
    def test_simulator_matches_the_oracle(self, script):
        assert run_script(script) == run_oracle(script)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_TIMES, min_size=1, max_size=30),
        st.sets(st.integers(min_value=0, max_value=29)),
    )
    def test_cancel_subset_of_batch(self, times, cancel_slots):
        """Cancel an arbitrary subset before draining: order matches."""
        sim = Simulator()
        oracle = HeapOracle()
        log = []
        handles = []
        for t in times:
            cell = []
            cell.append(sim.schedule_at(t, lambda cell=cell: log.append((sim.now, cell[0].seq))))
            handles.append(cell[0])
            oracle.schedule(t)
        for slot in cancel_slots:
            if slot < len(handles):
                handles[slot].cancel()
                oracle.cancel(slot)
        sim.run_all()
        oracle.drain(float("inf"))
        assert log == oracle.fired
        assert sim.pending_events == 0


class TestAdversarialScripts:
    """Hand-picked cases where mid-drain changes could break the order."""

    @staticmethod
    def logs_for(build):
        sim = Simulator()
        log = []
        build(sim, log)
        sim.run_all()
        return log

    def test_callback_schedules_earlier_than_rest_of_batch(self):
        # t=1 fires and schedules t=1.5; the heap already holds t=2
        # and t=3 — the new event must jump the queue.
        def build(sim, log):
            def first():
                log.append(("first", sim.now))
                sim.schedule_at(1.5, lambda: log.append(("mid", sim.now)))
            sim.schedule_at(1.0, first)
            sim.schedule_at(2.0, lambda: log.append(("second", sim.now)))
            sim.schedule_at(3.0, lambda: log.append(("third", sim.now)))

        log = self.logs_for(build)
        assert log == [
            ("first", 1.0), ("mid", 1.5), ("second", 2.0), ("third", 3.0),
        ]

    def test_callback_cancels_later_batch_member(self):
        def build(sim, log):
            doomed = {}
            def first():
                log.append(("first", sim.now))
                doomed["h"].cancel()
            sim.schedule_at(1.0, first)
            doomed["h"] = sim.schedule_at(2.0, lambda: log.append(("doomed", sim.now)))
            sim.schedule_at(3.0, lambda: log.append(("last", sim.now)))

        log = self.logs_for(build)
        assert log == [("first", 1.0), ("last", 3.0)]

    def test_callback_cancels_same_time_sibling(self):
        def build(sim, log):
            doomed = {}
            def first():
                log.append("first")
                doomed["h"].cancel()
            sim.schedule_at(1.0, first)
            doomed["h"] = sim.schedule_at(1.0, lambda: log.append("doomed"))
            sim.schedule_at(1.0, lambda: log.append("third"))

        assert self.logs_for(build) == ["first", "third"]

    def test_callback_schedules_same_time_event(self):
        # A same-time event scheduled mid-drain fires after its pending
        # same-time siblings (higher seq), in the same drain.
        def build(sim, log):
            def first():
                log.append("first")
                sim.schedule_at(sim.now, lambda: log.append("tail"))
            sim.schedule_at(1.0, first)
            sim.schedule_at(1.0, lambda: log.append("second"))

        assert self.logs_for(build) == ["first", "second", "tail"]

    def test_cancel_twice_then_drain(self):
        def build(sim, log):
            handle = sim.schedule_at(1.0, lambda: log.append("x"))
            handle.cancel()
            handle.cancel()
            sim.schedule_at(2.0, lambda: log.append("y"))

        assert self.logs_for(build) == ["y"]

    def test_fire_due_events_between_schedules(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, lambda: log.append(("a", sim.now)))
        sim.schedule_at(3.0, lambda: log.append(("b", sim.now)))
        sim.clock.advance(2.0)
        fired = sim.fire_due_events()
        assert fired == 1
        assert sim.now == 2.0  # fire_due_events never advances
        sim.run_all()
        assert log == [("a", 2.0), ("b", 3.0)]
