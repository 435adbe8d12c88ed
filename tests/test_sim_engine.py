"""Unit and property tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_clock_advances_to_last_event(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.schedule(7.25, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(7.25)

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_priority_breaks_ties_before_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=5)
        sim.schedule(1.0, fired.append, "high", priority=-5)
        sim.run()
        assert fired == ["high", "low"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        fired = []
        sim.schedule_at(150.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == pytest.approx(150.0)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_non_finite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_non_callable_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not callable")  # type: ignore[arg-type]

    def test_events_scheduled_during_run_are_executed(self):
        sim = Simulator()
        fired = []

        def chain(n: int):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == pytest.approx(5.0)


class TestReservedSequenceNumbers:
    def test_reserved_block_skips_the_counter(self):
        sim = Simulator()
        before = sim.schedule(1.0, lambda: None).seq
        first = sim.reserve_seqs(3)
        after = sim.schedule(1.0, lambda: None).seq
        assert (first, after) == (before + 1, before + 4)
        assert sim.reserve_seqs(0) == after + 1
        assert sim.schedule(1.0, lambda: None).seq == after + 1

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().reserve_seqs(-1)

    def test_reserved_events_fire_where_up_front_scheduling_puts_them(self):
        """Streaming a reserved block one event at a time fires in the order
        of scheduling the whole block at once, ties with later events too."""

        def transcript(streamed: bool):
            sim = Simulator()
            fired = []
            times = [1.0, 2.0, 2.0, 3.0]
            if streamed:
                first = sim.reserve_seqs(len(times))

                def arrive(i):
                    if i + 1 < len(times):
                        sim.schedule_at(times[i + 1], arrive, i + 1, seq=first + i + 1)
                    fired.append(("arrival", i))

                sim.schedule_at(times[0], arrive, 0, seq=first)
            else:
                for i, time in enumerate(times):
                    sim.schedule_at(time, fired.append, ("arrival", i))
            # Scheduled after the block, at instants it also uses.
            sim.schedule_at(2.0, fired.append, ("other", 2.0))
            sim.schedule_at(3.0, fired.append, ("other", 3.0))
            sim.run()
            return fired

        assert transcript(streamed=True) == transcript(streamed=False)
        assert transcript(streamed=True)[2:4] == [("arrival", 2), ("other", 2.0)]

    def test_priority_still_dominates_a_reserved_seq(self):
        sim = Simulator()
        fired = []
        first = sim.reserve_seqs(1)
        sim.schedule_at(4.0, fired.append, "urgent", priority=-1)
        sim.schedule_at(4.0, fired.append, "reserved", seq=first)
        sim.schedule_at(4.0, fired.append, "later")
        sim.run()
        assert fired == ["urgent", "reserved", "later"]

    def test_schedule_at_many_numbers_after_the_reserved_block(self):
        sim = Simulator()
        first = sim.reserve_seqs(5)
        handles = sim.schedule_at_many([(1.0, print, ()), (1.0, print, ())])
        assert [handle.seq for handle in handles] == [first + 5, first + 6]

    def test_reserved_seq_is_still_validated_as_an_event(self):
        sim = Simulator()
        first = sim.reserve_seqs(2)
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None, seq=first)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None, seq=first)
        assert sim.pending == 0

    def test_reserved_event_can_be_cancelled(self):
        sim = Simulator()
        fired = []
        first = sim.reserve_seqs(2)
        handle = sim.schedule_at(3.0, fired.append, "cancelled", seq=first)
        sim.schedule_at(3.0, fired.append, "kept", seq=first + 1)
        sim.cancel(handle)
        assert sim.pending == 1
        sim.run()
        assert fired == ["kept"]

    def test_reserved_numbers_are_never_handed_out_again(self):
        sim = Simulator()
        reserved = set()
        handed_out = []
        for count in (3, 0, 7, 1):
            handed_out.append(sim.schedule(1.0, print).seq)
            first = sim.reserve_seqs(count)
            reserved.update(range(first, first + count))
            handed_out.extend(h.seq for h in sim.schedule_at_many([(2.0, print, ())] * 2))
        assert len(reserved) == 11
        assert len(set(handed_out)) == len(handed_out)
        assert reserved.isdisjoint(handed_out)

    def test_reservation_survives_pickling(self):
        """A snapshot taken mid-stream keeps the counter past the block, so
        events scheduled after restore never collide with reserved numbers."""
        import pickle

        sim = Simulator()
        first = sim.reserve_seqs(10)
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.schedule(1.0, print).seq == sim.schedule(1.0, print).seq == first + 10

    @given(
        blocks=st.lists(
            st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=8),
            min_size=1,
            max_size=4,
        ),
        others=st.lists(st.integers(min_value=0, max_value=6), max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_streamed_blocks_match_up_front_scheduling(self, blocks, others):
        """Any number of streams, each reserving a block and scheduling one
        event at a time, fire exactly as scheduling every event at start —
        including ties with events scheduled while the streams run."""

        def transcript(streamed: bool):
            sim = Simulator()
            fired = []

            def other(tag):
                fired.append(tag)

            def arrive(b, i, first):
                times = sorted(blocks[b])
                if first is not None and i + 1 < len(times):
                    sim.schedule_at(times[i + 1], arrive, b, i + 1, first, seq=first + i + 1)
                fired.append((b, i))
                if i == 0:
                    for k, time in enumerate(others):
                        if time >= sim.now:
                            sim.schedule_at(float(time), other, ("other", b, k))

            for b, block in enumerate(blocks):
                times = sorted(block)
                if not times:
                    continue
                if streamed:
                    first = sim.reserve_seqs(len(times))
                    sim.schedule_at(times[0], arrive, b, 0, first, seq=first)
                else:
                    for i, time in enumerate(times):
                        sim.schedule_at(time, arrive, b, i, None)
            sim.run()
            return fired

        assert transcript(streamed=True) == transcript(streamed=False)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_double_cancel_raises(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        with pytest.raises(SimulationError):
            sim.cancel(handle)

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending == 1
        assert len(sim) == 1
        del keep

    def test_pending_counter_tracks_schedule_fire_cancel(self):
        """pending is a live counter: exact through schedules, fires, cancels
        and drains (it used to be an O(n) scan of the heap)."""
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(10)]
        assert sim.pending == 10
        sim.cancel(handles[3])
        sim.cancel(handles[7])
        assert sim.pending == 8
        sim.step()
        assert sim.pending == 7
        sim.run()
        assert sim.pending == 0

    def test_pending_counter_with_drain(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        drop = sim.schedule(9.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending == 5
        assert len(list(sim.drain())) == 5
        assert sim.pending == 0

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        """Cancelling a handle whose event already fired (or drained) is a
        no-op on the live counter — it must never go negative."""
        sim = Simulator()
        fired_handle = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(fired_handle)  # late cancel: allowed, counter untouched
        assert sim.pending == 0
        assert len(sim) == 0
        with pytest.raises(SimulationError):
            sim.cancel(fired_handle)  # but double-cancel still raises
        drained_handle = sim.schedule(1.0, lambda: None)
        assert list(sim.drain())
        sim.cancel(drained_handle)
        assert sim.pending == 0

    def test_pending_visible_from_callbacks(self):
        """Entities poll pending mid-run (dynamic pricing does) — the counter
        must not count the currently-firing event."""
        sim = Simulator()
        observed = []
        sim.schedule(1.0, lambda: observed.append(sim.pending))
        sim.schedule(2.0, lambda: observed.append(sim.pending))
        sim.run()
        assert observed == [1, 0]


class TestRunControl:
    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(5.0)
        # The remaining event still fires on a subsequent run().
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_step_returns_false_on_empty_queue(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == pytest.approx(42.0)

    def test_drain_yields_remaining_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        remaining = list(sim.drain())
        assert [ev.time for ev in remaining] == [1.0, 2.0]
        assert sim.pending == 0


class TestTrace:
    def test_trace_callback_invoked_per_event(self):
        records = []
        sim = Simulator(trace=lambda t, label: records.append((t, label)))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(records) == 2
        assert records[0][0] == pytest.approx(1.0)


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_firing_order_is_sorted_by_time(self, delays):
        """Events always fire in non-decreasing time order (DES invariant)."""
        sim = Simulator()
        observed = []
        for d in delays:
            sim.schedule(d, lambda d=d: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e5), st.integers(0, 1)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cancelled_events_never_fire(self, items):
        """No cancelled event is ever executed, and all others are."""
        sim = Simulator()
        fired = []
        handles = []
        for idx, (delay, cancel) in enumerate(items):
            handles.append((sim.schedule(delay, fired.append, idx), bool(cancel)))
        for handle, cancel in handles:
            if cancel:
                sim.cancel(handle)
        sim.run()
        expected = {idx for idx, (_, cancel) in enumerate(items) if not cancel}
        assert set(fired) == expected

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_event_count_conservation(self, n):
        """Every scheduled, non-cancelled event fires exactly once."""
        sim = Simulator()
        counter = {"fired": 0}
        for i in range(n):
            sim.schedule(float(i % 7), lambda: counter.__setitem__("fired", counter["fired"] + 1))
        sim.run()
        assert counter["fired"] == n
        assert sim.events_processed == n
