"""Unit tests for the heap event queue and the engine guarantees on top of it.

The delivery contract — pops in strictly increasing ``(time, priority, seq)``
order — is pinned three ways: direct unit tests of :class:`HeapQueue`, the
suite in ``test_delivery_order.py``, and the hypothesis oracle here that
replays random schedule/cancel/run interleavings through the engine and
requires the fire sequence of a sorted-list reference model.

The engine-level guarantees that ride on the queue are pinned too: bounded
queue length under cancellation churn (heap compaction) and the
pooled-handle rules (a retained handle is never recycled out from under its
holder).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ScheduledEvent, SimulationError, Simulator
from repro.sim.queues import HeapQueue


def make_event(time, seq, priority=0):
    return ScheduledEvent(float(time), priority, seq, lambda: None)


class TestHeapQueueContract:
    def test_pops_in_key_order(self):
        queue = HeapQueue()
        events = [
            make_event(5.0, 0),
            make_event(1.0, 1),
            make_event(5.0, 2, priority=-1),
            make_event(3.0, 3),
            make_event(5.0, 4),
        ]
        for event in events:
            queue.push(event)
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.seq)
        assert popped == [1, 3, 2, 0, 4]

    def test_len_counts_raw_entries(self):
        queue = HeapQueue()
        for i in range(10):
            queue.push(make_event(float(i), i))
        assert len(queue) == 10

    def test_pop_clears_queued_flag(self):
        queue = HeapQueue()
        event = make_event(1.0, 0)
        queue.push(event)
        assert event._queued
        assert queue.pop() is event
        assert not event._queued

    def test_peek_returns_next_live_without_removing(self):
        queue = HeapQueue()
        first = make_event(1.0, 0)
        queue.push(make_event(2.0, 1))
        queue.push(first)
        assert queue.peek() is first
        assert queue.pop() is first  # peek did not consume it

    def test_peek_skips_cancelled(self):
        queue = HeapQueue()
        dead = make_event(1.0, 0)
        live = make_event(2.0, 1)
        queue.push(dead)
        queue.push(live)
        dead.cancelled = True
        assert queue.peek() is live

    def test_compact_drops_cancelled(self):
        queue = HeapQueue()
        events = [make_event(float(i), i) for i in range(20)]
        for event in events:
            queue.push(event)
        for event in events[::2]:
            event.cancelled = True
        assert queue.compact() == 10
        assert len(queue) == 10
        assert [queue.pop().seq for _ in range(10)] == [e.seq for e in events[1::2]]

    def test_same_time_priority_pops_in_seq_order_after_churn(self):
        rng = np.random.default_rng(1)
        queue = HeapQueue()
        seq = 0
        batch = []
        for _ in range(100):
            event = make_event(50.0, seq)
            seq += 1
            batch.append(event)
            queue.push(event)
            noise = make_event(float(rng.uniform(0, 49)), seq)
            seq += 1
            queue.push(noise)
            if rng.random() < 0.6:
                noise.cancelled = True
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            if not event.cancelled and event.time == 50.0:
                popped.append(event.seq)
        assert popped == [e.seq for e in batch]


def _drain(queue):
    """Pop everything; return the live events' ``(time, priority, seq)``."""
    keys = []
    while True:
        event = queue.pop()
        if event is None:
            return keys
        if not event.cancelled:
            keys.append((event.time, event.priority, event.seq))


class TestHeapQueueEdges:
    def test_pop_and_peek_on_empty_queue_return_none(self):
        queue = HeapQueue()
        assert queue.pop() is None
        assert queue.peek() is None
        assert queue.compact() == 0

    def test_peek_on_all_cancelled_queue_empties_it(self):
        queue = HeapQueue()
        events = [make_event(float(i), i) for i in range(5)]
        queue.push_many(events)
        for event in events:
            event.cancelled = True
        assert queue.peek() is None
        assert len(queue) == 0
        assert not any(event._queued for event in events)

    def test_identical_timestamps_pop_in_priority_then_seq_order(self):
        rng = np.random.default_rng(3)
        keys = [(7.0, int(p), seq) for seq, p in enumerate(rng.integers(-2, 3, size=500))]
        queue = HeapQueue()
        for index in rng.permutation(len(keys)):
            time, priority, seq = keys[index]
            queue.push(make_event(time, seq, priority))
        assert _drain(queue) == sorted(keys)

    def test_widely_spread_times_pop_in_order(self):
        """Times spread over eighteen orders of magnitude (sub-nanosecond
        offsets next to decades) still pop in key order."""
        rng = np.random.default_rng(4)
        times = sorted({float(t) for t in 10.0 ** rng.uniform(-9, 9, size=300)})
        queue = HeapQueue()
        for seq, index in enumerate(rng.permutation(len(times))):
            queue.push(make_event(times[index], seq))
        assert [key[0] for key in _drain(queue)] == times

    def test_grow_drain_regrow_keeps_order(self):
        """Refill and drain between very different sizes: every drain pops
        in key order and never passes an entry still queued."""
        rng = np.random.default_rng(5)
        queue = HeapQueue()
        seq = 0
        for size in (1000, 10, 400, 3):
            for time in rng.uniform(0, 100, size=size):
                queue.push(make_event(float(time), seq))
                seq += 1
            popped = [queue.pop() for _ in range(size - 2)]
            keys = [(event.time, event.seq) for event in popped]
            assert keys == sorted(keys)
            assert popped[-1].time <= queue.peek().time
        rest = _drain(queue)
        assert rest == sorted(rest)
        assert len(rest) == 8

    def test_small_batch_sifts_into_a_large_heap(self):
        """Below a quarter of the heap size ``push_many`` sifts each entry,
        leaving exactly the heap a ``push`` loop leaves."""
        looped, batched = HeapQueue(), HeapQueue()
        prefill = [make_event(float(100 - i), i) for i in range(40)]
        for event in prefill:
            looped.push(event)
            batched.push(event)
        batch = [make_event(float(i % 3), 40 + i) for i in range(9)]
        for event in batch:
            looped.push(event)
        batched.push_many(batch)
        assert batched._heap == looped._heap
        assert _drain(batched) == _drain(looped)

    def test_large_batch_rebuilds_and_keeps_pop_order(self):
        looped, batched = HeapQueue(), HeapQueue()
        looped.push(make_event(5.0, 0))
        batched.push(make_event(5.0, 0))
        batch = [make_event(float(i % 4), 1 + i, priority=i % 2) for i in range(50)]
        for event in batch:
            looped.push(event)
        batched.push_many(batch)
        assert len(batched) == 51
        assert _drain(batched) == _drain(looped)

    def test_compact_without_cancelled_entries_keeps_the_heap(self):
        queue = HeapQueue()
        queue.push_many([make_event(float(i), i) for i in range(8)])
        heap = queue._heap
        assert queue.compact() == 0
        assert queue._heap is heap

    def test_pushes_after_compact_keep_key_order(self):
        queue = HeapQueue()
        events = [make_event(float(i), i) for i in range(30)]
        queue.push_many(events)
        for event in events[::3]:
            event.cancelled = True
        assert queue.compact() == 10
        assert not any(event._queued for event in events[::3])
        queue.push(make_event(0.5, 30))
        queue.push(make_event(14.0, 31, priority=-1))
        keys = _drain(queue)
        assert keys == sorted(keys)
        assert (0.5, 0, 30) in keys and (14.0, -1, 31) in keys


#: Random queue-level operations for the HeapQueue model test.
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.floats(min_value=0.0, max_value=50.0), st.integers(-1, 1)),
        st.tuples(st.just("push"), st.just(25.0), st.just(0)),
        st.tuples(st.just("push_many"), st.integers(min_value=0, max_value=12), st.integers(-1, 1)),
        st.tuples(st.just("pop"), st.just(0.0), st.just(0)),
        st.tuples(st.just("peek"), st.just(0.0), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000), st.just(0)),
        st.tuples(st.just("compact"), st.just(0.0), st.just(0)),
    ),
    max_size=100,
)


class TestHeapQueueModel:
    """Hypothesis oracle at the queue level: any interleaving of push,
    push_many, pop, peek, cancel and compact returns the live events a
    sorted-list model returns, and ``len`` never drops below the live
    count."""

    @given(ops=_queue_ops)
    @settings(max_examples=80, deadline=None)
    def test_queue_agrees_with_sorted_list_model(self, ops):
        queue = HeapQueue()
        model = []  # live (time, priority, seq) keys
        events = []
        for kind, a, b in ops:
            if kind == "push":
                event = make_event(a, len(events), b)
                events.append(event)
                queue.push(event)
                model.append((event.time, b, event.seq))
            elif kind == "push_many":
                batch = [make_event(float(i % 5), len(events) + i, b) for i in range(int(a))]
                events.extend(batch)
                queue.push_many(batch)
                model.extend((e.time, b, e.seq) for e in batch)
            elif kind == "pop":
                while True:
                    event = queue.pop()
                    if event is None or not event.cancelled:
                        break
                expected = min(model) if model else None
                got = (event.time, event.priority, event.seq) if event else None
                assert got == expected
                if expected is not None:
                    model.remove(expected)
            elif kind == "peek":
                event = queue.peek()
                got = (event.time, event.priority, event.seq) if event else None
                assert got == (min(model) if model else None)
            elif kind == "cancel" and events:
                event = events[int(a) % len(events)]
                key = (event.time, event.priority, event.seq)
                if key in model:
                    event.cancelled = True
                    model.remove(key)
            elif kind == "compact":
                queue.compact()
                assert len(queue) == len(model)
            assert len(queue) >= len(model)
        assert _drain(queue) == sorted(model)


class TestBackendMisorderGuard:
    """The engine must fail loudly — not silently rewind its clock — when its
    queue violates the delivery contract."""

    class _LifoQueue:
        """A deliberately broken queue: pops in push order, newest first."""

        def __init__(self):
            self._entries = []

        def push(self, event):
            self._entries.append(event)

        def pop(self):
            if not self._entries:
                return None
            event = self._entries.pop()
            event._queued = False
            return event

        def peek(self):
            return self._entries[-1] if self._entries else None

        def __len__(self):
            return len(self._entries)

    def _broken_sim(self):
        sim = Simulator()
        sim._queue = self._LifoQueue()
        return sim

    def test_run_raises_on_out_of_order_delivery(self):
        sim = self._broken_sim()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError, match="out of order"):
            sim.run()

    def test_step_raises_on_out_of_order_delivery(self):
        sim = self._broken_sim()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step()  # fires t=2.0 (the broken queue pops newest first)
        with pytest.raises(SimulationError, match="out of order"):
            sim.step()


class TestEngineCompaction:
    """Satellite regression: cancelled events must not pile up in the queue."""

    def test_heap_queue_length_bounded_under_mass_cancellation(self):
        sim = Simulator()
        live = [sim.schedule(1000.0, lambda: None) for _ in range(100)]
        # Churn: far timeouts scheduled and cancelled over and over — the
        # pre-compaction engine kept every corpse until it surfaced.
        worst = 0
        for _ in range(10_000):
            handle = sim.schedule(500.0, lambda: None)
            sim.cancel(handle)
            worst = max(worst, sim.queue_size)
        # Compaction triggers once dead entries outnumber live ones (above
        # the 64-entry floor), so the raw queue can never hold more than
        # pending + max(64, pending) + 1 entries.
        bound = sim.pending + max(64, sim.pending) + 1
        assert worst <= bound, f"queue grew to {worst} (> bound {bound})"
        assert sim.pending == 100
        del live

    def test_bounded_queue_under_churn_heavy_fault_plan(self, monkeypatch):
        """The engine guarantee holds inside a real churn-heavy faulted run:
        at no point may dead entries outnumber max(64, live) + 1.

        The plan crashes every cluster over and over while the compressed
        synthetic workload keeps them busy, so each crash's ``fail_all``
        cancels running jobs' finish events — the cancellation churn the
        seed engine accumulated in its heap until the corpses surfaced.
        """
        from repro.faults.plan import FaultPlan
        from repro.scenario import Scenario, run_scenario
        from repro.workload.archive import ARCHIVE_RESOURCES

        observed = []
        original = Simulator.cancel

        def recording_cancel(self, event):
            original(self, event)
            observed.append((self.queue_size, self.pending))

        monkeypatch.setattr(Simulator, "cancel", recording_cancel)
        plan = FaultPlan()
        for i, resource in enumerate(ARCHIVE_RESOURCES):
            for round_ in range(4):
                at = 1800.0 + 600.0 * i + 5_400.0 * round_
                plan = plan.crash(resource.name, at=at, duration=900.0)
        run_scenario(
            Scenario(
                mode="economy",
                workload="synthetic",
                horizon=6 * 3600.0,
                thin=3,
                seed=42,
            ),
            fault_plan=plan,
        )
        assert observed, "the churn plan should cancel at least one event"
        for queue_size, pending in observed:
            assert queue_size - pending <= max(64, pending) + 1

    def test_compaction_survives_to_correct_execution(self):
        """Heavy cancellation with interleaved firing still fires the right
        events in the right order."""
        rng = np.random.default_rng(3)
        sim = Simulator()
        fired = []
        expected = []
        for i in range(2000):
            handle = sim.schedule(float(rng.uniform(0, 100)), fired.append, i)
            if rng.random() < 0.8:
                sim.cancel(handle)
            else:
                expected.append((handle.time, handle.seq, i))
        sim.run()
        assert fired == [i for _, _, i in sorted(expected)]
        assert sim.queue_size == 0


class TestHandlePooling:
    def test_retained_handles_are_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        sim.run()
        seq, time_ = kept.seq, kept.time
        for _ in range(50):
            sim.schedule(1.0, lambda: None)
        assert (kept.seq, kept.time) == (seq, time_)

    def test_pooled_handles_are_reinitialised(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")  # handle not retained → poolable
        sim.run()
        handle = sim.schedule(2.0, fired.append, "b")
        assert handle.cancelled is False
        assert handle._queued is True
        sim.run()
        assert fired == ["a", "b"]

    def test_pool_does_not_pin_callback_references(self):
        import weakref

        class Target:
            def method(self):  # pragma: no cover - never fires
                pass

        sim = Simulator()
        target = Target()
        sim.schedule(1.0, lambda t=target: None)
        sim.run()
        ref = weakref.ref(target)
        del target
        assert ref() is None, "a pooled handle kept the callback alive"


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.floats(min_value=0.0, max_value=100.0)),
        st.tuples(st.just("schedule_same"), st.just(0.0)),
        # Tiny/huge delay mixture: near-now events scheduled while far-future
        # ones dominate the pending set.
        st.tuples(st.just("schedule"), st.floats(min_value=0.0, max_value=0.5)),
        st.tuples(st.just("schedule"), st.floats(min_value=1e3, max_value=1e6)),
        # Far-future burst followed by a near-now event.
        st.tuples(st.just("burst"), st.integers(min_value=33, max_value=48)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("run_for"), st.floats(min_value=0.0, max_value=30.0)),
        st.tuples(st.just("step"), st.just(None)),
    ),
    min_size=1,
    max_size=120,
)


def _delays(kind, value):
    """The delays one schedule-type op schedules, in order."""
    if kind == "schedule":
        return [value]
    if kind == "schedule_same":
        # Same-timestamp collisions are the interesting ordering case.
        return [5.0]
    return [500.0 + float(i) for i in range(value)] + [0.5]


def _replay(ops) -> list:
    """Replay an op sequence through the engine; return the fire transcript."""
    sim = Simulator()
    fired = []
    handles = []
    tag = 0
    for kind, value in ops:
        if kind in ("schedule", "schedule_same", "burst"):
            for delay in _delays(kind, value):
                handles.append(sim.schedule(delay, lambda t=tag: fired.append(t)))
                tag += 1
        elif kind == "cancel":
            if handles:
                handle = handles[value % len(handles)]
                if not handle.cancelled:
                    sim.cancel(handle)
        elif kind == "run_for":
            sim.run(until=sim.now + value)
        elif kind == "step":
            sim.step()
    sim.run()
    fired.append(("now", round(sim.now, 9), sim.events_processed, sim.pending))
    return fired


def _reference_replay(ops) -> list:
    """The transcript :func:`_replay` must produce, from a sorted-list model:
    pending entries are ``[time, seq, tag]`` and always fire minimum-first."""
    now = 0.0
    pending = []
    handles = []  # per tag: [entry, cancelled]
    fired = []
    processed = 0

    def fire_next():
        nonlocal now, processed
        entry = min(pending)
        pending.remove(entry)
        now = entry[0]
        processed += 1
        fired.append(entry[2])

    for kind, value in ops:
        if kind in ("schedule", "schedule_same", "burst"):
            for delay in _delays(kind, value):
                tag = len(handles)
                entry = [now + delay, tag, tag]
                pending.append(entry)
                handles.append([entry, False])
        elif kind == "cancel":
            if handles:
                handle = handles[value % len(handles)]
                if not handle[1]:
                    handle[1] = True
                    if handle[0] in pending:
                        pending.remove(handle[0])
        elif kind == "run_for":
            until = now + value
            while pending and min(pending)[0] <= until:
                fire_next()
            now = until
        elif kind == "step":
            if pending:
                fire_next()
    while pending:
        fire_next()
    fired.append(("now", round(now, 9), processed, len(pending)))
    return fired


class TestOrderingOracle:
    """Hypothesis oracle: the engine replays any interleaving of
    schedule / schedule-at-equal-time / cancel / partial-run / step into the
    exact fire transcript of a sorted-list reference model."""

    @given(ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_engine_agrees_with_reference_model(self, ops):
        assert _replay(ops) == _reference_replay(ops)


#: Random (time, priority) schedules for the batch-kernel parity oracle.
#: Same-timestamp collisions included on purpose — seq tie-breaking is where
#: a batch insert could silently reorder.
_batch_entries = st.lists(
    st.one_of(
        st.tuples(
            st.floats(min_value=0.0, max_value=1_000.0),
            st.integers(min_value=-2, max_value=2),
        ),
        st.tuples(st.just(50.0), st.just(0)),
    ),
    max_size=80,
)


class TestBatchKernelParity:
    """Hypothesis oracle for the batch entry point: ``push_many`` must be
    observationally identical to looped ``push`` — including under
    cancellation and with a prefilled standing population (which steers the
    heap between its sift and heapify paths)."""

    @staticmethod
    def _drain_keys(queue):
        keys = []
        while True:
            event = queue.pop()
            if event is None:
                return keys
            if not event.cancelled:
                keys.append((event.time, event.priority, event.seq))

    @given(prefill=_batch_entries, batch=_batch_entries)
    @settings(max_examples=60, deadline=None)
    def test_batch_forms_match_looped_forms(self, prefill, batch):
        looped = HeapQueue()
        batched = HeapQueue()
        seq = 0
        for time, priority in prefill:
            looped.push(make_event(time, seq, priority))
            batched.push(make_event(time, seq, priority))
            seq += 1
        loop_events = [make_event(t, seq + i, p) for i, (t, p) in enumerate(batch)]
        batch_events = [make_event(t, seq + i, p) for i, (t, p) in enumerate(batch)]
        for event in loop_events:
            looped.push(event)
        batched.push_many(batch_events)
        # Cancel an arbitrary-but-identical subset in both queues: the drain
        # must skip corpses alike.
        for a, b in zip(loop_events[::3], batch_events[::3]):
            a.cancelled = b.cancelled = True
        assert self._drain_keys(batched) == self._drain_keys(looped), "drain diverged"

    def test_push_many_empty_batch_is_a_noop(self):
        queue = HeapQueue()
        queue.push(make_event(1.0, 0))
        queue.push_many([])
        assert len(queue) == 1
