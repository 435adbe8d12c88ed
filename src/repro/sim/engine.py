"""Core discrete-event simulation engine.

The :class:`Simulator` keeps scheduled callbacks in a
:class:`~repro.sim.queues.HeapQueue` ordered by (time, priority,
sequence-number).  The sequence number guarantees a stable, deterministic
ordering for events scheduled at identical timestamps, which is essential for
reproducible experiments: two runs with the same seeds produce bit-identical
schedules.  This is a *contract*, not an implementation detail:
latency-bearing transports routinely land independent messages on the same
timestamp, and their delivery order must be schedule order — never a heap
insertion accident.  :mod:`repro.sim.entity` mirrors the sequence number on
``Event.seq`` so the order is observable at the message layer, and
``tests/test_delivery_order.py`` pins the guarantee (the tests fail against a
seq-less heap, whose equal-key pop order depends on push/pop history).

A caller that streams a known series of future events one at a time (a user
population keeps only its next arrival pending) reserves their sequence
numbers up front with :meth:`Simulator.reserve_seqs` and passes each to
:meth:`Simulator.schedule_at` as ``seq=``: the events keep the keys they
would have had if all were scheduled at once, so delivery order is the same
while the pending set stays small.

The engine is deliberately callback-based rather than coroutine-based: the
Grid-Federation entities (GFAs, LRMSes, user populations) are reactive state
machines, and callbacks keep the hot path free of generator overhead.  A thin
coroutine layer is provided separately in :mod:`repro.sim.process` for code
that reads more naturally as a process.

Two hot-path details worth knowing:

* **Handle pooling** — fired :class:`ScheduledEvent` handles that nobody else
  references (checked by refcount) are recycled into the next ``schedule``
  call instead of being reallocated; handles a caller retains are simply
  never pooled, so the optimisation is invisible.
* **Cancellation compaction** — a heap cannot delete cancelled events
  eagerly, so the queue is compacted once dead entries outnumber live ones
  and churn-heavy runs keep the queue length proportional to the *live*
  event population instead of growing without bound.
"""

from __future__ import annotations

import itertools
import math
from sys import getrefcount
from typing import Any, Callable, Iterator, Optional

from repro.sim.queues import HeapQueue

#: Fired handles kept for reuse; beyond this, handles are left to the GC.
_POOL_MAX = 512

#: Dead entries tolerated in the heap before compaction (and
#: the floor below which compaction is never worth the rebuild).
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly.

    Examples: scheduling an event in the past, running a simulator that has
    already been stopped, or cancelling an event twice.
    """


class ScheduledEvent:
    """A handle to a scheduled callback.

    Events are ordered by ``(time, priority, seq)``; the queue stores bare
    tuples carrying those primitives so ordering comparisons never touch the
    event object (the unique ``seq`` guarantees it).  The handle is slotted
    and pooled: federations schedule one event per job arrival and per job
    completion, so allocation cost and footprint are on the hot path.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-breaker for events at the same timestamp; lower fires first.
    seq:
        Monotonically increasing sequence number (second tie-breaker).
    callback:
        The callable invoked when the event fires.
    args:
        Positional arguments passed to the callback.
    cancelled:
        True once :meth:`Simulator.cancel` has been called on this handle.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "_queued")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        # True while the event sits unfired in the queue; the live pending
        # counter only moves for events in this state.
        self._queued = True

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ScheduledEvent(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}, cancelled={self.cancelled})"
        )


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (defaults to ``0.0``).
    trace:
        Optional callable invoked as ``trace(time, label)`` every time an
        event fires; useful for debugging small scenarios.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Optional[Callable[[float, str], None]] = None,
    ):
        if not math.isfinite(start_time):
            raise SimulationError("start_time must be finite")
        self._now: float = float(start_time)
        self._queue = HeapQueue()
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._pending = 0  # live (scheduled, not fired, not cancelled) events
        self._trace = trace
        self._pool: list[ScheduledEvent] = []

    # ------------------------------------------------------------------ #
    # Clock and introspection
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still waiting in the queue.

        Maintained as a counter on schedule/cancel/fire, so reading it is
        ``O(1)`` — entities may poll it every event (dynamic pricing does).
        """
        return self._pending

    @property
    def queue_size(self) -> int:
        """Raw entries held by the queue, *including* cancelled ones the
        heap has not dropped yet.  The compaction guarantee
        keeps this within a constant factor of :attr:`pending` (plus the
        compaction floor), bounded regardless of cancellation churn."""
        return len(self._queue)

    def __len__(self) -> int:
        return self.pending

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current simulation time.
        callback:
            Callable invoked when the event fires.
        priority:
            Lower priorities fire first among events with equal timestamps.

        Returns
        -------
        ScheduledEvent
            A handle that can be passed to :meth:`cancel`.
        """
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(f"delay must be finite and non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        seq: Optional[int] = None,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        ``seq`` places the event with a sequence number taken earlier from
        :meth:`reserve_seqs` instead of the next one; each reserved number
        must be used at most once.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, requested={time})"
            )
        if not callable(callback):
            raise SimulationError("callback must be callable")
        if seq is None:
            seq = next(self._seq)
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = float(time)
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event._queued = True
        else:
            event = ScheduledEvent(float(time), priority, seq, callback, args)
        self._queue.push(event)
        self._pending += 1
        return event

    def reserve_seqs(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the first.

        An event later scheduled with ``schedule_at(..., seq=first + i)``
        takes the place it would have taken as the ``i``-th of ``count``
        :meth:`schedule_at` calls made now.
        """
        if count < 0:
            raise SimulationError(f"count must be non-negative, got {count!r}")
        first = next(self._seq)
        self._seq = itertools.count(first + count)
        return first

    def schedule_at_many(
        self,
        items,
        *,
        priority: int = 0,
    ) -> list[ScheduledEvent]:
        """Schedule a batch of ``(time, callback, args)`` triples in one call.

        Sequence numbers are assigned in iteration order, so the delivery
        order is exactly what the equivalent :meth:`schedule_at` loop would
        produce; the batch form exists so burst paths (fault-plan start-up
        and load spikes, cross-shard window injection) pay one
        :meth:`~repro.sim.queues.HeapQueue.push_many` instead of one push per
        event.
        """
        now = self._now
        seq_counter = self._seq
        pool = self._pool
        handles: list[ScheduledEvent] = []
        append = handles.append
        for time, callback, args in items:
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite, got {time!r}")
            if time < now:
                raise SimulationError(
                    f"cannot schedule event in the past (now={now}, requested={time})"
                )
            if not callable(callback):
                raise SimulationError("callback must be callable")
            seq = next(seq_counter)
            if pool:
                event = pool.pop()
                event.time = float(time)
                event.priority = priority
                event.seq = seq
                event.callback = callback
                event.args = tuple(args)
                event.cancelled = False
                event._queued = True
            else:
                event = ScheduledEvent(float(time), priority, seq, callback, tuple(args))
            append(event)
        self._queue.push_many(handles)
        self._pending += len(handles)
        return handles

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a previously scheduled event.

        Cancelling the same handle twice raises :class:`SimulationError` to
        surface double-cancellation bugs early.  Cancelling an event that has
        already fired (or been drained) is a harmless no-op on the pending
        count, as it always was.

        The heap entry stays in place (lazy deletion); the queue is compacted
        once dead entries outnumber live ones, so its length stays bounded
        under cancellation churn.
        """
        if event.cancelled:
            raise SimulationError("event already cancelled")
        event.cancelled = True
        if event._queued:
            self._pending -= 1
            queue = self._queue
            dead = len(queue) - self._pending
            if dead > _COMPACT_MIN_DEAD and dead > self._pending:
                queue.compact()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired and ``False`` if the queue was
        empty.
        """
        queue = self._queue
        while True:
            event = queue.pop()
            if event is None:
                return False
            if event.cancelled:
                continue
            if event.time < self._now:
                raise SimulationError(
                    f"event queue delivered event out of order "
                    f"({event.time} < now {self._now})"
                )
            self._now = event.time
            self._events_processed += 1
            self._pending -= 1
            if self._trace is not None:
                self._trace(self._now, getattr(event.callback, "__qualname__", repr(event.callback)))
            event.callback(*event.args)
            pool = self._pool
            if len(pool) < _POOL_MAX and getrefcount(event) == 2:
                # Nobody kept the handle: recycle it (drop payload refs so
                # pooled handles never pin callbacks or arguments alive).
                event.callback = None
                event.args = ()
                pool.append(event)
            return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after this
            time; the clock is advanced to ``until``.
        max_events:
            If given, stop after firing this many events (guards against
            accidental infinite event loops in tests).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        self._running = True
        self._stopped = False
        try:
            if until is None and max_events is None:
                self._run_unbounded()
            else:
                self._run_bounded(until, max_events)
        finally:
            self._running = False

    def _run_unbounded(self) -> None:
        """The hot loop: no horizon, no event budget — just drain the queue.

        Inlines :meth:`step` so the per-event cost is one heap ``pop``
        plus the fire itself (this loop carries whole federation runs).
        """
        queue = self._queue
        pool = self._pool
        trace = self._trace
        while not self._stopped:
            event = queue.pop()
            if event is None:
                return
            if event.cancelled:
                continue
            if event.time < self._now:
                raise SimulationError(
                    f"event queue delivered event out of order "
                    f"({event.time} < now {self._now})"
                )
            self._now = event.time
            self._events_processed += 1
            self._pending -= 1
            if trace is not None:
                trace(self._now, getattr(event.callback, "__qualname__", repr(event.callback)))
            event.callback(*event.args)
            if len(pool) < _POOL_MAX and getrefcount(event) == 2:
                event.callback = None
                event.args = ()
                pool.append(event)

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> None:
        queue = self._queue
        fired = 0
        while not self._stopped:
            nxt = queue.peek()
            if nxt is None:
                break
            if until is not None and nxt.time > until:
                self._now = until
                return
            if not self.step():  # pragma: no cover - peek guarantees an event
                break
            fired += 1
            if max_events is not None and fired >= max_events:
                return
        if until is not None and not self._stopped:
            self._now = max(self._now, until)

    def run_window(self, end: float) -> int:
        """Fire every pending event strictly before ``end``, then land on it.

        This is the parallel engine's window step: :meth:`run`'s ``until`` is
        *inclusive* (events at exactly ``until`` fire), whereas a lookahead
        window owns ``[start, end)`` — events at exactly ``end`` belong to
        the next window.  After the step the clock sits on the boundary, so
        cross-shard deliveries scheduled *at* ``end`` remain legal.  Returns
        the number of events fired.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        if not math.isfinite(end) or end < self._now:
            raise SimulationError(
                f"window end must be finite and >= now (now={self._now}, got {end!r})"
            )
        self._running = True
        self._stopped = False
        fired = 0
        queue = self._queue
        pool = self._pool
        trace = self._trace
        try:
            while not self._stopped:
                nxt = queue.peek()
                if nxt is None or nxt.time >= end:
                    break
                event = queue.pop()
                if event is None or event.cancelled:  # pragma: no cover - peek guarantees live head
                    continue
                self._now = event.time
                self._events_processed += 1
                self._pending -= 1
                fired += 1
                if trace is not None:
                    trace(self._now, getattr(event.callback, "__qualname__", repr(event.callback)))
                event.callback(*event.args)
                if len(pool) < _POOL_MAX and getrefcount(event) == 2:
                    event.callback = None
                    event.args = ()
                    pool.append(event)
        finally:
            self._running = False
        if not self._stopped:
            self._now = max(self._now, end)
        return fired

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` when drained.

        The parallel coordinator polls this at window barriers to skip empty
        windows (jumping the global clock to the window holding the earliest
        event anywhere in the federation).
        """
        event = self._queue.peek()
        return event.time if event is not None else None

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Pickling (checkpoint/resume support)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Snapshot the simulator without its transient accelerators.

        The handle pool holds dead, payload-stripped handles — recycling is
        behaviourally invisible, so a restored simulator simply starts with
        an empty pool.  The trace hook is a debugging callable that may not
        pickle (and a resumed run attaches its own); it is dropped likewise.
        A simulator cannot be snapshotted mid-``run()``: the checkpoint
        driver only pickles between events, where ``_running`` is False.
        """
        if self._running:
            raise SimulationError("cannot pickle a simulator while it is running")
        state = self.__dict__.copy()
        state["_pool"] = []
        state["_trace"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _peek(self) -> Optional[ScheduledEvent]:
        """Return the next non-cancelled event without popping it."""
        return self._queue.peek()

    def drain(self) -> Iterator[ScheduledEvent]:
        """Pop and yield all remaining (non-cancelled) events without firing them.

        Mainly useful for inspecting the end-of-run state in tests.
        """
        queue = self._queue
        while True:
            event = queue.pop()
            if event is None:
                return
            if not event.cancelled:
                self._pending -= 1
                yield event

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending}, "
            f"fired={self._events_processed})"
        )
