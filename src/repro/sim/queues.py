"""The simulation kernel's event queue.

:class:`HeapQueue` keeps the :class:`~repro.sim.engine.Simulator`'s pending
events in a binary heap of bare ``(time, priority, seq, event)`` tuples, so
events pop in strictly increasing ``(time, priority, seq)`` order and sift
comparisons never touch the event object (the unique ``seq`` guarantees it).

The pending set stays small: each user population keeps a single pending
arrival (see :mod:`repro.core.users`), so the heap holds one entry per
population plus the timers, completions and in-flight messages of the run,
and ``O(log n)`` per push/pop with ``heapq``'s small constants is the right
cost model (measurements in docs/PERFORMANCE.md).

The queue stores :class:`~repro.sim.engine.ScheduledEvent`-shaped objects but
only touches their ``time`` / ``priority`` / ``seq`` / ``cancelled`` /
``_queued`` attributes (duck-typed, so this module imports nothing from the
engine and the engine can import it freely).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Tuple

__all__ = ["HeapQueue"]


class HeapQueue:
    """``heapq`` over bare ``(time, priority, seq, event)`` tuples.

    The contract the engine relies on:

    * :meth:`pop` returns entries in strictly increasing
      ``(time, priority, seq)`` order;
    * an event physically leaving the heap (pop, compaction of a cancelled
      entry) gets its ``_queued`` flag cleared;
    * ``len(queue)`` is the raw entry count *including* cancelled entries.
      Cancelled entries cannot be removed from the middle of a heap, so they
      linger until popped and the engine calls :meth:`compact` once dead
      entries outnumber live ones.
    """

    __slots__ = ("_heap",)

    def __init__(self):
        self._heap: List[Tuple[float, int, int, object]] = []

    def push(self, event) -> None:
        """Insert a scheduled event."""
        heappush(self._heap, (event.time, event.priority, event.seq, event))

    def push_many(self, events) -> None:
        """Insert a batch of scheduled events.

        Pop order afterwards is identical to ``for event in events:
        self.push(event)``; the batch form picks the cheaper of k sifts and
        one rebuild.
        """
        heap = self._heap
        batch = [(event.time, event.priority, event.seq, event) for event in events]
        if not batch:
            return
        # Below a quarter of the heap size, k sifts (O(k log n)) beat the
        # O(n + k) rebuild; above it, extend + heapify wins.
        if len(batch) * 4 < len(heap):
            for entry in batch:
                heappush(heap, entry)
        else:
            heap.extend(batch)
            heapify(heap)

    def pop_window(self, horizon: float):
        """Pop every event with ``time <= horizon``, in delivery order.

        Returns the non-cancelled events (cancelled stragglers inside the
        window are dropped, exactly as a pop loop would skip them); each has
        its ``_queued`` flag cleared.  The first event strictly after
        ``horizon`` stays queued.
        """
        heap = self._heap
        events = []
        append = events.append
        while heap:
            if heap[0][0] > horizon:
                break
            event = heappop(heap)[3]
            event._queued = False
            if not event.cancelled:
                append(event)
        return events

    def pop(self):
        """Remove and return the next event (possibly a lingering cancelled
        one — the engine skips those), or ``None`` when empty."""
        heap = self._heap
        if not heap:
            return None
        event = heappop(heap)[3]
        event._queued = False
        return event

    def peek(self):
        """The next non-cancelled event without removing it (``None`` when
        empty).  Drops lingering cancelled entries along the way."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)[3]._queued = False
        return heap[0][3] if heap else None

    def compact(self) -> int:
        """Drop every cancelled entry still stored; returns how many."""
        heap = self._heap
        live = []
        removed = 0
        for entry in heap:
            if entry[3].cancelled:
                entry[3]._queued = False
                removed += 1
            else:
                live.append(entry)
        if removed:
            heapify(live)
            self._heap = live
        return removed

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"HeapQueue(entries={len(self)})"
