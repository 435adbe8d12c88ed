"""A fixed reference workload that measures how fast the host is right now.

It is a small, self-contained discrete-event simulation in pure Python with
the same kind of work as the program's hot path: a heap of events, FCFS
clusters keeping a step-function availability profile that is scanned for
the earliest start and split on each reservation, a cheapest-quote choice
between clusters, and a dict of accounts.  It imports nothing from the
program, so a change to the program never changes its time; its input is
fixed, so its checksum never changes either.

``run.py`` runs it between the program's repetitions and divides each of
their times by the time of the reference repetition run nearest to it (see
README.md).  One repetition simulates ``--rounds`` times, so that it lasts
about as long as one of the program's, and reports the time of one round.
With ``--workers 2`` two processes do so in lock-step, meeting at a barrier
every ``WINDOW_EVENTS`` events, as the parallel engine's shards meet at each
window boundary: like the engine, the pair then runs at the pace of
whichever vCPU is slower.  Run on its own::

    python3 perfbench/reference.py --rounds 1 --workers 1
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import time
from bisect import bisect_right

#: Jobs one reference run simulates, and their mean inter-arrival time in
#: seconds: an overloaded queue, about 1 s of work on a 2-vCPU Xeon VM.
JOBS = 4000
INTERARRIVAL_S = 12.0
CLUSTERS = 8
#: Events between barriers with ``--workers`` above 1 (about 1 ms of work,
#: the length of one of the parallel engine's windows on ``wan-parallel``).
WINDOW_EVENTS = 10


class _Cluster:
    __slots__ = ("procs", "price", "times", "free")

    def __init__(self, procs: int, price: float) -> None:
        self.procs = procs
        self.price = price
        self.times = [0.0]  # step starts
        self.free = [procs]  # free processors from each step on

    def earliest_start(self, now: float, procs: int, runtime: float) -> float:
        times, free = self.times, self.free
        i = bisect_right(times, now) - 1
        start = now
        while True:
            end = start + runtime
            j = i
            while j < len(times) and times[j] < end and free[j] >= procs:
                j += 1
            if j == len(times) or times[j] >= end:
                return start
            # Step j is too busy; the last step is always free, so j + 1 exists.
            i = j + 1
            start = times[i]

    def _split(self, at: float) -> int:
        i = bisect_right(self.times, at) - 1
        if self.times[i] != at:
            self.times.insert(i + 1, at)
            self.free.insert(i + 1, self.free[i])
            i += 1
        return i

    def reserve(self, start: float, procs: int, runtime: float) -> None:
        first = self._split(start)
        last = self._split(start + runtime)
        for k in range(first, last):
            self.free[k] -= procs

    def forget_before(self, now: float) -> None:
        i = bisect_right(self.times, now) - 1
        if i > 0:
            del self.times[:i]
            del self.free[:i]


def simulate(jobs: int = JOBS, barrier=None) -> int:
    """Run the reference simulation; return a checksum of its schedule.

    ``barrier``, if given, is called after every ``WINDOW_EVENTS`` events.
    """
    rng = random.Random(20050201)
    clusters = [_Cluster(rng.choice((64, 128, 256, 512)), rng.uniform(1.0, 5.0))
                for _ in range(CLUSTERS)]
    events, seq, t = [], 0, 0.0
    for job in range(jobs):
        t += rng.expovariate(1 / INTERARRIVAL_S)
        heapq.heappush(events, (t, seq, 0, job, rng.choice((1, 2, 4, 8, 16, 32, 64)),
                                rng.uniform(60.0, 7200.0)))
        seq += 1
    accounts: dict = {}
    checksum = fired = 0
    while events:
        fired += 1
        if barrier is not None and fired % WINDOW_EVENTS == 0:
            barrier()
        now, _, kind, job, procs, runtime = heapq.heappop(events)
        if kind == 0:
            quotes = []
            for index, cluster in enumerate(clusters):
                if procs <= cluster.procs:
                    start = cluster.earliest_start(now, procs, runtime)
                    quotes.append((start + runtime * cluster.price / 4.0, index, start))
            _, index, start = min(quotes)
            cluster = clusters[index]
            cluster.reserve(start, procs, runtime)
            heapq.heappush(events, (start + runtime, seq, 1, job, procs, float(index)))
            seq += 1
        else:
            cluster = clusters[int(runtime)]
            cluster.forget_before(now)
            accounts[int(runtime)] = accounts.get(int(runtime), 0.0) + procs * cluster.price
            checksum = (checksum * 31 + job * 7 + int(now)) % 1_000_000_007
    return checksum


def _barrier(sends, receives):
    def meet():
        for fd in sends:
            os.write(fd, b".")
        for fd in receives:
            if not os.read(fd, 1):
                raise SystemExit("a reference worker died")

    return meet


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    # At each barrier every process signals every other and waits for all.
    pipes = {(a, b): os.pipe() for a in range(args.workers) for b in range(args.workers) if a != b}
    # Each forked worker reports its checksums on a pipe of its own.
    results = {me: os.pipe() for me in range(1, args.workers)}

    def rounds(me: int) -> list:
        sends = [w for (a, _), (_, w) in pipes.items() if a == me]
        receives = [r for (_, b), (r, _) in pipes.items() if b == me]
        # Close the other ends, so that a peer that dies ends a wait with EOF.
        for fd in {fd for ends in pipes.values() for fd in ends} - set(sends) - set(receives):
            os.close(fd)
        meet = _barrier(sends, receives) if args.workers > 1 else None
        return [simulate(barrier=meet) for _ in range(args.rounds)]

    start = time.perf_counter()
    children = []
    for me in range(1, args.workers):
        pid = os.fork()
        if pid == 0:
            os.write(results[me][1], json.dumps(rounds(me)).encode())
            os._exit(0)
        children.append(pid)
    checksums = set(rounds(0))
    for pid in children:
        os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    for read_end, write_end in results.values():
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            checksums.update(json.loads(pipe.read() or b"[null]"))
    # The checksum is its fingerprint: run.py checks every repetition's agrees.
    print(json.dumps({"reference_s": elapsed / args.rounds,
                      "fingerprint": ",".join(map(str, sorted(checksums, key=str))),
                      "violations": []}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
