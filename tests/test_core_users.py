"""Unit tests for :class:`repro.core.users.UserPopulation`.

A population streams its workload: only the next arrival is ever pending,
and each arrival fires under the sequence number it would have had if the
whole workload were scheduled when the population started.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.users import UserPopulation, populations_from_workload
from repro.sim.engine import SimulationError, Simulator
from repro.sim.entity import EntityRegistry, RecordingEntity
from repro.sim.events import EventType
from repro.workload.job import Job


def _job(origin="gfa", submit_time=0.0, user_id=1, job_id=None):
    fields = dict(
        origin=origin, user_id=user_id, submit_time=submit_time, num_processors=1, length_mi=100.0
    )
    if job_id is not None:
        fields["job_id"] = job_id
    return Job(**fields)


def _world(jobs, name="gfa"):
    sim = Simulator()
    registry = EntityRegistry()
    sink = RecordingEntity(sim, name, registry)
    population = UserPopulation(sim, registry, name, jobs)
    return sim, sink, population


def _received(sink):
    return [(event.time, event.payload.job_id) for event in sink.events_of(EventType.JOB_SUBMIT)]


class TestStreaming:
    def test_start_schedules_only_the_first_arrival(self):
        sim, _, population = _world([_job(submit_time=float(t)) for t in range(50)])
        population.start()
        assert sim.pending == 1
        assert sim.next_event_time() == 0.0

    def test_one_arrival_stays_pending_until_the_last(self):
        jobs = [_job(submit_time=10.0 * t) for t in range(20)]
        sim, sink, population = _world(jobs)
        population.start()
        pending = []
        while sim.step():
            pending.append(sim.pending)
        assert len(_received(sink)) == 20
        # Each arrival leaves its successor plus the JOB_SUBMIT delivery.
        assert max(pending) == 2
        assert sim.pending == 0

    def test_tied_arrivals_all_fire_before_their_deliveries(self):
        """Up-front scheduling gives every arrival a smaller sequence number
        than any delivery it causes, so arrivals tied on one instant all fire
        before the first of their JOB_SUBMIT deliveries; streaming must keep
        that order."""
        labels = []
        sim = Simulator(trace=lambda time, label: labels.append((time, label.split(".")[-1])))
        registry = EntityRegistry()
        RecordingEntity(sim, "gfa", registry)
        jobs = [_job(submit_time=5.0), _job(submit_time=5.0), _job(submit_time=9.0)]
        UserPopulation(sim, registry, "gfa", jobs).start()
        sim.run()
        assert labels == [
            (5.0, "_submit"),
            (5.0, "_submit"),
            (5.0, "_deliver"),
            (5.0, "_deliver"),
            (9.0, "_submit"),
            (9.0, "_deliver"),
        ]

    def test_each_job_is_delivered_at_its_submit_time(self):
        jobs = [_job(submit_time=t) for t in (0.0, 3.5, 3.5, 7.25, 100.0)]
        sim, sink, population = _world(jobs)
        population.start()
        sim.run()
        assert _received(sink) == [(job.submit_time, job.job_id) for job in jobs]
        assert population.submitted == len(jobs)

    def test_submission_order_is_submit_time_then_job_id(self):
        jobs = [
            _job(submit_time=20.0, job_id=5),
            _job(submit_time=10.0, job_id=9),
            _job(submit_time=20.0, job_id=2),
            _job(submit_time=10.0, job_id=1),
        ]
        sim, sink, population = _world(jobs)
        population.start()
        sim.run()
        assert [job_id for _, job_id in _received(sink)] == [1, 9, 2, 5]
        assert [job.job_id for job in population.jobs] == [1, 9, 2, 5]

    def test_submitted_counts_only_fired_arrivals(self):
        jobs = [_job(submit_time=float(t)) for t in range(10)]
        sim, _, population = _world(jobs)
        population.start()
        sim.run(until=4.5)
        assert population.submitted == 5
        sim.run()
        assert population.submitted == 10

    def test_empty_population_schedules_and_reserves_nothing(self):
        sim, sink, population = _world([])
        population.start()
        assert sim.pending == 0
        handle = sim.schedule(1.0, lambda: None)
        assert handle.seq == 0
        sim.run()
        assert sink.received == []

    def test_start_reserves_one_number_per_job(self):
        sim, _, population = _world([_job(submit_time=float(t)) for t in range(6)])
        first = sim.schedule(0.0, lambda: None).seq
        population.start()
        assert sim.schedule(0.0, lambda: None).seq == first + 1 + 6

    def test_start_after_the_first_submit_time_is_rejected_eagerly(self):
        """Jobs are sorted, so checking the first arrival at start covers the
        whole workload: a late start fails at once, not mid-run."""
        sim, _, population = _world([_job(submit_time=2.0), _job(submit_time=9.0)])
        sim.run(until=5.0)
        with pytest.raises(SimulationError, match="in the past"):
            population.start()

    def test_start_twice_is_rejected(self):
        _, _, population = _world([_job()])
        population.start()
        with pytest.raises(RuntimeError):
            population.start()


class TestReservedOrder:
    def test_arrival_fires_before_a_tie_scheduled_after_start(self):
        """An event scheduled at an arrival's instant *after* the population
        started fires after that arrival, exactly as if every arrival had
        been scheduled at start."""
        jobs = [_job(submit_time=10.0), _job(submit_time=20.0)]
        sim, _, population = _world(jobs)
        fired = []
        original = population._submit
        population._submit = lambda index: (fired.append(("arrival", index)), original(index))
        population.start()
        sim.schedule_at(20.0, fired.append, ("timer", None))
        sim.run()
        assert fired == [("arrival", 0), ("arrival", 1), ("timer", None)]

    def test_tie_scheduled_before_start_fires_first(self):
        jobs = [_job(submit_time=10.0)]
        sim, _, population = _world(jobs)
        fired = []
        sim.schedule_at(10.0, fired.append, "early-timer")
        original = population._submit
        population._submit = lambda index: (fired.append("arrival"), original(index))
        population.start()
        sim.run()
        assert fired == ["early-timer", "arrival"]

    def test_interleaved_populations_match_up_front_scheduling(self):
        """Two populations with tied arrivals deliver in the order one
        schedule-everything loop (population A's jobs, then B's) gives."""
        times_a = [0.0, 5.0, 5.0, 8.0]
        times_b = [5.0, 5.0, 8.0, 8.0]

        def streamed():
            sim = Simulator()
            registry = EntityRegistry()
            sinks = [RecordingEntity(sim, name, registry) for name in ("a", "b")]
            order = []
            for sink in sinks:
                sink.handle_event = lambda event, order=order: order.append(event.payload.job_id)
            pops = [
                UserPopulation(sim, registry, "a", [_job("a", t, job_id=i) for i, t in enumerate(times_a)]),
                UserPopulation(sim, registry, "b", [_job("b", t, job_id=10 + i) for i, t in enumerate(times_b)]),
            ]
            for pop in pops:
                pop.start()
            sim.run()
            return order

        up_front = [
            job_id
            for _, _, job_id in sorted(
                [(t, seq, i) for seq, (i, t) in enumerate(enumerate(times_a))]
                + [(t, len(times_a) + seq, 10 + i) for seq, (i, t) in enumerate(enumerate(times_b))]
            )
        ]
        assert streamed() == up_front == [0, 1, 2, 10, 11, 3, 12, 13]

    def test_pickled_mid_stream_population_resumes_identically(self):
        """A copy pickled mid-stream fires the rest of the workload exactly as
        the original does, ties with a timer scheduled after the copy too."""
        jobs = [_job(submit_time=float(t % 7), job_id=t) for t in range(30)]
        sim, sink, population = _world(jobs)
        population.start()
        sim.run(until=3.0)
        clone_sim, clone_sink, clone_population = pickle.loads(
            pickle.dumps((sim, sink, population))
        )

        def tail(sim, sink):
            sink.schedule(2.0)  # a timer at t=5, tied with arrivals
            sim.run()
            return [
                (event.time, event.etype, getattr(event.payload, "job_id", None))
                for event in sink.received
            ]

        original = tail(sim, sink)
        assert tail(clone_sim, clone_sink) == original
        # The t=5 arrivals fire before the timer, but their JOB_SUBMIT
        # deliveries are numbered when they fire, so they land after it.
        timer = [event[1] for event in original].index(EventType.TIMER)
        assert [event[0] for event in original[timer - 1 : timer + 2]] == [4.0, 5.0, 5.0]
        assert clone_population.submitted == population.submitted == 30


class TestConstruction:
    def test_foreign_job_is_rejected(self):
        with pytest.raises(ValueError, match="originates at 'elsewhere'"):
            _world([_job(origin="elsewhere")])

    def test_addressed_events_are_rejected(self):
        sim, _, population = _world([])
        sender = RecordingEntity(sim, "sender", population.registry)
        sender.send(population.name, EventType.JOB_SUBMIT)
        with pytest.raises(ValueError, match="unexpected event"):
            sim.run()

    def test_jobs_is_a_sorted_copy(self):
        jobs = [_job(submit_time=2.0), _job(submit_time=1.0)]
        _, _, population = _world(jobs)
        listed = population.jobs
        assert [job.submit_time for job in listed] == [1.0, 2.0]
        listed.clear()
        assert len(population.jobs) == 2

    def test_users_are_distinct_and_sorted(self):
        jobs = [_job(user_id=u) for u in (4, 1, 4, 2, 1)]
        _, _, population = _world(jobs)
        assert population.users == [1, 2, 4]

    def test_populations_from_workload_builds_one_per_pair(self):
        sim = Simulator()
        registry = EntityRegistry()
        pops = populations_from_workload(
            sim, registry, [("x", [_job("x")]), ("y", []), ("z", [_job("z"), _job("z")])]
        )
        assert [pop.gfa_name for pop in pops] == ["x", "y", "z"]
        assert [pop.name for pop in pops] == ["users@x", "users@y", "users@z"]
        assert [len(pop.jobs) for pop in pops] == [1, 0, 2]
        assert all(pop.name in registry for pop in pops)
