"""Streamed user arrivals, pinned on the five golden experiment shapes.

Each :class:`~repro.core.users.UserPopulation` keeps a single pending
arrival: :meth:`~repro.core.users.UserPopulation.start` reserves one
sequence number per job and every submission schedules its successor under
that job's reserved number.  For every golden shape these tests check that

* the pending set after start holds one arrival per non-empty population,
* no population ever holds two pending arrivals during the run,
* the whole firing sequence equals an oracle that schedules every arrival
  up front (and both runs reproduce the golden digest),
* every job is submitted exactly once, at its submit time, in
  ``(submit_time, job_id)`` order within its population,
* a run interrupted while most arrivals are still ahead snapshots only the
  next arrival of each population and resumes to the golden digest.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import Federation, UserPopulation
from repro.par.shard import build_shard_federation, shard_assignment
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.service.checkpoint import CancelledRun, resume_run, snapshot_path
from repro.service.snapshot import load_snapshot
from repro.sim import Simulator
from tests.test_core_federation import _UpFrontPopulation
from tests.test_golden_fingerprints import GOLDEN_FINGERPRINTS, GOLDEN_SCENARIOS

SHAPES = sorted(GOLDEN_SCENARIOS)


def _pending_arrivals(sim) -> Counter:
    """Live population arrivals in ``sim``'s queue, counted per population."""
    counts: Counter = Counter()
    for entry in sim._queue._heap:
        event = entry[3]
        callback = event.callback
        if not event.cancelled and getattr(callback, "__func__", None) is UserPopulation._submit:
            counts[callback.__self__.gfa_name] += 1
    return counts


def _traced_run(monkeypatch, scenario, population_class=UserPopulation, on_event=None):
    """Run ``scenario`` and return ``(trace, fingerprint, federation)``.

    ``on_event(sim)`` is called at every firing, before the callback runs.
    """
    trace = []
    built = []

    def make_simulator():
        def record(time, label):
            trace.append((time, label))
            if on_event is not None:
                on_event(built[0].sim)

        return Simulator(trace=record)

    original_start = Federation.start

    def start(federation):
        built.append(federation)
        original_start(federation)

    with monkeypatch.context() as patch:
        patch.setattr("repro.core.federation.Simulator", make_simulator)
        patch.setattr("repro.core.federation.UserPopulation", population_class)
        patch.setattr(Federation, "start", start)
        result = run_scenario(scenario)
    return trace, result_fingerprint(result), built[0]


@pytest.mark.parametrize("name", SHAPES)
def test_pending_after_start_is_one_arrival_per_population(name, monkeypatch):
    observed = {}
    original_start = Federation.start

    def start(federation):
        original_start(federation)
        observed["pending"] = federation.sim.pending
        observed["arrivals"] = _pending_arrivals(federation.sim)
        observed["populations"] = {
            pop.gfa_name for pop in federation.populations.values() if pop.jobs
        }
        observed["jobs"] = sum(len(pop.jobs) for pop in federation.populations.values())

    monkeypatch.setattr(Federation, "start", start)
    run_scenario(GOLDEN_SCENARIOS[name])
    assert observed["jobs"] > 10 * len(observed["populations"])
    assert observed["pending"] == len(observed["populations"])
    assert set(observed["arrivals"]) == observed["populations"]
    assert set(observed["arrivals"].values()) == {1}


@pytest.mark.parametrize("name", SHAPES)
def test_no_population_ever_holds_two_pending_arrivals(name, monkeypatch):
    peaks: Counter = Counter()

    def check(sim):
        for population, count in _pending_arrivals(sim).items():
            peaks[population] = max(peaks[population], count)

    _, fingerprint, federation = _traced_run(
        monkeypatch, GOLDEN_SCENARIOS[name], on_event=check
    )
    assert fingerprint == GOLDEN_FINGERPRINTS[name]
    assert peaks, "no arrival was ever pending"
    assert max(peaks.values()) == 1
    assert _pending_arrivals(federation.sim) == Counter()


@pytest.mark.parametrize("name", SHAPES)
def test_event_sequence_equals_up_front_oracle(name, monkeypatch):
    streamed = _traced_run(monkeypatch, GOLDEN_SCENARIOS[name])
    oracle = _traced_run(monkeypatch, GOLDEN_SCENARIOS[name], _UpFrontPopulation)
    assert streamed[1] == oracle[1] == GOLDEN_FINGERPRINTS[name]
    assert len(streamed[0]) == len(oracle[0])
    assert streamed[0] == oracle[0]


@pytest.mark.parametrize("name", SHAPES)
def test_each_job_is_submitted_once_at_its_submit_time(name, monkeypatch):
    submissions = []
    original_send = UserPopulation.send

    def send(population, target, etype, payload=None, **kwargs):
        submissions.append((population.gfa_name, population.sim.now, payload))
        return original_send(population, target, etype, payload=payload, **kwargs)

    monkeypatch.setattr(UserPopulation, "send", send)
    _, _, federation = _traced_run(monkeypatch, GOLDEN_SCENARIOS[name])
    populations = federation.populations.values()
    expected = {job.job_id for pop in populations for job in pop.jobs}
    assert len(submissions) == len(expected)
    assert {job.job_id for _, _, job in submissions} == expected
    assert all(now == job.submit_time for _, now, job in submissions)
    for population in populations:
        order = [job for who, _, job in submissions if who == population.gfa_name]
        assert [job.job_id for job in order] == [job.job_id for job in population.jobs]
        assert order == sorted(order, key=lambda job: (job.submit_time, job.job_id))
        assert population.submitted == len(population.jobs)


@pytest.mark.parametrize("name", SHAPES)
def test_interrupt_mid_stream_snapshots_only_next_arrivals(name, tmp_path):
    """Checkpoint ten minutes in, while most arrivals are still ahead: the
    snapshot carries one pending arrival per unfinished population (not one
    per remaining job), and resuming it reproduces the golden digest."""
    scenario = GOLDEN_SCENARIOS[name]

    def interrupt(progress):
        if not progress.done:
            raise CancelledRun("interrupted by test")

    with pytest.raises(CancelledRun):
        run_scenario(
            scenario, checkpoint_dir=tmp_path, checkpoint_every=600.0, on_progress=interrupt
        )
    header, federation, _ = load_snapshot(snapshot_path(tmp_path), restore_counters=False)
    assert header.sim_time == 600.0
    unfinished = {
        pop.gfa_name for pop in federation.populations.values() if pop.submitted < len(pop.jobs)
    }
    remaining = sum(len(pop.jobs) - pop.submitted for pop in federation.populations.values())
    arrivals = _pending_arrivals(federation.sim)
    assert set(arrivals) == unfinished
    assert set(arrivals.values()) == {1}
    assert remaining > 2 * header.pending_events
    result, _ = resume_run(tmp_path, expected_scenario=scenario, checkpoint_every=3600.0)
    assert result_fingerprint(result) == GOLDEN_FINGERPRINTS[name]


#: Golden economy shape with latency, directory shards and faults layered on.
_LAYERED = {
    "chaos": GOLDEN_SCENARIOS["exp3_economy"].replace(faults="chaos"),
    "two-tier-wan": GOLDEN_SCENARIOS["exp3_economy"].replace(
        transport="two-tier-wan", directory_shards=4
    ),
}


@pytest.mark.parametrize("variant", sorted(_LAYERED))
def test_layered_shapes_match_up_front_oracle(variant, monkeypatch):
    scenario = _LAYERED[variant]
    streamed = _traced_run(monkeypatch, scenario)
    oracle = _traced_run(monkeypatch, scenario, _UpFrontPopulation)
    assert streamed[1] == oracle[1]
    assert streamed[1] != GOLDEN_FINGERPRINTS["exp3_economy"], "variant had no effect"
    assert streamed[0] == oracle[0]


@pytest.mark.parametrize("workers", [2, 4])
def test_each_shard_holds_one_arrival_per_owned_population(workers):
    scenario = Scenario(
        mode="economy", workload="synthetic", horizon=6 * 3600.0,
        system_size=16, thin=12, seed=42, transport="two-tier-wan",
    )
    owned_total = 0
    for index in range(workers):
        shard = build_shard_federation(scenario, index, workers, window=600.0)
        shard.start()
        owned = {
            pop.gfa_name for pop in shard.populations.values() if pop.jobs
        }
        assignment = shard_assignment([spec.name for spec in shard.specs], workers)
        assert all(assignment[name] == index for name in owned)
        arrivals = _pending_arrivals(shard.sim)
        assert set(arrivals) == owned
        assert set(arrivals.values()) == {1}
        assert sum(len(pop.jobs) for pop in shard.populations.values()) > len(owned)
        owned_total += len(owned)
    assert owned_total == 16
