"""Integration tests: full Federation runs on the calibrated archive workload."""

from __future__ import annotations

import copy

import pytest

from repro.core import Federation, FederationConfig, SharingMode, UserPopulation, run_federation
from repro.faults.plan import FaultPlan
from repro.scenario import result_fingerprint
from repro.sim import RandomStreams, Simulator
from repro.workload import build_federation_specs, build_workload
from repro.workload.archive import ARCHIVE_RESOURCES
from repro.workload.job import JobStatus, QoSStrategy


def small_setup(seed=7, n_resources=4):
    """A reduced federation (first four Table 1 resources) to keep tests fast."""
    resources = ARCHIVE_RESOURCES[:n_resources]
    specs = build_federation_specs(resources)
    workload = build_workload(RandomStreams(seed), resources)
    # Thin the workload: every third job is enough to exercise the machinery.
    workload = {name: jobs[::3] for name, jobs in workload.items()}
    return specs, workload


@pytest.fixture(scope="module")
def economy_result():
    specs, workload = small_setup()
    config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.3, seed=11)
    return run_federation(specs, workload, config)


class TestConstruction:
    def test_unknown_workload_resource_rejected(self):
        specs, workload = small_setup()
        workload["Martian Cluster"] = []
        with pytest.raises(ValueError):
            Federation(specs, workload)

    def test_federation_runs_only_once(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.INDEPENDENT))
        federation.run()
        with pytest.raises(RuntimeError):
            federation.run()

    def test_qos_assigned_to_every_job(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.ECONOMY))
        for jobs in federation.workload.values():
            for job in jobs:
                assert job.budget is not None and job.budget > 0
                assert job.deadline is not None and job.deadline > 0
                assert job.strategy in (QoSStrategy.OFT, QoSStrategy.OFC)

    def test_non_economy_modes_have_no_strategies_or_bank(self):
        specs, workload = small_setup()
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.FEDERATION))
        assert federation.bank is None
        for jobs in federation.workload.values():
            assert all(job.strategy is QoSStrategy.NONE for job in jobs)


class _UpFrontPopulation(UserPopulation):
    """Test oracle: every arrival scheduled at start in one batch, one
    event per job, as a population without streaming would."""

    def start(self):
        self.sim.schedule_at_many(
            (job.submit_time, self._submit, (index,))
            for index, job in enumerate(self._jobs)
        )

    def _schedule(self, index):
        pass  # everything is already scheduled


class TestStreamingArrivals:
    def test_pending_after_start_is_one_arrival_per_population(self):
        specs, workload = small_setup()
        empty = specs[1].name
        workload[empty] = []
        plan = FaultPlan().crash(specs[0].name, at=3600.0, duration=1800.0)
        plan = plan.load_spike(specs[2].name, at=7200.0, duration=600.0)
        federation = Federation(specs, workload, FederationConfig(mode=SharingMode.ECONOMY))
        federation.install_faults(plan)
        assert sum(len(jobs) for jobs in workload.values()) > 100
        federation.start()
        nonempty = sum(1 for jobs in workload.values() if jobs)
        assert nonempty == len(specs) - 1
        assert federation.sim.pending == nonempty + len(plan.scheduled())

    def test_peak_pending_is_far_below_the_job_count(self, monkeypatch):
        """Pending events track running jobs and messages in flight, not the
        workload still to arrive (scheduling every arrival up front starts
        the run with one pending event per job)."""
        specs, workload = small_setup()
        jobs = sum(len(jobs) for jobs in workload.values())
        peak = [0]
        sims = []

        def make_simulator():
            sim = Simulator(trace=lambda time, label: peak.__setitem__(0, max(peak[0], sim.pending)))
            sims.append(sim)
            return sim

        monkeypatch.setattr("repro.core.federation.Simulator", make_simulator)
        Federation(specs, workload, FederationConfig(mode=SharingMode.ECONOMY)).run()
        assert sims[0].events_processed > jobs
        assert 0 < peak[0] < jobs / 4

    def test_tied_arrivals_fire_as_if_scheduled_up_front(self, monkeypatch):
        """Arrivals tied within and across populations, and a fault at the
        same instant, fire in the order of the schedule-everything-at-start
        oracle: same event sequence, same submissions, same result."""
        specs, workload = small_setup(n_resources=3)
        tie = 4 * 3600.0
        for jobs in workload.values():
            for job in jobs[::6]:
                job.submit_time = tie
            for job in jobs[1::6]:
                job.submit_time = 2 * tie
        plan = FaultPlan().crash(specs[1].name, at=tie, duration=1800.0)

        def observe(population_class):
            trace, submitted = [], []
            original_send = UserPopulation.send

            def send(population, target, etype, payload=None, **kwargs):
                submitted.append((population.sim.now, population.name, payload.job_id))
                return original_send(population, target, etype, payload=payload, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(
                    "repro.core.federation.Simulator",
                    lambda: Simulator(trace=lambda t, label: trace.append((t, label))),
                )
                patch.setattr("repro.core.federation.UserPopulation", population_class)
                patch.setattr(UserPopulation, "send", send)
                federation = Federation(
                    specs,
                    copy.deepcopy(workload),  # each run mutates its jobs
                    FederationConfig(mode=SharingMode.ECONOMY, seed=5),
                )
                federation.install_faults(plan)
                result = federation.run()
            return trace, submitted, result_fingerprint(result)

        streamed = observe(UserPopulation)
        oracle = observe(_UpFrontPopulation)
        trace, submitted, _ = streamed
        ties = [t for t, _, _ in submitted if t == tie]
        assert len(ties) > len(workload), "expected tied arrivals in every population"
        assert len({name for t, name, _ in submitted if t == tie}) == len(workload)
        at_tie = [label for t, label in trace if t == tie]
        assert at_tie.index("FaultInjector._apply") < at_tie.index("UserPopulation._submit")
        assert streamed == oracle


class TestRunInvariants:
    def test_every_job_reaches_a_terminal_state(self, economy_result):
        for job in economy_result.jobs:
            assert job.status in (JobStatus.COMPLETED, JobStatus.REJECTED)
            if job.status is JobStatus.COMPLETED:
                assert job.executed_on is not None
                assert job.finish_time is not None
                assert job.finish_time >= job.submit_time
            else:
                assert job.executed_on is None

    def test_resource_accounting_consistent_with_jobs(self, economy_result):
        res = economy_result
        for name, outcome in res.resources.items():
            stats = outcome.stats
            assert stats.submitted_local == len(res.jobs_of(name))
            assert stats.accepted_local + stats.migrated_out + stats.rejected == stats.submitted_local
            assert 0.0 <= outcome.utilisation <= 1.0

    def test_incentives_match_bank_and_job_costs(self, economy_result):
        res = economy_result
        total_cost = sum(j.cost_paid for j in res.completed_jobs() if j.cost_paid)
        assert res.total_incentive() == pytest.approx(total_cost, rel=1e-9)
        assert res.bank.total_volume() == pytest.approx(total_cost, rel=1e-9)

    def test_completed_jobs_meet_deadline_and_budget(self, economy_result):
        """The DBC algorithm only places jobs where the QoS constraints hold,
        so every completed job satisfies its QoS."""
        for job in economy_result.completed_jobs():
            assert job.qos_satisfied, (
                f"job {job.job_id} on {job.executed_on}: finish={job.finish_time}, "
                f"deadline={job.absolute_deadline}, cost={job.cost_paid}, budget={job.budget}"
            )

    def test_message_totals_consistent(self, economy_result):
        log = economy_result.message_log
        total_local = sum(log.local_messages(g) for g in log.gfa_names())
        total_remote = sum(log.remote_messages(g) for g in log.gfa_names())
        assert total_local == log.total_messages
        assert total_remote == log.total_messages
        per_job_total = sum(log.per_job_counts().values())
        assert per_job_total == log.total_messages
        # Migrated jobs exchange at least 4 messages (negotiate, reply,
        # submission, completion); locally placed jobs may have none.
        for job in economy_result.completed_jobs():
            if job.was_migrated:
                assert job.messages >= 4

    def test_observation_period_covers_all_finishes(self, economy_result):
        last_finish = max(j.finish_time for j in economy_result.completed_jobs())
        assert economy_result.observation_period >= last_finish
        assert economy_result.observation_period >= economy_result.config.horizon

    def test_determinism_same_seed_same_outcome(self):
        specs, workload_a = small_setup(seed=3, n_resources=3)
        _, workload_b = small_setup(seed=3, n_resources=3)
        config = FederationConfig(mode=SharingMode.ECONOMY, oft_fraction=0.5, seed=5)
        res_a = run_federation(specs, workload_a, config)
        res_b = run_federation(specs, workload_b, config)
        assert res_a.message_log.total_messages == res_b.message_log.total_messages
        assert res_a.total_incentive() == pytest.approx(res_b.total_incentive())
        placements_a = [(j.executed_on, j.status.name) for j in res_a.jobs]
        placements_b = [(j.executed_on, j.status.name) for j in res_b.jobs]
        assert placements_a == placements_b


class TestModeComparison:
    def test_federation_accepts_at_least_as_many_jobs_as_independent(self):
        """The paper's core claim: federating increases the acceptance rate."""
        specs, workload_ind = small_setup(seed=13)
        _, workload_fed = small_setup(seed=13)
        independent = run_federation(
            specs, workload_ind, FederationConfig(mode=SharingMode.INDEPENDENT, seed=1)
        )
        federated = run_federation(
            specs, workload_fed, FederationConfig(mode=SharingMode.FEDERATION, seed=1)
        )
        assert len(federated.rejected_jobs()) <= len(independent.rejected_jobs())
        assert len(federated.completed_jobs()) >= len(independent.completed_jobs())

    def test_independent_mode_exchanges_no_messages(self):
        specs, workload = small_setup(seed=13)
        res = run_federation(specs, workload, FederationConfig(mode=SharingMode.INDEPENDENT))
        assert res.message_log.total_messages == 0
        assert all(outcome.stats.migrated_out == 0 for outcome in res.resources.values())
