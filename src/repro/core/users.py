"""Local user populations.

Each cluster has a local population of users that submits the (trace-driven or
synthetic) workload to the cluster's GFA.  Modelling the population as its own
simulation entity keeps the submission path identical to the paper's model
(user → GFA → LRMS / federation) and gives a single place to attach
per-population bookkeeping.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.sim.engine import Simulator
from repro.sim.entity import Entity, EntityRegistry
from repro.sim.events import Event, EventType
from repro.workload.job import Job


class UserPopulation(Entity):
    """The user community local to one cluster.

    Parameters
    ----------
    sim, registry:
        Simulation engine and shared entity registry.
    gfa_name:
        Name of the GFA that receives this population's jobs.
    jobs:
        The population's workload; each job is submitted at its
        ``submit_time`` once :meth:`start` has been called.

    Only the next arrival is ever pending: :meth:`start` reserves one
    sequence number per job and each submission schedules its successor
    with that job's reserved number.  Every arrival therefore fires under
    the ``(time, priority, seq)`` key it would have had if the whole
    workload were scheduled at start, so the delivery order is unchanged,
    while the simulator holds one arrival per population instead of one per
    job.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: EntityRegistry,
        gfa_name: str,
        jobs: Sequence[Job],
    ):
        super().__init__(sim, f"users@{gfa_name}", registry)
        self.gfa_name = gfa_name
        self._jobs: List[Job] = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.submitted = 0
        self._started = False
        self._first_seq = 0
        for job in self._jobs:
            if job.origin != gfa_name:
                raise ValueError(
                    f"job {job.job_id} originates at {job.origin!r}, cannot be "
                    f"submitted by the population of {gfa_name!r}"
                )

    # ------------------------------------------------------------------ #
    # Behaviour
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Reserve the workload's sequence numbers and schedule the first job."""
        if self._started:
            raise RuntimeError(f"{self.name}: population already started")
        self._started = True
        self._first_seq = self.sim.reserve_seqs(len(self._jobs))
        self._schedule(0)

    def _schedule(self, index: int) -> None:
        if index < len(self._jobs):
            job = self._jobs[index]
            self.sim.schedule_at(
                job.submit_time, self._submit, index, seq=self._first_seq + index
            )

    def _submit(self, index: int) -> None:
        self._schedule(index + 1)
        self.submitted += 1
        self.send(self.gfa_name, EventType.JOB_SUBMIT, payload=self._jobs[index])

    def handle_event(self, event: Event) -> None:
        # User populations only emit events; nothing addresses them directly.
        raise ValueError(f"{self.name}: unexpected event {event.etype}")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> List[Job]:
        """The population's workload (submit-time ordered)."""
        return list(self._jobs)

    @property
    def users(self) -> List[int]:
        """Distinct user identifiers appearing in the workload."""
        return sorted({job.user_id for job in self._jobs})

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"UserPopulation({self.gfa_name!r}, jobs={len(self._jobs)})"


def populations_from_workload(
    sim: Simulator,
    registry: EntityRegistry,
    workload: Iterable[tuple[str, Sequence[Job]]],
) -> List[UserPopulation]:
    """Create one :class:`UserPopulation` per (gfa name, job list) pair."""
    return [UserPopulation(sim, registry, name, jobs) for name, jobs in workload]
