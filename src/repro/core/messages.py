"""Superscheduling message accounting (Experiments 4 and 5).

The paper counts four message types exchanged between GFAs while scheduling a
job across the federation:

* ``NEGOTIATE``      — admission-control enquiry from the job's origin GFA,
* ``REPLY``          — accept / refuse answer from the contacted GFA,
* ``JOB_SUBMISSION`` — transfer of the job itself to the chosen remote GFA,
* ``JOB_COMPLETION`` — return of the job output to the origin GFA.

Directory queries are *not* counted here: the paper assumes an optimal
``O(log n)`` directory and reports only these inter-GFA messages (the
directory's own accounting lives in :class:`repro.p2p.FederationDirectory`).

Classification (Section 3.5): a message belongs to the scheduling of exactly
one job.  At the job's **origin** GFA it is a *local* message (sent/received to
schedule one of its own users' jobs); at the **remote** GFA it is a *remote*
message (work done on behalf of another site).  Messages are only exchanged
between distinct GFAs — scheduling a job onto its own origin cluster is free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.workload.job import Job


class MessageType(enum.Enum):
    """The four inter-GFA message categories of Experiment 4."""

    NEGOTIATE = "negotiate"
    REPLY = "reply"
    JOB_SUBMISSION = "job-submission"
    JOB_COMPLETION = "job-completion"

    # Members are singletons compared by identity, so the identity hash is a
    # valid hash for them.  It runs in C: ``Enum.__hash__`` hashes the member
    # name in a Python-level call, six times per recorded message (the
    # per-type counter updates of :meth:`MessageLog.record`).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Message:
    """One recorded inter-GFA message."""

    mtype: MessageType
    sender: str
    receiver: str
    origin_gfa: str
    remote_gfa: str
    job_id: int
    time: float


@dataclass
class GFAMessageCounters:
    """Per-GFA message counters."""

    local: int = 0
    remote: int = 0
    sent: int = 0
    received: int = 0
    by_type: Dict[MessageType, int] = field(default_factory=lambda: {t: 0 for t in MessageType})

    @property
    def total(self) -> int:
        """All messages this GFA participated in (local + remote)."""
        return self.local + self.remote


class MessageLog:
    """Central accounting of all inter-GFA messages of one simulation run.

    The log keeps per-GFA counters, per-job counts (mirrored onto
    ``Job.messages``) and, optionally, the individual message records for
    detailed inspection in tests and reports.
    """

    def __init__(self, keep_records: bool = False):
        self._per_gfa: Dict[str, GFAMessageCounters] = {}
        self._per_job: Dict[int, int] = {}
        self._per_pair: Dict[Tuple[str, str], int] = {}
        self._by_type: Dict[MessageType, int] = {t: 0 for t in MessageType}
        self._records: List[Message] = []
        self._keep_records = keep_records
        self.total_messages = 0
        # Fault accounting (zero on the fault-free path): enquiries whose
        # round trip never completed, and job transfers lost on the wire.
        # Kept outside the paper's message counters — a timeout is the
        # *absence* of a REPLY, not a fifth message category.
        self.negotiation_timeouts = 0
        self.transit_losses = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(
        self,
        mtype: MessageType,
        sender: str,
        receiver: str,
        job: Job,
        time: float = 0.0,
        origin_gfa: Optional[str] = None,
    ) -> Optional[Message]:
        """Record one message exchanged while scheduling ``job``.

        ``origin_gfa`` identifies the GFA that owns the job (defaults to the
        GFA managing the job's origin cluster); the other endpoint is the
        remote party.  Messages whose two endpoints are the same GFA are a
        programming error — intra-GFA decisions are free.

        This runs once per negotiate/reply/submission/completion message —
        several times per scheduled job — so it only touches the per-GFA
        counter objects of the two endpoints and builds a :class:`Message`
        record solely when tracing (``keep_records=True``); the plain counting
        path returns ``None``.
        """
        if sender == receiver:
            raise ValueError("inter-GFA messages require two distinct endpoints")
        origin = origin_gfa if origin_gfa is not None else job.origin
        if origin == sender:
            remote = receiver
        elif origin == receiver:
            remote = sender
        else:
            raise ValueError(
                f"message endpoints ({sender!r}, {receiver!r}) do not include the "
                f"job's origin GFA {origin!r}"
            )
        per_gfa = self._per_gfa
        origin_counters = per_gfa.get(origin)
        if origin_counters is None:
            origin_counters = per_gfa[origin] = GFAMessageCounters()
        remote_counters = per_gfa.get(remote)
        if remote_counters is None:
            remote_counters = per_gfa[remote] = GFAMessageCounters()
        origin_counters.local += 1
        origin_counters.by_type[mtype] += 1
        remote_counters.remote += 1
        remote_counters.by_type[mtype] += 1
        # sender/receiver are exactly {origin, remote}: reuse the two counter
        # objects already in hand instead of two more dict lookups.
        if sender == origin:
            origin_counters.sent += 1
            remote_counters.received += 1
        else:
            remote_counters.sent += 1
            origin_counters.received += 1
        self._by_type[mtype] += 1
        job_id = job.job_id
        per_job = self._per_job
        per_job[job_id] = per_job.get(job_id, 0) + 1
        pair = (origin, remote)
        per_pair = self._per_pair
        per_pair[pair] = per_pair.get(pair, 0) + 1
        job.messages += 1
        self.total_messages += 1
        if self._keep_records:
            message = Message(
                mtype=mtype,
                sender=sender,
                receiver=receiver,
                origin_gfa=origin,
                remote_gfa=remote,
                job_id=job_id,
                time=time,
            )
            self._records.append(message)
            return message
        return None

    def record_timeout(self, sender: str, receiver: str, job: Job) -> None:
        """Note that a NEGOTIATE from ``sender`` to ``receiver`` got no REPLY.

        The NEGOTIATE itself was recorded through :meth:`record`; this only
        tracks the missing reply so fault reports can reconcile negotiation
        counts against observed failures.
        """
        del sender, receiver, job  # identity is already captured by record()
        self.negotiation_timeouts += 1

    def record_transit_loss(self, sender: str, receiver: str, job: Job) -> None:
        """Note that a JOB_SUBMISSION transfer was lost on the wire."""
        del sender, receiver, job
        self.transit_losses += 1

    def _counters(self, gfa_name: str) -> GFAMessageCounters:
        if gfa_name not in self._per_gfa:
            self._per_gfa[gfa_name] = GFAMessageCounters()
        return self._per_gfa[gfa_name]

    def register_gfa(self, gfa_name: str) -> None:
        """Pre-register a GFA so zero-message agents appear in the reports."""
        self._counters(gfa_name)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def counters(self, gfa_name: str) -> GFAMessageCounters:
        """Counters of one GFA (zeros if it never exchanged messages)."""
        return self._per_gfa.get(gfa_name, GFAMessageCounters())

    def gfa_names(self) -> List[str]:
        """All GFAs that appear in the log."""
        return sorted(self._per_gfa)

    def local_messages(self, gfa_name: str) -> int:
        """Messages attributed to scheduling ``gfa_name``'s local jobs."""
        return self.counters(gfa_name).local

    def remote_messages(self, gfa_name: str) -> int:
        """Messages handled by ``gfa_name`` on behalf of other sites' jobs."""
        return self.counters(gfa_name).remote

    def count_by_type(self, mtype: MessageType) -> int:
        """Total messages of one type."""
        return self._by_type[mtype]

    def messages_for_job(self, job_id: int) -> int:
        """Messages exchanged while scheduling one particular job."""
        return self._per_job.get(job_id, 0)

    def per_job_counts(self) -> Dict[int, int]:
        """Mapping job id → message count (jobs with zero messages excluded)."""
        return dict(self._per_job)

    def per_gfa_totals(self) -> Dict[str, int]:
        """Mapping GFA name → total (local + remote) messages."""
        return {name: counters.total for name, counters in self._per_gfa.items()}

    def pair_counts(self) -> Dict[Tuple[str, str], int]:
        """Mapping ``(origin GFA, remote GFA)`` → messages exchanged for that
        pairing (directional: the origin is the GFA whose job was being
        scheduled)."""
        return dict(self._per_pair)

    def messages_between(self, origin_gfa: str, remote_gfa: str) -> int:
        """Messages spent scheduling ``origin_gfa``'s jobs on ``remote_gfa``."""
        return self._per_pair.get((origin_gfa, remote_gfa), 0)

    def records(self) -> List[Message]:
        """Individual message records (only if ``keep_records=True``)."""
        return list(self._records)

    # ------------------------------------------------------------------ #
    # Merging (parallel engine)
    # ------------------------------------------------------------------ #
    def merge_from(self, other: "MessageLog") -> None:
        """Fold another log's counters into this one (purely additive).

        Used by the parallel engine to combine per-shard logs into the
        federation-wide accounting.  Correct because each message is
        recorded on exactly one shard (requests at the job's origin shard,
        completions at the executing shard), so summing never double-counts.
        """
        for name, counters in other._per_gfa.items():
            mine = self._counters(name)
            mine.local += counters.local
            mine.remote += counters.remote
            mine.sent += counters.sent
            mine.received += counters.received
            for mtype, count in counters.by_type.items():
                mine.by_type[mtype] += count
        for job_id, count in other._per_job.items():
            self._per_job[job_id] = self._per_job.get(job_id, 0) + count
        for pair, count in other._per_pair.items():
            self._per_pair[pair] = self._per_pair.get(pair, 0) + count
        for mtype, count in other._by_type.items():
            self._by_type[mtype] += count
        self.total_messages += other.total_messages
        self.negotiation_timeouts += other.negotiation_timeouts
        self.transit_losses += other.transit_losses
        if self._keep_records:
            self._records.extend(other._records)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"MessageLog(total={self.total_messages}, gfas={len(self._per_gfa)})"
