"""Tests for inter-GFA message accounting."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import MessageLog, MessageType
from repro.workload.job import Job


def make_job(origin="A", **kw):
    defaults = dict(origin=origin, user_id=0, submit_time=0.0, num_processors=1, length_mi=1e3)
    defaults.update(kw)
    return Job(**defaults)


class TestRecording:
    def test_negotiate_reply_pair_classification(self):
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job, time=1.0)
        log.record(MessageType.REPLY, "B", "A", job, time=1.0)
        assert log.total_messages == 2
        # Both messages are local for the origin A and remote for B.
        assert log.local_messages("A") == 2
        assert log.remote_messages("A") == 0
        assert log.local_messages("B") == 0
        assert log.remote_messages("B") == 2
        assert job.messages == 2
        assert log.messages_for_job(job.job_id) == 2

    def test_sent_received_accounting(self):
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job)
        log.record(MessageType.REPLY, "B", "A", job)
        assert log.counters("A").sent == 1
        assert log.counters("A").received == 1
        assert log.counters("B").sent == 1
        assert log.counters("B").received == 1

    def test_per_type_counts(self):
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job)
        log.record(MessageType.REPLY, "B", "A", job)
        log.record(MessageType.JOB_SUBMISSION, "A", "B", job)
        log.record(MessageType.JOB_COMPLETION, "B", "A", job)
        for mtype in MessageType:
            assert log.count_by_type(mtype) == 1

    def test_per_type_views_survive_a_pickled_copy(self):
        """Message types hash by identity; a pickled log (a checkpoint, a
        parallel shard's harvest) still finds and keeps counting its keys."""
        log = MessageLog()
        job = make_job(origin="A")
        log.record(MessageType.NEGOTIATE, "A", "B", job)
        copy = pickle.loads(pickle.dumps(log))
        copy.record(MessageType.NEGOTIATE, "A", "B", job)
        copy.record(MessageType.REPLY, "B", "A", job)
        assert copy.count_by_type(MessageType.NEGOTIATE) == 2
        assert copy.counters("A").by_type == {
            MessageType.NEGOTIATE: 2,
            MessageType.REPLY: 1,
            MessageType.JOB_SUBMISSION: 0,
            MessageType.JOB_COMPLETION: 0,
        }
        assert list(copy.counters("B").by_type) == list(MessageType)
        assert {MessageType.REPLY: 1}[pickle.loads(pickle.dumps(MessageType.REPLY))] == 1

    def test_same_endpoint_rejected(self):
        log = MessageLog()
        with pytest.raises(ValueError):
            log.record(MessageType.NEGOTIATE, "A", "A", make_job(origin="A"))

    def test_endpoints_must_include_origin(self):
        log = MessageLog()
        job = make_job(origin="C")
        with pytest.raises(ValueError):
            log.record(MessageType.NEGOTIATE, "A", "B", job)

    def test_explicit_origin_gfa_override(self):
        log = MessageLog()
        job = make_job(origin="C")
        log.record(MessageType.NEGOTIATE, "A", "B", job, origin_gfa="A")
        assert log.local_messages("A") == 1
        assert log.remote_messages("B") == 1

    def test_register_gfa_appears_with_zero_counters(self):
        log = MessageLog()
        log.register_gfa("quiet")
        assert "quiet" in log.gfa_names()
        assert log.counters("quiet").total == 0

    def test_records_kept_only_when_requested(self):
        job = make_job(origin="A")
        silent = MessageLog(keep_records=False)
        silent.record(MessageType.NEGOTIATE, "A", "B", job)
        assert silent.records() == []
        verbose = MessageLog(keep_records=True)
        verbose.record(MessageType.NEGOTIATE, "A", "B", job)
        assert len(verbose.records()) == 1
        assert verbose.records()[0].remote_gfa == "B"

    def test_unknown_gfa_counters_are_zero(self):
        log = MessageLog()
        assert log.counters("nobody").total == 0
        assert log.messages_for_job(123456) == 0

    def test_pair_counts_are_directional(self):
        log = MessageLog()
        job_a = make_job(origin="A")
        job_b = make_job(origin="B")
        log.record(MessageType.NEGOTIATE, "A", "B", job_a)
        log.record(MessageType.REPLY, "B", "A", job_a)
        log.record(MessageType.NEGOTIATE, "B", "A", job_b)
        # The pair key is (origin, remote), not (sender, receiver): both the
        # enquiry and its reply count towards scheduling A's job on B.
        assert log.messages_between("A", "B") == 2
        assert log.messages_between("B", "A") == 1
        assert log.pair_counts() == {("A", "B"): 2, ("B", "A"): 1}
        assert log.messages_between("A", "C") == 0


class TestProperties:
    @given(
        exchanges=st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C", "D"]),  # origin
                st.sampled_from(["A", "B", "C", "D"]),  # remote
                st.sampled_from(list(MessageType)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_are_consistent(self, exchanges):
        """Sum of local counts == sum of remote counts == total messages, and
        per-job counts sum to the total as well."""
        log = MessageLog()
        jobs = {}
        recorded = 0
        for origin, remote, mtype in exchanges:
            if origin == remote:
                continue
            job = jobs.setdefault(origin, make_job(origin=origin))
            log.record(mtype, origin, remote, job)
            recorded += 1
        total_local = sum(log.local_messages(g) for g in log.gfa_names())
        total_remote = sum(log.remote_messages(g) for g in log.gfa_names())
        assert total_local == recorded
        assert total_remote == recorded
        assert log.total_messages == recorded
        assert sum(log.per_job_counts().values()) == recorded
        assert sum(log.count_by_type(t) for t in MessageType) == recorded
        # per-GFA totals double-count each message (both endpoints).
        assert sum(log.per_gfa_totals().values()) == 2 * recorded
        # Directional pair counts partition the total, and each pair's count
        # equals the local tally of its origin restricted to that remote.
        assert sum(log.pair_counts().values()) == recorded
        for (origin, _remote), count in log.pair_counts().items():
            assert count <= log.local_messages(origin)
