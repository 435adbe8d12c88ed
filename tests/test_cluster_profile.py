"""Tests for the processor AvailabilityProfile."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profile import AvailabilityProfile, ProfileError


class TestBasics:
    def test_initially_fully_free(self):
        profile = AvailabilityProfile(32, start_time=10.0)
        assert profile.capacity == 32
        assert profile.free_at(10.0) == 32
        assert profile.free_at(1e9) == 32
        assert profile.start_time == 10.0

    def test_invalid_construction(self):
        with pytest.raises(ProfileError):
            AvailabilityProfile(0)
        with pytest.raises(ProfileError):
            AvailabilityProfile(4, start_time=math.inf)

    def test_free_before_start_rejected(self):
        profile = AvailabilityProfile(4, start_time=5.0)
        with pytest.raises(ProfileError):
            profile.free_at(4.0)

    def test_reserve_reduces_availability_in_interval_only(self):
        profile = AvailabilityProfile(10, 0.0)
        profile.reserve(start=5.0, duration=10.0, procs=4)
        assert profile.free_at(0.0) == 10
        assert profile.free_at(5.0) == 6
        assert profile.free_at(14.999) == 6
        assert profile.free_at(15.0) == 10

    def test_overlapping_reservations_accumulate(self):
        profile = AvailabilityProfile(10, 0.0)
        profile.reserve(0.0, 10.0, 3)
        profile.reserve(5.0, 10.0, 3)
        assert profile.free_at(2.0) == 7
        assert profile.free_at(7.0) == 4
        assert profile.free_at(12.0) == 7
        assert profile.free_at(20.0) == 10

    def test_over_reservation_rejected(self):
        profile = AvailabilityProfile(4, 0.0)
        profile.reserve(0.0, 10.0, 3)
        with pytest.raises(ProfileError):
            profile.reserve(5.0, 2.0, 2)

    def test_min_free(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(2.0, 4.0, 5)
        assert profile.min_free(0.0, 10.0) == 3
        assert profile.min_free(0.0, 2.0) == 8
        assert profile.min_free(6.0, 10.0) == 8

    def test_segments_cover_to_infinity(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(1.0, 2.0, 4)
        segments = profile.segments()
        assert segments[0][0] == 0.0
        assert segments[-1][1] == math.inf
        # Segment availabilities match free_at samples.
        for start, end, avail in segments:
            assert profile.free_at(start) == avail


class TestEarliestStart:
    def test_starts_immediately_when_free(self):
        profile = AvailabilityProfile(8, 0.0)
        assert profile.earliest_start(4, 10.0) == pytest.approx(0.0)

    def test_waits_for_running_job_to_finish(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(0.0, 100.0, 6)  # a running job holding 6 of 8 CPUs
        assert profile.earliest_start(4, 10.0) == pytest.approx(100.0)
        # A 2-CPU job still fits immediately.
        assert profile.earliest_start(2, 10.0) == pytest.approx(0.0)

    def test_respects_lower_bound(self):
        profile = AvailabilityProfile(8, 0.0)
        assert profile.earliest_start(4, 5.0, earliest=50.0) == pytest.approx(50.0)

    def test_finds_gap_between_reservations(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(0.0, 10.0, 6)
        profile.reserve(30.0, 10.0, 6)
        # A 4-CPU, 15-second job does not fit in [10, 30): it would overlap the
        # second reservation... actually 10 + 15 = 25 <= 30, so it fits there.
        assert profile.earliest_start(4, 15.0) == pytest.approx(10.0)
        # A 4-CPU, 25-second job cannot fit the gap and must wait for the
        # second reservation to end.
        assert profile.earliest_start(4, 25.0) == pytest.approx(40.0)

    def test_request_beyond_capacity_rejected(self):
        profile = AvailabilityProfile(4, 0.0)
        with pytest.raises(ProfileError):
            profile.earliest_start(5, 1.0)

    def test_invalid_arguments_rejected(self):
        profile = AvailabilityProfile(4, 0.0)
        with pytest.raises(ProfileError):
            profile.earliest_start(0, 1.0)
        with pytest.raises(ProfileError):
            profile.earliest_start(1, 0.0)
        with pytest.raises(ProfileError):
            profile.reserve(0.0, -1.0, 1)
        with pytest.raises(ProfileError):
            profile.reserve(-1.0, 1.0, 1)


class TestBuilders:
    def test_occupied_work_lays_a_staircase(self):
        profile = AvailabilityProfile(8, 10.0, occupied=[(15.0, 3), (12.0, 1), (15.0, 2)])
        assert profile.segments() == [(10.0, 12.0, 2), (12.0, 15.0, 3), (15.0, math.inf, 8)]

    def test_occupied_work_rejects_what_reserve_rejects(self):
        with pytest.raises(ProfileError, match="insufficient capacity"):
            AvailabilityProfile(4, 0.0, occupied=[(1.0, 3), (2.0, 2)])
        with pytest.raises(ProfileError, match="positive"):
            AvailabilityProfile(4, 0.0, occupied=[(0.0, 1)])
        with pytest.raises(ProfileError, match="at least one"):
            AvailabilityProfile(4, 0.0, occupied=[(1.0, 0)])
        # Work ending before the profile starts holds nothing.
        with pytest.raises(ProfileError, match="positive length"):
            AvailabilityProfile(4, 1e8, occupied=[(1e8 - 1.0, 1)])

    def test_place_fcfs_never_overtakes(self):
        profile = AvailabilityProfile(8, 0.0, occupied=[(10.0, 6)])
        # The 6-CPU job waits for t=10; the 2-CPU job behind it would fit at
        # t=0 but may not start before the job ahead of it.
        assert profile.place_fcfs([(6, 5.0), (2, 1.0)]) == 10.0
        assert profile.segments() == [
            (0.0, 10.0, 2), (10.0, 11.0, 0), (11.0, 15.0, 2), (15.0, math.inf, 8)
        ]

    def test_place_fcfs_of_nothing_returns_the_profile_start(self):
        assert AvailabilityProfile(8, 3.0, occupied=[(4.0, 8)]).place_fcfs([]) == 3.0

    def test_place_equals_earliest_start_then_reserve(self):
        placed = AvailabilityProfile(8, 0.0, occupied=[(10.0, 6), (4.0, 1)])
        checked = AvailabilityProfile(8, 0.0, occupied=[(10.0, 6), (4.0, 1)])
        for procs, duration, earliest in [(3, 5.0, 0.0), (2, 2.0, 1.0), (8, 1.0, 0.0)]:
            start = checked.earliest_start(procs, duration, earliest=earliest)
            checked.reserve(start, duration, procs)
            assert placed.place(procs, duration, earliest) == start
            assert placed.segments() == checked.segments()

    def test_trim_keeps_the_free_count_and_later_breakpoints(self):
        profile = AvailabilityProfile(8, 0.0, occupied=[(10.0, 6), (4.0, 1)])
        profile.place(4, 5.0, 0.0)
        profile.trim(4.0)
        assert profile.segments() == [(4.0, 10.0, 2), (10.0, 15.0, 4), (15.0, math.inf, 8)]
        profile.trim(12.5)
        assert profile.segments() == [(12.5, 15.0, 4), (15.0, math.inf, 8)]
        profile.trim(12.5)
        assert profile.start_time == 12.5
        with pytest.raises(ProfileError, match="precedes"):
            profile.trim(12.0)

    def test_place_fcfs_rejects_bad_requests(self):
        profile = AvailabilityProfile(4, 0.0)
        with pytest.raises(ProfileError, match="exceeds capacity"):
            profile.place_fcfs([(5, 1.0)])
        with pytest.raises(ProfileError, match="positive"):
            profile.place_fcfs([(1, 0.0)])
        with pytest.raises(ProfileError, match="positive length"):
            AvailabilityProfile(4, 1e8).place_fcfs([(1, 1e-9)])


class TestProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=128),
        reservations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),   # start
                st.floats(min_value=0.1, max_value=1e4),   # duration
                st.integers(min_value=1, max_value=32),    # procs
            ),
            max_size=25,
        ),
        query=st.tuples(
            st.integers(min_value=1, max_value=32),
            st.floats(min_value=0.1, max_value=1e4),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_availability_never_negative_and_earliest_start_is_feasible(
        self, capacity, reservations, query
    ):
        profile = AvailabilityProfile(capacity, 0.0)
        for start, duration, procs in reservations:
            if procs > capacity:
                continue
            try:
                profile.reserve(start, duration, procs)
            except ProfileError:
                continue  # over-reservation attempts are allowed to fail
        # Invariant: availability is within [0, capacity] everywhere.
        for seg_start, _seg_end, avail in profile.segments():
            assert 0 <= avail <= capacity
            assert profile.free_at(seg_start) == avail
        procs, duration = query
        if procs <= capacity:
            start = profile.earliest_start(procs, duration)
            assert profile.min_free(start, start + duration) >= procs
            # And it really is the earliest candidate among breakpoints.
            earlier = [t for t, _, _ in profile.segments() if t < start]
            for t in earlier:
                assert profile.min_free(t, t + duration) < procs

    @given(
        capacity=st.integers(min_value=1, max_value=16),
        reservations=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5, 10.0]) | st.floats(min_value=0.0, max_value=50.0),
                st.sampled_from([1.0, 1.5, 7.5]) | st.floats(min_value=1e-3, max_value=50.0),
                st.integers(min_value=1, max_value=16),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_reservations_match_a_brute_force_step_function(self, capacity, reservations):
        profile = AvailabilityProfile(capacity, 0.0)
        accepted = []
        for start, duration, procs in reservations:
            try:
                profile.reserve(start, duration, procs)
            except ProfileError:
                continue
            accepted.append((start, start + duration, procs))
        instants = {0.0}
        for start, end, _procs in accepted:
            instants.update((start, end, (start + end) / 2))
        for t in instants:
            used = sum(procs for start, end, procs in accepted if start <= t < end)
            assert profile.free_at(t) == capacity - used
