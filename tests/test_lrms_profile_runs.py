"""Whole-run cross-check of the LRMS estimation profile against a rebuild.

Under FCFS each LRMS keeps one availability profile across state changes and
updates it in place (see ``SpaceSharedLRMS._estimation_profile``).  These
runs wrap that method and compare every answer given after a state change
with a profile rebuilt from scratch at that instant: the running jobs'
staircase plus one FCFS placement pass over the queue.  Equality is exact,
breakpoint for breakpoint.
"""

from __future__ import annotations

import pytest

from repro.cluster.lrms import SpaceSharedLRMS
from repro.scenario import run_scenario, result_fingerprint

from test_golden_fingerprints import GOLDEN_FINGERPRINTS, GOLDEN_SCENARIOS

CROSS_CHECKED = {
    "exp3_economy": GOLDEN_SCENARIOS["exp3_economy"],
    "exp4_messages": GOLDEN_SCENARIOS["exp4_messages"],
    # Departures, load spikes and a lossy network.
    "exp3_chaos": GOLDEN_SCENARIOS["exp3_economy"].replace(faults="chaos"),
    # Crashes empty clusters through fail_all, which drops the kept profile.
    "exp3_crash": GOLDEN_SCENARIOS["exp3_economy"].replace(faults="crash-recover"),
    # EASY backfilling never keeps a profile: every answer is a rebuild.
    "exp3_easy": GOLDEN_SCENARIOS["exp3_economy"].replace(lrms_policy="easy"),
}


def _cross_checked_run(monkeypatch, scenario):
    counts = {"answers": 0, "kept": 0, "crashes": 0}
    estimation_profile = SpaceSharedLRMS._estimation_profile
    fail_all = SpaceSharedLRMS.fail_all

    def checked(self):
        if self._profile_cache_version == self._state_version:
            return estimation_profile(self)
        before = self._profile_cache
        profile, tail = estimation_profile(self)
        rebuilt = self._running_profile()
        rebuilt_tail = rebuilt.place_fcfs(
            (job.num_processors, self.runtime_of(job)) for job in self._queue
        )
        assert profile.segments() == rebuilt.segments()
        assert tail == rebuilt_tail
        counts["answers"] += 1
        counts["kept"] += before is not None and profile is before[0]
        return profile, tail

    def counted_fail_all(self):
        counts["crashes"] += 1
        return fail_all(self)

    monkeypatch.setattr(SpaceSharedLRMS, "_estimation_profile", checked)
    monkeypatch.setattr(SpaceSharedLRMS, "fail_all", counted_fail_all)
    return run_scenario(scenario), counts


@pytest.mark.parametrize("name", sorted(CROSS_CHECKED))
def test_every_answer_after_a_state_change_equals_a_rebuild(monkeypatch, name):
    result, counts = _cross_checked_run(monkeypatch, CROSS_CHECKED[name])
    assert counts["answers"] > 50
    if name == "exp3_easy":
        assert counts["kept"] == 0
    else:
        # Most answers come from the kept profile, not from a rebuild.
        assert counts["kept"] > counts["answers"] // 2
    assert (counts["crashes"] > 0) is (name == "exp3_crash")
    if name in GOLDEN_FINGERPRINTS:
        assert result_fingerprint(result) == GOLDEN_FINGERPRINTS[name]
