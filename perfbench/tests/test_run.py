"""How run.py turns repetitions into metrics."""

import statistics

import pytest

import run


def rep(kind, seed, run_s, error=None, **layers):
    return {"kind": kind, "seed": seed, "run_s": run_s, "error": error, "layers": layers}


def reference(seconds, error=None):
    return {"kind": "reference", "seed": "reference", "reference_s": seconds, "error": error}


def timed(seed, run_s, peak_rss_mb=40.0, error=None):
    return {"kind": "timed", "seed": seed, "run_s": run_s, "setup_s": run_s / 4,
            "simulate_s": run_s / 2, "peak_rss_mb": peak_rss_mb, "error": error}


TABLE = {"run_s": "s", "setup_s": "s", "simulate_s": "s", "peak_rss_mb": "MB"}


def test_metric_is_mean_over_seeds_of_median_over_successful_repetitions_over_nearby_reference():
    reps = [
        reference(2.0),
        timed(1, 4.0), timed(2, 10.0), timed(1, 4.4, peak_rss_mb=30.0),  # nearest: 2.0, 2.0, 1.0
        reference(1.0),
        timed(2, 12.0), timed(1, 2.0), timed(2, 9.0, error="drifted"),  # nearest: 1.0, 1.0, -
        reference(0.5, error="boom"),
        timed(1, 9.0), timed(2, 8.0),  # nearest: 1.0 (the failed reference does not count)
    ]
    metrics = run.metrics_of(reps, TABLE, trace=False)
    seed_1 = statistics.median([4.0 / 2.0, 4.4 / 1.0, 2.0 / 1.0, 9.0 / 1.0])
    seed_2 = statistics.median([10.0 / 2.0, 12.0 / 1.0, 8.0 / 1.0])
    best = (seed_1 + seed_2) / 2
    assert metrics == {
        "run_s": {"value": pytest.approx(best), "unit": "s"},
        "setup_s": {"value": pytest.approx(best / 4), "unit": "s"},
        "simulate_s": {"value": pytest.approx(best / 2), "unit": "s"},
        "peak_rss_mb": {"value": pytest.approx(40.0), "unit": "MB"},
    }


def test_nearby_reference_prefers_the_earlier_on_a_tie():
    reps = [reference(1.0), timed(1, 1.0), reference(2.0), timed(1, 1.0), timed(1, 1.0)]
    assert run.nearby_reference(reps) == {1: 1.0, 3: 2.0, 4: 2.0}


def test_a_run_without_a_successful_reference_is_an_error():
    reps = [timed(1, 1.0), timed(1, 1.2), reference(1.0, error="boom")]
    with pytest.raises(run.BenchmarkError):
        run.metrics_of(reps, TABLE, trace=False)


def test_traced_metrics_and_overhead_ratio():
    reps = [
        rep("timed", 5, 2.0), rep("traced", 5, 3.0, **{"sim.s": 0.5}),
        rep("timed", 5, 2.5), rep("traced", 5, 3.2, **{"sim.s": 0.7}),
        rep("timed", 5, 2.2), rep("traced", 5, 3.1, **{"sim.s": 0.8}),
    ]
    table = {"sim.s": "s", "trace.overhead_ratio": "ratio"}
    metrics = run.metrics_of(reps, table, trace=True)
    assert metrics["sim.s"]["value"] == pytest.approx(0.7)
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(3.0 / 2.0)


def test_a_seed_without_a_successful_repetition_is_an_error():
    reps = [timed(1, 1.0), timed(2, 1.0, error="boom"), reference(1.0)]
    with pytest.raises(run.BenchmarkError):
        run.metrics_of(reps, TABLE, trace=False)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_input_seeds_include_the_seed_and_do_not_overlap_neighbours(workload):
    assert run.input_seeds(workload, 42, trace=True) == [42]
    seeds = run.input_seeds(workload, 42, trace=False)
    assert seeds[0] == 42 and len(seeds) == run.INPUT_SEEDS[workload]
    assert not set(run.input_seeds(workload, 1, False)) & set(run.input_seeds(workload, 2, False))


def test_reference_workload_is_deterministic_and_barriers_do_not_change_it():
    import reference as ref

    calls = []
    assert ref.simulate(300) == ref.simulate(300, barrier=lambda: calls.append(1))
    assert ref.simulate(300) != ref.simulate(301)
    assert len(calls) == 2 * 300 // ref.WINDOW_EVENTS  # an arrival and a finish per job
