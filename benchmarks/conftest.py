"""Shared fixtures for the benchmark harnesses.

The figure benchmarks all read off the same Experiment 3 population-profile
sweep and the same Experiment 5 scalability sweep, so both are computed once
per session here (at benchmark scale: thinned workloads, a representative
subset of profiles/sizes) and shared.  Each individual benchmark still times a
representative simulation run so `pytest benchmarks/ --benchmark-only`
produces meaningful per-experiment timings.

Full-scale numbers (thin=1, all 11 profiles, sizes up to 50) are written by
`scripts/generate_experiments_md.py` and can be reproduced with the `gridfed`
CLI.
"""

from __future__ import annotations

import pytest

from repro.experiments import economy_sweep, experiment_1_scenario, experiment_2_scenario
from repro.experiments.exp5_scalability import scalability_sweep
from repro.scenario import run_scenario


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so ``-m "not benchmarks"`` skips it."""
    for item in items:
        if "benchmarks" in item.nodeid.split("::", 1)[0]:
            item.add_marker(pytest.mark.benchmarks)

#: Benchmark-scale knobs (kept in one place so every figure uses the same run).
#: Experiments 1 and 2 are cheap and run at full scale; the economy sweep keeps
#: every 2nd job, the scalability sweep every 8th.
BENCH_TABLE_THIN = 1
BENCH_THIN = 2
BENCH_PROFILES = (0, 30, 50, 70, 100)
BENCH_SEED = 42
BENCH_SIZES = (10, 20, 30)
BENCH_SCALABILITY_PROFILES = (0, 100)
BENCH_SCALABILITY_THIN = 8


@pytest.fixture(scope="session")
def bench_independent():
    """Experiment 1 at benchmark scale (Table 2 / Fig. 2 baseline)."""
    return run_scenario(experiment_1_scenario(seed=BENCH_SEED, thin=BENCH_TABLE_THIN))


@pytest.fixture(scope="session")
def bench_federation():
    """Experiment 2 at benchmark scale (Table 3 / Fig. 2)."""
    return run_scenario(experiment_2_scenario(seed=BENCH_SEED, thin=BENCH_TABLE_THIN))


@pytest.fixture(scope="session")
def bench_sweep():
    """Experiment 3/4 population-profile sweep at benchmark scale (Figs. 3-9)."""
    return economy_sweep(profiles=BENCH_PROFILES, seed=BENCH_SEED, thin=BENCH_THIN)


@pytest.fixture(scope="session")
def bench_scalability():
    """Experiment 5 scalability sweep at benchmark scale (Figs. 10-11)."""
    return scalability_sweep(
        system_sizes=BENCH_SIZES,
        profiles=BENCH_SCALABILITY_PROFILES,
        seed=BENCH_SEED,
        thin=BENCH_SCALABILITY_THIN,
    )
