"""The benchmark's workloads: one Scenario shape each, seeded by the benchmark.

Why each one exists, and which layers it stresses, is in README.md.  The seed
reaches the program only as ``Scenario.seed``.
"""

WORKLOADS = {
    # Table-1 clusters under the paper's Exp-3 economy: overloaded queues
    # make the LRMS availability profile most of the run.
    "paper-economy": dict(mode="economy", oft_fraction=0.3, thin=1),
    # The only workload on the sharded parallel engine and on the
    # transport's slow path (link lookups and latency); thinning discards
    # seven of every eight generated jobs.
    "wan-parallel": dict(
        system_size=64, mode="economy", thin=8, transport="two-tier-wan", parallel=2
    ),
}

#: Scenario seeds a timed run covers.  A seed decides how much work its
#: scenario is (best-of times across seeds 1-8 range from 0.94 to 1.32 s on
#: ``paper-economy``), so a run averages over several.
INPUT_SEEDS = {"paper-economy": 4, "wan-parallel": 2}

#: Rounds of the reference workload (about 1 s each) in one of its
#: repetitions, so that it lasts about as long as a repetition of the
#: workload and the host disturbs both the same way.  It runs in as many
#: processes at once as the workload's ``parallel``.
REFERENCE_ROUNDS = {"paper-economy": 1, "wan-parallel": 3}
