"""What the benchmark wraps, and the metrics it derives from spans and results.

Every target is a public attribute of the program; the benchmark never edits
the program to measure it.  The target lists import the program lazily, so a
timed run imports nothing the run itself would not.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, Dict, List

from tracer import Span, Target, aggregate

if TYPE_CHECKING:
    from repro.core.federation import FederationResult


def engine_targets(parallel: bool) -> List[Target]:
    """The engine's public run entry.  A timed run wraps only this, to stamp
    where set-up ends and where the simulation ends."""
    if parallel:
        from repro.par.engine import ParallelSimulator

        return [Target(ParallelSimulator, "run", "par.run")]
    from repro.sim.engine import Simulator

    return [Target(Simulator, "run", "sim.run")]


def layer_targets(parallel: bool) -> List[Target]:
    """Every layer boundary the traced run records."""
    from repro.cluster.lrms import SpaceSharedLRMS
    from repro.cluster.profile import AvailabilityProfile
    from repro.core.admission import AdmissionController
    from repro.core.federation import Federation
    from repro.core.gfa import GridFederationAgent
    from repro.economy.bank import GridBank
    from repro.net.transport import Transport
    from repro.p2p.directory import DirectoryQuerySession, FederationDirectory
    from repro.sim.engine import Simulator
    from repro.workload.generator import SyntheticTraceGenerator

    targets = engine_targets(parallel) + [
        Target(SyntheticTraceGenerator, "generate", "workload.generate", tally=len),
        Target(Federation, "__init__", "federation.build"),
        Target(Federation, "collect", "federation.collect"),
        Target(GridFederationAgent, "submit_local_job", "gfa.submit_local"),
        Target(AdmissionController, "evaluate", "admission.evaluate",
               tally=lambda decision: decision.accepted),
        Target(SpaceSharedLRMS, "estimate_completion_time", "lrms.estimate"),
        Target(AvailabilityProfile, "__init__", "profile.build"),
        Target(AvailabilityProfile, "reserve", "profile.reserve"),
        Target(AvailabilityProfile, "earliest_start", "profile.earliest_start"),
        Target(FederationDirectory, "open_session", "directory.session"),
        Target(DirectoryQuerySession, "kth", "directory.probe"),
        Target(Transport, "roundtrip", "transport"),
        Target(Transport, "transfer", "transport"),
        Target(Transport, "notify", "transport"),
        Target(Transport, "control", "transport"),
        Target(GridBank, "transfer", "bank.transfer"),
    ]
    if parallel:
        from repro.par import runner as par_runner
        from repro.par.engine import ProcessShardHandle
        from repro.par.shard import ShardFederation

        # Shards step through Simulator.run_window in forked workers; each
        # worker writes its spans when its federation is harvested.
        targets += [
            Target(Simulator, "run_window", "sim.run"),
            Target(ShardFederation, "harvest", "federation.collect", flush=True),
            Target(par_runner, "merge_results", "federation.collect"),
            Target(ProcessShardHandle, "step_finish", "par.barrier_wait"),
        ]
    return targets


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_span(spans: List[Span]) -> Span:
    """The engine's run span in the benchmark's own process."""
    roots = [s for s in spans if s.parent_id < 0 and s.name in ("sim.run", "par.run")]
    if len(roots) != 1:
        raise RuntimeError(f"expected one engine run span, found {len(roots)}")
    return roots[0]


def outcome_metrics(result: FederationResult) -> Dict[str, float]:
    """The paper's outcomes, read off the result (deterministic per seed)."""
    jobs = len(result.jobs)
    return {
        "acceptance_rate": _ratio(len(result.completed_jobs()), jobs),
        "mean_utilisation": statistics.fmean(
            outcome.utilisation for outcome in result.resources.values()
        ),
        "owner_incentive": result.total_incentive(),
        "messages_per_job": _ratio(result.message_log.total_messages, jobs),
    }


def layer_metrics(spans: List[Span], tallies: Dict[str, float],
                  result: FederationResult) -> Dict[str, float]:
    """Per-layer counts, times and ratios of one traced run."""
    agg = aggregate(spans)

    def calls(name: str) -> int:
        return agg[name].calls if name in agg else 0

    def total(name: str) -> float:
        return agg[name].total_s if name in agg else 0.0

    def own(name: str) -> float:
        return agg[name].self_s if name in agg else 0.0

    jobs = len(result.jobs)
    generated = tallies.get("workload.generate", 0)
    network = result.network
    par = result.parallel
    worker_events = par.worker_events if par is not None else []
    return {
        "workload.build_s": total("workload.generate"),
        "workload.jobs_generated": generated,
        "workload.jobs_kept": jobs,
        "workload.keep_ratio": _ratio(jobs, generated),
        "federation.build_s": total("federation.build"),
        "federation.collect_s": total("federation.collect"),
        "sim.events": result.events_processed,
        "sim.self_s": own("sim.run"),
        "gfa.submit_local.calls": calls("gfa.submit_local"),
        "gfa.submit_local.self_s": own("gfa.submit_local"),
        "gfa.rounds_per_job": _ratio(sum(j.negotiation_rounds for j in result.jobs), jobs),
        "admission.evaluate.calls": calls("admission.evaluate"),
        "admission.evaluate_s": total("admission.evaluate"),
        "admission.accept_ratio": _ratio(
            tallies.get("admission.evaluate", 0), calls("admission.evaluate")
        ),
        "lrms.estimate.calls": calls("lrms.estimate"),
        "lrms.estimate_s": total("lrms.estimate"),
        "lrms.profile_builds": calls("profile.build"),
        "lrms.profile_hit_ratio": (
            1.0 - _ratio(calls("profile.build"), calls("lrms.estimate"))
            if calls("lrms.estimate") else 0.0
        ),
        "profile.reserve.calls": calls("profile.reserve"),
        "profile.reserve_s": total("profile.reserve"),
        "profile.earliest_start.calls": calls("profile.earliest_start"),
        "profile.earliest_start_s": total("profile.earliest_start"),
        "profile.reserves_per_build": _ratio(calls("profile.reserve"), calls("profile.build")),
        "directory.sessions": calls("directory.session"),
        "directory.probes": calls("directory.probe"),
        "directory.probe_s": total("directory.probe"),
        "transport.messages": network.messages if network is not None else 0,
        "transport.s": total("transport"),
        "transport.control_messages": network.control_messages if network is not None else 0,
        "bank.transfers": calls("bank.transfer"),
        "bank.transfer_s": total("bank.transfer"),
        "par.windows": par.windows if par is not None else 0,
        "par.cross_messages": par.cross_messages if par is not None else 0,
        "par.cross_volume_mb": par.cross_volume_mb if par is not None else 0.0,
        "par.load_updates": par.load_updates if par is not None else 0,
        "par.barrier_wait_share": _ratio(total("par.barrier_wait"), total("par.run")),
        "par.worker_imbalance": (
            _ratio(max(worker_events), statistics.fmean(worker_events))
            if worker_events else 0.0
        ),
        "par.restarts": par.restarts if par is not None else 0,
        "par.worker_failures": par.worker_failures if par is not None else 0,
    }
