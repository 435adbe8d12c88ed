#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured record for every table and figure.

Run from the repository root::

    python scripts/generate_experiments_md.py

The full two-day workload (thin=1) is used for Experiments 1-4; Experiment 5
keeps every 3rd job (as documented in the file it writes) so the size-50
federation stays tractable.  Total runtime is a few minutes on a laptop.
"""

from __future__ import annotations

import io
import sys
import time

from repro.experiments import economy_sweep, experiment_1_scenario, experiment_2_scenario
from repro.experiments.exp4_messages import message_complexity_rows
from repro.experiments.exp5_scalability import scalability_sweep
from repro.scenario import run_scenario
from repro.metrics.collectors import (
    average_acceptance_rate,
    federation_wide_qos,
    incentive_by_resource,
    rejected_by_resource,
    remote_jobs_serviced,
    resource_processing_table,
    user_qos_summary,
)
from repro.metrics.report import render_table

PAPER_TABLE2 = {
    # name: (utilisation %, accepted %, rejected %)
    "CTC SP2": (53.49, 96.64, 3.36),
    "KTH SP2": (50.06, 93.87, 6.13),
    "LANL CM5": (47.10, 83.72, 16.27),
    "LANL Origin": (44.55, 93.76, 6.24),
    "NASA iPSC": (62.35, 100.0, 0.0),
    "SDSC Par96": (48.18, 98.94, 1.06),
    "SDSC Blue": (82.09, 57.67, 42.33),
    "SDSC SP2": (79.49, 50.45, 49.54),
}

PAPER_TABLE3 = {
    # name: (utilisation %, accepted %, local, migrated, remote processed)
    "CTC SP2": (87.15, 100.0, 324, 93, 72),
    "KTH SP2": (68.69, 99.38, 110, 52, 35),
    "LANL CM5": (67.20, 90.69, 145, 50, 70),
    "LANL Origin": (77.62, 98.89, 733, 75, 81),
    "NASA iPSC": (78.73, 99.81, 428, 106, 129),
    "SDSC Par96": (79.17, 100.0, 143, 46, 30),
    "SDSC Blue": (90.01, 98.60, 105, 107, 77),
    "SDSC SP2": (87.29, 97.29, 54, 54, 89),
}


def main() -> None:
    t_start = time.time()
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("Generated by `scripts/generate_experiments_md.py`.  All runs use seed 42, the\n")
    w("calibrated synthetic two-day workload of `repro.workload.archive` (see\n")
    w("`repro.workload.generator` for the substitution of the original Parallel\n")
    w("Workloads Archive traces) and the\n")
    w("paper's parameters: budgets and deadlines twice the unloaded origin values, 10 %\n")
    w("communication overhead, FCFS LRMSes, static Eq. 5-6 quotes.\n\n")
    w("Absolute numbers are not expected to match a 2005 Java/GridSim study replaying\n")
    w("proprietary trace windows; each section states the *shape* being reproduced and\n")
    w("how the measured run compares.\n\n")

    # ---------------------------------------------------------------- Exp 1
    print("running experiment 1 ...", flush=True)
    exp1 = run_scenario(experiment_1_scenario(seed=42))
    rows = []
    for row in resource_processing_table(exp1):
        paper = PAPER_TABLE2[row.name]
        rows.append(
            [row.name, paper[0], 100 * row.utilisation, paper[1], row.accepted_pct, paper[2], row.rejected_pct]
        )
    w("## Table 2 — independent resources (Experiment 1)\n\n")
    w("Shape: a majority of resources sit below ~60 % utilisation; the two oversubscribed\n")
    w("SDSC machines combine the highest utilisation with by far the highest rejection\n")
    w("rates; the average acceptance rate over all resources is ~90 %.\n\n")
    w("```\n")
    w(
        render_table(
            ["Resource", "Util% paper", "Util% meas", "Acc% paper", "Acc% meas", "Rej% paper", "Rej% meas"],
            rows,
        )
    )
    w(f"Average acceptance rate: paper 90.30%  measured {average_acceptance_rate(exp1):.2f}%\n")
    w("```\n\n")

    # ---------------------------------------------------------------- Exp 2
    print("running experiment 2 ...", flush=True)
    exp2 = run_scenario(experiment_2_scenario(seed=42))
    rows = []
    for row in resource_processing_table(exp2):
        paper = PAPER_TABLE3[row.name]
        rows.append(
            [
                row.name,
                paper[0],
                100 * row.utilisation,
                paper[2],
                row.processed_locally,
                paper[3],
                row.migrated_to_federation,
                paper[4],
                row.remote_jobs_processed,
            ]
        )
    w("## Table 3 / Figure 2 — federation without economy (Experiment 2)\n\n")
    w("Shape: federating raises utilisation on previously underutilised resources,\n")
    w("every cluster both exports and imports jobs, and the average acceptance rate\n")
    w("rises sharply (paper: 90.30 % -> 98.61 %).\n\n")
    w("```\n")
    w(
        render_table(
            [
                "Resource",
                "Util% paper",
                "Util% meas",
                "Local paper",
                "Local meas",
                "Migr paper",
                "Migr meas",
                "Remote paper",
                "Remote meas",
            ],
            rows,
        )
    )
    w(
        f"Average acceptance rate: paper 90.30% -> 98.61%   "
        f"measured {average_acceptance_rate(exp1):.2f}% -> {average_acceptance_rate(exp2):.2f}%\n"
    )
    mean_ind = sum(o.utilisation for o in exp1.resources.values()) / 8
    mean_fed = sum(o.utilisation for o in exp2.resources.values()) / 8
    w(f"Mean utilisation: measured {100*mean_ind:.1f}% (independent) -> {100*mean_fed:.1f}% (federated)\n")
    w("```\n\n")

    # ---------------------------------------------------------------- Exp 3/4
    profiles = (0, 30, 50, 70, 100)
    print("running experiment 3 sweep ...", flush=True)
    sweep = economy_sweep(profiles=profiles, seed=42)

    w("## Figures 3-6 — resource owner perspective (Experiment 3)\n\n")
    w("Shape: under an all-OFC population the cheap, very large clusters (LANL Origin,\n")
    w("LANL CM5) absorb most jobs and most incentive while the fast machines idle; as\n")
    w("the OFT share grows the load and the incentive spread much more evenly across\n")
    w("all owners (paper Figs. 3-4), and job migration away from the cheapest cluster\n")
    w("increases (Fig. 5).  Total incentive in the paper is 2.12e9 (all OFC) vs 2.30e9\n")
    w("(all OFT) Grid Dollars; the measured totals below are on the synthetic workload's\n")
    w("own scale.\n\n```\n")
    rows = []
    for oft, result in sweep:
        inc = incentive_by_resource(result)
        remote = remote_jobs_serviced(result)
        rejected = rejected_by_resource(result)
        for name in result.resource_names():
            rows.append(
                [
                    oft,
                    name,
                    100 * result.resources[name].utilisation,
                    inc[name],
                    remote[name],
                    rejected[name],
                ]
            )
    w(
        render_table(
            ["OFT %", "Resource", "Util %", "Incentive", "Remote jobs", "Rejected"],
            rows,
        )
    )
    totals = {oft: result.total_incentive() for oft, result in sweep}
    w(render_table(["OFT %", "Total incentive (Grid $)"], [[k, v] for k, v in totals.items()]))
    w("```\n\n")

    w("## Figures 7-8 — federation user perspective (Experiment 3)\n\n")
    w("Shape: users of fast resources keep (or improve) their response times under OFT;\n")
    w("OFT users spend at least as much budget as OFC users.  Note: with the synthetic\n")
    w("workload the *federation-wide* average response time does not improve under\n")
    w("100 % OFT as it does in the paper — the three fastest Table 1 machines hold only\n")
    w("~6 % of the federation's processors, so an all-OFT population queues on them\n")
    w("heavily; the per-resource breakdown below shows where the paper's effect does\n")
    w("and does not appear.\n\n```\n")
    rows = []
    for oft, result in sweep:
        for include in (False, True):
            for s in user_qos_summary(result, include_rejected=include):
                rows.append(
                    [oft, "incl" if include else "excl", s.name, s.avg_response_time, s.avg_budget_spent]
                )
    w(render_table(["OFT %", "Rejected?", "Resource", "Avg response (s)", "Avg budget"], rows))
    fed_rows = []
    for oft, result in sweep:
        q = federation_wide_qos(result, include_rejected=True)
        fed_rows.append([oft, q.avg_response_time, q.avg_budget_spent, len(result.rejected_jobs())])
    w(render_table(["OFT %", "Fed avg response (s)", "Fed avg budget", "Rejected"], fed_rows))
    w("```\n\n")

    w("## Figure 9 — message complexity per population profile (Experiment 4)\n\n")
    w("Shape: under all-OFC the cheapest clusters receive the most remote messages,\n")
    w("under all-OFT the fastest do; total messages grow with the OFT share (paper:\n")
    w("1.024e4 messages at 100 % OFC vs 1.948e4 at 100 % OFT).\n\n```\n")
    headers, rows, totals = message_complexity_rows(sweep)
    w(render_table(headers, rows))
    w(render_table(["OFT %", "Total messages"], [[k, v] for k, v in sorted(totals.items())]))
    w("```\n\n")

    # ---------------------------------------------------------------- Exp 5
    print("running experiment 5 sweep ...", flush=True)
    points = scalability_sweep(system_sizes=(10, 30, 50), profiles=(0, 100), seed=42, thin=3)
    w("## Figures 10-11 — message complexity vs system size (Experiment 5)\n\n")
    w("Workload: every 3rd job per resource (the full-size sweep at 50 resources is\n")
    w("several times the paper's total job count).  Shape: OFC needs fewer messages per\n")
    w("job than OFT at every size (paper: 5.55 vs 10.65 at n=10, 17.38 vs 41.37 at\n")
    w("n=50), the average grows sub-linearly with system size, and the per-job maximum\n")
    w("grows much faster than the average.\n\n```\n")
    rows = []
    for (size, oft), p in sorted(points.items()):
        rows.append(
            [
                size,
                oft,
                p.per_job.minimum,
                p.per_job.average,
                p.per_job.maximum,
                p.per_gfa.minimum,
                p.per_gfa.average,
                p.per_gfa.maximum,
                p.total_messages,
            ]
        )
    w(
        render_table(
            [
                "Size",
                "OFT %",
                "Min/job",
                "Avg/job",
                "Max/job",
                "Min/GFA",
                "Avg/GFA",
                "Max/GFA",
                "Total",
            ],
            rows,
        )
    )
    w("```\n\n")

    w("## Table 4 — related systems\n\n")
    w("Reproduced verbatim by `repro.baselines.catalogue` and printed by the Table 4\n")
    w("bench; Ablation A additionally quantifies the broadcast-vs-directory message\n")
    w("cost the comparison argues qualitatively.\n\n")

    w("## Ablations (beyond the paper)\n\n")
    w("* **Ablation A (broadcast baseline)** — the sender-initiated broadcast\n")
    w("  superscheduler spends several times more messages per migrated job than the\n")
    w("  directory-ranked Grid-Federation protocol on the identical workload.\n")
    w("* **Ablation B (dynamic pricing)** — demand-driven quotes spread incentive and\n")
    w("  react to hot-spots but can reject budget-constrained jobs when prices spike.\n")
    w("* **Ablation C (coordination)** — publishing expected queue waits to the\n")
    w("  directory removes a large fraction of fruitless negotiation messages without\n")
    w("  changing placements (the paper's Section 2.3 future-work claim).\n")
    w("  Exact numbers are printed by the corresponding benches in `benchmarks/`.\n\n")
    w(f"_Total generation time: {time.time() - t_start:.0f} s._\n")

    with open("EXPERIMENTS.md", "w", encoding="utf-8") as handle:
        handle.write(out.getvalue())
    print(f"wrote EXPERIMENTS.md in {time.time() - t_start:.0f}s")


if __name__ == "__main__":
    sys.exit(main())
