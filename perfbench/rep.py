"""One repetition of a workload, in a fresh process; prints one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/rep.py --workload paper-economy --seed 42 \\
        --spawned-at <CLOCK_MONOTONIC stamp> [--traced --out perfbench/out]

A timed repetition wraps only the engine's run entry.  A traced one wraps
every layer boundary in ``layers.layer_targets`` and writes its spans to
``<out>/trace-<workload>-s<seed>.json``.  ``--check`` only verifies that the
program imports from the checkout (and compiles its bytecode).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program() -> None:
    import repro

    expected = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {expected}")


def run(workload: str, seed: int, traced: bool, spawned_at: float, out: str) -> dict:
    from layers import engine_span, engine_targets, layer_metrics, layer_targets, outcome_metrics
    from tracer import Tracer, clock, write_spans
    from workloads import WORKLOADS

    from repro import Scenario, run_scenario, validate_result
    from repro.scenario.runner import result_fingerprint

    scenario = Scenario(seed=seed, **WORKLOADS[workload])
    parallel = scenario.parallel >= 2
    flush_dir = None
    if traced:
        flush_dir = os.path.join(out, f"workers-{os.getpid()}")
        os.makedirs(flush_dir, exist_ok=True)
        targets = layer_targets(parallel)
    else:
        targets = engine_targets(parallel)
    tracer = Tracer(targets, run_id=f"{workload}-s{seed}-pid{os.getpid()}", flush_dir=flush_dir)
    with tracer:
        start = clock()
        result = run_scenario(scenario)
        end = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    own_spans = tracer.finished()
    engine = engine_span(own_spans)

    if parallel and (result.parallel is None or not result.parallel.ran_parallel
                     or result.parallel.degraded):
        raise RuntimeError(f"parallel engine did not run: {result.parallel}")
    record = {
        "fingerprint": result_fingerprint(result),
        "violations": [str(v) for v in validate_result(result)],
        "run_s": end - start,
        "setup_s": engine.start - spawned_at,
        "simulate_s": engine.duration,
        "peak_rss_mb": peak_rss_mb,
        **outcome_metrics(result),
    }
    if traced:
        spans = own_spans + tracer.collect_flushed()
        os.rmdir(flush_dir)
        write_spans(os.path.join(out, f"trace-{workload}-s{seed}.json"), spans,
                    tracer.tallies, workload=workload, seed=seed)
        record["layers"] = layer_metrics(spans, tracer.tallies, result)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "out"))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    if args.check:
        import layers  # noqa: F401  (compiles and imports what the runs use)

        layers.layer_targets(parallel=True)
        return 0
    record = run(args.workload, args.seed, args.traced, args.spawned_at, args.out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
