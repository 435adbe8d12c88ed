"""Benchmark entry point: repeat one workload for a fixed time, print metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-economy --seed 42 --seconds 55 --trace 0

Each repetition runs in a fresh Python process (``rep.py``), so set-up time
covers interpreter start and ``import repro`` and peak RSS is one run's own.
Repetitions start until the next one would end after ``--seconds``, with at
least two per scenario seed and kind.

With ``--trace 0`` every repetition is timed with tracing off, cycling over
the workload's scenario seeds derived from ``--seed`` and a fixed reference
workload (``reference.py``).  Each end-to-end metric is the mean over the
seeds of its median over the seed's repetitions, where each repetition's
three times are first divided by the time of the reference repetition run
nearest to it.  The times thus read in reference seconds: seconds on a host
where one round of the reference takes one second at that moment.  With
``--trace 1`` timed and traced repetitions of ``--seed`` alternate; the
per-layer metrics are medians over the traced ones, in plain seconds, and
``trace.overhead_ratio`` compares the best run times of the two kinds.

Why: on a shared virtual host each vCPU switches, every few seconds and
independently, between a fast state and one about 1.75x slower, and slow
stretches last a minute or more.  A repetition's time is its work times the
share of it that ran slow, so plain seconds measure the neighbours.
Dividing by the reference, run the same way on the same vCPU moments
before or after, removes most of that; the median drops the repetitions
that a switch between the two caught.  README.md has the measurements
behind this.

Every repetition must pass ``repro.validate_result`` and reproduce the
``result_fingerprint`` of the first repetition of its seed, traced or not
(the reference, its checksum); one that raises, breaks an invariant or
drifts counts as failed.  The last line of standard output is the JSON
result; the line before it records the seeds, their fingerprints, the same
statistic of the times in plain seconds and every repetition.  Without the
program's sources next to ``perfbench`` the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import clock  # noqa: E402
from workloads import INPUT_SEEDS, REFERENCE_ROUNDS, WORKLOADS  # noqa: E402

#: A timed run covers the scenario seeds ``seed + SEED_STRIDE * i``.
SEED_STRIDE = 1000
#: Repetitions of each (kind, seed) a run makes at least, so that every
#: seed's fingerprint is checked against a second repetition.
MIN_REPS = 2
#: No repetition starts after this many seconds of a run, and a repetition
#: still running when the run is this old is killed: a run always ends
#: inside the 180 s it is allowed.
LATEST_START_S = 120.0
DEADLINE_S = 170.0
#: End-to-end metrics a timed run divides by the nearest reference's time.
REFERENCE_SCALED = ("run_s", "setup_s", "simulate_s")
STARTED = clock()


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all (no result is printed)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(script, args=()):
    """Run ``script`` with ``args``; return (exit code, stdout, stderr, wall s).

    The child gets its own process group, so a timeout, or this process
    being interrupted or terminated, also kills any shard workers it forked;
    every process is waited for before returning.
    """
    started = clock()
    timeout = max(STARTED + DEADLINE_S - started, 1.0)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nrepetition killed after {timeout:.0f} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err, clock() - started


def _spawn_rep(args):
    return _spawn("rep.py", [*args, f"--spawned-at={clock()!r}"])


def _check_program() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchmarkError(f"no program sources under {os.path.join(ROOT, 'src')}")
    code, _, err, _ = _spawn_rep(["--check"])
    if code != 0:
        raise BenchmarkError(f"the program does not import:\n{err.strip()}")


def input_seeds(workload: str, seed: int, trace: bool) -> list:
    """The scenario seeds one run covers.

    A seed's workload decides how much work the run does, so a timed run
    averages over ``INPUT_SEEDS[workload]`` seeds derived from ``seed``.  A
    traced run covers ``seed`` alone, so its counts are that seed's exact
    counts.
    """
    count = 1 if trace else INPUT_SEEDS[workload]
    return [seed + SEED_STRIDE * i for i in range(count)]


def run(workload: str, seed: int, seconds: float, trace: bool, out: str):
    """Repeat ``workload``; return (attempted, failed, fingerprints, reps)."""
    _check_program()
    os.makedirs(out, exist_ok=True)
    schedule = [(kind, s) for s in input_seeds(workload, seed, trace)
                for kind in (("timed", "traced") if trace else ("timed",))]
    if not trace:
        schedule.append(("reference", "reference"))
    reps, failed, fingerprints = [], 0, {}
    begin = clock()
    longest = 0.0
    while True:
        elapsed = clock() - begin
        enough = len(reps) >= MIN_REPS * len(schedule)
        if elapsed > LATEST_START_S or (enough and elapsed + longest > seconds):
            break
        kind, scenario_seed = schedule[len(reps) % len(schedule)]
        if kind == "reference":
            code, stdout, err, wall = _spawn("reference.py", [
                "--rounds", str(REFERENCE_ROUNDS[workload]),
                "--workers", str(WORKLOADS[workload].get("parallel", 1)),
            ])
        else:
            args = ["--workload", workload, "--seed", str(scenario_seed), "--out", out]
            code, stdout, err, wall = _spawn_rep(args + (["--traced"] if kind == "traced" else []))
        longest = max(longest, wall)
        rep = {"kind": kind, "seed": scenario_seed, "wall_s": wall, "error": None}
        reps.append(rep)
        if code != 0:
            rep["error"] = err.strip().splitlines()[-1] if err.strip() else f"exit {code}"
        else:
            record = json.loads(stdout.strip().splitlines()[-1])
            rep.update(record)
            expected = fingerprints.setdefault(scenario_seed, record["fingerprint"])
            if record["violations"]:
                rep["error"] = f"{len(record['violations'])} invariant violation(s)"
            elif record["fingerprint"] != expected:
                rep["error"] = "result fingerprint drifted from the seed's first repetition"
        failed += rep["error"] is not None
    return len(reps), failed, fingerprints, reps


def metric_table(trace: bool) -> dict:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metrics_of(reps, table: dict, trace: bool) -> dict:
    """Each metric's mean over the input seeds of one value per seed, taken
    over the seed's successful repetitions.

    End-to-end metrics take the median, after dividing each repetition's
    times in ``REFERENCE_SCALED`` by the time of the reference repetition
    run nearest to it; the paper outcomes are equal across a seed's
    repetitions (the fingerprint gate).  Per-layer metrics take the median
    of the traced repetitions, and ``trace.overhead_ratio`` divides the best
    traced run time by the best timed one.
    """
    ok = [(i, r) for i, r in enumerate(reps) if r["error"] is None]
    seeds = sorted({r["seed"] for r in reps if r["kind"] != "reference"})

    def value(kind, read, pick):
        per_seed = []
        for seed in seeds:
            samples = [read(i, r) for i, r in ok if r["kind"] == kind and r["seed"] == seed]
            if not samples:
                raise BenchmarkError(f"every {kind} repetition of seed {seed} failed")
            per_seed.append(pick(samples))
        return statistics.fmean(per_seed)

    if trace:
        values = {name: value("traced", lambda i, r, name=name: r["layers"][name], statistics.median)
                  for name in table if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (value("traced", lambda i, r: r["run_s"], min)
                                          / value("timed", lambda i, r: r["run_s"], min))
    else:
        nearby = nearby_reference(reps)
        values = {name: value("timed", lambda i, r, name=name: (
            r[name] / nearby[i] if name in REFERENCE_SCALED else r[name]), statistics.median)
            for name in table}
    return {name: {"value": values[name], "unit": unit} for name, unit in table.items()}


def nearby_reference(reps) -> dict:
    """Index of each timed repetition -> the time of the successful reference
    repetition run nearest to it (the earlier one on a tie)."""
    references = [(i, r["reference_s"]) for i, r in enumerate(reps)
                  if r["kind"] == "reference" and r["error"] is None]
    if not references:
        raise BenchmarkError("every repetition of the reference workload failed")
    return {i: min(references, key=lambda ref: abs(ref[0] - i))[1]
            for i, r in enumerate(reps) if r["kind"] == "timed"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Grid-Federation benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for trace files (default: perfbench/out)")
    args = parser.parse_args(argv)
    # Terminating the benchmark unwinds through _spawn, which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if WORKLOADS[args.workload].get("parallel", 1) < 2:
        # A serial workload and its reference run on one vCPU, so that both
        # are slowed by the same neighbours.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        table = metric_table(bool(args.trace))
        attempted, failed, fingerprints, reps = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.out
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = metrics_of(reps, table, bool(args.trace))
    except BenchmarkError as exc:
        for rep in reps:
            print(f"perfbench: {rep['kind']} repetition of seed {rep['seed']}: "
                  f"{rep['error'] or 'ok'}", file=sys.stderr)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    plain = {}
    if not args.trace:
        # The same statistic of the times in plain seconds, for comparison.
        unscaled = [dict(r, reference_s=1.0) if r["kind"] == "reference" else r for r in reps]
        plain = {f"plain_{name}": m["value"] for name, m in
                 metrics_of(unscaled, {name: "s" for name in REFERENCE_SCALED}, False).items()}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprints": fingerprints,
        **plain,
        "reps": [{k: r.get(k) for k in ("kind", "seed", "wall_s", "run_s", "setup_s", "simulate_s",
                                         "peak_rss_mb", "reference_s", "error")} for r in reps],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
