"""BENCHMARK.json agrees with the code, and a small traced run is consistent."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from tracer import Tracer
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_name_and_unit_is_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for metric in spec[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    assert {"setup_s"} <= {m["name"] for m in spec["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_workloads_match_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _small_run(traced):
    from layers import engine_targets, layer_metrics, layer_targets, outcome_metrics
    from repro import Scenario, run_scenario, validate_result
    from repro.scenario.runner import result_fingerprint

    scenario = Scenario(mode="economy", thin=40, seed=3)
    targets = layer_targets(False) if traced else engine_targets(False)
    with Tracer(targets) as tracer:
        result = run_scenario(scenario)
    assert validate_result(result) == []
    layers = layer_metrics(tracer.finished(), tracer.tallies, result) if traced else None
    return result_fingerprint(result), outcome_metrics(result), layers


def test_traced_run_reports_every_layer_metric_without_changing_the_result(spec):
    plain_fp, plain_outcomes, _ = _small_run(traced=False)
    traced_fp, traced_outcomes, layers = _small_run(traced=True)
    assert traced_fp == plain_fp
    assert traced_outcomes == plain_outcomes
    expected = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    assert set(layers) == expected
    assert set(plain_outcomes) | {"run_s", "setup_s", "simulate_s", "peak_rss_mb"} == {
        m["name"] for m in spec["end_to_end"]
    }
    assert layers["lrms.profile_builds"] <= layers["lrms.estimate.calls"]
    kept, generated = layers["workload.jobs_kept"], layers["workload.jobs_generated"]
    assert generated <= kept * 40 < generated + 8 * 40  # every 40th job of 8 clusters
    assert layers["sim.self_s"] > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-economy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
