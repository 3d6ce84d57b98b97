"""Self-tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest -q perfbench``.  Each
workload runs once at a tiny size, in this process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from qracsim import teleport  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"reproduce": {}, "search": {"budget": 40}}


def tiny_rep(workload: str, traced: bool, workdir: Path) -> dict:
    return worker.run_rep(workload, 3, traced, workdir, **TINY[workload])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    return {w: {traced: tiny_rep(w, traced, workdir) for traced in (False, True)} for w in run.WORKLOADS}


def test_benchmark_json_lists_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(worker.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "wall_s"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_its_checks(records, workload):
    for rec in records[workload].values():
        assert rec["ok"], rec
        assert rec["attempted"] >= 1 and rec["failed"] == 0, rec["problems"]
        assert rec["wall_s"] > 0 and rec["evals"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(records, workload):
    untraced, traced = records[workload][False], records[workload][True]
    e2e = run.result([untraced], run.end_to_end([untraced], [0.1]), dict(metrics.END_TO_END))
    layers = run.result([traced], run.per_layer([untraced], [traced], [traced]), dict(metrics.PER_LAYER))
    for spec_key, res in (("end_to_end", e2e), ("per_layer", layers)):
        assert [(n, v["unit"]) for n, v in res["metrics"].items()] == [
            (m["name"], m["unit"]) for m in SPEC[spec_key]
        ]
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert e2e["correct"] and layers["metrics"]["fail_frac"]["value"] == 0


def test_layer_counts_follow_the_calls(records):
    rep = records["reproduce"][True]["layers"]
    assert rep["bounds.asym_optimize.calls"] == 22
    assert rep["bounds.kay_feasibility_scan.states"] == 500
    assert rep["cli.artifact_bytes"] > 0
    assert rep["bounds.asym_optimize.max_gap"] < 1e-6
    assert all(rep[f"teleport.fidelity.d{d}.calls"] >= 1 for d in metrics.TELEPORT_DIMS)
    assert rep["teleport.dense.d4.flops_computed"] > 0
    search = records["search"][True]["layers"]
    assert search["codes.search_tables.evaluations"] == TINY["search"]["budget"]
    assert search["qracse.run_protocol.calls"] == TINY["search"]["budget"]
    assert search["teleport.fidelity.d4.calls"] == 0


def test_wrong_expected_value_raises_fail_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "search_floor", lambda: 2.0)
    recs = [tiny_rep("search", True, tmp_path)]
    assert [r["failed"] for r in recs] == [1]
    assert worker._check_reproduce({"checks": [{"name": "x", "kind": worker.cli.HARD, "status": "fail"}]})[1] == 1
    assert run.per_layer(recs, recs, recs)["fail_frac"] > 0
    assert not run.result(recs, {}, {})["correct"]


def test_tracer_catches_nested_calls_and_restores():
    original = teleport.constrained_teleport_fidelity
    with Tracer() as tracer:
        tracer.wrap(teleport, "nsqrac_split_strategy")
        tracer.wrap(teleport, "constrained_teleport_fidelity")
        teleport.nsqrac_split_strategy(2, 1)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("teleport.nsqrac_split_strategy", None),
        ("teleport.constrained_teleport_fidelity", 0),
        ("teleport.constrained_teleport_fidelity", 0),
    ]
    outer = tracer.spans[0]
    assert 0 <= tracer.self_time(outer) < outer.duration
    assert teleport.constrained_teleport_fidelity is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
