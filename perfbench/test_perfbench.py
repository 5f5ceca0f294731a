"""The benchmark's own tests, on reduced workload sizes.

Run with `PYTHONPATH=src python3 -m pytest -q perfbench`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "BIG_GNP", {"model": "gnp", "n": 128, "p": 0.1})
    monkeypatch.setattr(workloads, "PRICED_KS", (2, 4))
    monkeypatch.setattr(workloads, "PLACEMENT_N", 256)
    monkeypatch.setattr(workloads, "PLACEMENT_CELLS", 2)
    monkeypatch.setattr(workloads, "SMALL_SHAPES", [
        shape for shape in workloads.SMALL_SHAPES if shape[1].get("n", 0) <= 48])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.LAYER_METRICS
    small = {alg for alg, _, _ in workloads.SMALL_SHAPES}
    assert len(small) == 12  # every algorithm, even at the reduced size


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_declared_metric(workload, trace, tmp_path):
    doc = run.measure(workload, 3, 0, trace, spans_path=tmp_path / "spans.json")
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert math.isfinite(value)
        if not trace:
            assert value > 0
    env = doc["info"]["env"]
    assert {"nproc", "python", "numpy", "scipy", "commit"} <= set(env)


def test_spans_nest_and_cover_the_body(tmp_path):
    path = tmp_path / "spans.json"
    doc = run.measure("small_cells", 5, 0, 1, spans_path=path)
    sp = json.loads(path.read_text())
    start, end, parent = sp["start_ns"], sp["end_ns"], sp["parent"]
    assert len(start) > 0
    layers_seen = {sp["layers"][i] for i in sp["name"]}
    assert layers_seen == set(spans.LAYERS)
    child_time = [0] * len(start)
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p >= 0:
            assert p < i and start[p] <= start[i] and end[i] <= end[p]
            assert sp["cell"][p] == sp["cell"][i]
            child_time[p] += end[i] - start[i]
    assert all(end[i] - start[i] >= child_time[i] for i in range(len(start)))
    metrics = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
    assert metrics["trace.residual_s"] >= 0
    covered = sum(metrics[f"{lay}.self_s"] for lay in spans.LAYERS)
    assert covered + metrics["trace.residual_s"] == pytest.approx(metrics["trace.wall_s"])


@pytest.mark.parametrize("workload", ["walk_p2p", "merge_bcast", "placement"])
def test_traced_run_repeats_the_untraced_outputs(workload):
    plain = run.measure(workload, 11, 0, 0)["info"]
    again = run.measure(workload, 11, 0, 0)["info"]
    traced = run.measure(workload, 11, 0, 1)
    assert plain["rep0_digest"] == again["rep0_digest"] == traced["info"]["rep0_digest"]
    assert plain["rep0_sim"] == traced["info"]["rep0_sim"]
    if plain["rep0_sim"]:
        layer = traced["result"]["metrics"]
        assert layer["clique.rounds"]["value"] == plain["rep0_sim"]["T_C"]
        assert layer["machines.km_rounds"]["value"] == plain["rep0_sim"]["km_rounds"]
    assert run.measure(workload, 12, 0, 0)["info"]["rep0_digest"] != plain["rep0_digest"]


def test_tracer_restores_every_binding():
    import kmachine
    from kmachine import clique, harness

    before = (harness.run_cell, clique.run_clique, kmachine.run_clique,
              dict(harness.VALIDATORS), kmachine.Graph.__init__)
    tracer = spans.Tracer()
    tracer.install()
    assert harness.run_cell is not before[0]
    tracer.uninstall()
    after = (harness.run_cell, clique.run_clique, kmachine.run_clique,
             dict(harness.VALIDATORS), kmachine.Graph.__init__)
    assert after == before


def test_tail_keeps_ten_cells_beyond_it():
    many = [{"rep": i // 50, "s": float(i)} for i in range(200)]
    assert run.tail(many) == (189.0, "p95.0 of 200 cells")
    few = [{"rep": rep, "s": s} for rep, s in [(0, 1.0), (0, 5.0), (1, 2.0),
                                               (1, 3.0), (2, 9.0)]]
    value, label = run.tail(few)
    assert value == 5.0 and label.startswith("median slowest cell of 3 repetitions")


def test_failures_are_counted_not_hidden(monkeypatch):
    def broken(seed, rep):
        bad = workloads.Cell("crash", lambda: 1 / 0)
        miss = workloads.Cell("miss", lambda: workloads.Outcome(False, True, "", {}))
        return [bad, miss]

    monkeypatch.setitem(workloads.WORKLOADS, "broken", broken)
    monkeypatch.setitem(workloads.NOMINAL_REP_S, "broken", 1.0)
    result = run.measure("broken", 1, 0, 0)["result"]
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    assert not result["correct"]


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "placement", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _pagerank_sum_off_by(monkeypatch, limits):
    """Make every PageRank cell fail its sum check, off from 1 by `limits`
    times the harness's limit."""
    from kmachine import harness

    real = harness.VALIDATORS["pagerank"]

    def shifted(inst, cfg, outputs, metrics):
        _, details = real(inst, cfg, outputs, metrics)
        n = inst.graph.n
        total = (cfg.tokens_per_node or workloads.default_tokens_per_node(n)) * n
        details["sum"] = 1.0 + limits * 3.0 / math.sqrt(total)
        return False, details

    monkeypatch.setitem(harness.VALIDATORS, "pagerank", shifted)


def test_marginal_walk_miss_counts_but_stays_correct(monkeypatch):
    _pagerank_sum_off_by(monkeypatch, 1.2)
    result = run.measure("walk_p2p", 1, 0, 0)["result"]
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["correct"]


def test_wildly_wrong_pagerank_is_not_correct(monkeypatch):
    _pagerank_sum_off_by(monkeypatch, 30.0)
    result = run.measure("walk_p2p", 1, 0, 0)["result"]
    assert result["failed"] == 1
    assert not result["correct"]


def test_repetitions_depend_only_on_the_requested_seconds():
    assert workloads.repetitions("walk_p2p", 0) == 1
    assert workloads.repetitions("walk_p2p", SPEC["run_seconds"]) == 3
    assert workloads.repetitions("small_cells", SPEC["run_seconds"]) == 16
    doc = run.measure("placement", 2, 2 * workloads.NOMINAL_REP_S["placement"], 0)
    assert doc["info"]["repetitions"] == 2


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # a host at half the reference speed: every time is halved
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REF_NOMINAL_S)
    doc = run.measure("placement", 2, 0, 0)
    metrics, info = doc["result"]["metrics"], doc["info"]
    assert info["scale"] == pytest.approx(0.5)
    assert metrics["wall_s"]["value"] == pytest.approx(info["raw_wall_s"] / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(info["raw_setup_s"] / 2)
