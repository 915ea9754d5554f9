"""Tests of the benchmark itself (not collected by the default test run).

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import ast
import inspect
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from perfbench import harness, probe, spans
from perfbench.scoring import edge_scores
from perfbench.workloads import WORKLOADS, fit_dense, relearn_windows, shard_sparse
from repro.serve.scheduler import WindowStats

ROOT = Path(__file__).resolve().parents[1]


class FixedProbe:
    """Stands in for the machine-speed probe: every block reads ``value``."""

    def __init__(self, value: float = probe.P_REF) -> None:
        self.value = value

    def block(self) -> list[float]:
        return [self.value]

    def close(self) -> None:
        pass


# -- normalization ------------------------------------------------------------


def _round(wall=1.0, latencies=(1.0,), throughput=1.0, p_now=probe.P_REF, **kwargs):
    fields = {"attempted": 4, "failed": 0, "f1": 0.5, "signature": (0.5, 10)}
    fields.update(kwargs)
    return harness.Round(wall, list(latencies), throughput=throughput, p_now=p_now, **fields)


def test_a_round_and_its_probe_both_slower_give_the_same_metrics():
    base = [_round(wall=2.0, latencies=(0.5, 0.7, 0.9), throughput=8.0)]
    slow = [_round(wall=3.0, latencies=(0.75, 1.05, 1.35), throughput=8.0 / 1.5,
                   p_now=1.5 * probe.P_REF)]
    fast = harness.timing_metrics(base, [(0.4, probe.P_REF)], normalize=True)
    slowed = harness.timing_metrics(slow, [(0.6, 1.5 * probe.P_REF)], normalize=True)
    assert slowed == pytest.approx(fast, rel=1e-12)
    raw = harness.timing_metrics(slow, [(0.6, 1.5 * probe.P_REF)], normalize=False)
    assert raw["wall_s"] == 3.0 and raw["jobs_per_s"] == pytest.approx(8.0 / 1.5)


def test_speed_is_the_mean_over_cpus_of_each_cpus_median():
    blocks = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]
    assert probe.speed(blocks) == pytest.approx((2.0 + 20.0) / 2)
    assert probe.to_reference(2.0, 2 * probe.P_REF) == pytest.approx(1.0)
    assert probe.rate_to_reference(2.0, 2 * probe.P_REF) == pytest.approx(4.0)


def test_layer_times_are_rescaled_by_unit_and_raw_metrics_are_not():
    class Layers:
        def layer_metrics(self, ctx, round_, trace):
            return {"t_s": 1.0, "r_1s": 1.0, "n": 7}

    trace = [spans.Span("bench.round", 0.0, 1.0, -1, "t")]
    rounds = [_round(wall=1.0, p_now=2 * probe.P_REF),
              _round(wall=2.0, p_now=2 * probe.P_REF, traced=True)]
    units = {"t_s": "s", "r_1s": "1/s", "n": "count"}
    values = harness.per_layer(Layers(), None, rounds, [trace], units, [[0.04], [0.06]])
    assert values["t_s"] == pytest.approx(0.5)
    assert values["r_1s"] == pytest.approx(2.0)
    assert values["n"] == 7
    assert values["bench.probe_s"] == pytest.approx(0.05)
    assert values["bench.raw_wall_s"] == 1.0
    assert values["bench.trace_overhead_frac"] == pytest.approx(1.0)


def test_the_probe_imports_nothing_from_the_library():
    tree = ast.parse(Path(probe.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] in ("repro", "perfbench")]
    code = ("import sys; sys.path.insert(0, 'perfbench'); import probe; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=60)
    assert run.stdout.strip() == "[]", run.stderr


def test_cpu_probes_answer_on_every_cpu_and_stop():
    probes = probe.CpuProbes()
    try:
        values = probes.block()
    finally:
        processes = list(probes._procs)
        probes.close()
    assert len(values) == len(probes.cpus) and all(v > 0 for v in values)
    assert not any(p.is_alive() for p in processes)


def test_stop_children_reaps_workers_and_the_resource_tracker():
    probe.CpuProbes().close()  # spawning starts the resource tracker
    tracker = resource_tracker._resource_tracker
    tracker_pid = tracker._pid
    sleeper = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    sleeper.start()
    probe.stop_children()
    assert not sleeper.is_alive()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker_pid, os.WNOHANG)


# -- tracing ------------------------------------------------------------------


def _current(target: spans.Target):
    if inspect.isclass(target.owner):
        return target.owner.__dict__[target.attr]
    return getattr(target.owner, target.attr)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_restore_the_original_functions(name):
    targets = WORKLOADS[name].targets()
    originals = [_current(t) for t in targets]
    patches = spans.install(spans.Recorder("test"), targets)
    assert all(_current(t) is not o for t, o in zip(targets, originals))
    spans.restore(patches)
    assert patches == []
    assert all(_current(t) is o for t, o in zip(targets, originals))


def test_install_undoes_partial_patches_when_a_target_is_invalid():
    targets = fit_dense.FitDense().targets()
    original = _current(targets[0])
    bad = spans.Target(fit_dense, "N_NODES", "not-a-function")
    with pytest.raises(TypeError):
        spans.install(spans.Recorder("test"), [targets[0], bad])
    assert _current(targets[0]) is original


def test_spans_nest_and_tile_their_parent():
    recorder = spans.Recorder("test")
    root = recorder.begin("root")
    for _ in range(3):
        child = recorder.begin("child")
        recorder.end(recorder.begin("leaf"))
        recorder.end(child)
    recorder.end(root)
    trace = recorder.spans
    assert [s.parent for s in trace if s.name == "child"] == [0, 0, 0]
    assert spans.coverage_remainder(trace) <= spans.COVERAGE_REMAINDER_S
    self_time = spans.self_times(trace)
    assert sum(self_time) == pytest.approx(trace[0].duration, abs=1e-12)
    assert spans.outermost(trace, "leaf") == [2, 4, 6]


def test_overlapping_children_leave_a_remainder():
    trace = [
        spans.Span("root", 0.0, 1.0, -1, "t"),
        spans.Span("a", 0.1, 0.6, 0, "t"),
        spans.Span("b", 0.5, 0.9, 0, "t"),
    ]
    assert spans.coverage_remainder(trace) == pytest.approx(0.1)


# -- output checks ------------------------------------------------------------


def test_fit_check_rejects_an_empty_or_wrong_graph():
    truth = np.triu(np.ones((6, 6)), k=1)
    empty = np.zeros((6, 6))
    assert fit_dense.check_fit(0, edge_scores(empty, truth)["f1"])
    assert fit_dense.check_fit(5, 0.1)
    assert fit_dense.check_fit(5, edge_scores(truth, truth)["f1"]) == []


def test_stitch_check_rejects_a_cyclic_dense_or_incomplete_stitch():
    dag = sp.csr_matrix(np.triu(np.ones((4, 4)), k=1))
    cyclic = dag.tolil()
    cyclic[3, 0] = 1.0
    assert shard_sparse.check_stitch(dag, True) == []
    assert shard_sparse.check_stitch(cyclic.tocsr(), True)
    assert shard_sparse.check_stitch(dag.toarray(), True)
    assert shard_sparse.check_stitch(dag, False)


def test_window_check_rejects_a_preempted_window():
    def window(index, preempted):
        return WindowStats(index, True, 30, 30, 0, 0, 0.1, False, preempted=preempted)

    assert relearn_windows.check_windows([window(0, False)], 0.9) == []
    assert relearn_windows.check_windows([window(0, False), window(1, True)], 0.9)
    assert relearn_windows.check_windows([window(0, False)], 0.1)


def test_cross_round_checks_catch_tracing_that_changes_results():
    assert harness.cross_round_checks([_round(), _round()], 0.0) == []
    assert harness.cross_round_checks([_round(), _round(signature=(0.5, 11))], 0.0)
    assert harness.cross_round_checks([_round()], 1.0)
    # Rounds on different inputs may differ; rounds on one input may not.
    other = _round(f1=0.7, signature=(0.7, 12), input_id=1)
    assert harness.cross_round_checks([_round(), other, _round()], 0.0) == []
    assert harness.cross_round_checks([_round(), other, _round(input_id=1)], 0.0)


def test_f1_is_the_mean_over_inputs_however_often_each_ran():
    rounds = [_round(f1=0.4), _round(f1=0.4), _round(f1=0.4), _round(f1=0.8, input_id=1)]
    assert harness.end_to_end(rounds, [(0.1, probe.P_REF)], [])["f1"] == pytest.approx(0.6)


def test_a_failed_check_counts_as_a_failed_unit():
    assert harness.count_failed([_round(), _round(failed=2)], []) == 2
    assert harness.count_failed([_round(problems=["bad"]), _round()], []) == 1
    assert harness.count_failed([_round(), _round()], ["tracing changed F1"]) == 1
    assert harness.count_failed([_round(failed=4), _round(failed=4)], ["x"]) == 8


# -- whole workloads at smoke size --------------------------------------------

SMOKE_SIZES = {
    "fit-dense": (fit_dense, {"N_NODES": 12, "N_SAMPLES": 200, "F1_FLOOR": 0.0,
                              "CONFIG": {**fit_dense.CONFIG, "max_inner_iterations": 20}}),
    "shard-sparse": (shard_sparse, {"N_COMPONENTS": 2, "COMPONENT_NODES": 24, "F1_FLOOR": 0.0,
                                    "SOLVER_CONFIG": {**shard_sparse.SOLVER_CONFIG, "max_inner_iterations": 10}}),
    "relearn-windows": (relearn_windows, {"N_NODES": 8, "N_WINDOWS": 4, "F1_FLOOR": 0.0,
                                          "CONFIG": {"max_outer_iterations": 2, "max_inner_iterations": 20}}),
}


def _shrink(monkeypatch, name):
    module, sizes = SMOKE_SIZES[name]
    for attr, value in sizes.items():
        monkeypatch.setattr(module, attr, value)
    return module


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_at_smoke_size(name, monkeypatch, tmp_path):
    _shrink(monkeypatch, name)
    workload = WORKLOADS[name]
    timeline = harness.Timeline(FixedProbe())
    ctx, before = timeline.setup(workload, 3, tmp_path, timeline.block())
    try:
        rounds, traces = harness.run_rounds(workload, ctx, timeline, before, 0.0, True, name)
        spec = harness.metric_spec()
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = harness.per_layer(workload, ctx, rounds, traces, units, timeline.blocks)
    finally:
        workload.close(ctx)
    assert [r.traced for r in rounds] == [False, True]
    assert [p for r in rounds for p in r.problems] == []
    assert harness.cross_round_checks(rounds, layers["bench.span_remainder_s"]) == []
    assert set(layers) == set(units) & set(layers)
    values = harness.end_to_end(rounds, timeline.setups, [])
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    assert values["ok_frac"] == 1.0 and values["wall_s"] > 0


def test_a_failed_output_check_fails_the_command(monkeypatch, capsys):
    module = _shrink(monkeypatch, "relearn-windows")
    monkeypatch.setattr(module, "F1_FLOOR", 1.01)
    monkeypatch.setattr(probe, "LocalProbe", FixedProbe)
    argv = ["--workload", "relearn-windows", "--seed", "0", "--seconds", "0", "--trace", "0"]
    assert harness.main(WORKLOADS, argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_the_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2
    assert not any(line.startswith("{") for line in run.stdout.splitlines())


def test_benchmark_json_names_every_workload_and_metric_once():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
