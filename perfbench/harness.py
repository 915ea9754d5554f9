"""Command line, probe-normalized round loop and result line of every workload.

A run starts the machine-speed probe, sets the workload up a few times, then
repeats the workload's fixed unit of work, a *round*, until the next round
would overrun ``--seconds``.  A probe block runs before and after every round
and every set-up, while no work is in flight, so each timing is bracketed by
two measurements of the machine's speed (see :mod:`perfbench.probe`).  After
each round its outputs are scored and checked, and the workload is set up
once more, so that set-up samples spread over the whole run.

With ``--trace 0`` every round is untraced and the end-to-end metrics are
reported.  With ``--trace 1`` rounds alternate untraced and traced (at least
one of each); the per-layer metrics come from the traced rounds and the trace
overhead compares the two kinds.  Times and rates are reported in reference
seconds; ``perfbench-raw`` lines keep the raw values beside them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

import numpy as np

from perfbench import probe as probe_mod
from perfbench import spans as spans_mod

ROOT = Path(__file__).resolve().parents[1]
#: Set-ups timed before the first round; one more follows every round.
INITIAL_SETUPS = 3


@dataclass
class Round:
    """Outcome of one round of a workload, in raw seconds.

    ``failed`` counts units of work that failed; ``problems`` lists failed
    output checks.  ``signature`` is what must not depend on tracing (F1 and
    edge counts); rounds with the same ``input_id`` ran on the same inputs.
    ``p_now`` is the machine speed around the round, set by the harness.
    """

    wall_s: float
    latencies: list[float]
    attempted: int
    failed: int
    throughput: float
    f1: float
    signature: tuple
    problems: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    traced: bool = False
    input_id: int = 0
    p_now: float = probe_mod.P_REF


class Workload(Protocol):
    name: str
    #: True when the work spreads over a worker pool (probe every CPU).
    pooled: bool

    def setup(self, seed: int, workdir: Path) -> Any: ...

    def close(self, ctx: Any) -> None: ...

    def run_round(self, ctx: Any, index: int) -> Any: ...

    def score(self, ctx: Any, raw: Any) -> Round: ...

    def targets(self) -> list[spans_mod.Target]: ...

    def layer_metrics(
        self, ctx: Any, round_: Round, spans: list[spans_mod.Span]
    ) -> dict[str, float]: ...


def metric_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def environment(removed_env: dict[str, str]) -> dict[str, Any]:
    """What a reader needs to compare two runs' numbers."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numba": importlib.util.find_spec("numba") is not None,
        "start_method": multiprocessing.get_start_method(),
        "repro_env": {
            key: value for key, value in os.environ.items() if key.startswith("REPRO_")
        },
        "repro_env_removed": removed_env,
        "p_ref": probe_mod.P_REF,
    }


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Timeline:
    """Probe blocks and set-up samples of one run."""

    probe: Any
    blocks: list[list[float]] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)  # (raw s, p_now)

    def block(self) -> list[float]:
        values = self.probe.block()
        self.blocks.append(values)
        return values

    def setup(self, workload: Workload, seed: int, workdir: Path, before: list[float]):
        """Set the workload up once, timed and bracketed by probe blocks.
        Returns the context and the closing probe block."""
        began = time.perf_counter()
        ctx = workload.setup(seed, workdir / f"setup{len(self.setups)}")
        raw = time.perf_counter() - began
        after = self.block()
        self.setups.append((raw, probe_mod.speed([before, after])))
        return ctx, after


def _run_once(workload: Workload, ctx: Any, index: int, recorder) -> Any:
    if recorder is None:
        return workload.run_round(ctx, index)
    patches = spans_mod.install(recorder, workload.targets())
    try:
        root = recorder.begin("bench.round")
        try:
            return workload.run_round(ctx, index)
        finally:
            recorder.end(root)
    finally:
        spans_mod.restore(patches)


def run_rounds(
    workload: Workload,
    ctx: Any,
    timeline: Timeline,
    before: list[float],
    seconds: float,
    trace: bool,
    run_tag: str,
    resetup=None,
) -> tuple[list[Round], list[list[spans_mod.Span]]]:
    """Repeat rounds until another one would overrun ``seconds``.

    ``before`` is the probe block just taken; every round is followed by one.
    ``resetup(block)`` times one more set-up and returns the block after it.
    """
    rounds: list[Round] = []
    traces: list[list[spans_mod.Span]] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        recorder = spans_mod.Recorder(f"{run_tag}-r{len(rounds)}") if traced else None
        began = time.perf_counter()
        raw = _run_once(workload, ctx, len(rounds), recorder)
        after = timeline.block()
        if recorder is not None:
            traces.append(recorder.spans)
        # Output checks run untraced, so their calls add no spans.
        result = workload.score(ctx, raw)
        result.traced = traced
        result.p_now = probe_mod.speed([before, after])
        rounds.append(result)
        before = resetup(after) if resetup is not None else after
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - started
        missing_traced = trace and not any(r.traced for r in rounds)
        if not missing_traced and elapsed + statistics.median(durations) > seconds:
            return rounds, traces


def count_failed(rounds: list[Round], cross_problems: list[str]) -> int:
    """Failed units; a round with a failed check counts at least one."""
    failed = sum(max(r.failed, 1 if r.problems else 0) for r in rounds)
    failed += 1 if cross_problems else 0
    return min(failed, sum(r.attempted for r in rounds))


def timing_metrics(
    rounds: list[Round], setups: list[tuple[float, float]], normalize: bool
) -> dict[str, float]:
    """Time and rate metrics of the untraced rounds, in reference seconds
    (``normalize``) or in raw seconds."""

    def ref(raw_s: float, p_now: float) -> float:
        return probe_mod.to_reference(raw_s, p_now) if normalize else raw_s

    def ref_rate(raw_per_s: float, p_now: float) -> float:
        return probe_mod.rate_to_reference(raw_per_s, p_now) if normalize else raw_per_s

    plain = [r for r in rounds if not r.traced]
    latencies = [ref(value, r.p_now) for r in plain for value in r.latencies]
    return {
        "setup_s": statistics.median(ref(raw, p) for raw, p in setups),
        "wall_s": statistics.median(ref(r.wall_s, r.p_now) for r in plain),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "jobs_per_s": statistics.median(ref_rate(r.throughput, r.p_now) for r in plain),
    }


def end_to_end(
    rounds: list[Round], setups: list[tuple[float, float]], cross_problems: list[str]
) -> dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    attempted = sum(r.attempted for r in rounds)
    failed = count_failed(rounds, cross_problems)
    return {
        **timing_metrics(rounds, setups, normalize=True),
        # Mean over inputs of each input's (repeatable) F1.
        "f1": statistics.mean(
            statistics.median(r.f1 for r in plain if r.input_id == key)
            for key in {r.input_id for r in plain}
        ),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(
    workload: Workload,
    ctx: Any,
    rounds: list[Round],
    traces: list[list[spans_mod.Span]],
    units: dict[str, str],
    blocks: list[list[float]],
) -> dict[str, float]:
    """Median over traced rounds of each layer metric, times and rates
    rescaled by the round's probe speed as their unit says."""
    traced = [r for r in rounds if r.traced]
    per_round = []
    for round_, trace in zip(traced, traces):
        values = workload.layer_metrics(ctx, round_, trace)
        for key, value in values.items():
            if units.get(key) == "s":
                values[key] = probe_mod.to_reference(value, round_.p_now)
            elif units.get(key) == "1/s":
                values[key] = probe_mod.rate_to_reference(value, round_.p_now)
        per_round.append(values)
    values = {
        key: statistics.median(m[key] for m in per_round) for key in per_round[0]
    }
    plain = [r for r in rounds if not r.traced]
    plain_wall = statistics.median(
        probe_mod.to_reference(r.wall_s, r.p_now) for r in plain
    )
    traced_wall = statistics.median(
        probe_mod.to_reference(r.wall_s, r.p_now) for r in traced
    )
    values["bench.probe_s"] = statistics.median(statistics.fmean(b) for b in blocks)
    values["bench.raw_wall_s"] = statistics.median(r.wall_s for r in plain)
    values["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    values["bench.span_remainder_s"] = max(
        spans_mod.coverage_remainder(spans) for spans in traces
    )
    return values


def write_traces(name: str, seed: int, traces: list[list[spans_mod.Span]]) -> Path:
    out_dir = ROOT / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}.json"
    path.write_text(
        json.dumps([spans_mod.span_records(spans) for spans in traces], default=float)
    )
    return path


def cross_round_checks(rounds: list[Round], remainder: float | None) -> list[str]:
    """Checks across rounds: tracing must not change results, and child spans
    must tile their parents."""
    problems = []
    for key in sorted({r.input_id for r in rounds}):
        signatures = {r.signature for r in rounds if r.input_id == key}
        if len(signatures) > 1:
            problems.append(
                f"rounds on input {key} disagree on (f1, edges): {sorted(signatures)}"
            )
    if remainder is not None and remainder > spans_mod.COVERAGE_REMAINDER_S:
        problems.append(
            f"child spans overlap or leave their parent by {remainder:.3g} s"
        )
    return problems


def main(
    workloads: dict[str, Workload],
    argv: list[str] | None = None,
    removed_env: dict[str, str] | None = None,
) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = metric_spec()
    workload = workloads[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(removed_env or {})
    print("perfbench-env " + json.dumps(env, sort_keys=True), flush=True)
    steal_before = probe_mod.steal_ticks()
    affinity = os.sched_getaffinity(0)
    probe = None
    try:
        probe = probe_mod.CpuProbes() if workload.pooled else probe_mod.LocalProbe()
        timeline = Timeline(probe)
        before = timeline.block()
        ctx, before = timeline.setup(workload, args.seed, workdir, before)
        for _ in range(INITIAL_SETUPS - 1):
            workload.close(ctx)
            ctx, before = timeline.setup(workload, args.seed, workdir, before)

        def resetup(block: list[float]) -> list[float]:
            extra, after = timeline.setup(workload, args.seed, workdir, block)
            workload.close(extra)
            return after

        try:
            rounds, traces = run_rounds(
                workload,
                ctx,
                timeline,
                before,
                args.seconds,
                bool(args.trace),
                f"{args.workload}-seed{args.seed}",
                resetup,
            )
        finally:
            workload.close(ctx)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(workload, ctx, rounds, traces, units, timeline.blocks)
            unknown = set(values) - set(units)
            if unknown:
                raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
            cross = cross_round_checks(rounds, values["bench.span_remainder_s"])
            names = spec["per_layer"]
        else:
            cross = cross_round_checks(rounds, None)
            values = end_to_end(rounds, timeline.setups, cross)
            names = spec["end_to_end"]
    except Exception:  # noqa: BLE001 - a crashed run prints no result line
        traceback.print_exc()
        return 3
    finally:
        if probe is not None:
            probe.close()
        probe_mod.stop_children()
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + cross
    for problem in problems:
        print(f"perfbench-check FAILED: {problem}", file=sys.stderr)
    if args.trace:
        print(f"perfbench-trace {write_traces(args.workload, args.seed, traces)}")
    else:
        raw = timing_metrics(rounds, timeline.setups, normalize=False)
        print("perfbench-raw " + json.dumps(raw, sort_keys=True))
    run_note = {
        "steal_ticks": probe_mod.steal_ticks() - steal_before,
        "probe_blocks": timeline.blocks,
        "setups": timeline.setups,
        "rounds": [
            {"wall_s": r.wall_s, "p_now": r.p_now, "traced": r.traced, "f1": r.f1,
             "failed": r.failed}
            for r in rounds
        ],
    }
    print("perfbench-run " + json.dumps(run_note))
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": count_failed(rounds, cross),
        "metrics": {
            # A per-layer metric of a layer this workload does not run reads 0.
            metric["name"]: {"value": float(values.get(metric["name"], 0.0)),
                             "unit": metric["unit"]}
            for metric in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1
