"""relearn-windows: warm-started re-learning of 6 windows under a deadline.

:class:`~repro.serve.scheduler.RelearnScheduler` with ``window_deadline``
set runs each window's solve in a forked process through
``call_with_deadline``, warm-started from the previous window.  The source
is a d=64 ER-2 linear SEM that gains one edge halfway through.  Rounds cycle
through 3 such sequences drawn from the seed.  This is the only workload on
the scheduler and warm-start layer and on that killable process path.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import spans
from perfbench.harness import Round
from perfbench.scoring import edge_scores, nnz
from repro.core.backend import LEASTBackend
from repro.core.least import LEASTConfig
from repro.graph.dag import topological_sort
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem
from repro.serve import scheduler
from repro.serve.scheduler import RelearnScheduler

N_NODES = 64
N_WINDOWS = 6
#: Window sequences the rounds cycle through; odd, so that traced (odd)
#: rounds reach every sequence.
N_SEQUENCES = 3
WINDOW_SAMPLES = 400
NEW_EDGE_WEIGHT = 1.5
#: Generous on purpose: a window takes about 0.2 s, so a preemption is a defect.
WINDOW_DEADLINE_S = 30.0
# Early stopping off, so every window of every seed does the same work.
CONFIG = {"max_outer_iterations": 3, "max_inner_iterations": 60, "inner_convergence_tol": 0.0}
#: Key under which the benchmark's fit wrapper reports child-side fit time.
FIT_SECONDS_KEY = "perfbench.fit_seconds"
#: Lowest mean window F1 of a round; every round of seeds 0-9 and 1000-1009
#: scored 0.61-0.88.
F1_FLOOR = 0.5


@dataclass
class Context:
    names: list[str]
    #: Per sequence: the generating DAG and the data of every window.
    truths: list[list[np.ndarray]]
    windows: list[list[np.ndarray]]


def add_edge(truth: np.ndarray) -> np.ndarray:
    """The same DAG plus one edge between its most distant non-adjacent
    nodes in topological order, so the result stays acyclic."""
    order = topological_sort(truth)
    changed = truth.copy()
    for gap in range(len(order) - 1, 0, -1):
        for start in range(len(order) - gap):
            parent, child = order[start], order[start + gap]
            if truth[parent, child] == 0:
                changed[parent, child] = NEW_EDGE_WEIGHT
                return changed
    raise ValueError("the graph is complete")


def check_windows(history, mean_f1: float) -> list[str]:
    """No window may be preempted; mean window F1 must reach the floor."""
    problems = []
    preempted = [w.window_index for w in history if w.preempted]
    if preempted:
        problems.append(f"relearn-windows: windows {preempted} were preempted")
    if not mean_f1 >= F1_FLOOR:
        problems.append(f"relearn-windows: mean F1 {mean_f1:.3f} is below the floor {F1_FLOOR}")
    return problems


def _fit_with_child_time(fit, recorder: spans.Recorder):
    """Wrap ``LEASTBackend.fit`` so the forked window process reports its fit
    time in the public ``SolveResult.telemetry`` (the dense backend leaves
    ``elapsed_seconds`` at 0, and a child's spans are lost)."""

    @functools.wraps(fit)
    def wrapper(*args, **kwargs):
        began = time.perf_counter()
        result = fit(*args, **kwargs)
        if not recorder.in_owner():
            result.telemetry[FIT_SECONDS_KEY] = time.perf_counter() - began
        return result

    return wrapper


class RelearnWindows:
    name = "relearn-windows"
    pooled = False

    def setup(self, seed: int, workdir: Path) -> Context:
        ctx = Context([f"x{i}" for i in range(N_NODES)], [], [])
        for sequence_rng in np.random.default_rng(seed).spawn(N_SEQUENCES):
            graph_rng, *window_rngs = sequence_rng.spawn(1 + N_WINDOWS)
            before = random_dag("ER-2", N_NODES, seed=graph_rng)
            after = add_edge(before)
            truths = [before if w < N_WINDOWS // 2 else after for w in range(N_WINDOWS)]
            ctx.truths.append(truths)
            ctx.windows.append([
                simulate_linear_sem(truth, WINDOW_SAMPLES, seed=rng)
                for truth, rng in zip(truths, window_rngs)
            ])
        return ctx

    def close(self, ctx: Context) -> None:
        pass

    def run_round(self, ctx: Context, index: int):
        relearn = RelearnScheduler(
            least_config=LEASTConfig(**CONFIG), window_deadline=WINDOW_DEADLINE_S
        )
        sequence = index % N_SEQUENCES
        steps, results = [], []
        began = time.perf_counter()
        for w, data in enumerate(ctx.windows[sequence]):
            start = time.perf_counter()
            results.append(relearn.step(data, ctx.names, seed=w))
            steps.append(time.perf_counter() - start)
        return sequence, relearn.history, results, steps, time.perf_counter() - began

    def score(self, ctx: Context, raw) -> Round:
        sequence, history, results, steps, wall = raw
        f1s = [edge_scores(r.weights, t)["f1"] for r, t in zip(results, ctx.truths[sequence])]
        mean_f1 = float(np.mean(f1s))
        problems = check_windows(history, mean_f1)
        return Round(
            wall_s=wall,
            # Warm-started steps only: the cold first window takes about twice
            # as long and, as 1 step in 6, would set the p90.
            latencies=steps[1:],
            attempted=N_WINDOWS,
            failed=sum(1 for w in history if w.preempted),
            throughput=N_WINDOWS / wall,
            f1=mean_f1,
            signature=(round(mean_f1, 12), sum(nnz(r.weights) for r in results)),
            problems=problems,
            input_id=sequence,
            extra={
                "inner_iters": sum(w.n_inner_iterations for w in history),
                "fit_seconds": [r.telemetry.get(FIT_SECONDS_KEY, 0.0) for r in results],
            },
        )

    def targets(self) -> list[spans.Target]:
        return [
            spans.Target(RelearnScheduler, "step", "relearn.step"),
            spans.Target(scheduler, "call_with_deadline", "relearn.deadline_call"),
            spans.Target(scheduler, "prepare_init", "relearn.prepare_init"),
            spans.Target(LEASTBackend, "fit", "", wrap=_fit_with_child_time),
        ]

    def layer_metrics(self, ctx: Context, round_: Round, trace: list[spans.Span]) -> dict[str, float]:
        deadline_call = spans.total_seconds(trace, "relearn.deadline_call")
        solve = float(sum(round_.extra["fit_seconds"]))
        return {
            "relearn.step_s": spans.total_seconds(trace, "relearn.step"),
            "relearn.deadline_call_s": deadline_call,
            "relearn.solve_s": solve,
            "relearn.process_overhead_s": deadline_call - solve,
            "relearn.prepare_init_s": spans.total_seconds(trace, "relearn.prepare_init"),
            "relearn.inner_iters": round_.extra["inner_iters"],
        }
