"""Backend speed — the fused dense LEAST inner loop vs the unfused oracle.

Regenerates ``BENCH_backend.json``: the same seeded ER-2 problems at
d ∈ {128, 512, 2048} solved twice, once with the unfused reference loop of
``benchmarks/least_oracle.py`` and once with the ``"least"`` backend, whose
fused loop runs numba-JIT kernels when the package is importable and
buffered numpy otherwise (the artifact records which via ``jit_backend``).
Both arms run under ``inner_convergence_tol = 0.0`` so they execute the
*same number of inner iterations* and the wall-clock ratio is a pure
per-iteration cost comparison; JIT compilation happens once in
``warmup_jit()`` before any timing.

Parity is asserted in-run at every size: the two weight matrices must agree
within tight tolerance (bitwise on the numpy kernels), objectives must
match relatively, and the in-loop-thresholded edge sets must be identical.
Each row also records both arms' edge counts (``ref_n_edges`` /
``fast_n_edges``), so the artifact shows how much graph the parity compared.
``benchmarks/baselines.json`` gates ``parity_ok`` and ``speedup_at_512`` —
the latter with a ≥ 3× floor conditional on ``numba_available`` (the CI
runners install numba; this container does not) next to an unconditional
sanity floor for the fallback.

Run as a script (``python benchmarks/bench_backend_speed.py``) or through
pytest (``pytest benchmarks/bench_backend_speed.py -s``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # direct `python benchmarks/bench_backend_speed.py`
    for entry in (str(_REPO_ROOT / "src"), str(_REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import numpy as np

from benchmarks.helpers import append_bench_history, make_problem, print_table
from benchmarks.least_oracle import ReferenceLEAST
from repro.core.backend import make_solver
from repro.core.least import LEASTConfig, numba_available, warmup_jit
from repro.utils.timer import Timer

#: Per-size scenario: sample count and iteration budget shrink as d grows so
#: the whole module stays in CI-friendly wall-clock territory while each arm
#: still runs enough fused iterations for the ratio to be stable.
SIZES = {
    128: {"samples_per_node": 10, "batch_size": None, "outer": 2, "inner": 60},
    512: {"samples_per_node": 5, "batch_size": 512, "outer": 2, "inner": 40},
    2048: {"samples_per_node": 2, "batch_size": 256, "outer": 1, "inner": 10},
}
#: Shared solver hyper-parameters.  ``inner_convergence_tol = 0.0`` disables
#: the early stop so both arms run their full budget — equal iteration
#: counts, asserted below, make the timing ratio per-iteration cost.
BASE_CONFIG = {
    "threshold": 0.1,
    "tolerance": 1e-8,
    "inner_convergence_tol": 0.0,
}
#: Timed runs per arm (best-of); the 2048 row runs once.
N_REPEATS = 2
OUTPUT_PATH = _REPO_ROOT / "BENCH_backend.json"


def _fit_reference(data: np.ndarray, config: dict, seed: int):
    return ReferenceLEAST(LEASTConfig(**config)).fit(data, seed=seed)


def _fit_least(data: np.ndarray, config: dict, seed: int):
    return make_solver("least", **config).fit(data, rng=seed)


def _solve(fit, data: np.ndarray, config: dict, seed: int):
    """One timed solve; returns (result, best-of-N seconds)."""
    repeats = N_REPEATS if data.shape[1] < 2048 else 1
    best = float("inf")
    result = None
    for _ in range(repeats):
        with Timer() as timer:
            result = fit(data, config, seed)
        best = min(best, timer.elapsed)
    return result, best


def run_size(n_nodes: int, scenario: dict) -> dict:
    """Oracle vs fused loop on one seeded problem; parity asserted."""
    _, data = make_problem(
        "ER-2", n_nodes, "gaussian", seed=n_nodes,
        samples_per_node=scenario["samples_per_node"],
    )
    config = dict(
        BASE_CONFIG,
        batch_size=scenario["batch_size"],
        max_outer_iterations=scenario["outer"],
        max_inner_iterations=scenario["inner"],
    )
    ref, ref_seconds = _solve(_fit_reference, data, config, seed=7)
    fast, fast_seconds = _solve(_fit_least, data, config, seed=7)

    max_abs_diff = float(np.abs(ref.weights - fast.weights).max())
    ref_objective = float(ref.log.last("loss", 0.0))
    fast_objective = float(fast.log.last("loss", 0.0))
    objective_rel_diff = abs(ref_objective - fast_objective) / max(
        abs(ref_objective), 1e-12
    )
    edge_sets_equal = bool(
        np.array_equal(ref.weights != 0.0, fast.weights != 0.0)
    )
    iterations_match = (
        ref.n_inner_iterations == fast.n_inner_iterations
        and ref.n_outer_iterations == fast.n_outer_iterations
    )

    # Parity, asserted every run: tight on weights (bitwise on the numpy
    # kernels, ulp-drift headroom for the reordered numba kernels), exact on
    # the in-loop-thresholded edge set.
    assert iterations_match, (
        f"d={n_nodes}: iteration counts diverged "
        f"({ref.n_inner_iterations} vs {fast.n_inner_iterations})"
    )
    assert max_abs_diff < 1e-6, f"d={n_nodes}: max |dW| {max_abs_diff:g}"
    assert objective_rel_diff < 1e-8, (
        f"d={n_nodes}: objective drift {objective_rel_diff:g}"
    )
    assert edge_sets_equal, f"d={n_nodes}: thresholded edge sets differ"

    return {
        "n_nodes": n_nodes,
        "n_samples": int(data.shape[0]),
        "batch_size": scenario["batch_size"],
        "n_inner_iterations": int(ref.n_inner_iterations),
        "ref_n_edges": int(np.count_nonzero(ref.weights)),
        "fast_n_edges": fast.n_edges,
        "ref_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "speedup": ref_seconds / max(fast_seconds, 1e-9),
        "max_abs_diff": max_abs_diff,
        "objective_rel_diff": objective_rel_diff,
        "edge_sets_equal": edge_sets_equal,
        "jit_backend": fast.telemetry.get("jit_backend", "unknown"),
    }


def main() -> dict:
    """Run every size, assert parity, write ``BENCH_backend.json``."""
    jit_compiled = warmup_jit()  # one-time numba compile, outside the timings
    per_size = {f"d{n}": run_size(n, scenario) for n, scenario in SIZES.items()}

    parity_ok = all(
        row["max_abs_diff"] < 1e-6 and row["edge_sets_equal"]
        for row in per_size.values()
    )
    results = {
        "cpu_count": os.cpu_count(),
        "numba_available": numba_available(),
        "jit_compiled": jit_compiled,
        "jit_backend": per_size["d512"]["jit_backend"],
        "solver_config": dict(BASE_CONFIG),
        "results": per_size,
        "speedup_at_128": per_size["d128"]["speedup"],
        "speedup_at_512": per_size["d512"]["speedup"],
        "speedup_at_2048": per_size["d2048"]["speedup"],
        "parity_ok": parity_ok,
    }

    print_table(
        f"fused least ({results['jit_backend']} kernels) vs the unfused oracle",
        ["d", "inner iters", "edges", "ref", "fast", "speedup", "max |dW|"],
        [
            [
                row["n_nodes"],
                row["n_inner_iterations"],
                row["fast_n_edges"],
                f"{row['ref_seconds']:.3f}s",
                f"{row['fast_seconds']:.3f}s",
                f"{row['speedup']:.2f}x",
                f"{row['max_abs_diff']:.2e}",
            ]
            for row in per_size.values()
        ],
    )

    OUTPUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    history = append_bench_history("backend", results)
    print(f"appended history row to {history}")
    return results


def test_backend_speed_benchmark(benchmark):
    """Pytest entry point (used by CI to regenerate the artifact)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    main()


if __name__ == "__main__":
    main()
