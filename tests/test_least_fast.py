"""The one dense LEAST loop against the unfused oracle, and the ``least_fast`` alias.

``repro.core.least.LEAST`` runs a fused inner loop whose kernel set is picked
from the platform: numba when importable, buffered numpy otherwise.  On the
numpy kernels it must equal the unfused oracle
(``benchmarks/least_oracle.py``) bit for bit; under numba the kernels may
drift by ulps, so parity there is ``atol=1e-6`` with identical edge sets.
The parity problems learn real graphs (edges > 0, F1 ≥ 0.4 at the paper's
output threshold), so equality cannot hold vacuously on empty weights.

``"least_fast"`` is a registry alias of ``"least"``: every path that resolves
a solver name — ``make_solver``, jobs, CLI manifests, the re-learn scheduler —
must treat the two names identically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

from benchmarks.least_oracle import ReferenceLEAST
from repro.core import least, numba_available
from repro.core.backend import LEASTBackend, get_spec, make_solver, solver_names
from repro.core.least import LEASTConfig, warmup_jit
from repro.exceptions import SoftDeadlineExceeded, ValidationError
from repro.graph.generation import random_dag
from repro.metrics.structural import f1_score
from repro.sem.linear_sem import simulate_linear_sem

FAST = {"max_outer_iterations": 2, "max_inner_iterations": 25}
#: fit-dense's hyper-parameters: enough steps for the fit to learn the graph.
LEARNING = {
    "threshold": 0.02,
    "learning_rate": 0.03,
    "l1_penalty": 0.2,
    "max_outer_iterations": 3,
    "max_inner_iterations": 100,
}
#: Weight tolerance under numba: ulp-amplification headroom for the
#: reordered loops (the numpy kernels are compared bit for bit).
ATOL = 1e-6
#: |weight| above which a learned entry counts as an edge (the paper's τ).
EDGE_THRESHOLD = 0.3
F1_FLOOR = 0.4


def make_problem(spec: str, n_nodes: int, seed: int, samples_per_node: int = 40):
    truth = random_dag(spec, n_nodes, seed=seed)
    return truth, simulate_linear_sem(truth, samples_per_node * n_nodes, seed=seed + 1)


def oracle_fit(data, config: dict, seed: int, init_weights=None):
    return ReferenceLEAST(LEASTConfig(**config)).fit(
        data, seed=seed, init_weights=init_weights
    )


def assert_matches_oracle(result, oracle) -> None:
    """Bitwise on the numpy kernels, ``ATOL`` and equal edge sets under numba."""
    assert result.n_outer_iterations == oracle.n_outer_iterations
    assert result.n_inner_iterations == oracle.n_inner_iterations
    if least.KERNEL_SET == "numpy":
        assert np.array_equal(result.weights, oracle.weights)
    else:
        np.testing.assert_allclose(result.weights, oracle.weights, atol=ATOL)
        assert np.array_equal(result.weights != 0.0, oracle.weights != 0.0)


def assert_learns(weights: np.ndarray, truth: np.ndarray) -> None:
    """The fit found a graph: parity on it is not parity on zeros."""
    assert np.count_nonzero(weights) > 0
    predicted = np.where(np.abs(weights) > EDGE_THRESHOLD, weights, 0.0)
    assert f1_score(predicted, truth) >= F1_FLOOR


@pytest.fixture
def data() -> np.ndarray:
    return make_problem("ER-2", 20, seed=3, samples_per_node=10)[1]


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Run the numpy kernel set whatever the platform offers."""
    monkeypatch.setattr(least, "KERNEL_SET", "numpy")


class TestJitResolution:
    def test_auto_resolves_to_an_available_backend(self):
        expected = "numba" if numba_available() else "numpy"
        assert least.KERNEL_SET == expected

    def test_numpy_always_available(self, data, numpy_kernels):
        result = make_solver("least", **FAST).fit(data, rng=0)
        assert result.telemetry["jit_backend"] == "numpy"
        assert np.array_equal(result.weights, oracle_fit(data, FAST, seed=0).weights)

    def test_invalid_jit_value_rejected(self, data):
        """The retired ``jit`` knob fails loudly, naming the field."""
        from repro.serve.job import LearningJob

        with pytest.raises(ValidationError, match="jit"):
            make_solver("least_fast", jit="numpy")
        job = LearningJob(solver="least_fast", data=data, config={"jit": "auto"})
        with pytest.raises(ValidationError, match="jit"):
            job.build_backend()

    def test_warmup_reports_compilation(self):
        assert warmup_jit() is numba_available()


class TestRegistry:
    def test_registered_with_expected_spec(self):
        assert "least_fast" in solver_names()
        spec = get_spec("least_fast")
        assert spec is get_spec("least")
        assert spec.sparse is False
        assert spec.supports_init_weights is True
        assert isinstance(make_solver("least_fast"), LEASTBackend)

    def test_telemetry_names_the_kernel_set(self, data):
        result = make_solver("least_fast", **FAST).fit(data, rng=0)
        expected = "numba" if numba_available() else "numpy"
        assert result.telemetry["jit_backend"] == expected
        assert result.solver == "least"


class TestParity:
    """least ≡ the unfused oracle on problems where the fit learns the graph."""

    @pytest.mark.parametrize("spec", ["ER-2", "SF-4"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edge_sets_and_objectives_match(self, spec, seed):
        truth, data = make_problem(spec, 20, seed=10 + seed)
        ref = oracle_fit(data, LEARNING, seed=seed)
        fast = make_solver("least", **LEARNING).fit(data, rng=seed)
        assert_matches_oracle(fast, ref)
        assert_learns(fast.weights, truth)
        ref_loss = ref.log.last("loss", None)
        assert ref_loss is not None
        assert fast.log.last("loss", None) == pytest.approx(ref_loss, rel=1e-8, abs=1e-10)

    def test_batched_runs_share_the_rng_stream(self):
        config = dict(LEARNING, batch_size=128)
        truth, data = make_problem("ER-2", 20, seed=3)
        ref = oracle_fit(data, config, seed=5)
        fast = make_solver("least", **config).fit(data, rng=5)
        assert_matches_oracle(fast, ref)
        assert_learns(fast.weights, truth)

    def test_warm_start_parity_dense_and_csr(self):
        truth, data = make_problem("ER-2", 20, seed=3)
        cold = make_solver("least", **LEARNING).fit(data, rng=0)
        ref = oracle_fit(data, LEARNING, seed=1, init_weights=cold.weights)
        warm_dense = make_solver("least", **LEARNING).fit(
            data, rng=1, init_weights=cold.weights
        )
        warm_csr = make_solver("least", **LEARNING).fit(
            data, rng=1, init_weights=sp.csr_matrix(cold.weights)
        )
        assert_matches_oracle(warm_dense, ref)
        assert_matches_oracle(warm_csr, ref)
        assert_learns(warm_dense.weights, truth)

    def test_fallback_is_bitwise_identical(self, numpy_kernels):
        """The numpy kernels reproduce the oracle exactly, bit for bit."""
        truth, data = make_problem("ER-2", 20, seed=3)
        ref = oracle_fit(data, LEARNING, seed=2)
        fast = make_solver("least", **LEARNING).fit(data, rng=2)
        assert np.array_equal(ref.weights, fast.weights)
        assert_learns(fast.weights, truth)

    def test_run_log_records_same_trace_shape(self, data):
        ref = oracle_fit(data, FAST, seed=0)
        fast = make_solver("least", **FAST).fit(data, rng=0)
        for key in ("loss", "delta", "rho", "eta", "n_edges"):
            ref_trace = [r[key] for r in ref.log]
            fast_trace = [r[key] for r in fast.log]
            assert len(ref_trace) == len(fast_trace)
            np.testing.assert_allclose(ref_trace, fast_trace, rtol=1e-6, atol=1e-8)


class TestDeadlinePaths:
    def test_hooks_fire_each_outer_iteration(self, data):
        calls: list[int] = []
        result = make_solver("least_fast", **FAST).fit(
            data, rng=0, deadline_hooks=[lambda: calls.append(1)]
        )
        assert len(calls) == result.n_outer_iterations

    def test_soft_deadline_raises_at_outer_boundary(self, data):
        seen: list[int] = []

        def hook():
            seen.append(1)
            if len(seen) == 1:
                raise SoftDeadlineExceeded("budget spent")

        with pytest.raises(SoftDeadlineExceeded):
            make_solver("least_fast", **FAST).fit(data, rng=0, deadline_hooks=[hook])
        assert len(seen) == 1  # aborted at the first boundary, not later

    def test_soft_deadline_preempts_job(self, data):
        from repro.serve.job import LearningJob, execute_job

        def hook():
            raise SoftDeadlineExceeded("budget spent")

        job = LearningJob(solver="least_fast", data=data, config=dict(FAST))
        with pytest.raises(SoftDeadlineExceeded):
            execute_job(job, deadline_hooks=[hook])

    def test_wave_job_marks_members_preempted(self, data):
        from repro.serve.job import LearningJob, execute_job

        def hook():
            raise SoftDeadlineExceeded("budget spent")

        stacked = np.hstack([data, data])
        wave = [
            {"job_id": "a", "n_columns": data.shape[1], "seed": 0},
            {"job_id": "b", "n_columns": data.shape[1], "seed": 0},
        ]
        job = LearningJob(
            solver="least_fast", data=stacked, config=dict(FAST), wave=wave
        )
        result = execute_job(job, deadline_hooks=[hook])
        assert result.status == "preempted"
        assert [part.status for part in result.parts] == ["preempted", "preempted"]


class TestServeFlow:
    def test_execute_job_runs_fast_backend(self, data):
        from repro.serve.job import LearningJob, execute_job

        alias = execute_job(LearningJob(solver="least_fast", data=data, config=dict(FAST)))
        plain = execute_job(LearningJob(solver="least", data=data, config=dict(FAST)))
        assert alias.status == plain.status == "ok"
        assert alias.weights.shape == data.shape[1:] * 2
        assert np.array_equal(alias.weights, plain.weights)

    def test_cli_manifest_naming_the_alias_matches_least(self, tmp_path):
        from repro.serve.cli import main

        job = {
            "dataset": "er2",
            "seed": 0,
            "dataset_options": {"n_nodes": 10},
            "config": dict(FAST),
        }
        reports = {}
        for name in ("least", "least_fast"):
            manifest = tmp_path / f"{name}.json"
            manifest.write_text(json.dumps({"jobs": [{**job, "solver": name}]}))
            output = tmp_path / f"{name}-report.json"
            assert main([str(manifest), "--quiet", "--output", str(output)]) == 0
            reports[name] = json.loads(output.read_text())["jobs"][0]
        assert reports["least_fast"]["status"] == "ok"
        for key in ("n_edges", "n_outer_iterations", "constraint_value"):
            assert reports["least_fast"][key] == reports["least"][key]


class TestSchedulerAlias:
    def _window(self, seed: int, d: int = 15) -> np.ndarray:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(150, d))
        x[:, 1] += 0.8 * x[:, 0]
        return x

    def test_alias_windows_match_least(self):
        from repro.serve.scheduler import RelearnScheduler

        config = LEASTConfig(**FAST)
        names = [f"n{i}" for i in range(15)]
        alias = RelearnScheduler(least_config=config, solver="least_fast")
        plain = RelearnScheduler(least_config=config, solver="least")
        for index in range(2):
            alias_result = alias.step(self._window(index), names, seed=index)
            plain_result = plain.step(self._window(index), names, seed=index)
            assert np.array_equal(alias_result.weights, plain_result.weights)
        assert [s.solver for s in alias.history] == ["least", "least"]
        assert alias.history[1].warm_started

    def test_sparse_escalation_still_wins(self):
        from repro.serve.scheduler import RelearnScheduler

        scheduler = RelearnScheduler(
            solver="least_fast", sparse_vocabulary_threshold=100
        )
        assert scheduler._effective_solver(500) == "least_sparse"
        assert scheduler._effective_solver(50) == "least"
