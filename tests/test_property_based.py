"""Property-based tests (hypothesis) for core invariants.

These cover the mathematical invariants the library relies on:

* the spectral bound is always an upper bound on the spectral radius and is
  invariant to how the matrix is stored;
* the buffered dense bound equals the list-of-levels oracle bit for bit;
* DAG generators always produce acyclic graphs;
* structural metrics stay within their theoretical ranges;
* thresholding-to-DAG always yields an acyclic graph;
* the two-proportion z-test is a valid p-value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from benchmarks.least_oracle import reference_value, reference_value_and_gradient
from repro.core.acyclicity import (
    SpectralAcyclicityBound,
    spectral_bound,
    spectral_bound_with_gradient,
    spectral_radius,
)
from repro.core.notears_constraint import notears_constraint
from repro.core.thresholding import threshold_to_dag
from repro.graph.dag import is_dag, topological_sort
from repro.graph.generation import random_dag
from repro.metrics.structural import evaluate_structure, structural_hamming_distance
from repro.monitoring.anomaly import two_proportion_z_test
from repro.sem.linear_sem import simulate_linear_sem


def square_matrices(max_size: int = 8, max_value: float = 2.0):
    """Strategy producing small square float matrices with zero diagonal.

    Entries are drawn on a 0.001 grid so that the iterated row/column sums of
    the spectral bound stay well away from the subnormal range (the bound is
    non-differentiable there and float64 quotients overflow); the solvers
    threshold such values away in practice.
    """
    return st.integers(min_value=2, max_value=max_size).flatmap(
        lambda d: arrays(
            dtype=float,
            shape=(d, d),
            elements=st.floats(
                min_value=-max_value, max_value=max_value, allow_nan=False, allow_infinity=False
            ).map(lambda value: round(value, 3)),
        ).map(_zero_diagonal)
    )


def _zero_diagonal(matrix: np.ndarray) -> np.ndarray:
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestSpectralBoundProperties:
    @given(weights=square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_bound_dominates_spectral_radius(self, weights):
        bound = spectral_bound(weights, k=3)
        radius = spectral_radius(weights * weights)
        assert bound >= radius - 1e-8

    @given(weights=square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_bound_is_non_negative(self, weights):
        assert spectral_bound(weights) >= 0.0

    @given(weights=square_matrices(max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_sparse_and_dense_paths_agree(self, weights):
        dense_value, dense_gradient = spectral_bound_with_gradient(weights)
        sparse_value, sparse_gradient = spectral_bound_with_gradient(sp.csr_matrix(weights))
        assert abs(dense_value - sparse_value) <= 1e-8 * max(1.0, abs(dense_value))
        np.testing.assert_allclose(sparse_gradient.toarray(), dense_gradient, atol=1e-8)

    @given(weights=square_matrices(), scale=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_bound_scales_quadratically(self, weights, scale):
        """δ(cW) = c² δ(W): every term of the bound is built from W∘W."""
        base = spectral_bound(weights)
        scaled = spectral_bound(scale * weights)
        assert scaled == np.float64(scaled)
        np.testing.assert_allclose(scaled, scale**2 * base, rtol=1e-7, atol=1e-9)


@st.composite
def sparse_matrices_with_empty_lines(draw, max_size: int = 9):
    """Sparse random W with zero diagonal, some rows and columns zeroed."""
    d = draw(st.integers(min_value=1, max_value=max_size))
    values = draw(
        arrays(
            dtype=float,
            shape=(d, d),
            elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        )
    )
    keep = draw(arrays(dtype=bool, shape=(d, d), elements=st.booleans()))
    weights = np.where(keep, values, 0.0)
    np.fill_diagonal(weights, 0.0)
    lines = st.lists(st.integers(min_value=0, max_value=d - 1), max_size=2)
    weights[draw(lines), :] = 0.0
    weights[:, draw(lines)] = 0.0
    return weights


class TestDenseBoundMatchesOracle:
    """The one numpy dense bound is the list-of-levels bound, bit for bit."""

    @given(
        weights=sparse_matrices_with_empty_lines(),
        k=st.integers(min_value=0, max_value=6),
        alpha=st.sampled_from([0.0, 1.0, 0.5, 0.9]) | st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient_equal_the_oracle(self, weights, k, alpha):
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        value, gradient = bound.value_and_gradient(weights)
        ref_value, ref_gradient = reference_value_and_gradient(weights, k, alpha)
        assert value == ref_value
        assert bound.value(weights) == reference_value(weights, k, alpha) == ref_value
        np.testing.assert_array_equal(gradient, ref_gradient)


class TestGraphGenerationProperties:
    @given(
        n_nodes=st.integers(min_value=2, max_value=40),
        degree=st.floats(min_value=0.5, max_value=4.0),
        seed=st.integers(min_value=0, max_value=10**6),
        model=st.sampled_from(["ER", "SF"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_graphs_are_dags(self, n_nodes, degree, seed, model):
        graph = random_dag(f"{model}-{degree}", n_nodes, seed=seed)
        assert is_dag(graph)
        assert notears_constraint(graph) <= 1e-6

    @given(
        n_nodes=st.integers(min_value=2, max_value=15),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_simulated_data_is_finite(self, n_nodes, seed):
        graph = random_dag("ER-2", n_nodes, seed=seed)
        data = simulate_linear_sem(graph, 50, seed=seed)
        assert np.all(np.isfinite(data))
        assert data.shape == (50, n_nodes)

    @given(
        n_nodes=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_topological_sort_is_a_permutation(self, n_nodes, seed):
        graph = random_dag("ER-2", n_nodes, seed=seed)
        order = topological_sort(graph)
        assert sorted(order) == list(range(n_nodes))


class TestMetricProperties:
    @given(predicted=square_matrices(max_size=7), truth=square_matrices(max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_metric_ranges(self, predicted, truth):
        if predicted.shape != truth.shape:
            return
        metrics = evaluate_structure(predicted, truth)
        assert 0.0 <= metrics.f1 <= 1.0
        assert 0.0 <= metrics.fdr <= 1.0
        assert 0.0 <= metrics.tpr <= 1.0
        assert 0.0 <= metrics.fpr <= 1.0
        assert metrics.shd >= 0

    @given(matrix=square_matrices(max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_shd_to_self_is_zero(self, matrix):
        assert structural_hamming_distance(matrix, matrix) == 0

    @given(matrix=square_matrices(max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_f1_of_self_is_one_or_empty(self, matrix):
        metrics = evaluate_structure(matrix, matrix)
        if metrics.n_true_edges:
            assert metrics.f1 == 1.0
        else:
            assert metrics.f1 == 0.0


class TestThresholdingProperties:
    @given(matrix=square_matrices(max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_threshold_to_dag_always_acyclic(self, matrix):
        pruned, threshold = threshold_to_dag(matrix)
        assert is_dag(pruned)
        assert threshold >= 0.0


class TestStatisticalTestProperties:
    @given(
        successes_a=st.integers(min_value=0, max_value=50),
        extra_a=st.integers(min_value=0, max_value=50),
        successes_b=st.integers(min_value=0, max_value=50),
        extra_b=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_p_value_in_unit_interval(self, successes_a, extra_a, successes_b, extra_b):
        p_value = two_proportion_z_test(
            successes_a, successes_a + extra_a, successes_b, successes_b + extra_b
        )
        assert 0.0 <= p_value <= 1.0
