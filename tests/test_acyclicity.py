"""Tests for the spectral acyclicity bound (the paper's core contribution)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.acyclicity import (
    DenseBoundWorkspace,
    SpectralAcyclicityBound,
    spectral_bound,
    spectral_bound_gradient,
    spectral_bound_with_gradient,
    spectral_radius,
)
from repro.core.notears_constraint import notears_constraint
from repro.exceptions import ValidationError
from repro.graph.generation import random_dag


class TestSpectralRadius:
    def test_dag_has_zero_radius(self, small_dag):
        assert spectral_radius(small_dag @ small_dag.T * 0 + small_dag**2) == pytest.approx(0.0, abs=1e-9)

    def test_cycle_has_positive_radius(self, cyclic_matrix):
        assert spectral_radius(cyclic_matrix**2) > 0

    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)


class TestBoundValue:
    def test_upper_bounds_the_radius(self, rng):
        bound = SpectralAcyclicityBound(k=5, alpha=0.9)
        for _ in range(10):
            weights = rng.normal(size=(12, 12)) * (rng.random((12, 12)) < 0.3)
            np.fill_diagonal(weights, 0.0)
            assert bound.value(weights) >= spectral_radius(weights**2) - 1e-9

    def test_zero_for_shallow_dag(self, small_dag):
        # The fixture DAG has depth 2 < k, so the iterated bound reaches 0.
        assert spectral_bound(small_dag, k=5) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_cycles(self, cyclic_matrix):
        assert spectral_bound(cyclic_matrix) > 0

    def test_every_k_gives_a_valid_upper_bound(self, rng):
        weights = rng.normal(size=(15, 15)) * (rng.random((15, 15)) < 0.3)
        np.fill_diagonal(weights, 0.0)
        radius = spectral_radius(weights**2)
        values = [spectral_bound(weights, k=k) for k in (0, 1, 3, 5, 10)]
        # Lemma 1: every iterate of the diagonal transformation yields an upper
        # bound on the spectral radius (the iteration is not strictly monotone
        # for every matrix, but it never dips below the radius).
        assert all(value >= radius - 1e-9 for value in values)

    def test_alpha_limits_match_row_and_column_sums(self, rng):
        weights = np.abs(rng.normal(size=(6, 6)))
        np.fill_diagonal(weights, 0.0)
        s = weights**2
        assert spectral_bound(weights, k=0, alpha=1.0) == pytest.approx(s.sum())
        assert spectral_bound(weights, k=0, alpha=0.0) == pytest.approx(s.sum())

    def test_empty_matrix(self):
        assert spectral_bound(np.zeros((4, 4))) == 0.0

    def test_sparse_matches_dense(self, rng):
        weights = rng.normal(size=(20, 20)) * (rng.random((20, 20)) < 0.2)
        np.fill_diagonal(weights, 0.0)
        dense_value = spectral_bound(weights)
        sparse_value = spectral_bound(sp.csr_matrix(weights))
        assert sparse_value == pytest.approx(dense_value, rel=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            SpectralAcyclicityBound(k=-1)
        with pytest.raises(ValidationError):
            SpectralAcyclicityBound(alpha=1.5)

    def test_callable_interface(self, small_dag):
        bound = SpectralAcyclicityBound()
        assert bound(small_dag) == bound.value(small_dag)

    def test_consistency_with_notears_h(self, rng):
        """Driving the bound to ~0 implies h(W) ~ 0 (Lemma 2 direction)."""
        for _ in range(5):
            weights = random_dag("ER-2", 15, seed=int(rng.integers(1000)))
            assert spectral_bound(weights, k=15) <= 1e-6
            assert notears_constraint(weights) <= 1e-6


class TestBoundGradient:
    def test_reused_workspace_matches_fresh_buffers(self, rng):
        bound = SpectralAcyclicityBound(k=3, alpha=0.9)
        workspace = DenseBoundWorkspace(6, 3)
        for _ in range(3):
            weights = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.4)
            np.fill_diagonal(weights, 0.0)
            value, gradient = bound.value_and_gradient(weights)
            reused_value, reused_gradient = bound.value_and_gradient(weights, workspace)
            assert reused_gradient is workspace.cgrad
            assert reused_value == value == bound.value(weights, workspace)
            assert np.array_equal(reused_gradient, gradient)
        with pytest.raises(ValidationError):
            bound.value(np.zeros((5, 5)), workspace)
        with pytest.raises(ValidationError):
            SpectralAcyclicityBound(k=2).value(np.zeros((6, 6)), workspace)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_finite_differences_dense(self, rng, k, alpha):
        # Use a strictly positive matrix so the bound is differentiable everywhere.
        weights = rng.uniform(0.2, 1.0, size=(7, 7))
        np.fill_diagonal(weights, 0.0)
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        _, gradient = bound.value_and_gradient(weights)
        epsilon = 1e-6
        for _ in range(15):
            i, j = rng.integers(0, 7, size=2)
            if i == j:
                continue
            plus = weights.copy()
            plus[i, j] += epsilon
            minus = weights.copy()
            minus[i, j] -= epsilon
            finite_difference = (bound.value(plus) - bound.value(minus)) / (2 * epsilon)
            assert gradient[i, j] == pytest.approx(finite_difference, rel=1e-4, abs=1e-6)

    def test_sparse_gradient_matches_dense(self, rng):
        weights = rng.normal(size=(15, 15)) * (rng.random((15, 15)) < 0.3)
        np.fill_diagonal(weights, 0.0)
        dense_value, dense_gradient = spectral_bound_with_gradient(weights)
        sparse_value, sparse_gradient = spectral_bound_with_gradient(sp.csr_matrix(weights))
        assert sparse_value == pytest.approx(dense_value)
        np.testing.assert_allclose(sparse_gradient.toarray(), dense_gradient, atol=1e-9)

    def test_gradient_support_matches_weights(self, rng):
        weights = rng.normal(size=(10, 10)) * (rng.random((10, 10)) < 0.3)
        np.fill_diagonal(weights, 0.0)
        gradient = spectral_bound_gradient(weights)
        assert np.all(gradient[weights == 0] == 0)

    def test_gradient_zero_for_zero_matrix(self):
        gradient = spectral_bound_gradient(np.zeros((5, 5)))
        np.testing.assert_array_equal(gradient, 0.0)

    def test_gradient_descent_reduces_bound(self, rng):
        weights = rng.normal(size=(8, 8)) * 0.8
        np.fill_diagonal(weights, 0.0)
        bound = SpectralAcyclicityBound()
        value = bound.value(weights)
        for _ in range(200):
            current, gradient = bound.value_and_gradient(weights)
            weights = weights - 0.05 * gradient
        assert bound.value(weights) < value
