"""The unfused dense LEAST loop and dense spectral bound: the parity oracle.

:class:`repro.core.least.LEAST` runs one fused inner loop over preallocated
buffers, and :class:`repro.core.acyclicity.SpectralAcyclicityBound` evaluates
dense matrices over the same kind of buffers.  This module keeps the textbook
versions they replaced, unchanged: a bound that allocates one matrix per
level (``_forward_dense`` / ``_backward_dense``) and an inner loop that calls
:class:`~repro.core.losses.LeastSquaresLoss` and
:class:`~repro.core.optimizers.AdamOptimizer` step by step.

On the numpy kernel set ``LEAST`` must equal :class:`ReferenceLEAST` bit for
bit, and the dense bound must equal :func:`reference_value_and_gradient`.
The tests pin both, and ``benchmarks/bench_backend_speed.py`` times the
fused loop against this one.  Nothing in ``src/repro`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.acyclicity import _safe_divide, _safe_power
from repro.core.least import LEAST, LEASTConfig
from repro.core.losses import LeastSquaresLoss, sample_batch
from repro.core.optimizers import AdamOptimizer

__all__ = ["ReferenceBound", "ReferenceLEAST", "reference_value", "reference_value_and_gradient"]


def _forward_dense(s0: np.ndarray, k: int, alpha: float) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Run the forward iteration on a dense non-negative matrix.

    Returns the bound value, the list ``[S^(0), ..., S^(k)]`` and the list of
    balance vectors ``[b^(0), ..., b^(k)]`` needed by the backward pass.
    """
    matrices = [s0]
    balances: list[np.ndarray] = []
    current = s0
    for j in range(k + 1):
        row_sums = current.sum(axis=1)
        col_sums = current.sum(axis=0)
        balance = _safe_power(row_sums, alpha) * _safe_power(col_sums, 1.0 - alpha)
        balances.append(balance)
        if j <= k - 1:
            inverse_balance = _safe_divide(np.ones_like(balance), balance)
            current = (inverse_balance[:, None] * current) * balance[None, :]
            matrices.append(current)
    bound = float(balances[-1].sum())
    return bound, matrices, balances


def _xy_vectors(
    matrix: np.ndarray | sp.spmatrix, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the x and y vectors of Lemma 3 for one level of the iteration.

    ``x[i] = α (c_i / r_i)^(1-α)`` and ``y[i] = (1-α) (r_i / c_i)^α`` are the
    partial derivatives of ``b[i]`` with respect to the row sum and column sum
    respectively.  Positions with zero row or column sums get zero, which is a
    valid subgradient choice at those (non-differentiable) points.
    """
    if sp.issparse(matrix):
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    else:
        row_sums = matrix.sum(axis=1)
        col_sums = matrix.sum(axis=0)
    ratio_cr = _safe_divide(col_sums, row_sums)
    ratio_rc = _safe_divide(row_sums, col_sums)
    x = alpha * _safe_power(ratio_cr, 1.0 - alpha)
    y = (1.0 - alpha) * _safe_power(ratio_rc, alpha)
    return x, y


def _backward_dense(
    matrices: list[np.ndarray],
    balances: list[np.ndarray],
    mask: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Reverse-mode differentiation of the dense forward pass.

    Implements Lemmas 3–5: the gradient is accumulated only on ``mask`` (the
    support of W), which is exact because off-support entries are multiplied
    by ``W = 0`` when forming ``∇_W δ``.
    """
    k = len(matrices) - 1
    x_k, y_k = _xy_vectors(matrices[k], alpha)
    gradient = (x_k[:, None] + y_k[None, :]) * mask

    for j in range(k, 0, -1):
        previous = matrices[j - 1]
        balance = balances[j - 1]
        x_prev, y_prev = _xy_vectors(previous, alpha)

        inverse_balance = _safe_divide(np.ones_like(balance), balance)
        inverse_balance_sq = _safe_divide(np.ones_like(balance), balance**2)

        # z[i]: total effect of b^{(j-1)}[i] on the bound through S^{(j)} (Eq. 7).
        scaled = gradient * previous * balance[None, :]
        z = -scaled.sum(axis=1) * inverse_balance_sq
        z += (inverse_balance[:, None] * gradient * previous).sum(axis=0)

        gradient = (
            inverse_balance[:, None] * gradient * balance[None, :]
            + (x_prev * z)[:, None] * mask
            + (y_prev * z)[None, :] * mask
        )
        gradient = gradient * mask
    return gradient



def reference_value(weights: np.ndarray, k: int = 5, alpha: float = 0.9) -> float:
    """Dense ``δ^(k)(W)`` through :func:`_forward_dense`."""
    s0 = np.asarray(weights, dtype=float) ** 2
    bound, _, _ = _forward_dense(s0, k, alpha)
    return bound


def reference_value_and_gradient(
    weights: np.ndarray, k: int = 5, alpha: float = 0.9
) -> tuple[float, np.ndarray]:
    """Dense ``(δ^(k)(W), ∇_W δ^(k)(W))`` through the list-of-levels passes."""
    dense = np.asarray(weights, dtype=float)
    s0 = dense**2
    bound, matrices, balances = _forward_dense(s0, k, alpha)
    mask = (dense != 0).astype(float)
    grad_s = _backward_dense(matrices, balances, mask, alpha)
    return bound, 2.0 * grad_s * dense


@dataclass(frozen=True)
class ReferenceBound:
    """The reference dense bound behind the interface the loop calls."""

    k: int = 5
    alpha: float = 0.9

    def value(self, weights) -> float:
        return reference_value(weights, self.k, self.alpha)

    def value_and_gradient(self, weights):
        return reference_value_and_gradient(weights, self.k, self.alpha)


class ReferenceLEAST(LEAST):
    """Dense LEAST with the unfused inner loop; the outer loop is inherited."""

    def __init__(self, config: LEASTConfig | None = None):
        super().__init__(config)
        self._bound = ReferenceBound(k=self.config.k, alpha=self.config.alpha)
        self._loss = LeastSquaresLoss(l1_penalty=self.config.l1_penalty)

    def _inner(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        rho: float,
        eta: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float, float, int]:
        """Inner procedure of Fig. 3: Adam on ℓ(W) with batching + thresholding."""
        config = self.config
        optimizer = AdamOptimizer(learning_rate=config.learning_rate)
        previous_objective = np.inf
        objective = np.inf
        constraint = self._bound.value(weights)

        # Reused across iterations: |W| scratch and the threshold mask.  The
        # gradient combine below also mutates the per-iteration gradient
        # arrays in place instead of allocating `coef * cgrad` and the sum —
        # floating-point add is commutative, so results are bit-identical.
        abs_scratch = np.empty_like(weights)
        threshold_mask = np.empty(weights.shape, dtype=bool)

        steps = 0
        for steps in range(1, config.max_inner_iterations + 1):
            batch = sample_batch(data, config.batch_size, rng)
            constraint, constraint_gradient = self._bound.value_and_gradient(weights)
            loss_value, loss_gradient = self._loss.value_and_gradient(weights, batch)

            objective = loss_value + 0.5 * rho * constraint**2 + eta * constraint
            constraint_gradient *= rho * constraint + eta
            constraint_gradient += loss_gradient
            gradient = constraint_gradient
            np.fill_diagonal(gradient, 0.0)

            weights = optimizer.update(weights, gradient)
            np.fill_diagonal(weights, 0.0)
            if config.threshold > 0:
                np.abs(weights, out=abs_scratch)
                np.less(abs_scratch, config.threshold, out=threshold_mask)
                weights[threshold_mask] = 0.0

            if np.isfinite(previous_objective):
                denominator = max(abs(previous_objective), 1e-12)
                if abs(previous_objective - objective) / denominator < config.inner_convergence_tol:
                    break
            previous_objective = objective

        constraint = self._bound.value(weights)
        return weights, constraint, float(objective), steps
