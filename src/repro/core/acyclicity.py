"""Spectral-radius acyclicity bound — the paper's core contribution (Section III).

A weighted digraph ``G(W)`` is acyclic iff the spectral radius of the
non-negative matrix ``S = W ∘ W`` is zero.  Computing the spectral radius
exactly costs ``O(d^3)``; the paper instead optimizes a differentiable *upper
bound* ``δ^(k)(W)`` obtained from ``k`` rounds of a diagonal similarity
transformation driven by row and column sums (Eq. 4/5):

    S^(0) = W ∘ W
    b^(j) = r(S^(j))^α ∘ c(S^(j))^(1-α)
    S^(j+1) = Diag(b^(j))^{-1} S^(j) Diag(b^(j))
    δ^(k) = Σ_i b^(k)[i]

Both the bound and its gradient only need the non-zero entries of ``S``, so
the cost is ``O(k·s)`` time and ``O(s)`` space for a matrix with ``s``
non-zeros — near linear in ``d`` for sparse DAGs, versus the ``O(d^3)`` /
``O(d^2)`` cost of the matrix-exponential constraint used by NOTEARS.

The gradient is obtained by reverse-mode differentiation of the iteration
(Lemmas 3–5 of the paper).  Following Lemma 5, all intermediate gradient
matrices are masked to the support of ``W``: entries outside the support never
influence ``∇_W δ = 2 ∇_S δ ∘ W``, so the backward pass also stays sparse.

Two code paths are provided with identical semantics: a dense numpy path over
preallocated buffers (used by :class:`repro.core.least.LEAST`, the analog of
the paper's LEAST-TF) and a CSR-sparse path (used by
:class:`repro.core.least_sparse.SparseLEAST`, the analog of LEAST-SP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive, check_square_matrix, check_unit_interval

__all__ = [
    "DenseBoundWorkspace",
    "SpectralAcyclicityBound",
    "spectral_bound",
    "spectral_bound_gradient",
    "spectral_bound_with_gradient",
    "spectral_radius",
]


def spectral_radius(matrix) -> float:
    """Exact spectral radius of a square matrix (dense eigen decomposition).

    This is an ``O(d^3)`` reference routine used by tests to validate that the
    bound really is an upper bound; it is never used inside the solvers.
    """
    matrix = check_square_matrix(matrix, "matrix")
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if dense.size == 0:
        return 0.0
    eigenvalues = np.linalg.eigvals(dense)
    return float(np.max(np.abs(eigenvalues)))


def _safe_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """Element-wise ``values ** exponent`` with the convention ``0 ** 0 = 1``.

    ``values`` must be non-negative.  For ``exponent == 0`` the result is all
    ones (so that ``α = 0`` or ``α = 1`` reduce the bound to pure column or
    row sums); otherwise zeros stay zero.
    """
    if exponent == 0.0:
        return np.ones_like(values)
    return np.power(values, exponent)


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Element-wise division returning 0 where the denominator is 0.

    Quotients that overflow to +/-inf (denominators that underflowed to a
    subnormal value) are also mapped to 0: they correspond to directions where
    the bound is effectively non-differentiable and any subgradient is valid.
    """
    out = np.zeros_like(numerator, dtype=float)
    mask = denominator != 0
    with np.errstate(over="ignore", invalid="ignore"):
        out[mask] = numerator[mask] / denominator[mask]
    out[~np.isfinite(out)] = 0.0
    return out


def _xy_vectors(
    row_sums: np.ndarray, col_sums: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the x and y vectors of Lemma 3 for one level of the iteration.

    ``x[i] = α (c_i / r_i)^(1-α)`` and ``y[i] = (1-α) (r_i / c_i)^α`` are the
    partial derivatives of ``b[i]`` with respect to the row sum and column sum
    respectively.  Positions with zero row or column sums get zero, which is a
    valid subgradient choice at those (non-differentiable) points.
    """
    ratio_cr = _safe_divide(col_sums, row_sums)
    ratio_rc = _safe_divide(row_sums, col_sums)
    x = alpha * _safe_power(ratio_cr, 1.0 - alpha)
    y = (1.0 - alpha) * _safe_power(ratio_rc, alpha)
    return x, y


# ---------------------------------------------------------------------------
# Dense forward / backward over preallocated buffers
# ---------------------------------------------------------------------------


class DenseBoundWorkspace:
    """Buffers one ``d``-node dense bound evaluation writes into.

    ``smats`` holds the balanced matrices ``S^(0..k)``, ``rsums``/``csums``/
    ``balances`` the per-level row sums, column sums and balance vectors,
    ``grad_s`` the backward accumulation ``∇_S δ``, ``cgrad`` the returned
    ``∇_W δ``, and ``scratch``/``mask`` element-wise temporaries.  A caller
    that evaluates the bound many times on same-sized matrices (the dense
    LEAST inner loop) keeps one workspace and passes it to every call, so no
    ``d × d`` array is allocated per evaluation.
    """

    def __init__(self, d: int, k: int) -> None:
        self.d = d
        self.k = k
        levels = k + 1
        self.smats = np.empty((levels, d, d))
        self.rsums = np.empty((levels, d))
        self.csums = np.empty((levels, d))
        self.balances = np.empty((levels, d))
        self.grad_s = np.empty((d, d))
        self.cgrad = np.empty((d, d))
        self.scratch = np.empty((d, d))
        self.mask = np.empty((d, d), dtype=bool)


def _forward_buffered(weights: np.ndarray, workspace: DenseBoundWorkspace, alpha: float) -> float:
    """Forward iteration on ``S^(0) = W ∘ W``; returns the bound value.

    Fills ``workspace.smats`` with ``S^(0..k)`` and the per-level row sums,
    column sums and balance vectors the backward pass reads.
    """
    k = workspace.k
    smats, rsums, csums, balances = (
        workspace.smats, workspace.rsums, workspace.csums, workspace.balances
    )
    np.multiply(weights, weights, out=smats[0])
    for j in range(k + 1):
        smats[j].sum(axis=1, out=rsums[j])
        smats[j].sum(axis=0, out=csums[j])
        np.multiply(
            _safe_power(rsums[j], alpha), _safe_power(csums[j], 1.0 - alpha), out=balances[j]
        )
        if j < k:
            inverse_balance = _safe_divide(np.ones_like(balances[j]), balances[j])
            np.multiply(smats[j], inverse_balance[:, None], out=smats[j + 1])
            smats[j + 1] *= balances[j][None, :]
    return float(balances[k].sum())


def _backward_buffered(weights: np.ndarray, workspace: DenseBoundWorkspace, alpha: float) -> np.ndarray:
    """Reverse-mode pass after :func:`_forward_buffered`; returns
    ``workspace.cgrad`` holding ``∇_W δ``.

    Implements Lemmas 3–5: the gradient is accumulated only on the support
    of W, which is exact because off-support entries are multiplied by
    ``W = 0`` when forming ``∇_W δ``.
    """
    k = workspace.k
    smats, rsums, csums, balances = (
        workspace.smats, workspace.rsums, workspace.csums, workspace.balances
    )
    gradient, scratch, mask = workspace.grad_s, workspace.scratch, workspace.mask
    np.not_equal(weights, 0.0, out=mask)

    x_k, y_k = _xy_vectors(rsums[k], csums[k], alpha)
    np.add(x_k[:, None], y_k[None, :], out=gradient)
    gradient *= mask

    for level in range(k - 1, -1, -1):
        balance = balances[level]
        x_prev, y_prev = _xy_vectors(rsums[level], csums[level], alpha)
        inverse_balance = _safe_divide(np.ones_like(balance), balance)
        inverse_balance_sq = _safe_divide(np.ones_like(balance), balance**2)

        # z[i]: total effect of b^{(level)}[i] on the bound through
        # S^{(level+1)} (Eq. 7).
        np.multiply(gradient, smats[level], out=scratch)
        scratch *= balance[None, :]
        z = -scratch.sum(axis=1) * inverse_balance_sq
        np.multiply(gradient, inverse_balance[:, None], out=scratch)
        scratch *= smats[level]
        z += scratch.sum(axis=0)

        gradient *= inverse_balance[:, None]
        gradient *= balance[None, :]
        np.multiply(mask, (x_prev * z)[:, None], out=scratch)
        gradient += scratch
        np.multiply(mask, (y_prev * z)[None, :], out=scratch)
        gradient += scratch
        gradient *= mask

    np.multiply(gradient, 2.0, out=workspace.cgrad)
    workspace.cgrad *= weights
    return workspace.cgrad


# ---------------------------------------------------------------------------
# Sparse (CSR) forward / backward
# ---------------------------------------------------------------------------


def _scale_rows_cols(matrix: sp.csr_matrix, row_scale: np.ndarray, col_scale: np.ndarray) -> sp.csr_matrix:
    """Return ``diag(row_scale) @ matrix @ diag(col_scale)`` without densifying."""
    result = matrix.tocoo(copy=True)
    result.data = result.data * row_scale[result.row] * col_scale[result.col]
    return result.tocsr()


def _sparse_sums(matrix: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of a sparse matrix as flat arrays."""
    return np.asarray(matrix.sum(axis=1)).ravel(), np.asarray(matrix.sum(axis=0)).ravel()


def _forward_sparse(
    s0: sp.csr_matrix, k: int, alpha: float
) -> tuple[float, list[sp.csr_matrix], list[np.ndarray]]:
    """Sparse counterpart of :func:`_forward_buffered` (CSR matrices throughout)."""
    matrices = [s0]
    balances: list[np.ndarray] = []
    current = s0
    for j in range(k + 1):
        row_sums, col_sums = _sparse_sums(current)
        balance = _safe_power(row_sums, alpha) * _safe_power(col_sums, 1.0 - alpha)
        balances.append(balance)
        if j <= k - 1:
            inverse_balance = _safe_divide(np.ones_like(balance), balance)
            current = _scale_rows_cols(current, inverse_balance, balance)
            matrices.append(current)
    bound = float(balances[-1].sum())
    return bound, matrices, balances


def _backward_sparse(
    matrices: list[sp.csr_matrix],
    balances: list[np.ndarray],
    mask: sp.csr_matrix,
    alpha: float,
) -> sp.csr_matrix:
    """Sparse reverse-mode pass; the returned gradient shares the mask's support."""
    k = len(matrices) - 1
    mask_coo = mask.tocoo()
    rows, cols = mask_coo.row, mask_coo.col

    x_k, y_k = _xy_vectors(*_sparse_sums(matrices[k]), alpha)
    gradient_data = x_k[rows] + y_k[cols]

    for j in range(k, 0, -1):
        previous = matrices[j - 1]
        balance = balances[j - 1]
        x_prev, y_prev = _xy_vectors(*_sparse_sums(previous), alpha)

        inverse_balance = _safe_divide(np.ones_like(balance), balance)
        inverse_balance_sq = _safe_divide(np.ones_like(balance), balance**2)

        # The gradient and S^{(j-1)} share the mask's support, so the products
        # in Eq. (7) reduce to element-wise products of the data arrays.
        previous_data = np.asarray(previous[rows, cols]).ravel()
        grad_times_prev = gradient_data * previous_data

        # z[i] = -Σ_q G[i,q] S[i,q] b[q] / b[i]^2 + Σ_p G[p,i] S[p,i] / b[p]
        d = mask.shape[0]
        z = np.zeros(d)
        np.add.at(z, rows, -grad_times_prev * balance[cols])
        z *= inverse_balance_sq
        np.add.at(z, cols, grad_times_prev * inverse_balance[rows])

        gradient_data = (
            gradient_data * inverse_balance[rows] * balance[cols]
            + x_prev[rows] * z[rows]
            + y_prev[cols] * z[cols]
        )

    return sp.csr_matrix((gradient_data, (rows, cols)), shape=mask.shape)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralAcyclicityBound:
    """Callable object computing ``δ^(k)(W)`` and ``∇_W δ^(k)(W)``.

    Parameters
    ----------
    k:
        Number of diagonal-transformation rounds.  The paper finds ``k ≈ 5``
        sufficient; larger values tighten the bound at linear extra cost.
    alpha:
        Balancing factor in ``[0, 1]`` between row sums and column sums
        (paper default 0.9).
    """

    k: int = 5
    alpha: float = 0.9

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        check_unit_interval(self.alpha, "alpha")

    def value(self, weights, workspace: DenseBoundWorkspace | None = None) -> float:
        """Return the bound ``δ^(k)(W)``; zero iff (numerically) acyclic.

        ``workspace`` optionally supplies the buffers of a dense evaluation;
        sparse ``weights`` ignore it.
        """
        weights = check_square_matrix(weights, "weights")
        if sp.issparse(weights):
            s0 = weights.multiply(weights).tocsr()
            bound, _, _ = _forward_sparse(s0, self.k, self.alpha)
            return bound
        return _forward_buffered(weights, self._checked(weights, workspace), self.alpha)

    def gradient(self, weights):
        """Return ``∇_W δ^(k)(W)`` with the same storage type as ``weights``."""
        return self.value_and_gradient(weights)[1]

    def value_and_gradient(self, weights, workspace: DenseBoundWorkspace | None = None):
        """Return ``(δ^(k)(W), ∇_W δ^(k)(W))`` sharing one forward pass.

        For dense ``weights`` the gradient is the ``cgrad`` buffer of the
        workspace: a fresh array when ``workspace`` is None, otherwise the
        caller's buffer, overwritten by the next call that uses it.
        """
        weights = check_square_matrix(weights, "weights")
        if sp.issparse(weights):
            weights = weights.tocsr().copy()
            weights.eliminate_zeros()
            s0 = weights.multiply(weights).tocsr()
            bound, matrices, balances = _forward_sparse(s0, self.k, self.alpha)
            mask = weights.copy()
            mask.data = np.ones_like(mask.data)
            grad_s = _backward_sparse(matrices, balances, mask.tocsr(), self.alpha)
            gradient = grad_s.multiply(weights) * 2.0
            return bound, gradient.tocsr()
        workspace = self._checked(weights, workspace)
        bound = _forward_buffered(weights, workspace, self.alpha)
        return bound, _backward_buffered(weights, workspace, self.alpha)

    def _checked(
        self, weights: np.ndarray, workspace: DenseBoundWorkspace | None
    ) -> DenseBoundWorkspace:
        """The caller's workspace after a shape check, or fresh buffers."""
        if workspace is None:
            return DenseBoundWorkspace(weights.shape[0], self.k)
        if workspace.k != self.k or workspace.d != weights.shape[0]:
            raise ValidationError(
                f"workspace is for d={workspace.d}, k={workspace.k}; "
                f"got d={weights.shape[0]}, k={self.k}"
            )
        return workspace

    def __call__(self, weights) -> float:
        return self.value(weights)


def spectral_bound(weights, k: int = 5, alpha: float = 0.9) -> float:
    """Functional form of :meth:`SpectralAcyclicityBound.value`."""
    return SpectralAcyclicityBound(k=k, alpha=alpha).value(weights)


def spectral_bound_gradient(weights, k: int = 5, alpha: float = 0.9):
    """Functional form of :meth:`SpectralAcyclicityBound.gradient`."""
    return SpectralAcyclicityBound(k=k, alpha=alpha).gradient(weights)


def spectral_bound_with_gradient(weights, k: int = 5, alpha: float = 0.9):
    """Functional form of :meth:`SpectralAcyclicityBound.value_and_gradient`."""
    return SpectralAcyclicityBound(k=k, alpha=alpha).value_and_gradient(weights)
