"""LEAST: the paper's structure-learning algorithm (dense implementation).

This module implements Fig. 3 of the paper: an augmented-Lagrangian outer loop
around an Adam-driven inner loop, where the acyclicity of the candidate weight
matrix is enforced through the spectral-radius upper bound
:class:`repro.core.acyclicity.SpectralAcyclicityBound` instead of the
``O(d^3)`` matrix-exponential constraint of NOTEARS.

The unconstrained objective minimized by the inner loop is

    ℓ(W) = L(W, X_B) + (ρ/2) δ(W)² + η δ(W)

with ``L`` the L1-regularized least-squares loss on a random batch ``X_B``,
``ρ`` the quadratic penalty and ``η`` the Lagrange multiplier.  After each
inner solve the multiplier is increased (``η ← η + ρ δ(W*)``) and ``ρ`` is
enlarged by a constant factor, driving ``δ(W)`` — and therefore the spectral
radius and every cycle weight — to zero.

Two efficiency devices from the paper are included: mini-batching of the data
term and hard thresholding of small entries after every update, which both
keeps ``W`` sparse and removes spurious cycle-inducing edges early.

This dense implementation corresponds to the paper's LEAST-TF variant (their
TensorFlow implementation); the CSR-based variant LEAST-SP lives in
:mod:`repro.core.least_sparse`.

The inner loop is fused over one preallocated workspace per solver: the batch
residual and loss gradient are ``out=`` BLAS calls into reused buffers, the
bound value and gradient come from one forward + reverse pass over a
``(k+1, d, d)`` buffer, and the L1 subgradient, penalty combine, diagonal
zeroing, Adam step and hard threshold run as one element-wise update.  The
kernel set is picked once from the platform (:data:`KERNEL_SET`): numba-
compiled loops when ``import numba`` succeeds, buffered numpy otherwise.  The
numpy kernels reproduce the unfused textbook loop bit for bit (same RNG
stream, same operation order); the numba kernels agree with it to
floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acyclicity import DenseBoundWorkspace, SpectralAcyclicityBound
from repro.core.notears_constraint import notears_constraint
from repro.exceptions import ValidationError
from repro.utils.logging import RunLog
from repro.utils.random import RandomState, as_generator
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    check_unit_interval,
    ensure_2d,
)

__all__ = [
    "LEASTConfig",
    "LEASTResult",
    "LEAST",
    "glorot_sparse_init",
    "numba_available",
    "warmup_jit",
]

try:  # numba is an optional accelerator, never a hard dependency
    import numba as _numba
except ImportError:  # pragma: no cover - exercised by the no-numba CI leg
    _numba = None

#: Above this node count :func:`glorot_sparse_init` samples non-zero
#: coordinates directly instead of drawing a dense d × d uniform mask, so the
#: RNG/memory cost of initialization is O(nnz) rather than O(d²).  Below the
#: cutoff the historical dense draw is kept so existing seeded streams (and
#: every test pinned to them) are unchanged.
SPARSE_INIT_CUTOFF = 2048


def _sample_off_diagonal_indices(
    n_nodes: int, n_active: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_active`` distinct off-diagonal (row, col) pairs in O(nnz).

    Off-diagonal cells are enumerated as flat indices in ``[0, d(d-1))`` with
    ``row = flat // (d-1)`` and the column skipping the diagonal.  Distinct
    flat indices come from oversample-and-deduplicate rounds — at the sparse
    densities this path serves, one round almost surely suffices.
    """
    total = n_nodes * (n_nodes - 1)
    unique = np.empty(0, dtype=np.int64)
    while unique.size < n_active:
        draw = rng.integers(0, total, size=2 * (n_active - unique.size) + 16)
        unique = np.unique(np.concatenate([unique, draw]))
    if unique.size > n_active:
        unique = rng.choice(unique, size=n_active, replace=False)
    rows = unique // (n_nodes - 1)
    offsets = unique % (n_nodes - 1)
    cols = offsets + (offsets >= rows)
    return rows, cols


def glorot_sparse_init(
    n_nodes: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Random sparse initialization of W with Glorot-uniform non-zero values.

    Each off-diagonal entry is non-zero with probability ``density``; non-zero
    values are drawn uniformly from ``[-limit, limit]`` with
    ``limit = sqrt(6 / (fan_in + fan_out)) = sqrt(3 / d)``, the Glorot/Xavier
    uniform rule used by the paper (Fig. 3, line 1 of the Inner procedure).

    For ``n_nodes < SPARSE_INIT_CUTOFF`` the non-zero mask is a dense
    ``d × d`` uniform draw (the historical behaviour, preserved so seeded
    streams do not shift); at and above the cutoff the number of non-zeros is
    drawn from the matching Binomial(d(d-1), density) and their coordinates
    are sampled directly, keeping RNG work and transient memory O(nnz).
    """
    limit = np.sqrt(3.0 / max(n_nodes, 1))
    weights = np.zeros((n_nodes, n_nodes))
    if n_nodes < SPARSE_INIT_CUTOFF:
        mask = rng.random((n_nodes, n_nodes)) < density
        np.fill_diagonal(mask, False)
        n_active = int(mask.sum())
        weights[mask] = rng.uniform(-limit, limit, size=n_active)
        return weights
    n_active = int(rng.binomial(n_nodes * (n_nodes - 1), density))
    if n_active > 0:
        rows, cols = _sample_off_diagonal_indices(n_nodes, n_active, rng)
        weights[rows, cols] = rng.uniform(-limit, limit, size=n_active)
    return weights


def numba_available() -> bool:
    """True when the numba package is importable in this interpreter."""
    return _numba is not None


#: The inner loop's kernel set, picked once from the platform: ``"numba"``
#: when the package is importable, ``"numpy"`` otherwise.
KERNEL_SET = "numba" if numba_available() else "numpy"


# ---------------------------------------------------------------------------
# Kernels: plain-Python loop bodies, numba-compiled when available
# ---------------------------------------------------------------------------
#
# The loop bodies follow the operation order of the numpy kernels (the
# buffered bound of repro.core.acyclicity and _np_fused_update below), so the
# two kernel sets agree to floating-point tolerance.


def _py_pow_safe(value: float, exponent: float) -> float:
    """Scalar ``value ** exponent`` with the ``0 ** 0 = 1`` convention."""
    if exponent == 0.0:
        return 1.0
    return value**exponent


def _py_div_safe(numerator: float, denominator: float) -> float:
    """Scalar division with 0-denominators (and overflow) mapped to 0."""
    if denominator == 0.0:
        return 0.0
    quotient = numerator / denominator
    if not np.isfinite(quotient):
        return 0.0
    return quotient


def _py_bound_kernel(weights, smats, rsums, csums, balances, grad, cgrad, k, alpha):
    """Fused forward + reverse pass of the spectral acyclicity bound.

    Writes ``∇_W δ^(k)(W)`` into ``cgrad`` and returns the bound value.
    ``smats`` is a ``(k+1, d, d)`` workspace holding the balanced matrices,
    ``rsums``/``csums``/``balances`` are ``(k+1, d)`` per-level vectors, and
    ``grad`` is a ``(d, d)`` scratch for the backward accumulation.
    """
    d = weights.shape[0]
    one_minus_alpha = 1.0 - alpha

    for i in range(d):
        for q in range(d):
            smats[0, i, q] = weights[i, q] * weights[i, q]

    # Forward: k rounds of the diagonal similarity transformation.
    for j in range(k + 1):
        for i in range(d):
            row_total = 0.0
            for q in range(d):
                row_total += smats[j, i, q]
            rsums[j, i] = row_total
        for q in range(d):
            col_total = 0.0
            for i in range(d):
                col_total += smats[j, i, q]
            csums[j, q] = col_total
        for i in range(d):
            balances[j, i] = _py_pow_safe(rsums[j, i], alpha) * _py_pow_safe(
                csums[j, i], one_minus_alpha
            )
        if j < k:
            for i in range(d):
                inverse_balance = _py_div_safe(1.0, balances[j, i])
                for q in range(d):
                    smats[j + 1, i, q] = (smats[j, i, q] * inverse_balance) * balances[
                        j, q
                    ]
    bound = 0.0
    for i in range(d):
        bound += balances[k, i]

    # Backward (Lemmas 3-5): accumulate on the support of W only.
    x_vec = np.empty(d)
    y_vec = np.empty(d)
    z_vec = np.empty(d)
    inv_b = np.empty(d)
    inv_b2 = np.empty(d)

    for i in range(d):
        x_vec[i] = alpha * _py_pow_safe(
            _py_div_safe(csums[k, i], rsums[k, i]), one_minus_alpha
        )
        y_vec[i] = one_minus_alpha * _py_pow_safe(
            _py_div_safe(rsums[k, i], csums[k, i]), alpha
        )
    for i in range(d):
        for q in range(d):
            if weights[i, q] != 0.0:
                grad[i, q] = x_vec[i] + y_vec[q]
            else:
                grad[i, q] = 0.0

    for j in range(k, 0, -1):
        level = j - 1
        for i in range(d):
            x_vec[i] = alpha * _py_pow_safe(
                _py_div_safe(csums[level, i], rsums[level, i]), one_minus_alpha
            )
            y_vec[i] = one_minus_alpha * _py_pow_safe(
                _py_div_safe(rsums[level, i], csums[level, i]), alpha
            )
            inv_b[i] = _py_div_safe(1.0, balances[level, i])
            inv_b2[i] = _py_div_safe(1.0, balances[level, i] * balances[level, i])

        # z[i] = -Σ_q G[i,q] S[i,q] b[q] / b[i]^2 + Σ_p G[p,i] S[p,i] / b[p]
        for i in range(d):
            accumulator = 0.0
            for q in range(d):
                accumulator += grad[i, q] * smats[level, i, q] * balances[level, q]
            z_vec[i] = -accumulator * inv_b2[i]
        for q in range(d):
            accumulator = 0.0
            for i in range(d):
                accumulator += (inv_b[i] * grad[i, q]) * smats[level, i, q]
            z_vec[q] += accumulator

        for i in range(d):
            for q in range(d):
                if weights[i, q] != 0.0:
                    grad[i, q] = (
                        (inv_b[i] * grad[i, q]) * balances[level, q]
                        + x_vec[i] * z_vec[i]
                        + y_vec[q] * z_vec[q]
                    )
                else:
                    grad[i, q] = 0.0

    for i in range(d):
        for q in range(d):
            cgrad[i, q] = (2.0 * grad[i, q]) * weights[i, q]
    return bound


def _py_update_kernel(
    weights,
    grad,
    cgrad,
    penalty_coefficient,
    l1_penalty,
    first_moment,
    second_moment,
    bias1,
    bias2,
    learning_rate,
    beta1,
    beta2,
    epsilon,
    threshold,
):
    """Fused gradient combine + Adam step + thresholding, in place on ``weights``.

    ``grad`` holds the smooth data-fit gradient ``(2/n) Xᵀ(XW - X)``; the L1
    subgradient, the penalty-gradient term ``(ρδ + η)·∇δ``, the diagonal
    zeroing, the Adam moment/bias arithmetic, and the in-loop hard threshold
    are all applied in one pass.  Returns ``Σ|W|`` of the *pre-update* weights
    (the L1 term of the objective, which the reference path evaluates before
    stepping).
    """
    d = weights.shape[0]
    one_minus_beta1 = 1.0 - beta1
    one_minus_beta2 = 1.0 - beta2
    abs_sum = 0.0
    for i in range(d):
        for q in range(d):
            w = weights[i, q]
            if w > 0.0:
                abs_sum += w
                sign = 1.0
            elif w < 0.0:
                abs_sum -= w
                sign = -1.0
            else:
                sign = 0.0
            if i == q:
                g = 0.0
            else:
                g = (grad[i, q] + l1_penalty * sign) + penalty_coefficient * cgrad[
                    i, q
                ]
            m = beta1 * first_moment[i, q] + one_minus_beta1 * g
            v = beta2 * second_moment[i, q] + one_minus_beta2 * (g * g)
            first_moment[i, q] = m
            second_moment[i, q] = v
            corrected_first = m / bias1
            corrected_second = v / bias2
            w = w - (learning_rate * corrected_first) / (
                np.sqrt(corrected_second) + epsilon
            )
            if i == q:
                w = 0.0
            elif threshold > 0.0 and (-threshold < w < threshold):
                w = 0.0
            weights[i, q] = w
    return abs_sum


#: Lazily numba-compiled (bound, update) kernel pair, or None before first use.
_COMPILED_KERNELS: tuple | None = None


def _numba_kernels() -> tuple:
    """Compile (once) and return the numba kernel pair."""
    global _COMPILED_KERNELS, _py_pow_safe, _py_div_safe
    if _COMPILED_KERNELS is None:
        if _numba is None:  # pragma: no cover - callers check numba_available
            raise ValidationError("numba is not available")
        jit = _numba.njit(cache=True, nogil=True)
        # Rebind the scalar helpers so the kernels resolve them to compiled
        # dispatchers at their own compile time.
        _py_pow_safe = jit(_py_pow_safe)
        _py_div_safe = jit(_py_div_safe)
        _COMPILED_KERNELS = (jit(_py_bound_kernel), jit(_py_update_kernel))
    return _COMPILED_KERNELS


def warmup_jit(d: int = 4) -> bool:
    """Compile the numba kernels on a tiny problem; returns True if compiled.

    Benchmarks call this before timing so kernel compilation is never charged
    to a measured region.  A no-op (returning False) when numba is absent.
    """
    if not numba_available():
        return False
    bound_kernel, update_kernel = _numba_kernels()
    k = 2
    weights = np.tri(d, k=-1) * 0.1
    workspace = _Workspace(d, k)
    bound_kernel(
        weights,
        workspace.smats,
        workspace.rsums,
        workspace.csums,
        workspace.balances,
        workspace.grad_s,
        workspace.cgrad,
        k,
        0.9,
    )
    update_kernel(
        weights,
        np.zeros((d, d)),
        workspace.cgrad,
        1.0,
        0.1,
        np.zeros((d, d)),
        np.zeros((d, d)),
        0.1,
        0.001,
        0.01,
        0.9,
        0.999,
        1e-8,
        0.0,
    )
    return True


# ---------------------------------------------------------------------------
# Preallocated per-fit workspace
# ---------------------------------------------------------------------------


class _Workspace(DenseBoundWorkspace):
    """All buffers one ``d``-node solve reuses across inner iterations: the
    bound's buffers plus the loss gradient, the Adam moments and the batch."""

    def __init__(self, d: int, k: int) -> None:
        super().__init__(d, k)
        self.loss_grad = np.empty((d, d))
        self.first_moment = np.zeros((d, d))
        self.second_moment = np.zeros((d, d))
        self.scratch2 = np.empty((d, d))
        self.residual: np.ndarray | None = None  # (B, d); allocated per batch size
        self.residual_sq: np.ndarray | None = None
        # (d, B) scaled batch transpose.  Kept F-contiguous (a transpose view
        # of a C-ordered (B, d) base) to mirror the layout the textbook
        # ``(2/n) * X.T`` expression produces — the BLAS accumulation order
        # depends on it, and a C-ordered buffer here drifts by 1 ulp.
        self.scaled_t: np.ndarray | None = None
        self.batch: np.ndarray | None = None

    def reset_moments(self) -> None:
        """Zero the Adam state (a fresh optimizer per outer iteration)."""
        self.first_moment.fill(0.0)
        self.second_moment.fill(0.0)

    def residual_for(self, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The (n_rows, d) residual + squared-residual buffers (reused)."""
        if self.residual is None or self.residual.shape[0] != n_rows:
            self.residual = np.empty((n_rows, self.d))
            self.residual_sq = np.empty((n_rows, self.d))
            self.scaled_t = np.empty((n_rows, self.d)).T
        return self.residual, self.residual_sq

    def batch_for(self, n_rows: int) -> np.ndarray:
        """The (n_rows, d) batch gather buffer for mini-batch iterations."""
        if self.batch is None or self.batch.shape[0] != n_rows:
            self.batch = np.empty((n_rows, self.d))
        return self.batch


# ---------------------------------------------------------------------------
# Numpy kernels: the fused update with out= calls over the workspace
# ---------------------------------------------------------------------------


def _np_fused_update(
    weights: np.ndarray,
    workspace: _Workspace,
    penalty_coefficient: float,
    l1_penalty: float,
    bias1: float,
    bias2: float,
    learning_rate: float,
    beta1: float,
    beta2: float,
    epsilon: float,
    threshold: float,
) -> float:
    """Buffered-numpy gradient combine + Adam step + threshold (in place).

    Arithmetic follows :class:`repro.core.optimizers.AdamOptimizer` exactly;
    only the storage strategy differs (moments and scratch live on the
    workspace).  Returns the pre-update ``Σ|W|``.
    """
    grad = workspace.loss_grad  # already holds the smooth data-fit gradient
    scratch = workspace.scratch
    scratch2 = workspace.scratch2
    m = workspace.first_moment
    v = workspace.second_moment

    np.abs(weights, out=scratch)
    abs_sum = float(scratch.sum())

    np.sign(weights, out=scratch)
    scratch *= l1_penalty
    grad += scratch
    np.multiply(workspace.cgrad, penalty_coefficient, out=scratch)
    grad += scratch
    np.fill_diagonal(grad, 0.0)

    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=scratch)
    m += scratch
    v *= beta2
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - beta2
    v += scratch

    np.divide(v, bias2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += epsilon
    np.divide(m, bias1, out=scratch2)
    scratch2 *= learning_rate
    scratch2 /= scratch
    weights -= scratch2

    np.fill_diagonal(weights, 0.0)
    if threshold > 0.0:
        np.abs(weights, out=scratch)
        np.less(scratch, threshold, out=workspace.mask)
        weights[workspace.mask] = 0.0
    return abs_sum


@dataclass(frozen=True)
class LEASTConfig:
    """Hyper-parameters of the LEAST solver (paper defaults).

    Attributes
    ----------
    k:
        Rounds of the spectral-bound iteration (paper: 5).
    alpha:
        Row/column balancing factor of the bound (paper: 0.9).
    l1_penalty:
        λ of the L1 regularizer (paper: 0.5 on artificial data).
    learning_rate:
        Adam step size for the inner loop (paper: 0.01).
    init_density:
        Density ζ of the random sparse initialization (paper: 1e-4; small
        graphs automatically get a floor so W never starts empty).
    batch_size:
        Mini-batch size B; ``None`` uses the full sample matrix.
    threshold:
        In-loop hard-thresholding value θ applied after every update.
    tolerance:
        Target value ε for the acyclicity measure.
    max_outer_iterations, max_inner_iterations:
        Iteration caps T_o and T_i of the two loops.
    rho_start, rho_growth, rho_max:
        Initial quadratic penalty, its growth factor per outer iteration, and
        a cap preventing numerical overflow.
    eta_start:
        Initial value of the Lagrange multiplier η (updated as
        ``η ← η + ρ δ(W*)`` after every outer iteration).
    inner_convergence_tol:
        Relative change of ℓ(W) below which the inner loop stops early.
    warm_start:
        If True (default) the inner loop re-uses the previous W between outer
        iterations instead of re-drawing a random initialization; this follows
        standard augmented-Lagrangian practice and converges in far fewer
        inner steps with no accuracy loss.
    track_h:
        If True also record the exact NOTEARS measure ``h(W)`` per outer
        iteration (O(d^3); used for the correlation study of Fig. 4) and use it
        as the termination check exactly as the paper does for its benchmark
        comparison.
    keep_history:
        If True store a copy of ``W`` after every outer iteration in
        ``LEASTResult.history``.  This enables the paper's evaluation protocol
        of grid-searching the stopping tolerance ε (see
        :func:`repro.core.model_selection.grid_search_epsilon_tau`) without
        re-running the solver.
    init_weights:
        Optional explicit initial weight matrix.  When given it replaces the
        random sparse initialization, which is how the serving layer
        (:mod:`repro.serve.warm_start`) re-learns a window starting from the
        previous window's solution instead of from scratch.  The per-call
        ``init_weights`` argument of :meth:`LEAST.fit` takes precedence over
        this field.
    """

    k: int = 5
    alpha: float = 0.9
    l1_penalty: float = 0.05
    learning_rate: float = 0.02
    init_density: float = 1e-4
    batch_size: int | None = None
    threshold: float = 0.0
    tolerance: float = 1e-4
    max_outer_iterations: int = 25
    max_inner_iterations: int = 600
    rho_start: float = 0.1
    rho_growth: float = 3.0
    rho_max: float = 1e16
    eta_start: float = 0.0
    inner_convergence_tol: float = 1e-6
    warm_start: bool = True
    track_h: bool = False
    keep_history: bool = False
    init_weights: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        check_unit_interval(self.alpha, "alpha")
        check_non_negative(self.l1_penalty, "l1_penalty")
        check_positive(self.learning_rate, "learning_rate")
        check_probability(self.init_density, "init_density")
        check_non_negative(self.threshold, "threshold")
        check_positive(self.tolerance, "tolerance")
        check_positive(self.max_outer_iterations, "max_outer_iterations")
        check_positive(self.max_inner_iterations, "max_inner_iterations")
        check_positive(self.rho_start, "rho_start")
        check_positive(self.rho_growth, "rho_growth")
        check_positive(self.rho_max, "rho_max")
        check_non_negative(self.eta_start, "eta_start")
        if self.init_weights is not None:
            init = np.asarray(self.init_weights)
            if init.ndim != 2 or init.shape[0] != init.shape[1]:
                raise ValidationError(
                    f"init_weights must be a square matrix, got shape {init.shape}"
                )


@dataclass
class LEASTResult:
    """Outcome of a LEAST (or NOTEARS) run.

    Attributes
    ----------
    weights:
        Learned weight matrix (raw, before any output thresholding).
    constraint_value:
        Final value of the acyclicity measure used by the solver.
    converged:
        True when the constraint dropped below the configured tolerance.
    n_outer_iterations:
        Number of outer (augmented Lagrangian) iterations executed.
    n_inner_iterations:
        Total number of inner (Adam) steps across all outer iterations; this
        is the quantity that warm starts reduce (solvers that do not track it
        leave it at 0).
    log:
        Per-outer-iteration trace: loss, δ(W), optionally h(W), ρ, η.
    """

    weights: np.ndarray
    constraint_value: float
    converged: bool
    n_outer_iterations: int
    n_inner_iterations: int = 0
    log: RunLog = field(default_factory=RunLog)
    history: list[np.ndarray] = field(default_factory=list)


class LEAST:
    """Dense LEAST solver (the paper's LEAST-TF analog).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graph import random_dag
    >>> from repro.sem import simulate_linear_sem
    >>> truth = random_dag("ER-2", 20, seed=0)
    >>> data = simulate_linear_sem(truth, 200, seed=1)
    >>> model = LEAST(LEASTConfig(max_outer_iterations=5, max_inner_iterations=50))
    >>> result = model.fit(data, seed=2)
    >>> result.weights.shape
    (20, 20)
    """

    def __init__(self, config: LEASTConfig | None = None):
        self.config = config or LEASTConfig()
        self._bound = SpectralAcyclicityBound(k=self.config.k, alpha=self.config.alpha)
        self._workspace: _Workspace | None = None

    # -- public API -----------------------------------------------------------

    def fit(
        self,
        data,
        seed: RandomState = None,
        init_weights: np.ndarray | None = None,
        on_outer_iteration=None,
    ) -> LEASTResult:
        """Learn a weighted DAG from the sample matrix ``data`` (n × d).

        Parameters
        ----------
        init_weights:
            Optional warm-start matrix overriding both the random sparse
            initialization and ``config.init_weights``; it must be ``d × d``.
            Used by :mod:`repro.serve` to seed a re-learn with the previous
            window's solution.
        on_outer_iteration:
            Optional ``callback(outer_iteration)`` invoked after every outer
            iteration — the hook point :class:`repro.core.backend.SolverBackend`
            uses for cooperative deadline checks; raising from it aborts the
            solve.
        """
        data = ensure_2d(data, "data")
        rng = as_generator(seed)
        config = self.config
        d = data.shape[1]

        explicit_init = init_weights if init_weights is not None else config.init_weights
        rho = config.rho_start
        eta = config.eta_start
        if explicit_init is not None:
            weights = self._prepare_init(explicit_init, d)
        else:
            weights = self._initialize(d, rng)
        log = RunLog()
        history: list[np.ndarray] = []

        converged = False
        constraint = np.inf
        outer_iteration = 0
        total_inner = 0
        for outer_iteration in range(1, config.max_outer_iterations + 1):
            if not config.warm_start and (explicit_init is None or outer_iteration > 1):
                weights = self._initialize(d, rng)
            weights, constraint, inner_loss, inner_steps = self._inner(
                data, weights, rho, eta, rng
            )
            total_inner += inner_steps
            record: dict[str, float] = {
                "outer_iteration": outer_iteration,
                "loss": inner_loss,
                "delta": constraint,
                "rho": rho,
                "eta": eta,
                "n_edges": float(np.count_nonzero(weights)),
                "inner_iterations": float(inner_steps),
            }
            termination_value = constraint
            if config.track_h:
                h_value = notears_constraint(weights)
                record["h"] = h_value
                termination_value = h_value
            log.append(**record)
            if config.keep_history:
                history.append(weights.copy())
            if on_outer_iteration is not None:
                on_outer_iteration(outer_iteration)

            if termination_value <= config.tolerance:
                converged = True
                break
            eta = eta + rho * constraint
            rho = min(rho * config.rho_growth, config.rho_max)

        return LEASTResult(
            weights=weights,
            constraint_value=constraint,
            converged=converged,
            n_outer_iterations=outer_iteration,
            n_inner_iterations=total_inner,
            log=log,
            history=history,
        )

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _prepare_init(init_weights: np.ndarray, d: int) -> np.ndarray:
        """Validate and normalize an explicit warm-start matrix."""
        weights = np.array(init_weights, dtype=float, copy=True)
        if weights.shape != (d, d):
            raise ValidationError(
                f"init_weights must have shape ({d}, {d}), got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValidationError("init_weights must be finite")
        np.fill_diagonal(weights, 0.0)
        return weights

    def _initialize(self, d: int, rng: np.random.Generator) -> np.ndarray:
        """Random sparse Glorot initialization with a floor on the edge count."""
        density = self.config.init_density
        # Guarantee a handful of non-zeros even for tiny graphs, otherwise the
        # gradient of the L1 term is the only signal in the first steps.
        minimum_density = min(1.0, 2.0 / max(d, 1))
        density = max(density, minimum_density)
        return glorot_sparse_init(d, density, rng)

    def _workspace_for(self, d: int) -> _Workspace:
        """The preallocated buffer set for ``d``-node problems (reused)."""
        if self._workspace is None or self._workspace.d != d:
            self._workspace = _Workspace(d, self.config.k)
        return self._workspace

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
        workspace = self._workspace_for(weights.shape[0])
        workspace.reset_moments()
        weights = np.array(weights, dtype=float, copy=True, order="C")
        data = np.ascontiguousarray(data, dtype=float)
        use_numba = KERNEL_SET == "numba"
        if use_numba:
            bound_kernel, update_kernel = _numba_kernels()

        n_samples = data.shape[0]
        batch_size = config.batch_size
        full_batch = batch_size is None or batch_size <= 0 or batch_size >= n_samples
        # AdamOptimizer's defaults.
        beta1, beta2, epsilon = 0.9, 0.999, 1e-8
        previous_objective = np.inf
        objective = np.inf

        steps = 0
        for steps in range(1, config.max_inner_iterations + 1):
            if full_batch:
                batch = data
            else:
                # Same RNG consumption as repro.core.losses.sample_batch.
                indices = rng.choice(n_samples, size=batch_size, replace=False)
                batch = workspace.batch_for(batch_size)
                np.take(data, indices, axis=0, out=batch)
            n_batch = max(batch.shape[0], 1)

            if use_numba:
                constraint = bound_kernel(
                    weights,
                    workspace.smats,
                    workspace.rsums,
                    workspace.csums,
                    workspace.balances,
                    workspace.grad_s,
                    workspace.cgrad,
                    config.k,
                    config.alpha,
                )
            else:
                # Writes the gradient into workspace.cgrad.
                constraint, _ = self._bound.value_and_gradient(weights, workspace)

            residual, residual_sq = workspace.residual_for(batch.shape[0])
            np.matmul(batch, weights, out=residual)
            residual -= batch
            np.multiply(residual, residual, out=residual_sq)
            smooth = float(residual_sq.sum()) / n_batch
            # ``(2/n) * X.T @ R`` scales X.T *before* the matmul (operator
            # precedence); matching that order through a contiguous buffer
            # keeps the gradient bitwise equal to the textbook expression.
            np.multiply(batch.T, 2.0 / n_batch, out=workspace.scaled_t)
            np.matmul(workspace.scaled_t, residual, out=workspace.loss_grad)

            penalty_coefficient = rho * constraint + eta
            bias1 = 1.0 - beta1**steps
            bias2 = 1.0 - beta2**steps
            if use_numba:
                abs_sum = update_kernel(
                    weights, workspace.loss_grad, workspace.cgrad, penalty_coefficient,
                    config.l1_penalty, workspace.first_moment, workspace.second_moment,
                    bias1, bias2, config.learning_rate, beta1, beta2, epsilon, config.threshold,
                )
            else:
                abs_sum = _np_fused_update(
                    weights, workspace, penalty_coefficient, config.l1_penalty,
                    bias1, bias2, config.learning_rate, beta1, beta2, epsilon, config.threshold,
                )

            loss_value = smooth + config.l1_penalty * abs_sum
            objective = loss_value + 0.5 * rho * constraint**2 + eta * constraint

            if np.isfinite(previous_objective):
                denominator = max(abs(previous_objective), 1e-12)
                if abs(previous_objective - objective) / denominator < config.inner_convergence_tol:
                    break
            previous_objective = objective

        constraint = self._bound.value(weights, workspace)
        return weights, constraint, float(objective), steps
