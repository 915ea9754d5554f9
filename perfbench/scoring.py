"""Structure scores shared by the workloads' output checks."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: |weight| above which a learned entry counts as an edge (the paper's τ).
EDGE_THRESHOLD = 0.3


def edge_pattern(weights, threshold: float = EDGE_THRESHOLD) -> sp.csr_matrix:
    """Boolean CSR pattern of ``|weights| > threshold`` off the diagonal."""
    matrix = sp.csr_matrix(weights) if not sp.issparse(weights) else weights.tocsr()
    pattern = abs(matrix) > threshold
    pattern.setdiag(False)
    pattern.eliminate_zeros()
    return pattern.tocsr()


def edge_scores(weights, truth, threshold: float = EDGE_THRESHOLD) -> dict[str, float]:
    """Directed precision, recall and F1 of the thresholded graph."""
    predicted = edge_pattern(weights, threshold)
    true = edge_pattern(truth, 0.0)
    hits = int(predicted.multiply(true).nnz)
    precision = hits / predicted.nnz if predicted.nnz else 0.0
    recall = hits / true.nnz if true.nnz else 0.0
    f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n_predicted": int(predicted.nnz),
    }


def nnz(weights) -> int:
    return int(weights.nnz) if sp.issparse(weights) else int(np.count_nonzero(weights))
