"""Biased matrix-factorization prediction, its squared-error objective, and
the gradient of any loss that depends on the model through its predictions.

The objective is  lam/2 * (||P||_F^2 + ||Q||_F^2) + mean over observed
entries of (prediction - rating)^2.  Bias terms are deliberately left out of
the Frobenius penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .core import (
    Dataset,
    EmptyTrainingSetError,
    FactorModel,
    IndexOutOfRangeError,
    ShapeMismatchError,
)

# Fill from which the score matrix is the faster path. With d = 4 on a
# 2-core host, the matrix plus one read-out overtook the gathers near 10% fill
# at 400 x 300 (0.20 against 0.29 ms) and at 3000 x 1005 (9.1 against 9.4 ms),
# and took a quarter of their time at 30%. At the MovieLens-1M shape (6040 x
# 3706, 4.5% fill) it took twice as long (91 against 45 ms).
DENSE_FILL = 0.1

# OpenBLAS runs a matrix product of at most 2**18 multiply-adds on the calling
# thread alone. The score matrix is built from row blocks of that size, so its
# bits do not depend on the BLAS thread count (a product split across threads
# can differ in the last bit). A one-row block exceeds it only beyond
# 2**18 / (d + 2) items.
_BLOCK_MULADDS = 2**18


@dataclass(frozen=True)
class Gradient:
    """Partial derivatives with respect to every model parameter block."""

    d_user_factors: np.ndarray
    d_item_factors: np.ndarray
    d_user_bias: np.ndarray
    d_item_bias: np.ndarray


def flat_params(model: FactorModel) -> np.ndarray:
    """All parameters as one vector: P, Q (row-major), then bu and bi."""
    return np.concatenate([model.user_factors.ravel(), model.item_factors.ravel(),
                           model.user_bias, model.item_bias])


def param_blocks(flat: np.ndarray, num_users: int, num_items: int, d: int) -> tuple:
    """Views of the four blocks (P, Q, bu, bi) of a flat_params-layout vector."""
    nd, md = num_users * d, num_items * d
    return (flat[:nd].reshape(num_users, d), flat[nd:nd + md].reshape(num_items, d),
            flat[nd + md:nd + md + num_users], flat[nd + md + num_users:])


def predict_entries(model: FactorModel, user_idx: np.ndarray, item_idx: np.ndarray) -> np.ndarray:
    """Vectorized predictions for parallel index arrays (assumed in bounds)."""
    P = model.user_factors.take(user_idx, axis=0)
    Q = model.item_factors.take(item_idx, axis=0)
    return (np.einsum("ij,ij->i", P, Q)
            + model.user_bias.take(user_idx) + model.item_bias.take(item_idx))


def score_matrix(model: FactorModel) -> np.ndarray:
    """Predictions for every (user, item) pair, as [P | bu | 1] @ [Q | 1 | bi].T,
    which folds both bias adds into the product."""
    n, m = model.num_users, model.num_items
    left = np.hstack([model.user_factors, model.user_bias[:, None], np.ones((n, 1))])
    right = np.hstack([model.item_factors, np.ones((m, 1)), model.item_bias[:, None]]).T
    scores = np.empty((n, m))
    rows = max(1, _BLOCK_MULADDS // (m * left.shape[1]))
    # a diverging model overflows here; the trainer turns that into a
    # DivergenceError, so the overflow itself is not worth a warning
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            np.matmul(left[start:start + rows], right, out=scores[start:start + rows])
    return scores


class EntryPredictor:
    """Predictions at one dataset's entries, for models of the data's shape.

    The path is chosen here, once, by the data's fill (observed fraction of
    the user x item grid): from DENSE_FILL up, the entries are read out of
    score_matrix at flat indices u * m + i, built once; below it they are
    gathered by predict_entries. The two agree to rounding. The dataset's
    indices must already be checked against its shape.
    """

    def __init__(self, data: Dataset):
        self._shape = (data.num_users, data.num_items)
        self._user_idx, self._item_idx = data.user_idx, data.item_idx
        self.dense = data.num_ratings >= DENSE_FILL * data.num_users * data.num_items
        if self.dense:
            self._flat = data.user_idx * data.num_items + data.item_idx

    def __call__(self, model: FactorModel) -> np.ndarray:
        if (model.num_users, model.num_items) != self._shape:
            raise ShapeMismatchError(
                f"model is {model.num_users} x {model.num_items}, "
                f"data {self._shape[0]} x {self._shape[1]}")
        if self.dense:
            return score_matrix(model).ravel().take(self._flat)
        return predict_entries(model, self._user_idx, self._item_idx)


def _check_bounds(model: FactorModel, user_idx: np.ndarray, item_idx: np.ndarray) -> None:
    if len(user_idx) == 0:
        return
    if user_idx.min() < 0 or user_idx.max() >= model.num_users:
        raise IndexOutOfRangeError(f"user index outside [0, {model.num_users})")
    if item_idx.min() < 0 or item_idx.max() >= model.num_items:
        raise IndexOutOfRangeError(f"item index outside [0, {model.num_items})")


class EntryGradient:
    """Gradient of sum_e coeffs[e] * prediction_e over one dataset's entries.

    Every loss here differentiates through predictions only, so its gradient
    is fully described by one coefficient per observed entry. The
    coefficients become the data of a user x item CSR matrix C whose
    structure is built once: Dataset entries are sorted by (user, item), so
    CSR data order is entry order. Then dP = C Q, dQ = C^T P, and the bias
    gradients are the row and column sums of C.
    """

    def __init__(self, data: Dataset):
        indptr = np.concatenate(([0], np.cumsum(np.bincount(data.user_idx,
                                                            minlength=data.num_users))))
        self._matrix = csr_matrix((np.zeros(data.num_ratings), data.item_idx, indptr),
                                  shape=(data.num_users, data.num_items))
        self._user_idx = data.user_idx
        self._item_idx = data.item_idx

    def __call__(self, model: FactorModel, coeffs: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """The flat_params-layout gradient, plus that of the Frobenius term
        lam/2 * (||P||^2 + ||Q||^2) when lam is given."""
        C = self._matrix
        C.data = coeffs
        return np.concatenate([
            (C @ model.item_factors + lam * model.user_factors).ravel(),
            (C.T @ model.user_factors + lam * model.item_factors).ravel(),
            np.bincount(self._user_idx, weights=coeffs, minlength=model.num_users),
            np.bincount(self._item_idx, weights=coeffs, minlength=model.num_items),
        ])


def squared_error(model: FactorModel, preds: np.ndarray, train: Dataset,
                  lam: float) -> tuple[float, np.ndarray]:
    """The objective at the given training predictions, and its derivative
    with respect to each prediction, (2/k) * residual."""
    resid = preds - train.values
    # a diverging model overflows to inf here; the trainer turns that into
    # a DivergenceError, so the overflow itself is not worth a warning
    with np.errstate(over="ignore"):
        reg = 0.5 * lam * (
            float(np.sum(model.user_factors**2)) + float(np.sum(model.item_factors**2))
        )
        value = reg + float(np.mean(resid**2))
    return value, (2.0 / train.num_ratings) * resid


def _training_predictions(model: FactorModel, train: Dataset, what: str) -> np.ndarray:
    if train.num_ratings == 0:
        raise EmptyTrainingSetError(f"{what} needs at least one rating")
    _check_bounds(model, train.user_idx, train.item_idx)
    return EntryPredictor(train)(model)


def objective(model: FactorModel, train: Dataset, lam: float) -> float:
    """Regularized mean squared reconstruction error on the training set."""
    preds = _training_predictions(model, train, "objective")
    return squared_error(model, preds, train, lam)[0]


def objective_gradient(model: FactorModel, train: Dataset, lam: float) -> Gradient:
    """Analytic gradient of ``objective``.

    Each observed entry contributes (2/k) * residual through the prediction;
    the Frobenius term adds lam * P and lam * Q for every row, including rows
    untouched by any rating. Biases receive no regularization.
    """
    preds = _training_predictions(model, train, "objective gradient")
    _, coeffs = squared_error(model, preds, train, lam)
    flat = EntryGradient(train)(model, coeffs, lam)
    return Gradient(*param_blocks(flat, model.num_users, model.num_items, model.d))
