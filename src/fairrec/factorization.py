"""Biased matrix-factorization prediction, and the chain rule from the
predictions to the parameters: the gradient of any loss that depends on the
model through its predictions, plus that of the Frobenius term on the
factors. The training loss itself is built in ``penalties``.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, FactorModel, FairrecError

# Fill from which the score matrix is the faster path. With d = 4 on a
# 2-core host, the matrix plus one read-out overtook the gathers near 10% fill
# at 400 x 300 (0.20 against 0.29 ms) and at 3000 x 1005 (9.1 against 9.4 ms),
# and took a quarter of their time at 30%. At the MovieLens-1M shape (6040 x
# 3706, 4.5% fill) it took twice as long (91 against 45 ms).
DENSE_FILL = 0.1

# Fill from which the gradient's products take dense row blocks, not one CSR
# matrix. Since the CSR branch runs the same products with the biases folded
# in (C @ [Q | 1]), which made it 1.7-2.1 times faster, it is ahead up to about
# 20% fill at 400 x 300 and 25-35% at 3000 x 1005 (d = 4, a 2-core host). The
# threshold stays at 15% all the same: set at the crossover, it would send the
# training split of the generated MovieLens-scale data (about 24% filled) to
# CSR, which pays a cold `import scipy.sparse` of about 0.2 s. A benchmark
# workload at MovieLens-1M's sparsity is to settle it (ROADMAP item 5).
DENSE_GRADIENT_FILL = 0.15

# OpenBLAS runs a matrix product of at most 2**18 multiply-adds on the calling
# thread alone. Dense products are built from row blocks of that size, so their
# bits do not depend on the BLAS thread count (a product split across threads
# can differ in the last bit). A one-row block exceeds it only beyond
# 2**18 / (d + 2) items.
_BLOCK_MULADDS = 2**18


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


def _row_blocks(n: int, m: int, width: int) -> list:
    """(start, stop) row ranges splitting an n x m matrix so that its product
    with an m x width matrix stays within _BLOCK_MULADDS per block."""
    rows = max(1, _BLOCK_MULADDS // (m * width))
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def score_matrix(model: FactorModel) -> np.ndarray:
    """Predictions for every (user, item) pair, as [P | bu | 1] @ [Q | 1 | bi].T,
    which folds both bias adds into the product. A diverging model's scores
    overflow to inf or nan with numpy's RuntimeWarning."""
    n, m = model.num_users, model.num_items
    left = np.hstack([model.user_factors, model.user_bias[:, None], np.ones((n, 1))])
    right = np.hstack([model.item_factors, np.ones((m, 1)), model.item_bias[:, None]]).T
    scores = np.empty((n, m))
    for start, stop in _row_blocks(n, m, left.shape[1]):
        np.matmul(left[start:stop], right, out=scores[start:stop])
    return scores


class Entries:
    """Predictions at one dataset's entries, and the gradient of any loss that
    reaches the model through them only: with one coefficient per entry, the
    entries of a user x item matrix C, [dP | dbu] = C [Q | 1] and
    [dQ | dbi] = C^T [P | 1].

    Each use picks its path once, by the data's fill (observed fraction of
    the grid). From DENSE_FILL up, predictions are read out of score_matrix at
    flat indices u * m + i; below it they are gathered by predict_entries.
    From DENSE_GRADIENT_FILL up, C is written into zeroed row blocks; below
    it, C is one CSR matrix, a single block. Both storages run the same two
    products, the C^T ones summed over the blocks in order, and rely on
    entries sorted by (user, item): a row block's entries are one slice, and
    CSR data order is entry order. The paths agree to rounding. The
    gradient's structure is built at its first use, so prediction alone never
    loads scipy.
    """

    def __init__(self, data: Dataset):
        self._data = data
        grid = data.num_users * data.num_items
        self.dense_predict = data.num_ratings >= DENSE_FILL * grid
        self.dense_gradient = data.num_ratings >= DENSE_GRADIENT_FILL * grid
        if self.dense_predict or self.dense_gradient:
            self._flat = data.user_idx * data.num_items + data.item_idx
        self._row_starts = None

    def _check(self, model: FactorModel) -> None:
        data = self._data
        if (model.num_users, model.num_items) != (data.num_users, data.num_items):
            raise FairrecError(f"model is {model.num_users} x {model.num_items}, "
                               f"data {data.num_users} x {data.num_items}")

    def predict(self, model: FactorModel) -> np.ndarray:
        self._check(model)
        if self.dense_predict:
            return score_matrix(model).ravel().take(self._flat)
        return predict_entries(model, self._data.user_idx, self._data.item_idx)

    def _blocks(self, coeffs: np.ndarray, width: int):
        """C as (start, stop, rows start:stop of C), in row order; a dense
        block's product with a width-column matrix stays within
        _BLOCK_MULADDS. Each block is valid until the next is drawn."""
        data = self._data
        n, m = data.num_users, data.num_items
        if self._row_starts is None:
            # the entries of user u are row_starts[u]:row_starts[u + 1]
            self._row_starts = np.concatenate(
                ([0], np.cumsum(np.bincount(data.user_idx, minlength=n))))
            if not self.dense_gradient:
                # imported here, its only use: scipy.sparse is most of a
                # cold start, and dense data never needs it
                from scipy.sparse import csr_matrix

                self._matrix = csr_matrix((np.zeros(data.num_ratings), data.item_idx,
                                           self._row_starts), shape=(n, m))
        if not self.dense_gradient:
            self._matrix.data = coeffs
            yield 0, n, self._matrix
            return
        blocks = _row_blocks(n, m, width)
        buffer = np.empty((blocks[0][1] - blocks[0][0]) * m)
        for start, stop in blocks:
            lo, hi = self._row_starts[start], self._row_starts[stop]
            C = buffer[:(stop - start) * m]
            C.fill(0.0)
            C[self._flat[lo:hi] - start * m] = coeffs[lo:hi]
            yield start, stop, C.reshape(stop - start, m)

    def gradient(self, model: FactorModel, coeffs: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """The flat_params-layout gradient of sum_e coeffs[e] * prediction_e,
        plus that of the Frobenius term lam/2 * (||P||^2 + ||Q||^2) when lam
        is given."""
        self._check(model)
        n, m, d = model.num_users, model.num_items, model.d
        left = np.hstack([model.user_factors, np.ones((n, 1))])
        right = np.hstack([model.item_factors, np.ones((m, 1))])
        user = np.empty((n, d + 1))
        item = np.zeros((m, d + 1))
        for start, stop, C in self._blocks(coeffs, d + 1):
            user[start:stop] = C @ right
            item += C.T @ left[start:stop]
        return np.concatenate([
            (user[:, :d] + lam * model.user_factors).ravel(),
            (item[:, :d] + lam * model.item_factors).ravel(),
            user[:, d], item[:, d],
        ])

