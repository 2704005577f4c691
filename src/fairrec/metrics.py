"""The five unfairness measures, each defined once as the evaluation metric
and the training penalty term of the same name, and the evaluation report.

All five compare the disadvantaged (protected) user group against the
advantaged group. The four per-item measures average over items where BOTH
groups have at least one entry; items lacking a group are dropped from
numerator and denominator alike, and the count of surviving items is
reported alongside the scores.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, FactorModel, FairrecError, METRIC_FIELDS, MetricReport, _frozen
from .factorization import Entries

# the unfairness measures, in report order after the error
KINDS = METRIC_FIELDS[1:]


def smooth_abs(x, eps: float):
    """|x| and its derivative, smoothed to sqrt(x^2 + eps^2) when eps > 0.

    At eps = 0 the derivative at 0 is sign(0) = 0.
    """
    if eps > 0.0:
        root = np.sqrt(x * x + eps * eps)
        return root, x / root
    return np.abs(x), np.sign(x)


def item_terms(kind: str, D: np.ndarray, eps: float = 0.0):
    """Per-item unfairness terms and their derivatives w.r.t. each group's D.

    D is a group's signed estimation error on an item: its average prediction
    minus its average truth, given as a (2, items) array, the advantaged
    group's row first. Returns (phi, dphi/dD), the latter shaped like D. A
    per-item metric is the mean of phi at eps = 0; the matching training
    penalty is the same mean at the spec's smoothing.
    """
    if kind == "value":
        inner, slope = D, 1.0
    elif kind == "absolute":
        inner, slope = smooth_abs(D, eps)
    elif kind == "under":
        inner, slope = np.maximum(-D, 0.0), -(D < 0).astype(np.float64)
    elif kind == "over":
        inner, slope = np.maximum(D, 0.0), (D > 0).astype(np.float64)
    else:
        raise FairrecError(f"unknown per-item unfairness kind {kind!r}")
    phi, outer = smooth_abs(inner[1] - inner[0], eps)
    return phi, np.stack([-outer, outer]) * slope


class Unfairness:
    """The unfairness measures of one dataset's entries, valued and
    differentiated at any predictions of them. Cell i holds the advantaged
    group's entries for item i and cell num_items + i the protected group's.
    The data-only work is done here, once per dataset: ``of`` builds it at
    the dataset's first use and keeps it with the dataset, and every spec of
    a trial shares it.
    """

    def __init__(self, data: Dataset):
        self._in_protected = _frozen(data.protected[data.user_idx])
        # writeable: numpy's bincount and take copy a read-only index at every call
        self.cell = data.item_idx + data.num_items * self._in_protected
        self.count = _frozen(np.bincount(self.cell, minlength=2 * data.num_items)
                             .astype(np.float64))
        self.comparable = _frozen((self.count.reshape(2, -1) > 0).all(axis=0))
        self.n_p = int(self._in_protected.sum())
        self.n_a = data.num_ratings - self.n_p
        self._scale = _frozen(self.comparable.sum()
                              * self.count.reshape(2, -1)[:, self.comparable])
        self.true_means = _frozen(self._means(data.values))

    @classmethod
    def of(cls, data: Dataset, kinds, what: str) -> "Unfairness":
        """data's Unfairness, checked at each use for the ``kinds`` that calls
        will ask for; ``what`` names the entries in the error when they
        cannot be measured."""
        unfairness = data._kept(cls)
        if set(kinds) - {"parity"} and not unfairness.comparable.any():
            raise FairrecError(f"no item has {what} from both groups")
        if "parity" in kinds and (unfairness.n_p == 0 or unfairness.n_a == 0):
            raise FairrecError("both groups need at least one training rating")
        return unfairness

    def _means(self, values: np.ndarray) -> np.ndarray:
        """Per-cell means of one value per entry; 0.0 in empty cells."""
        sums = np.bincount(self.cell, weights=values, minlength=len(self.count))
        return sums / np.maximum(self.count, 1.0)

    def __call__(self, preds: np.ndarray, terms, eps: float = 0.0) -> tuple[list, np.ndarray]:
        """The value of each (kind, weight) term at the entries' predictions,
        and the derivative of the terms' weighted sum w.r.t. the prediction
        of an entry in each cell. An entry weighs 1/(entries) in its cell's
        and its group's means, and a comparable item 1/(comparable items).
        """
        values = []
        cell_coeffs = np.zeros(len(self.count))
        if any(kind != "parity" for kind, _ in terms):
            D = (self._means(preds) - self.true_means).reshape(2, -1)[:, self.comparable]
        for kind, weight in terms:
            if kind == "parity":
                phi, slope = smooth_abs(np.mean(preds[self._in_protected])
                                        - np.mean(preds[~self._in_protected]), eps)
                advantaged, protected = cell_coeffs.reshape(2, -1)
                advantaged += weight * (-slope / self.n_a)
                protected += weight * (slope / self.n_p)
            else:
                phi, grad = item_terms(kind, D, eps)
                phi = np.mean(phi)
                cell_coeffs.reshape(2, -1)[:, self.comparable] += weight * (grad / self._scale)
            values.append(float(phi))
        return values, cell_coeffs


# predictions that overflow make a score inf or nan, which raises a
# FairrecError below, so neither is worth a warning
@np.errstate(over="ignore", invalid="ignore")
def full_report(model: FactorModel, eval_data: Dataset,
                error_metric: str = "rmse") -> MetricReport:
    """Prediction error and all five unfairness scores of a model on the
    entries of ``eval_data``, split into groups by its protected flags.
    Raises FairrecError when a score is not finite."""
    if error_metric not in ("rmse", "mse"):
        raise FairrecError(f"unknown error metric {error_metric!r}")
    if eval_data.num_ratings == 0:
        raise FairrecError("evaluation set has no entries")
    preds = eval_data._kept(Entries).predict(model)
    err = float(np.mean((preds - eval_data.values) ** 2))
    unfairness = Unfairness.of(eval_data, KINDS, "evaluation entries")
    values, _ = unfairness(preds, [(kind, 1.0) for kind in KINDS])
    scores = dict(zip(METRIC_FIELDS, [err, *values]))
    bad = [name for name, x in scores.items() if not np.isfinite(x)]
    if bad:
        raise FairrecError(f"the model's predictions overflow: {', '.join(bad)} not finite")
    if error_metric == "rmse":
        scores["error"] = float(np.sqrt(err))
    return MetricReport(items_counted=int(unfairness.comparable.sum()), **scores)
