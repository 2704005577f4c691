"""Evaluation-time unfairness metrics and prediction error, and the term
code that defines each unfairness score for the training penalties too.

All five unfairness scores compare the disadvantaged (protected) user group
against the advantaged group. The four per-item scores average over items
where BOTH groups have at least one evaluation entry; items lacking a group
are dropped from numerator and denominator alike, and the count of surviving
items is reported alongside the scores.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, FactorModel, FairrecError, MetricReport, validate_dataset
from .factorization import Entries


class GroupCells:
    """The (group, item) cell of every entry of a triple set.

    Cell i holds the advantaged group's entries for item i and cell
    num_items + i the protected group's, so one bincount yields the per-item
    sums of both groups. It depends on the indices alone, so the trainer
    builds it once per run.
    """

    def __init__(self, user_idx: np.ndarray, item_idx: np.ndarray,
                 protected: np.ndarray, num_items: int):
        self.num_items = num_items
        self.in_protected = np.asarray(protected, dtype=bool)[user_idx]
        self.cell = item_idx + num_items * self.in_protected
        self.count = np.bincount(self.cell, minlength=2 * num_items).astype(np.float64)

    @property
    def comparable(self) -> np.ndarray:
        """Items with entries from both groups."""
        return (self.count.reshape(2, -1) > 0).all(axis=0)

    def means(self, values: np.ndarray) -> np.ndarray:
        """Per-cell means of one value per entry; 0.0 in empty cells."""
        sums = np.bincount(self.cell, weights=values, minlength=2 * self.num_items)
        return sums / np.maximum(self.count, 1.0)


def smooth_abs(x, eps: float):
    """|x| and its derivative, smoothed to sqrt(x^2 + eps^2) when eps > 0.

    At eps = 0 the derivative at 0 is sign(0) = 0.
    """
    if eps > 0.0:
        root = np.sqrt(x * x + eps * eps)
        return root, x / root
    return np.abs(x), np.sign(x)


def item_terms(kind: str, dp: np.ndarray, da: np.ndarray, eps: float = 0.0):
    """Per-item unfairness terms and their derivatives w.r.t. each group's D.

    D is a group's signed estimation error on an item: its average prediction
    minus its average truth. Returns (phi, dphi/dDp, dphi/dDa). A per-item
    metric is the mean of phi at eps = 0; the matching training penalty is
    the same mean at the spec's smoothing.
    """
    if kind == "value":
        inner_p, slope_p = dp, 1.0
        inner_a, slope_a = da, 1.0
    elif kind == "absolute":
        inner_p, slope_p = smooth_abs(dp, eps)
        inner_a, slope_a = smooth_abs(da, eps)
    elif kind == "under":
        inner_p, slope_p = np.maximum(-dp, 0.0), -(dp < 0).astype(np.float64)
        inner_a, slope_a = np.maximum(-da, 0.0), -(da < 0).astype(np.float64)
    elif kind == "over":
        inner_p, slope_p = np.maximum(dp, 0.0), (dp > 0).astype(np.float64)
        inner_a, slope_a = np.maximum(da, 0.0), (da > 0).astype(np.float64)
    else:
        raise ValueError(f"unknown per-item unfairness kind {kind!r}")
    phi, outer = smooth_abs(inner_p - inner_a, eps)
    return phi, outer * slope_p, -outer * slope_a


def group_gap(preds: np.ndarray, in_protected: np.ndarray) -> float:
    """Protected minus advantaged mean prediction, the argument of the parity
    term |gap|."""
    if not in_protected.any() or in_protected.all():
        raise FairrecError("both groups need at least one entry")
    return np.mean(preds[in_protected]) - np.mean(preds[~in_protected])


def full_report(model: FactorModel, eval_data: Dataset,
                error_metric: str = "rmse") -> MetricReport:
    """Prediction error and all five unfairness scores of a model on the
    entries of ``eval_data``, split into groups by its protected flags."""
    if error_metric not in ("rmse", "mse"):
        raise FairrecError(f"unknown error metric {error_metric!r}")
    if eval_data.num_ratings == 0:
        raise FairrecError("evaluation set has no entries")
    validate_dataset(eval_data)
    u, i, truth = eval_data.user_idx, eval_data.item_idx, eval_data.values
    preds = Entries(eval_data).predict(model)
    err = float(np.mean((preds - truth) ** 2))
    cells = GroupCells(u, i, eval_data.protected, eval_data.num_items)
    valid = cells.comparable
    if not valid.any():
        raise FairrecError("no item has evaluation entries from both groups")
    da, dp = (cells.means(preds) - cells.means(truth)).reshape(2, -1)[:, valid]
    scores = {kind: float(np.mean(item_terms(kind, dp, da)[0]))
              for kind in ("value", "absolute", "under", "over")}
    parity, _ = smooth_abs(group_gap(preds, cells.in_protected), 0.0)
    return MetricReport(error=float(np.sqrt(err)) if error_metric == "rmse" else err,
                        parity=float(parity), items_counted=int(valid.sum()), **scores)
