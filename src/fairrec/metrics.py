"""Evaluation-time unfairness metrics and prediction error, and the term
code that defines each unfairness score for the training penalties too.

All five unfairness scores compare the disadvantaged (protected) user group
against the advantaged group. The four per-item scores average over items
where BOTH groups have at least one evaluation entry; items lacking a group
are dropped from numerator and denominator alike, and the count of surviving
items is reported alongside the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    EmptyEvalSetError,
    EmptyGroupError,
    FactorModel,
    MetricReport,
    NoComparableItemsError,
    UnsupportedFormatError,
    _by_user_item,
)
from .factorization import _check_bounds, predict_entries

HELD_OUT = "held-out-ratings"
EXPECTED_VALUES = "expected-values"


@dataclass(frozen=True)
class EvalSet:
    """Triples to evaluate a model on, canonically sorted by (user, item).

    ``source`` records whether the truths are held-out observed ratings or
    block-model expected values; it does not change any computation.
    """

    user_idx: np.ndarray
    item_idx: np.ndarray
    values: np.ndarray
    source: str = HELD_OUT

    def __post_init__(self):
        u = np.asarray(self.user_idx, dtype=np.int64)
        i = np.asarray(self.item_idx, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        if not (u.ndim == i.ndim == v.ndim == 1 and len(u) == len(i) == len(v)):
            raise ValueError("user_idx, item_idx, values must be 1-d and equally long")
        if len(u) == 0:
            raise EmptyEvalSetError("evaluation set has no entries")
        if u.min() < 0 or i.min() < 0:
            raise ValueError("negative evaluation indices")
        for name, arr in zip(("user_idx", "item_idx", "values"), _by_user_item(u, i, v)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_dataset(cls, d: Dataset, source: str = HELD_OUT) -> "EvalSet":
        return cls(d.user_idx, d.item_idx, d.values, source)


@dataclass(frozen=True)
class GroupItemAverages:
    """Per-item mean predicted and true scores, split by user group.

    Averages are meaningful only where the matching count is positive; absent
    cells are filled with 0.0 and must be gated on the counts.
    """

    pred_protected: np.ndarray
    true_protected: np.ndarray
    count_protected: np.ndarray
    pred_advantaged: np.ndarray
    true_advantaged: np.ndarray
    count_advantaged: np.ndarray

    @property
    def comparable(self) -> np.ndarray:
        """Items with evaluation entries from both groups."""
        return (self.count_protected > 0) & (self.count_advantaged > 0)


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
        raise EmptyGroupError("both groups need at least one entry")
    return np.mean(preds[in_protected]) - np.mean(preds[~in_protected])


def _predictions(model: FactorModel, eval_set: EvalSet) -> np.ndarray:
    _check_bounds(model, eval_set.user_idx, eval_set.item_idx)
    return predict_entries(model, eval_set.user_idx, eval_set.item_idx)


def _averages(preds: np.ndarray, eval_set: EvalSet, protected: np.ndarray,
              num_items: int) -> GroupItemAverages:
    cells = GroupCells(eval_set.user_idx, eval_set.item_idx, protected, num_items)
    pred = cells.means(preds)
    true = cells.means(eval_set.values)
    m = num_items
    return GroupItemAverages(pred[m:], true[m:], cells.count[m:],
                             pred[:m], true[:m], cells.count[:m])


def group_item_averages(model: FactorModel, eval_set: EvalSet,
                        protected: np.ndarray) -> GroupItemAverages:
    """Average predictions and truths per item, separately per user group."""
    return _averages(_predictions(model, eval_set), eval_set, protected, model.num_items)


def _item_unfairness(kind: str, avgs: GroupItemAverages) -> float:
    valid = avgs.comparable
    if not valid.any():
        raise NoComparableItemsError("no item has evaluation entries from both groups")
    phi, _, _ = item_terms(kind, avgs.pred_protected[valid] - avgs.true_protected[valid],
                           avgs.pred_advantaged[valid] - avgs.true_advantaged[valid])
    return float(np.mean(phi))


def value_unfairness(avgs: GroupItemAverages) -> float:
    """Mean per-item gap between the groups' signed estimation errors."""
    return _item_unfairness("value", avgs)


def absolute_unfairness(avgs: GroupItemAverages) -> float:
    """Mean per-item gap between the groups' unsigned estimation errors."""
    return _item_unfairness("absolute", avgs)


def underestimation_unfairness(avgs: GroupItemAverages) -> float:
    """Mean per-item gap between how much each group is underestimated."""
    return _item_unfairness("under", avgs)


def overestimation_unfairness(avgs: GroupItemAverages) -> float:
    """Mean per-item gap between how much each group is overestimated."""
    return _item_unfairness("over", avgs)


def _parity(preds: np.ndarray, eval_set: EvalSet, protected: np.ndarray) -> float:
    in_protected = np.asarray(protected, dtype=bool)[eval_set.user_idx]
    phi, _ = smooth_abs(group_gap(preds, in_protected), 0.0)
    return float(phi)


def non_parity(model: FactorModel, eval_set: EvalSet, protected: np.ndarray) -> float:
    """Absolute difference between the groups' overall mean predictions."""
    return _parity(_predictions(model, eval_set), eval_set, protected)


def _mse(preds: np.ndarray, eval_set: EvalSet) -> float:
    return float(np.mean((preds - eval_set.values) ** 2))


def rmse(model: FactorModel, eval_set: EvalSet) -> float:
    """Root mean squared prediction error over the evaluation entries."""
    return float(np.sqrt(_mse(_predictions(model, eval_set), eval_set)))


def mse(model: FactorModel, eval_set: EvalSet) -> float:
    """Mean squared prediction error, for setups that avoid the square root."""
    return _mse(_predictions(model, eval_set), eval_set)


def full_report(model: FactorModel, eval_set: EvalSet, protected: np.ndarray,
                error_metric: str = "rmse") -> MetricReport:
    """Bundle prediction error and all five unfairness scores."""
    if error_metric not in ("rmse", "mse"):
        raise UnsupportedFormatError(f"unknown error metric {error_metric!r}")
    preds = _predictions(model, eval_set)
    err = _mse(preds, eval_set)
    avgs = _averages(preds, eval_set, protected, model.num_items)
    return MetricReport(
        error=float(np.sqrt(err)) if error_metric == "rmse" else err,
        value=value_unfairness(avgs),
        absolute=absolute_unfairness(avgs),
        under=underestimation_unfairness(avgs),
        over=overestimation_unfairness(avgs),
        parity=_parity(preds, eval_set, protected),
        items_counted=int(avgs.comparable.sum()),
    )
