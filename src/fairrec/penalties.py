"""Training-time unfairness penalties, their analytic subgradients, and the
combined training objective.

A penalty is a weighted sum of the unfairness scores, computed over the
observed training ratings only (held-out truth must stay invisible to the
learner). Each score is the evaluation metric of the same name, computed by
the same term code in ``metrics``. Each score is piecewise smooth; at kinks
the subgradient conventions are sign(0) = 0 and hinge'(0) = 0, so a
perfectly fair model is a stationary point. An optional smoothing mode replaces every absolute value
with sqrt(x^2 + eps^2) for kink-sensitivity studies; it is off by default so
the penalty equals the literal metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    EmptyGroupError,
    EmptyTrainingSetError,
    FactorModel,
    NoComparableItemsError,
    UnsupportedFormatError,
    validate_dataset,
)
from .factorization import (
    EntryGradient,
    EntryPredictor,
    Gradient,
    _training_predictions,
    param_blocks,
    squared_error,
)
from .metrics import GroupCells, group_gap, item_terms, smooth_abs

PENALTY_KINDS = ("value", "absolute", "under", "over", "parity")


@dataclass(frozen=True)
class PenaltySpec:
    """Which unfairness terms to penalize, with weights.

    ``terms`` is a tuple of (kind, weight) pairs; an empty tuple means no
    penalty. ``smoothing`` is the epsilon of the smoothed absolute value,
    0.0 for the exact subgradient conventions.
    """

    terms: tuple = ()
    smoothing: float = 0.0

    def __post_init__(self):
        terms = tuple((str(kind), float(weight)) for kind, weight in self.terms)
        for kind, weight in terms:
            if kind not in PENALTY_KINDS:
                raise UnsupportedFormatError(f"unknown penalty kind {kind!r}")
            if not np.isfinite(weight) or weight < 0:
                raise ValueError(f"penalty weight for {kind!r} must be finite and >= 0")
        kinds = [kind for kind, _ in terms]
        if len(set(kinds)) != len(kinds):
            raise ValueError("each penalty kind may appear only once")
        if not (np.isfinite(self.smoothing) and self.smoothing >= 0):
            raise ValueError("smoothing must be finite and >= 0")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "smoothing", float(self.smoothing))

    @property
    def is_none(self) -> bool:
        return not self.terms

    @property
    def label(self) -> str:
        """Canonical name, parseable back by parse_penalty."""
        if self.is_none:
            return "none"
        parts = [kind if weight == 1.0 else f"{kind}:{weight:g}" for kind, weight in self.terms]
        return "+".join(parts)

    @classmethod
    def none(cls) -> "PenaltySpec":
        return cls(())

    @classmethod
    def single(cls, kind: str, weight: float = 1.0, smoothing: float = 0.0) -> "PenaltySpec":
        return cls(((kind, weight),), smoothing)


def parse_penalty(text: str, smoothing: float = 0.0) -> PenaltySpec:
    """Parse "none", "value", "under:0.5,over:0.5", or "under+over"."""
    stripped = text.strip().lower()
    if not stripped:
        raise ValueError("empty penalty specification")
    parts = [p for chunk in stripped.split(",") for p in chunk.split("+")]
    if "none" in parts:
        if len(parts) > 1:
            raise ValueError('"none" cannot be combined with other penalty terms')
        return PenaltySpec((), smoothing)
    terms = []
    for part in parts:
        kind, sep, weight = part.partition(":")
        terms.append((kind.strip(), float(weight) if sep else 1.0))
    return PenaltySpec(tuple(terms), smoothing)


class _PenaltyTerms:
    """The active terms of one penalty spec on one training set.

    Everything the terms need besides the predictions (group cells, true
    group-item averages, comparable items, group sizes) depends on the data
    alone, so it is computed once here and reused at every call.
    """

    def __init__(self, train: Dataset, spec: PenaltySpec):
        self._terms = spec.terms
        self._eps = spec.smoothing
        self._cells = cells = GroupCells(train.user_idx, train.item_idx, train.protected,
                                         train.num_items)
        kinds = {kind for kind, _ in spec.terms}
        if kinds - {"parity"}:
            # items with entries from both groups, in both halves of the cells
            self._valid = np.tile(cells.comparable, 2)
            if not self._valid.any():
                raise NoComparableItemsError("no item has training ratings from both groups")
            self._true = cells.means(train.values)
        if "parity" in kinds:
            self._n_p = int(cells.in_protected.sum())
            self._n_a = train.num_ratings - self._n_p
            if self._n_p == 0 or self._n_a == 0:
                raise EmptyGroupError("both groups need at least one training rating")

    def __call__(self, preds: np.ndarray) -> tuple[float, np.ndarray]:
        """The weighted penalty and its derivative w.r.t. each prediction.

        Each entry feeds its cell's average with weight 1/(entries in the
        cell), and each comparable item feeds the mean with weight
        1/(number of comparable items).
        """
        cells, eps = self._cells, self._eps
        total = 0.0
        coeffs = np.zeros(len(preds))
        cell_coeffs = None
        for kind, weight in self._terms:
            if kind == "parity":
                phi, slope = smooth_abs(group_gap(preds, cells.in_protected), eps)
                coeffs += weight * np.where(cells.in_protected, slope / self._n_p,
                                            -slope / self._n_a)
            else:
                if cell_coeffs is None:
                    errors = (cells.means(preds) - self._true)[self._valid]
                    da, dp = np.split(errors, 2)
                    scale = len(dp) * cells.count[self._valid]
                    cell_coeffs = np.zeros_like(self._true)
                phi, g_dp, g_da = item_terms(kind, dp, da, eps)
                phi = np.mean(phi)
                cell_coeffs[self._valid] += weight * (np.concatenate([g_da, g_dp]) / scale)
            total += weight * float(phi)
        if cell_coeffs is not None:
            coeffs += cell_coeffs[cells.cell]
        return total, coeffs


def penalty_value(model: FactorModel, train: Dataset, spec: PenaltySpec) -> float:
    """Weighted sum of the active unfairness scores on the training set."""
    if spec.is_none:
        return 0.0
    return _PenaltyTerms(train, spec)(_training_predictions(model, train, "penalty"))[0]


def penalty_gradient(model: FactorModel, train: Dataset, spec: PenaltySpec) -> Gradient:
    """Analytic subgradient of penalty_value w.r.t. the model parameters."""
    preds = _training_predictions(model, train, "penalty gradient")
    _, coeffs = _PenaltyTerms(train, spec)(preds)
    flat = EntryGradient(train)(model, coeffs)
    return Gradient(*param_blocks(flat, model.num_users, model.num_items, model.d))


class TrainingObjective:
    """objective + alpha * penalty on one training set, valued and
    differentiated from a single prediction pass.

    Construction validates the dataset and does all data-only work once
    (prediction path and indices, group cells, CSR structure), so the trainer
    builds one per run and calls it once per iteration.
    """

    def __init__(self, train: Dataset, lam: float, spec: PenaltySpec, alpha: float):
        validate_dataset(train)
        if train.num_ratings == 0:
            raise EmptyTrainingSetError("training needs at least one rating")
        self._train, self._lam, self._alpha = train, lam, alpha
        self._predict = EntryPredictor(train)
        self._penalty = _PenaltyTerms(train, spec)
        self._gradient = EntryGradient(train)

    def __call__(self, model: FactorModel) -> tuple[float, float, np.ndarray]:
        """(objective, penalty, flat_params-layout gradient of the combination)."""
        preds = self._predict(model)
        obj, coeffs = squared_error(model, preds, self._train, self._lam)
        pen, pen_coeffs = self._penalty(preds)
        coeffs += self._alpha * pen_coeffs
        return obj, pen, self._gradient(model, coeffs, self._lam)
