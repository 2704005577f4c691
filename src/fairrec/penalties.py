"""The training loss: squared error, the Frobenius term and alpha times a
weighted sum of unfairness penalties, valued and differentiated by
``TrainingObjective`` alone. ``objective``, ``objective_gradient``,
``penalty_value`` and ``penalty_gradient`` are views of one part of it.

The objective is lam/2 * (||P||_F^2 + ||Q||_F^2) + mean over observed
entries of (prediction - rating)^2; bias terms are left out of the Frobenius
term. A penalty is a weighted sum of the unfairness scores, computed over the
observed training ratings only (held-out truth must stay invisible to the
learner). Each score is the evaluation metric of the same name: both are
valued, and the penalty differentiated, by one ``metrics.Unfairness`` per
dataset. Each score is piecewise smooth; at kinks the subgradient
conventions are sign(0) = 0 and hinge'(0) = 0, so a perfectly fair model is
a stationary point. An optional smoothing mode replaces every absolute
value with sqrt(x^2 + eps^2) for kink-sensitivity studies; it is off by
default so the penalty equals the literal metric.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import Dataset, FactorModel, FairrecError, _fmt
from .factorization import Entries
from .metrics import KINDS as PENALTY_KINDS, Unfairness


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
                raise FairrecError(f"unknown penalty kind {kind!r}")
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
    def label(self) -> str:
        """Canonical name, parseable back by parse_penalty."""
        parts = []
        for kind, weight in self.terms:
            # :g text unless it loses digits; "+" separates terms, so no "e+"
            text = f"{weight:g}" if float(f"{weight:g}") == weight else _fmt(weight)
            parts.append(kind if weight == 1.0 else f"{kind}:{text.replace('e+', 'e')}")
        return "+".join(parts) or "none"

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
    # "," and "+" separate terms, except the "+" of an exponent such as 1e+3
    parts = re.split(r",|(?<![\d.]e)\+", stripped)
    if "none" in parts:
        if len(parts) > 1:
            raise ValueError('"none" cannot be combined with other penalty terms')
        return PenaltySpec((), smoothing)
    terms = []
    for part in parts:
        kind, sep, weight = part.partition(":")
        terms.append((kind.strip(), float(weight) if sep else 1.0))
    return PenaltySpec(tuple(terms), smoothing)


class TrainingObjective:
    """objective + alpha * penalty on one training set, valued and
    differentiated from a single prediction pass: the only code that turns
    training predictions into the loss.

    Construction does the data-only work once (prediction and gradient
    paths, group cells; the gradient's structure at the first call), so the
    trainer builds one per run and calls it once per iteration.
    """

    def __init__(self, train: Dataset, lam: float, spec: PenaltySpec, alpha: float):
        if train.num_ratings == 0:
            raise FairrecError("training needs at least one rating")
        self._entries = Entries(train)
        self._unfairness = Unfairness(train, [kind for kind, _ in spec.terms], "training ratings")
        self._train, self._lam, self._spec, self._alpha = train, lam, spec, alpha

    def values(self, model: FactorModel) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(objective, penalty, and the derivative of each with respect to
        every training prediction), without the parameter gradient."""
        preds = self._entries.predict(model)
        resid = preds - self._train.values
        reg = 0.5 * self._lam * (
            float(np.sum(model.user_factors**2)) + float(np.sum(model.item_factors**2))
        )
        obj = reg + float(np.mean(resid**2))
        terms = self._spec.terms
        scores, cell_coeffs = self._unfairness(preds, terms, self._spec.smoothing)
        pen = sum((weight * score for (_, weight), score in zip(terms, scores)), 0.0)
        resid *= 2.0 / self._train.num_ratings
        return obj, pen, resid, cell_coeffs.take(self._unfairness.cell)

    def __call__(self, model: FactorModel) -> tuple[float, float, np.ndarray]:
        """(objective, penalty, flat_params-layout gradient of the combination)."""
        obj, pen, coeffs, pen_coeffs = self.values(model)
        coeffs += self._alpha * pen_coeffs
        return obj, pen, self._entries.gradient(model, coeffs, self._lam)


def objective(model: FactorModel, train: Dataset, lam: float) -> float:
    """Regularized mean squared reconstruction error on the training set."""
    return TrainingObjective(train, lam, PenaltySpec.none(), 0.0).values(model)[0]


def objective_gradient(model: FactorModel, train: Dataset, lam: float) -> np.ndarray:
    """Analytic gradient of ``objective``, laid out as ``flat_params``.

    Each observed entry contributes (2/k) * residual through the prediction;
    the Frobenius term adds lam * P and lam * Q for every row, including rows
    untouched by any rating. Biases receive no regularization.
    """
    loss = TrainingObjective(train, lam, PenaltySpec.none(), 0.0)
    return loss._entries.gradient(model, loss.values(model)[2], lam)


def penalty_value(model: FactorModel, train: Dataset, spec: PenaltySpec) -> float:
    """Weighted sum of the active unfairness scores on the training set."""
    return TrainingObjective(train, 0.0, spec, 1.0).values(model)[1]


def penalty_gradient(model: FactorModel, train: Dataset, spec: PenaltySpec) -> np.ndarray:
    """Analytic subgradient of penalty_value w.r.t. the model parameters,
    laid out as ``flat_params``."""
    loss = TrainingObjective(train, 0.0, spec, 1.0)
    return loss._entries.gradient(model, loss.values(model)[3])
