"""Training-time unfairness penalties, their analytic subgradients, and the
combined training objective.

A penalty is a weighted sum of the unfairness scores, computed over the
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
from .factorization import _training_entries, squared_error
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


def _penalty_terms(train: Dataset, spec: PenaltySpec):
    """The penalty of ``spec`` on the training set: a function of the training
    predictions giving its value and its derivative w.r.t. each of them."""
    unfairness = Unfairness(train, [kind for kind, _ in spec.terms], "training ratings")

    def penalty(preds: np.ndarray) -> tuple[float, np.ndarray]:
        values, cell_coeffs = unfairness(preds, spec.terms, spec.smoothing)
        total = sum((weight * value for (_, weight), value in zip(spec.terms, values)), 0.0)
        return total, cell_coeffs.take(unfairness.cell)

    return penalty


def penalty_value(model: FactorModel, train: Dataset, spec: PenaltySpec) -> float:
    """Weighted sum of the active unfairness scores on the training set."""
    preds = _training_entries(train, "penalty").predict(model)
    return _penalty_terms(train, spec)(preds)[0]


def penalty_gradient(model: FactorModel, train: Dataset, spec: PenaltySpec) -> np.ndarray:
    """Analytic subgradient of penalty_value w.r.t. the model parameters,
    laid out as ``flat_params``."""
    entries = _training_entries(train, "penalty gradient")
    _, coeffs = _penalty_terms(train, spec)(entries.predict(model))
    return entries.gradient(model, coeffs)


class TrainingObjective:
    """objective + alpha * penalty on one training set, valued and
    differentiated from a single prediction pass.

    Construction does the data-only work once (prediction and gradient
    paths, group cells; the gradient's structure at the first call), so the
    trainer builds one per run and calls it once per iteration.
    """

    def __init__(self, train: Dataset, lam: float, spec: PenaltySpec, alpha: float):
        self._entries = _training_entries(train, "training")
        self._train, self._lam, self._alpha = train, lam, alpha
        self._penalty = _penalty_terms(train, spec)

    def __call__(self, model: FactorModel) -> tuple[float, float, np.ndarray]:
        """(objective, penalty, flat_params-layout gradient of the combination)."""
        preds = self._entries.predict(model)
        obj, coeffs = squared_error(model, preds, self._train, self._lam)
        pen, pen_coeffs = self._penalty(preds)
        coeffs += self._alpha * pen_coeffs
        return obj, pen, self._entries.gradient(model, coeffs, self._lam)
