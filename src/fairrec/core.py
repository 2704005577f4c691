"""Shared domain types, dataset validation, and the dataset text format."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

USER_FINE_GROUPS = ("W", "WS", "MS", "M")
ITEM_GROUPS = ("Fem", "STEM", "Masc")


class FairrecError(Exception):
    """Base class for every error this package raises on bad data or usage."""


class IndexOutOfRangeError(FairrecError):
    pass


class DuplicateRatingError(FairrecError):
    pass


class EmptyGroupError(FairrecError):
    pass


class RatingOutOfScaleError(FairrecError):
    pass


class EmptyTrainingSetError(FairrecError):
    pass


class NoComparableItemsError(FairrecError):
    pass


class EmptyEvalSetError(FairrecError):
    pass


class ShapeMismatchError(FairrecError):
    pass


class DivergenceError(FairrecError):
    pass


class IndivisibleCountError(FairrecError):
    pass


class MalformedLineError(FairrecError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownReferenceError(FairrecError):
    pass


class EmptyResultError(FairrecError):
    pass


class DegenerateSplitError(FairrecError):
    pass


class InsufficientSamplesError(FairrecError):
    pass


class UnsupportedFormatError(FairrecError):
    pass


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Sparse observed ratings plus per-user group labels.

    Ratings are stored as three parallel arrays (user_idx, item_idx, values),
    canonically sorted by (user, item) so that downstream aggregation is
    independent of construction order. ``protected`` marks the disadvantaged
    user group. Fine-grained user labels and item labels are optional and are
    never read by the metrics; they exist for generation and reporting.
    """

    num_users: int
    num_items: int
    user_idx: np.ndarray
    item_idx: np.ndarray
    values: np.ndarray
    protected: np.ndarray
    rating_scale: tuple[float, float] = (1.0, 5.0)
    user_group_fine: tuple[str, ...] | None = None
    item_group: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_users < 1 or self.num_items < 1:
            raise ValueError("dataset needs at least one user and one item")
        u = np.asarray(self.user_idx, dtype=np.int64)
        i = np.asarray(self.item_idx, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        if not (u.ndim == i.ndim == v.ndim == 1 and len(u) == len(i) == len(v)):
            raise ValueError("user_idx, item_idx, values must be 1-d and equally long")
        p = np.asarray(self.protected, dtype=bool)
        if p.shape != (self.num_users,):
            raise ValueError("protected must have exactly one flag per user")
        lo, hi = (float(self.rating_scale[0]), float(self.rating_scale[1]))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError(f"invalid rating scale ({lo}, {hi})")
        fine = self.user_group_fine
        if fine is not None:
            fine = tuple(fine)
            if len(fine) != self.num_users:
                raise ValueError("user_group_fine must have one label per user")
            bad = set(fine) - set(USER_FINE_GROUPS)
            if bad:
                raise ValueError(f"unknown fine user groups: {sorted(bad)}")
        groups = self.item_group
        if groups is not None:
            groups = tuple(groups)
            if len(groups) != self.num_items:
                raise ValueError("item_group must have one label per item")
            bad = set(groups) - set(ITEM_GROUPS)
            if bad:
                raise ValueError(f"unknown item groups: {sorted(bad)}")
        order = np.lexsort((i, u))
        object.__setattr__(self, "user_idx", _frozen(u[order]))
        object.__setattr__(self, "item_idx", _frozen(i[order]))
        object.__setattr__(self, "values", _frozen(v[order]))
        object.__setattr__(self, "protected", _frozen(p))
        object.__setattr__(self, "rating_scale", (lo, hi))
        object.__setattr__(self, "user_group_fine", fine)
        object.__setattr__(self, "item_group", groups)

    @property
    def num_ratings(self) -> int:
        return len(self.values)

    @classmethod
    def from_ratings(
        cls,
        num_users: int,
        num_items: int,
        ratings: Iterable[tuple[int, int, float]],
        protected: Sequence[bool],
        rating_scale: tuple[float, float] = (1.0, 5.0),
        user_group_fine: Sequence[str] | None = None,
        item_group: Sequence[str] | None = None,
    ) -> "Dataset":
        triples = list(ratings)
        u = np.array([t[0] for t in triples], dtype=np.int64)
        i = np.array([t[1] for t in triples], dtype=np.int64)
        v = np.array([t[2] for t in triples], dtype=np.float64)
        return cls(num_users, num_items, u, i, v, np.asarray(protected, dtype=bool),
                   rating_scale, user_group_fine, item_group)


def validate_dataset(d: Dataset) -> Dataset:
    """Check all dataset invariants and return the dataset unchanged.

    Raises IndexOutOfRangeError, DuplicateRatingError, RatingOutOfScaleError,
    or EmptyGroupError. Validation is idempotent and has no side effects.
    """
    if d.num_ratings:
        if d.user_idx.min() < 0 or d.user_idx.max() >= d.num_users:
            raise IndexOutOfRangeError(
                f"user index outside [0, {d.num_users})")
        if d.item_idx.min() < 0 or d.item_idx.max() >= d.num_items:
            raise IndexOutOfRangeError(
                f"item index outside [0, {d.num_items})")
        # entries are sorted by (user, item), so duplicates are adjacent
        dup = (np.diff(d.user_idx) == 0) & (np.diff(d.item_idx) == 0)
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise DuplicateRatingError(
                f"duplicate rating for user {d.user_idx[k]}, item {d.item_idx[k]}")
        lo, hi = d.rating_scale
        if d.values.min() < lo or d.values.max() > hi:
            raise RatingOutOfScaleError(
                f"rating outside scale [{lo}, {hi}]")
    if not d.protected.any():
        raise EmptyGroupError("no user is in the protected group")
    if d.protected.all():
        raise EmptyGroupError("no user is in the advantaged group")
    return d


@dataclass(frozen=True)
class FactorModel:
    """Learnable parameters of the biased factorization: a rating is modeled
    as the dot product of a user row and an item row plus two scalar biases."""

    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.user_factors, dtype=np.float64)
        Q = np.asarray(self.item_factors, dtype=np.float64)
        bu = np.asarray(self.user_bias, dtype=np.float64)
        bi = np.asarray(self.item_bias, dtype=np.float64)
        if P.ndim != 2 or Q.ndim != 2 or P.shape[1] != Q.shape[1]:
            raise ValueError("factor matrices must be 2-d with a common width")
        if bu.shape != (P.shape[0],) or bi.shape != (Q.shape[0],):
            raise ValueError("bias vectors must match the factor row counts")
        object.__setattr__(self, "user_factors", _frozen(P))
        object.__setattr__(self, "item_factors", _frozen(Q))
        object.__setattr__(self, "user_bias", _frozen(bu))
        object.__setattr__(self, "item_bias", _frozen(bi))

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def d(self) -> int:
        return self.user_factors.shape[1]


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. ``lam`` weighs the Frobenius regularizer, ``alpha``
    weighs the unfairness penalty added to the reconstruction objective."""

    d: int = 4
    lam: float = 3e-5
    alpha: float = 0.3
    learning_rate: float = 0.01
    iterations: int = 500
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("latent dimension must be >= 1")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.init_scale > 0:
            raise ValueError("init_scale must be > 0")


@dataclass(frozen=True)
class MetricReport:
    """Prediction error plus the five unfairness scores for one model on one
    evaluation set. ``items_counted`` is the number of items that had
    evaluation entries from both user groups and hence entered the per-item
    metrics."""

    error: float
    value: float
    absolute: float
    under: float
    over: float
    parity: float
    items_counted: int

    def as_dict(self) -> dict[str, float]:
        return {
            "error": self.error,
            "value": self.value,
            "absolute": self.absolute,
            "under": self.under,
            "over": self.over,
            "parity": self.parity,
        }


METRIC_FIELDS = ("error", "value", "absolute", "under", "over", "parity")


def _fmt(x: float) -> str:
    """Shortest decimal text that parses back to the exact same float."""
    return repr(float(x))


def format_dataset(d: Dataset) -> str:
    """Serialize a dataset to its text form.

    Layout: a header, one ``u`` line per user (ascending), optional ``g``
    lines per item, then one ``r`` line per rating sorted by (user, item).
    Rating values round-trip bit-exactly.
    """
    lo, hi = d.rating_scale
    lines = [f"users={d.num_users} items={d.num_items} scale={_fmt(lo)},{_fmt(hi)}"]
    for u in range(d.num_users):
        flag = 1 if d.protected[u] else 0
        if d.user_group_fine is not None:
            lines.append(f"u {u} {flag} {d.user_group_fine[u]}")
        else:
            lines.append(f"u {u} {flag}")
    if d.item_group is not None:
        for i in range(d.num_items):
            lines.append(f"g {i} {d.item_group[i]}")
    for u, i, v in zip(d.user_idx, d.item_idx, d.values):
        lines.append(f"r {u} {i} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def parse_dataset(text: str) -> Dataset:
    lines = text.splitlines()
    if not lines:
        raise MalformedLineError(1, "empty dataset file")
    header = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        num_users = int(fields["users"])
        num_items = int(fields["items"])
        lo_s, hi_s = fields["scale"].split(",")
        scale = (float(lo_s), float(hi_s))
    except (ValueError, KeyError) as exc:
        raise MalformedLineError(1, f"bad header: {exc}") from exc
    # checked before anything is allocated by these counts
    if num_users < 0 or num_items < 0:
        raise MalformedLineError(1, "user and item counts must be >= 0")
    if num_users > len(lines) - 1:
        raise MalformedLineError(
            1, f"header declares {num_users} users but only {len(lines) - 1} lines follow; "
               "every user needs a 'u' line")

    protected = np.zeros(num_users, dtype=bool)
    seen_user = np.zeros(num_users, dtype=bool)
    fine: dict[int, str] = {}
    groups: dict[int, str] = {}
    triples: list[tuple[int, int, float]] = []
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "u" and len(parts) in (3, 4):
                u = int(parts[1])
                if not 0 <= u < num_users:
                    raise MalformedLineError(no, f"user index {u} out of range")
                if parts[2] not in ("0", "1"):
                    raise MalformedLineError(no, "protected flag must be 0 or 1")
                protected[u] = parts[2] == "1"
                seen_user[u] = True
                if len(parts) == 4:
                    fine[u] = parts[3]
            elif kind == "g" and len(parts) == 3:
                i = int(parts[1])
                if not 0 <= i < num_items:
                    raise MalformedLineError(no, f"item index {i} out of range")
                groups[i] = parts[2]
            elif kind == "r" and len(parts) == 4:
                triples.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise MalformedLineError(no, f"unrecognized line {line!r}")
        except ValueError as exc:
            raise MalformedLineError(no, str(exc)) from exc
    if not seen_user.all():
        missing = int(np.flatnonzero(~seen_user)[0])
        raise MalformedLineError(len(lines), f"no 'u' line for user {missing}")
    if fine and len(fine) != num_users:
        raise MalformedLineError(len(lines), "fine labels must cover all users or none")
    if groups and len(groups) != num_items:
        raise MalformedLineError(len(lines), "item labels must cover all items or none")
    return Dataset.from_ratings(
        num_users, num_items, triples, protected, scale,
        tuple(fine[u] for u in range(num_users)) if fine else None,
        tuple(groups[i] for i in range(num_items)) if groups else None,
    )


def save_dataset(d: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_dataset(d))


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read())
