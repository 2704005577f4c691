"""Stochastic block-model generator for course-recommendation style data.

Users fall into four fine groups (W, WS, MS, M; the first two form the
protected group) and items into three (Fem, STEM, Masc). A rating block
model L gives the probability that a user likes an item, and an observation
block model O gives the probability that the pair is observed at all. Four
regimes control where unfairness comes from:

    U    uniform populations, uniform observations
    O    uniform populations, biased observations
    P    biased populations, uniform observations
    P+O  biased populations, biased observations
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    FairrecError,
    ITEM_GROUPS,
    USER_FINE_GROUPS,
    _fmt,
    _frozen,
    _write_text,
)

REGIMES = ("U", "O", "P", "P+O")
_BIASED_POPULATION = {"W": 0.4, "WS": 0.1, "MS": 0.4, "M": 0.1}
_PROTECTED_GROUPS = ("W", "WS")


@dataclass(frozen=True, eq=False)
class BlockModels:
    """Rating probabilities L plus both observation matrices, all 4 x 3.

    Rows follow USER_FINE_GROUPS, columns ITEM_GROUPS. Regimes that bias
    observations read o_biased; the others read o_uniform.
    """

    L: np.ndarray
    o_uniform: np.ndarray
    o_biased: np.ndarray

    def __post_init__(self):
        for name in ("L", "o_uniform", "o_biased"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (len(USER_FINE_GROUPS), len(ITEM_GROUPS)):
                raise ValueError(f"{name} must be 4x3")
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, _frozen(arr))

    def observation(self, regime: str) -> np.ndarray:
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}")
        return self.o_biased if regime in ("O", "P+O") else self.o_uniform


@dataclass(frozen=True)
class RegimeConfig:
    regime: str
    num_users: int = 400
    num_items: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        # group sizes and indices are int64 arrays
        if max(self.num_users, self.num_items) > np.iinfo(np.int64).max:
            raise ValueError("user and item counts must fit in int64")
        if self.num_users < len(USER_FINE_GROUPS):
            raise ValueError("need at least one user per group")
        if self.num_items < len(ITEM_GROUPS):
            raise ValueError("need at least one item per group")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _exact_counts(self.num_users, _user_shares(self.regime))
        _items_per_group(self.num_items)


def default_block_models() -> BlockModels:
    """The canonical L, uniform-0.4, and biased observation matrices."""
    L = [[0.8, 0.2, 0.2],
         [0.8, 0.8, 0.2],
         [0.2, 0.8, 0.8],
         [0.2, 0.2, 0.8]]
    o_uniform = np.full((4, 3), 0.4)
    o_biased = [[0.6, 0.2, 0.1],
                [0.3, 0.4, 0.2],
                [0.05, 0.5, 0.35],
                [0.1, 0.3, 0.5]]
    return BlockModels(L, o_uniform, o_biased)


def _exact_counts(n: int, shares: dict) -> list:
    counts = {}
    for label, share in shares.items():
        exact = n * share
        count = round(exact)
        if abs(exact - count) > 1e-9:
            raise FairrecError(
                f"{n} users cannot be split as {shares} with exact counts")
        counts[label] = count
    return [counts[g] for g in shares]


def _user_shares(regime: str) -> dict:
    """Uniform-population regimes (U, O) use exact quarters; biased ones
    (P, P+O) use exact 0.4/0.1/0.4/0.1 shares over (W, WS, MS, M)."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime in ("U", "O"):
        return {g: 0.25 for g in USER_FINE_GROUPS}
    return dict(_BIASED_POPULATION)


def _items_per_group(m: int) -> int:
    if m % len(ITEM_GROUPS) != 0:
        raise FairrecError(f"{m} items cannot be split into exact thirds")
    return m // len(ITEM_GROUPS)


def sample_user_groups(n: int, regime: str, seed) -> tuple:
    """Fine labels and protected flags for n users in the regime's exact
    shares, shuffled per seed."""
    counts = _exact_counts(n, _user_shares(regime))
    labels = np.repeat(np.array(USER_FINE_GROUPS, dtype=object), counts)
    labels = np.random.default_rng(seed).permutation(labels)
    protected = np.isin(labels, _PROTECTED_GROUPS)
    return tuple(labels), protected


def sample_item_groups(m: int, seed) -> tuple:
    """Item labels in exact thirds over (Fem, STEM, Masc), shuffled per seed."""
    labels = np.repeat(np.array(ITEM_GROUPS, dtype=object), _items_per_group(m))
    return tuple(np.random.default_rng(seed).permutation(labels))


def generate(config: RegimeConfig, blocks: BlockModels = None) -> tuple:
    """Sample one dataset for the regime; returns (Dataset, expected).

    Every (user, item) pair is observed with probability O[g_i][h_j]; an
    observed rating is Bernoulli(L[g_i][h_j]) in {0, 1}. ``expected`` is the
    n x m matrix of expected ratings L[g_i][h_j] over ALL pairs, observed or
    not.
    """
    if blocks is None:
        blocks = default_block_models()
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    user_labels, protected = sample_user_groups(config.num_users, config.regime, seeds[0])
    item_labels = sample_item_groups(config.num_items, seeds[1])

    user_rows = np.array([USER_FINE_GROUPS.index(g) for g in user_labels])
    item_cols = np.array([ITEM_GROUPS.index(g) for g in item_labels])
    obs_prob = blocks.observation(config.regime)[np.ix_(user_rows, item_cols)]
    like_prob = blocks.L[np.ix_(user_rows, item_cols)]

    observed = np.random.default_rng(seeds[2]).random(obs_prob.shape) < obs_prob
    liked = np.random.default_rng(seeds[3]).random(like_prob.shape) < like_prob
    user_idx, item_idx = np.nonzero(observed)
    data = Dataset(
        num_users=config.num_users,
        num_items=config.num_items,
        user_idx=user_idx,
        item_idx=item_idx,
        values=liked[observed].astype(np.float64),
        protected=protected,
        rating_scale=(0.0, 1.0),
        user_group_fine=user_labels,
        item_group=item_labels,
    )
    return data, like_prob


def expected_value_eval(train: Dataset, expected: np.ndarray) -> Dataset:
    """Evaluation Dataset over every pair NOT in train, with the block
    model's expected ratings as truths and train's users, items and labels."""
    unseen = np.ones((train.num_users, train.num_items), dtype=bool)
    unseen[train.user_idx, train.item_idx] = False
    user_idx, item_idx = np.nonzero(unseen)
    return replace(train, user_idx=user_idx, item_idx=item_idx, values=expected[unseen])


def write_sidecar(path, blocks: BlockModels, regime: str) -> None:
    """Record the regime and the L/O matrices a dataset was generated with."""
    lines = [f"regime {regime}\n"]
    for name, matrix in (("L", blocks.L), ("O", blocks.observation(regime))):
        for g, row in zip(USER_FINE_GROUPS, matrix):
            lines.append(f"{name} {g} " + " ".join(_fmt(x) for x in row) + "\n")
    _write_text(path, lines)
