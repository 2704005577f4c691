"""Stochastic block-model generator for course-recommendation style data.

Users fall into four fine groups (W, WS, MS, M; the first two form the
protected group) and items into three (Fem, STEM, Masc). The rating block
model L gives the probability that a user likes an item, and an observation
block model O gives the probability that the pair is observed at all. All
three matrices are 4 x 3, rows in USER_FINE_GROUPS order and columns in
ITEM_GROUPS order. The table ``_REGIMES`` maps each regime to its user
population shares and its O, which is all that varies between regimes:

    U    uniform populations (UNIFORM_SHARES), uniform observations (O_UNIFORM)
    O    uniform populations (UNIFORM_SHARES), biased observations (O_BIASED)
    P    biased populations (BIASED_SHARES), uniform observations (O_UNIFORM)
    P+O  biased populations (BIASED_SHARES), biased observations (O_BIASED)

Items always fall into exact thirds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    FairrecError,
    ITEM_GROUPS,
    USER_FINE_GROUPS,
    _check_memory,
    _fmt,
    _frozen,
    _write_text,
)

L = _frozen(np.array([[0.8, 0.2, 0.2],
                      [0.8, 0.8, 0.2],
                      [0.2, 0.8, 0.8],
                      [0.2, 0.2, 0.8]]))
O_UNIFORM = _frozen(np.full((4, 3), 0.4))
O_BIASED = _frozen(np.array([[0.6, 0.2, 0.1],
                             [0.3, 0.4, 0.2],
                             [0.05, 0.5, 0.35],
                             [0.1, 0.3, 0.5]]))
UNIFORM_SHARES = {"W": 0.25, "WS": 0.25, "MS": 0.25, "M": 0.25}
BIASED_SHARES = {"W": 0.4, "WS": 0.1, "MS": 0.4, "M": 0.1}
_REGIMES = {
    "U": (UNIFORM_SHARES, O_UNIFORM),
    "O": (UNIFORM_SHARES, O_BIASED),
    "P": (BIASED_SHARES, O_UNIFORM),
    "P+O": (BIASED_SHARES, O_BIASED),
}
REGIMES = tuple(_REGIMES)
# per fine group: W and WS are protected
_PROTECTED = np.isin(USER_FINE_GROUPS, ("W", "WS"))


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
        _user_counts(self.num_users, _REGIMES[self.regime][0])
        if self.num_items % len(ITEM_GROUPS) != 0:
            raise FairrecError(f"{self.num_items} items cannot be split into exact thirds")
        # generate holds three float64 and two bool n x m grids at once, and
        # expected_value_eval one more bool grid
        _check_memory(27 * self.num_users * self.num_items,
                      f"{self.num_users} x {self.num_items} generated data")


def _user_counts(n: int, shares: dict) -> list:
    """Users per fine group: n times each share, which must be a whole number."""
    counts = [round(n * share) for share in shares.values()]
    if any(abs(n * share - count) > 1e-9 for share, count in zip(shares.values(), counts)):
        raise FairrecError(f"{n} users cannot be split as {shares} with exact counts")
    return counts


def generate(config: RegimeConfig) -> tuple:
    """Sample one dataset for the regime; returns (Dataset, expected).

    Users get fine groups in the regime's exact shares and items exact thirds,
    both shuffled per seed. Every (user, item) pair is observed with
    probability O[g_i][h_j]; an observed rating is Bernoulli(L[g_i][h_j]) in
    {0, 1}. ``expected`` is the n x m matrix of expected ratings L[g_i][h_j]
    over ALL pairs, observed or not.
    """
    shares, O = _REGIMES[config.regime]
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    users = np.random.default_rng(seeds[0]).permutation(
        np.repeat(np.arange(len(USER_FINE_GROUPS)), _user_counts(config.num_users, shares)))
    items = np.random.default_rng(seeds[1]).permutation(
        np.repeat(np.arange(len(ITEM_GROUPS)), config.num_items // len(ITEM_GROUPS)))

    like_prob = L.take(users, 0).take(items, 1)
    observed = (np.random.default_rng(seeds[2]).random(like_prob.shape)
                < O.take(users, 0).take(items, 1))
    liked = np.random.default_rng(seeds[3]).random(like_prob.shape) < like_prob
    # the observed pairs in row-major order, as flat indices into the grid
    flat = np.flatnonzero(observed)
    user_idx, item_idx = np.divmod(flat, config.num_items)
    data = Dataset(
        num_users=config.num_users,
        num_items=config.num_items,
        user_idx=user_idx,
        item_idx=item_idx,
        values=liked.ravel().take(flat).astype(np.float64),
        protected=_PROTECTED[users],
        rating_scale=(0.0, 1.0),
        user_group_fine=tuple(USER_FINE_GROUPS[g] for g in users),
        item_group=tuple(ITEM_GROUPS[h] for h in items),
    )
    return data, like_prob


def expected_value_eval(train: Dataset, expected: np.ndarray) -> Dataset:
    """Evaluation Dataset over every pair NOT in train, with the block
    model's expected ratings as truths and train's users, items and labels."""
    unseen = np.ones((train.num_users, train.num_items), dtype=bool)
    unseen[train.user_idx, train.item_idx] = False
    if np.shape(expected) != unseen.shape:
        raise ValueError(f"expected must be {unseen.shape}, got {np.shape(expected)}")
    flat = np.flatnonzero(unseen)
    user_idx, item_idx = np.divmod(flat, train.num_items)
    return replace(train, user_idx=user_idx, item_idx=item_idx,
                   values=np.ravel(expected).take(flat))


def write_sidecar(path, regime: str) -> None:
    """Record the regime and the L/O matrices a dataset was generated with."""
    lines = [f"regime {regime}\n"]
    for name, matrix in (("L", L), ("O", _REGIMES[regime][1])):
        for g, row in zip(USER_FINE_GROUPS, matrix):
            lines.append(f"{name} {g} " + " ".join(_fmt(x) for x in row) + "\n")
    _write_text(path, lines)
