"""Shared fixtures and small builders for the test suite."""

import numpy as np
import pytest

from fairrec import Dataset, FactorModel


def dataset_from_ratings(num_users, num_items, ratings, protected,
                         rating_scale=(1.0, 5.0), user_group_fine=None, item_group=None):
    """A Dataset from (user, item, value) triples."""
    triples = list(ratings)
    return Dataset(num_users, num_items,
                   np.array([t[0] for t in triples], dtype=np.int64),
                   np.array([t[1] for t in triples], dtype=np.int64),
                   np.array([t[2] for t in triples], dtype=np.float64),
                   np.asarray(protected, dtype=bool), rating_scale, user_group_fine, item_group)


def make_model(rng, num_users, num_items, d=3, scale=1.0):
    return FactorModel(
        user_factors=rng.normal(0.0, scale, size=(num_users, d)),
        item_factors=rng.normal(0.0, scale, size=(num_items, d)),
        user_bias=rng.normal(0.0, scale, size=num_users),
        item_bias=rng.normal(0.0, scale, size=num_items),
    )


def make_protected(rng, num_users):
    """Random group flags with at least one user on each side."""
    flags = rng.random(num_users) < 0.5
    flags[rng.integers(num_users)] = True
    others = np.flatnonzero(~flags)
    if len(others) == 0:
        flags[rng.integers(num_users)] = False
    return flags


def make_triples(rng, num_users, num_items, density=0.6, lo=0.0, hi=5.0):
    """Random distinct (user, item, value) triples covering every item with
    at least one rating from each group when possible."""
    pairs = [(u, i) for u in range(num_users) for i in range(num_items)]
    keep = rng.random(len(pairs)) < density
    chosen = [p for p, k in zip(pairs, keep) if k]
    if not chosen:
        chosen = [pairs[int(rng.integers(len(pairs)))]]
    return [(u, i, float(rng.uniform(lo, hi))) for u, i in chosen]


def make_eval_instance(rng, num_users=None, num_items=None, d=None):
    """A random model plus an evaluation Dataset of the same shape where
    every item has entries from both groups."""
    num_users = num_users or int(rng.integers(2, 9))
    num_items = num_items or int(rng.integers(1, 9))
    d = d or int(rng.integers(1, 4))
    model = make_model(rng, num_users, num_items, d)
    protected = make_protected(rng, num_users)
    prot_users = np.flatnonzero(protected)
    adv_users = np.flatnonzero(~protected)
    triples = []
    for item in range(num_items):
        triples.append((int(rng.choice(prot_users)), item, float(rng.uniform(0, 5))))
        triples.append((int(rng.choice(adv_users)), item, float(rng.uniform(0, 5))))
    for u, i, v in make_triples(rng, num_users, num_items, density=0.3):
        if not any(t[0] == u and t[1] == i for t in triples):
            triples.append((u, i, v))
    # truths lie in [0, 5]; the declared scale leaves room for acceptance
    # criterion 3, which shifts them by 7.25 and scores the shifted set
    return model, dataset_from_ratings(num_users, num_items, triples, protected,
                                       rating_scale=(0.0, 15.0))


def make_train_dataset(rng, num_users=None, num_items=None, scale=(0.0, 5.0), density=0.4):
    """A random training dataset where every item has both groups, and each
    other cell a rating with probability density."""
    num_users = num_users or int(rng.integers(2, 9))
    num_items = num_items or int(rng.integers(1, 9))
    protected = make_protected(rng, num_users)
    prot_users = np.flatnonzero(protected)
    adv_users = np.flatnonzero(~protected)
    seen = set()
    triples = []
    for item in range(num_items):
        for pool in (prot_users, adv_users):
            u = int(rng.choice(pool))
            if (u, item) not in seen:
                seen.add((u, item))
                triples.append((u, item, float(rng.uniform(*scale))))
    for u, i, v in make_triples(rng, num_users, num_items, density=density,
                                lo=scale[0], hi=scale[1]):
        if (u, i) not in seen:
            seen.add((u, i))
            triples.append((u, i, v))
    return dataset_from_ratings(num_users, num_items, triples, protected,
                                rating_scale=scale), protected


def model_to_vector(model):
    return np.concatenate([
        model.user_factors.ravel(),
        model.item_factors.ravel(),
        model.user_bias,
        model.item_bias,
    ])


def vector_to_model(vec, template):
    n, d = template.user_factors.shape
    m = template.item_factors.shape[0]
    vec = np.asarray(vec, dtype=np.float64)
    P = vec[:n * d].reshape(n, d)
    Q = vec[n * d:n * d + m * d].reshape(m, d)
    bu = vec[n * d + m * d:n * d + m * d + n]
    bi = vec[n * d + m * d + n:]
    return FactorModel(P, Q, bu, bi)


def dataset_triples(d):
    return [(int(u), int(i), float(v))
            for u, i, v in zip(d.user_idx, d.item_idx, d.values)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The line breaks of str.splitlines other than \n, with \r\n; the readers
# number lines as it does, and numpy's C reader must never see one of these.
# The last one has no ISO-8859-1 code, so ratings.dat cannot hold it.
LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


ML_USERS = """\
1::F::1::10::48067
2::M::56::16::70072
3::M::25::15::55117
4::F::45::7::02460
5::M::25::20::55455
6::F::50::9::55117
"""

ML_MOVIES = """\
1::Toy Story (1995)::Animation|Children's|Comedy
2::Jumanji (1995)::Adventure|Children's|Fantasy
3::Heat (1995)::Action|Crime|Thriller
4::Waiting to Exhale (1995)::Comedy|Drama
5::Copycat (1995)::Crime|Drama|Thriller
6::Sabrina (1995)::Comedy|Romance
7::GoldenEye (1995)::Action|Adventure|Thriller
8::Gun Fury (1953)::Action|Crime
"""

ML_RATINGS = """\
1::3::5::978300760
1::5::3::978302109
1::6::4::978301968
1::8::4::978301000
2::3::4::978300275
2::7::3::978824291
2::8::5::978824300
3::3::4::978302268
3::5::5::978302039
3::8::3::978302100
4::6::2::978300719
4::3::3::978302268
5::7::4::978244808
6::5::4::978246585
6::6::5::978246585
"""


@pytest.fixture(scope="session")
def ml_dir(tmp_path_factory):
    """A miniature directory in the MovieLens-1M file layout."""
    root = tmp_path_factory.mktemp("ml1m")
    (root / "users.dat").write_text(ML_USERS, encoding="latin-1")
    (root / "movies.dat").write_text(ML_MOVIES, encoding="latin-1")
    (root / "ratings.dat").write_text(ML_RATINGS, encoding="latin-1")
    return root
