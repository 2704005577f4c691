"""MovieLens-1M ingestion: parsing, genre/frequency filtering, splitting.

The filter keeps movies matching a genre selection, then users who rated at
least ``min_ratings`` of the kept movies, then the surviving ratings, then
drops movies left without ratings, and reindexes everything densely. Gender
F maps to the protected flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    FairrecError,
    MalformedLineError,
    _file_lines,
    _file_pieces,
    _frozen,
    _open_text,
    _read_rows,
)

GENRE_VOCABULARY = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
SELECTED_GENRES = ("Action", "Crime", "Musical", "Romance", "Sci-Fi")
GENRE_MODES = ("any-genre", "only-genres")
DEFAULT_GENRE_MODE = "any-genre"
# the files of an ML-1M directory, in parse_ml1m's argument order
ML1M_FILES = ("users.dat", "movies.dat", "ratings.dat")
_INT64 = range(-2**63, 2**63)


class _Ids:
    """The ids of a users or movies dict, sorted: a rating's user or movie
    is found by its position among them."""

    def __init__(self, ids: dict):
        self.keys = np.array(sorted(ids), dtype=np.int64)
        self.table = None
        if len(ids) and (span := int(self.keys[-1]) - int(self.keys[0])) < 16 * len(ids):
            # the position of every id from the smallest key to the largest,
            # so that ids as dense as ML-1M's are found by one take
            self.table = np.searchsorted(self.keys, self.keys[0] + np.arange(span + 1))

    def find(self, ids: np.ndarray) -> tuple:
        """The position of each id among the keys, and whether it is a key."""
        if self.table is not None:
            # an id outside the table lands on its first or last entry
            pos = self.table.take(ids - self.keys[0], mode="clip")
        else:
            pos = np.searchsorted(self.keys, ids)
        if not len(self.keys):
            return pos, np.zeros(len(ids), dtype=bool)
        return pos, self.keys.take(pos, mode="clip") == ids


@dataclass(frozen=True, eq=False)
class MovieLensRaw:
    """Parsed ML-1M files: user genders, movie genre sets, and the user, movie
    and star of each rating (timestamps are checked, then dropped).

    user_pos and movie_pos hold each rating's user and movie as a position
    among the sorted ids of users and movies. Columns that are not 1-d and
    equally long, or a position outside the users or movies, raise FairrecError.
    """

    users: dict
    movies: dict
    user_pos: np.ndarray
    movie_pos: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        u, m = (np.asarray(pos, dtype=np.intp) for pos in (self.user_pos, self.movie_pos))
        v = np.asarray(self.values, dtype=np.float64)
        if not (u.ndim == m.ndim == v.ndim == 1 and len(u) == len(m) == len(v)):
            raise FairrecError("user_pos, movie_pos, values must be 1-d and equally long")
        for kind, pos, ids in (("user", u, self.users), ("movie", m, self.movies)):
            if len(pos) and (pos.min() < 0 or pos.max() >= len(ids)):
                raise FairrecError(f"{kind} position outside [0, {len(ids)})")
        for name, column in (("user_pos", u), ("movie_pos", m), ("values", v)):
            object.__setattr__(self, name, _frozen(column))

    @property
    def num_ratings(self) -> int:
        return len(self.values)


def canonical_genres(names) -> tuple:
    """Map case-insensitive genre names onto the ML-1M vocabulary."""
    lookup = {g.lower(): g for g in GENRE_VOCABULARY}
    result = []
    for name in names:
        key = str(name).strip().lower()
        if key not in lookup:
            raise FairrecError(f"unknown genre {name!r}")
        result.append(lookup[key])
    return tuple(result)


def _new_id(no: int, text: str, seen: dict) -> int:
    """The id in text, which must fit int64 and be absent from seen."""
    try:
        key = int(text)
    except ValueError as exc:
        raise MalformedLineError(no, str(exc)) from exc
    if key not in _INT64:
        raise MalformedLineError(no, f"id {key} outside the int64 range")
    if key in seen:
        raise MalformedLineError(no, f"repeated id {key}")
    return key


# The C reader splits a ratings.dat line at each ":", so each "::" leaves an
# empty gap between two of its four fields.
_RATING_LINE = np.dtype([("user", np.int64), ("gap1", "U1"), ("movie", np.int64),
                         ("gap2", "U1"), ("star", np.int64), ("gap3", "U1"),
                         ("stamp", np.int64)])


def parse_ml1m(users_file, movies_file, ratings_file) -> MovieLensRaw:
    """Parse the three "::"-separated ML-1M files, read as latin-1: titles
    may hold ISO-8859-1 characters, and all structure is ASCII.

    Blank lines are skipped but counted. The first bad line, a rating of an
    unknown user or movie included, raises MalformedLineError with its
    number; an id may occur once per file.
    """
    users = {}
    with _open_text(users_file, "latin-1") as fh:
        for no, line in _file_lines(fh):
            parts = line.split("::")
            if len(parts) != 5 or parts[1] not in ("M", "F"):
                raise MalformedLineError(no, f"bad users line {line!r}")
            users[_new_id(no, parts[0], users)] = parts[1]

    movies = {}
    with _open_text(movies_file, "latin-1") as fh:
        for no, line in _file_lines(fh):
            parts = line.split("::")
            if len(parts) != 3:
                raise MalformedLineError(no, f"bad movies line {line!r}")
            movies[_new_id(no, parts[0], movies)] = frozenset(parts[2].split("|"))

    def read_line(no: int, line: str):
        """The record of one ratings line, None for a blank one; raises for a
        bad line, a timestamp outside int64 or an unknown user or movie."""
        if not line.strip():
            return None
        parts = line.split("::")
        if len(parts) != 4:
            raise MalformedLineError(no, f"bad ratings line {line!r}")
        try:
            uid, mid, val, ts = map(int, parts)
        except ValueError as exc:
            raise MalformedLineError(no, str(exc)) from exc
        if not 1 <= val <= 5:
            raise MalformedLineError(no, f"rating {val} outside [1, 5]")
        if ts not in _INT64:
            raise MalformedLineError(no, f"timestamp {ts} outside the int64 range")
        if uid not in users:
            raise MalformedLineError(no, f"rating references unknown user {uid}")
        if mid not in movies:
            raise MalformedLineError(no, f"rating references unknown movie {mid}")
        return uid, "", mid, "", val, "", ts

    user_ids, movie_ids = _Ids(users), _Ids(movies)
    chunks = [(np.zeros(0, dtype=np.int64),) * 3]  # a file may hold no ratings
    next_no = 1
    with _open_text(ratings_file, "latin-1") as fh:
        for piece in _file_pieces(fh):
            rows, count = _read_rows(piece, next_no, _RATING_LINE, read_line, delimiter=":")
            user_pos, user_found = user_ids.find(rows["user"])
            movie_pos, movie_found = movie_ids.find(rows["movie"])
            # A gap holding text, which U1 cuts to one character, is a lone ":";
            # an empty U1 field is the code point 0.
            gaps = [rows[name].view(np.uint32) for name in ("gap1", "gap2", "gap3")]
            if (gaps[0] | gaps[1] | gaps[2]).any() or not (
                    (1 <= rows["star"]) & (rows["star"] <= 5) & user_found & movie_found).all():
                # only the C reader lets such a row through; read_line raises
                # for the piece's first bad line
                for no, line in enumerate(piece.splitlines(), start=next_no):
                    read_line(no, line)
            # the stars as a copy, so that the piece's rows can be freed
            chunks.append((user_pos, movie_pos, rows["star"].astype(np.float64)))
            next_no += count
    return MovieLensRaw(users, movies, *map(np.concatenate, zip(*chunks)))


def parse_ml1m_dir(directory) -> MovieLensRaw:
    """Parse users.dat, movies.dat, ratings.dat from one directory."""
    return parse_ml1m(*(os.path.join(directory, name) for name in ML1M_FILES))


def _genre_match(movie_genres: frozenset, selected: frozenset, mode: str) -> bool:
    if mode == "any-genre":
        return bool(movie_genres & selected)
    if mode == "only-genres":
        return bool(movie_genres) and movie_genres <= selected
    raise FairrecError(f"genre mode must be one of {GENRE_MODES}, got {mode!r}")


def filter_dataset(raw: MovieLensRaw, genres=SELECTED_GENRES, min_ratings: int = 50,
                   mode: str = DEFAULT_GENRE_MODE) -> Dataset:
    """Apply the genre and rating-frequency filters and reindex densely.

    "any-genre" keeps movies listing at least one selected genre;
    "only-genres" keeps movies listing nothing but selected genres. A kept
    (user, movie) pair rated twice, or kept users of one gender only, raise
    FairrecError, as any invalid Dataset does; a repeated pair is named by
    its MovieLens ids.
    """
    selected = frozenset(canonical_genres(genres))
    uids, mids = sorted(raw.users), sorted(raw.movies)
    # tables over the users and the movies in id order, read at each rating's positions
    female = np.array([raw.users[uid] == "F" for uid in uids], dtype=bool)
    on_kept = np.array([_genre_match(raw.movies[mid], selected, mode)
                        for mid in mids], dtype=bool).take(raw.movie_pos)
    # min_ratings <= 0 keeps every user, rated or not
    user_sel = np.bincount(raw.user_pos[on_kept], minlength=len(female)) >= min_ratings
    keep = on_kept & user_sel.take(raw.user_pos)
    if not keep.any():
        raise FairrecError("no users or movies survive the filter")
    movie_sel = np.bincount(raw.movie_pos[keep], minlength=len(raw.movies)) > 0
    try:
        return Dataset(
            num_users=int(user_sel.sum()),
            num_items=int(movie_sel.sum()),
            # a kept id's new index is the number of kept ids below it
            user_idx=(np.cumsum(user_sel) - 1).take(raw.user_pos[keep]),
            item_idx=(np.cumsum(movie_sel) - 1).take(raw.movie_pos[keep]),
            values=raw.values[keep],
            protected=female[user_sel],
            rating_scale=(1.0, 5.0),
        )
    except FairrecError:
        # reindexing keeps the id order, so the first repeat is the one reported
        pairs, times = np.unique(np.stack([raw.user_pos[keep], raw.movie_pos[keep]], 1),
                                 axis=0, return_counts=True)
        if times.max() < 2:
            raise
        u, m = pairs[np.argmax(times > 1)]
        raise FairrecError(f"duplicate rating for MovieLens user {uids[u]}, movie {mids[m]}")


def split(d: Dataset, train_fraction: float, seed) -> tuple:
    """Random disjoint (train, test) Datasets of d's ratings; both keep d's
    users, items, protected flags and labels."""
    if not 0.0 < train_fraction < 1.0:
        raise FairrecError("train_fraction must lie strictly between 0 and 1")
    k = d.num_ratings
    n_train = int(round(train_fraction * k))
    if n_train == 0 or n_train == k:
        raise FairrecError(
            f"fraction {train_fraction} leaves one side of a {k}-rating split empty")
    perm = np.random.default_rng(seed).permutation(k)
    take = np.zeros(k, dtype=bool)
    take[perm[:n_train]] = True
    return tuple(replace(d, user_idx=d.user_idx[side], item_idx=d.item_idx[side],
                         values=d.values[side]) for side in (take, ~take))
