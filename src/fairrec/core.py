"""Shared domain types, dataset validation, the dataset text format, and
the shared row reader, _read_rows: the one place where numpy's C reader
reads input text, for dataset files and MovieLens ratings.dat, with each
format's exact per-line reader as its fallback."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

USER_FINE_GROUPS = ("W", "WS", "MS", "M")
ITEM_GROUPS = ("Fem", "STEM", "Masc")


class FairrecError(Exception):
    """Base class for every error this package raises on bad data or usage."""


class DivergenceError(FairrecError):
    pass


class MalformedLineError(FairrecError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _by_user_item(u: np.ndarray, i: np.ndarray, v: np.ndarray) -> tuple:
    """Copies of parallel (user, item, value) arrays in (user, item) order;
    raises FairrecError for a repeated (user, item) pair. Input strictly in
    that order holds no repeated pair and is only copied."""
    if len(u) > 1 and not np.all(
            (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (i[1:] > i[:-1]))):
        order = np.lexsort((i, u))
        u, i, v = u[order], i[order], v[order]
        # sorted, so a repeated pair is adjacent
        dup = (u[1:] == u[:-1]) & (i[1:] == i[:-1])
        if dup.any():
            k = int(np.flatnonzero(dup)[0])
            raise FairrecError(f"duplicate rating for user {u[k]}, item {i[k]}")
        return u, i, v
    return u.copy(), i.copy(), v.copy()


def _memory_budget() -> int | None:
    """The host's physical memory in bytes, or None where it is not reported."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def _check_memory(nbytes: int, what: str) -> None:
    """Raise FairrecError when nbytes, an estimate of what ``what`` holds at
    once, exceed the host's physical memory, before any of it is allocated."""
    budget = _memory_budget()
    if budget is not None and nbytes > budget:
        raise FairrecError(f"{what} needs at least {nbytes / 1e6:,.0f} MB, more than "
                           f"the {budget / 1e6:,.0f} MB of memory on this host")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sparse observed ratings plus per-user group labels.

    Ratings are stored as three parallel arrays (user_idx, item_idx, values),
    canonically sorted by (user, item) so that downstream aggregation is
    independent of construction order. ``protected`` marks the disadvantaged
    user group. Fine-grained user labels and item labels are optional and are
    never read by the metrics; they exist for generation and reporting.

    A Dataset is valid once built: construction raises FairrecError for an
    index outside the shape, a repeated (user, item) pair, a rating outside
    the scale (NaN included), or an empty user group.
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
        if len(v):
            if u.min() < 0 or u.max() >= self.num_users:
                raise FairrecError(f"user index outside [0, {self.num_users})")
            if i.min() < 0 or i.max() >= self.num_items:
                raise FairrecError(f"item index outside [0, {self.num_items})")
        u, i, v = _by_user_item(u, i, v)
        # written so that a NaN rating fails it
        if len(v) and not (lo <= v.min() and v.max() <= hi):
            raise FairrecError(f"rating outside scale [{lo}, {hi}]")
        if not p.any():
            raise FairrecError("no user is in the protected group")
        if p.all():
            raise FairrecError("no user is in the advantaged group")
        object.__setattr__(self, "user_idx", _frozen(u))
        object.__setattr__(self, "item_idx", _frozen(i))
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "protected", _frozen(p))
        object.__setattr__(self, "rating_scale", (lo, hi))
        object.__setattr__(self, "user_group_fine", fine)
        object.__setattr__(self, "item_group", groups)

    @property
    def num_ratings(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return self.num_ratings


@dataclass(frozen=True, eq=False)
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
        if not (np.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError("init_scale must be finite and > 0")


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


METRIC_FIELDS = ("error", "value", "absolute", "under", "over", "parity")


def _fmt(x: float) -> str:
    """Shortest decimal text that parses back to the exact same float."""
    return repr(float(x))


# Input files are read in pieces of about 16 * _CHUNK_LINES characters, cut
# at line ends, and their lines are converted at most _CHUNK_LINES at a time.
# This bounds the text and the token lists held at once.
_CHUNK_LINES = 1 << 16


def _text_pieces(text: str) -> Iterator[str]:
    """Consecutive slices of text, each ending at a line feed or at the end."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + 16 * _CHUNK_LINES - 1) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _file_pieces(fh) -> Iterator[str]:
    """The text of an open file in slices, each ending at a line feed or at
    the end of the file."""
    while piece := fh.read(16 * _CHUNK_LINES):
        yield piece if piece.endswith("\n") else piece + fh.readline()


def _line_chunks(pieces: Iterable[str]) -> Iterator[tuple[int, list]]:
    """(number of the first line, lines) for runs of at most _CHUNK_LINES
    lines, in order. Lines are split and numbered as str.splitlines splits
    the whole text, because every piece ends at a line break."""
    first_no = 1
    for piece in pieces:
        lines = piece.splitlines()
        for k in range(0, len(lines), _CHUNK_LINES):
            yield first_no + k, lines[k:k + _CHUNK_LINES]
        first_no += len(lines)


def _read_rows(lines: list, first_no: int, dtype: np.dtype, read_line, prefix: str = "",
               delimiter: str | None = None, accept=None) -> np.ndarray:
    """The records of dtype in a chunk of lines, the first numbered first_no.

    The lines that start with prefix go to numpy's C reader together, and
    read_line(no, line) reads each other line, giving its record or None.
    When the C reader refuses its lines or accept(records) is false,
    read_line reads every line in file order instead, so the first bad line
    is the one it raises for.

    The reader gets only ASCII text without NUL or \\x1f: numpy 2.4 segfaults
    on the field "\\U0009c6ca", reads a NUL in a text field as empty and strips
    \\x1f around a number, which int() rejects. On such text it accepts only
    what int() and float() accept. It refuses its lines when it rejects a
    line, warns (numpy 1.x reads "5.0" as an int with a warning) or skips one.
    """
    rows, others = lines, []
    if prefix and "\n".join(["", *lines]).count("\n" + prefix) != len(lines):
        others = [k for k, line in enumerate(lines) if not line.startswith(prefix)]
        rows = list(chain.from_iterable(  # the runs between the others
            lines[a + 1:b] for a, b in zip([-1, *others], [*others, len(lines)])))
    records = None
    text = "\n".join(rows)
    if text.isascii() and "\x00" not in text and "\x1f" not in text:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                records = np.loadtxt(rows, dtype=dtype, delimiter=delimiter, comments=None,
                                     ndmin=1) if rows else np.zeros(0, dtype)
        except (ValueError, OverflowError, Warning):
            pass
    if records is None or len(records) != len(rows) or (accept and not accept(records)):
        records, others = np.zeros(0, dtype), range(len(lines))
    extra = [rec for k in others if (rec := read_line(first_no + k, lines[k])) is not None]
    return np.concatenate([records, np.array(extra, dtype)]) if extra else records


def _value_text(bits: int) -> str:
    return _fmt(np.int64(bits).view(np.float64)) + "\n"


def _dataset_pieces(d: Dataset) -> Iterator[str]:
    """The text form of a dataset in consecutive pieces.

    Layout: a header, one ``u`` line per user (ascending), optional ``g``
    lines per item, then one ``r`` line per rating sorted by (user, item),
    at most _CHUNK_LINES to a piece. Rating values round-trip bit-exactly.
    """
    lo, hi = d.rating_scale
    head = [f"users={d.num_users} items={d.num_items} scale={_fmt(lo)},{_fmt(hi)}\n"]
    flags = d.protected.astype(np.int64).tolist()
    if d.user_group_fine is not None:
        head += map("u {} {} {}\n".format, range(d.num_users), flags, d.user_group_fine)
    else:
        head += map("u {} {}\n".format, range(d.num_users), flags)
    if d.item_group is not None:
        head += map("g {} {}\n".format, range(d.num_items), d.item_group)
    yield "".join(head)
    # Rating lines are three interleaved columns, gathered from the text of
    # each distinct key; values are keyed by their bits, since -0.0 == 0.0 but
    # their text differs.
    columns = []
    for keys, fmt in ((d.user_idx, "r {} ".format), (d.item_idx, "{} ".format),
                      (d.values.view(np.int64), _value_text)):
        distinct, where = np.unique(keys, return_inverse=True)
        columns.append((np.array(list(map(fmt, distinct.tolist())), dtype=object), where))
    for k in range(0, d.num_ratings, _CHUNK_LINES):
        block = np.stack([texts[where[k:k + _CHUNK_LINES]] for texts, where in columns], 1)
        yield "".join(block.ravel().tolist())


_RATING_ROW = np.dtype([("r", "U1"), ("u", np.int64), ("i", np.int64), ("v", np.float64)])


def parse_dataset(text: str) -> Dataset:
    chunks = _line_chunks(_text_pieces(text))
    _, lines = next(chunks, (1, []))
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
    if num_users < 1 or num_items < 1:
        raise MalformedLineError(1, "user and item counts must be >= 1")
    if not (np.isfinite(scale).all() and scale[0] <= scale[1]):
        raise MalformedLineError(1, f"invalid rating scale {scale}")
    # Every line feed ends a line, so the line count is only needed when the
    # count of line feeds alone does not clear the header.
    if num_users >= text.count("\n") and num_users > (total := len(text.splitlines())) - 1:
        raise MalformedLineError(
            1, f"header declares {num_users} users but only {total - 1} lines follow; "
               "every user needs a 'u' line")

    protected = np.zeros(num_users, dtype=bool)
    seen_user = np.zeros(num_users, dtype=bool)
    fine: dict[int, str] = {}
    groups: dict[int, str] = {}

    def read_line(no: int, line: str):
        """Read one line of any kind with int() and float(); gives the rating
        record of an r line, None for any other line."""
        parts = line.split()
        if not parts:
            return None
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
                    if parts[3] not in USER_FINE_GROUPS:
                        raise MalformedLineError(no, f"unknown fine user group {parts[3]!r}")
                    fine[u] = parts[3]
            elif kind == "g" and len(parts) == 3:
                i = int(parts[1])
                if not 0 <= i < num_items:
                    raise MalformedLineError(no, f"item index {i} out of range")
                if parts[2] not in ITEM_GROUPS:
                    raise MalformedLineError(no, f"unknown item group {parts[2]!r}")
                groups[i] = parts[2]
            elif kind == "r" and len(parts) == 4:
                return "r", np.int64(int(parts[1])), np.int64(int(parts[2])), float(parts[3])
            else:
                raise MalformedLineError(no, f"unrecognized line {line!r}")
        except (ValueError, OverflowError) as exc:
            raise MalformedLineError(no, str(exc)) from exc
        return None

    columns = []
    last_no = 1
    for first_no, chunk in chain([(2, lines[1:])], chunks):
        last_no = first_no + len(chunk) - 1
        # every row starts with "r ", so the U1 field reads the token "r" whole
        columns.append(_read_rows(chunk, first_no, _RATING_ROW, read_line, prefix="r "))
    if not seen_user.all():
        missing = int(np.flatnonzero(~seen_user)[0])
        raise MalformedLineError(last_no, f"no 'u' line for user {missing}")
    if fine and len(fine) != num_users:
        raise MalformedLineError(last_no, "fine labels must cover all users or none")
    if groups and len(groups) != num_items:
        raise MalformedLineError(last_no, "item labels must cover all items or none")
    block = np.concatenate(columns)
    return Dataset(
        num_users, num_items, block["u"], block["i"], block["v"], protected, scale,
        tuple(fine[u] for u in range(num_users)) if fine else None,
        tuple(groups[i] for i in range(num_items)) if groups else None,
    )


def _write_text(path, pieces: Iterable[str]) -> None:
    """Write the pieces to path, in order, as UTF-8 text with \\n line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def save_dataset(d: Dataset, path) -> None:
    _write_text(path, _dataset_pieces(d))


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dataset(fh.read())
