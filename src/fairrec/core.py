"""Shared domain types, dataset validation, the dataset text format, and
the shared row reader, _read_rows: the one place where numpy's C reader
reads input text, for dataset files and MovieLens ratings.dat, with each
format's exact per-line reader as its fallback."""

from __future__ import annotations

import operator
import os
import warnings
from contextlib import contextmanager
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


def _whole_number(obj, name: str) -> int:
    """obj's field name, which must be an int or a numpy integer, else FairrecError."""
    try:
        return operator.index(value := getattr(obj, name))
    except TypeError:
        raise FairrecError(f"{name} must be a whole number, got {value!r}") from None


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


# Every size read from input is bounded before memory is sized by it. A
# dataset header's counts, train's --d and generated data's shape are checked
# here; a checkpoint must hold n + m + 3 lines of d values, so its file bounds
# n, m and d. Beyond those, the score matrix is built only from 10% fill up,
# so it holds at most 10 values per rating; dense gradient blocks are capped
# by _BLOCK_MULADDS, and the CSR matrix holds one entry per rating.
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
        if _whole_number(self, "num_users") < 1 or _whole_number(self, "num_items") < 1:
            raise FairrecError("dataset needs at least one user and one item")
        u = np.asarray(self.user_idx, dtype=np.int64)
        i = np.asarray(self.item_idx, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        if not (u.ndim == i.ndim == v.ndim == 1 and len(u) == len(i) == len(v)):
            raise FairrecError("user_idx, item_idx, values must be 1-d and equally long")
        p = np.asarray(self.protected, dtype=bool)
        if p.shape != (self.num_users,):
            raise FairrecError("protected must have exactly one flag per user")
        lo, hi = (float(self.rating_scale[0]), float(self.rating_scale[1]))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise FairrecError(f"invalid rating scale ({lo}, {hi})")
        fine = self.user_group_fine
        if fine is not None:
            fine = tuple(fine)
            if len(fine) != self.num_users:
                raise FairrecError("user_group_fine must have one label per user")
            bad = set(fine) - set(USER_FINE_GROUPS)
            if bad:
                raise FairrecError(f"unknown fine user groups: {sorted(bad)}")
        groups = self.item_group
        if groups is not None:
            groups = tuple(groups)
            if len(groups) != self.num_items:
                raise FairrecError("item_group must have one label per item")
            bad = set(groups) - set(ITEM_GROUPS)
            if bad:
                raise FairrecError(f"unknown item groups: {sorted(bad)}")
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

    def _kept(self, build):
        """build(self), made at the first call and kept with this dataset,
        whose columns are frozen; dataclasses.replace gives a new dataset
        without it. It holds only arrays built from the dataset, never a
        call's values, and must not refer to the dataset: a cycle would
        outlive the last reference until the cyclic garbage collector runs."""
        kept, name = vars(self), f"_kept_{build.__name__}"
        if name not in kept:
            kept[name] = build(self)
        return kept[name]


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
            raise FairrecError("factor matrices must be 2-d with a common width")
        if bu.shape != (P.shape[0],) or bi.shape != (Q.shape[0],):
            raise FairrecError("bias vectors must match the factor row counts")
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
        if _whole_number(self, "seed") < 0:
            raise FairrecError("seed must be >= 0")
        if _whole_number(self, "d") < 1:
            raise FairrecError("d (latent dimension) must be >= 1")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise FairrecError("lambda (lam) must be finite and >= 0")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise FairrecError("alpha must be finite and >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise FairrecError("lr (learning_rate) must be finite and > 0")
        if _whole_number(self, "iterations") < 1:
            raise FairrecError("iterations must be >= 1")
        if not (np.isfinite(self.init_scale) and self.init_scale > 0):
            raise FairrecError("init_scale must be finite and > 0")


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


# Every input file is opened by _open_text and read by _file_pieces in pieces
# of about 16 * _CHUNK_LINES characters, each cut at a line feed. This bounds
# the text and the lines held at once.
_CHUNK_LINES = 1 << 16
# A longer piece holds a line of over a million characters, which numpy's C
# reader would copy at 4 bytes each. It is not a multiple of _CHUNK_LINES,
# which tests shrink to cut a file into many pieces for the C reader.
_LONG_PIECE = 1 << 21
# Characters that keep a piece from numpy's C reader: it reads a NUL in a text
# field as empty and strips \x1f around a number, and the others are the
# ASCII line breaks of str.splitlines besides \n, at which split("\n") does
# not cut. Its non-ASCII breaks fail the ASCII test.
_REFUSED = ("\x00", "\x1f", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def _file_pieces(fh) -> Iterator[str]:
    """The text of an open file in slices, each ending at a line feed or at
    the end of the file."""
    while piece := fh.read(16 * _CHUNK_LINES):
        yield piece if piece.endswith("\n") else piece + fh.readline()


def _file_lines(fh) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line of an open file that is not blank."""
    lines = chain.from_iterable(piece.splitlines() for piece in _file_pieces(fh))
    for no, line in enumerate(lines, start=1):
        if line.strip():
            yield no, line


def _read_rows(piece: str, first_no: int, dtype: np.dtype, read_line, prefix: str = "",
               delimiter: str | None = None) -> tuple[np.ndarray, int]:
    """The records of dtype in a piece of text that ends at a line break or
    at the end of its file, and the number of lines in it, as str.splitlines
    counts them; its first line is numbered first_no.

    A piece of at most _LONG_PIECE characters of ASCII text without any
    character of _REFUSED, whose every line starts with prefix, goes to
    numpy's C reader whole. Any other piece, or one the C reader rejects,
    warns on (numpy 1.x reads "5.0" as an int with a warning) or skips a
    line of, is read by read_line(no, line), which gives a line's record or
    None, one line at a time in file order, so the first bad line is the one
    it raises for. It only reads: a format's other rules are its caller's to
    check. On the text it gets, the C reader accepts only what int() and
    float() accept; numpy 2.4 segfaults on the non-ASCII field "\\U0009c6ca".
    """
    if len(piece) <= _LONG_PIECE and piece.isascii() and not any(c in piece for c in _REFUSED):
        rows = piece.split("\n")
        if piece.endswith("\n"):
            rows.pop()
        if not prefix or piece.startswith(prefix) + piece.count("\n" + prefix) == len(rows):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    records = np.loadtxt(rows, dtype=dtype, delimiter=delimiter,
                                         comments=None, ndmin=1)
            except (ValueError, OverflowError, Warning):
                records = None
            if records is not None and len(records) == len(rows):
                return records, len(rows)
    lines = piece.splitlines()
    records = [rec for no, line in enumerate(lines, first_no)
               if (rec := read_line(no, line)) is not None]
    return np.array(records, dtype), len(lines)


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
    # Rating lines are three interleaved columns, gathered from text tables:
    # over every user and every item, and over the distinct values, which are
    # keyed by their bits, since -0.0 == 0.0 but their text differs.
    distinct, where = np.unique(d.values.view(np.int64), return_inverse=True)
    columns = [(np.array(list(map(fmt, keys)), dtype=object), index) for keys, fmt, index in (
        (range(d.num_users), "r {} ".format, d.user_idx),
        (range(d.num_items), "{} ".format, d.item_idx),
        (distinct.tolist(), _value_text, where))]
    for k in range(0, d.num_ratings, _CHUNK_LINES):
        block = np.stack([texts.take(index[k:k + _CHUNK_LINES]) for texts, index in columns], 1)
        yield "".join(block.ravel().tolist())


_RATING_ROW = np.dtype([("r", "U1"), ("u", np.int64), ("i", np.int64), ("v", np.float64)])


def parse_dataset(fh) -> Dataset:
    """Read a dataset from an open text stream (``io.StringIO`` for a string)
    in the pieces of _file_pieces. Nothing but the memory check is sized by
    the header's counts, so a user count beyond the file's ``u`` lines is
    found after the last line, as a missing user."""
    pieces = _file_pieces(fh)
    piece = next(pieces, "")
    # the header is the first line as str.splitlines cuts it, read up to its end
    first = piece[:piece.find("\n") + 1 or None].splitlines(keepends=True)
    if not first:
        raise MalformedLineError(1, "empty dataset file")
    try:
        fields = dict(part.split("=", 1) for part in first[0].split())
        users, items, (lo_s, hi_s) = fields["users"], fields["items"], fields["scale"].split(",")
    except (ValueError, KeyError) as exc:
        raise MalformedLineError(1, f"bad header {first[0].strip()[:1000]!r}: "
                                    "expected users=N items=M scale=LO,HI") from exc
    try:
        num_users, num_items, scale = int(users), int(items), (float(lo_s), float(hi_s))
    except ValueError as exc:
        raise MalformedLineError(1, f"bad header: {exc}") from exc
    if num_users < 1 or num_items < 1:
        raise MalformedLineError(1, "user and item counts must be >= 1")
    if not (np.isfinite(scale).all() and scale[0] <= scale[1]):
        raise MalformedLineError(1, f"invalid rating scale {scale}")
    # training or scoring on the data holds two float64 per user and per item
    # at least: a factor and a bias at d = 1, and Unfairness's two item cells
    _check_memory(16 * (num_users + num_items), f"a {num_users} x {num_items} dataset")

    flags: dict[int, bool] = {}
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
                flags[u] = parts[2] == "1"
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
                raise MalformedLineError(no, f"unrecognized line {line[:1000]!r}")
        except (ValueError, OverflowError) as exc:
            raise MalformedLineError(no, str(exc)[:1000]) from exc
        return None

    columns = [np.zeros(0, _RATING_ROW)]
    next_no = 2
    for piece in chain([piece[len(first[0]):]], pieces):
        # A written file holds its u and g lines before its first rating line.
        # A piece that holds both is cut there, so that the rating lines share
        # no piece with label lines, which would have them read one at a time.
        cut = 0 if piece.startswith("r ") else piece.find("\nr ") + 1
        for part in filter(None, (piece[:cut], piece[cut:])):
            # every row starts with "r ", so the U1 field reads the token "r" whole
            rows, count = _read_rows(part, next_no, _RATING_ROW, read_line, prefix="r ")
            columns.append(rows)
            next_no += count
    last_no = next_no - 1
    if len(flags) < num_users:
        # every key lies in [0, num_users), so one of 0..len(flags) is missing
        missing = next(u for u in range(len(flags) + 1) if u not in flags)
        raise MalformedLineError(last_no, f"no 'u' line for user {missing}")
    if fine and len(fine) != num_users:
        raise MalformedLineError(last_no, "fine labels must cover all users or none")
    if groups and len(groups) != num_items:
        raise MalformedLineError(last_no, "item labels must cover all items or none")
    block = np.concatenate(columns)
    return Dataset(
        num_users, num_items, block["u"], block["i"], block["v"],
        [flags[u] for u in range(num_users)], scale,
        tuple(fine[u] for u in range(num_users)) if fine else None,
        tuple(groups[i] for i in range(num_items)) if groups else None,
    )


def _write_text(path, pieces: Iterable[str]) -> None:
    """Write the pieces to path, in order, as UTF-8 text with \\n line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def save_dataset(d: Dataset, path) -> None:
    _write_text(path, _dataset_pieces(d))


@contextmanager
def _open_text(path, encoding: str = "utf-8"):
    """path open as text in encoding; a byte that does not decode raises FairrecError."""
    with open(path, "r", encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the codec's position counts from the piece being read, not the file
            raise FairrecError(f"{path}: {exc.encoding!r} codec can't decode byte "
                               f"{exc.object[exc.start]:#04x}: {exc.reason}") from exc


def load_dataset(path) -> Dataset:
    with _open_text(path) as fh:
        return parse_dataset(fh)
