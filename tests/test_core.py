"""Domain types, validation, and the dataset text format."""

import io
import random
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrec.core as core
from fairrec import (
    Dataset,
    ExperimentConfig,
    FactorModel,
    FairrecError,
    Hyperparams,
    MalformedLineError,
    RegimeConfig,
    load_dataset,
    save_dataset,
)
from fairrec.cli import main
from fairrec.core import (
    ITEM_GROUPS,
    USER_FINE_GROUPS,
    parse_dataset,
)
from fairrec.trainer import TrainTrace

from conftest import LINE_BREAKS, dataset_from_ratings, make_train_dataset
from oracles import oracle_format_dataset, oracle_parse_dataset


def parse_text(text):
    """parse_dataset on a string."""
    return parse_dataset(io.StringIO(text))


def dataset_text(d):
    """The text that save_dataset writes for d."""
    return "".join(core._dataset_pieces(d))


def small_dataset(**overrides):
    kwargs = dict(
        num_users=3,
        num_items=2,
        ratings=[(0, 0, 2.0), (1, 1, 3.0), (2, 0, 1.0), (1, 0, 4.0)],
        protected=[True, False, True],
        rating_scale=(1.0, 5.0),
    )
    kwargs.update(overrides)
    return dataset_from_ratings(**kwargs)


class TestDataset:
    def test_orders_ratings_by_user_then_item(self):
        d = small_dataset()
        assert d.user_idx.tolist() == [0, 1, 1, 2]
        assert d.item_idx.tolist() == [0, 0, 1, 0]
        assert d.values.tolist() == [2.0, 4.0, 3.0, 1.0]

    def test_order_is_independent_of_input_order(self, rng):
        d1 = small_dataset()
        shuffled = list(zip(d1.user_idx, d1.item_idx, d1.values))
        rng.shuffle(shuffled)
        d2 = small_dataset(ratings=shuffled)
        assert d1.user_idx.tolist() == d2.user_idx.tolist()
        assert d1.item_idx.tolist() == d2.item_idx.tolist()
        assert d1.values.tolist() == d2.values.tolist()

    def test_arrays_are_read_only(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.values[0] = 9.9

    def test_rejects_mismatched_protected_length(self):
        with pytest.raises(FairrecError):
            small_dataset(protected=[True, False])

    def test_rejects_bad_fine_labels(self):
        with pytest.raises(FairrecError):
            small_dataset(user_group_fine=("W", "K", "M"))

    def test_rejects_bad_item_labels(self):
        with pytest.raises(FairrecError):
            small_dataset(item_group=("Fem", "Other"))

    def test_num_ratings(self):
        assert small_dataset().num_ratings == len(small_dataset()) == 4

    def test_repeated_pair_reported_whatever_the_input_order(self, rng):
        ratings = [(u, i, float(k)) for k, (u, i) in enumerate(
            [(2, 1), (0, 1), (1, 0), (0, 1), (1, 0), (0, 0)])]
        for _ in range(5):
            rng.shuffle(ratings)
            with pytest.raises(FairrecError, match="duplicate rating for user 0, item 1"):
                small_dataset(ratings=ratings)

    def test_sorted_input_is_copied(self):
        u, i, v = np.array([0, 1]), np.array([0, 0]), np.array([1.0, 2.0])
        d = Dataset(2, 1, u, i, v, [True, False])
        v[0] = 9.0
        assert d.values.tolist() == [1.0, 2.0]
        assert v.flags.writeable


class TestDatasetIsValidOnceBuilt:
    def test_user_index_out_of_range(self):
        for bad in (7, -1):
            with pytest.raises(FairrecError, match=r"user index outside \[0, 3\)"):
                small_dataset(ratings=[(0, 0, 2.0), (bad, 1, 3.0)])

    def test_item_index_out_of_range(self):
        for bad in (5, -1):
            with pytest.raises(FairrecError, match=r"item index outside \[0, 2\)"):
                small_dataset(ratings=[(0, 0, 2.0), (1, bad, 3.0)])

    def test_duplicate_rating(self):
        with pytest.raises(FairrecError, match="duplicate rating for user 0, item 0"):
            small_dataset(ratings=[(0, 0, 2.0), (0, 0, 3.0)])

    def test_rating_outside_scale(self):
        with pytest.raises(FairrecError, match="rating outside scale"):
            small_dataset(ratings=[(0, 0, 0.5)])

    def test_nan_rating_outside_scale(self):
        with pytest.raises(FairrecError, match="rating outside scale"):
            small_dataset(ratings=[(0, 0, 2.0), (1, 1, float("nan"))])

    def test_all_protected_rejected(self):
        with pytest.raises(FairrecError, match="no user is in the advantaged group"):
            small_dataset(protected=[True, True, True])

    def test_none_protected_rejected(self):
        with pytest.raises(FairrecError, match="no user is in the protected group"):
            small_dataset(protected=[False, False, False])

    def test_no_ratings_allowed(self):
        assert small_dataset(ratings=[]).num_ratings == 0

    @pytest.mark.parametrize("field, bad, message", [
        ("num_users", 0, "dataset needs at least one user and one item"),
        ("num_items", 0, "dataset needs at least one user and one item"),
        ("values", np.ones(3), "user_idx, item_idx, values must be 1-d and equally long"),
        ("user_idx", np.zeros((4, 1)), "user_idx, item_idx, values must be 1-d and equally long"),
        ("rating_scale", (5.0, 1.0), "invalid rating scale (5.0, 1.0)"),
        ("rating_scale", (1.0, float("inf")), "invalid rating scale (1.0, inf)"),
        ("user_group_fine", ("W", "M"), "user_group_fine must have one label per user"),
        ("item_group", ("Fem",), "item_group must have one label per item"),
    ])
    def test_malformed_field_rejected(self, field, bad, message):
        with pytest.raises(FairrecError) as exc:
            replace(small_dataset(), **{field: bad})
        assert str(exc.value) == message

    def test_replace_checks_again(self):
        d = small_dataset()
        with pytest.raises(FairrecError, match="rating outside scale"):
            replace(d, values=d.values + 9.0)


class TestFactorModel:
    def test_shape_checks(self):
        with pytest.raises(FairrecError):
            FactorModel(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2), np.zeros(2))
        with pytest.raises(FairrecError):
            FactorModel(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(1), np.zeros(2))

    def test_dimensions(self):
        m = FactorModel(np.zeros((4, 3)), np.zeros((5, 3)), np.zeros(4), np.zeros(5))
        assert (m.num_users, m.num_items, m.d) == (4, 5, 3)


class TestHyperparams:
    def test_defaults_are_valid(self):
        Hyperparams()

    @pytest.mark.parametrize("bad", [
        dict(d=0),
        dict(lam=-0.1),
        dict(alpha=-1.0),
        dict(iterations=0),
        dict(init_scale=0.0),
        dict(lam=float("nan")),
        dict(alpha=float("nan")),
        dict(learning_rate=-1.0),
        dict(learning_rate=float("inf")),
        dict(seed=-1),
        dict(init_scale=float("inf")),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(FairrecError):
            Hyperparams(**bad)


@pytest.mark.parametrize("build, field", [
    (small_dataset, "num_users"), (small_dataset, "num_items"),
    (Hyperparams, "d"), (Hyperparams, "iterations"), (Hyperparams, "seed"),
    *((partial(RegimeConfig, "U"), field) for field in ("num_users", "num_items", "seed")),
    *((ExperimentConfig, field)
      for field in ("num_users", "num_items", "min_ratings", "trials", "base_seed")),
])
@pytest.mark.parametrize("bad", [2.0, 2.5, np.float64(4.0), "4", None])
def test_sizes_and_seeds_must_be_whole_numbers(build, field, bad):
    with pytest.raises(FairrecError) as exc:
        build(**{field: bad})
    assert str(exc.value) == f"{field} must be a whole number, got {bad!r}"
    # a numpy integer is a whole number
    default = getattr(build(), field)
    assert getattr(build(**{field: np.int64(default)}), field) == default


class TestDatasetFormat:
    def test_round_trip_is_byte_identical(self, rng):
        d, _ = make_train_dataset(rng, num_users=6, num_items=4)
        text = dataset_text(d)
        again = dataset_text(parse_text(text))
        assert text == again

    def test_round_trip_preserves_exact_values(self, rng):
        d, _ = make_train_dataset(rng, num_users=5, num_items=3)
        back = parse_text(dataset_text(d))
        assert back.values.tolist() == d.values.tolist()
        assert back.protected.tolist() == d.protected.tolist()
        assert back.rating_scale == d.rating_scale

    def test_round_trip_keeps_labels(self):
        d = small_dataset(user_group_fine=("W", "MS", "WS"),
                          item_group=("Fem", "STEM"))
        back = parse_text(dataset_text(d))
        assert back.user_group_fine == ("W", "MS", "WS")
        assert back.item_group == ("Fem", "STEM")

    def test_save_and_load(self, tmp_path, rng):
        d, _ = make_train_dataset(rng)
        path = tmp_path / "data.txt"
        save_dataset(d, path)
        back = load_dataset(path)
        assert dataset_text(back) == dataset_text(d)

    def test_empty_text_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_text("")

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_text("users=3 items=x scale=0.0,5.0\n")

    def test_unrecognized_line_reports_number(self):
        text = "users=2 items=1 scale=0.0,5.0\nu 0 1\nu 1 0\nz weird\n"
        with pytest.raises(MalformedLineError) as exc:
            parse_text(text)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("text, message", [
        ("users=2 items=1 scale=0.0,5.0\nu 0 1\nr 0 0 3.0\n", "line 3: no 'u' line for user 1"),
        # more users than the file has lines: found missing at its end as well
        ("users=3 items=1 scale=0.0,5.0\nu 0 1\nu 1 0\n", "line 3: no 'u' line for user 2"),
    ])
    def test_missing_user_line_rejected(self, text, message):
        for parse in (parse_text, oracle_parse_dataset):
            with pytest.raises(MalformedLineError) as exc:
                parse(text)
            assert str(exc.value) == message

    def test_user_index_out_of_range(self):
        text = "users=2 items=1 scale=0.0,5.0\nu 0 1\nu 5 0\n"
        with pytest.raises(MalformedLineError, match="^line 3: user index 5 out of range$"):
            parse_text(text)

    def test_fine_labels_must_cover_all_users(self):
        text = "users=2 items=1 scale=0.0,5.0\nu 0 1 W\nu 1 0\nr 0 0 3.0\n"
        with pytest.raises(MalformedLineError,
                           match="^line 4: fine labels must cover all users or none$"):
            parse_text(text)

    def test_item_label_index_out_of_range(self):
        text = "users=2 items=2 scale=0.0,5.0\nu 0 1\nu 1 0\ng 2 Fem\n"
        with pytest.raises(MalformedLineError, match="item index 2 out of range") as exc:
            parse_text(text)
        assert exc.value.line_no == 4

    def test_item_labels_must_cover_all_items(self):
        text = "users=2 items=2 scale=0.0,5.0\nu 0 1\nu 1 0\ng 0 Fem\nr 0 1 3.0\n"
        with pytest.raises(MalformedLineError, match="cover all items or none"):
            parse_text(text)

    def test_bad_protected_flag_rejected(self):
        text = "users=1 items=1 scale=0.0,5.0\nu 0 2\n"
        with pytest.raises(MalformedLineError):
            parse_text(text)

    @pytest.mark.parametrize("header, message", [
        ("users=-1 items=1 scale=0.0,5.0", "user and item counts must be >= 1"),
        ("users=1 items=-2 scale=0.0,5.0", "user and item counts must be >= 1"),
        ("users=2 items=0 scale=0.0,5.0", "user and item counts must be >= 1"),
        ("users=0 items=1 scale=0.0,5.0", "user and item counts must be >= 1"),
        ("users=2 items=1 scale=5,1", "invalid rating scale (5.0, 1.0)"),
        ("users=2 items=1 scale=nan,5", "invalid rating scale (nan, 5.0)"),
        ("users=2 items=1 scale=0,inf", "invalid rating scale (0.0, inf)"),
    ])
    def test_header_checked_on_line_one(self, header, message):
        text = header + "\nu 0 1\nu 1 0\n"
        for parse in (parse_text, oracle_parse_dataset):
            with pytest.raises(MalformedLineError) as exc:
                parse(text)
            assert exc.value.line_no == 1 and message in str(exc.value)

    def test_header_sizes_checked_against_memory_first(self, monkeypatch):
        """The counts are weighed at the header, before a line of the body
        is read or anything is sized by them."""
        text = "users=2 items=1000 scale=0.0,5.0\nu 0 1\nu 1 0\nz weird\n"
        monkeypatch.setattr(core, "_memory_budget", lambda: 16 * 1002 - 1)
        with pytest.raises(FairrecError, match="a 2 x 1000 dataset needs at least") as exc:
            parse_text(text)
        assert not isinstance(exc.value, MalformedLineError)
        monkeypatch.setattr(core, "_memory_budget", lambda: 16 * 1002)
        with pytest.raises(MalformedLineError) as exc:
            parse_text(text)
        assert exc.value.line_no == 4

    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_unreported_memory_bounds_nothing(self, monkeypatch, error):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(core.os, "sysconf", sysconf)
        assert core._memory_budget() is None
        core._check_memory(10**30, "a huge dataset")

    @pytest.mark.parametrize("line, message", [
        ("u 1 0 X", "unknown fine user group 'X'"),
        ("g 0 Foo", "unknown item group 'Foo'"),
    ])
    def test_unknown_label_reports_its_line(self, line, message):
        text = f"users=2 items=1 scale=0.0,5.0\nu 0 1 W\n{line}\nr 0 0 1.0\nu 1 0 M\n"
        for parse in (parse_text, oracle_parse_dataset):
            with pytest.raises(MalformedLineError) as exc:
                parse(text)
            assert str(exc.value) == f"line 3: {message}"

    def test_huge_user_count_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("users=100000000000 items=1 scale=0.0,5.0\nu 0 1\n")
        with pytest.raises(FairrecError, match="^a 100000000000 x 1 dataset needs at least") \
                as exc:
            load_dataset(path)
        assert not isinstance(exc.value, MalformedLineError)


SPECIAL_FLOATS = [0.0, -0.0, 1.0, 0.1, 1 / 3, -7.25, 5e-324, 1e300]
# Field texts that int() or float() rejects, and some that they accept in
# unusual spellings.
ODD_TOKENS = ["x", "1.5", "0x1", "1e3", "+3", "007", "1_0", "-0", "1.0.0",
              "inf", "NaN", "-0.0", "1e-400", "r", "u", "\u0663"]
SEPARATORS = [" ", "\t", "  ", " \t ", *LINE_BREAKS]


@st.composite
def datasets(draw):
    """Small valid datasets, with or without labels: distinct pairs inside
    the shape, both user groups, and values inside a drawn scale."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    value = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          unique=True, max_size=12))
    values = draw(st.lists(value, min_size=len(pairs), max_size=len(pairs)))
    bounds = draw(st.lists(value, min_size=1, max_size=2))
    scale = (min(values + bounds), max(values + bounds))
    flags = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    protected = draw(st.permutations([True, False] + flags))
    fine = draw(st.none() | st.lists(st.sampled_from(USER_FINE_GROUPS), min_size=n, max_size=n))
    items = draw(st.none() | st.lists(st.sampled_from(ITEM_GROUPS), min_size=m, max_size=m))
    ratings = [(u, i, v) for (u, i), v in zip(pairs, values)]
    return dataset_from_ratings(n, m, ratings, protected, scale, fine, items)


EDITS = st.tuples(
    st.sampled_from(["drop_field", "add_field", "replace_field", "whitespace",
                     "blank", "join", "break", "move", "shuffle"]),
    st.integers(0, 2**16), st.sampled_from(ODD_TOKENS), st.sampled_from(SEPARATORS))


def apply_edit(lines, edit):
    """One random change to the lines after the header, faulty or not."""
    kind, pos, token, sep = edit
    body = lines[1:]
    if not body:
        return lines
    k = pos % len(body)
    parts = body[k].split() or ["r"]
    if kind == "drop_field":
        del parts[pos % len(parts)]
        body[k] = " ".join(parts)
    elif kind == "add_field":
        body[k] = " ".join(parts + [token])
    elif kind == "replace_field":
        parts[pos % len(parts)] = token
        body[k] = " ".join(parts)
    elif kind == "whitespace":
        body[k] = sep[pos % len(sep):] + sep.join(parts)
    elif kind == "blank":
        body.insert(k, sep.strip(" ") if pos % 2 else "")
    elif kind == "join":  # a lost line break
        body[k:k + 2] = [sep.join(body[k:k + 2])]
    elif kind == "break":  # a line break other than \n inside a line
        at = pos % (len(body[k]) + 1)
        body[k] = body[k][:at] + LINE_BREAKS[pos % len(LINE_BREAKS)] + body[k][at:]
    elif kind == "move":
        body.insert(pos % (len(body) + 1), body.pop(k))
    else:
        random.Random(pos).shuffle(body)
    return lines[:1] + body


def outcome(parse, text):
    """The parsed dataset's fields, or the failure's type and line number."""
    try:
        d = parse(text)
    except Exception as exc:  # every failure must match the oracle's
        return type(exc), getattr(exc, "line_no", None)
    return (d.num_users, d.num_items, d.user_idx.tobytes(), d.item_idx.tobytes(),
            d.values.tobytes(), d.protected.tobytes(), d.rating_scale,
            d.user_group_fine, d.item_group)


class TestCodecAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(d=datasets())
    def test_format_matches_line_by_line_writer(self, d):
        assert dataset_text(d) == oracle_format_dataset(d)

    @settings(max_examples=300, deadline=None)
    @given(d=datasets(), edits=st.lists(EDITS, max_size=3),
           chunk=st.sampled_from([1, 2, 3, 5, core._CHUNK_LINES]))
    def test_parse_matches_line_by_line_reader(self, d, edits, chunk):
        lines = oracle_format_dataset(d).splitlines()
        for edit in edits:
            lines = apply_edit(lines, edit)
        text = "\n".join(lines) + "\n"
        with mock.patch.object(core, "_CHUNK_LINES", chunk):
            assert outcome(parse_text, text) == outcome(oracle_parse_dataset, text)

    @pytest.mark.parametrize("bad", [(7, 8), (8, 7), (8, 9), (9, 8), (6, 8),
                                     (4, 5), (5, 4), (9, 10), (10, 9)])
    def test_first_fault_reported_across_chunk_boundaries(self, bad):
        # lines 2-3 are u lines, then ratings; at _CHUNK_LINES = 3 the pieces
        # hold lines 1-4 (cut after line 3), 5-9 and 10-11
        lines = ["users=2 items=2 scale=0.0,5.0", "u 0 1", "u 1 0"]
        lines += [f"r {k % 2} {k // 2 % 2} 1.0" for k in range(8)]
        faults = {bad[0]: "r 0 x 1.0", bad[1]: "u 0 1 W extra"}
        for no, line in faults.items():
            lines[no - 1] = line
        with mock.patch.object(core, "_CHUNK_LINES", 3):
            with pytest.raises(MalformedLineError) as exc:
                parse_text("\n".join(lines))
        assert exc.value.line_no == min(bad)

    def test_index_beyond_int64_reports_its_line(self):
        text = "users=1 items=1 scale=0.0,5.0\nu 0 1\nr 0 0 1.0\nr 0 99999999999999999999 1.0\n"
        with pytest.raises(MalformedLineError) as exc:
            parse_text(text)
        assert exc.value.line_no == 4

    def test_noncanonical_rating_lines_keep_file_order(self):
        text = ("users=2 items=3 scale=0.0,5.0\nr 0 2 1.0\n\t r\t1 1  2.0\n"
                "u 0 1\nr 0 1 3.0\nu 1 0\n  r 0 0 4.0\n")
        d = parse_text(text)
        assert d.user_idx.tolist() == [0, 0, 0, 1]
        assert d.item_idx.tolist() == [0, 1, 2, 1]
        assert d.values.tolist() == [4.0, 3.0, 1.0, 2.0]


# Rating lines on which numpy's C reader and int()/float() could part ways:
# numpy rejects "1_0", Unicode digits and the index "5.0" (numpy 1.x only
# warns on it), which int() or float() accept or reject; a one-character field
# would cut "rr" to "r"; a wider line must keep its extra field; numpy skips
# blank lines, strips "#" comments unless told not to, strips \x1f around a
# number, and crashes on some non-ASCII fields. It splits lines at \n alone,
# where str.splitlines also splits at the LINE_BREAKS, so each of those within
# a rating line must send its piece to the line-by-line reader.
READER_GAPS = ["r 1_0 0 1.0", "r 0 0 1_0.5", "r \u0663 0 1.0", "r 0 0 \u0663",
               "r 5.0 0 1.0", "rr 0 0 1.0", "r 0 0 1.0 2.0", "r 0 0 1.0 # note",
               "", " \t", "r \U0009c6ca 0 1.0", "r 0 0 \U0009c6ca", "r\x1f0 1 1.0",
               "r 0 1\x1f1.0", "r\x000 1 1.0", "r 0 1 1.0\x00", "r +1 -0 +1.0",
               f"r {-2**63} 0 1.0", "r 0 1 0x1", "r 0 1 1e", "r 0 1 .5",
               *(f"r 0 1 1.0{brk}r 1 0 3.0" for brk in LINE_BREAKS),
               *(f"r 0 1{brk}1.0" for brk in LINE_BREAKS)]
# Values that must come back with the bits float() gives them.
EXACT_VALUES = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "5e-324",
                "2.2250738585072011e-308", "0." + "1" * 60, "9" * 60, "-" + "3" * 30 + "." + "7" * 30]


def exact_outcome(parse, text):
    """The parsed dataset's fields, or the failure's type, line and message."""
    try:
        parse(text)
    except Exception as exc:  # every failure must match the oracle's
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return outcome(parse, text)


class TestCReaderAgainstOracle:
    @pytest.mark.parametrize("chunk", [1, 3, 5, core._CHUNK_LINES])
    @pytest.mark.parametrize("line", READER_GAPS + [f"r 0 1 {v}" for v in EXACT_VALUES])
    def test_matches_line_by_line_reader(self, line, chunk):
        text = f"users=2 items=2 scale=0.0,5.0\nu 0 1\nu 1 0\nr 0 0 1.0\n{line}\nr 1 1 2.0\n"
        with mock.patch.object(core, "_CHUNK_LINES", chunk):
            assert exact_outcome(parse_text, text) == exact_outcome(oracle_parse_dataset, text)

    @pytest.mark.parametrize("index", [str(2**63), str(-2**63 - 1)])
    def test_index_just_beyond_int64_reports_its_line(self, index):
        # int() reads it and numpy's reader rejects it; the int64 column cannot hold it
        text = f"users=1 items=1 scale=0.0,5.0\nu 0 1\nr 0 0 1.0\nr 0 {index} 1.0\n"
        with pytest.raises(MalformedLineError) as exc:
            parse_text(text)
        assert exc.value.line_no == 4

    def test_synth_gen_file_takes_the_c_reader(self, tmp_path):
        path = tmp_path / "synth.txt"
        assert main(["synth-gen", "--users", "40", "--items", "30", "--out", str(path)]) == 0
        read_rows, line_reads = core._read_rows, []

        def recorded(piece, first_no, dtype, read_line, **kwargs):
            def read_recorded(no, line):
                line_reads.append(line)
                return read_line(no, line)
            return read_rows(piece, first_no, dtype, read_recorded, **kwargs)

        with mock.patch.object(core, "_read_rows", recorded):
            d = load_dataset(path)
        # only the u and g lines are read one at a time; every r line went to numpy
        assert line_reads and all(line[:2] in ("u ", "g ") for line in line_reads)
        assert dataset_text(d) == path.read_text()


TINY_ROW = np.dtype([("k", "U1"), ("x", np.int64)])


def tiny_line(no, line):
    """A record for "k" and an int, None for a lone "c", else MalformedLineError."""
    parts = line.split()
    if parts == ["c"]:
        return None
    if len(parts) != 2 or parts[0] != "k":
        raise MalformedLineError(no, "bad line")
    try:
        return "k", int(parts[1])
    except ValueError as exc:
        raise MalformedLineError(no, str(exc)) from exc


@pytest.mark.parametrize("lines, prefix, reads, result", [
    (["k 1", "k 2"], "k ", [], [1, 2]),
    (["k 1", "c", "k\t3", "k 2"], "k ", [10, 11, 12, 13], [1, 3, 2]),
    (["k 1", "k x", "k 2"], "k ", [10, 11], 11),
    (["k 1", "k \u00b2", "k 2"], "k ", [10, 11], 11),
    (["k 1", "", "k 2"], "", [10, 11], 11),
    (["k 1\x0ck 2", "k 3"], "k ", [10, 11, 12], [1, 2, 3]),
], ids=["accepted", "mixed", "c-reader-error", "non-ascii", "skipped-blank",
        "other-line-break"])
def test_read_rows_outcomes(lines, prefix, reads, result):
    # result: the x column, or the number of the line that must raise
    text = "".join(line + "\n" for line in lines)
    seen = []

    def read_line(no, line):
        seen.append(no)
        return tiny_line(no, line)

    if isinstance(result, int):
        with pytest.raises(MalformedLineError) as exc:
            core._read_rows(text, 10, TINY_ROW, read_line, prefix=prefix)
        assert exc.value.line_no == result
    else:
        rows, count = core._read_rows(text, 10, TINY_ROW, read_line, prefix=prefix)
        assert rows.dtype == TINY_ROW and rows["x"].tolist() == result
        assert count == len(text.splitlines())
    assert seen == reads


def test_dataset_file_is_read_in_pieces(tmp_path):
    path = tmp_path / "synth.txt"
    assert main(["synth-gen", "--users", "40", "--items", "30", "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    sizes = []

    class SizedReads(io.StringIO):
        """A stream that records each read's size and refuses an unsized read."""

        def read(self, size=-1):
            if size is None or size < 0:
                raise AssertionError("the whole stream was read at once")
            sizes.append(size)
            return super().read(size)

    with mock.patch.object(core, "_CHUNK_LINES", 3):
        d = parse_dataset(SizedReads(text))
    assert len(sizes) > 1 and max(sizes) <= 16 * 3
    assert outcome(lambda _: d, text) == outcome(oracle_parse_dataset, text)


def _result_table():
    from fairrec.harness import ResultTable
    return ResultTable("penalty", ("none",), np.ones((1, 6, 2)))


def _movielens_raw():
    from fairrec.movielens import MovieLensRaw
    return MovieLensRaw({1: "F"}, {2: frozenset({"Action"})}, [0], [0], [5.0])


@pytest.mark.parametrize("make", [
    lambda: small_dataset(), lambda: FactorModel(np.ones((2, 2)), np.ones((3, 2)),
                                                 np.zeros(2), np.zeros(3)),
    _result_table, _movielens_raw, lambda: TrainTrace(np.ones(2), np.zeros(2)),
], ids=["Dataset", "FactorModel", "ResultTable", "MovieLensRaw", "TrainTrace"])
def test_array_holders_compare_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert (a == b) is False and a != b
