"""Domain types, validation, and the dataset text format."""

import numpy as np
import pytest

from fairrec import (
    Dataset,
    DuplicateRatingError,
    EmptyGroupError,
    FactorModel,
    Hyperparams,
    IndexOutOfRangeError,
    MalformedLineError,
    MetricReport,
    METRIC_FIELDS,
    RatingOutOfScaleError,
    format_dataset,
    load_dataset,
    parse_dataset,
    save_dataset,
    validate_dataset,
)

from conftest import make_train_dataset


def small_dataset(**overrides):
    kwargs = dict(
        num_users=3,
        num_items=2,
        ratings=[(0, 0, 2.0), (1, 1, 3.0), (2, 0, 1.0), (1, 0, 4.0)],
        protected=[True, False, True],
        rating_scale=(1.0, 5.0),
    )
    kwargs.update(overrides)
    return Dataset.from_ratings(**kwargs)


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
        with pytest.raises(ValueError):
            small_dataset(protected=[True, False])

    def test_rejects_bad_fine_labels(self):
        with pytest.raises(ValueError):
            small_dataset(user_group_fine=("W", "K", "M"))

    def test_rejects_bad_item_labels(self):
        with pytest.raises(ValueError):
            small_dataset(item_group=("Fem", "Other"))

    def test_num_ratings(self):
        assert small_dataset().num_ratings == 4


class TestValidateDataset:
    def test_accepts_valid(self):
        d = small_dataset()
        assert validate_dataset(d) is d

    def test_user_index_out_of_range(self):
        d = small_dataset(ratings=[(0, 0, 2.0), (7, 1, 3.0)])
        with pytest.raises(IndexOutOfRangeError):
            validate_dataset(d)

    def test_item_index_out_of_range(self):
        d = small_dataset(ratings=[(0, 0, 2.0), (1, 5, 3.0)])
        with pytest.raises(IndexOutOfRangeError):
            validate_dataset(d)

    def test_duplicate_rating(self):
        d = small_dataset(ratings=[(0, 0, 2.0), (0, 0, 3.0)])
        with pytest.raises(DuplicateRatingError):
            validate_dataset(d)

    def test_rating_outside_scale(self):
        d = small_dataset(ratings=[(0, 0, 0.5)])
        with pytest.raises(RatingOutOfScaleError):
            validate_dataset(d)

    def test_all_protected_rejected(self):
        d = small_dataset(protected=[True, True, True])
        with pytest.raises(EmptyGroupError):
            validate_dataset(d)

    def test_none_protected_rejected(self):
        d = small_dataset(protected=[False, False, False])
        with pytest.raises(EmptyGroupError):
            validate_dataset(d)


class TestFactorModel:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            FactorModel(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
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
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            Hyperparams(**bad)


class TestMetricReport:
    def test_as_dict_matches_field_order(self):
        r = MetricReport(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, items_counted=7)
        assert tuple(r.as_dict()) == METRIC_FIELDS
        assert r.as_dict()["parity"] == 0.6


class TestDatasetFormat:
    def test_round_trip_is_byte_identical(self, rng):
        d, _ = make_train_dataset(rng, num_users=6, num_items=4)
        text = format_dataset(d)
        again = format_dataset(parse_dataset(text))
        assert text == again

    def test_round_trip_preserves_exact_values(self, rng):
        d, _ = make_train_dataset(rng, num_users=5, num_items=3)
        back = parse_dataset(format_dataset(d))
        assert back.values.tolist() == d.values.tolist()
        assert back.protected.tolist() == d.protected.tolist()
        assert back.rating_scale == d.rating_scale

    def test_round_trip_keeps_labels(self):
        d = small_dataset(user_group_fine=("W", "MS", "WS"),
                          item_group=("Fem", "STEM"))
        back = parse_dataset(format_dataset(d))
        assert back.user_group_fine == ("W", "MS", "WS")
        assert back.item_group == ("Fem", "STEM")

    def test_save_and_load(self, tmp_path, rng):
        d, _ = make_train_dataset(rng)
        path = tmp_path / "data.txt"
        save_dataset(d, path)
        back = load_dataset(path)
        assert format_dataset(back) == format_dataset(d)

    def test_empty_text_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_dataset("")

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedLineError):
            parse_dataset("users=3 items=x scale=0.0,5.0\n")

    def test_unrecognized_line_reports_number(self):
        text = "users=2 items=1 scale=0.0,5.0\nu 0 1\nu 1 0\nz weird\n"
        with pytest.raises(MalformedLineError) as exc:
            parse_dataset(text)
        assert exc.value.line_no == 4

    def test_missing_user_line_rejected(self):
        text = "users=2 items=1 scale=0.0,5.0\nu 0 1\nr 0 0 3.0\n"
        with pytest.raises(MalformedLineError):
            parse_dataset(text)

    def test_bad_protected_flag_rejected(self):
        text = "users=1 items=1 scale=0.0,5.0\nu 0 2\n"
        with pytest.raises(MalformedLineError):
            parse_dataset(text)

    @pytest.mark.parametrize("header", ["users=-1 items=1 scale=0.0,5.0",
                                        "users=1 items=-2 scale=0.0,5.0",
                                        "users=3 items=1 scale=0.0,5.0"])
    def test_header_counts_checked_on_line_one(self, header):
        with pytest.raises(MalformedLineError) as exc:
            parse_dataset(header + "\nu 0 1\nu 1 0\n")
        assert exc.value.line_no == 1

    def test_huge_user_count_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("users=100000000000 items=1 scale=0.0,5.0\nu 0 1\n")
        with pytest.raises(MalformedLineError) as exc:
            load_dataset(path)
        assert exc.value.line_no == 1
