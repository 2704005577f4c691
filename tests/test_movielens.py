"""Rating-file ingestion, genre filtering, and the train/test split.

The fixtures in conftest.py define a miniature corpus: eight movies of which
3, 5, 6, 7, 8 list a selected genre, and six users (1, 4, 6 female). Several
expectations below are hand-derived from those files.
"""

import numpy as np
import pytest

from fairrec import (
    DegenerateSplitError,
    EmptyResultError,
    MalformedLineError,
    SELECTED_GENRES,
    UnknownReferenceError,
    filter_dataset,
    parse_ml1m_dir,
    split,
)
from fairrec.movielens import canonical_genres


@pytest.fixture(scope="session")
def raw(ml_dir):
    return parse_ml1m_dir(ml_dir)


class TestCanonicalGenres:
    def test_case_insensitive(self):
        assert canonical_genres(["action", "SCI-FI"]) == ("Action", "Sci-Fi")

    def test_unknown_rejected(self):
        with pytest.raises(UnknownReferenceError):
            canonical_genres(["Action", "Cooking"])


class TestParse:
    def test_counts(self, raw):
        assert len(raw.users) == 6
        assert len(raw.movies) == 8
        assert raw.num_ratings == 15

    def test_genders(self, raw):
        assert raw.users[1] == "F"
        assert raw.users[2] == "M"

    def test_genres_split(self, raw):
        assert raw.movies[3] == frozenset({"Action", "Crime", "Thriller"})

    def test_values_and_stamps(self, raw):
        assert set(np.unique(raw.values)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
        assert raw.timestamps.dtype == np.int64

    def test_malformed_users_line(self, tmp_path, ml_dir):
        bad = tmp_path / "users.dat"
        bad.write_text("1::X::1::10::48067\n", encoding="latin-1")
        from fairrec import parse_ml1m
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(bad, ml_dir / "movies.dat", ml_dir / "ratings.dat")
        assert exc.value.line_no == 1

    def test_malformed_ratings_line(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::5::978300760\n1::5::oops\n", encoding="latin-1")
        from fairrec import parse_ml1m
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 2

    def test_rating_out_of_range(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::6::978300760\n", encoding="latin-1")
        from fairrec import parse_ml1m
        with pytest.raises(MalformedLineError):
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)

    def test_unknown_movie_reference(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::99::5::978300760\n", encoding="latin-1")
        from fairrec import parse_ml1m
        with pytest.raises(UnknownReferenceError):
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)


class TestFilter:
    def test_any_genre_counts(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=2, mode="any-genre")
        # users 1..4 and 6 have >= 2 ratings on genre movies; user 5 has 1
        assert d.num_users == 5
        assert d.num_items == 5
        assert d.num_ratings == 14

    def test_protected_is_female(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=2)
        # surviving users in id order are 1, 2, 3, 4, 6; genders F M M F F
        assert d.protected.tolist() == [True, False, False, True, True]

    def test_scale(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=2)
        assert d.rating_scale == (1.0, 5.0)

    def test_indices_are_dense(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=2)
        assert set(np.unique(d.user_idx)) == set(range(5))
        assert set(np.unique(d.item_idx)) == set(range(5))

    def test_min_ratings_zero_keeps_everyone(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=0)
        assert d.num_users == 6

    def test_stricter_threshold_drops_more(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=3)
        # users 1 (four kept ratings), 2 and 3 (three each) survive, and
        # between them they still rate all five genre movies
        assert d.num_users == 3
        assert d.num_items == 5
        assert d.num_ratings == 10

    def test_only_genres_mode(self, raw):
        d = filter_dataset(raw, SELECTED_GENRES, min_ratings=1, mode="only-genres")
        # movie 8 (Action|Crime) is the only one listing selected genres only
        assert d.num_items == 1
        assert d.num_users == 3
        assert d.num_ratings == 3

    def test_nothing_survives(self, raw):
        with pytest.raises(EmptyResultError):
            filter_dataset(raw, ("Documentary",), min_ratings=1)

    def test_bad_mode_rejected(self, raw):
        with pytest.raises(ValueError):
            filter_dataset(raw, SELECTED_GENRES, mode="sideways")


@pytest.fixture(scope="session")
def filtered(raw):
    return filter_dataset(raw, SELECTED_GENRES, min_ratings=2)


class TestSplit:
    def test_sizes(self, filtered):
        train, test = split(filtered, 0.8, seed=0)
        assert train.num_ratings == round(0.8 * filtered.num_ratings)
        assert train.num_ratings + len(test) == filtered.num_ratings

    def test_disjoint_and_complete(self, filtered):
        train, test = split(filtered, 0.8, seed=1)
        train_pairs = set(zip(train.user_idx.tolist(), train.item_idx.tolist()))
        test_pairs = set(zip(test.user_idx.tolist(), test.item_idx.tolist()))
        all_pairs = set(zip(filtered.user_idx.tolist(), filtered.item_idx.tolist()))
        assert not train_pairs & test_pairs
        assert train_pairs | test_pairs == all_pairs

    def test_deterministic(self, filtered):
        a_train, a_test = split(filtered, 0.8, seed=5)
        b_train, b_test = split(filtered, 0.8, seed=5)
        c_train, _ = split(filtered, 0.8, seed=6)
        assert np.array_equal(a_train.values, b_train.values)
        assert np.array_equal(a_test.values, b_test.values)
        assert not np.array_equal(a_train.user_idx, c_train.user_idx) \
            or not np.array_equal(a_train.item_idx, c_train.item_idx)

    def test_metadata_carried(self, filtered):
        train, test = split(filtered, 0.8, seed=0)
        for side in (train, test):
            assert (side.num_users, side.num_items) == (filtered.num_users,
                                                        filtered.num_items)
            assert side.protected.tolist() == filtered.protected.tolist()
            assert side.rating_scale == filtered.rating_scale

    def test_degenerate_rejected(self, filtered):
        with pytest.raises(DegenerateSplitError):
            split(filtered, 0.01, seed=0)

    def test_bad_fraction_rejected(self, filtered):
        with pytest.raises(ValueError):
            split(filtered, 1.0, seed=0)
