"""Rating-file ingestion, genre filtering, and the train/test split.

The fixtures in conftest.py define a miniature corpus: eight movies of which
3, 5, 6, 7, 8 list a selected genre, and six users (1, 4, 6 female). Several
expectations below are hand-derived from those files.
"""

import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrec.core as core
import fairrec.movielens as movielens
from fairrec import (
    FairrecError,
    MalformedLineError,
    RegimeConfig,
    SELECTED_GENRES,
    filter_dataset,
    generate,
    parse_ml1m_dir,
    split,
)
from fairrec.movielens import MovieLensRaw, canonical_genres, parse_ml1m

from conftest import LINE_BREAKS
from oracles import oracle_filter_dataset, oracle_parse_ml1m


@pytest.fixture(scope="session")
def raw(ml_dir):
    return parse_ml1m_dir(ml_dir)


class TestCanonicalGenres:
    def test_case_insensitive(self):
        assert canonical_genres(["action", "SCI-FI"]) == ("Action", "Sci-Fi")

    def test_unknown_rejected(self):
        with pytest.raises(FairrecError, match="unknown genre 'Cooking'"):
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

    def test_values_are_stars(self, raw):
        assert set(np.unique(raw.values)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
        assert raw.values.dtype == np.float64

    def test_malformed_users_line(self, tmp_path, ml_dir):
        bad = tmp_path / "users.dat"
        bad.write_text("1::X::1::10::48067\n", encoding="latin-1")
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(bad, ml_dir / "movies.dat", ml_dir / "ratings.dat")
        assert exc.value.line_no == 1

    def test_malformed_ratings_line(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::5::978300760\n1::5::oops\n", encoding="latin-1")
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 2

    def test_rating_out_of_range(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::6::978300760\n", encoding="latin-1")
        with pytest.raises(MalformedLineError):
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)

    def test_unknown_movie_reference(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::99::5::978300760\n", encoding="latin-1")
        with pytest.raises(MalformedLineError, match="unknown movie 99") as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 1

    def test_unknown_user_reference_names_its_line(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::5::978300760\n\n42::3::5::978300760\n", encoding="latin-1")
        with pytest.raises(MalformedLineError, match="line 3: .*unknown user 42") as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("uid, message", [("1.5", "invalid literal for int"),
                                              (str(2**63), "outside the int64 range")])
    def test_bad_user_id_rejected(self, tmp_path, ml_dir, uid, message):
        bad = tmp_path / "users.dat"
        bad.write_text(f"1::F::1::10::48067\n{uid}::M::56::16::70072\n", encoding="latin-1")
        with pytest.raises(MalformedLineError, match=message) as exc:
            parse_ml1m(bad, ml_dir / "movies.dat", ml_dir / "ratings.dat")
        assert exc.value.line_no == 2

    def test_repeated_user_id_rejected(self, tmp_path, ml_dir):
        bad = tmp_path / "users.dat"
        bad.write_text("1::F::1::10::48067\n2::M::56::16::70072\n1::M::25::15::55117\n",
                       encoding="latin-1")
        with pytest.raises(MalformedLineError, match="repeated id 1") as exc:
            parse_ml1m(bad, ml_dir / "movies.dat", ml_dir / "ratings.dat")
        assert exc.value.line_no == 3

    def test_repeated_movie_id_rejected(self, tmp_path, ml_dir):
        bad = tmp_path / "movies.dat"
        bad.write_text((ml_dir / "movies.dat").read_text(encoding="latin-1")
                       + "\n3::Heat again (1995)::Drama\n", encoding="latin-1")
        with pytest.raises(MalformedLineError, match="repeated id 3") as exc:
            parse_ml1m(ml_dir / "users.dat", bad, ml_dir / "ratings.dat")
        assert exc.value.line_no == 10  # after eight movies and a blank line

    def test_five_field_line_before_three_field_line(self, tmp_path, ml_dir):
        # together they hold eight fields, as two good lines would
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::5::978300760\n1::5::3::978302109::7\n1::6::4\n",
                       encoding="latin-1")
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 2

    def test_line_ending_in_colon_before_another_line(self, tmp_path, ml_dir):
        # joined with the next line, its colon takes in the line break token
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::5::978300760:\n1::5::3::978302109\n", encoding="latin-1")
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 1

    def test_timestamp_beyond_int64_reports_its_line(self, tmp_path, ml_dir):
        bad = tmp_path / "ratings.dat"
        bad.write_text("1::3::5::978300760\n1::5::3::99999999999999999999\n",
                       encoding="latin-1")
        with pytest.raises(MalformedLineError) as exc:
            parse_ml1m(ml_dir / "users.dat", ml_dir / "movies.dat", bad)
        assert exc.value.line_no == 2


class TestUnknownIds:
    """A rating's id is found among the sorted ids of users.dat or movies.dat:
    the user ids here are dense enough for a lookup table, the movie ids are
    not. An id below the smallest, above the largest or between two of them
    is unknown, and its line is the one reported."""

    USERS = "10::F::25::0::00000\n30::M::25::0::00000\n20::F::25::0::00000\n"
    MOVIES = f"100::A (2000)::Action\n{2**62}::B (2000)::Crime\n200::C (2000)::Drama\n"
    GOOD = ["10::100::5::1", "20::200::4::2", f"30::{2**62}::3::3", "10::200::2::4",
            "20::100::1::5"]

    @pytest.mark.parametrize("chunk", [1, 3, core._CHUNK_LINES])
    @pytest.mark.parametrize("at", [1, 3, 4])
    @pytest.mark.parametrize("kind, bad", [
        ("user", 9), ("user", -2**63), ("user", 31), ("user", 2**63 - 1), ("user", 15),
        ("movie", 99), ("movie", -2**63), ("movie", 2**62 + 1), ("movie", 2**63 - 1),
        ("movie", 150), ("movie", 2**61)])
    def test_unknown_id_reported_at_its_line(self, tmp_path, kind, bad, at, chunk):
        line = f"{bad}::100::5::6" if kind == "user" else f"10::{bad}::5::6"
        lines = self.GOOD[:at - 1] + [line] + self.GOOD[at - 1:]
        paths = [tmp_path / name for name in ("users.dat", "movies.dat", "ratings.dat")]
        for path, text in zip(paths, (self.USERS, self.MOVIES, "\n".join(lines) + "\n")):
            path.write_text(text, encoding="latin-1")
        with mock.patch.object(core, "_CHUNK_LINES", chunk):
            with pytest.raises(MalformedLineError,
                               match=f"^line {at}: rating references unknown {kind} {bad}$"):
                parse_ml1m(*paths)

    def test_known_ids_found_at_their_positions(self, tmp_path):
        paths = [tmp_path / name for name in ("users.dat", "movies.dat", "ratings.dat")]
        for path, text in zip(paths, (self.USERS, self.MOVIES, "\n".join(self.GOOD) + "\n")):
            path.write_text(text, encoding="latin-1")
        raw = parse_ml1m(*paths)
        assert raw.user_pos.tolist() == [0, 1, 2, 0, 1]
        assert raw.movie_pos.tolist() == [0, 1, 2, 1, 0]
        assert raw.user_ids.tolist() == [10, 20, 30, 10, 20]
        assert raw.movie_ids.tolist() == [100, 200, 2**62, 200, 100]


class TestRawPositions:
    def test_built_directly_positions_are_looked_up(self):
        raw = MovieLensRaw({7: "F", -3: "M"}, {5: frozenset(), 2**62: frozenset()},
                           [7, -3, 7], [2**62, 5, 5], [1.0, 2.0, 3.0])
        assert raw.user_pos.tolist() == [1, 0, 1]
        assert raw.movie_pos.tolist() == [1, 0, 0]

    def test_replaced_ids_are_looked_up_again(self, raw):
        again = replace(raw, user_ids=raw.user_ids[::-1].copy(),
                        movie_ids=raw.movie_ids[::-1].copy(), values=raw.values[::-1].copy())
        assert again.user_pos.tolist() == raw.user_pos[::-1].tolist()
        assert again.movie_pos.tolist() == raw.movie_pos[::-1].tolist()

    @pytest.mark.parametrize("users, movies, kind, bad", [
        ([7, 8], [5, 5], "user", 8), ([7, 7], [5, -1], "movie", -1)])
    def test_unknown_id_rejected(self, users, movies, kind, bad):
        with pytest.raises(FairrecError, match=f"^rating references unknown {kind} {bad}$"):
            MovieLensRaw({7: "F"}, {5: frozenset()}, users, movies, [1.0, 2.0])


# ISO-8859-1 text, which ratings.dat is, cannot hold \u2028
ML_LINE_BREAKS = [brk for brk in LINE_BREAKS if brk != "\u2028"]
# Field texts that int() rejects, accepts in unusual spellings, or reads as a
# star outside 1..5 or an id beyond int64; "5:" ends a line in a colon.
ODD_FIELDS = ["x", "+5", " 5", "5_0", "1.5", "", "5:", "0", "6", "1" * 20]
ML_EDITS = st.tuples(
    st.sampled_from(["drop_field", "add_field", "replace_field", "star", "unknown",
                     "repeat", "blank", "crlf", "colon_end", "no_final_newline",
                     "title_char", "break"]),
    st.integers(0, 2), st.integers(0, 2**16), st.sampled_from(ODD_FIELDS))


@st.composite
def ml_files(draw):
    """The lines of small users.dat, movies.dat and ratings.dat files that
    parse; ids stay below 100."""
    uids = draw(st.lists(st.integers(1, 99), min_size=1, max_size=5, unique=True))
    mids = draw(st.lists(st.integers(1, 99), min_size=1, max_size=5, unique=True))
    genres = st.sampled_from(["Action", "Comedy|Drama", "Crime|Romance|Sci-Fi"])
    users = [f"{u}::{draw(st.sampled_from('MF'))}::25::0::00000" for u in uids]
    movies = [f"{m}::Movie {m} (2000)::{draw(genres)}" for m in mids]
    ratings = draw(st.lists(st.builds("{}::{}::{}::{}".format, st.sampled_from(uids),
                                      st.sampled_from(mids), st.integers(1, 5),
                                      st.integers(0, 2**40)), max_size=12))
    return [users, movies, ratings]


def apply_ml_edit(files, ends, edit):
    """One random change to one of the three files, faulty or not."""
    kind, target, pos, token = edit
    if kind in ("star", "unknown"):
        target = 2
    elif kind == "title_char":
        target = 1
    lines = files[target]
    if kind == "blank":
        lines.insert(pos % (len(lines) + 1), ["", " ", "\t ", "  "][pos % 4])
        return
    if kind == "break" and lines:  # a line break other than \n inside a line
        k = pos % len(lines)
        at = pos % (len(lines[k]) + 1)
        lines[k] = lines[k][:at] + ML_LINE_BREAKS[pos % len(ML_LINE_BREAKS)] + lines[k][at:]
        return
    if kind == "no_final_newline":
        ends[target] = ""
        return
    if not lines:
        return
    k = pos % len(lines)
    if kind == "repeat":
        lines.insert(pos % (len(lines) + 1), lines[k])
        return
    parts = lines[k].split("::")
    if kind == "drop_field":
        del parts[pos % len(parts)]
    elif kind == "add_field":
        parts.insert(pos % (len(parts) + 1), token)
    elif kind == "replace_field":
        parts[pos % len(parts)] = token
    elif kind == "star" and len(parts) > 2:
        parts[2] = "06"[pos % 2]
    elif kind == "unknown" and len(parts) > 1:
        parts[pos % 2] = "100"
    elif kind == "title_char" and len(parts) > 1:
        at = pos % (len(parts[1]) + 1)
        parts[1] = parts[1][:at] + "\x85\x0c"[pos % 2] + parts[1][at:]
    elif kind == "crlf":
        parts[-1] += "\r"
    elif kind == "colon_end":
        parts[-1] += ":"
    lines[k] = "::".join(parts)


def ml_outcome(parse, paths):
    """The parsed files' fields, or the failure's type, line and message."""
    try:
        raw = parse(*paths)
    except Exception as exc:  # every failure must match the oracle's
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return (list(raw.users.items()), list(raw.movies.items()), raw.user_ids.tobytes(),
            raw.movie_ids.tobytes(), raw.values.tobytes())


class TestParseAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(files=ml_files(), edits=st.lists(ML_EDITS, max_size=3),
           chunk=st.sampled_from([1, 2, 3, 5, core._CHUNK_LINES]))
    def test_matches_line_by_line_reader(self, files, edits, chunk):
        ends = ["\n"] * 3
        for edit in edits:
            apply_ml_edit(files, ends, edit)
        with tempfile.TemporaryDirectory() as root:
            paths = [os.path.join(root, name)
                     for name in ("users.dat", "movies.dat", "ratings.dat")]
            for path, lines, end in zip(paths, files, ends):
                with open(path, "wb") as fh:
                    fh.write(("\n".join(lines) + end).encode("latin-1"))
            with mock.patch.object(core, "_CHUNK_LINES", chunk):
                assert ml_outcome(parse_ml1m, paths) == ml_outcome(oracle_parse_ml1m, paths)


# Rating lines on which numpy's C reader and int() could part ways: numpy
# rejects "5_0", 2**63 and "5.0" (numpy 1.x only warns on it); it reads a NUL
# in a one-character field as empty and strips \x1f around a number, which
# int() does not; it does not reject extra fields by itself, skips blank
# lines, and strips "#" comments unless told not to. ratings.dat is read as
# ISO-8859-1, so the only non-ASCII text is from that range, such as a no-break
# space, which int() strips, and superscript digits, which it rejects. The
# file is read with universal newlines, so \r and \r\n become \n; the other
# LINE_BREAKS within a rating line must send its piece to the line-by-line
# reader.
ML_READER_GAPS = [
    "1::3::5::5_0", "1_0::3::5::978300760", "\xa01::3::5::978300760\xa0",
    f"1::3::5::{2**63}", f"1::3::5::{-2**63}", f"{2**63}::3::5::978300760",
    "1::3::5.0::978300760", "1:\x00:3::5::978300760", "1::3::5::\x00978300760",
    "1::3::5::\x1f978300760", "1::3::5::978300760\x1f", "1::3::5::978300760::7",
    "1::3::5::978300760 # c", "1::3::5::\xb2", "\xb9::3::5::1",
    "1: :3::5::978300760", "", " ", "\t1::3::5::978300760 ", "1::3::+5::978300760",
    "1::3::5", "1::3::5::978300760:", "1:::3::5::978300760", "1::3::5::1" + "0" * 59,
    *(f"2::7::3::978824291{brk}3::5::5::978302039" for brk in ML_LINE_BREAKS),
    *(f"2::7::3{brk}::978824291" for brk in ML_LINE_BREAKS),
]


class TestCReaderAgainstOracle:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, core._CHUNK_LINES])
    @pytest.mark.parametrize("line", ML_READER_GAPS)
    def test_matches_line_by_line_reader(self, tmp_path, ml_dir, line, chunk):
        ratings = tmp_path / "ratings.dat"
        ratings.write_text(f"1::3::5::978300760\n{line}\n6::5::4::978246585\n", encoding="latin-1")
        paths = (ml_dir / "users.dat", ml_dir / "movies.dat", ratings)
        with mock.patch.object(core, "_CHUNK_LINES", chunk):
            assert ml_outcome(parse_ml1m, paths) == ml_outcome(oracle_parse_ml1m, paths)

    def test_generated_files_take_the_c_reader(self, tmp_path):
        # the layout of the benchmark's MovieLens-1M stand-in files
        data, _ = generate(RegimeConfig("P+O", 40, 30, 3))
        stamps = 978300000 + np.arange(data.num_ratings)
        (tmp_path / "users.dat").write_text("".join(
            f"{u + 1}::{'F' if p else 'M'}::25::0::00000\n"
            for u, p in enumerate(data.protected.tolist())), encoding="latin-1")
        (tmp_path / "movies.dat").write_text("".join(
            f"{i + 1}::Movie {i + 1} (2000)::Action\n" for i in range(data.num_items)),
            encoding="latin-1")
        (tmp_path / "ratings.dat").write_text("".join(
            f"{u + 1}::{i + 1}::{4 if v > 0 else 2}::{t}\n" for u, i, v, t in zip(
                data.user_idx.tolist(), data.item_idx.tolist(), data.values.tolist(),
                stamps.tolist())), encoding="latin-1")
        paths = [tmp_path / name for name in ("users.dat", "movies.dat", "ratings.dat")]
        read_rows = movielens._read_rows

        def no_line_reads(piece, first_no, dtype, read_line, **kwargs):
            return read_rows(piece, first_no, dtype,
                             mock.Mock(side_effect=AssertionError("fallback")), **kwargs)

        with mock.patch.object(movielens, "_read_rows", no_line_reads):
            fast = ml_outcome(parse_ml1m, paths)
        assert fast == ml_outcome(oracle_parse_ml1m, paths)
        assert len(fast) == 5 and len(fast[2]) == 8 * data.num_ratings


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
        with pytest.raises(FairrecError, match="no users or movies survive the filter"):
            filter_dataset(raw, ("Documentary",), min_ratings=1)

    def test_one_group_rejected(self, raw):
        # movie 6, the only Romance one, is rated by users 1, 4 and 6, all F
        with pytest.raises(FairrecError, match="no user is in the advantaged group"):
            filter_dataset(raw, ("Romance",), min_ratings=1)

    def test_repeated_pair_named_by_movielens_ids(self, raw):
        # movie 4 is dropped; of the kept repeats, (3, 5) at dense indices
        # (2, 1) comes first in id order
        extra = [(4, 3), (1, 4), (1, 4), (3, 5)]
        again = replace(raw, user_ids=np.append(raw.user_ids, [u for u, _ in extra]),
                        movie_ids=np.append(raw.movie_ids, [m for _, m in extra]),
                        values=np.append(raw.values, [3.0] * 4))
        with pytest.raises(FairrecError,
                           match="^duplicate rating for MovieLens user 3, movie 5$"):
            filter_dataset(again, SELECTED_GENRES, min_ratings=2)

    def test_bad_mode_rejected(self, raw):
        with pytest.raises(ValueError):
            filter_dataset(raw, SELECTED_GENRES, mode="sideways")


# Ids near both ends of int64, small ones, and any in between, so that a
# table over the id range could not hold them.
ML_IDS = st.one_of(st.integers(-2**63, -2**63 + 3), st.integers(-3, 12),
                   st.integers(2**63 - 4, 2**63 - 1), st.integers(-2**63, 2**63 - 1))
FILTER_GENRES = ("Action", "Comedy", "Crime", "Drama")


@st.composite
def ml_raws(draw):
    """A MovieLensRaw with ids from ML_IDS in no particular order, ratings in
    no particular order, and now and then one (user, movie) pair rated twice."""
    uids = draw(st.lists(ML_IDS, min_size=1, max_size=6, unique=True))
    mids = draw(st.lists(ML_IDS, min_size=1, max_size=6, unique=True))
    users = {uid: draw(st.sampled_from("MF")) for uid in uids}
    movies = {mid: draw(st.frozensets(st.sampled_from(FILTER_GENRES), min_size=1, max_size=3)
                        | st.just(frozenset())) for mid in mids}
    pairs = draw(st.lists(st.tuples(st.sampled_from(uids), st.sampled_from(mids)),
                          min_size=min(6, len(uids) * len(mids)), max_size=24, unique=True))
    if pairs and draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    stars = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    return MovieLensRaw(users, movies, [u for u, _ in pairs], [m for _, m in pairs],
                        np.array(stars, dtype=np.float64))


def filter_outcome(filt, *args):
    """The filtered dataset's fields, or the failure's type and message."""
    try:
        d = filt(*args)
    except (FairrecError, ValueError) as exc:
        return type(exc), str(exc)
    return (d.num_users, d.num_items, d.user_idx.tobytes(), d.item_idx.tobytes(),
            d.values.tobytes(), d.protected.tobytes(), d.rating_scale)


class TestFilterAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(raw=ml_raws(),
           genres=st.lists(st.sampled_from(FILTER_GENRES), min_size=1, max_size=4, unique=True),
           min_ratings=st.integers(-1, 3), mode=st.sampled_from(movielens.GENRE_MODES))
    def test_matches_loop_filter(self, raw, genres, min_ratings, mode):
        assert filter_outcome(filter_dataset, raw, genres, min_ratings, mode) \
            == filter_outcome(oracle_filter_dataset, raw, genres, min_ratings, mode)

    def test_repeated_pair_of_extreme_ids_named_by_them(self):
        top, bottom = 2**63 - 1, -2**63
        raw = MovieLensRaw({top: "F", bottom: "M"}, {bottom: frozenset({"Action"})},
                           [top, bottom, top], [bottom, bottom, bottom], [1.0, 2.0, 3.0])
        message = f"^duplicate rating for MovieLens user {top}, movie {bottom}$"
        for filt in (filter_dataset, oracle_filter_dataset):
            with pytest.raises(FairrecError, match=message):
                filt(raw, ("Action",), 1, "any-genre")

    def test_one_gender_result_rejected_by_both(self):
        # user 9, the only M, rates one movie; 5 and -7 rate two each
        raw = MovieLensRaw({5: "F", -7: "F", 9: "M"}, {4: frozenset({"Crime"}),
                                                         3: frozenset({"Crime"})},
                           [9, -7, 5, 5, -7], [3, 3, 3, 4, 4], [4.0] * 5)
        for filt in (filter_dataset, oracle_filter_dataset):
            with pytest.raises(FairrecError, match="no user is in the advantaged group"):
                filt(raw, ("Crime",), 2, "only-genres")


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
        with pytest.raises(FairrecError, match="leaves one side of a .*-rating split empty"):
            split(filtered, 0.01, seed=0)

    def test_bad_fraction_rejected(self, filtered):
        with pytest.raises(ValueError):
            split(filtered, 1.0, seed=0)
