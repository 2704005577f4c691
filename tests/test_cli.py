"""Command-line workflows, exercised in process through cli.main()."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrec
from fairrec import (
    METRIC_FIELDS,
    REGIMES,
    Dataset,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from fairrec import cli
from fairrec.cli import main
from fairrec.factorization import Entries

from conftest import make_model

# config keys that every training command reads, in the order refusals list them
HYPER_KEYS = "d, lambda, alpha, lr, iterations, init_scale"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuses(capsys, argv, message, *outputs):
    """Run main(argv) in process and assert a refusal: exit 2, the one line
    ``error: message`` on stderr, an empty stdout, and none of outputs, the
    files the command would write, left behind."""
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert [path for path in outputs if os.path.lexists(path)] == []


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "synth.txt"
    code = main(["synth-gen", "--regime", "P+O", "--users", "40", "--items", "30",
                 "--seed", "0", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_file(synth_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "model.txt"
    code = main(["train", "--data", str(synth_file), "--d", "2", "--lambda", "1e-4",
                 "--iterations", "20", "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def sparse_file(synth_file, tmp_path_factory):
    """synth_file with every fourth rating (7% fill), which takes the gathered
    predictions and the CSR gradient."""
    path = tmp_path_factory.mktemp("cli-sparse") / "sparse.txt"
    lines = synth_file.read_text().splitlines(keepends=True)
    first = next(k for k, line in enumerate(lines) if line.startswith("r "))
    path.write_text("".join(lines[:first] + lines[first + 3::4]))
    entries = Entries(load_dataset(path))
    assert not (entries.dense_predict or entries.dense_gradient)
    return path


class TestSynthGen:
    def test_writes_dataset_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "syn.txt"
        code, stdout, _ = run(capsys, "synth-gen", "--regime", "U", "--users", "40",
                              "--items", "30", "--seed", "3", "--out", str(out))
        assert code == 0
        data = load_dataset(out)
        assert (data.num_users, data.num_items) == (40, 30)
        assert stdout == f"users=40 items=30 ratings={data.num_ratings}\n"
        sidecar = tmp_path / "syn.txt.blocks"
        assert sidecar.read_text().splitlines()[0] == "regime U"

    def test_custom_sidecar_path(self, tmp_path, capsys):
        out, blocks = tmp_path / "syn.txt", tmp_path / "own.blocks"
        code, _, _ = run(capsys, "synth-gen", "--regime", "P", "--users", "20",
                         "--items", "12", "--out", str(out),
                         "--sidecar", str(blocks))
        assert code == 0
        assert blocks.exists()
        assert not (tmp_path / "syn.txt.blocks").exists()

    def test_same_seed_reproduces_bytes(self, tmp_path, capsys):
        paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
        for path, seed in zip(paths, ("7", "7", "8")):
            code, _, _ = run(capsys, "synth-gen", "--users", "40", "--items", "30",
                             "--seed", seed, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_rejects_unknown_regime(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "synth-gen", "--regime", "X",
                              "--out", str(tmp_path / "x.txt"))
        assert code == 1
        assert "invalid choice" in stderr

    @pytest.mark.parametrize("flags, message", [
        (["--users", "41", "--items", "30"], "41 users cannot be split as "
         "{'W': 0.4, 'WS': 0.1, 'MS': 0.4, 'M': 0.1} with exact counts"),
        (["--regime", "U", "--users", "400000000000000000000", "--items", "300"],
         "user and item counts must fit in int64"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["indivisible-counts", "count-beyond-int64", "negative-seed"])
    def test_bad_size_or_seed_exits_two(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.txt"
        refuses(capsys, ["synth-gen", *flags, "--out", out], message, out, f"{out}.blocks")


class TestMlPrepare:
    @pytest.mark.parametrize("min_ratings, counts", [("2", "users=5 movies=5\nratings=14\n"),
                                                     ("0", "users=6 movies=5\nratings=15\n")],
                             ids=["min-2", "min-0"])
    def test_prints_counts(self, ml_dir, capsys, min_ratings, counts):
        code, stdout, _ = run(capsys, "ml-prepare", "--ml-path", str(ml_dir),
                              "--min-ratings", min_ratings)
        assert code == 0
        assert stdout == counts

    def test_writes_dataset(self, ml_dir, tmp_path, capsys):
        outs = [tmp_path / "ml.txt", tmp_path / "ml-again.txt"]
        for out in outs:
            code, _, _ = run(capsys, "ml-prepare", "--ml-path", str(ml_dir),
                             "--min-ratings", "2", "--out", str(out))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        data = load_dataset(outs[0])
        assert (data.num_users, data.num_items, data.num_ratings) == (5, 5, 14)
        assert data.protected.sum() == 3

    def test_only_genres_mode(self, ml_dir, capsys):
        code, stdout, _ = run(capsys, "ml-prepare", "--ml-path", str(ml_dir),
                              "--min-ratings", "1", "--mode", "only-genres")
        assert code == 0
        assert stdout == "users=3 movies=1\nratings=3\n"

    def test_requires_path(self, capsys):
        code, _, stderr = run(capsys, "ml-prepare")
        assert code == 1
        assert "--ml-path" in stderr

    def test_config_supplies_path_and_filters(self, ml_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ml_path = {ml_dir}\nmin_ratings = 1\ngenre_mode = only-genres\n")
        code, stdout, _ = run(capsys, "ml-prepare", "--config", str(cfg))
        assert code == 0
        assert stdout == "users=3 movies=1\nratings=3\n"

    @pytest.mark.parametrize("name, edit, message", [
        ("ratings.dat", lambda text: text + "3::5::2::978302040\n",
         "duplicate rating for MovieLens user 3, movie 5"),
        ("users.dat", lambda text: text.replace("1::F::", "1::X::", 1),
         "line 1: bad users line '1::X::1::10::48067'"),
        # numpy's C reader accepts the lone ":", so the piece is read again by line
        ("ratings.dat", lambda text: text.replace("1::6::4::978301968", "1:::2::3::978300000"),
         "line 3: invalid literal for int() with base 10: ':2'"),
        ("ratings.dat", lambda text: text.replace("2::3::4::", "2::3::9::", 1),
         "line 5: rating 9 outside [1, 5]"),
        ("ratings.dat", lambda text: text.replace("2::8::5::", "999::8::5::", 1),
         "line 7: rating references unknown user 999"),
        ("ratings.dat", lambda text: text.replace("3::5::5::", "3::999::5::", 1),
         "line 9: rating references unknown movie 999"),
        ("ratings.dat", lambda text: text.replace("978300719", "9223372036854775808", 1),
         "line 11: timestamp 9223372036854775808 outside the int64 range"),
        ("ratings.dat", lambda text: text.replace("5::7::4::", "\n1::2::3\n5::7::4::", 1),
         "line 14: bad ratings line '1::2::3'"),
        ("ratings.dat", lambda text: text.replace("6::6::5::", "6::2\u00e9::5::", 1),
         "line 15: invalid literal for int() with base 10: '2\u00e9'"),
        ("movies.dat", lambda text: text + "1::Toy Story (1995)::Comedy\n",
         "line 9: repeated id 1"),
    ], ids=["duplicate", "gender-x", "lone-colon", "star-9", "unknown-user", "unknown-movie",
            "timestamp-beyond-int64", "blank-line", "non-ascii-field", "repeated-movie-id"])
    def test_bad_movielens_file_exits_two(self, ml_dir, tmp_path, capsys, name, edit, message):
        root = tmp_path / "ml"
        root.mkdir()
        for part in ("users.dat", "movies.dat", "ratings.dat"):
            text = (ml_dir / part).read_text(encoding="latin-1")
            if part == name:
                text, before = edit(text), text
                assert text != before
            (root / part).write_text(text, encoding="latin-1")
        out = tmp_path / "ml.txt"
        refuses(capsys, ["ml-prepare", "--ml-path", root, "--min-ratings", "2", "--out", out],
                message, out)

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        refuses(capsys, ["ml-prepare", "--ml-path", missing],
                f"[Errno 2] No such file or directory: '{missing / 'users.dat'}'")

    @pytest.mark.parametrize("command", ["ml-prepare", "reproduce-table2"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--genres", "action,bogus", "unknown genre 'bogus'"),
        ("--genres", "", "unknown genre ''"),
        ("--min-ratings", "-3", "min_ratings must be >= 0"),
    ])
    def test_bad_filter_exits_two_before_loading(self, ml_dir, tmp_path, capsys,
                                                 monkeypatch, command, flag, value, message):
        def no_loading(*args, **kwargs):
            raise AssertionError("MovieLens files loaded")

        monkeypatch.setattr("fairrec.harness.parse_ml1m_dir", no_loading)
        out = tmp_path / "out.txt"
        refuses(capsys, [command, "--ml-path", ml_dir, flag, value, "--out", out], message, out)


class TestTrain:
    def test_writes_model_and_trace(self, synth_file, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code, stdout, _ = run(capsys, "train", "--data", str(synth_file), "--d", "2",
                              "--iterations", "20", "--out", str(out))
        assert code == 0
        assert stdout.startswith("final objective=")
        model = load_model(out)
        assert model.user_factors.shape == (40, 2)
        assert model.item_factors.shape == (30, 2)
        lines = (tmp_path / "model.txt.trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective,penalty,combined"
        assert len(lines) == 1 + 20
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("19,")

    def test_trace_flag_sets_path(self, synth_file, tmp_path, capsys):
        out, trace = tmp_path / "m.txt", tmp_path / "own-trace.csv"
        code, _, _ = run(capsys, "train", "--data", str(synth_file), "--d", "2",
                         "--iterations", "5", "--out", str(out),
                         "--trace", str(trace))
        assert code == 0
        assert trace.exists()
        assert not (tmp_path / "m.txt.trace.csv").exists()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_penalty_reported(self, synth_file, sparse_file, tmp_path, capsys, sparse):
        data = sparse_file if sparse else synth_file
        out = tmp_path / "m.txt"
        code, stdout, _ = run(capsys, "train", "--data", str(data), "--d", "2",
                              "--iterations", "10", "--penalty", "value",
                              "--alpha", "0.5", "--out", str(out))
        assert code == 0
        assert float(stdout.rsplit("penalty=", 1)[1]) > 0

        code, stdout, _ = run(capsys, "train", "--data", str(data), "--d", "2",
                              "--iterations", "10", "--penalty", "none",
                              "--out", str(out))
        assert code == 0
        assert float(stdout.rsplit("penalty=", 1)[1]) == 0.0

    def test_same_seed_reproduces_model(self, synth_file, tmp_path, capsys):
        outs = [tmp_path / "m1.txt", tmp_path / "m2.txt"]
        for out in outs:
            code, _, _ = run(capsys, "train", "--data", str(synth_file), "--d", "2",
                             "--iterations", "10", "--seed", "5", "--out", str(out))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: "not a dataset\n",
         "line 1: bad header 'not a dataset': expected users=N items=M scale=LO,HI"),
        # more users than the file has u lines
        (lambda text: text.replace("users=40 ", "users=5000 ", 1),
         "line 407: no 'u' line for user 40"),
        (lambda text: text.replace("u 0 1 W\n", "", 1), "line 406: no 'u' line for user 0"),
        (lambda text: text.replace("u 0 1 W\n", "u 0 1 X\n", 1),
         "line 2: unknown fine user group 'X'"),
        (lambda text: text.replace("\nr ", "\nr 3 x 1.0\nr ", 1),
         "line 72: invalid literal for int() with base 10: 'x'"),
        (lambda text: text.replace("r 0 1 0.0\n", "r 0 1 0.0\n" * 2, 1),
         "duplicate rating for user 0, item 1"),
        (lambda text: text.replace("r 0 1 0.0\n", "r 0 1 7.0\n", 1),
         "rating outside scale [0.0, 1.0]"),
        (lambda text: text.replace("r 0 1 0.0\n", "r 0 1 nan\n", 1),
         "rating outside scale [0.0, 1.0]"),
        # the CLI prints the first 1,000 characters of a message
        (lambda text: "users=1 items=1 scale=0.0,5.0\n" + "x" * 100_000 + "\n",
         "line 2: unrecognized line '" + "x" * 973 + "..."),
    ], ids=["no-header", "users-beyond-u-lines", "no-u-line-for-user-0", "fine-label-x",
            "unreadable-item-index", "repeated-rating", "rating-outside-scale", "nan-rating",
            "long-bad-line"])
    def test_malformed_data_exits_two(self, synth_file, tmp_path, capsys, edit, message):
        bad, out = tmp_path / "bad.txt", tmp_path / "m.txt"
        bad.write_text(edit(synth_file.read_text()))
        refuses(capsys, ["train", "--data", bad, "--out", out], message, out, f"{out}.trace.csv")

    @pytest.mark.parametrize("text, flags, message", [
        ("users=100000000000 items=1 scale=0.0,5.0\nu 0 1\n", [],
         "a 100000000000 x 1 dataset needs at least 1,600,000 MB"),
        ("users=20 items=100000 scale=0.0,5.0\n"
         + "".join(f"u {u} {u % 2}\n" for u in range(20)) + "r 0 0 3.0\n", [],
         "a 20 x 100000 dataset needs at least 2 MB"),
        (None, ["--d", "5000000"], "a 40 x 30 model at d = 5000000 needs at least 11,200 MB"),
    ], ids=["user-count-header", "item-count-header", "model"])
    def test_beyond_memory_exits_two(self, synth_file, tmp_path, capsys, monkeypatch,
                                     text, flags, message):
        def init_model(*args):
            raise AssertionError("the model was allocated")

        monkeypatch.setattr("fairrec.core._memory_budget", lambda: 10**6)
        monkeypatch.setattr("fairrec.trainer.init_model", init_model)
        data, out = tmp_path / "huge.txt", tmp_path / "m.txt"
        data.write_text(text or synth_file.read_text())
        refuses(capsys, ["train", "--data", data, *flags, "--out", out],
                f"{message}, more than the 1 MB of memory on this host", out, f"{out}.trace.csv")

    def test_memory_error_exits_two(self, synth_file, tmp_path, capsys, monkeypatch):
        def out_of_memory(path):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "load_dataset", out_of_memory)
        out = tmp_path / "m.txt"
        refuses(capsys, ["train", "--data", synth_file, "--out", out],
                "out of memory: Unable to allocate 745. GiB", out, f"{out}.trace.csv")

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0"),
        ("--init-scale", "inf", "init_scale must be finite and > 0"),
        ("--init-scale", "nan", "init_scale must be finite and > 0"),
        ("--d", "0", "d (latent dimension) must be >= 1"),
        ("--lambda", "-1", "lambda (lam) must be finite and >= 0"),
        ("--lr", "0", "lr (learning_rate) must be finite and > 0"),
        ("--lr", "-1", "lr (learning_rate) must be finite and > 0"),
        ("--penalty", "sideways", "unknown penalty kind 'sideways'"),
        ("--penalty", "value:abc", "penalty 'value:abc': could not convert string to float: "
                                   "'abc'"),
        ("--penalty", "value:", "penalty 'value:': could not convert string to float: ''"),
        ("--penalty", ": value", "penalty ': value': could not convert string to float: "
                                 "' value'"),
    ], ids=["negative-seed", "infinite-init-scale", "nan-init-scale", "zero-d", "negative-lambda",
            "zero-lr", "negative-lr", "unknown-penalty", "penalty-weight-abc",
            "empty-penalty-weight", "penalty-weight-without-term"])
    def test_bad_flag_exits_two(self, synth_file, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.txt"
        refuses(capsys, ["train", "--data", synth_file, flag, value, "--out", out], message,
                out, f"{out}.trace.csv")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("sparse, flags, iteration", [
        (False, ["--config", "{cfg}"], 0),
        (False, ["--penalty", "parity", "--lr", "1e300", "--iterations", "2"], 1),
        (True, ["--penalty", "parity", "--lr", "1e300", "--iterations", "2"], 1),
    ], ids=["init-scale", "parity-lr-dense", "parity-lr-sparse"])
    def test_diverging_run_exits_two(self, synth_file, sparse_file, tmp_path, capsys,
                                     sparse, flags, iteration):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("init_scale = 1e308\niterations = 3\n")
        out = tmp_path / "m.txt"
        refuses(capsys, ["train", "--data", sparse_file if sparse else synth_file,
                         *(flag.format(cfg=cfg) for flag in flags), "--out", out],
                f"combined objective became non-finite at iteration {iteration}",
                out, f"{out}.trace.csv")


class TestEval:
    def test_reports_every_metric(self, synth_file, model_file, capsys):
        code, stdout, _ = run(capsys, "eval", "--model", str(model_file),
                              "--data", str(synth_file))
        assert code == 0
        lines = stdout.splitlines()
        names = [line.split("=", 1)[0] for line in lines]
        assert names == list(METRIC_FIELDS) + ["items_counted"]
        values = {line.split("=", 1)[0]: line.split("=", 1)[1] for line in lines}
        assert float(values["error"]) > 0
        assert int(values["items_counted"]) > 0

    def test_mse_squares_rmse(self, synth_file, model_file, capsys):
        def error_of(metric):
            code, stdout, _ = run(capsys, "eval", "--model", str(model_file),
                                  "--data", str(synth_file),
                                  "--error-metric", metric)
            assert code == 0
            return float(stdout.splitlines()[0].split("=", 1)[1])

        rmse, mse = error_of("rmse"), error_of("mse")
        assert mse == pytest.approx(rmse ** 2, rel=1e-12)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [lines[0], "p nan nan", *lines[2:]], "line 2: parameters must be finite"),
        (lambda lines: [lines[0], "p inf inf", *lines[2:]], "line 2: parameters must be finite"),
        (lambda lines: lines[:-1], "line 72: expected 73 lines, got 72"),
        (lambda lines: ["d=-1 n=40 m=30", *lines[1:]],
         "line 1: checkpoint sizes must be >= 1, got d=-1 n=40 m=30"),
        (lambda lines: ["n=40 m=30", *lines[1:]],
         "line 1: bad checkpoint header 'n=40 m=30': expected d=D n=N m=M"),
        # more lines than islice can count
        (lambda lines: [f"d=2 n={2**63} m=30", *lines[1:]],
         f"line 73: expected {2**63 + 33} lines, got 73"),
    ], ids=["nan", "inf", "no-last-line", "nonpositive-size", "header-without-d",
            "count-beyond-sys-maxsize"])
    def test_bad_checkpoint_exits_two(self, synth_file, model_file, tmp_path, capsys,
                                      edit, message):
        model = tmp_path / "m.txt"
        model.write_text("\n".join(edit(model_file.read_text().splitlines())) + "\n")
        refuses(capsys, ["eval", "--model", model, "--data", synth_file], message)

    @pytest.mark.parametrize("sparse, terms", [(False, "error, parity"), (True, "error")],
                             ids=["dense", "sparse"])
    def test_overflowing_predictions_exit_two(self, synth_file, sparse_file, model_file,
                                              tmp_path, capsys, sparse, terms):
        lines = model_file.read_text().splitlines()
        parts = lines[1].split()
        parts[1] = "1e308"
        lines[1] = " ".join(parts)
        model = tmp_path / "m.txt"
        model.write_text("\n".join(lines) + "\n")
        data = sparse_file if sparse else synth_file
        refuses(capsys, ["eval", "--model", model, "--data", data],
                f"the model's predictions overflow: {terms} not finite")

    @pytest.mark.parametrize("model_shape, ratings, message", [
        ((7, 9), [(0, 0, 1.0), (1, 0, 2.0)], "model is 7 x 9, data 3 x 3"),
        ((3, 3), [], "evaluation set has no entries"),
        ((3, 3), [(0, 0, 1.0), (1, 0, float("nan"))], "rating outside scale [1.0, 5.0]"),
        ((3, 3), [(0, 0, 1.0), (1, 0, 6.0)], "rating outside scale [1.0, 5.0]"),
        ((3, 3), [(0, 0, 1.0), (1, 0, 2.0), (1, 0, 3.0)], "duplicate rating for user 1, item 0"),
    ], ids=["shape-mismatch", "no-ratings", "nan-rating", "out-of-scale", "duplicate-pair"])
    def test_unusable_eval_data_exits_two(self, tmp_path, capsys, model_shape, ratings,
                                          message):
        rng = np.random.default_rng(0)
        n, m = model_shape
        save_model(make_model(rng, n, m), tmp_path / "m.txt")
        # written as text: a Dataset holding these ratings cannot be built
        (tmp_path / "d.txt").write_text(
            "users=3 items=3 scale=1.0,5.0\nu 0 1\nu 1 0\nu 2 1\n"
            + "".join(f"r {u} {i} {v!r}\n" for u, i, v in ratings))
        refuses(capsys, ["eval", "--model", tmp_path / "m.txt", "--data", tmp_path / "d.txt"],
                message)


class TestConfigFile:
    def test_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users = 20\nitems = 12\nregime = P\nseed = 1\n")
        out = tmp_path / "syn.txt"
        code, stdout, _ = run(capsys, "synth-gen", "--config", str(cfg),
                              "--out", str(out))
        assert code == 0
        assert stdout.startswith("users=20 items=12 ")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users = 20\nitems = 12\nregime = P\n")
        code, stdout, _ = run(capsys, "synth-gen", "--config", str(cfg),
                              "--users", "40", "--out", str(tmp_path / "syn.txt"))
        assert code == 0
        assert stdout.startswith("users=40 items=12 ")

    def test_train_iterations_merge(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 8\nd = 2\n")
        out = tmp_path / "m.txt"

        code, _, _ = run(capsys, "train", "--data", str(synth_file),
                         "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert len((tmp_path / "m.txt.trace.csv").read_text().splitlines()) == 1 + 8

        code, _, _ = run(capsys, "train", "--data", str(synth_file),
                         "--config", str(cfg), "--iterations", "5",
                         "--out", str(out), "--trace", str(tmp_path / "t.csv"))
        assert code == 0
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize("command, text, message", [
        ("train", "# fast\nseed = 1\niteratons = U\n", "line 3: config key 'iteratons' is not "
         f"read here; keys: source, {HYPER_KEYS}, seed, penalty"),
        ("synth-gen", "# fast\nseed = 1\nd = U\n", "line 3: config key 'd' is not read here; "
         "keys: regime, users, items, seed"),
        ("reproduce-table1", "# fast\nseed = 1\npenalty = U\n", "line 3: config key 'penalty' "
         f"is not read here; keys: regime, users, items, {HYPER_KEYS}, trials, seed"),
        ("reproduce-fig1", "# fast\nseed = 1\nregime = U\n", "line 3: config key 'regime' "
         f"is not read here; keys: users, items, {HYPER_KEYS}, trials, seed"),
        ("reproduce-fig1", "bogus = 1\n", "line 1: config key 'bogus' is not read here; "
         f"keys: users, items, {HYPER_KEYS}, trials, seed"),
        ("ml-prepare", "min_ratings = 2\nbogus = 1\n", "line 2: config key 'bogus' is not "
         "read here; keys: ml_path, genres, genre_mode, min_ratings"),
        ("synth-gen", "justakey\n", "line 1: expected 'key = value', got 'justakey'"),
        ("train", "iterations = 5\nd = 2\niterations = 7\n",
         "line 3: config key 'iterations' is set twice"),
        ("train", "source = bogus\niterations = 2\n",
         "source must be one of ('synthetic', 'movielens'), got 'bogus'"),
        ("train", "source = bogus\niterations = 2\nalpha = 0.2\n",
         "source must be one of ('synthetic', 'movielens'), got 'bogus'"),
        ("synth-gen", "users = abc\n",
         "config key 'users': invalid literal for int() with base 10: 'abc'"),
        ("train", "lambda = small\n",
         "config key 'lambda': could not convert string to float: 'small'"),
        ("reproduce-table1", "trials = two\n",
         "config key 'trials': invalid literal for int() with base 10: 'two'"),
    ], ids=["train-unread-key", "synth-gen-unread-key", "reproduce-table1-unread-key",
            "reproduce-fig1-unread-key", "reproduce-fig1-unknown-key", "ml-prepare-unknown-key",
            "no-value", "repeated-key", "unknown-source", "unknown-source-with-alpha",
            "unreadable-users", "unreadable-lambda", "unreadable-trials"])
    def test_bad_config_exits_two(self, synth_file, ml_dir, tmp_path, capsys,
                                  command, text, message):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.txt"
        cfg.write_text(text)
        inputs = {"train": ["--data", synth_file], "ml-prepare": ["--ml-path", ml_dir]}
        refuses(capsys, [command, *inputs.get(command, []), "--config", cfg, "--out", out],
                message, out, f"{out}.blocks", f"{out}.trace.csv")


class TestReproductions:
    FAST = ("--users", "40", "--items", "30", "--trials", "2",
            "--d", "2", "--lambda", "1e-4", "--iterations", "15")

    def test_fig1_bar_data(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, stdout, _ = run(capsys, "reproduce-fig1", *self.FAST, "--out", str(out))
        assert code == 0
        assert stdout == f"wrote {out}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "regime,metric,mean"
        assert len(lines) == 1 + len(REGIMES) * len(METRIC_FIELDS)
        assert lines[1].split(",")[:2] == ["U", "error"]
        for line in lines[1:]:
            float(line.split(",")[2])

    def test_fig1_byte_identical(self, tmp_path, capsys):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            code, _, _ = run(capsys, "reproduce-fig1", *self.FAST, "--out", str(out))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_table1_csv(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        code, _, _ = run(capsys, "reproduce-table1", *self.FAST,
                         "--regime", "P+O", "--out", str(out))
        assert code == 0
        rows = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert rows == ["none", "value", "absolute", "under", "over", "parity", "under:2+over"]

    @pytest.mark.parametrize("argv, trains, message", [
        (["reproduce-table1", "--users", "401"], 0, "401 users cannot be split as "
         "{'W': 0.4, 'WS': 0.1, 'MS': 0.4, 'M': 0.1} with exact counts"),
        (["reproduce-fig1", "--users", "30"], 0, "30 users cannot be split as "
         "{'W': 0.25, 'WS': 0.25, 'MS': 0.25, 'M': 0.25} with exact counts"),
        (["reproduce-table1", *FAST, "--lr", "1e300"], 1, "trial 0 (seed 0, regime P+O, "
         "penalty none): combined objective became non-finite at iteration 1"),
        (["reproduce-fig1", *FAST, "--lr", "1e300"], 1, "trial 0 (seed 0, regime U, "
         "penalty none): combined objective became non-finite at iteration 1"),
        (["reproduce-table2", "--ml-path", "{ml}", "--min-ratings", "2", "--split", "0.9",
          "--trials", "3", "--iterations", "5"], 1, "trial 0 (seed 0, penalty none): "
         "no item has evaluation entries from both groups"),
    ], ids=["table1-users", "fig1-users", "table1-diverging", "fig1-diverging",
            "table2-unusable-split"])
    def test_reproduction_refusal_exits_two(self, ml_dir, tmp_path, capsys, monkeypatch, argv,
                                            trains, message):
        real, calls = fairrec.harness.train, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("fairrec.harness.train", counted)
        out = tmp_path / "out.csv"
        refuses(capsys, [*(arg.format(ml=ml_dir) for arg in argv), "--out", out], message, out)
        assert len(calls) == trains

    def test_table2_csv(self, ml_dir, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        code, _, _ = run(capsys, "reproduce-table2", "--ml-path", str(ml_dir),
                         "--min-ratings", "2", "--split", "0.7", "--trials", "2",
                         "--d", "2", "--iterations", "15", "--out", str(out))
        assert code == 0
        rows = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 7

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0"),
        ("--split", "1.5", "split (split_fraction) must lie strictly between 0 and 1"),
    ])
    def test_table2_bad_value_exits_two_before_loading(self, ml_dir, tmp_path, capsys,
                                                       monkeypatch, flag, value, message):
        def no_loading(*args, **kwargs):
            raise AssertionError("MovieLens files loaded")

        monkeypatch.setattr("fairrec.harness.parse_ml1m_dir", no_loading)
        out = tmp_path / "t2.csv"
        refuses(capsys, ["reproduce-table2", "--ml-path", ml_dir, flag, value, "--out", out],
                message, out)

    def test_table2_requires_path(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "reproduce-table2",
                              "--out", str(tmp_path / "t2.csv"))
        assert code == 1
        assert "--ml-path" in stderr


class TestOutputPaths:
    """A file that cannot be created stops the command before any work."""

    @pytest.mark.parametrize("argv, work, message", [
        (["synth-gen", "--users", "40", "--items", "30", "--out", "{tmp}/d.txt",
          "--sidecar", "{tmp}/missing/s.blocks"], "fairrec.cli.generate",
         "'{tmp}/missing/s.blocks': no directory '{tmp}/missing'"),
        (["synth-gen", "--users", "40", "--items", "30", "--out", "{tmp}"],
         "fairrec.cli.generate", "'{tmp}': it is a directory"),
        (["ml-prepare", "--ml-path", "{ml}", "--min-ratings", "2",
          "--out", "{tmp}/missing/ml.txt"], "fairrec.harness.parse_ml1m_dir",
         "'{tmp}/missing/ml.txt': no directory '{tmp}/missing'"),
        (["train", "--data", "{data}", "--iterations", "5", "--out", "{tmp}/m.txt",
          "--trace", "{tmp}/missing/t.csv"], "fairrec.cli.train",
         "'{tmp}/missing/t.csv': no directory '{tmp}/missing'"),
        (["train", "--data", "{data}", "--iterations", "5", "--out", "{tmp}/missing/m.txt"],
         "fairrec.cli.train", "'{tmp}/missing/m.txt': no directory '{tmp}/missing'"),
        (["reproduce-table1", "--trials", "1", "--iterations", "5",
          "--out", "{tmp}/missing/t1.csv"], "fairrec.harness.train",
         "'{tmp}/missing/t1.csv': no directory '{tmp}/missing'"),
        (["reproduce-fig1", "--trials", "1", "--iterations", "5", "--out", "{tmp}"],
         "fairrec.harness.train", "'{tmp}': it is a directory"),
        (["reproduce-table2", "--ml-path", "{ml}", "--min-ratings", "2",
          "--out", "{tmp}/missing/t2.csv"], "fairrec.harness.parse_ml1m_dir",
         "'{tmp}/missing/t2.csv': no directory '{tmp}/missing'"),
        (["synth-gen", "--users", "40", "--items", "30", "--out", "{tmp}/d.txt",
          "--sidecar", "{tmp}/./d.txt"], "fairrec.cli.generate",
         "'{tmp}/./d.txt': another output, '{tmp}/d.txt', is the same file"),
        (["train", "--data", "{data}", "--iterations", "5", "--out", "{tmp}/m.txt",
          "--trace", "{tmp}/m.txt"], "fairrec.cli.train",
         "'{tmp}/m.txt': another output, '{tmp}/m.txt', is the same file"),
        (["synth-gen", "--users", "40", "--items", "30", "--out", ""],
         "fairrec.cli.generate", "'': the path is empty"),
        (["train", "--data", "{data}", "--iterations", "3", "--out", "{data}"],
         "fairrec.cli.train", "'{data}': the input '{data}' is the same file"),
        (["train", "--data", "{data}", "--config", "{cfg}/train.cfg", "--out", "{tmp}/m.txt",
          "--trace", "{cfg}/train.cfg"], "fairrec.cli.train",
         "'{cfg}/train.cfg': the input '{cfg}/train.cfg' is the same file"),
        (["ml-prepare", "--ml-path", "{ml}", "--min-ratings", "5", "--out", "{ml}/ratings.dat"],
         "fairrec.harness.parse_ml1m_dir",
         "'{ml}/ratings.dat': the input '{ml}/ratings.dat' is the same file"),
        (["ml-prepare", "--config", "{cfg}/ml.cfg", "--out", "{ml}/../{ml_name}/users.dat"],
         "fairrec.harness.parse_ml1m_dir",
         "'{ml}/../{ml_name}/users.dat': the input '{ml}/users.dat' is the same file"),
        (["reproduce-table2", "--ml-path", "{ml}", "--min-ratings", "2",
          "--out", "{ml}/movies.dat"], "fairrec.harness.parse_ml1m_dir",
         "'{ml}/movies.dat': the input '{ml}/movies.dat' is the same file"),
    ], ids=["synth-gen-sidecar", "synth-gen-directory", "ml-prepare", "train-trace",
            "train-out", "reproduce-table1", "reproduce-fig1-directory", "reproduce-table2",
            "synth-gen-sidecar-is-out", "train-trace-is-out", "synth-gen-empty-out",
            "train-out-is-data", "train-trace-is-config", "ml-prepare-out-is-ratings",
            "ml-prepare-out-is-config-users", "reproduce-table2-out-is-movies"])
    def test_unwritable_output_exits_two_before_work(self, argv, work, message, synth_file,
                                                      ml_dir, tmp_path, tmp_path_factory,
                                                      capsys, monkeypatch):
        """Every output lies in tmp_path, which stays empty, or is an input,
        which stays as it was."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        cfg = tmp_path_factory.mktemp("configs")
        (cfg / "train.cfg").write_text("iterations=3\n", encoding="utf-8")
        (cfg / "ml.cfg").write_text(f"ml_path={ml_dir}\nmin_ratings=5\n", encoding="utf-8")
        inputs = {path: path.read_bytes()
                  for path in [synth_file, *ml_dir.iterdir(), *cfg.iterdir()]}
        monkeypatch.setattr(work, no_work)
        # a relative path, such as a default sidecar next to an empty --out,
        # lands in tmp_path too
        monkeypatch.chdir(tmp_path)
        names = dict(tmp=tmp_path, ml=ml_dir, ml_name=ml_dir.name, data=synth_file, cfg=cfg)
        refuses(capsys, [arg.format(**names) for arg in argv],
                "cannot write " + message.format(**names))
        assert list(tmp_path.iterdir()) == []
        assert {path: path.read_bytes() for path in inputs} == inputs


def fail_second_write(monkeypatch, half_made):
    """Make every text write after the first raise OSError, after leaving a
    half-made file behind when half_made is set; returns the paths written
    to, in order."""
    real = fairrec.core._write_text
    paths = []

    def write(path, pieces):
        paths.append(path)
        if len(paths) == 1:
            return real(path, pieces)
        if half_made:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("half")
        raise OSError(28, "No space left on device")

    for module in ("core", "trainer", "synthgen", "cli"):
        monkeypatch.setattr(f"fairrec.{module}._write_text", write)
    return paths


class TestFailedOutputs:
    """When a later output cannot be written, the command removes the outputs
    it wrote before and exits 2."""

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{data}", "--iterations", "2", "--out", "{tmp}/m.txt"],
        ["synth-gen", "--users", "40", "--items", "30", "--out", "{tmp}/d.txt"],
    ], ids=["train-trace", "synth-gen-sidecar"])
    @pytest.mark.parametrize("half_made", [True, False])
    def test_earlier_outputs_removed(self, argv, half_made, synth_file, tmp_path, capsys,
                                     monkeypatch):
        paths = fail_second_write(monkeypatch, half_made)
        refuses(capsys, [arg.format(tmp=tmp_path, data=synth_file) for arg in argv],
                "[Errno 28] No space left on device")
        assert len(paths) == 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_output_that_existed_is_left(self, synth_file, tmp_path, capsys,
                                                monkeypatch):
        fail_second_write(monkeypatch, half_made=False)
        (tmp_path / "t.csv").write_text("older trace\n", encoding="utf-8")
        refuses(capsys, ["train", "--data", synth_file, "--iterations", "2", "--out",
                         tmp_path / "m.txt", "--trace", tmp_path / "t.csv"],
                "[Errno 28] No space left on device", tmp_path / "m.txt")
        assert os.listdir(tmp_path) == ["t.csv"]
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "older trace\n"

    def test_only_regular_files_removed(self, synth_file, tmp_path, capsys, monkeypatch):
        # the checkpoint goes through a link, as an output named /dev/stdout would
        fail_second_write(monkeypatch, half_made=True)
        (tmp_path / "target.txt").write_text("", encoding="utf-8")
        os.symlink(tmp_path / "target.txt", tmp_path / "link.txt")
        refuses(capsys, ["train", "--data", synth_file, "--iterations", "2",
                         "--out", tmp_path / "link.txt"],
                "[Errno 28] No space left on device", tmp_path / "link.txt.trace.csv")
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]
        assert os.path.islink(tmp_path / "link.txt")
        assert (tmp_path / "target.txt").read_text(encoding="utf-8").startswith("d=")


@pytest.mark.parametrize("argv", [
    ["synth-gen", "--out", "{tmp}/d.txt"],
    ["reproduce-table1", "--trials", "1", "--iterations", "1", "--out", "{tmp}/t1.csv"],
    ["reproduce-fig1", "--trials", "1", "--iterations", "1", "--out", "{tmp}/fig1.csv"],
])
def test_sizes_beyond_memory_exit_two_before_generating(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("generation started")

    monkeypatch.setattr("fairrec.core._memory_budget", lambda: 27 * 400 * 300 - 1)
    monkeypatch.setattr("fairrec.cli.generate", no_work)
    monkeypatch.setattr("fairrec.harness.generate", no_work)
    refuses(capsys, [arg.format(tmp=tmp_path) for arg in argv],
            "400 x 300 generated data needs at least 3 MB, more than the 3 MB of memory on "
            "this host")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, message", [
    (None, "[Errno 2] No such file or directory: '{bad}'"),
    (b"d=1 \xff\n", "{bad}: 'utf-8' codec can't decode byte 0xff: invalid start byte"),
], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("argv", [
    ["train", "--data", "{bad}", "--out", "{out}"],
    ["train", "--data", "{data}", "--config", "{bad}", "--out", "{out}"],
    ["eval", "--model", "{bad}", "--data", "{data}"],
], ids=["dataset", "config", "checkpoint"])
def test_unreadable_input_file_exits_two(argv, content, message, synth_file, tmp_path, capsys):
    bad, out = tmp_path / "bad.txt", tmp_path / "m.txt"
    if content:
        bad.write_bytes(content)
    refuses(capsys, [arg.format(bad=bad, data=synth_file, out=out) for arg in argv],
            message.format(bad=bad))
    assert os.listdir(tmp_path) == (["bad.txt"] if content else [])


# Starts the CLI from a small parent and prints the child's peak RSS in KiB:
# a child forked by pytest itself would report pytest's peak.
PEAK_RSS = ("import os, sys\n"
            "argv = [sys.executable, '-m', 'fairrec.cli', *sys.argv[1:]]\n"
            "print(os.wait4(os.posix_spawn(argv[0], argv, os.environ), 0)[2].ru_maxrss)\n")


@pytest.mark.parametrize("argv, text, quote, per_char", [
    (["eval", "--model", "{bad}", "--data", "{data}"], "{x}", "line 1: bad checkpoint header '",
     2.5),
    (["train", "--data", "{bad}", "--out", "{out}"], "{x}", "line 1: bad header '", 2.5),
    (["train", "--data", "{bad}", "--out", "{out}"],
     "users=2 items=1 scale=0.0,5.0\nu 0 1\nu 1 0\nr 0 0 {x}\n",
     "line 4: could not convert string to float: '", 7.0),
    (["synth-gen", "--config", "{bad}", "--out", "{out}"], "{x} = 1\n",
     "line 1: config key '", 5.0),
    (["eval", "--model", "{bad}", "--data", "{data}"], "d=1 n=1 m=1\np {x}\nq 0\nbu 0\nbi 0\n",
     "line 2: bad number: could not convert string to float: '", 4.6),
], ids=["checkpoint-header", "dataset-header", "rating-value", "config-key", "checkpoint-value"])
def test_huge_line_refused_in_bounded_memory(argv, text, quote, per_char, synth_file,
                                             tmp_path, capsys):
    """A file of one 20 MB line, a dataset whose one rating value is 20 MB,
    a config file whose one key is, or a checkpoint whose one factor is, is
    refused with the start of the line quoted. Its peak RSS exceeds that of
    a one-character line by at most per_char bytes per character. Measured
    on Linux, in case order: 2.0, 2.0, 6.6, 4.0 and 4.0, against 3.0, 3.0,
    7.4, 6.0 and 6.0 when the whole line, key or number was quoted (9.4 for
    the rating value while numpy's C reader also read the long piece). Most
    of the rating value's 6.6 is copies of its line and float()'s own
    message, which quotes the whole field."""
    bad, out, size = tmp_path / "bad.txt", tmp_path / "m.txt", 20_000_000
    argv = [arg.format(bad=bad, data=synth_file, out=out) for arg in argv]
    message = quote + "x" * (1000 - len(quote)) + "..."
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairrec.__file__)))
    env, peaks = dict(os.environ, PYTHONPATH=src), []
    for length in (1, size):
        bad.write_text(text.format(x="x" * length), encoding="utf-8")
        done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stderr.startswith("error: " + quote)
        peaks.append(int(done.stdout) * 1024)
    assert done.stderr == f"error: {message}\n"
    assert peaks[1] - peaks[0] <= per_char * size
    refuses(capsys, argv, message, out, f"{out}.trace.csv")


def test_scipy_loaded_only_to_train_on_sparse_data(tmp_path):
    """scipy is most of a cold start. Importing the package and the CLI,
    generating, training on and scoring dense data, and scoring sparse data,
    all in one process, load none of it; training on 4.5%-fill data loads
    scipy.sparse."""
    rng = np.random.default_rng(0)
    flat = rng.choice(200 * 100, size=900, replace=False)
    save_dataset(Dataset(200, 100, flat // 100, flat % 100, rng.uniform(1, 5, 900),
                         np.arange(200) % 3 == 0), tmp_path / "sparse.txt")
    save_model(make_model(rng, 200, 100), tmp_path / "start.model")
    code = (
        "import sys\n"
        "import fairrec, fairrec.cli\n"
        "def scipy_modules():\n"
        "    return [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "for argv in (['synth-gen', '--regime', 'P+O', '--users', '400', '--items', '300',\n"
        "              '--out', 'dense.txt'],\n"
        "             ['train', '--data', 'dense.txt', '--penalty', 'value',\n"
        "              '--iterations', '2', '--out', 'dense.model'],\n"
        "             ['eval', '--model', 'dense.model', '--data', 'dense.txt'],\n"
        "             ['eval', '--model', 'start.model', '--data', 'sparse.txt']):\n"
        "    assert fairrec.cli.main(argv) == 0, argv\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert fairrec.cli.main(['train', '--data', 'sparse.txt', '--iterations', '2',\n"
        "                         '--out', 'sparse.model']) == 0\n"
        "assert 'scipy.sparse' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairrec.__file__)))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


# Tokens that a mutated field or config value may take: unreadable text, a
# float that overflows or spells an int, a NUL, a non-ASCII digit, and counts
# that no memory holds. A header's counts and scale take the second list.
ODD_TOKENS = ("nan", "1e400", "-0.0", "5.0", "\x00", "\xb2", "", "x", "0", "-1", "2",
              "1e300", str(10**12), str(2**63))
HEADER_TOKENS = ("0", "-1", "5", "9", "11", "1e3", "10000", str(10**12), str(2**63), "nan",
                 "1,5", "5,1", "0,0", "nan,1", "-1e400,1e400", "0,1e308")
TEXT_EDITS = st.tuples(
    st.sampled_from(["drop-line", "repeat-line", "swap-lines", "drop-field", "add-field",
                     "replace-field", "header", "add-key"]),
    st.integers(0, 40), st.integers(0, 40), st.sampled_from(ODD_TOKENS),
    st.sampled_from(HEADER_TOKENS))
# Each config's command line: flags fix the trial and iteration counts, which
# a config may not raise, and the MovieLens directory, whose absence is a
# usage error (exit 1).
CONTRACT_CONFIGS = {
    "synth-gen": ("regime = P+O\nusers = 10\nitems = 6\nseed = 1\n", []),
    "train": ("d = 2\nlambda = 1e-4\nalpha = 0.2\nlr = 0.01\ninit_scale = 0.5\nseed = 1\n"
              "penalty = value\nsource = synthetic\n", ["--data", "{data}", "--iterations", "3"]),
    "ml-prepare": ("min_ratings = 2\ngenres = Action,Crime\ngenre_mode = any-genre\n",
                   ["--ml-path", "{ml}"]),
    "reproduce-table2": ("min_ratings = 2\nsplit = 0.7\nseed = 0\nd = 2\nalpha = 0.2\n"
                         "genres = Action,Crime,Musical,Romance,Sci-Fi\n",
                         ["--ml-path", "{ml}", "--trials", "1", "--iterations", "3"]),
    "reproduce-table1": ("regime = P+O\nusers = 10\nitems = 6\nseed = 1\nd = 2\nalpha = 0.2\n",
                         ["--trials", "1", "--iterations", "2"]),
    # 20 users split under the uniform and the biased shares of every regime
    "reproduce-fig1": ("users = 20\nitems = 6\nseed = 1\nd = 2\n",
                       ["--trials", "1", "--iterations", "2"]),
}


def mutate(text, edits, sep=" "):
    """text after each edit in turn: a line dropped, repeated or swapped with
    another; a sep-separated field of a line dropped, added or replaced by a
    token; a value of the first line's key=value fields replaced; or a
    config line inserted."""
    lines = text.splitlines()
    for op, at, other, token, value in edits:
        if not lines:
            break
        k, j = at % len(lines), other % len(lines)
        fields = lines[k].split(sep)
        if op == "drop-line":
            del lines[k]
        elif op == "repeat-line":
            lines.insert(k, lines[k])
        elif op == "swap-lines":
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "header":
            head = lines[0].split(" ")
            f = other % len(head)
            head[f] = head[f].partition("=")[0] + "=" + value
            lines[0] = " ".join(head)
        elif op == "add-key":
            lines.insert(k, f"{cli.CONFIG_KEYS[other % len(cli.CONFIG_KEYS)]} = {token}")
        else:
            f = other % len(fields)
            if op == "drop-field":
                del fields[f]
            elif op == "add-field":
                fields.insert(f, token)
            else:
                fields[f] = token
            lines[k] = sep.join(fields)
    return "".join(line + "\n" for line in lines)


def exits_zero_or_two(argv, outputs):
    """Run main(argv) under a 50 MB memory budget; it must exit 0, or 2 with
    none of outputs left behind."""
    with mock.patch.object(fairrec.core, "_memory_budget", lambda: 50 * 10**6), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code:
        assert not any(map(os.path.exists, outputs)), (argv, err.getvalue())


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """The text of a 10 x 6 dataset and of a 3-iteration checkpoint on it."""
    root = tmp_path_factory.mktemp("contract")
    assert main(["synth-gen", "--users", "10", "--items", "6", "--out", str(root / "d.txt")]) == 0
    assert main(["train", "--data", str(root / "d.txt"), "--d", "2", "--iterations", "3",
                 "--out", str(root / "m.txt")]) == 0
    return (root / "d.txt").read_text(encoding="utf-8"), (root / "m.txt").read_text(encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(["files", *CONTRACT_CONFIGS]),
       edits=st.lists(TEXT_EDITS, max_size=3), model_edits=st.lists(TEXT_EDITS, max_size=3))
def test_mutated_inputs_exit_zero_or_two(contract_inputs, ml_dir, case, edits, model_edits):
    """Every command ends in exit 0 or, for bad input, exit 2 with no output
    file left behind; never in a warning, a traceback or an allocation beyond
    a 50 MB memory budget."""
    with tempfile.TemporaryDirectory() as root:
        def path(name):
            return os.path.join(root, name)

        if case == "files":
            data, model = contract_inputs
            for name, text, mutations in (("d.txt", data, edits), ("m.txt", model, model_edits)):
                with open(path(name), "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(mutate(text, mutations))
            runs = [(["train", "--data", path("d.txt"), "--iterations", "3",
                      "--out", path("out.txt")], [path("out.txt"), path("out.txt.trace.csv")]),
                    (["eval", "--model", path("m.txt"), "--data", path("d.txt")], [])]
        else:
            config, argv = CONTRACT_CONFIGS[case]
            with open(path("run.cfg"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(mutate(config, edits))
            with open(path("d.txt"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(contract_inputs[0])
            argv = [case, *(arg.format(data=path("d.txt"), ml=ml_dir) for arg in argv),
                    "--config", path("run.cfg"), "--out", path("out.txt")]
            runs = [(argv, [path("out.txt"), path("out.txt.blocks"),
                            path("out.txt.trace.csv")])]
        for argv, outputs in runs:
            exits_zero_or_two(argv, outputs)


# Edits of a MovieLens file: lines and "::"-separated fields only, with the
# tokens above and a separator, a gender and a genre list in a wrong field.
ML_EDITS = st.tuples(
    st.sampled_from(["drop-line", "repeat-line", "swap-lines", "drop-field", "add-field",
                     "replace-field"]),
    st.integers(0, 40), st.integers(0, 40),
    st.sampled_from(ODD_TOKENS + (":", "::", "F", "M", "Action|Crime")), st.just(""))
ML_FILES = ("users.dat", "movies.dat", "ratings.dat")


@settings(max_examples=100, deadline=None)
@given(edits=st.tuples(*(st.lists(ML_EDITS, max_size=3) for _ in ML_FILES)))
def test_mutated_movielens_files_exit_zero_or_two(ml_dir, edits):
    """The MovieLens-reading commands end in exit 0 or, for bad files, exit 2
    with no output file left behind; never in a warning, a traceback or an
    allocation beyond a 50 MB memory budget."""
    with tempfile.TemporaryDirectory() as root:
        ml = os.path.join(root, "ml")
        os.mkdir(ml)
        for name, mutations in zip(ML_FILES, edits):
            text = (ml_dir / name).read_text(encoding="latin-1")
            with open(os.path.join(ml, name), "w", encoding="latin-1", newline="\n") as fh:
                fh.write(mutate(text, mutations, sep="::"))
        for argv in (["ml-prepare", "--min-ratings", "2"],
                     ["reproduce-table2", "--min-ratings", "2", "--split", "0.7", "--d", "2",
                      "--trials", "1", "--iterations", "2"]):
            out = os.path.join(root, argv[0] + ".out")
            exits_zero_or_two([*argv, "--ml-path", ml, "--out", out],
                              [out + ext for ext in ("", ".blocks", ".trace.csv")])


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "synth-gen", "--frufru", "1",
                              "--out", str(tmp_path / "x.txt"))
        assert code == 1
        assert "unrecognized" in stderr

    def test_missing_required_out(self, capsys):
        code, _, stderr = run(capsys, "synth-gen")
        assert code == 1
        assert "--out" in stderr

    @pytest.mark.parametrize("command", [
        (), ("synth-gen",), ("ml-prepare",), ("train",), ("eval",),
        ("reproduce-fig1",), ("reproduce-table1",), ("reproduce-table2",),
    ], ids=lambda command: command[0] if command else "fairrec")
    def test_help_exits_zero(self, capsys, command):
        code, stdout, _ = run(capsys, *command, "--help")
        assert code == 0
        assert stdout.startswith(" ".join(("usage: fairrec",) + command) + " ")
        if not command:
            assert "synth-gen" in stdout

    def test_movielens_options_declared_once(self):
        subs = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))

        def movielens_options(command):
            return [(a.option_strings, a.dest, a.type, a.choices, a.help)
                    for a in subs.choices[command]._actions
                    if a.dest in ("ml_path", "genres", "min_ratings", "genre_mode")]

        options = movielens_options("ml-prepare")
        assert [flags for flags, *_ in options] == [
            ["--ml-path"], ["--genres"], ["--min-ratings"], ["--mode"]]
        assert movielens_options("reproduce-table2") == options
