"""Command-line workflows, exercised in process through cli.main()."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fairrec
from fairrec import (
    Dataset,
    METRIC_FIELDS,
    REGIMES,
    load_dataset,
    load_model,
    parse_table_csv,
    save_dataset,
    save_model,
)
from fairrec import cli
from fairrec.cli import main

from conftest import make_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_indivisible_counts_exit_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "synth-gen", "--users", "41", "--items", "30",
                              "--out", str(tmp_path / "x.txt"))
        assert code == 2
        assert stderr.startswith("error:")

    def test_count_beyond_int64_exits_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "synth-gen", "--regime", "U",
                              "--users", "400000000000000000000", "--items", "300",
                              "--out", str(tmp_path / "x.txt"))
        assert code == 2
        assert stderr == "error: user and item counts must fit in int64\n"
        assert not (tmp_path / "x.txt").exists()


class TestMlPrepare:
    def test_prints_counts(self, ml_dir, capsys):
        code, stdout, _ = run(capsys, "ml-prepare", "--ml-path", str(ml_dir),
                              "--min-ratings", "2")
        assert code == 0
        assert stdout == "users=5 movies=5\nratings=14\n"

    def test_writes_dataset(self, ml_dir, tmp_path, capsys):
        out = tmp_path / "ml.txt"
        code, _, _ = run(capsys, "ml-prepare", "--ml-path", str(ml_dir),
                         "--min-ratings", "2", "--out", str(out))
        assert code == 0
        data = load_dataset(out)
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

    def test_unknown_config_key_exits_two(self, ml_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_ratings = 2\nbogus = 1\n")
        code, stdout, stderr = run(capsys, "ml-prepare", "--ml-path", str(ml_dir),
                                   "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert "bogus" in stderr

    def test_config_supplies_path_and_filters(self, ml_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ml_path = {ml_dir}\nmin_ratings = 1\ngenre_mode = only-genres\n")
        code, stdout, _ = run(capsys, "ml-prepare", "--config", str(cfg))
        assert code == 0
        assert stdout == "users=3 movies=1\nratings=3\n"

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "ml-prepare", "--ml-path",
                              str(tmp_path / "nowhere"))
        assert code == 2
        assert stderr.startswith("error:")


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

    def test_penalty_reported(self, synth_file, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, stdout, _ = run(capsys, "train", "--data", str(synth_file), "--d", "2",
                              "--iterations", "10", "--penalty", "value",
                              "--alpha", "0.5", "--out", str(out))
        assert code == 0
        assert float(stdout.rsplit("penalty=", 1)[1]) > 0

        code, stdout, _ = run(capsys, "train", "--data", str(synth_file), "--d", "2",
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

    def test_missing_data_exits_two(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--data", str(tmp_path / "nope.txt"),
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert stderr.startswith("error:")

    def test_malformed_data_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a dataset\n")
        code, _, stderr = run(capsys, "train", "--data", str(bad),
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert stderr.startswith("error:")

    def test_negative_learning_rate_exits_two(self, synth_file, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--data", str(synth_file), "--lr", "-1",
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert stderr.startswith("error:") and "Traceback" not in stderr

    def test_huge_user_count_header_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("users=100000000000 items=1 scale=0.0,5.0\nu 0 1\n")
        code, _, stderr = run(capsys, "train", "--data", str(bad),
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert stderr.startswith("error: line 1:")

    def test_memory_error_exits_two(self, synth_file, tmp_path, capsys, monkeypatch):
        def out_of_memory(path):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "load_dataset", out_of_memory)
        code, _, stderr = run(capsys, "train", "--data", str(synth_file),
                              "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert stderr.startswith("error: out of memory:") and "Traceback" not in stderr

    def test_bad_penalty_exits_two(self, synth_file, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--data", str(synth_file),
                              "--penalty", "sideways", "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert stderr.startswith("error:")


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

    def test_nonpositive_checkpoint_size_exits_two(self, synth_file, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("d=-1 n=1 m=1\n\n\nbu 0\nbi 0\n")
        code, stdout, stderr = run(capsys, "eval", "--model", str(model),
                                   "--data", str(synth_file))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and "line 1" in stderr

    def test_missing_model_exits_two(self, synth_file, tmp_path, capsys):
        code, _, stderr = run(capsys, "eval", "--model", str(tmp_path / "no.txt"),
                              "--data", str(synth_file))
        assert code == 2
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("model_shape, ratings, message", [
        ((7, 9), [(0, 0, 1.0), (1, 0, 2.0)], "model is 7 x 9, data 3 x 3"),
        ((3, 3), [], "no entries"),
    ], ids=["shape-mismatch", "no-ratings"])
    def test_unusable_eval_data_exits_two(self, tmp_path, capsys, model_shape, ratings,
                                          message):
        rng = np.random.default_rng(0)
        n, m = model_shape
        save_model(make_model(rng, n, m), tmp_path / "m.txt")
        save_dataset(Dataset.from_ratings(3, 3, ratings, [True, False, True]),
                     tmp_path / "d.txt")
        code, stdout, stderr = run(capsys, "eval", "--model", str(tmp_path / "m.txt"),
                                   "--data", str(tmp_path / "d.txt"))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and message in stderr


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

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("justakey\n")
        code, _, stderr = run(capsys, "synth-gen", "--config", str(cfg),
                              "--out", str(tmp_path / "syn.txt"))
        assert code == 2
        assert stderr.startswith("error:")

    def test_unknown_key_rejected_by_experiments(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, stderr = run(capsys, "reproduce-fig1", "--config", str(cfg),
                              "--out", str(tmp_path / "f.csv"))
        assert code == 2
        assert "bogus" in stderr


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
        table = parse_table_csv(out.read_text())
        assert table.rows == ("none", "value", "absolute", "under", "over",
                              "parity", "under:2+over")

    def test_table1_indivisible_users_exit_two_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("fairrec.harness.train", no_training)
        out = tmp_path / "t1.csv"
        code, _, stderr = run(capsys, "reproduce-table1", "--users", "401",
                              "--out", str(out))
        assert code == 2
        assert "401 users" in stderr
        assert not out.exists()

    def test_table2_csv(self, ml_dir, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        code, _, _ = run(capsys, "reproduce-table2", "--ml-path", str(ml_dir),
                         "--min-ratings", "2", "--split", "0.7", "--trials", "2",
                         "--d", "2", "--iterations", "15", "--out", str(out))
        assert code == 0
        table = parse_table_csv(out.read_text())
        assert len(table.rows) == 7

    def test_table2_requires_path(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "reproduce-table2",
                              "--out", str(tmp_path / "t2.csv"))
        assert code == 1
        assert "--ml-path" in stderr


def test_cold_import_skips_scipy_stats():
    """scipy.stats takes most of a cold import and no command needs it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairrec.__file__)))
    code = "import sys, fairrec, fairrec.cli; sys.exit('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], timeout=120,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0


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

    def test_help_exits_zero(self, capsys):
        code, stdout, _ = run(capsys, "--help")
        assert code == 0
        assert "synth-gen" in stdout
