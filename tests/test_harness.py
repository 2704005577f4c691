"""Experiment orchestration, statistics, and table formats."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fairrec import (
    DEFAULT_PENALTIES,
    DivergenceError,
    ExperimentConfig,
    Hyperparams,
    IndivisibleCountError,
    InsufficientSamplesError,
    MalformedLineError,
    METRIC_FIELDS,
    MetricReport,
    PenaltySpec,
    REGIMES,
    ResultTable,
    UnsupportedFormatError,
    aggregate,
    config_experiment,
    config_hyper,
    default_alpha,
    default_trials,
    emit,
    parse_config_file,
    parse_table_csv,
    regime_comparison,
    run_experiment,
    welch_t_test,
)
from fairrec import harness
from fairrec.harness import run_trial

from oracles import oracle_welch


def tiny_config(**overrides):
    kwargs = dict(
        source="synthetic",
        regime="P+O",
        num_users=40,
        num_items=30,
        hyper=Hyperparams(d=2, lam=1e-4, alpha=0.3, learning_rate=0.02,
                          iterations=25, seed=0, init_scale=0.3),
        penalties=(PenaltySpec.none(), PenaltySpec.single("value")),
        trials=3,
        base_seed=0,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def fake_report(rng):
    vals = rng.uniform(0, 1, size=6)
    return MetricReport(*vals, items_counted=int(rng.integers(1, 30)))


class TestDefaults:
    def test_trials(self):
        assert default_trials("synthetic") == 5
        assert default_trials("movielens") == 3

    def test_alpha(self):
        assert default_alpha("synthetic") == 0.3
        assert default_alpha("movielens") == 0.1

    def test_penalty_labels(self):
        labels = tuple(spec.label for spec in DEFAULT_PENALTIES)
        assert labels == ("none", "value", "absolute", "under", "over",
                          "parity", "under:2+over")


class TestExperimentConfig:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            tiny_config(source="csv")

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            tiny_config(regime="X")

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            tiny_config(trials=0)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            tiny_config(split_fraction=1.5)

    def test_rejects_repeated_penalty_label(self):
        value = PenaltySpec.single("value")
        with pytest.raises(ValueError, match="'value'"):
            tiny_config(penalties=(PenaltySpec.none(), value, value))

    @pytest.mark.parametrize("sizes", [dict(num_users=401), dict(num_items=301),
                                       dict(regime="U", num_users=42)])
    def test_rejects_indivisible_sizes_when_built(self, sizes):
        with pytest.raises(IndivisibleCountError):
            tiny_config(**sizes)


def counting(monkeypatch, name):
    """Count the calls through the fairrec.harness binding ``name``."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def copy_ml_dir(src, dst, ratings=None):
    dst.mkdir(exist_ok=True)
    for name in ("users.dat", "movies.dat", "ratings.dat"):
        text = (src / name).read_text(encoding="latin-1")
        if name == "ratings.dat" and ratings is not None:
            text = ratings(text)
        (dst / name).write_text(text, encoding="latin-1")
    return dst


def flip_stars(text):
    """Every rating r becomes 6 - r."""
    lines = []
    for line in text.splitlines():
        u, i, r, t = line.split("::")
        lines.append(f"{u}::{i}::{6 - int(r)}::{t}")
    return "\n".join(lines) + "\n"


class TestRunTrials:
    def test_reports_per_trial_and_deterministic(self):
        config = tiny_config()
        table = run_experiment(config)
        again = run_experiment(config)
        assert table.raw.shape == (2, len(METRIC_FIELDS), 3)
        np.testing.assert_array_equal(table.raw, again.raw)
        # different seeds per trial produce different data and models
        assert len(set(table.values("none", "error"))) == 3

    def test_run_trial_reports_every_spec_in_config_order(self):
        config = tiny_config()
        table = run_experiment(config)
        for t in range(config.trials):
            reports = run_trial(config, t, None)
            assert len(reports) == len(config.penalties)
            for spec, report in zip(config.penalties, reports):
                assert report.error == table.values(spec.label, "error")[t]

    def test_thread_pool_matches_sequential(self, monkeypatch):
        config = tiny_config(trials=3)
        monkeypatch.delenv("FAIRREC_THREADS", raising=False)
        sequential = run_experiment(config)
        monkeypatch.setenv("FAIRREC_THREADS", "3")
        threaded = run_experiment(config)
        np.testing.assert_array_equal(sequential.raw, threaded.raw)
        assert emit(sequential, "csv") == emit(threaded, "csv")

    def test_paper_scale_tables_identical_with_two_threads(self, monkeypatch):
        """At 400 x 300 both data sets are dense, and each score matrix is
        built from several BLAS products."""
        config = ExperimentConfig(hyper=Hyperparams(iterations=4), trials=2)
        monkeypatch.delenv("FAIRREC_THREADS", raising=False)
        sequential = run_experiment(config)
        monkeypatch.setenv("FAIRREC_THREADS", "2")
        threaded = run_experiment(config)
        assert sequential.raw.tobytes() == threaded.raw.tobytes()

    def test_bogus_thread_env_means_sequential(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setenv("FAIRREC_THREADS", "many")
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        table = run_experiment(tiny_config(trials=2))
        assert table.trials == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_trial_seed_and_penalty(self):
        config = tiny_config(
            hyper=Hyperparams(learning_rate=1e200, iterations=5),
            penalties=(PenaltySpec.single("value"),), trials=2, base_seed=7)
        with pytest.raises(DivergenceError) as info:
            run_experiment(config)
        assert str(info.value).startswith("trial 0 (seed 7, regime P+O, penalty value): ")
        assert isinstance(info.value.__cause__, DivergenceError)
        assert str(info.value).endswith(str(info.value.__cause__))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_in_regime_comparison_names_regime(self):
        config = tiny_config(hyper=Hyperparams(learning_rate=1e200, iterations=5),
                             trials=2, base_seed=3)
        with pytest.raises(DivergenceError) as info:
            regime_comparison(config)
        assert str(info.value).startswith(
            f"trial 0 (seed 3, regime {REGIMES[0]}, penalty none): ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_on_movielens_names_trial_seed_and_penalty(self, ml_dir):
        config = tiny_config(source="movielens", ml_path=str(ml_dir), min_ratings=2,
                             hyper=Hyperparams(learning_rate=1e200, iterations=5),
                             trials=2, base_seed=5)
        with pytest.raises(DivergenceError) as info:
            run_experiment(config)
        assert str(info.value).startswith("trial 0 (seed 5, penalty none): ")

    def test_synthetic_data_built_once_per_trial(self, monkeypatch):
        generated = counting(monkeypatch, "generate")
        evals = counting(monkeypatch, "expected_value_eval")
        trained = counting(monkeypatch, "train")
        reported = counting(monkeypatch, "full_report")
        run_experiment(tiny_config(trials=3))
        assert [args[0].seed for args in generated] == [0, 1, 2]
        assert len(evals) == 3
        assert len(trained) == len(reported) == 3 * 2

    def test_movielens_parsed_once_per_run_and_split_per_trial(self, ml_dir, monkeypatch):
        parsed = counting(monkeypatch, "parse_ml1m_dir")
        filtered = counting(monkeypatch, "filter_dataset")
        splits = counting(monkeypatch, "split")
        config = tiny_config(source="movielens", ml_path=str(ml_dir), min_ratings=2,
                             trials=3)
        run_experiment(config)
        assert (len(parsed), len(filtered), len(splits)) == (1, 1, 3)
        run_experiment(config)
        assert (len(parsed), len(filtered), len(splits)) == (2, 2, 6)

    def test_movielens_rereads_rewritten_files(self, ml_dir, tmp_path):
        config = tiny_config(source="movielens", ml_path=str(tmp_path / "ml"),
                             min_ratings=2, trials=2, penalties=(PenaltySpec.none(),))
        copy_ml_dir(ml_dir, tmp_path / "ml")
        before = run_experiment(config)
        copy_ml_dir(ml_dir, tmp_path / "ml", ratings=flip_stars)
        after = run_experiment(config)
        fresh = run_experiment(replace(config, ml_path=str(
            copy_ml_dir(ml_dir, tmp_path / "fresh", ratings=flip_stars))))
        np.testing.assert_array_equal(after.raw, fresh.raw)
        assert not np.array_equal(after.raw, before.raw)


class TestAggregate:
    def test_means_and_stderrs(self, rng):
        reports = {"none": [fake_report(rng) for _ in range(4)],
                   "value": [fake_report(rng) for _ in range(4)]}
        table = aggregate(reports)
        assert table.rows == ("none", "value")
        assert table.trials == 4
        errs = [r.error for r in reports["none"]]
        assert table.mean("none", "error") == pytest.approx(np.mean(errs))
        assert table.stderr("none", "error") == pytest.approx(
            np.std(errs, ddof=1) / 2.0)
        assert table.values("value", "parity").tolist() == \
            [r.parity for r in reports["value"]]

    def test_single_trial_zero_stderr(self, rng):
        table = aggregate({"none": [fake_report(rng)]})
        assert table.degenerate
        assert not table.stderrs.any()

    def test_rejects_ragged(self, rng):
        with pytest.raises(ValueError):
            aggregate({"a": [fake_report(rng)], "b": [fake_report(rng)] * 2})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate({})


class TestWelch:
    def test_matches_scipy(self, rng):
        for _ in range(20):
            a = rng.normal(0.0, 1.0, size=int(rng.integers(2, 12)))
            b = rng.normal(0.3, 2.0, size=int(rng.integers(2, 12)))
            want = stats.ttest_ind(a, b, equal_var=False).pvalue
            assert welch_t_test(a, b) == pytest.approx(want, rel=1e-10)

    def test_matches_hand_formula(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=9)
        t, df = oracle_welch(a.tolist(), b.tolist())
        want = 2.0 * stats.t.sf(abs(t), df)
        assert welch_t_test(a, b) == pytest.approx(want, rel=1e-12)

    def test_zero_variance_conventions(self):
        assert welch_t_test([1.0, 1.0], [1.0, 1.0]) == 1.0
        assert welch_t_test([1.0, 1.0], [2.0, 2.0]) == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            welch_t_test([1.0], [1.0, 2.0])


class TestEmit:
    @pytest.fixture
    def table(self, rng):
        return aggregate({"none": [fake_report(rng) for _ in range(3)],
                          "value": [fake_report(rng) for _ in range(3)]})

    def test_csv_schema(self, table):
        lines = emit(table, "csv").splitlines()
        assert lines[0].startswith("penalty,error_mean,error_se,value_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "none"

    def test_csv_round_trip_exact(self, table):
        back = parse_table_csv(emit(table, "csv"))
        assert back.rows == table.rows
        assert np.array_equal(back.means, table.means)
        assert np.array_equal(back.stderrs, table.stderrs)
        assert back.raw is None

    def test_parsed_table_has_no_values(self, table):
        back = parse_table_csv(emit(table, "csv"))
        with pytest.raises(ValueError):
            back.values("none", "error")

    def test_markdown_shape(self, table):
        lines = emit(table, "markdown").splitlines()
        assert lines[0].startswith("| penalty |")
        assert len(lines) == 2 + len(table.rows)
        assert "±" in lines[2]

    def test_bar_data(self, table):
        lines = emit(table, "bar-data").splitlines()
        assert lines[0] == "penalty,metric,mean"
        assert len(lines) == 1 + len(table.rows) * len(METRIC_FIELDS)
        row, metric, mean = lines[1].split(",")
        assert (row, metric) == ("none", "error")
        assert float(mean) == table.mean("none", "error")

    def test_unknown_format(self, table):
        with pytest.raises(UnsupportedFormatError):
            emit(table, "latex")

    def test_parse_rejects_bad_header(self):
        with pytest.raises(MalformedLineError):
            parse_table_csv("penalty,oops\nnone,1\n")

    def test_parse_rejects_short_row(self, table):
        text = emit(table, "csv")
        lines = text.splitlines()
        broken = "\n".join([lines[0], "none,1.0,2.0"])
        with pytest.raises(MalformedLineError):
            parse_table_csv(broken)


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def tables(draw):
    rows = draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz:+_", min_size=1, max_size=8),
                         min_size=1, max_size=4, unique=True))
    shape = (len(rows), len(METRIC_FIELDS))
    size = shape[0] * shape[1]
    means = draw(st.lists(FINITE, min_size=size, max_size=size))
    stderrs = draw(st.lists(FINITE.map(abs), min_size=size, max_size=size))
    return ResultTable("penalty", rows, np.reshape(means, shape),
                       np.reshape(stderrs, shape), trials=2)


class TestCsvProperties:
    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_parse_of_emit_is_exact(self, table):
        back = parse_table_csv(emit(table, "csv"))
        assert back.rows == table.rows
        assert back.means.tobytes() == table.means.tobytes()
        assert back.stderrs.tobytes() == table.stderrs.tobytes()


class TestRunExperiment:
    def test_rows_follow_penalties(self):
        table = run_experiment(tiny_config())
        assert table.rows == ("none", "value")
        assert table.trials == 3
        assert table.raw is not None
        assert (table.means[:, 0] > 0).all()

    def test_regime_comparison_rows(self):
        table = regime_comparison(tiny_config(trials=2))
        assert table.row_kind == "regime"
        assert table.rows == REGIMES

    def test_regime_comparison_needs_synthetic(self, ml_dir):
        config = tiny_config(source="movielens", ml_path=str(ml_dir),
                             min_ratings=2, trials=2)
        with pytest.raises(ValueError):
            regime_comparison(config)

    def test_movielens_source(self, ml_dir):
        config = tiny_config(source="movielens", ml_path=str(ml_dir),
                             min_ratings=2, trials=2,
                             penalties=(PenaltySpec.none(),))
        table = run_experiment(config)
        assert table.rows == ("none",)
        assert table.mean("none", "error") > 0


class TestConfigParsing:
    def test_file_forms(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "source = synthetic\n"
            "regime P+O\n"
            "d=3\n"
            "lambda = 1e-4\n")
        mapping = parse_config_file(path)
        assert mapping == {"source": "synthetic", "regime": "P+O",
                           "d": "3", "lambda": "1e-4"}

    def test_file_rejects_valueless_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("penalty\n")
        with pytest.raises(MalformedLineError):
            parse_config_file(path)

    def test_config_hyper_defaults(self):
        base = Hyperparams()
        hyper = config_hyper({}, "synthetic")
        assert hyper == base
        assert config_hyper({}, "movielens").alpha == default_alpha("movielens")

    def test_config_hyper_overrides(self):
        hyper = config_hyper({"d": "7", "lambda": "0.5", "alpha": "2",
                              "lr": "0.2", "iterations": "9", "seed": "4",
                              "init_scale": "0.7"}, "synthetic")
        assert (hyper.d, hyper.lam, hyper.alpha) == (7, 0.5, 2.0)
        assert (hyper.learning_rate, hyper.iterations) == (0.2, 9)
        assert (hyper.seed, hyper.init_scale) == (4, 0.7)

    def test_config_experiment_mapping(self):
        config = config_experiment({"source": "synthetic", "regime": "O",
                                    "users": "40", "items": "30",
                                    "trials": "2", "seed": "3"})
        assert config.regime == "O"
        assert (config.num_users, config.num_items) == (40, 30)
        assert (config.trials, config.base_seed) == (2, 3)

    def test_config_experiment_rejects_unknown_key(self):
        with pytest.raises(UnsupportedFormatError):
            config_experiment({"sauce": "synthetic"})

    def test_config_experiment_genres(self):
        config = config_experiment({"genres": "action,sci-fi",
                                    "genre_mode": "only-genres"})
        assert config.genres == ("Action", "Sci-Fi")
        assert config.genre_mode == "only-genres"
