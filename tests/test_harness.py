"""Experiment orchestration, statistics, and table formats."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fairrec import (
    DivergenceError,
    ExperimentConfig,
    FairrecError,
    Hyperparams,
    MalformedLineError,
    METRIC_FIELDS,
    PenaltySpec,
    REGIMES,
    RegimeConfig,
    ResultTable,
    config_experiment,
    emit,
    full_report,
    generate,
    parse_penalty,
    regime_comparison,
    run_experiment,
    train,
    welch_t_test,
)
from fairrec import factorization, harness
from fairrec.factorization import Entries
from fairrec.harness import (
    DEFAULT_PENALTIES,
    SOURCES,
    config_hyper,
    parse_config_file,
    run_trial,
    source_defaults,
)
from fairrec.metrics import Unfairness

from conftest import counting_builds, make_train_dataset
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


class TestDefaults:
    def test_trials(self):
        assert source_defaults("synthetic")[0] == 5
        assert source_defaults("movielens")[0] == 3

    def test_alpha(self):
        assert source_defaults("synthetic")[1] == 0.3
        assert source_defaults("movielens")[1] == 0.1

    def test_bare_config_has_the_synthetic_defaults(self):
        assert SOURCES["synthetic"] == (ExperimentConfig().trials, Hyperparams().alpha)

    def test_penalty_labels(self):
        labels = tuple(spec.label for spec in DEFAULT_PENALTIES)
        assert labels == ("none", "value", "absolute", "under", "over",
                          "parity", "under:2+over")


class TestExperimentConfig:
    def test_rejects_unknown_source(self):
        with pytest.raises(FairrecError) as info:
            tiny_config(source="csv")
        assert str(info.value) == "source must be one of ('synthetic', 'movielens'), got 'csv'"

    @pytest.mark.parametrize("source", [{}, dict(source="movielens", ml_path="nowhere")],
                             ids=["synthetic", "movielens"])
    def test_rejects_unknown_regime(self, source):
        with pytest.raises(FairrecError) as info:
            tiny_config(regime="bogus", **source)
        assert str(info.value) == f"regime must be one of {REGIMES}, got 'bogus'"

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(FairrecError):
            tiny_config(trials=0)

    def test_rejects_bad_split(self):
        with pytest.raises(FairrecError):
            tiny_config(split_fraction=1.5)

    def test_rejects_repeated_penalty_label(self):
        value = PenaltySpec.single("value")
        with pytest.raises(FairrecError, match="'value'"):
            tiny_config(penalties=(PenaltySpec.none(), value, value))

    def test_weights_apart_in_the_seventh_digit_are_two_rows(self):
        specs = (parse_penalty("value:0.1234567"), parse_penalty("value:0.1234568"))
        config = tiny_config(penalties=specs)
        assert [spec.label for spec in config.penalties] == ["value:0.1234567",
                                                             "value:0.1234568"]

    @pytest.mark.parametrize("sizes", [
        dict(num_users=401), dict(num_items=301), dict(regime="U", num_users=42),
        # checked for every source, though no MovieLens trial reads them
        dict(source="movielens", ml_path="nowhere", num_users=7),
        dict(source="movielens", ml_path="nowhere", num_items=301),
        dict(source="movielens", ml_path="nowhere", regime="U", num_users=42),
    ])
    def test_rejects_indivisible_sizes_when_built(self, sizes):
        with pytest.raises(FairrecError, match="cannot be split"):
            tiny_config(**sizes)

    def test_rejects_negative_base_seed_when_built(self):
        with pytest.raises(FairrecError, match="base_seed must be >= 0"):
            tiny_config(base_seed=-1)

    def test_rejects_unknown_genre_before_reading(self, tmp_path):
        with pytest.raises(FairrecError, match="unknown genre 'bogus'"):
            tiny_config(source="movielens", ml_path=str(tmp_path / "nowhere"),
                        genres=("Action", "bogus"))

    def test_rejects_negative_min_ratings_before_reading(self, tmp_path):
        with pytest.raises(FairrecError, match="min_ratings must be >= 0"):
            tiny_config(source="movielens", ml_path=str(tmp_path / "nowhere"),
                        min_ratings=-1)

    def test_rejects_empty_genres(self, tmp_path):
        with pytest.raises(FairrecError, match="need at least one genre"):
            tiny_config(source="movielens", ml_path=str(tmp_path / "nowhere"), genres=())

    def test_rejects_unknown_genre_mode(self):
        with pytest.raises(FairrecError, match="genre_mode must be one of"):
            tiny_config(genre_mode="most-genres")

    def test_movielens_needs_ml_path(self):
        with pytest.raises(FairrecError, match="movielens experiments need ml_path"):
            tiny_config(source="movielens")

    def test_rejects_no_penalties(self):
        with pytest.raises(FairrecError, match="need at least one penalty spec"):
            tiny_config(penalties=())


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

    def test_divergence_names_trial_seed_and_penalty(self):
        config = tiny_config(
            hyper=Hyperparams(learning_rate=1e200, iterations=5),
            penalties=(PenaltySpec.single("value"),), trials=2, base_seed=7)
        with pytest.raises(DivergenceError) as info:
            run_experiment(config)
        assert str(info.value).startswith("trial 0 (seed 7, regime P+O, penalty value): ")
        assert isinstance(info.value.__cause__, DivergenceError)
        assert str(info.value).endswith(str(info.value.__cause__))

    def test_scoring_error_names_trial_seed_and_penalty(self, ml_dir):
        # seed 0 leaves no item rated by both groups in the 10% test split
        config = tiny_config(source="movielens", ml_path=str(ml_dir), min_ratings=2,
                             split_fraction=0.9)
        with pytest.raises(FairrecError) as info:
            run_experiment(config)
        assert type(info.value) is FairrecError
        assert str(info.value).startswith("trial 0 (seed 0, penalty none): ")
        assert isinstance(info.value.__cause__, FairrecError)
        assert str(info.value).endswith(str(info.value.__cause__))

    def test_data_error_names_trial_and_seed(self, ml_dir):
        config = tiny_config(source="movielens", ml_path=str(ml_dir), min_ratings=2,
                             split_fraction=0.01, base_seed=4)
        with pytest.raises(FairrecError) as info:
            run_experiment(config)
        assert str(info.value).startswith("trial 0 (seed 4): fraction 0.01 leaves")
        assert str(info.value).endswith(str(info.value.__cause__))

    def test_divergence_in_regime_comparison_names_regime(self):
        config = tiny_config(hyper=Hyperparams(learning_rate=1e200, iterations=5),
                             trials=2, base_seed=3)
        with pytest.raises(DivergenceError) as info:
            regime_comparison(config)
        assert str(info.value).startswith(
            f"trial 0 (seed 3, regime {REGIMES[0]}, penalty none): ")

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

    @pytest.mark.parametrize("base_seed", range(6))
    def test_repeated_movielens_rating_rejected_before_any_split(self, ml_dir, tmp_path,
                                                                 monkeypatch, base_seed):
        # a split may put the two copies on either side or on the same one
        repeated = copy_ml_dir(ml_dir, tmp_path / "ml",
                               ratings=lambda text: text + "3::5::2::978302040\n")
        splits = counting(monkeypatch, "split")
        config = tiny_config(source="movielens", ml_path=str(repeated), min_ratings=2,
                             base_seed=base_seed)
        with pytest.raises(FairrecError,
                           match="^duplicate rating for MovieLens user 3, movie 5$"):
            run_experiment(config)
        assert splits == []

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


@pytest.fixture(params=["synthetic", "synthetic-gathers-and-csr", "movielens"])
def seven_specs(request, ml_dir, monkeypatch):
    """A config of every default penalty spec, and its MovieLens source."""
    if request.param.startswith("synthetic"):
        if request.param.endswith("csr"):
            monkeypatch.setattr(factorization, "DENSE_FILL", np.inf)
            monkeypatch.setattr(factorization, "DENSE_GRADIENT_FILL", np.inf)
        return tiny_config(penalties=DEFAULT_PENALTIES), None
    config = tiny_config(source="movielens", ml_path=str(ml_dir), min_ratings=2,
                         split_fraction=0.7, penalties=DEFAULT_PENALTIES)
    return config, harness.load_movielens(config)


def kept_arrays(value, path=""):
    """(path, array) for every array that ``value`` holds: itself, or one
    inside its tuples and attributes, scipy's matrices included."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, tuple):
        for k, item in enumerate(value):
            yield from kept_arrays(item, f"{path}[{k}]")
    elif hasattr(value, "__dict__"):
        for name, item in vars(value).items():
            yield from kept_arrays(item, f"{path}.{name}" if path else name)


class TestSharedIndexes:
    """A dataset builds its prediction and group-cell indexes at its first
    use, and every penalty spec of the trial shares them."""

    def test_reports_do_not_depend_on_the_other_specs(self, seven_specs, monkeypatch):
        config, source = seven_specs
        trained = counting(monkeypatch, "train")
        scored = counting(monkeypatch, "full_report")
        reports = run_trial(config, 0, source)
        backwards = run_trial(replace(config, penalties=config.penalties[::-1]), 0, source)
        assert backwards[::-1] == reports
        (train_set, hyper, _), (_, eval_set) = trained[0], scored[0]
        for spec, report in zip(config.penalties, reports):
            # alone, on copies that have built nothing yet
            model, _ = train(replace(train_set), hyper, spec)
            assert full_report(model, replace(eval_set)) == report

    @pytest.mark.parametrize("dense", [True, False])
    def test_no_use_writes_the_shared_index_arrays(self, rng, dense):
        data, _ = (generate(RegimeConfig("P+O", 40, 30, seed=0)) if dense
                   else make_train_dataset(rng, num_users=60, num_items=40, density=0.045))
        for spec in DEFAULT_PENALTIES:
            model, _ = train(data, tiny_config().hyper, spec)
            full_report(model, data)
        fresh = replace(data)
        train(fresh, replace(tiny_config().hyper, iterations=1))
        assert data._kept(Entries).dense_gradient == dense
        # after its constructor, an Entries sets its CSR structure only
        assert set(vars(data._kept(Entries))) - set(vars(Entries(data))) == \
            (set() if dense else {"_csr"})
        # numpy's take and bincount copy a read-only index at every call, and
        # scipy's products read its own index arrays, so these stay writeable;
        # the others are read-only
        writeable = {Entries: {"_flat"} if dense else {"_csr[0]", "_csr[1]"},
                     Unfairness: {"cell"}}
        for cls, index_names in writeable.items():
            used, built = (dict(kept_arrays(dataset._kept(cls))) for dataset in (data, fresh))
            assert used.keys() == built.keys()
            for name, array in used.items():
                assert array.tobytes() == built[name].tobytes(), name
            assert {name for name, array in used.items() if array.flags.writeable} == index_names
        # a call's predictions and coefficients are not kept with the data
        assert [name for name, array in kept_arrays(data._kept(Entries))
                if array.dtype.kind == "f"] == []

    def test_indexes_built_once_per_dataset(self, monkeypatch):
        built = [counting_builds(monkeypatch, cls) for cls in (Entries, Unfairness)]
        run_experiment(tiny_config(trials=2, penalties=DEFAULT_PENALTIES))
        for datasets in built:
            # a training set and an evaluation set per trial
            assert len(datasets) == len({id(data) for data in datasets}) == 4

    @pytest.mark.parametrize("dense", [True, False])
    def test_dataset_freed_with_its_last_reference(self, rng, dense):
        data, _ = (generate(RegimeConfig("P+O", 40, 30, seed=0)) if dense
                   else make_train_dataset(rng, num_users=60, num_items=40, density=0.045))
        model, _ = train(data, tiny_config().hyper, PenaltySpec.single("value"))
        full_report(model, data)
        ref = weakref.ref(data)
        gc.disable()
        try:
            del data
            assert ref() is None
        finally:
            gc.enable()


class TestResultTable:
    def test_means_and_stderrs(self, rng):
        raw = rng.random((2, len(METRIC_FIELDS), 4))
        table = ResultTable("penalty", ("none", "value"), raw)
        assert table.rows == ("none", "value")
        assert table.raw.shape[2] == 4
        np.testing.assert_array_equal(table.means, raw.mean(axis=2))
        np.testing.assert_array_equal(table.stderrs, raw.std(axis=2, ddof=1) / 2.0)
        assert table.mean("none", "error") == raw[0, 0].mean()
        assert table.values("value", "parity").tolist() == \
            raw[1, METRIC_FIELDS.index("parity")].tolist()

    def test_single_trial_zero_stderr(self, rng):
        table = ResultTable("penalty", ("none",), rng.random((1, len(METRIC_FIELDS), 1)))
        assert table.raw.shape[2] == 1
        assert not table.stderrs.any()

    def test_rejects_ragged(self):
        ragged = [[[0.0]] * len(METRIC_FIELDS), [[0.0, 1.0]] * len(METRIC_FIELDS)]
        with pytest.raises(ValueError):
            ResultTable("penalty", ("a", "b"), ragged)

    def test_table_needs_a_trial(self):
        with pytest.raises(FairrecError, match="trials >= 1"):
            ResultTable("penalty", ("none",), np.zeros((1, len(METRIC_FIELDS), 0)))


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
        with pytest.raises(FairrecError, match="each sample needs at least two values"):
            welch_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(FairrecError, match="samples must be finite"):
            welch_t_test([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(FairrecError, match="samples must be finite"):
            welch_t_test([1.0, 2.0, 3.0], [1.0, -bad])


class TestEmit:
    @pytest.fixture
    def table(self, rng):
        return ResultTable("penalty", ("none", "value"), rng.random((2, 6, 3)))

    def test_csv_schema(self, table):
        lines = emit(table, "csv").splitlines()
        assert lines[0].startswith("penalty,error_mean,error_se,value_mean")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "none"

    def test_csv_round_trip_exact(self, table):
        assert csv_cells(emit(table, "csv")) == (table.rows, table.means.tobytes(),
                                                 table.stderrs.tobytes())

    def test_bar_data(self, table):
        lines = emit(table, "bar-data").splitlines()
        assert lines[0] == "penalty,metric,mean"
        assert len(lines) == 1 + len(table.rows) * len(METRIC_FIELDS)
        row, metric, mean = lines[1].split(",")
        assert (row, metric) == ("none", "error")
        assert float(mean) == table.mean("none", "error")

    @pytest.mark.parametrize("fmt", ["latex", "markdown"])
    def test_unknown_format(self, table, fmt):
        with pytest.raises(FairrecError, match=f"unknown emit format '{fmt}'"):
            emit(table, fmt)


def csv_cells(text):
    """The row labels, means and standard errors of emit(..., "csv") text,
    the numbers read with float() and returned as float64 bytes."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    numbers = np.array([[float(x) for x in cells[1:]] for cells in rows])
    return (tuple(cells[0] for cells in rows), numbers[:, 0::2].tobytes(),
            numbers[:, 1::2].tobytes())


# bounded so that no mean or standard error overflows
VALUES = st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True)


@st.composite
def tables(draw):
    rows = draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz:+_", min_size=1, max_size=8),
                         min_size=1, max_size=4, unique=True))
    shape = (len(rows), len(METRIC_FIELDS), draw(st.integers(1, 4)))
    size = shape[0] * shape[1] * shape[2]
    raw = draw(st.lists(VALUES, min_size=size, max_size=size))
    return ResultTable("penalty", rows, np.reshape(raw, shape))


class TestCsvProperties:
    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_parse_of_emit_is_exact(self, table):
        assert csv_cells(emit(table, "csv")) == (table.rows, table.means.tobytes(),
                                                 table.stderrs.tobytes())


class TestRunExperiment:
    def test_rows_follow_penalties(self):
        table = run_experiment(tiny_config())
        assert table.rows == ("none", "value")
        assert table.raw.shape[2] == 3
        assert table.raw.shape == (2, len(METRIC_FIELDS), 3)
        assert (table.means[:, 0] > 0).all()

    def test_regime_comparison_rows(self):
        table = regime_comparison(tiny_config(trials=2))
        assert table.row_kind == "regime"
        assert table.rows == REGIMES

    def test_regime_comparison_matches_unpenalized_trials(self):
        """Each regime's row holds, bit for bit, the reports of penalty-free
        trials 0 and 1 run one by one under that regime."""
        config = tiny_config(trials=2)
        table = regime_comparison(config)
        for k, regime in enumerate(REGIMES):
            unpenalized = replace(config, regime=regime, penalties=(PenaltySpec.none(),))
            reports = [run_trial(unpenalized, t, None)[0] for t in range(2)]
            want = [[getattr(r, f) for r in reports] for f in METRIC_FIELDS]
            assert table.raw[k].tobytes() == np.array(want).tobytes()

    def test_regime_comparison_needs_synthetic(self, ml_dir):
        config = tiny_config(source="movielens", ml_path=str(ml_dir),
                             min_ratings=2, trials=2)
        with pytest.raises(FairrecError):
            regime_comparison(config)

    def test_movielens_source(self, ml_dir):
        config = tiny_config(source="movielens", ml_path=str(ml_dir),
                             min_ratings=2, trials=2,
                             penalties=(PenaltySpec.none(),))
        table = run_experiment(config)
        assert table.rows == ("none",)
        assert table.mean("none", "error") > 0

    def test_movielens_table_does_not_depend_on_paths(self, tmp_path, monkeypatch):
        """A generated corpus in the MovieLens layout gives the same table with
        every prediction and gradient forced onto the dense paths as with all
        of them forced onto the gathers and the CSR products."""
        data, _ = generate(RegimeConfig("P+O", 60, 45, seed=0))
        root = tmp_path / "ml"
        root.mkdir()
        (root / "users.dat").write_text("".join(
            f"{u + 1}::{'F' if flag else 'M'}::25::1::00000\n"
            for u, flag in enumerate(data.protected)))
        (root / "movies.dat").write_text("".join(
            f"{i + 1}::Movie {i + 1} (2000)::Action\n" for i in range(data.num_items)))
        (root / "ratings.dat").write_text("".join(
            f"{u + 1}::{i + 1}::{1 + 4 * int(v)}::978300000\n"
            for u, i, v in zip(data.user_idx, data.item_idx, data.values)))
        config = tiny_config(source="movielens", ml_path=str(root), min_ratings=1,
                             trials=2, hyper=replace(tiny_config().hyper, iterations=20))
        tables = []
        for fill in (0.0, np.inf):
            monkeypatch.setattr(factorization, "DENSE_FILL", fill)
            monkeypatch.setattr(factorization, "DENSE_GRADIENT_FILL", fill)
            tables.append(run_experiment(config))
        dense, sparse = tables
        assert dense.rows == ("none", "value")
        np.testing.assert_allclose(sparse.means, dense.means, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sparse.stderrs, dense.stderrs, rtol=1e-12, atol=0)


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

    def test_file_rejects_key_outside_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 3\n\npenalty = value\n")
        assert parse_config_file(path) == {"d": "3", "penalty": "value"}
        with pytest.raises(MalformedLineError, match="line 3: config key 'penalty'") as info:
            parse_config_file(path, ("d",))
        assert info.value.line_no == 3

    def test_file_rejects_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("iterations = 5\nd = 2\niterations = 7\n")
        with pytest.raises(MalformedLineError,
                           match="line 3: config key 'iterations' is set twice") as info:
            parse_config_file(path)
        assert info.value.line_no == 3

    def test_config_hyper_defaults(self):
        base = Hyperparams()
        hyper = config_hyper({})
        assert hyper == base
        assert config_hyper({"source": "synthetic"}) == base
        assert config_hyper({"source": "movielens"}).alpha == SOURCES["movielens"][1]

    def test_config_hyper_rejects_unknown_source(self):
        with pytest.raises(FairrecError, match=r"^source must be one of .*, got 'csv'$"):
            config_hyper({"source": "csv", "alpha": "0.2"})

    def test_config_hyper_overrides(self):
        hyper = config_hyper({"d": "7", "lambda": "0.5", "alpha": "2",
                              "lr": "0.2", "iterations": "9", "seed": "4",
                              "init_scale": "0.7"})
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

    @pytest.mark.parametrize("mapping, message", [
        ({"users": "abc"}, "config key 'users': invalid literal for int() with base 10: 'abc'"),
        ({"split": "half"}, "config key 'split': could not convert string to float: 'half'"),
        ({"lambda": "1e-4", "lr": "0,01"},
         "config key 'lr': could not convert string to float: '0,01'"),
        ({"seed": "1.5"}, "config key 'seed': invalid literal for int() with base 10: '1.5'"),
        # a value that is not text is read as its text, so a float count is not cut
        ({"users": 40.9, "items": 30, "trials": 2.7},
         "config key 'users': invalid literal for int() with base 10: '40.9'"),
        ({"genres": ["Action"]}, 'unknown genre "[\'Action\']"'),
    ])
    def test_unreadable_value_names_its_key(self, mapping, message):
        with pytest.raises(FairrecError) as info:
            config_experiment(mapping)
        assert str(info.value) == message

    def test_numbers_read_exactly_through_their_text(self):
        config = config_experiment({"trials": 2, "lambda": 1e-4})
        assert (config.trials, config.hyper.lam) == (2, 1e-4)

    def test_config_hyper_names_an_unreadable_key(self):
        with pytest.raises(FairrecError, match=r"^config key 'd': invalid literal"):
            config_hyper({"d": "four"})

    def test_config_experiment_rejects_unknown_key(self):
        with pytest.raises(FairrecError, match=r"unknown config keys: \['sauce'\]"):
            config_experiment({"sauce": "synthetic"})

    def test_config_experiment_rejects_penalty(self):
        """An experiment compares its own penalty specs, so a penalty key
        would be silently ignored."""
        with pytest.raises(FairrecError, match="config key 'penalty' is read by train only"):
            config_experiment({"penalty": "under"})

    def test_config_experiment_rejects_empty_genres(self):
        with pytest.raises(FairrecError, match="unknown genre ''"):
            config_experiment({"genres": ""})

    def test_config_experiment_genres(self):
        config = config_experiment({"genres": "action,sci-fi",
                                    "genre_mode": "only-genres"})
        assert config.genres == ("Action", "Sci-Fi")
        assert config.genre_mode == "only-genres"
