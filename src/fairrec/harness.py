"""Multi-trial experiment orchestration and result emission.

A trial is a pure function of (config, trial index): one seed's data plus
every penalty spec of the config, each trained and scored on that data. The
trial seed is base_seed + index; it drives data generation or splitting
once, and model initialization for each spec. The training and evaluation
sets each build their prediction and group-cell indexes once, at first use,
and every spec of the trial shares them. Trials run one after another in
index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    Dataset,
    DivergenceError,
    FairrecError,
    Hyperparams,
    MalformedLineError,
    METRIC_FIELDS,
    _file_lines,
    _fmt,
    _open_text,
    _whole_number,
)
from .metrics import full_report
from .movielens import (
    DEFAULT_GENRE_MODE,
    GENRE_MODES,
    SELECTED_GENRES,
    canonical_genres,
    filter_dataset,
    parse_ml1m_dir,
    split,
)
from .penalties import PenaltySpec
from .synthgen import REGIMES, RegimeConfig, expected_value_eval, generate
from .trainer import train

SOURCES = ("synthetic", "movielens")

DEFAULT_PENALTIES = (
    PenaltySpec.none(),
    PenaltySpec.single("value"),
    PenaltySpec.single("absolute"),
    PenaltySpec.single("under"),
    PenaltySpec.single("over"),
    PenaltySpec.single("parity"),
    PenaltySpec((("under", 2.0), ("over", 1.0))),
)


def _check_source(source: str) -> None:
    if source not in SOURCES:
        raise FairrecError(f"source must be one of {SOURCES}, got {source!r}")


def default_trials(source: str) -> int:
    return 5 if source == "synthetic" else 3


def default_alpha(source: str) -> float:
    _check_source(source)
    return 0.3 if source == "synthetic" else 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment depends on: data source, training knobs,
    the penalty specs under comparison, and the trial plan. A bare
    ExperimentConfig(source="movielens") runs 5 trials at alpha 0.3; the CLI's
    3 and 0.1 come from config_experiment({"source": "movielens", ...}).

    hyper.seed is ignored: trial t trains with seed base_seed + t, which also
    drives its data. The config key ``seed`` sets base_seed."""

    source: str = "synthetic"
    regime: str = "P+O"
    num_users: int = 400
    num_items: int = 300
    ml_path: str | None = None
    genres: tuple = SELECTED_GENRES
    genre_mode: str = DEFAULT_GENRE_MODE
    min_ratings: int = 50
    split_fraction: float = 0.8
    hyper: Hyperparams = Hyperparams()
    penalties: tuple = DEFAULT_PENALTIES
    trials: int = 5
    base_seed: int = 0

    def __post_init__(self):
        _whole_number(self, "num_users"), _whole_number(self, "num_items")
        _check_source(self.source)
        if self.regime not in REGIMES:
            raise FairrecError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.genre_mode not in GENRE_MODES:
            raise FairrecError(
                f"genre_mode must be one of {GENRE_MODES}, got {self.genre_mode!r}")
        if self.source == "movielens" and not self.ml_path:
            raise FairrecError("movielens experiments need ml_path")
        if self.source == "synthetic":
            # fails here, not at the first trial, on sizes the shares cannot split
            RegimeConfig(self.regime, self.num_users, self.num_items)
        if _whole_number(self, "min_ratings") < 0:
            raise FairrecError("min_ratings must be >= 0")
        if not 0.0 < self.split_fraction < 1.0:
            raise FairrecError("split (split_fraction) must lie strictly between 0 and 1")
        if _whole_number(self, "trials") < 1:
            raise FairrecError("trials must be >= 1")
        if _whole_number(self, "base_seed") < 0:
            raise FairrecError("base_seed must be >= 0")
        if not self.penalties:
            raise FairrecError("need at least one penalty spec")
        if not self.genres:
            raise FairrecError("need at least one genre")
        object.__setattr__(self, "genres", canonical_genres(self.genres))
        object.__setattr__(self, "penalties", tuple(self.penalties))
        # a table's rows are looked up by label, so a repeated one could not be told apart
        labels = [spec.label for spec in self.penalties]
        for label in labels:
            if labels.count(label) > 1:
                raise FairrecError(f"penalty {label!r} is listed more than once")


def load_movielens(config: ExperimentConfig) -> Dataset:
    """Parse the files at config.ml_path and apply the config's filters."""
    return filter_dataset(parse_ml1m_dir(config.ml_path), config.genres,
                          config.min_ratings, config.genre_mode)


def run_trial(config: ExperimentConfig, trial_index: int, source: Dataset | None) -> tuple:
    """Build the data of seed base_seed + trial_index once, then train and
    score every penalty spec on it: one report per spec, in config order.

    Synthetic data is generated; MovieLens data is a split of ``source``,
    the filtered dataset from load_movielens. A FairrecError raised inside
    the trial is raised again with the trial, seed, regime and penalty
    prefixed; a DivergenceError stays one.
    """
    seed = config.base_seed + trial_index
    where = (f"seed {seed}, regime {config.regime}" if config.source == "synthetic"
             else f"seed {seed}")
    step = where
    try:
        if config.source == "synthetic":
            data, expected = generate(RegimeConfig(
                config.regime, config.num_users, config.num_items, seed))
            train_set, eval_set = data, expected_value_eval(data, expected)
        else:
            train_set, eval_set = split(source, config.split_fraction, seed)
        hyper = replace(config.hyper, seed=seed)
        reports = []
        for spec in config.penalties:
            step = f"{where}, penalty {spec.label}"
            model, _ = train(train_set, hyper, spec)
            reports.append(full_report(model, eval_set))
    except FairrecError as exc:
        kind = DivergenceError if isinstance(exc, DivergenceError) else FairrecError
        raise kind(f"trial {trial_index} ({step}): {exc}") from exc
    return tuple(reports)


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Per-trial values per (row, metric), with their mean and standard error.

    Rows are penalty labels (or regime names for the regime comparison).
    ``raw`` is (rows, metrics, trials) with at least one trial; ``means`` and
    ``stderrs`` are computed from it.
    """

    row_kind: str
    rows: tuple
    raw: np.ndarray
    means: np.ndarray = field(init=False)
    stderrs: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        if (raw.ndim != 3 or raw.shape[:2] != (len(self.rows), len(METRIC_FIELDS))
                or not raw.shape[2]):
            raise FairrecError("raw must be (rows, metrics, trials) with trials >= 1")
        trials = raw.shape[2]
        means = raw.mean(axis=2)
        stderrs = (raw.std(axis=2, ddof=1) / np.sqrt(trials) if trials > 1
                   else np.zeros_like(means))
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stderrs", stderrs)

    def _cell(self, row: str, metric: str) -> tuple:
        return self.rows.index(row), METRIC_FIELDS.index(metric)

    def mean(self, row: str, metric: str) -> float:
        r, c = self._cell(row, metric)
        return float(self.means[r, c])

    def values(self, row: str, metric: str) -> np.ndarray:
        r, c = self._cell(row, metric)
        return self.raw[r, c]


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Train and evaluate every penalty spec in the config, trials times."""
    source = load_movielens(config) if config.source == "movielens" else None
    per_trial = [run_trial(config, t, source) for t in range(config.trials)]
    # raw[row][metric][trial], a row per spec: zip turns the trials' tuples into rows
    raw = [[[getattr(r, f) for r in row] for f in METRIC_FIELDS] for row in zip(*per_trial)]
    return ResultTable("penalty", tuple(spec.label for spec in config.penalties), raw)


def regime_comparison(config: ExperimentConfig) -> ResultTable:
    """Penalty-free runs across all four regimes, one row per regime."""
    if config.source != "synthetic":
        raise FairrecError("the regime comparison is defined for synthetic data only")
    return ResultTable("regime", REGIMES, [
        run_experiment(replace(config, regime=r, penalties=(PenaltySpec.none(),))).raw[0]
        for r in REGIMES])


def welch_t_test(samples_a, samples_b) -> float:
    """Two-sided Welch t-test p-value.

    Zero-variance edge cases use the limit conventions: identical constant
    samples are indistinguishable (p = 1), different constants are perfectly
    distinguishable (p = 0).
    """
    # imported here, its only use: scipy.stats takes most of a cold
    # `import fairrec`, and no CLI command runs this test
    from scipy import stats

    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise FairrecError("each sample needs at least two values")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise FairrecError("samples must be finite")
    mean_a, mean_b = a.mean(), b.mean()
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    sa, sb = var_a / len(a), var_b / len(b)
    if sa + sb == 0.0:
        return 1.0 if mean_a == mean_b else 0.0
    t = (mean_a - mean_b) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    return float(min(1.0, 2.0 * stats.t.sf(abs(t), df)))


def emit(table: ResultTable, fmt: str = "csv") -> str:
    """Render a table as csv or as bar-data (row, metric, mean) triples."""
    if fmt == "csv":
        lines = [",".join([table.row_kind]
                          + [f"{f}_{part}" for f in METRIC_FIELDS for part in ("mean", "se")])]
        for r, row in enumerate(table.rows):
            cells = [row]
            for c in range(len(METRIC_FIELDS)):
                cells += [_fmt(table.means[r, c]), _fmt(table.stderrs[r, c])]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "bar-data":
        lines = [f"{table.row_kind},metric,mean"]
        for r, row in enumerate(table.rows):
            for c, f in enumerate(METRIC_FIELDS):
                lines.append(f"{row},{f},{_fmt(table.means[r, c])}")
        return "\n".join(lines) + "\n"
    raise FairrecError(f"unknown emit format {fmt!r}")


# Each config key, in order, with the ExperimentConfig field and the
# Hyperparams field that its value sets, or None, and how its text is read.
# penalty sets no field: train reads it, and an experiment rejects it.
_KEYS = (
    ("source", "source", None, str), ("regime", "regime", None, str),
    ("users", "num_users", None, int), ("items", "num_items", None, int),
    ("ml_path", "ml_path", None, str), ("genres", "genres", None, lambda s: s.split(",")),
    ("genre_mode", "genre_mode", None, str), ("min_ratings", "min_ratings", None, int),
    ("d", None, "d", int), ("lambda", None, "lam", float), ("alpha", None, "alpha", float),
    ("lr", None, "learning_rate", float), ("iterations", None, "iterations", int),
    ("init_scale", None, "init_scale", float), ("trials", "trials", None, int),
    ("seed", "base_seed", "seed", int), ("penalty", None, None, None),
    ("split", "split_fraction", None, float),
)
CONFIG_KEYS = tuple(key for key, *_ in _KEYS)


def parse_config_file(path, keys: tuple = CONFIG_KEYS) -> dict:
    """Flat key=value experiment config; # comments and blank lines skipped.
    A key outside ``keys``, or set a second time, is rejected at its line."""
    mapping = {}
    with _open_text(path) as fh:
        for no, line in _file_lines(fh):
            text = line.strip()
            if text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                key, _, value = text.partition(" ")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise MalformedLineError(no, f"expected 'key = value', got {line[:1000]!r}")
            if key not in keys:
                raise MalformedLineError(
                    no, f"config key {key[:1000]!r} is not read here; keys: {', '.join(keys)}")
            if key in mapping:
                raise MalformedLineError(no, f"config key {key[:1000]!r} is set twice")
            mapping[key] = value
    return mapping


def _config_fields(mapping: dict, column: int) -> dict:
    """The ExperimentConfig (column 0) or Hyperparams (column 1) fields that
    a config mapping sets, each read from its key's text (a value that is not
    a str is read as its str()). A text that cannot be read raises
    FairrecError naming its key."""
    fields = {}
    for key, *names, read in _KEYS:
        if key in mapping and names[column]:
            try:
                fields[names[column]] = read(str(mapping[key]))
            except ValueError as exc:
                raise FairrecError(f"config key {key!r}: {exc}") from exc
    return fields


def config_hyper(mapping: dict, source: str) -> Hyperparams:
    """Hyperparams from a config mapping; alpha defaults by data source,
    which must be one of SOURCES."""
    return Hyperparams(**{"alpha": default_alpha(source), **_config_fields(mapping, 1)})


def config_experiment(mapping: dict) -> ExperimentConfig:
    """ExperimentConfig from a config mapping (CLI flag merging happens upstream)."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise FairrecError(f"unknown config keys: {sorted(unknown)}")
    if "penalty" in mapping:
        raise FairrecError("config key 'penalty' is read by train only: "
                           "an experiment compares its own penalty specs")
    fields = _config_fields(mapping, 0)
    source = fields.get("source", ExperimentConfig.source)
    return ExperimentConfig(**{"trials": default_trials(source), **fields},
                            hyper=config_hyper(mapping, source))
