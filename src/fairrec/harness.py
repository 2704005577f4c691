"""Multi-trial experiment orchestration, aggregation, and result emission.

A trial is a pure function of (config, trial index): one seed's data plus
every penalty spec of the config. The trial seed is base_seed + index; it
drives data generation or splitting once, and model initialization for each
spec trained and scored on that data. Trials may run on a small thread pool
(FAIRREC_THREADS); results are keyed by trial index, so the schedule never
affects output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    DivergenceError,
    Hyperparams,
    InsufficientSamplesError,
    MalformedLineError,
    METRIC_FIELDS,
    UnsupportedFormatError,
    _fmt,
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

EMIT_FORMATS = ("csv", "markdown", "bar-data")


def default_trials(source: str) -> int:
    return 5 if source == "synthetic" else 3


def default_alpha(source: str) -> float:
    return 0.3 if source == "synthetic" else 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment depends on: data source, training knobs,
    the penalty specs under comparison, and the trial plan."""

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
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.genre_mode not in GENRE_MODES:
            raise ValueError(
                f"genre_mode must be one of {GENRE_MODES}, got {self.genre_mode!r}")
        if self.source == "movielens" and not self.ml_path:
            raise ValueError("movielens experiments need ml_path")
        if self.source == "synthetic":
            # fails here, not at the first trial, on sizes the shares cannot split
            RegimeConfig(self.regime, self.num_users, self.num_items)
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie strictly between 0 and 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.penalties:
            raise ValueError("need at least one penalty spec")
        object.__setattr__(self, "genres", tuple(self.genres))
        object.__setattr__(self, "penalties", tuple(self.penalties))
        # results are keyed by label, so a repeated one would lose a row
        labels = [spec.label for spec in self.penalties]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"penalty {label!r} is listed more than once")


def load_movielens(config: ExperimentConfig) -> Dataset:
    """Parse the files at config.ml_path and apply the config's filters."""
    return filter_dataset(parse_ml1m_dir(config.ml_path), config.genres,
                          config.min_ratings, config.genre_mode)


def run_trial(config: ExperimentConfig, trial_index: int, source: Dataset | None) -> tuple:
    """Build the data of seed base_seed + trial_index once, then train and
    score every penalty spec on it: one report per spec, in config order.

    Synthetic data is generated; MovieLens data is a split of ``source``,
    the filtered dataset from load_movielens.
    """
    seed = config.base_seed + trial_index
    if config.source == "synthetic":
        data, expected = generate(RegimeConfig(
            config.regime, config.num_users, config.num_items, seed))
        train_set, eval_set = data, expected_value_eval(data, expected)
        where = f"seed {seed}, regime {config.regime}"
    else:
        train_set, eval_set = split(source, config.split_fraction, seed)
        where = f"seed {seed}"
    hyper = replace(config.hyper, seed=seed)
    reports = []
    for spec in config.penalties:
        try:
            model, _ = train(train_set, hyper, spec)
        except DivergenceError as exc:
            raise DivergenceError(
                f"trial {trial_index} ({where}, penalty {spec.label}): {exc}") from exc
        reports.append(full_report(model, eval_set))
    return tuple(reports)


def _thread_cap(trials: int) -> int:
    raw = os.environ.get("FAIRREC_THREADS", "")
    try:
        cap = int(raw) if raw else 1
    except ValueError:
        cap = 1
    return max(1, min(cap, trials))


def _run_trials(config: ExperimentConfig, source: Dataset | None = None) -> dict:
    """Every trial of the config, on up to FAIRREC_THREADS threads, with the
    reports regrouped by penalty label, each in trial-index order."""
    n = config.trials
    workers = _thread_cap(n)
    args = ([config] * n, range(n), [source] * n)
    if workers == 1:
        per_trial = list(map(run_trial, *args))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_trial, *args))
    return dict(zip((spec.label for spec in config.penalties), zip(*per_trial)))


@dataclass(frozen=True)
class ResultTable:
    """Mean and standard error per (row, metric), plus raw per-trial values.

    Rows are penalty labels (or regime names for the regime comparison).
    ``raw`` is (rows, metrics, trials) and is None for tables parsed back
    from CSV, which only carries the aggregates.
    """

    row_kind: str
    rows: tuple
    means: np.ndarray
    stderrs: np.ndarray
    trials: int
    raw: np.ndarray | None = None

    def __post_init__(self):
        shape = (len(self.rows), len(METRIC_FIELDS))
        means = np.asarray(self.means, dtype=np.float64)
        stderrs = np.asarray(self.stderrs, dtype=np.float64)
        if means.shape != shape or stderrs.shape != shape:
            raise ValueError(f"means and stderrs must have shape {shape}")
        if np.any(stderrs < 0):
            raise ValueError("standard errors cannot be negative")
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stderrs", stderrs)
        if self.raw is not None:
            raw = np.asarray(self.raw, dtype=np.float64)
            if raw.shape != shape + (self.trials,):
                raise ValueError("raw must be (rows, metrics, trials)")
            object.__setattr__(self, "raw", raw)

    @property
    def degenerate(self) -> bool:
        """Single-trial tables have zero standard error by convention."""
        return self.trials == 1

    def _cell(self, row: str, metric: str) -> tuple:
        return self.rows.index(row), METRIC_FIELDS.index(metric)

    def mean(self, row: str, metric: str) -> float:
        r, c = self._cell(row, metric)
        return float(self.means[r, c])

    def stderr(self, row: str, metric: str) -> float:
        r, c = self._cell(row, metric)
        return float(self.stderrs[r, c])

    def values(self, row: str, metric: str) -> np.ndarray:
        if self.raw is None:
            raise ValueError("this table carries no per-trial values")
        r, c = self._cell(row, metric)
        return self.raw[r, c]


def aggregate(reports_by_row: dict, row_kind: str = "penalty") -> ResultTable:
    """Collapse per-trial reports into means and standard errors."""
    if not reports_by_row:
        raise ValueError("nothing to aggregate")
    counts = {len(reports) for reports in reports_by_row.values()}
    if counts == {0} or len(counts) != 1:
        raise ValueError("every row needs the same nonzero number of reports")
    trials = counts.pop()
    rows = tuple(reports_by_row)
    raw = np.array([[[getattr(r, f) for r in reports_by_row[row]]
                     for f in METRIC_FIELDS] for row in rows])
    means = raw.mean(axis=2)
    if trials > 1:
        stderrs = raw.std(axis=2, ddof=1) / np.sqrt(trials)
    else:
        stderrs = np.zeros_like(means)
    return ResultTable(row_kind, rows, means, stderrs, trials, raw)


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Train and evaluate every penalty spec in the config, trials times."""
    source = load_movielens(config) if config.source == "movielens" else None
    return aggregate(_run_trials(config, source), row_kind="penalty")


def regime_comparison(config: ExperimentConfig) -> ResultTable:
    """Penalty-free runs across all four regimes, aggregated per regime."""
    if config.source != "synthetic":
        raise ValueError("the regime comparison is defined for synthetic data only")
    none = (PenaltySpec.none(),)
    reports = {regime: _run_trials(replace(config, regime=regime, penalties=none))["none"]
               for regime in REGIMES}
    return aggregate(reports, row_kind="regime")


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
        raise InsufficientSamplesError("each sample needs at least two values")
    mean_a, mean_b = a.mean(), b.mean()
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    sa, sb = var_a / len(a), var_b / len(b)
    if sa + sb == 0.0:
        return 1.0 if mean_a == mean_b else 0.0
    t = (mean_a - mean_b) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    return float(min(1.0, 2.0 * stats.t.sf(abs(t), df)))


def _csv_header(row_kind: str) -> str:
    cols = [row_kind]
    for f in METRIC_FIELDS:
        cols += [f"{f}_mean", f"{f}_se"]
    return ",".join(cols)


def emit(table: ResultTable, fmt: str = "csv") -> str:
    """Render a table as csv, markdown, or bar-data (row, metric, mean) triples."""
    if fmt == "csv":
        lines = [_csv_header(table.row_kind)]
        for r, row in enumerate(table.rows):
            cells = [row]
            for c in range(len(METRIC_FIELDS)):
                cells += [_fmt(table.means[r, c]), _fmt(table.stderrs[r, c])]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        head = [table.row_kind] + list(METRIC_FIELDS)
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "---|" * len(head)]
        for r, row in enumerate(table.rows):
            cells = [f"{table.means[r, c]:.3f} ± {table.stderrs[r, c]:.1e}"
                     for c in range(len(METRIC_FIELDS))]
            lines.append("| " + " | ".join([row] + cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "bar-data":
        lines = [f"{table.row_kind},metric,mean"]
        for r, row in enumerate(table.rows):
            for c, f in enumerate(METRIC_FIELDS):
                lines.append(f"{row},{f},{_fmt(table.means[r, c])}")
        return "\n".join(lines) + "\n"
    raise UnsupportedFormatError(f"unknown emit format {fmt!r}")


def parse_table_csv(text: str) -> ResultTable:
    """Parse emit(..., "csv") output back into an aggregates-only table."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MalformedLineError(1, "empty table")
    header = lines[0].split(",")
    row_kind = header[0]
    if header != _csv_header(row_kind).split(","):
        raise MalformedLineError(1, f"unexpected table header {lines[0]!r}")
    rows, means, stderrs = [], [], []
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 1 + 2 * len(METRIC_FIELDS):
            raise MalformedLineError(no, f"expected {1 + 2 * len(METRIC_FIELDS)} cells")
        rows.append(cells[0])
        try:
            numbers = [float(x) for x in cells[1:]]
        except ValueError as exc:
            raise MalformedLineError(no, str(exc)) from exc
        means.append(numbers[0::2])
        stderrs.append(numbers[1::2])
    return ResultTable(row_kind, tuple(rows), np.array(means), np.array(stderrs), trials=0)


def parse_config_file(path) -> dict:
    """Flat key=value experiment config; # comments and blank lines skipped."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh.read().splitlines(), start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                key, _, value = text.partition(" ")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise MalformedLineError(no, f"expected 'key = value', got {line!r}")
            mapping[key] = value
    return mapping


CONFIG_KEYS = ("source", "regime", "users", "items", "ml_path", "genres",
               "genre_mode", "min_ratings", "d", "lambda", "alpha", "lr",
               "iterations", "init_scale", "trials", "seed", "penalty", "split")


def config_hyper(mapping: dict, source: str) -> Hyperparams:
    """Hyperparams from a config mapping; alpha defaults by data source."""
    base = Hyperparams()
    return Hyperparams(
        d=int(mapping.get("d", base.d)),
        lam=float(mapping.get("lambda", base.lam)),
        alpha=float(mapping.get("alpha", default_alpha(source))),
        learning_rate=float(mapping.get("lr", base.learning_rate)),
        iterations=int(mapping.get("iterations", base.iterations)),
        seed=int(mapping.get("seed", base.seed)),
        init_scale=float(mapping.get("init_scale", base.init_scale)),
    )


def config_experiment(mapping: dict) -> ExperimentConfig:
    """ExperimentConfig from a config mapping (CLI flag merging happens upstream)."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise UnsupportedFormatError(f"unknown config keys: {sorted(unknown)}")
    source = mapping.get("source", "synthetic")
    genres = mapping.get("genres")
    return ExperimentConfig(
        source=source,
        regime=mapping.get("regime", "P+O"),
        num_users=int(mapping.get("users", 400)),
        num_items=int(mapping.get("items", 300)),
        ml_path=mapping.get("ml_path"),
        genres=canonical_genres(genres.split(",")) if genres else SELECTED_GENRES,
        genre_mode=mapping.get("genre_mode", DEFAULT_GENRE_MODE),
        min_ratings=int(mapping.get("min_ratings", 50)),
        split_fraction=float(mapping.get("split", 0.8)),
        hyper=config_hyper(mapping, source),
        trials=int(mapping.get("trials", default_trials(source))),
        base_seed=int(mapping.get("seed", 0)),
    )
