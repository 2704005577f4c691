"""The public surface of the package root."""

import types

import fairrec
import fairrec.cli  # noqa: F401  (a loaded submodule is an attribute, not an export)

PUBLIC = {
    "FairrecError", "MalformedLineError", "DivergenceError",
    "Dataset", "FactorModel", "Hyperparams", "MetricReport", "PenaltySpec",
    "RegimeConfig", "ExperimentConfig", "ResultTable",
    "METRIC_FIELDS", "PENALTY_KINDS", "REGIMES", "SELECTED_GENRES", "DEFAULT_GENRE_MODE",
    "load_dataset", "save_dataset", "load_model", "save_model",
    "train", "full_report", "objective", "objective_gradient",
    "penalty_value", "penalty_gradient", "parse_penalty",
    "generate", "expected_value_eval", "filter_dataset", "parse_ml1m_dir", "split",
    "config_experiment", "run_experiment", "regime_comparison", "emit",
    "welch_t_test",
}


def test_root_exports_exactly_the_public_api():
    names = {name for name in vars(fairrec) if not name.startswith("_")
             and not isinstance(getattr(fairrec, name), types.ModuleType)}
    assert names == PUBLIC
    assert len(PUBLIC) == 37

