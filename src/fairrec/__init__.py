"""Fairness-aware matrix factorization for collaborative filtering.

Trains biased matrix-factorization models with unfairness-penalty
regularizers, measures five unfairness metrics between a protected and an
advantaged user group, generates block-model synthetic data under controlled
underrepresentation regimes, ingests MovieLens-1M, and orchestrates seeded
multi-trial experiments.

The names below are the public API. Gradients are flat vectors laid out as
``factorization.flat_params``; every other name, such as the unchecked gather
``factorization.predict_entries``, stays importable from its own module.
"""

from .core import (
    Dataset,
    DivergenceError,
    FactorModel,
    FairrecError,
    Hyperparams,
    MalformedLineError,
    METRIC_FIELDS,
    MetricReport,
    load_dataset,
    save_dataset,
)
from .metrics import full_report
from .penalties import (PENALTY_KINDS, PenaltySpec, objective, objective_gradient,
                        parse_penalty, penalty_gradient, penalty_value)
from .trainer import load_model, save_model, train
from .synthgen import REGIMES, RegimeConfig, expected_value_eval, generate
from .movielens import DEFAULT_GENRE_MODE, SELECTED_GENRES, filter_dataset, parse_ml1m_dir, split
from .harness import (
    ExperimentConfig,
    ResultTable,
    config_experiment,
    emit,
    regime_comparison,
    run_experiment,
    welch_t_test,
)

__version__ = "0.1.0"
