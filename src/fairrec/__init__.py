"""Fairness-aware matrix factorization for collaborative filtering.

Trains biased matrix-factorization models with unfairness-penalty
regularizers, measures five unfairness metrics between a protected and an
advantaged user group, generates block-model synthetic data under controlled
underrepresentation regimes, ingests MovieLens-1M, and orchestrates seeded
multi-trial experiments.
"""

from .core import (
    Dataset,
    DegenerateSplitError,
    DivergenceError,
    DuplicateRatingError,
    EmptyEvalSetError,
    EmptyGroupError,
    EmptyResultError,
    EmptyTrainingSetError,
    FactorModel,
    FairrecError,
    Hyperparams,
    IndexOutOfRangeError,
    IndivisibleCountError,
    InsufficientSamplesError,
    ITEM_GROUPS,
    MalformedLineError,
    METRIC_FIELDS,
    MetricReport,
    NoComparableItemsError,
    RatingOutOfScaleError,
    ShapeMismatchError,
    UnknownReferenceError,
    UnsupportedFormatError,
    USER_FINE_GROUPS,
    load_dataset,
    parse_dataset,
    format_dataset,
    save_dataset,
    validate_dataset,
)
from .factorization import (
    Gradient,
    objective,
    objective_gradient,
    predict_entries,
)
from .metrics import full_report
from .penalties import (
    PENALTY_KINDS,
    PenaltySpec,
    parse_penalty,
    penalty_gradient,
    penalty_value,
)
from .trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainTrace,
    adam_step,
    format_model,
    init_model,
    load_model,
    parse_model,
    save_model,
    save_trace,
    train,
)
from .synthgen import (
    BlockModels,
    REGIMES,
    RegimeConfig,
    default_block_models,
    expected_value_eval,
    generate,
    sample_item_groups,
    sample_user_groups,
    write_sidecar,
)
from .movielens import (
    DEFAULT_GENRE_MODE,
    GENRE_MODES,
    GENRE_VOCABULARY,
    MovieLensRaw,
    SELECTED_GENRES,
    canonical_genres,
    filter_dataset,
    parse_ml1m,
    parse_ml1m_dir,
    split,
)
from .harness import (
    CONFIG_KEYS,
    DEFAULT_PENALTIES,
    EMIT_FORMATS,
    ExperimentConfig,
    ResultTable,
    SOURCES,
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

__version__ = "0.1.0"
