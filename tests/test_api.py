"""The public surface of the package root, and the module attributes that the
benchmark's tracer wraps."""

import ast
import importlib
import types
from pathlib import Path

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


# the tracer bindings whose attribute the package no longer has
DEAD_BINDINGS = {
    "fairrec.trainer.objective", "fairrec.trainer.objective_gradient",
    "fairrec.trainer.penalty_value", "fairrec.trainer.penalty_gradient",
    "fairrec.penalties.predict_entries", "fairrec.metrics.predict_entries",
    "fairrec.core.format_dataset",
}


def test_benchmark_tracer_bindings_stay_live(monkeypatch):
    """The benchmark times each layer by wrapping the module attributes that
    perfbench/tracer.py binds, and reads one it cannot find as a zero; so a
    refactor may not remove a binding that is live today. Nothing is wrapped
    here."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    absent = {f"{module}.{attr}" for module, attr, _ in tracer.BINDINGS
              if not hasattr(importlib.import_module(module), attr)}
    assert absent <= DEAD_BINDINGS


def test_package_raises_no_bare_value_error():
    """Bad input is rejected with a FairrecError, the one exception the CLI
    maps to exit 2 besides OSError and MemoryError; a ValueError that leaves
    the package is a bug, not a rejection."""
    raises = []
    for path in sorted(Path(fairrec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    raises.append(f"{path.name}:{node.lineno}")
    assert raises == []
