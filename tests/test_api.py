"""The public surface of the package root, and the module attributes that the
benchmark's tracer wraps."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
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


def test_every_warning_is_an_error(request):
    """pyproject.toml turns every warning into an error, so a numpy warning or
    a file left open fails the test that caused it, and no test sets a filter."""
    assert request.config.getini("filterwarnings") == ["error"]


def test_failing_property_test_reports_its_example(tmp_path):
    """Under the suite's settings and conftest, a failing Hypothesis test
    prints its falsifying example and the run ends normally. On a failure,
    the Hypothesis plugin imports a module whose import warns, inside its
    report hook, where a warning made an error would end the whole run."""
    tests = Path(__file__).resolve().parent
    shutil.copy(tests / "conftest.py", tmp_path)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    # the child imports fairrec as this process does
    path = [str(Path(fairrec.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(tests.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert "Falsifying example: test_fails(" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
