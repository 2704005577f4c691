"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

Spans are recorded from the benchmark's side: ``install`` replaces the
module-level bindings through which fairrec's layers call each other with
wrappers that time each call. The program itself carries no timers. A
binding that no longer exists is reported as absent instead of failing the
run, so the trace keeps working while the layers are refactored.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import threading
import time

# (module, attribute, span name). Several bindings can share a span name:
# predict_entries is bound separately in factorization, penalties and metrics.
BINDINGS = (
    ("fairrec.harness", "run_trial", "harness.run_trial"),
    ("fairrec.harness", "generate", "synthgen.generate"),
    ("fairrec.harness", "expected_value_eval", "synthgen.expected_value_eval"),
    ("fairrec.harness", "split", "movielens.split"),
    ("fairrec.harness", "filter_dataset", "movielens.filter_dataset"),
    ("fairrec.harness", "train", "trainer.train"),
    ("fairrec.harness", "full_report", "metrics.full_report"),
    ("fairrec.movielens", "parse_ml1m", "movielens.parse_ml1m"),
    ("fairrec.trainer", "objective", "factorization.objective"),
    ("fairrec.trainer", "objective_gradient", "factorization.objective_gradient"),
    ("fairrec.trainer", "penalty_value", "penalties.penalty_value"),
    ("fairrec.trainer", "penalty_gradient", "penalties.penalty_gradient"),
    ("fairrec.trainer", "adam_step", "trainer.adam_step"),
    ("fairrec.factorization", "predict_entries", "factorization.predict_entries"),
    ("fairrec.penalties", "predict_entries", "factorization.predict_entries"),
    ("fairrec.metrics", "predict_entries", "factorization.predict_entries"),
    ("fairrec.core", "format_dataset", "core.format_dataset"),
    ("fairrec.core", "parse_dataset", "core.parse_dataset"),
    ("fairrec.trainer", "format_model", "trainer.format_model"),
    ("fairrec.trainer", "parse_model", "trainer.parse_model"),
    ("fairrec.cli", "generate", "synthgen.generate"),
    ("fairrec.cli", "train", "trainer.train"),
    ("fairrec.cli", "full_report", "metrics.full_report"),
)

BYTES_PER_FLOAT = 8


def safe_label(label: str) -> str:
    """A penalty label as a metric-name component: "under:2+over" -> "under_2_over"."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


def _penalty_label(spec) -> str:
    return "none" if spec is None else spec.label


def _attrs(name, args, kwargs, result):
    """Per-call facts the metrics need, taken from arguments and results."""
    if name == "factorization.predict_entries":
        model, user_idx = args[0], args[1]
        # P[u] and Q[i] rows of width d plus one bias each, per entry
        return {"bytes": len(user_idx) * (2 * model.d + 2) * BYTES_PER_FLOAT}
    if name == "trainer.train":
        spec = args[2] if len(args) > 2 else kwargs.get("spec")
        return {"spec": _penalty_label(spec)}
    if name == "synthgen.expected_value_eval":
        return {"pairs": len(result)}
    if name == "movielens.parse_ml1m":
        return {"lines": len(result.users) + len(result.movies) + result.num_ratings}
    if name == "core.parse_dataset":
        d = result
        return {"lines": 1 + d.num_users + d.num_ratings
                + (d.num_items if d.item_group is not None else 0)}
    return None


def _facts(extract, *args):
    """extract(*args), or None when a changed signature no longer fits it."""
    try:
        return extract(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _trial_id(args):
    config, index, spec = args[0], args[1], args[2]
    return f"{config.regime}/{_penalty_label(spec)}/{index}"


class Recorder:
    """Keeps spans in memory; parents are tracked per thread."""

    def __init__(self, trial: str = ""):
        self.spans = []
        self.absent = []
        self._root_trial = trial
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            trial = parent["trial"] if parent else recorder._root_trial
            if name == "harness.run_trial":
                trial = _facts(_trial_id, args) or trial
            span = {"id": recorder._new_id(), "parent": parent["id"] if parent else None,
                    "name": name, "trial": trial, "thread": threading.get_ident()}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)
            attrs = _facts(_attrs, name, args, kwargs, result)
            if attrs:
                span.update(attrs)
            return result

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Wrap each binding for the rest of this process's life."""
        for module_name, attr, name in bindings:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, original))


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def layer_metrics(spans, wall_s: float, workers: int, spec_labels) -> dict:
    """Per-layer metrics of one repetition from its spans.

    Per-iteration figures of the calls inside ``train`` count only its loop:
    the objective and penalty evaluation after the last Adam step is left
    out, so that calls_per_iter is an exact count per step. trainer.train and
    trainer.self divide the whole ``train`` call by the iteration count.
    """
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def train_of(s):
        p = by_id.get(s["parent"])
        while p is not None and p["name"] != "trainer.train":
            p = by_id.get(p["parent"])
        return p

    loop_end, iters_by_spec = {}, {}
    for t in named.get("trainer.train", ()):
        iters_by_spec.setdefault(t.get("spec"), 0)
    for a in named.get("trainer.adam_step", ()):
        t = train_of(a)
        if t is not None:
            loop_end[t["id"]] = max(loop_end.get(t["id"], a["end"]), a["end"])
            iters_by_spec[t.get("spec")] += 1
    iterations = sum(iters_by_spec.values())

    def in_loop(s):
        t = train_of(s)
        return t is not None and t["id"] in loop_end and s["start"] < loop_end[t["id"]]

    def per_iter_ms(name, spec=None):
        spans_in = [s for s in named.get(name, ()) if in_loop(s)
                    and (spec is None or train_of(s).get("spec") == spec)]
        n = iterations if spec is None else iters_by_spec.get(spec, 0)
        return _ms(sum(dur(s) for s in spans_in)) / n if n else 0.0

    def ms_p50(name):
        return _ms(_median([dur(s) for s in named.get(name, ())]))

    def rate(name, key):
        group = named.get(name, ())
        total = sum(dur(s) for s in group)
        return sum(s.get(key, 0) for s in group) / total if total > 0 else 0.0

    selfs = self_times(spans)
    predicts = [s for s in named.get("factorization.predict_entries", ()) if in_loop(s)]
    trials = named.get("harness.run_trial", ())
    m = {
        "factorization.predict_entries.calls_per_iter":
            len(predicts) / iterations if iterations else 0.0,
        "factorization.gather_bytes_per_iter":
            sum(s.get("bytes", 0) for s in predicts) / iterations if iterations else 0.0,
        "factorization.objective.ms_per_iter": per_iter_ms("factorization.objective"),
        "factorization.objective_gradient.ms_per_iter":
            per_iter_ms("factorization.objective_gradient"),
        "penalties.penalty_value.ms_per_iter": per_iter_ms("penalties.penalty_value"),
        "penalties.penalty_gradient.ms_per_iter": per_iter_ms("penalties.penalty_gradient"),
        "trainer.iterations": iterations,
        "trainer.train.ms_per_iter":
            _ms(sum(dur(t) for t in named.get("trainer.train", ()))) / iterations
            if iterations else 0.0,
        "trainer.adam_step.ms_per_iter": per_iter_ms("trainer.adam_step"),
        "trainer.self.ms_per_iter":
            _ms(sum(selfs[t["id"]] for t in named.get("trainer.train", ()))) / iterations
            if iterations else 0.0,
        "synthgen.generate.calls": len(named.get("synthgen.generate", ())),
        "synthgen.generate.ms": ms_p50("synthgen.generate"),
        "synthgen.expected_value_eval.ms": ms_p50("synthgen.expected_value_eval"),
        "synthgen.eval_pairs":
            sum(s.get("pairs", 0) for s in named.get("synthgen.expected_value_eval", ())),
        "movielens.parse_ml1m.ms": ms_p50("movielens.parse_ml1m"),
        "movielens.parse_ml1m.lines_per_s": rate("movielens.parse_ml1m", "lines"),
        "movielens.filter_dataset.ms": ms_p50("movielens.filter_dataset"),
        "movielens.split.calls": len(named.get("movielens.split", ())),
        "movielens.split.ms": ms_p50("movielens.split"),
        "metrics.full_report.calls": len(named.get("metrics.full_report", ())),
        "metrics.full_report.ms": ms_p50("metrics.full_report"),
        "harness.trials": len(trials),
        "harness.run_trial.ms_p50": ms_p50("harness.run_trial"),
        "harness.pool_util":
            sum(dur(t) for t in trials) / (wall_s * workers) if trials else 0.0,
        "core.format_dataset.ms": ms_p50("core.format_dataset"),
        "core.parse_dataset.ms": ms_p50("core.parse_dataset"),
        "core.parse_dataset.lines_per_s": rate("core.parse_dataset", "lines"),
        "trainer.format_model.ms": ms_p50("trainer.format_model"),
        "trainer.parse_model.ms": ms_p50("trainer.parse_model"),
    }
    for label in spec_labels:
        key = safe_label(label)
        n = iters_by_spec.get(label, 0)
        calls = sum(1 for s in predicts if train_of(s).get("spec") == label)
        m[f"factorization.predict_entries.calls_per_iter.{key}"] = calls / n if n else 0.0
        m[f"penalties.penalty_value.{key}.ms_per_iter"] = \
            per_iter_ms("penalties.penalty_value", label)
        m[f"penalties.penalty_gradient.{key}.ms_per_iter"] = \
            per_iter_ms("penalties.penalty_gradient", label)
    return m
