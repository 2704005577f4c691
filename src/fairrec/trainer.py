"""Model initialization, a from-scratch Adam optimizer, and the training loop.

Training minimizes objective + alpha * penalty with full-batch gradients, so
a run is a pure function of (dataset, hyperparameters, penalty spec): on one
numpy and BLAS build, the same inputs give a bit-identical model, however many
trials run at once. The only BLAS call of a step is the dense score matrix
(``factorization.score_matrix``), built from products small enough for
OpenBLAS to run on one thread, so under OpenBLAS the model also does not
depend on its thread count; other BLAS libraries are held only to agreement
within rounding across their thread settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    DivergenceError,
    FactorModel,
    Hyperparams,
    MalformedLineError,
    ShapeMismatchError,
    _fmt,
)
from .factorization import flat_params, param_blocks
from .penalties import PenaltySpec, TrainingObjective

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam moment accumulators over the flat parameter vector, plus the step
    count."""

    first: np.ndarray
    second: np.ndarray
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def fresh(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration objective, penalty, and combined values (pre-update)."""

    objective: np.ndarray
    penalty: np.ndarray
    combined: np.ndarray

    def __post_init__(self):
        for name in ("objective", "penalty", "combined"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or len(arr) != len(np.asarray(self.objective)):
                raise ValueError("trace columns must be 1-d and equally long")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.objective)


def init_model(num_users: int, num_items: int, d: int, seed: int,
               init_scale: float = 0.1) -> FactorModel:
    """Normal(0, init_scale) factors, zero biases, deterministic per seed."""
    if num_users < 1 or num_items < 1 or d < 1:
        raise ValueError("num_users, num_items, d must all be >= 1")
    rng = np.random.default_rng(seed)
    return FactorModel(
        user_factors=rng.normal(0.0, init_scale, (num_users, d)),
        item_factors=rng.normal(0.0, init_scale, (num_items, d)),
        user_bias=np.zeros(num_users),
        item_bias=np.zeros(num_items),
    )


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              learning_rate: float) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update of a flat parameter vector; returns the
    new (state, params)."""
    if not (params.shape == grad.shape == state.first.shape):
        raise ShapeMismatchError(
            f"parameter/gradient/state shapes disagree: "
            f"{params.shape} {grad.shape} {state.first.shape}")
    t = state.step + 1
    first = state.beta1 * state.first + (1.0 - state.beta1) * grad
    second = state.beta2 * state.second + (1.0 - state.beta2) * grad * grad
    m_hat = first / (1.0 - state.beta1**t)
    v_hat = second / (1.0 - state.beta2**t)
    updated = params - learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return replace(state, first=first, second=second, step=t), updated


def train(train_set: Dataset, hyper: Hyperparams,
          spec: PenaltySpec = PenaltySpec.none()) -> tuple[FactorModel, TrainTrace]:
    """Full-batch Adam on objective + alpha * penalty for hyper.iterations steps."""
    loss = TrainingObjective(train_set, hyper.lam, spec, hyper.alpha)
    model = init_model(train_set.num_users, train_set.num_items, hyper.d,
                       hyper.seed, hyper.init_scale)
    params = flat_params(model)
    state = AdamState.fresh(params)
    obj_trace = np.empty(hyper.iterations)
    pen_trace = np.empty(hyper.iterations)
    for it in range(hyper.iterations):
        obj, pen, grad = loss(model)
        if not np.isfinite(obj + hyper.alpha * pen):
            raise DivergenceError(f"combined objective became non-finite at iteration {it}")
        obj_trace[it] = obj
        pen_trace[it] = pen
        state, params = adam_step(state, params, grad, hyper.learning_rate)
        model = FactorModel(*param_blocks(params, model.num_users, model.num_items, model.d))
    obj, pen, _ = loss(model)
    if not np.isfinite(obj + hyper.alpha * pen):
        raise DivergenceError("combined objective became non-finite after the last step")
    return model, TrainTrace(obj_trace, pen_trace, obj_trace + hyper.alpha * pen_trace)


def format_model(model: FactorModel) -> str:
    """Checkpoint text: a shape header, then factor rows, then bias rows."""
    lines = [f"d={model.d} n={model.num_users} m={model.num_items}"]
    for row in model.user_factors:
        lines.append("p " + " ".join(_fmt(x) for x in row))
    for row in model.item_factors:
        lines.append("q " + " ".join(_fmt(x) for x in row))
    lines.append("bu " + " ".join(_fmt(x) for x in model.user_bias))
    lines.append("bi " + " ".join(_fmt(x) for x in model.item_bias))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> FactorModel:
    lines = text.splitlines()
    if not lines:
        raise MalformedLineError(1, "empty checkpoint")
    try:
        header = dict(part.split("=", 1) for part in lines[0].split())
        d, n, m = int(header["d"]), int(header["n"]), int(header["m"])
    except (ValueError, KeyError) as exc:
        raise MalformedLineError(1, f"bad checkpoint header: {exc}") from exc
    if min(d, n, m) < 1:
        raise MalformedLineError(1, f"checkpoint sizes must be >= 1, got d={d} n={n} m={m}")
    expected = 1 + n + m + 2
    if len(lines) != expected:
        raise MalformedLineError(len(lines), f"expected {expected} lines, got {len(lines)}")

    def row(line_no, tag, width):
        fields = lines[line_no - 1].split()
        if len(fields) != width + 1 or fields[0] != tag:
            raise MalformedLineError(line_no, f"expected '{tag}' row with {width} values")
        try:
            return [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise MalformedLineError(line_no, f"bad number: {exc}") from exc

    user_factors = np.array([row(2 + i, "p", d) for i in range(n)])
    item_factors = np.array([row(2 + n + j, "q", d) for j in range(m)])
    user_bias = np.array(row(2 + n + m, "bu", n))
    item_bias = np.array(row(3 + n + m, "bi", m))
    return FactorModel(user_factors.reshape(n, d), item_factors.reshape(m, d),
                       user_bias, item_bias)


def save_model(model: FactorModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_model(model))


def load_model(path) -> FactorModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def save_trace(trace: TrainTrace, path) -> None:
    """Trace CSV: iteration, objective, penalty, combined."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,objective,penalty,combined\n")
        for it in range(len(trace)):
            fh.write(f"{it},{_fmt(trace.objective[it])},{_fmt(trace.penalty[it])},"
                     f"{_fmt(trace.combined[it])}\n")
