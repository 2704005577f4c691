"""Model initialization, a from-scratch Adam optimizer, and the training loop.

Training minimizes objective + alpha * penalty with full-batch gradients, so
a run is a pure function of (dataset, hyperparameters, penalty spec): on one
numpy and BLAS build, the same inputs give a bit-identical model. The BLAS
calls of a step are those of the dense paths, which dense enough data takes:
the score matrix (``factorization.score_matrix``) and the gradient's two
products over dense row blocks (``factorization.Entries.gradient``). Both are
built from products small enough for OpenBLAS to run on one thread, so under
OpenBLAS the model also does not depend on its thread count; other BLAS
libraries are held only to agreement within rounding across their thread
settings.

A step that overflows raises DivergenceError, and ``train`` keeps numpy from
warning on the way; the layers below it return the inf or nan, with numpy's
usual RuntimeWarning when called on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import isfinite

import numpy as np

from .core import (
    Dataset,
    DivergenceError,
    FactorModel,
    FairrecError,
    Hyperparams,
    MalformedLineError,
    _check_memory,
    _file_pieces,
    _fmt,
    _frozen,
    _open_text,
    _write_text,
)
from .factorization import flat_params, param_blocks
from .penalties import PenaltySpec, TrainingObjective

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """Per-iteration objective and penalty values (pre-update)."""

    objective: np.ndarray
    penalty: np.ndarray

    def __post_init__(self):
        for name in ("objective", "penalty"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or len(arr) != len(np.asarray(self.objective)):
                raise FairrecError("trace columns must be 1-d and equally long")
            object.__setattr__(self, name, _frozen(arr))

    def __len__(self) -> int:
        return len(self.objective)


def init_model(num_users: int, num_items: int, d: int, seed: int,
               init_scale: float) -> FactorModel:
    """Normal(0, init_scale) factors, zero biases, deterministic per seed."""
    if num_users < 1 or num_items < 1 or d < 1:
        raise FairrecError("num_users, num_items, d must all be >= 1")
    rng = np.random.default_rng(seed)
    return FactorModel(
        user_factors=rng.normal(0.0, init_scale, (num_users, d)),
        item_factors=rng.normal(0.0, init_scale, (num_items, d)),
        user_bias=np.zeros(num_users),
        item_bias=np.zeros(num_items),
    )


def adam_step(params: np.ndarray, grad: np.ndarray, first: np.ndarray, second: np.ndarray,
              t: int, learning_rate: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias-corrected Adam update t (from 1) of a flat parameter vector, given
    the moments after update t - 1; returns the new (params, first, second)."""
    if not (params.shape == grad.shape == first.shape):
        raise FairrecError(
            f"parameter/gradient/state shapes disagree: "
            f"{params.shape} {grad.shape} {first.shape}")
    first = ADAM_BETA1 * first + (1.0 - ADAM_BETA1) * grad
    second = ADAM_BETA2 * second + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = first / (1.0 - ADAM_BETA1**t)
    v_hat = second / (1.0 - ADAM_BETA2**t)
    updated = params - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return updated, first, second


def train(train_set: Dataset, hyper: Hyperparams,
          spec: PenaltySpec = PenaltySpec.none()) -> tuple[FactorModel, TrainTrace]:
    """Full-batch Adam on objective + alpha * penalty for hyper.iterations steps."""
    # Python ints, so that the memory estimate cannot overflow as a numpy integer
    n, m, d = map(int, (train_set.num_users, train_set.num_items, hyper.d))
    # the parameters, their gradient and Adam's two moments, at 8 bytes each
    _check_memory(32 * (n + m) * (d + 1), f"a {n} x {m} model at d = {d}")
    loss = TrainingObjective(train_set, hyper.lam, spec, hyper.alpha)
    model = init_model(n, m, d, hyper.seed, hyper.init_scale)
    params = flat_params(model)
    first, second = np.zeros_like(params), np.zeros_like(params)
    obj_trace = np.empty(hyper.iterations)
    pen_trace = np.empty(hyper.iterations)
    # a diverging model overflows to inf and nan anywhere in a step; the
    # checks below turn that into a DivergenceError, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(hyper.iterations):
            obj, pen, grad = loss(model)
            if not np.isfinite(obj + hyper.alpha * pen):
                raise DivergenceError(f"combined objective became non-finite at iteration {it}")
            obj_trace[it] = obj
            pen_trace[it] = pen
            params, first, second = adam_step(params, grad, first, second, it + 1,
                                              hyper.learning_rate)
            model = FactorModel(*param_blocks(params, n, m, d))
        obj, pen, _, _ = loss.values(model)
    if not np.isfinite(obj + hyper.alpha * pen):
        raise DivergenceError("combined objective became non-finite after the last step")
    return model, TrainTrace(obj_trace, pen_trace)


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


def parse_model(fh) -> FactorModel:
    rest = chain.from_iterable(piece.splitlines() for piece in _file_pieces(fh))
    if (first := next(rest, None)) is None:
        raise MalformedLineError(1, "empty checkpoint")
    try:
        header = dict(part.split("=", 1) for part in first.split())
        d, n, m = header["d"], header["n"], header["m"]
    except (ValueError, KeyError) as exc:
        raise MalformedLineError(1, f"bad checkpoint header {first!r}: "
                                    "expected d=D n=N m=M") from exc
    try:
        d, n, m = int(d), int(n), int(m)
    except ValueError as exc:
        raise MalformedLineError(1, f"bad checkpoint header: {exc}") from exc
    if min(d, n, m) < 1:
        raise MalformedLineError(1, f"checkpoint sizes must be >= 1, got d={d} n={n} m={m}")
    expected = 1 + n + m + 2
    lines = [first, *islice(rest, expected)]
    if len(lines) != expected:
        count = len(lines) + sum(1 for _ in rest)
        raise MalformedLineError(count, f"expected {expected} lines, got {count}")

    def row(no: int, tag: str, width: int) -> list:
        """The values of line no, which must hold tag and width finite numbers."""
        fields = lines[no - 1].split()
        if len(fields) != width + 1 or fields[0] != tag:
            raise MalformedLineError(no, f"expected '{tag}' row with {width} values")
        try:
            values = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise MalformedLineError(no, f"bad number: {exc}") from exc
        if not all(map(isfinite, values)):
            raise MalformedLineError(no, "parameters must be finite")
        return values

    user_factors = [row(2 + k, "p", d) for k in range(n)]
    item_factors = [row(2 + n + k, "q", d) for k in range(m)]
    return FactorModel(np.array(user_factors), np.array(item_factors),
                       np.array(row(2 + n + m, "bu", n)), np.array(row(3 + n + m, "bi", m)))


def save_model(model: FactorModel, path) -> None:
    _write_text(path, [format_model(model)])


def load_model(path) -> FactorModel:
    with _open_text(path) as fh:
        return parse_model(fh)


def save_trace(trace: TrainTrace, alpha: float, path) -> None:
    """Trace CSV: iteration, objective, penalty, and the combined objective
    + alpha * penalty that training minimized."""
    combined = trace.objective + alpha * trace.penalty
    _write_text(path, ["iteration,objective,penalty,combined\n"] + [
        f"{it},{_fmt(trace.objective[it])},{_fmt(trace.penalty[it])},{_fmt(combined[it])}\n"
        for it in range(len(trace))])
