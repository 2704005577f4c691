"""Optimizer steps, the training loop, and the checkpoint format."""

import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairrec import (
    DivergenceError,
    FactorModel,
    FairrecError,
    Hyperparams,
    MalformedLineError,
    PenaltySpec,
    load_model,
    objective,
    penalty_value,
    save_model,
    train,
)
from fairrec import factorization
from fairrec.harness import DEFAULT_PENALTIES
from fairrec.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainTrace,
    adam_step,
    format_model,
    init_model,
    parse_model,
    save_trace,
)

from conftest import make_model, make_train_dataset, model_to_vector
from oracles import oracle_parse_model


def parse_text(text):
    """parse_model on a string."""
    return parse_model(io.StringIO(text))


class TestInitModel:
    def test_deterministic_per_seed(self):
        a = init_model(4, 3, 2, seed=7, init_scale=0.2)
        b = init_model(4, 3, 2, seed=7, init_scale=0.2)
        c = init_model(4, 3, 2, seed=8, init_scale=0.2)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert not np.array_equal(a.user_factors, c.user_factors)

    def test_zero_biases(self):
        m = init_model(4, 3, 2, seed=0, init_scale=0.1)
        assert not m.user_bias.any()
        assert not m.item_bias.any()

    def test_scale_controls_spread(self):
        small = init_model(50, 50, 8, seed=1, init_scale=0.01)
        large = init_model(50, 50, 8, seed=1, init_scale=1.0)
        assert large.user_factors.std() > 10 * small.user_factors.std()

    def test_rejects_empty(self):
        with pytest.raises(FairrecError):
            init_model(0, 3, 2, seed=0, init_scale=0.1)


class TestAdamStep:
    def test_first_step_matches_hand_formula(self, rng):
        params = model_to_vector(make_model(rng, 2, 2, d=1))
        zeros = np.zeros_like(params)
        new_params, first, second = adam_step(params, np.full_like(params, 0.5), zeros,
                                              zeros, 1, learning_rate=0.1)
        # from zero moments every bias-corrected moment is g and g*g, so the
        # update is lr * g / (|g| + eps) = lr * sign(g) up to eps rounding
        step = 0.1 * 0.5 / (np.sqrt(0.25) + ADAM_EPS)
        assert np.allclose(new_params, params - step, atol=1e-12)
        assert np.allclose(first, (1 - ADAM_BETA1) * 0.5, atol=1e-15)
        assert np.allclose(second, (1 - ADAM_BETA2) * 0.25, atol=1e-15)

    def test_two_steps_match_reference_loop(self, rng):
        x = model_to_vector(make_model(rng, 3, 2, d=2))
        first, second = np.zeros_like(x), np.zeros_like(x)
        cur = x
        ref_m = ref_v = 0.0
        for t, fill in enumerate((0.3, -0.2), start=1):
            cur, first, second = adam_step(cur, np.full_like(x, fill), first, second, t,
                                           learning_rate=0.05)
            ref_m = ADAM_BETA1 * ref_m + (1 - ADAM_BETA1) * fill
            ref_v = ADAM_BETA2 * ref_v + (1 - ADAM_BETA2) * fill * fill
            m_hat = ref_m / (1 - ADAM_BETA1 ** t)
            v_hat = ref_v / (1 - ADAM_BETA2 ** t)
            x = x - 0.05 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.allclose(cur, x, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        params = model_to_vector(make_model(rng, 2, 2, d=1))
        other = model_to_vector(make_model(rng, 3, 2, d=1))
        zeros = np.zeros_like(params)
        with pytest.raises(FairrecError, match="parameter/gradient/state shapes disagree"):
            adam_step(params, np.ones_like(other), zeros, zeros, 1, 0.1)


class TestTrainTrace:
    def test_length_and_readonly(self):
        tr = TrainTrace(np.arange(3.0), np.zeros(3))
        assert len(tr) == 3
        with pytest.raises(ValueError):
            tr.objective[0] = 5.0

    @pytest.mark.parametrize("objective, penalty", [
        (np.zeros(3), np.zeros(2)),
        (np.zeros(1), 0.0),
        (np.zeros((1, 1)), np.zeros(1)),
    ], ids=["ragged", "scalar", "2-d"])
    def test_rejects_ragged(self, objective, penalty):
        with pytest.raises(FairrecError, match="^trace columns must be 1-d and equally long$"):
            TrainTrace(objective, penalty)


class TestTrain:
    def test_objective_decreases(self, rng):
        d, _ = make_train_dataset(rng, num_users=8, num_items=6)
        hyper = Hyperparams(d=2, lam=0.0, alpha=0.0, learning_rate=0.05,
                            iterations=60, seed=3, init_scale=0.1)
        model, trace = train(d, hyper)
        assert len(trace) == 60
        assert trace.objective[-1] < trace.objective[0]
        assert objective(model, d, 0.0) <= trace.objective[-1] + 1e-9

    def test_numpy_integer_d_is_sized_without_overflow(self, rng):
        # 32 * (n + m) * (d + 1) exceeds int64 at d = 2**60
        d, _ = make_train_dataset(rng, num_users=6, num_items=5)
        with pytest.raises(FairrecError, match=f"^a 6 x 5 model at d = {2**60} needs at least"):
            train(d, Hyperparams(d=np.int64(2**60), iterations=1))

    def test_same_seed_same_model(self, rng):
        d, _ = make_train_dataset(rng, num_users=6, num_items=5)
        hyper = Hyperparams(d=2, iterations=15, seed=11)
        m1, _ = train(d, hyper)
        m2, _ = train(d, hyper)
        assert np.array_equal(m1.user_factors, m2.user_factors)
        assert np.array_equal(m1.item_bias, m2.item_bias)

    def test_penalty_recorded_and_reduced(self, rng, tmp_path):
        d, _ = make_train_dataset(rng, num_users=10, num_items=6)
        spec = PenaltySpec.single("value")
        hyper = Hyperparams(d=2, lam=0.0, alpha=5.0, learning_rate=0.05,
                            iterations=80, seed=2, init_scale=0.3)
        model, trace = train(d, hyper, spec)
        assert trace.penalty[0] > 0
        assert penalty_value(model, d, spec) < trace.penalty[0]
        path = tmp_path / "trace.csv"
        save_trace(trace, hyper.alpha, path)
        combined = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3)
        assert np.allclose(combined, trace.objective + 5.0 * trace.penalty, atol=1e-12)

    def test_none_penalty_trace_is_zero(self, rng):
        d, _ = make_train_dataset(rng)
        model, trace = train(d, Hyperparams(d=2, iterations=5, seed=1))
        assert not trace.penalty.any()

    @pytest.mark.parametrize("iterations, where", [(1, "after the last step"),
                                                   (5, "at iteration 1$")])
    @pytest.mark.parametrize("spec", DEFAULT_PENALTIES, ids=lambda spec: spec.label)
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_divergence_detected(self, rng, dense, spec, iterations, where):
        """A diverging run raises DivergenceError, under every default
        penalty and on both prediction and gradient paths, without a warning
        on the way."""
        # Adam moves parameters by about the learning rate per step, so a
        # rate this size overflows the predictions in the first step; 186 of
        # 2400 cells is below both fill thresholds
        d, _ = (make_train_dataset(rng, num_users=5, num_items=4) if dense
                else make_train_dataset(rng, num_users=60, num_items=40, density=0.045))
        entries = factorization.Entries(d)
        assert entries.dense_predict == entries.dense_gradient == dense
        hyper = Hyperparams(d=2, lam=0.0, alpha=0.3, learning_rate=1e160,
                            iterations=iterations, seed=0, init_scale=0.1)
        with pytest.raises(DivergenceError, match=where):
            train(d, hyper, spec)

    def test_overflow_below_train_warns(self, rng):
        """Only train and full_report silence a diverging model's overflow:
        the loss called on its own returns nan with numpy's warning."""
        d, _ = make_train_dataset(rng, num_users=60, num_items=40, density=0.045)
        model = init_model(60, 40, 2, seed=0, init_scale=1e200)
        with pytest.warns(RuntimeWarning, match="overflow encountered in square"):
            assert np.isnan(objective(model, d, 0.1))

    def test_gradient_count_equals_iterations(self, rng, monkeypatch):
        """A run of N iterations computes N gradients: the divergence check
        after the last step values the loss without differentiating it."""
        calls = []
        gradient = factorization.Entries.gradient

        def counted(*args, **kwargs):
            calls.append(1)
            return gradient(*args, **kwargs)

        monkeypatch.setattr(factorization.Entries, "gradient", counted)
        d, _ = make_train_dataset(rng)
        train(d, Hyperparams(iterations=8), PenaltySpec.single("value"))
        assert len(calls) == 8


class TestModelFormat:
    def test_round_trip_is_byte_identical(self, rng):
        m = make_model(rng, 5, 4, d=3)
        text = format_model(m)
        assert format_model(parse_text(text)) == text

    def test_round_trip_is_exact(self, rng):
        m = make_model(rng, 4, 3, d=2)
        back = parse_text(format_model(m))
        assert np.array_equal(back.user_factors, m.user_factors)
        assert np.array_equal(back.item_factors, m.item_factors)
        assert np.array_equal(back.user_bias, m.user_bias)
        assert np.array_equal(back.item_bias, m.item_bias)

    def test_header_contents(self, rng):
        m = make_model(rng, 4, 3, d=2)
        assert format_model(m).splitlines()[0] == "d=2 n=4 m=3"

    def test_save_and_load(self, tmp_path, rng):
        m = make_model(rng, 3, 3, d=2)
        path = tmp_path / "model.txt"
        save_model(m, path)
        assert format_model(load_model(path)) == format_model(m)

    def test_large_non_checkpoint_file_rejected_without_reading_it_whole(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("users=2000 items=1000 scale=0.0,1.0\n"
                        + "r 1234 567 0.123456789\n" * 900_000, encoding="utf-8")
        assert path.stat().st_size > 20 * 10**6
        tracemalloc.start()
        try:
            with pytest.raises(MalformedLineError) as exc:
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line_no == 1
        assert peak < 10**7

    @pytest.mark.parametrize("mutate", [
        lambda lines: lines[1:],                      # missing row
        lambda lines: ["d=x n=3 m=3"] + lines[1:],    # bad header
        lambda lines: lines + ["zz 1 2"],             # trailing garbage
        lambda lines: [lines[0]] + ["p 1 2"] + lines[2:],  # wrong width
    ])
    def test_malformed_rejected(self, rng, mutate):
        m = make_model(rng, 3, 3, d=3)
        lines = format_model(m).splitlines()
        with pytest.raises(MalformedLineError):
            parse_text("\n".join(mutate(lines)) + "\n")

    def test_empty_checkpoint_rejected(self):
        with pytest.raises(MalformedLineError, match="line 1: empty checkpoint"):
            parse_text("")

    def test_non_numeric_parameter_rejected_at_its_line(self, rng):
        lines = format_model(make_model(rng, 3, 2, d=2)).splitlines()
        lines[2] = "p 0.5 half"
        with pytest.raises(MalformedLineError, match="bad number") as info:
            parse_text("\n".join(lines) + "\n")
        assert info.value.line_no == 3

    @pytest.mark.parametrize("header", ["d=-1 n=1 m=1", "d=0 n=1 m=1",
                                        "d=1 n=0 m=1", "d=1 n=1 m=-2"])
    def test_nonpositive_sizes_rejected_on_line_one(self, header):
        text = "\n".join([header, "", "", "bu 0", "bi 0"]) + "\n"
        with pytest.raises(MalformedLineError) as info:
            parse_text(text)
        assert info.value.line_no == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("row", [1, 4, 6, 7])  # a p row, a q row, bu, bi
    def test_non_finite_parameter_rejected_at_its_line(self, rng, bad, row):
        lines = format_model(make_model(rng, 3, 2, d=2)).splitlines()
        fields = lines[row].split()
        fields[-1] = bad
        lines[row] = " ".join(fields)
        with pytest.raises(MalformedLineError, match="parameters must be finite") as info:
            parse_text("\n".join(lines) + "\n")
        assert info.value.line_no == row + 1


FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def models(draw):
    n, m, d = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def block(*shape):
        size = int(np.prod(shape))
        values = draw(st.lists(st.one_of(FLOATS, st.sampled_from([-0.0, 5e-324, -2.5e-310])),
                               min_size=size, max_size=size))
        return np.array(values, dtype=np.float64).reshape(shape)

    return FactorModel(block(n, d), block(m, d), block(n), block(m))


class TestModelFormatProperties:
    @settings(max_examples=200, deadline=None)
    @given(model=models())
    def test_round_trip_is_bit_exact_and_byte_stable(self, model):
        text = format_model(model)
        back = parse_text(text)
        for name in ("user_factors", "item_factors", "user_bias", "item_bias"):
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes()
        assert format_model(back) == text



# Field texts that float() rejects, accepts in spellings numpy's reader does
# not, or reads as a non-finite number; tags, and a tag that a three-character
# field would cut to "bux".
MODEL_TOKENS = ["x", "nan", "-inf", "1e400", "1_0", "\u0663", "0x1", "5.", "#",
                "p", "q", "bu", "pp", "buxx", "\U0009c6ca", "\x1f1"]
MODEL_EDITS = st.tuples(
    st.sampled_from(["drop_field", "add_field", "replace_field", "blank", "join",
                     "drop_line", "shuffle", "header"]),
    st.integers(0, 2**16), st.sampled_from(MODEL_TOKENS))


def apply_model_edit(lines, edit, model):
    """One random change to the lines of model's checkpoint, faulty or not."""
    kind, pos, token = edit
    k = pos % len(lines)
    parts = lines[k].split() or ["p"]
    if kind == "drop_field":
        del parts[pos % len(parts)]
        lines[k] = " ".join(parts)
    elif kind == "add_field":
        lines[k] = " ".join(parts + [token])
    elif kind == "replace_field":
        parts[pos % len(parts)] = token
        lines[k] = " ".join(parts)
    elif kind == "blank":
        lines.insert(k, "")
    elif kind == "join":  # a lost line break
        lines[k:k + 2] = [" ".join(lines[k:k + 2])]
    elif kind == "drop_line":
        del lines[k]
    elif kind == "shuffle":
        body = lines[1:]
        random.Random(pos).shuffle(body)
        lines[1:] = body
    else:  # a header that declares one user too many or too few
        n = model.num_users + (-1, 1)[pos % 2]
        lines[0] = f"d={model.d} n={n} m={model.num_items}"


def model_outcome(parse, text):
    """The parsed arrays, or the failure's type, line number and message."""
    try:
        model = parse(text)
    except Exception as exc:  # every failure must match the oracle's
        return type(exc), getattr(exc, "line_no", None), str(exc)
    return tuple((getattr(model, name).shape, getattr(model, name).tobytes())
                 for name in ("user_factors", "item_factors", "user_bias", "item_bias"))


class TestParseModelAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(model=models(), edits=st.lists(MODEL_EDITS, max_size=3))
    def test_matches_line_by_line_reader(self, model, edits):
        lines = format_model(model).splitlines()
        for edit in edits:
            apply_model_edit(lines, edit, model)
        text = "\n".join(lines) + "\n"
        assert model_outcome(parse_text, text) == model_outcome(oracle_parse_model, text)

    def test_huge_width_rejected_before_allocation(self):
        # four short lines match the line count of n=1 m=1, but no row is
        # as wide as d, so nothing of d values may be allocated
        text = "d=1000000000 n=1 m=1\np 0.5\nq 0.5\nbu 0.5\nbi 0.5\n"
        tracemalloc.start()
        try:
            with pytest.raises(MalformedLineError) as exc:
                parse_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert exc.value.line_no == 2
        assert model_outcome(parse_text, text) == model_outcome(oracle_parse_model, text)

    @pytest.mark.parametrize("line", [
        "pp 0.5 1.0", "q 0.5 1.0", "bu 0.5 1.0", "p 0.5 1.0 2.0", "p 0.5", "", " ",
        "p 0.5 1.0 # c", "p 0.5 1_0", "p 0.5 \u0663", "p\x1f0.5 1.0", "p\x000.5 1.0",
        "p 0.5 1.0\x00", "p 0.5 \U0009c6ca", "p 0x1 1.0", "p 0.5 1e", "p +.5 -5.",
        "p 0.5 nan", "p -inf 1.0", "p 0.5 1e400", "p 1e-400 5e-324",
        "p 2.2250738585072011e-308 -0.0", "p 0." + "3" * 60 + " " + "1" * 60])
    def test_row_spellings_match_line_by_line_reader(self, line):
        lines = format_model(init_model(2, 3, 2, seed=1, init_scale=0.1)).splitlines()
        lines[2] = line
        text = "\n".join(lines) + "\n"
        assert model_outcome(parse_text, text) == model_outcome(oracle_parse_model, text)


class TestTraceFile:
    def test_save_trace_schema(self, tmp_path):
        tr = TrainTrace(np.array([1.0, 0.5]), np.array([0.25, 0.125]))
        path = tmp_path / "trace.csv"
        save_trace(tr, 1.0, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,objective,penalty,combined"
        assert lines[1] == "0,1.0,0.25,1.25"
        assert len(lines) == 3
