"""Optimizer steps, the training loop, and the checkpoint format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairrec import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    DivergenceError,
    FactorModel,
    Hyperparams,
    MalformedLineError,
    PenaltySpec,
    ShapeMismatchError,
    TrainTrace,
    adam_step,
    format_model,
    init_model,
    load_model,
    objective,
    parse_model,
    penalty_value,
    save_model,
    save_trace,
    train,
)

from conftest import make_model, make_train_dataset, model_to_vector


class TestInitModel:
    def test_deterministic_per_seed(self):
        a = init_model(4, 3, 2, seed=7, init_scale=0.2)
        b = init_model(4, 3, 2, seed=7, init_scale=0.2)
        c = init_model(4, 3, 2, seed=8, init_scale=0.2)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert not np.array_equal(a.user_factors, c.user_factors)

    def test_zero_biases(self):
        m = init_model(4, 3, 2, seed=0)
        assert not m.user_bias.any()
        assert not m.item_bias.any()

    def test_scale_controls_spread(self):
        small = init_model(50, 50, 8, seed=1, init_scale=0.01)
        large = init_model(50, 50, 8, seed=1, init_scale=1.0)
        assert large.user_factors.std() > 10 * small.user_factors.std()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_model(0, 3, 2, seed=0)


class TestAdamStep:
    def test_first_step_matches_hand_formula(self, rng):
        params = model_to_vector(make_model(rng, 2, 2, d=1))
        state = AdamState.fresh(params)
        new_state, new_params = adam_step(state, params, np.full_like(params, 0.5),
                                          learning_rate=0.1)
        # with a fresh state every bias-corrected moment is g and g*g, so the
        # update is lr * g / (|g| + eps) = lr * sign(g) up to eps rounding
        step = 0.1 * 0.5 / (np.sqrt(0.25) + ADAM_EPS)
        assert np.allclose(new_params, params - step, atol=1e-12)
        assert new_state.step == 1

    def test_two_steps_match_reference_loop(self, rng):
        x = model_to_vector(make_model(rng, 3, 2, d=2))
        state = AdamState.fresh(x)
        cur = x
        ref_m = ref_v = 0.0
        for t, fill in enumerate((0.3, -0.2), start=1):
            state, cur = adam_step(state, cur, np.full_like(x, fill), learning_rate=0.05)
            ref_m = ADAM_BETA1 * ref_m + (1 - ADAM_BETA1) * fill
            ref_v = ADAM_BETA2 * ref_v + (1 - ADAM_BETA2) * fill * fill
            m_hat = ref_m / (1 - ADAM_BETA1 ** t)
            v_hat = ref_v / (1 - ADAM_BETA2 ** t)
            x = x - 0.05 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert np.allclose(cur, x, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        params = model_to_vector(make_model(rng, 2, 2, d=1))
        other = model_to_vector(make_model(rng, 3, 2, d=1))
        with pytest.raises(ShapeMismatchError):
            adam_step(AdamState.fresh(params), params, np.ones_like(other), 0.1)


class TestTrainTrace:
    def test_length_and_readonly(self):
        tr = TrainTrace(np.arange(3.0), np.zeros(3), np.arange(3.0))
        assert len(tr) == 3
        with pytest.raises(ValueError):
            tr.objective[0] = 5.0

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            TrainTrace(np.zeros(3), np.zeros(2), np.zeros(3))


class TestTrain:
    def test_objective_decreases(self, rng):
        d, _ = make_train_dataset(rng, num_users=8, num_items=6)
        hyper = Hyperparams(d=2, lam=0.0, alpha=0.0, learning_rate=0.05,
                            iterations=60, seed=3, init_scale=0.1)
        model, trace = train(d, hyper)
        assert len(trace) == 60
        assert trace.objective[-1] < trace.objective[0]
        assert objective(model, d, 0.0) <= trace.objective[-1] + 1e-9

    def test_same_seed_same_model(self, rng):
        d, _ = make_train_dataset(rng, num_users=6, num_items=5)
        hyper = Hyperparams(d=2, iterations=15, seed=11)
        m1, _ = train(d, hyper)
        m2, _ = train(d, hyper)
        assert np.array_equal(m1.user_factors, m2.user_factors)
        assert np.array_equal(m1.item_bias, m2.item_bias)

    def test_penalty_recorded_and_reduced(self, rng):
        d, _ = make_train_dataset(rng, num_users=10, num_items=6)
        spec = PenaltySpec.single("value")
        hyper = Hyperparams(d=2, lam=0.0, alpha=5.0, learning_rate=0.05,
                            iterations=80, seed=2, init_scale=0.3)
        model, trace = train(d, hyper, spec)
        assert trace.penalty[0] > 0
        assert penalty_value(model, d, spec) < trace.penalty[0]
        assert np.allclose(trace.combined,
                           trace.objective + 5.0 * trace.penalty, atol=1e-12)

    def test_none_penalty_trace_is_zero(self, rng):
        d, _ = make_train_dataset(rng)
        model, trace = train(d, Hyperparams(d=2, iterations=5, seed=1))
        assert not trace.penalty.any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_detected(self, rng):
        # Adam moves parameters by at most the learning rate per step, so a
        # rate this size overflows the squared residuals within a few steps
        d, _ = make_train_dataset(rng, num_users=5, num_items=4)
        hyper = Hyperparams(d=2, lam=0.0, alpha=0.0, learning_rate=1e160,
                            iterations=5, seed=0, init_scale=0.1)
        with pytest.raises(DivergenceError):
            train(d, hyper)

    def test_validates_input(self, rng):
        d, _ = make_train_dataset(rng, num_users=4, num_items=3)
        bad = type(d)(
            num_users=4, num_items=3,
            user_idx=d.user_idx, item_idx=d.item_idx, values=d.values,
            protected=np.zeros(4, dtype=bool),
            rating_scale=d.rating_scale,
        )
        from fairrec import EmptyGroupError
        with pytest.raises(EmptyGroupError):
            train(bad, Hyperparams(d=2, iterations=1))


class TestModelFormat:
    def test_round_trip_is_byte_identical(self, rng):
        m = make_model(rng, 5, 4, d=3)
        text = format_model(m)
        assert format_model(parse_model(text)) == text

    def test_round_trip_is_exact(self, rng):
        m = make_model(rng, 4, 3, d=2)
        back = parse_model(format_model(m))
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
            parse_model("\n".join(mutate(lines)) + "\n")

    @pytest.mark.parametrize("header", ["d=-1 n=1 m=1", "d=0 n=1 m=1",
                                        "d=1 n=0 m=1", "d=1 n=1 m=-2"])
    def test_nonpositive_sizes_rejected_on_line_one(self, header):
        text = "\n".join([header, "", "", "bu 0", "bi 0"]) + "\n"
        with pytest.raises(MalformedLineError) as info:
            parse_model(text)
        assert info.value.line_no == 1


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
        back = parse_model(text)
        for name in ("user_factors", "item_factors", "user_bias", "item_bias"):
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes()
        assert format_model(back) == text


class TestTraceFile:
    def test_save_trace_schema(self, tmp_path):
        tr = TrainTrace(np.array([1.0, 0.5]), np.array([0.25, 0.125]),
                        np.array([1.25, 0.625]))
        path = tmp_path / "trace.csv"
        save_trace(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,objective,penalty,combined"
        assert lines[1] == "0,1.0,0.25,1.25"
        assert len(lines) == 3
