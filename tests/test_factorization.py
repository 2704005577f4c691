"""Prediction, the entry-coefficient scatter, and objective gradients."""

import numpy as np
import pytest

from fairrec import (
    Dataset,
    EmptyTrainingSetError,
    FactorModel,
    IndexOutOfRangeError,
    PenaltySpec,
    full_report,
    objective,
    objective_gradient,
    penalty_gradient,
    penalty_value,
    predict_entries,
)
from fairrec.factorization import EntryGradient, flat_params, param_blocks
from fairrec.penalties import TrainingObjective

from conftest import (
    dataset_triples,
    gradient_to_vector,
    make_model,
    make_train_dataset,
    model_to_vector,
    vector_to_model,
)
from oracles import central_difference, oracle_objective, oracle_predict


class TestPredict:
    def test_hand_example(self):
        m = FactorModel(
            user_factors=np.array([[1.0, 2.0]]),
            item_factors=np.array([[3.0, 4.0]]),
            user_bias=np.array([0.5]),
            item_bias=np.array([-0.5]),
        )
        assert predict_entries(m, np.array([0]), np.array([0])).tolist() \
            == pytest.approx([11.0])

    def test_matches_oracle(self, rng):
        m = make_model(rng, 5, 4, d=3)
        users, items = np.divmod(np.arange(20), 4)
        batch = predict_entries(m, users, items)
        for u, i, got in zip(users, items, batch):
            want = oracle_predict(m.user_factors, m.item_factors,
                                  m.user_bias, m.item_bias, u, i)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_take_gathers_match_fancy_indexing(self, rng, d):
        m = make_model(rng, 6, 5, d=d)
        users, items = rng.integers(0, 6, size=40), rng.integers(0, 5, size=40)
        got = predict_entries(m, users, items)
        fancy = (np.einsum("ij,ij->i", m.user_factors[users], m.item_factors[items])
                 + m.user_bias[users] + m.item_bias[items])
        assert got.tobytes() == fancy.tobytes()
        if d <= 2:  # a dot product of width <= 2 has one summation order
            assert got.tolist() == [
                oracle_predict(m.user_factors, m.item_factors, m.user_bias, m.item_bias, u, i)
                for u, i in zip(users, items)]

    def test_out_of_range_rejected(self, rng):
        """Every public entry point that predicts on a triple set checks its
        indices against the model before predicting."""
        d = Dataset.from_ratings(3, 3, [(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)],
                                 [True, False, True], rating_scale=(0.0, 5.0))
        for small in (make_model(rng, 2, 3), make_model(rng, 3, 2)):
            # a Dataset checks its indices only when validated, so one can
            # declare the small model's shape and still hold larger indices
            shrunk = Dataset(small.num_users, small.num_items, d.user_idx, d.item_idx,
                             d.values, d.protected[:small.num_users])
            for call in (lambda: objective(small, d, 0.1),
                         lambda: objective_gradient(small, d, 0.1),
                         lambda: penalty_value(small, d, PenaltySpec.single("parity")),
                         lambda: penalty_gradient(small, d, PenaltySpec.single("parity")),
                         lambda: full_report(small, shrunk)):
                with pytest.raises(IndexOutOfRangeError):
                    call()

    def test_predict_entries_matches_scalar(self, rng):
        m = make_model(rng, 6, 5, d=2)
        users = rng.integers(0, 6, size=20)
        items = rng.integers(0, 5, size=20)
        batch = predict_entries(m, users, items)
        for k in range(20):
            want = oracle_predict(m.user_factors, m.item_factors,
                                  m.user_bias, m.item_bias, users[k], items[k])
            assert batch[k] == pytest.approx(want, abs=1e-12)


def loop_gradient(model, data, coeffs):
    """sum_e coeffs[e] * d(prediction_e)/d(parameters), one entry at a time."""
    dP = np.zeros_like(model.user_factors)
    dQ = np.zeros_like(model.item_factors)
    dbu = np.zeros(model.num_users)
    dbi = np.zeros(model.num_items)
    for u, i, c in zip(data.user_idx, data.item_idx, coeffs):
        dP[u] += c * model.item_factors[i]
        dQ[i] += c * model.user_factors[u]
        dbu[u] += c
        dbi[i] += c
    return dP, dQ, dbu, dbi


class TestScatter:
    """EntryGradient against an entry-by-entry loop on random datasets."""

    def test_scatter_sum_matches_loop(self, rng):
        for _ in range(10):
            d, _ = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items, d=2)
            coeffs = rng.normal(size=d.num_ratings)
            _, _, bu, bi = param_blocks(EntryGradient(d)(m, coeffs),
                                        m.num_users, m.num_items, m.d)
            _, _, want_bu, want_bi = loop_gradient(m, d, coeffs)
            assert np.allclose(bu, want_bu, atol=1e-12)
            assert np.allclose(bi, want_bi, atol=1e-12)

    def test_scatter_sum_empty_bucket(self, rng):
        d = Dataset.from_ratings(4, 3, [(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)],
                                 [True, False, True, False], rating_scale=(0.0, 5.0))
        m = make_model(rng, 4, 3, d=2)
        dP, dQ, dbu, dbi = param_blocks(EntryGradient(d)(m, np.array([1.0, 2.0, 3.0])),
                                        4, 3, 2)
        assert dbu.tolist() == [3.0, 0.0, 3.0, 0.0]
        assert dbi.tolist() == [4.0, 0.0, 2.0]
        assert not dP[[1, 3]].any() and not dQ[1].any()

    def test_scatter_rows_matches_loop(self, rng):
        for _ in range(10):
            d, _ = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items, d=3)
            coeffs = rng.normal(size=d.num_ratings)
            dP, dQ, _, _ = param_blocks(EntryGradient(d)(m, coeffs),
                                        m.num_users, m.num_items, m.d)
            want_dP, want_dQ, _, _ = loop_gradient(m, d, coeffs)
            assert np.allclose(dP, want_dP, atol=1e-12)
            assert np.allclose(dQ, want_dQ, atol=1e-12)


class TestEntryGradient:
    def test_matches_explicit_accumulation(self, rng):
        m = make_model(rng, 4, 3, d=2)
        d = Dataset.from_ratings(4, 3, [(0, 2, 1.0), (1, 0, 1.0), (1, 2, 1.0), (3, 1, 1.0)],
                                 [True, False, True, False], rating_scale=(0.0, 5.0))
        coeffs = np.array([0.5, -1.0, 2.0, 0.25])
        lam = 0.5
        g = EntryGradient(d)(m, coeffs, lam)
        dP = lam * m.user_factors
        dQ = lam * m.item_factors
        dbu = np.zeros(4)
        dbi = np.zeros(3)
        for u, i, c in zip([0, 1, 1, 3], [2, 0, 2, 1], coeffs):
            dP[u] += c * m.item_factors[i]
            dQ[i] += c * m.user_factors[u]
            dbu[u] += c
            dbi[i] += c
        assert np.allclose(g, np.concatenate([dP.ravel(), dQ.ravel(), dbu, dbi]),
                           atol=1e-12)


class TestGradientContainer:
    def test_plus_weights(self, rng):
        """The fused training step's gradient is the objective gradient plus
        alpha times the penalty gradient, both returned as Gradient blocks."""
        for kind in ("value", "parity"):
            d, _ = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items, d=2)
            spec = PenaltySpec.single(kind)
            _, _, fused = TrainingObjective(d, 0.1, spec, 0.5)(m)
            want = (gradient_to_vector(objective_gradient(m, d, 0.1))
                    + 0.5 * gradient_to_vector(penalty_gradient(m, d, spec)))
            assert np.allclose(fused, want, rtol=0, atol=1e-12)


class TestFlatLayout:
    def test_blocks_are_views_in_conftest_order(self, rng):
        m = make_model(rng, 3, 5, d=2)
        flat = flat_params(m)
        assert np.array_equal(flat, model_to_vector(m))
        blocks = param_blocks(flat, 3, 5, 2)
        for block, want in zip(blocks, (m.user_factors, m.item_factors,
                                        m.user_bias, m.item_bias)):
            assert np.array_equal(block, want)
            assert np.shares_memory(block, flat)


class TestObjective:
    def test_matches_oracle(self, rng):
        for _ in range(10):
            d, _ = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items)
            lam = float(rng.uniform(0, 0.5))
            want = oracle_objective(m.user_factors, m.item_factors,
                                    m.user_bias, m.item_bias,
                                    dataset_triples(d), lam)
            assert objective(m, d, lam) == pytest.approx(want, rel=1e-12)

    def test_empty_training_set_rejected(self, rng):
        d, _ = make_train_dataset(rng, num_users=3, num_items=2)
        empty = type(d)(
            num_users=3, num_items=2,
            user_idx=np.array([], dtype=np.int64),
            item_idx=np.array([], dtype=np.int64),
            values=np.array([]),
            protected=d.protected,
            rating_scale=d.rating_scale,
        )
        m = make_model(rng, 3, 2)
        with pytest.raises(EmptyTrainingSetError):
            objective(m, empty, 0.1)

    def test_biases_are_not_regularized(self, rng):
        d, _ = make_train_dataset(rng, num_users=3, num_items=2)
        m = make_model(rng, 3, 2)
        bigger_bias = FactorModel(m.user_factors, m.item_factors,
                                  m.user_bias * 3.0, m.item_bias * 3.0)
        # with zero factors and identical residuals the lam term must not move
        zero = FactorModel(np.zeros_like(m.user_factors),
                           np.zeros_like(m.item_factors),
                           m.user_bias, m.item_bias)
        zero_big = FactorModel(np.zeros_like(m.user_factors),
                               np.zeros_like(m.item_factors),
                               m.user_bias, m.item_bias)
        assert (objective(zero, d, 5.0) - objective(zero, d, 0.0)) == 0.0
        assert objective(zero_big, d, 5.0) == objective(zero, d, 5.0)
        assert bigger_bias  # constructed fine


class TestObjectiveGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(5):
            d, _ = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items, d=2)
            lam = float(rng.uniform(0, 0.5))
            ana = gradient_to_vector(objective_gradient(m, d, lam))

            def f(vec):
                mm = vector_to_model(vec, m)
                return oracle_objective(mm.user_factors, mm.item_factors,
                                        mm.user_bias, mm.item_bias,
                                        dataset_triples(d), lam)

            num = central_difference(f, model_to_vector(m).tolist(), h=1e-6)
            num = np.asarray(num)
            denom = max(float(np.linalg.norm(num, np.inf)), 1e-12)
            rel = float(np.linalg.norm(ana - num, np.inf)) / denom
            assert rel < 1e-7
