"""Prediction, the entry-coefficient scatter, and objective gradients."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairrec
from fairrec import (
    METRIC_FIELDS,
    Dataset,
    EmptyTrainingSetError,
    FactorModel,
    IndexOutOfRangeError,
    PenaltySpec,
    RegimeConfig,
    ShapeMismatchError,
    expected_value_eval,
    full_report,
    generate,
    init_model,
    objective,
    objective_gradient,
    penalty_gradient,
    penalty_value,
    predict_entries,
)
from fairrec import factorization
from fairrec.factorization import (
    DENSE_FILL,
    EntryGradient,
    EntryPredictor,
    flat_params,
    param_blocks,
    score_matrix,
)
from fairrec.penalties import PENALTY_KINDS, TrainingObjective

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

    def test_model_shape_must_match_data(self, rng):
        """A model of another shape is rejected even when every index fits it."""
        d, _ = make_train_dataset(rng, num_users=3, num_items=2)
        big = make_model(rng, 4, 2)
        for call in (lambda: objective(big, d, 0.1),
                     lambda: penalty_gradient(big, d, PenaltySpec.single("parity"))):
            with pytest.raises(ShapeMismatchError, match="model is 4 x 2, data 3 x 2"):
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


ALL_TERMS = PenaltySpec(tuple((kind, 1.0) for kind in PENALTY_KINDS))


def scaled_close(got, want) -> bool:
    """Agreement within 1e-12 times the larger of 1 and the oracle's largest
    magnitude."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


@st.composite
def filled_instances(draw):
    """A dataset of random shape and fill, with item 0 rated by both groups,
    and a model of its shape with biases up to 1e6."""
    n, m = draw(st.integers(2, 60)), draw(st.integers(1, 60))
    d = draw(st.integers(1, 8))
    fill = draw(st.floats(0.0, 1.0))
    bias_scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    protected = np.zeros(n, dtype=bool)
    protected[rng.permutation(n)[:int(rng.integers(1, n))]] = True
    observed = rng.random((n, m)) < fill
    observed[np.flatnonzero(protected)[0], 0] = True
    observed[np.flatnonzero(~protected)[0], 0] = True
    u, i = np.nonzero(observed)
    data = Dataset(n, m, u, i, rng.uniform(0.0, 5.0, len(u)), protected,
                   rating_scale=(0.0, 5.0))
    model = make_model(rng, n, m, d)
    model = replace(model, user_bias=bias_scale * model.user_bias,
                    item_bias=bias_scale * model.item_bias)
    return data, model


class TestDensePath:
    """The score-matrix read-out against the gather path on the same inputs."""

    @settings(max_examples=200, deadline=None)
    @given(filled_instances(), st.sampled_from([1, 40, 2**18]))
    def test_matches_gather_path(self, instance, block_muladds):
        data, model = instance
        n, m = data.num_users, data.num_items
        assert EntryPredictor(data).dense == (data.num_ratings >= DENSE_FILL * n * m)
        results = {}
        with pytest.MonkeyPatch.context() as patch:
            # small blocks split even these shapes into several products
            patch.setattr(factorization, "_BLOCK_MULADDS", block_muladds)
            for path, fill in (("dense", 0.0), ("gather", np.inf)):
                patch.setattr(factorization, "DENSE_FILL", fill)
                assert EntryPredictor(data).dense == (path == "dense")
                results[path] = (EntryPredictor(data)(model),
                                 TrainingObjective(data, 0.1, ALL_TERMS, 0.3)(model),
                                 full_report(model, data))
        preds, loss, report = results["dense"]
        want_preds, want_loss, want_report = results["gather"]
        assert scaled_close(preds, predict_entries(model, data.user_idx, data.item_idx))
        assert scaled_close(preds, want_preds)
        for got, want in zip(loss, want_loss):
            assert scaled_close(got, want)
        for field in METRIC_FIELDS:
            assert scaled_close(getattr(report, field), getattr(want_report, field))
        assert report.items_counted == want_report.items_counted

    @pytest.mark.parametrize("n, m", [(400, 300), (3000, 1005)])
    def test_synthetic_train_and_eval_sets_are_dense(self, monkeypatch, n, m):
        def no_gather(*args):
            raise AssertionError("gathered on dense data")

        data, expected = generate(RegimeConfig("P+O", n, m, seed=0))
        eval_set = expected_value_eval(data, expected)
        model = init_model(n, m, 4, seed=0)
        monkeypatch.setattr(factorization, "predict_entries", no_gather)
        TrainingObjective(data, 1e-3, PenaltySpec.single("value"), 0.3)(model)
        full_report(model, eval_set)

    def test_sparse_data_gathers(self, monkeypatch):
        def no_scores(*args):
            raise AssertionError("score matrix built for sparse data")

        rng = np.random.default_rng(0)
        n, m = 200, 100
        flat = rng.choice(n * m, size=900, replace=False)  # 4.5% fill
        data = Dataset(n, m, flat // m, flat % m, rng.uniform(1, 5, 900),
                       np.arange(n) % 3 == 0)
        model = init_model(n, m, 4, seed=0)
        monkeypatch.setattr(factorization, "score_matrix", no_scores)
        TrainingObjective(data, 1e-3, PenaltySpec.single("value"), 0.3)(model)
        full_report(model, data)

    def test_scores_do_not_depend_on_blas_threads(self):
        """The score matrix has the same bits under one and two OpenBLAS
        threads (a setting other BLAS libraries ignore)."""
        code = (
            "import hashlib, numpy as np\n"
            "from fairrec import FactorModel\n"
            "from fairrec.factorization import score_matrix\n"
            "rng = np.random.default_rng(0)\n"
            "digest = hashlib.sha256()\n"
            "for n, m, d in ((400, 300, 4), (3000, 1005, 4), (980, 636, 1), (1787, 1225, 8)):\n"
            "    model = FactorModel(rng.normal(size=(n, d)), rng.normal(size=(m, d)),\n"
            "                        rng.normal(size=n), rng.normal(size=m))\n"
            "    digest.update(score_matrix(model).tobytes())\n"
            "print(digest.hexdigest())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fairrec.__file__)))
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                timeout=120,
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            ).stdout
            for threads in ("1", "2")}
        assert digests["1"] == digests["2"] != ""

    def test_score_matrix_hand_example(self):
        model = FactorModel(np.array([[1.0, 2.0], [0.0, 1.0]]),
                            np.array([[3.0, 4.0], [1.0, -1.0], [0.5, 0.5]]),
                            np.array([0.5, -2.0]), np.array([-0.5, 0.0, 1.0]))
        assert score_matrix(model).tolist() == [[11.0, -0.5, 3.0],
                                                [1.5, -3.0, -0.5]]
