"""Evaluation scores against the loop-based reference implementation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairrec import (
    Dataset,
    FactorModel,
    FairrecError,
    METRIC_FIELDS,
    MetricReport,
    full_report,
)
from fairrec.factorization import Entries
from fairrec.metrics import KINDS, Unfairness, item_terms

from conftest import (dataset_from_ratings, dataset_triples, make_eval_instance, make_model,
                      make_train_dataset)
from oracles import oracle_metrics


def oracle_report(model, data):
    return oracle_metrics(model.user_factors, model.item_factors,
                          model.user_bias, model.item_bias,
                          dataset_triples(data), data.protected, data.num_items)


class TestEvalData:
    def test_empty_rejected(self, rng):
        empty = Dataset(2, 2, [], [], [], [True, False])
        with pytest.raises(FairrecError, match="evaluation set has no entries"):
            full_report(make_model(rng, 2, 2), empty)

    def test_model_shape_must_match(self, rng):
        data = dataset_from_ratings(3, 3, [(0, 0, 1.0), (1, 0, 2.0)], [True, False, True])
        with pytest.raises(FairrecError, match="model is 7 x 9, data 3 x 3"):
            full_report(make_model(rng, 7, 9), data)


class TestUnfairness:
    def test_counts_and_means(self, rng):
        _, data = make_eval_instance(rng, 5, 3, d=2)
        unfairness = Unfairness.of(data, KINDS, "evaluation entries")
        ref = {}
        for u, i, v in dataset_triples(data):
            # advantaged cells first, then protected ones
            ref.setdefault(i + 3 * bool(data.protected[u]), []).append(v)
        assert sorted(ref) == list(range(6))
        for cell, vals in ref.items():
            assert unfairness.count[cell] == len(vals)
            assert unfairness.true_means[cell] == pytest.approx(np.mean(vals))
        assert unfairness.comparable.all()
        assert unfairness.n_p == sum(len(ref[cell]) for cell in range(3, 6))
        assert unfairness.n_p + unfairness.n_a == data.num_ratings

    def test_partial_coverage(self, rng):
        model = make_model(rng, 4, 3, d=2)
        data = Dataset(4, 3, [0, 1, 2], [0, 1, 1], [1.0, 2.0, 3.0],
                       [True, True, False, False])
        unfairness = Unfairness.of(data, KINDS, "evaluation entries")
        assert unfairness.comparable.tolist() == [False, True, False]
        assert full_report(model, data).items_counted == 1


    def test_unknown_item_kind_rejected(self):
        with pytest.raises(FairrecError, match="^unknown per-item unfairness kind 'parity'$"):
            item_terms("parity", np.zeros((2, 3)))


class TestMetricsAgainstOracle:
    def test_random_instances(self, rng):
        for _ in range(40):
            model, data = make_eval_instance(rng)
            want = oracle_report(model, data)
            rep = full_report(model, data)
            for field in METRIC_FIELDS:
                assert getattr(rep, field) == pytest.approx(want[field], abs=1e-12)
            assert rep.items_counted == want["items_counted"]

    def test_full_report_fields(self, rng):
        model, data = make_eval_instance(rng, 6, 4)
        want = oracle_report(model, data)
        rep = full_report(model, data)
        assert isinstance(rep, MetricReport)
        for field in ("error", "value", "absolute", "under", "over", "parity"):
            assert getattr(rep, field) == pytest.approx(want[field], abs=1e-12)
        assert rep.items_counted == want["items_counted"]

    def test_full_report_mse_option(self, rng):
        model, data = make_eval_instance(rng, 5, 3)
        rep = full_report(model, data, error_metric="mse")
        assert rep.error == pytest.approx(oracle_report(model, data)["error"] ** 2, abs=1e-12)
        with pytest.raises(FairrecError, match="unknown error metric 'mae'"):
            full_report(model, data, error_metric="mae")


class TestMetricEdgeCases:
    def test_no_comparable_items(self, rng):
        model = make_model(rng, 2, 2, d=1)
        data = Dataset(2, 2, [0, 1], [0, 1], [1.0, 2.0], [True, False])
        with pytest.raises(FairrecError, match="no item has evaluation entries from both groups"):
            full_report(model, data)

    def test_parity_needs_both_groups(self):
        data = Dataset(3, 2, [0, 1], [0, 1], [1.0, 2.0], [True, True, False])
        with pytest.raises(FairrecError, match="both groups need at least one training rating"):
            Unfairness.of(data, ("parity",), "training ratings")

    def test_sparse_overflow_raises_without_warning(self, rng):
        """Gathered predictions that overflow raise FairrecError, silently."""
        data, _ = make_train_dataset(rng, num_users=60, num_items=40, density=0.045)
        assert not Entries(data).dense_predict
        model = make_model(rng, 60, 40, d=2, scale=0.1)
        factors = model.user_factors.copy()
        factors[0, 0] = 1e308
        with pytest.raises(FairrecError, match="^the model's predictions overflow: error not finite$"):
            full_report(replace(model, user_factors=factors), data)

    def test_rmse_is_sqrt_of_mse(self, rng):
        model, data = make_eval_instance(rng, 4, 3)
        assert full_report(model, data).error == pytest.approx(
            np.sqrt(full_report(model, data, error_metric="mse").error), abs=1e-12)


SEEDS = st.integers(0, 2**32 - 1)


class TestInvariances:
    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS)
    def test_group_swap_symmetry(self, seed):
        """Every score is symmetric in the two groups."""
        model, data = make_eval_instance(np.random.default_rng(seed))
        a = full_report(model, data)
        b = full_report(model, replace(data, protected=~data.protected))
        for field in METRIC_FIELDS:
            assert getattr(b, field) == pytest.approx(getattr(a, field), abs=1e-12)
        assert b.items_counted == a.items_counted

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, shift=st.floats(-10.0, 10.0))
    def test_value_shift_invariance(self, seed, shift):
        """Adding one constant to every prediction and truth changes no score."""
        model, data = make_eval_instance(np.random.default_rng(seed))
        shifted_model = FactorModel(model.user_factors, model.item_factors,
                                    model.user_bias + shift, model.item_bias)
        lo, hi = data.rating_scale
        a = full_report(model, data)
        b = full_report(shifted_model, replace(data, values=data.values + shift,
                                               rating_scale=(lo + shift, hi + shift)))
        for field in METRIC_FIELDS:
            assert getattr(b, field) == pytest.approx(getattr(a, field), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS)
    def test_absolute_below_value_below_under_plus_over(self, seed):
        model, data = make_eval_instance(np.random.default_rng(seed))
        r = full_report(model, data)
        assert r.absolute <= r.value + 1e-12
        assert r.value <= r.under + r.over + 1e-12
