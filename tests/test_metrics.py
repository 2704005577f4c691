"""Evaluation scores against the loop-based reference implementation."""

import numpy as np
import pytest

from fairrec import (
    Dataset,
    EmptyEvalSetError,
    EmptyGroupError,
    EvalSet,
    HELD_OUT,
    EXPECTED_VALUES,
    MetricReport,
    NoComparableItemsError,
    UnsupportedFormatError,
    absolute_unfairness,
    full_report,
    group_item_averages,
    mse,
    non_parity,
    overestimation_unfairness,
    rmse,
    underestimation_unfairness,
    value_unfairness,
)

from conftest import evalset_triples, make_eval_instance, make_model
from oracles import oracle_metrics


class TestEvalSet:
    def test_sorted_canonically(self):
        e = EvalSet(np.array([2, 0, 1]), np.array([0, 1, 0]),
                    np.array([1.0, 2.0, 3.0]))
        assert e.user_idx.tolist() == [0, 1, 2]
        assert e.values.tolist() == [2.0, 3.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvalSetError):
            EvalSet(np.array([], dtype=int), np.array([], dtype=int), np.array([]))

    def test_from_dataset_keeps_entries(self):
        d = Dataset.from_ratings(2, 2, [(0, 0, 1.0), (1, 1, 2.0)],
                                 [True, False], rating_scale=(0.0, 5.0))
        e = EvalSet.from_dataset(d, source=EXPECTED_VALUES)
        assert len(e) == 2
        assert e.source == EXPECTED_VALUES

    def test_default_source(self):
        e = EvalSet(np.array([0]), np.array([0]), np.array([1.0]))
        assert e.source == HELD_OUT


class TestGroupItemAverages:
    def test_counts_and_means(self, rng):
        model, eval_set, protected = make_eval_instance(rng, 5, 3, d=2)
        avgs = group_item_averages(model, eval_set, protected)
        ref_p, ref_a = {}, {}
        for u, i, v in evalset_triples(eval_set):
            bucket = ref_p if protected[u] else ref_a
            bucket.setdefault(i, []).append(v)
        for item, vals in ref_p.items():
            assert avgs.count_protected[item] == len(vals)
            assert avgs.true_protected[item] == pytest.approx(np.mean(vals))
        for item, vals in ref_a.items():
            assert avgs.count_advantaged[item] == len(vals)
            assert avgs.true_advantaged[item] == pytest.approx(np.mean(vals))
        assert avgs.comparable.all()

    def test_partial_coverage(self, rng):
        model = make_model(rng, 4, 3, d=2)
        protected = np.array([True, True, False, False])
        e = EvalSet(np.array([0, 1, 2]), np.array([0, 1, 1]),
                    np.array([1.0, 2.0, 3.0]))
        avgs = group_item_averages(model, e, protected)
        assert avgs.comparable.tolist() == [False, True, False]


class TestMetricsAgainstOracle:
    def test_random_instances(self, rng):
        for _ in range(40):
            model, eval_set, protected = make_eval_instance(rng)
            want = oracle_metrics(model.user_factors, model.item_factors,
                                  model.user_bias, model.item_bias,
                                  evalset_triples(eval_set), protected,
                                  model.num_items)
            avgs = group_item_averages(model, eval_set, protected)
            assert value_unfairness(avgs) == pytest.approx(want["value"], abs=1e-12)
            assert absolute_unfairness(avgs) == pytest.approx(want["absolute"], abs=1e-12)
            assert underestimation_unfairness(avgs) == pytest.approx(want["under"], abs=1e-12)
            assert overestimation_unfairness(avgs) == pytest.approx(want["over"], abs=1e-12)
            assert non_parity(model, eval_set, protected) == pytest.approx(want["parity"], abs=1e-12)
            assert rmse(model, eval_set) == pytest.approx(want["error"], abs=1e-12)

    def test_full_report_fields(self, rng):
        model, eval_set, protected = make_eval_instance(rng, 6, 4)
        want = oracle_metrics(model.user_factors, model.item_factors,
                              model.user_bias, model.item_bias,
                              evalset_triples(eval_set), protected,
                              model.num_items)
        rep = full_report(model, eval_set, protected)
        assert isinstance(rep, MetricReport)
        for field in ("error", "value", "absolute", "under", "over", "parity"):
            assert getattr(rep, field) == pytest.approx(want[field], abs=1e-12)
        assert rep.items_counted == want["items_counted"]

    def test_full_report_mse_option(self, rng):
        model, eval_set, protected = make_eval_instance(rng, 5, 3)
        rep = full_report(model, eval_set, protected, error_metric="mse")
        assert rep.error == pytest.approx(mse(model, eval_set), abs=1e-12)
        with pytest.raises(UnsupportedFormatError):
            full_report(model, eval_set, protected, error_metric="mae")


class TestMetricEdgeCases:
    def test_no_comparable_items(self, rng):
        model = make_model(rng, 2, 2, d=1)
        protected = np.array([True, False])
        e = EvalSet(np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))
        avgs = group_item_averages(model, e, protected)
        with pytest.raises(NoComparableItemsError):
            value_unfairness(avgs)

    def test_parity_needs_both_groups(self, rng):
        model = make_model(rng, 2, 2, d=1)
        e = EvalSet(np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(EmptyGroupError):
            non_parity(model, e, np.array([True, True]))

    def test_rmse_is_sqrt_of_mse(self, rng):
        model, eval_set, _ = make_eval_instance(rng, 4, 3)
        assert rmse(model, eval_set) == pytest.approx(
            np.sqrt(mse(model, eval_set)), abs=1e-12)


class TestInvariances:
    def test_group_swap_symmetry(self, rng):
        """All four per-item scores are symmetric in the two groups."""
        for _ in range(10):
            model, eval_set, protected = make_eval_instance(rng)
            a = group_item_averages(model, eval_set, protected)
            b = group_item_averages(model, eval_set, ~protected)
            assert value_unfairness(a) == pytest.approx(value_unfairness(b), abs=1e-12)
            assert absolute_unfairness(a) == pytest.approx(absolute_unfairness(b), abs=1e-12)
            assert underestimation_unfairness(a) == pytest.approx(
                underestimation_unfairness(b), abs=1e-12)
            assert overestimation_unfairness(a) == pytest.approx(
                overestimation_unfairness(b), abs=1e-12)
            assert non_parity(model, eval_set, protected) == pytest.approx(
                non_parity(model, eval_set, ~protected), abs=1e-12)

    def test_value_shift_invariance(self, rng):
        """Adding one constant to every prediction and truth leaves the
        signed-difference score unchanged."""
        model, eval_set, protected = make_eval_instance(rng, 5, 4)
        shifted = EvalSet(eval_set.user_idx, eval_set.item_idx,
                          eval_set.values + 2.5, eval_set.source)
        from fairrec import FactorModel
        model2 = FactorModel(model.user_factors, model.item_factors,
                             model.user_bias + 2.5, model.item_bias)
        a = group_item_averages(model, eval_set, protected)
        b = group_item_averages(model2, shifted, protected)
        assert value_unfairness(a) == pytest.approx(value_unfairness(b), abs=1e-12)
