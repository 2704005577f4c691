"""Training penalties: parsing, values against the reference, and gradients."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fairrec import (
    FairrecError,
    PENALTY_KINDS,
    PenaltySpec,
    full_report,
    parse_penalty,
    penalty_gradient,
    penalty_value,
)
from fairrec.metrics import Unfairness
from fairrec.penalties import TrainingObjective

from conftest import (
    counting_builds,
    dataset_from_ratings,
    dataset_triples,
    make_eval_instance,
    make_model,
    make_protected,
    make_train_dataset,
    make_triples,
    model_to_vector,
    vector_to_model,
)
from oracles import (
    _per_group_item_averages,
    central_difference,
    oracle_objective,
    oracle_penalty,
)


class TestPenaltySpec:
    def test_none(self):
        spec = PenaltySpec.none()
        assert spec.terms == ()
        assert spec.label == "none"

    def test_single(self):
        spec = PenaltySpec.single("value")
        assert spec.label == "value"
        assert spec.terms == (("value", 1.0),)

    def test_label_shows_non_unit_weights(self):
        spec = PenaltySpec((("under", 2.0), ("over", 1.0)))
        assert spec.label == "under:2+over"

    def test_rejects_unknown_kind(self):
        with pytest.raises(FairrecError, match="unknown penalty kind 'sideways'"):
            PenaltySpec((("sideways", 1.0),))

    def test_rejects_negative_weight(self):
        with pytest.raises(FairrecError):
            PenaltySpec((("value", -1.0),))

    def test_rejects_duplicate_kind(self):
        with pytest.raises(FairrecError):
            PenaltySpec((("value", 1.0), ("value", 2.0)))

    def test_rejects_negative_smoothing(self):
        with pytest.raises(FairrecError):
            PenaltySpec((("value", 1.0),), smoothing=-0.1)


class TestParsePenalty:
    def test_none(self):
        assert parse_penalty("none").terms == ()

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_each_kind(self, kind):
        assert parse_penalty(kind).terms == ((kind, 1.0),)

    def test_combination(self):
        spec = parse_penalty("under+over")
        assert spec.terms == (("under", 1.0), ("over", 1.0))

    def test_weights(self):
        spec = parse_penalty("under:2+over:0.5")
        assert spec.terms == (("under", 2.0), ("over", 0.5))

    def test_exponent_weights(self):
        assert parse_penalty("value:1e+3") == parse_penalty("value:1000")
        assert parse_penalty("VALUE:1E+3") == parse_penalty("value:1000")
        assert parse_penalty("under:2.5e+2+over").terms == (("under", 250.0), ("over", 1.0))

    def test_label_round_trip(self):
        for text in ("none", "value", "under+over", "under:2+over",
                     "absolute:0.25"):
            assert parse_penalty(parse_penalty(text).label).terms \
                == parse_penalty(text).terms

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(min_value=0.0, allow_infinity=False),
                            min_size=1, max_size=len(PENALTY_KINDS)))
    def test_every_label_parses_back_to_its_spec(self, weights):
        spec = PenaltySpec(tuple(zip(PENALTY_KINDS, weights)))
        assert parse_penalty(spec.label) == spec

    def test_label_keeps_the_short_form_that_parses_back(self):
        assert parse_penalty("value:0.1234567").label == "value:0.1234567"
        assert parse_penalty("under:2+over:0.5").label == "under:2+over:0.5"
        assert parse_penalty("value:1e20").label == "value:1e20"

    GARBAGE = {
        "": "empty penalty specification",
        "waffle": "unknown penalty kind 'waffle'",
        "value:x": "could not convert string to float: 'x'",
        "none+value": "cannot be combined",
        "value:": "could not convert string to float: ''",
    }

    @pytest.mark.parametrize("bad", list(GARBAGE))
    def test_rejects_garbage(self, bad):
        with pytest.raises(FairrecError, match=self.GARBAGE[bad]):
            parse_penalty(bad)

    def test_smoothing_carried(self):
        assert parse_penalty("value", smoothing=0.01).smoothing == 0.01


class TestPenaltyValue:
    def test_none_is_zero(self, rng):
        d, _ = make_train_dataset(rng)
        m = make_model(rng, d.num_users, d.num_items)
        assert penalty_value(m, d, PenaltySpec.none()) == 0.0

    def test_none_still_checks_the_model_shape(self, rng):
        """With no terms, the value still checks the model's shape first, as
        the gradient does."""
        d, _ = make_train_dataset(rng, num_users=3, num_items=2)
        for call in (penalty_value, penalty_gradient):
            with pytest.raises(FairrecError, match="model is 7 x 9, data 3 x 2"):
                call(make_model(rng, 7, 9), d, PenaltySpec.none())

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_single_kinds_match_oracle(self, rng, kind):
        for _ in range(8):
            d, protected = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items)
            want = oracle_penalty(m.user_factors, m.item_factors,
                                  m.user_bias, m.item_bias,
                                  dataset_triples(d), protected,
                                  d.num_items, [(kind, 1.0)])
            got = penalty_value(m, d, PenaltySpec.single(kind))
            assert got == pytest.approx(want, abs=1e-12)

    def test_weighted_combination_matches_oracle(self, rng):
        d, protected = make_train_dataset(rng)
        m = make_model(rng, d.num_users, d.num_items)
        terms = [("under", 2.0), ("over", 0.5)]
        want = oracle_penalty(m.user_factors, m.item_factors,
                              m.user_bias, m.item_bias,
                              dataset_triples(d), protected,
                              d.num_items, terms)
        got = penalty_value(m, d, PenaltySpec(tuple(terms)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_under_plus_over_equals_value(self, rng):
        """The positive and negative parts of the signed gap add back up to
        its magnitude, so these two specs are the same function."""
        for _ in range(10):
            d, _ = make_train_dataset(rng)
            m = make_model(rng, d.num_users, d.num_items)
            combo = penalty_value(m, d, parse_penalty("under+over"))
            value = penalty_value(m, d, parse_penalty("value"))
            assert combo == pytest.approx(value, abs=1e-12)

    def test_smoothing_upper_bounds_exact(self, rng):
        d, _ = make_train_dataset(rng)
        m = make_model(rng, d.num_users, d.num_items)
        exact = penalty_value(m, d, PenaltySpec.single("value"))
        smooth = penalty_value(m, d, PenaltySpec.single("value", smoothing=0.05))
        assert smooth >= exact
        tighter = penalty_value(m, d, PenaltySpec.single("value", smoothing=1e-6))
        assert tighter == pytest.approx(exact, abs=1e-5)


def _fd_check(rng, spec, h=1e-6, margin=1e-4, tries=20):
    """Relative error between the analytic gradient and central differences,
    resampling when any per-item gap sits within ``margin`` of a kink."""
    for _ in range(tries):
        d, protected = make_train_dataset(rng)
        m = make_model(rng, d.num_users, d.num_items, d=2)
        base = penalty_value(m, d, spec)
        if base == 0.0:
            continue
        vec = model_to_vector(m)
        probe = central_difference(
            lambda v: penalty_value(vector_to_model(v, m), d, spec),
            vec.tolist(), h=margin)
        mid = central_difference(
            lambda v: penalty_value(vector_to_model(v, m), d, spec),
            vec.tolist(), h=margin / 2)
        if not np.allclose(probe, mid, rtol=0.05, atol=1e-9):
            continue  # too close to a kink for stable differences
        ana = penalty_gradient(m, d, spec)
        num = np.asarray(central_difference(
            lambda v: penalty_value(vector_to_model(v, m), d, spec),
            vec.tolist(), h=h))
        denom = max(float(np.linalg.norm(num, np.inf)), 1e-12)
        return float(np.linalg.norm(ana - num, np.inf)) / denom
    pytest.skip("no smooth instance found")


class TestPenaltyGradient:
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_single_kinds_match_differences(self, rng, kind):
        rel = _fd_check(rng, PenaltySpec.single(kind))
        assert rel < 1e-6

    def test_combination_matches_differences(self, rng):
        rel = _fd_check(rng, PenaltySpec((("under", 2.0), ("over", 1.0))))
        assert rel < 1e-6

    def test_smoothed_gradient_matches_differences(self, rng):
        rel = _fd_check(rng, PenaltySpec.single("absolute", smoothing=0.05))
        assert rel < 1e-6

    def test_none_gradient_is_zero(self, rng):
        d, _ = make_train_dataset(rng)
        m = make_model(rng, d.num_users, d.num_items)
        g = penalty_gradient(m, d, PenaltySpec.none())
        assert not g.any()


def one_sided_instance(rng):
    """A random model and rating set in which some items have entries from
    one group only, and at least one item from both."""
    while True:
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 9))
        protected = make_protected(rng, n)
        triples = make_triples(rng, n, m, density=0.3)
        groups = {}
        for u, i, _ in triples:
            groups.setdefault(i, set()).add(bool(protected[u]))
        sides = [len(g) for g in groups.values()]
        if 2 in sides and 1 in sides:
            data = dataset_from_ratings(n, m, triples, protected, rating_scale=(0.0, 5.0))
            return make_model(rng, n, m), data


class TestSharedDefinition:
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_penalty_equals_metric_on_the_training_set(self, rng, kind):
        """At smoothing 0 a penalty is the metric of the same name, evaluated
        on the training ratings, whether or not every item has entries from
        both groups."""
        for _ in range(10):
            d, _ = make_train_dataset(rng)
            for m, data in ((make_model(rng, d.num_users, d.num_items), d),
                            make_eval_instance(rng), one_sided_instance(rng)):
                assert penalty_value(m, data, PenaltySpec.single(kind)) \
                    == getattr(full_report(m, data), kind)


TERM_SETS = [((kind, 1.0),) for kind in PENALTY_KINDS] + [
    (("under", 2.0), ("over", 1.0)),
    (("value", 1.0), ("parity", 1.0)),
    (("under", 2.0), ("parity", 1.0), ("over", 1.0)),
]


def kink_distance(m, d, protected, terms):
    """How near the model lies to a kink of the terms' penalty. The per-item
    terms bend where a group's D is 0 or where Dp = +-Da, on an item both
    groups rated; parity bends where the groups' mean predictions are equal.
    Central differences of step h move each of these by at most
    2 * h * max(1, |P|, |Q|)."""
    prot, adv = _per_group_item_averages(m.user_factors, m.item_factors, m.user_bias,
                                         m.item_bias, dataset_triples(d), protected,
                                         d.num_items)
    distances = [np.inf]
    for item in set(prot) & set(adv):
        dp, da = prot[item][0] - prot[item][1], adv[item][0] - adv[item][1]
        distances += [abs(dp), abs(da), abs(dp - da), abs(dp + da)]
    if "parity" in dict(terms):
        means = [sum(p * c for p, _, c in group.values()) / sum(c for _, _, c in group.values())
                 for group in (prot, adv)]
        distances.append(abs(means[0] - means[1]))
    return min(distances)


class TestTrainingObjective:
    @pytest.mark.parametrize("smoothing", [0.0, 0.05])
    @pytest.mark.parametrize("terms", TERM_SETS,
                             ids=[PenaltySpec(t).label for t in TERM_SETS])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 0.5),
           alpha=st.floats(0.0, 2.0))
    # the protected group's D on item 0 is 5.2e-8 here, so a step of 1e-6
    # crosses the under hinge: the filter must discard this point
    @example(seed=3575392, lam=0.0, alpha=1.0)
    def test_matches_oracles_and_differences(self, terms, smoothing, seed, lam, alpha):
        rng = np.random.default_rng(seed)
        d, protected = make_train_dataset(rng)
        m = make_model(rng, d.num_users, d.num_items, d=2)
        obj, pen, grad = TrainingObjective(d, lam, PenaltySpec(terms, smoothing), alpha)(m)

        def oracle(vec, alpha=alpha):
            mm = vector_to_model(vec, m)
            args = (mm.user_factors, mm.item_factors, mm.user_bias, mm.item_bias,
                    dataset_triples(d))
            return (oracle_objective(*args, lam) + alpha * oracle_penalty(
                *args, protected, d.num_items, terms, smoothing))

        x = model_to_vector(m).tolist()
        assert obj == pytest.approx(oracle(x, alpha=0.0), rel=1e-12, abs=1e-12)
        assert obj + alpha * pen == pytest.approx(oracle(x), rel=1e-12, abs=1e-12)
        h = 1e-6
        scale = max(1.0, np.abs(m.user_factors).max(), np.abs(m.item_factors).max())
        assume(kink_distance(m, d, protected, terms) > 2 * h * scale)
        num = np.asarray(central_difference(oracle, x, h=h))
        rel = np.linalg.norm(grad - num, np.inf) / max(np.linalg.norm(num, np.inf), 1e-12)
        assert rel < 1e-6

    @pytest.mark.parametrize("protected, kind, message", [
        ([True, False], "value", "no item has training ratings from both groups"),
        ([False, False, True], "parity", "both groups need at least one training rating"),
    ], ids=["no-comparable-item", "no-protected-rating"])
    def test_kinds_checked_at_each_use(self, monkeypatch, protected, kind, message):
        """A second objective on the same dataset shares the first one's
        group cells, and still checks them for its own kinds."""
        built = counting_builds(monkeypatch, Unfairness)
        data = dataset_from_ratings(len(protected), 2, [(0, 0, 1.0), (1, 1, 2.0)], protected)
        TrainingObjective(data, 0.0, PenaltySpec.none(), 0.0)
        with pytest.raises(FairrecError, match=f"^{message}$"):
            TrainingObjective(data, 0.0, PenaltySpec.single(kind), 1.0)
        assert built == [data]
