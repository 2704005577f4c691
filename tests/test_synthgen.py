"""Block-model data generation and the four observation regimes."""

import numpy as np
import pytest

from fairrec import (
    BlockModels,
    IndivisibleCountError,
    ITEM_GROUPS,
    REGIMES,
    RegimeConfig,
    USER_FINE_GROUPS,
    default_block_models,
    expected_value_eval,
    generate,
    sample_item_groups,
    sample_user_groups,
    validate_dataset,
    write_sidecar,
)


class TestBlockModels:
    def test_default_shapes(self):
        b = default_block_models()
        assert b.L.shape == (4, 3)
        assert b.o_uniform.shape == (4, 3)
        assert (b.o_uniform == 0.4).all()

    def test_probability_bounds_enforced(self):
        good = np.full((4, 3), 0.5)
        with pytest.raises(ValueError):
            BlockModels(good * 3, good, good)
        with pytest.raises(ValueError):
            BlockModels(good, good - 1.0, good)

    def test_shape_enforced(self):
        good = np.full((4, 3), 0.5)
        with pytest.raises(ValueError):
            BlockModels(np.full((3, 4), 0.5), good, good)

    def test_observation_selects_matrix(self):
        b = default_block_models()
        assert np.array_equal(b.observation("U"), b.o_uniform)
        assert np.array_equal(b.observation("P"), b.o_uniform)
        assert np.array_equal(b.observation("O"), b.o_biased)
        assert np.array_equal(b.observation("P+O"), b.o_biased)
        with pytest.raises(ValueError):
            b.observation("Q")


class TestRegimeConfig:
    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            RegimeConfig("diagonal")

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            RegimeConfig("U", num_users=2)

    @pytest.mark.parametrize("users, items", [(2**63, 300), (400, 3 * 2**62)])
    def test_rejects_counts_beyond_int64(self, users, items):
        with pytest.raises(ValueError, match="must fit in int64"):
            RegimeConfig("U", users, items)


class TestUserGroups:
    def test_uniform_quarters(self):
        labels, protected = sample_user_groups(40, "U", seed=0)
        counts = {g: labels.count(g) for g in USER_FINE_GROUPS}
        assert counts == {"W": 10, "WS": 10, "MS": 10, "M": 10}
        assert protected.sum() == 20

    def test_biased_shares(self):
        labels, protected = sample_user_groups(40, "P+O", seed=0)
        counts = {g: labels.count(g) for g in USER_FINE_GROUPS}
        assert counts == {"W": 16, "WS": 4, "MS": 16, "M": 4}
        # the protected side stays half the population in every regime
        assert protected.sum() == 20

    def test_protected_matches_labels(self):
        labels, protected = sample_user_groups(20, "P", seed=3)
        for lab, flag in zip(labels, protected):
            assert flag == (lab in ("W", "WS"))

    def test_indivisible_counts_rejected(self):
        with pytest.raises(IndivisibleCountError):
            sample_user_groups(41, "U", seed=0)
        with pytest.raises(IndivisibleCountError):
            sample_user_groups(44, "P", seed=0)

    def test_seed_shuffles_deterministically(self):
        a, _ = sample_user_groups(40, "U", seed=5)
        b, _ = sample_user_groups(40, "U", seed=5)
        c, _ = sample_user_groups(40, "U", seed=6)
        assert a == b
        assert a != c


class TestItemGroups:
    def test_exact_thirds(self):
        labels = sample_item_groups(30, seed=0)
        assert {g: labels.count(g) for g in ITEM_GROUPS} \
            == {"Fem": 10, "STEM": 10, "Masc": 10}

    def test_indivisible_rejected(self):
        with pytest.raises(IndivisibleCountError):
            sample_item_groups(31, seed=0)


class TestGenerate:
    def test_dataset_is_valid_and_binary(self):
        data, expected = generate(RegimeConfig("P+O", 40, 30, seed=1))
        validate_dataset(data)
        assert data.rating_scale == (0.0, 1.0)
        assert set(np.unique(data.values)) <= {0.0, 1.0}
        assert data.user_group_fine is not None
        assert data.item_group is not None

    def test_deterministic_per_seed(self):
        a, _ = generate(RegimeConfig("U", 40, 30, seed=9))
        b, _ = generate(RegimeConfig("U", 40, 30, seed=9))
        c, _ = generate(RegimeConfig("U", 40, 30, seed=10))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.user_idx, b.user_idx)
        assert not (len(a.values) == len(c.values)
                    and np.array_equal(a.values, c.values))

    def test_expected_ratings_follow_blocks(self):
        blocks = default_block_models()
        data, expected = generate(RegimeConfig("U", 40, 30, seed=2), blocks)
        for u in (0, 7, 39):
            g = USER_FINE_GROUPS.index(data.user_group_fine[u])
            for i in (0, 13, 29):
                h = ITEM_GROUPS.index(data.item_group[i])
                assert expected[u, i] == blocks.L[g, h]

    def test_observation_rate_tracks_regime(self):
        # W users see Fem items with probability 0.6 under bias, 0.4 uniform
        uni, _ = generate(RegimeConfig("U", 400, 300, seed=4))
        bia, _ = generate(RegimeConfig("O", 400, 300, seed=4))

        def w_fem_rate(data):
            w_users = np.array([g == "W" for g in data.user_group_fine])
            fem_items = np.array([g == "Fem" for g in data.item_group])
            hits = w_users[data.user_idx] & fem_items[data.item_idx]
            return hits.sum() / (w_users.sum() * fem_items.sum())

        assert abs(w_fem_rate(uni) - 0.4) < 0.02
        assert abs(w_fem_rate(bia) - 0.6) < 0.02

    def test_rating_rate_tracks_blocks(self):
        data, _ = generate(RegimeConfig("U", 400, 300, seed=5))
        w_users = np.array([g == "W" for g in data.user_group_fine])
        fem_items = np.array([g == "Fem" for g in data.item_group])
        mask = w_users[data.user_idx] & fem_items[data.item_idx]
        assert abs(data.values[mask].mean() - 0.8) < 0.03


class TestExpectedValueEval:
    def test_covers_exactly_the_unobserved_pairs(self):
        data, expected = generate(RegimeConfig("U", 8, 6, seed=3))
        ev = expected_value_eval(data, expected)
        assert (ev.num_users, ev.num_items) == (data.num_users, data.num_items)
        assert ev.protected.tolist() == data.protected.tolist()
        assert len(ev) == 8 * 6 - data.num_ratings
        observed = set(zip(data.user_idx.tolist(), data.item_idx.tolist()))
        listed = set(zip(ev.user_idx.tolist(), ev.item_idx.tolist()))
        assert not observed & listed
        assert len(listed) == len(ev)
        for k in range(len(ev)):
            assert ev.values[k] == expected[ev.user_idx[k], ev.item_idx[k]]


class TestSidecar:
    def test_contents(self, tmp_path):
        path = tmp_path / "blocks.txt"
        write_sidecar(path, default_block_models(), "P+O")
        lines = path.read_text().splitlines()
        assert lines[0] == "regime P+O"
        assert lines[1].startswith("L W ")
        assert len(lines) == 1 + 4 + 4
        # the observation rows reflect the biased matrix for P+O
        assert lines[5].split()[:2] == ["O", "W"]
        assert float(lines[5].split()[2]) == 0.6

    @pytest.mark.parametrize("regime", REGIMES)
    def test_all_regimes(self, tmp_path, regime):
        path = tmp_path / "blocks.txt"
        write_sidecar(path, default_block_models(), regime)
        assert path.read_text().startswith(f"regime {regime}\n")
