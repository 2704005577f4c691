"""Block-model data generation and the four observation regimes."""

import hashlib

import numpy as np
import pytest

import fairrec.core as core
from fairrec import FairrecError, REGIMES, RegimeConfig, expected_value_eval, generate
from fairrec.cli import main
from fairrec.core import ITEM_GROUPS, USER_FINE_GROUPS
from fairrec.synthgen import (
    BIASED_SHARES,
    L,
    O_BIASED,
    O_UNIFORM,
    UNIFORM_SHARES,
    _REGIMES,
    write_sidecar,
)


def user_labels(regime, n, seed):
    data, _ = generate(RegimeConfig(regime, n, 30, seed=seed))
    return data.user_group_fine, data.protected


class TestBlockModels:
    def test_default_shapes(self):
        for matrix in (L, O_UNIFORM, O_BIASED):
            assert matrix.shape == (4, 3)
            assert ((0 <= matrix) & (matrix <= 1)).all()
            assert not matrix.flags.writeable
        assert (O_UNIFORM == 0.4).all()

    def test_observation_selects_matrix(self):
        assert REGIMES == ("U", "O", "P", "P+O")
        for regime, shares, observation in (("U", UNIFORM_SHARES, O_UNIFORM),
                                            ("O", UNIFORM_SHARES, O_BIASED),
                                            ("P", BIASED_SHARES, O_UNIFORM),
                                            ("P+O", BIASED_SHARES, O_BIASED)):
            assert _REGIMES[regime][0] is shares and _REGIMES[regime][1] is observation
        for shares in (UNIFORM_SHARES, BIASED_SHARES):
            assert tuple(shares) == USER_FINE_GROUPS
            assert sum(shares.values()) == 1.0


class TestRegimeConfig:
    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            RegimeConfig("diagonal")

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            RegimeConfig("U", num_users=2)
        with pytest.raises(ValueError, match="need at least one item per group"):
            RegimeConfig("U", num_items=2)

    @pytest.mark.parametrize("users, items", [(2**63, 300), (400, 3 * 2**62)])
    def test_rejects_counts_beyond_int64(self, users, items):
        with pytest.raises(ValueError, match="must fit in int64"):
            RegimeConfig("U", users, items)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RegimeConfig("U", seed=-1)

    def test_rejects_sizes_beyond_memory_before_allocating(self, monkeypatch):
        # 27 bytes per cell: three float64 and three bool n x m grids
        monkeypatch.setattr(core, "_memory_budget", lambda: 27 * 400 * 300)
        RegimeConfig("U", 400, 300)
        with pytest.raises(FairrecError, match="^400 x 303 generated data needs at least "):
            RegimeConfig("U", 400, 303)

    def test_host_without_a_memory_size_is_not_checked(self, monkeypatch):
        monkeypatch.setattr(core, "_memory_budget", lambda: None)
        RegimeConfig("U", 4 * 10**9, 3 * 10**9)

    @pytest.mark.parametrize("users, items", [(400, 300), (3000, 1005), (6040, 3705)])
    def test_realistic_sizes_fit(self, users, items):
        # 27 bytes per cell at ML-1M's 6040 x 3705 is 0.6 GB
        RegimeConfig("P+O", users, items)


class TestUserGroups:
    def test_uniform_quarters(self):
        labels, protected = user_labels("U", 40, seed=0)
        counts = {g: labels.count(g) for g in USER_FINE_GROUPS}
        assert counts == {"W": 10, "WS": 10, "MS": 10, "M": 10}
        assert protected.sum() == 20

    def test_biased_shares(self):
        labels, protected = user_labels("P+O", 40, seed=0)
        counts = {g: labels.count(g) for g in USER_FINE_GROUPS}
        assert counts == {"W": 16, "WS": 4, "MS": 16, "M": 4}
        # the protected side stays half the population in every regime
        assert protected.sum() == 20

    def test_protected_matches_labels(self):
        labels, protected = user_labels("P", 20, seed=3)
        for lab, flag in zip(labels, protected):
            assert flag == (lab in ("W", "WS"))

    def test_indivisible_counts_rejected(self):
        with pytest.raises(FairrecError, match="41 users cannot be split"):
            RegimeConfig("U", 41)
        with pytest.raises(FairrecError, match="44 users cannot be split"):
            RegimeConfig("P", 44)

    def test_seed_shuffles_deterministically(self):
        a, _ = user_labels("U", 40, seed=5)
        b, _ = user_labels("U", 40, seed=5)
        c, _ = user_labels("U", 40, seed=6)
        assert a == b
        assert a != c


class TestItemGroups:
    def test_exact_thirds(self):
        data, _ = generate(RegimeConfig("U", 40, 30, seed=0))
        labels = data.item_group
        assert {g: labels.count(g) for g in ITEM_GROUPS} \
            == {"Fem": 10, "STEM": 10, "Masc": 10}

    def test_indivisible_rejected(self):
        with pytest.raises(FairrecError, match="31 items cannot be split into exact thirds"):
            RegimeConfig("U", 40, 31)


class TestGenerate:
    def test_dataset_is_valid_and_binary(self):
        data, expected = generate(RegimeConfig("P+O", 40, 30, seed=1))
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
        data, expected = generate(RegimeConfig("U", 40, 30, seed=2))
        for u in (0, 7, 39):
            g = USER_FINE_GROUPS.index(data.user_group_fine[u])
            for i in (0, 13, 29):
                h = ITEM_GROUPS.index(data.item_group[i])
                assert expected[u, i] == L[g, h]

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

    def test_expected_of_another_shape_rejected(self):
        # the transpose has as many entries, so only its shape tells it apart
        data, expected = generate(RegimeConfig("U", 8, 6, seed=3))
        with pytest.raises(ValueError, match=r"expected must be \(8, 6\), got \(6, 8\)"):
            expected_value_eval(data, expected.T)


class TestSidecar:
    def test_contents(self, tmp_path):
        path = tmp_path / "blocks.txt"
        write_sidecar(path, "P+O")
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
        write_sidecar(path, regime)
        assert path.read_text().startswith(f"regime {regime}\n")


# SHA-256 of `synth-gen --regime R --users 40 --items 30 --seed 3`: the
# dataset bytes followed by the sidecar bytes, and the expected-rating matrix
# generate() returns for the same config. Any change to the sampling, the
# block models or the file formats shows up here.
PINNED = {
    "U": ("f5f9cf61693da6cd", "8741fad2c449f953"),
    "O": ("7f06019d0a98f302", "8741fad2c449f953"),
    "P": ("22bb1406a4c6327d", "9f00bc4b37212657"),
    "P+O": ("4eacf5a18d0f1395", "9f00bc4b37212657"),
}


@pytest.mark.parametrize("regime", REGIMES)
def test_output_is_pinned(tmp_path, regime):
    out = tmp_path / "d.txt"
    assert main(["synth-gen", "--regime", regime, "--users", "40", "--items", "30",
                 "--seed", "3", "--out", str(out)]) == 0
    files = out.read_bytes() + (tmp_path / "d.txt.blocks").read_bytes()
    _, expected = generate(RegimeConfig(regime, 40, 30, seed=3))
    assert (hashlib.sha256(files).hexdigest()[:16],
            hashlib.sha256(expected.tobytes()).hexdigest()[:16]) == PINNED[regime]


# SHA-256 of the user_idx, item_idx and values arrays of expected_value_eval
# on generate()'s output for 40 x 30 at seed 3. U and P observe the same pairs,
# since both use O_UNIFORM and the same seeds.
PINNED_EVAL = {
    "U": ("dfe9dfb629b71602", "c2ac9cd543d1cff7", "95baf72e12827d5f"),
    "O": ("4fa6f9924d4b7ba0", "639c87f718188728", "eb786284ef058657"),
    "P": ("dfe9dfb629b71602", "c2ac9cd543d1cff7", "aa908eb041680582"),
    "P+O": ("a9deee9a938a2a9e", "8ff5d73fdf79fb98", "741b2bae5bed9d58"),
}


@pytest.mark.parametrize("regime", REGIMES)
def test_eval_set_is_pinned(regime):
    ev = expected_value_eval(*generate(RegimeConfig(regime, 40, 30, seed=3)))
    assert tuple(hashlib.sha256(column.tobytes()).hexdigest()[:16]
                 for column in (ev.user_idx, ev.item_idx, ev.values)) == PINNED_EVAL[regime]
