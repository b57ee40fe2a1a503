import numpy as np
import pytest
from scipy import stats

from modens import (GeneratorConfig, TrainConfig, binarize_treatment, fit_propensity,
                    generate_dataset, generate_panel, predict_propensity_batch,
                    random_projection, rank_normalize, synthetic_features,
                    write_benchmark)
from modens.benchgen import outcome_link_matrix
from modens.mlp import Head


def small_config(**kw):
    base = dict(seed=3, n_train=256, n_valid=64, n_test=64)
    base.update(kw)
    return GeneratorConfig(**base)


class TestRankNormalize:
    def test_sorted_triple(self):
        assert np.allclose(rank_normalize([10.0, 20.0, 30.0]), [0, 1 / 3, 2 / 3])

    def test_singleton(self):
        assert np.allclose(rank_normalize([5.0]), [0.0])

    def test_unsorted_triple(self):
        assert np.allclose(rank_normalize([3.0, 1.0, 2.0]), [2 / 3, 0.0, 1 / 3])

    def test_ties_broken_by_index(self):
        out = rank_normalize([1.0, 1.0, 0.0])
        assert np.allclose(out, [1 / 3, 2 / 3, 0.0])

    def test_marginal_is_exact_grid(self, rng):
        n = 100
        out = rank_normalize(rng.normal(0, 1, n))
        assert np.allclose(np.sort(out), np.arange(n) / n)


class TestBinarizeTreatment:
    def test_rank_normalized_300_gives_exactly_100_treated(self, rng):
        col = rank_normalize(rng.normal(0, 1, 300))
        t = binarize_treatment(col, 2 / 3)
        assert t.sum() == 100

    def test_threshold_near_one(self):
        assert binarize_treatment(np.array([0.2, 0.8, 0.999]), 0.9999).sum() == 0

    def test_boundary_inclusive(self):
        assert np.array_equal(binarize_treatment(np.array([0.5, 0.7]), 2 / 3), [0, 1])


class TestQuadraticOutcome:
    def test_boosted_treatment_diagonal(self):
        cfg = small_config(n_visible=3, n_hidden=2, treatment_boost=64.0)
        rng = np.random.default_rng(cfg.seed)
        M_ref = np.random.default_rng(cfg.seed).standard_normal((6, 6))
        M = outcome_link_matrix(cfg, rng)
        ti = cfg.treatment_index
        assert M[ti, ti] == pytest.approx(64.0 * M_ref[ti, ti])
        e_t = np.zeros(6)
        e_t[ti] = 1.0
        assert e_t @ M @ e_t == pytest.approx(M[ti, ti])


class TestRandomProjection:
    def test_single_feature_column_gives_scalar_multiples(self, rng):
        cfg = small_config(n_visible=2, n_hidden=2)
        col = rng.normal(0, 1, (50, 1))
        out = random_projection(col, cfg, np.random.default_rng(0))
        for j in range(out.shape[1]):
            ratio = out[:, j] / col[:, 0]
            assert np.allclose(ratio, ratio[0])

    def test_zero_features_give_zero_projection(self):
        cfg = small_config()
        out = random_projection(np.zeros((10, 4)), cfg, np.random.default_rng(0))
        assert np.all(out == 0.0)

    def test_fixed_seed_reproducible(self, rng):
        cfg = small_config()
        feats = rng.normal(0, 1, (30, 6))
        a = random_projection(feats, cfg, np.random.default_rng(7))
        b = random_projection(feats, cfg, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            random_projection(np.zeros((0, 3)), small_config(), np.random.default_rng(0))


class TestGeneratePanel:
    def test_noiseless_mode_y_equals_u(self):
        panel = generate_panel(None, small_config(noiseless=True))
        assert np.array_equal(panel.y, panel.u)
        assert np.array_equal(panel.y_potential, panel.u_potential)

    def test_observed_u_matches_assigned_arm(self):
        panel = generate_panel(None, small_config())
        arm = panel.u_potential[np.arange(panel.t.size), panel.t]
        assert np.array_equal(panel.u, arm)

    def test_intervened_treatment_entry_is_binary(self):
        # recompute u from scratch with the forced arm value
        cfg = small_config(n_visible=4, n_hidden=3)
        panel = generate_panel(None, cfg)
        rng = np.random.default_rng(cfg.seed)
        synthetic_features(cfg.n_total, rng=rng)
        rng.permutation(cfg.n_total)
        rng.standard_normal((128, cfg.n_projected))
        M = outcome_link_matrix(cfg, rng)
        i = 5
        for arm in (0, 1):
            V = np.concatenate([panel.visible[i], [float(arm)], panel.hidden[i]])
            assert V @ M @ V == pytest.approx(panel.u_potential[i, arm])

    def test_confounder_marginals_are_uniform_grid(self):
        cfg = small_config()
        panel = generate_panel(None, cfg)
        n = cfg.n_total
        grid = np.arange(n) / n
        for j in range(cfg.n_visible):
            assert np.allclose(np.sort(panel.visible[:, j]), grid)
        for j in range(cfg.n_hidden):
            assert np.allclose(np.sort(panel.hidden[:, j]), grid)

    def test_zero_hidden_flag(self):
        panel = generate_panel(None, small_config(zero_hidden=True))
        assert np.all(panel.hidden == 0.0)

    def test_treated_fraction_near_one_third(self):
        cfg = GeneratorConfig(seed=1, n_train=4096, n_valid=512, n_test=512)
        panel = generate_panel(None, cfg)
        assert abs(panel.t.mean() - 1 / 3) <= 0.02

    def test_requested_rows_exceed_available(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="rows"):
            generate_panel(np.zeros((10, 4)) + np.arange(40).reshape(10, 4), cfg)

    def test_potential_outcome_noise_is_fresh_per_arm(self):
        panel = generate_panel(None, small_config())
        # same arm, same u, but an independent noise draw
        arm_y = panel.y_potential[np.arange(panel.t.size), panel.t]
        assert not np.array_equal(arm_y, panel.y)


class TestGenerateDataset:
    def test_split_sizes_and_potential_columns(self):
        cfg = small_config()
        train, valid, test = generate_dataset(None, cfg)
        assert (train.n, valid.n, test.n) == (256, 64, 64)
        assert train.potential_outcomes is None
        assert valid.potential_outcomes is None
        assert test.potential_outcomes is not None
        assert test.potential_outcomes.shape == (64, 2)

    def test_hidden_block_withheld(self):
        cfg = small_config()
        train, _, _ = generate_dataset(None, cfg)
        assert train.d == cfg.n_visible

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = small_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_benchmark(None, cfg, a)
        write_benchmark(None, cfg, b)
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_potential_outcome_distribution_matches_observed(self):
        # y_potential[observed arm] and y share the same law; compare
        # distributionally (not pointwise) with a two-sample KS test
        cfg = GeneratorConfig(seed=5, n_train=3000, n_valid=100, n_test=100,
                              noise_family="gaussian")
        panel = generate_panel(None, cfg)
        arm_y = panel.y_potential[np.arange(panel.t.size), panel.t]
        stat = stats.ks_2samp(panel.y, arm_y)
        assert stat.pvalue > 0.01

    def test_confounding_is_real(self):
        # treated and control outcome distributions differ, and the visible
        # covariates predict treatment better than the base rate
        cfg = GeneratorConfig(seed=2, n_train=2048, n_valid=256, n_test=256,
                              noise_family="gaussian")
        train, valid, _ = generate_dataset(None, cfg)
        treated = train.outcomes[train.treatments == 1]
        control = train.outcomes[train.treatments == 0]
        assert stats.mannwhitneyu(treated, control).pvalue < 1e-4
        prop = fit_propensity(train, TrainConfig(hidden=(16,), epochs=200,
                                                 head=Head.GAUSSIAN), seed=0)
        e = np.clip(predict_propensity_batch(prop, valid.covariates), 1e-9, 1 - 1e-9)
        t = valid.treatments
        log_loss = -np.mean(t * np.log(e) + (1 - t) * np.log(1 - e))
        base = train.treatments.mean()
        base_loss = -np.mean(t * np.log(base) + (1 - t) * np.log(1 - base))
        assert log_loss < base_loss


class TestConfigValidation:
    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_visible=0)
        with pytest.raises(ValueError):
            GeneratorConfig(treatment_threshold=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(noise_family="levy")
