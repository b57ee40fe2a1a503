import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from modens import (Dataset, EnsembleModel, Head, ModelFileError, TrainConfig,
                    fit_propensity, load_model, load_propensity, predict_components_batch,
                    predict_propensity_batch, save_model, train_ensemble,
                    train_member)
from modens.mlp import _fold_affine, _sigmoid, init_params, nll, nll_and_grads


def zero_params(layer_sizes, head):
    rng = np.random.default_rng(0)
    p = init_params(layer_sizes, head, rng)
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    return p


def numeric_gradients(params, X, target, step=1e-5, **loss_kw):
    """Central finite differences over every parameter; `loss_kw` (counts,
    target_var) goes to `nll`."""
    gw = [np.zeros_like(w) for w in params.weights]
    gb = [np.zeros_like(b) for b in params.biases]
    for l, w in enumerate(params.weights):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + step
            up = nll(params, X, target, **loss_kw)
            w[idx] = orig - step
            dn = nll(params, X, target, **loss_kw)
            w[idx] = orig
            gw[l][idx] = (up - dn) / (2 * step)
    for l, b in enumerate(params.biases):
        for i in range(b.shape[0]):
            orig = b[i]
            b[i] = orig + step
            up = nll(params, X, target, **loss_kw)
            b[i] = orig - step
            dn = nll(params, X, target, **loss_kw)
            b[i] = orig
            gb[l][i] = (up - dn) / (2 * step)
    return gw, gb


def grad_relative_error(params, X, target):
    _, gw, gb = nll_and_grads(params, X, target)
    nw, nb = numeric_gradients(params, X, target)
    num = np.concatenate([a.ravel() for a in gw + gb])
    ref = np.concatenate([a.ravel() for a in nw + nb])
    denom = max(np.linalg.norm(ref), 1e-8)
    return float(np.linalg.norm(num - ref) / denom)


def small_data(rng, n=40, d=3):
    X = rng.normal(0, 1, (n, d))
    t = rng.integers(0, 2, n)
    y = X @ rng.normal(0, 1, d) + 0.5 * t + rng.normal(0, 0.3, n)
    return Dataset(covariates=X, treatments=t, outcomes=y)


def one(params):
    return EnsembleModel(members=(params,), seed=0)


class TestForward:
    def test_zero_gaussian_net_is_standard_normal(self):
        model = one(zero_params((4, 5, 2), Head.GAUSSIAN))
        locs, scales = predict_components_batch(model, np.zeros((1, 3)), [1])
        assert model.head is Head.GAUSSIAN
        assert locs[0, 0] == 0.0
        assert scales[0, 0] == 1.0

    def test_zero_cauchy_net(self):
        model = one(zero_params((3, 4, 2), Head.CAUCHY))
        locs, scales = predict_components_batch(model, np.ones((1, 2)), [0])
        assert model.head is Head.CAUCHY
        assert (locs[0, 0], scales[0, 0]) == (0.0, 1.0)

    def test_zero_propensity_net_is_half(self):
        p = zero_params((3, 4, 1), Head.PROPENSITY)
        assert predict_propensity_batch(p, np.zeros((1, 3)))[0] == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        model = one(zero_params((4, 5, 2), Head.GAUSSIAN))
        with pytest.raises(ValueError, match="expects 3 covariate columns, got 5"):
            predict_components_batch(model, np.zeros((1, 5)), [1])
        with pytest.raises(ValueError, match="expects 3 covariate columns, got 4"):
            predict_components_batch(model, np.zeros((1, 4)), [1])  # treatment as a column
        prop = zero_params((3, 4, 1), Head.PROPENSITY)
        with pytest.raises(ValueError, match="expects 3 covariate columns, got 2"):
            predict_propensity_batch(prop, np.zeros((6, 2)))
        with pytest.raises(ValueError, match="expects 3 covariate columns"):
            predict_propensity_batch(prop, np.zeros(3))  # one row, not a batch


class TestSigmoid:
    def test_matches_exp_form_without_overflow(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 20001), [0.0, -0.0]])
        ref = np.empty_like(z)
        pos = z >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _sigmoid(z)
            aliased = z.copy()
            returned = _sigmoid(aliased, out=aliased)
        assert np.abs(got - ref).max() <= 1e-15
        assert ((got >= 0.0) & (got <= 1.0)).all()
        assert got[-2] == got[-1] == 0.5
        assert returned is aliased
        assert np.array_equal(aliased, got)


class TestGradients:
    @pytest.mark.parametrize("head", [Head.GAUSSIAN, Head.CAUCHY, Head.PROPENSITY])
    def test_backprop_matches_central_differences(self, head, rng):
        for trial in range(6):
            n, d_in = 7, 4
            sizes = (d_in, 5, 3, head.out_dim)
            p = init_params(sizes, head, np.random.default_rng(100 + trial))
            X = rng.normal(0, 1, (n, d_in))
            if head is Head.PROPENSITY:
                target = rng.integers(0, 2, n).astype(float)
            else:
                target = rng.normal(0, 2, n)
            assert grad_relative_error(p, X, target) <= 1e-4


def weighted_case(head, rng, n=9, rank_var=False):
    """Unique rows with counts 1..4 and the same rows replicated; with
    `rank_var`, each copy gets its own target, as warm-up ranks do."""
    X = rng.normal(0, 1, (n, 4))
    counts = rng.integers(1, 5, n)
    if head is Head.PROPENSITY:
        target = rng.integers(0, 2, n).astype(float)
    else:
        target = rng.normal(0, 2, n)
    X_rep = np.repeat(X, counts, axis=0)
    target_rep = np.repeat(target, counts)
    kw = {"counts": counts}
    if rank_var:
        target_rep = target_rep + rng.normal(0, 0.5, target_rep.shape[0])
        owner = np.repeat(np.arange(n), counts)
        target = np.bincount(owner, weights=target_rep) / counts
        dev = target_rep - target[owner]
        kw["target_var"] = np.bincount(owner, weights=dev * dev) / counts
    return X, target, kw, X_rep, target_rep


class TestWeightedKernels:
    """Counts (and the Gaussian rank-variance term) stand for replicated
    rows; c08's weighted sibling checks these gradients by finite
    differences."""

    @pytest.mark.parametrize("head,rank_var", [
        (Head.GAUSSIAN, False), (Head.CAUCHY, False), (Head.PROPENSITY, False),
        (Head.GAUSSIAN, True)], ids=["gaussian", "cauchy", "propensity", "gaussian-rank-var"])
    def test_counts_equal_repeated_rows(self, head, rank_var, rng):
        for trial in range(5):
            p = init_params((4, 6, 5, head.out_dim), head, np.random.default_rng(trial))
            X, target, kw, X_rep, target_rep = weighted_case(head, rng, rank_var=rank_var)
            loss, gw, gb = nll_and_grads(p, X, target, **kw)
            ref_loss, ref_gw, ref_gb = nll_and_grads(p, X_rep, target_rep)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert nll(p, X, target, **kw) == loss
            for g, ref in zip(gw + gb, ref_gw + ref_gb):
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_rank_variance_needs_gaussian_head(self, rng):
        p = init_params((4, 3, 2), Head.CAUCHY, rng)
        X, target, kw, _, _ = weighted_case(Head.GAUSSIAN, rng, rank_var=True)
        with pytest.raises(ValueError, match="Gaussian"):
            nll_and_grads(p, X, target, **kw)


def heavy_tailed_data(rng, n, rounded=False):
    X = rng.normal(0, 1, (n, 3))
    t = rng.integers(0, 2, n)
    y = X @ rng.normal(0, 1, 3) + 0.5 * t + rng.standard_cauchy(n)
    if rounded:   # distinct rows tie, so their ranks interleave
        y = np.round(y)
    return Dataset(covariates=X, treatments=t, outcomes=y)


class TestMemberExactness:
    """`train_member` on unique rows with counts trains the same weights as
    a plain bootstrap on the n replicated rows."""

    @pytest.mark.parametrize("case", [
        "gaussian-standardized", "cauchy", "cauchy-tied-outcomes", "two-rows-one-drawn"])
    def test_matches_replicated_reference(self, case):
        rng = np.random.default_rng(31)
        data = heavy_tailed_data(rng, 2 if case == "two-rows-one-drawn" else 120,
                                 rounded=case == "cauchy-tied-outcomes")
        config = {
            "gaussian-standardized": TrainConfig(hidden=(6, 5), epochs=40, head=Head.GAUSSIAN),
            "cauchy": TrainConfig(hidden=(6, 5), epochs=40, head=Head.CAUCHY,
                                  warmup_epochs=20),
            "cauchy-tied-outcomes": TrainConfig(hidden=(6,), epochs=40, head=Head.CAUCHY,
                                                warmup_epochs=20),
            "two-rows-one-drawn": TrainConfig(hidden=(4,), epochs=30, head=Head.CAUCHY),
        }[case]
        seeds = [1, 2, 3]
        if case == "two-rows-one-drawn":
            # seeds whose bootstrap draws the same row twice
            seeds = [s for s in range(20)
                     if np.unique(np.random.default_rng(s).integers(0, 2, 2)).size == 1][:3]
            assert len(seeds) == 3
        if case == "cauchy-tied-outcomes":
            assert np.unique(data.outcomes).size < data.n // 4
        for seed in seeds:
            got = train_member(data, config, seed)
            ref = oracles.replicated_train_member(data, config, seed)
            assert got.head is ref.head is config.head
            for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
                assert np.abs(a - b).max() <= 1e-9


class TestTrainMember:
    def test_constant_outcome_recovers_location(self, rng):
        c = 3.7
        n = 60
        data = Dataset(covariates=rng.normal(0, 1, (n, 2)),
                       treatments=rng.integers(0, 2, n),
                       outcomes=np.full(n, c))
        cfg = TrainConfig(hidden=(8,), epochs=400, head=Head.GAUSSIAN)
        p = train_member(data, cfg, seed=5)
        locs, scales = predict_components_batch(one(p), data.covariates[:10],
                                                data.treatments[:10])
        for loc, scale in zip(locs[:, 0], scales[:, 0]):
            assert abs(loc - c) <= abs(c) * 0.01 + 0.01
            assert scale > 0

    def test_separable_propensity_reaches_auc_one(self):
        # logistic MLE on 20 linearly separable points orders them perfectly
        x = np.linspace(-1, 1, 20).reshape(-1, 1)
        t = (x[:, 0] > 0).astype(int)
        data = Dataset(covariates=x, treatments=t, outcomes=np.zeros(20))
        cfg = TrainConfig(hidden=(4,), epochs=600, head=Head.GAUSSIAN)
        p = fit_propensity(data, cfg, seed=1)
        preds = predict_propensity_batch(p, x)
        assert preds[t == 1].min() > preds[t == 0].max()  # AUC = 1.0

    def test_different_seeds_differ(self, rng):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(6,), epochs=50, head=Head.GAUSSIAN)
        p1 = train_member(data, cfg, seed=1)
        p2 = train_member(data, cfg, seed=2)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(p1.weights, p2.weights))

    def test_final_nll_not_worse_than_initial(self, rng):
        data = small_data(rng, n=50)
        cfg = TrainConfig(hidden=(6,), epochs=30, head=Head.GAUSSIAN)
        p = train_member(data, cfg, seed=9)
        rng_replay = np.random.default_rng(9)
        idx = rng_replay.integers(0, data.n, size=data.n)  # the bootstrap draw
        init = init_params((4, 6, 2), Head.GAUSSIAN, rng_replay)
        # in outcome units, as train_member folds its standardized fit
        _fold_affine(init, max(float(np.std(data.outcomes)), 1e-12),
                     float(np.mean(data.outcomes)))
        X = np.column_stack([data.covariates, data.treatments.astype(float)])[idx]
        y = data.outcomes[idx]
        assert nll(p, X, y) <= nll(init, X, y) + 1e-12

    def test_cauchy_member_trains_on_heavy_tails(self, rng):
        n = 300
        X = rng.normal(0, 1, (n, 2))
        t = rng.integers(0, 2, n)
        u = 3.0 * X[:, 0] + 2.0 * t
        y = u + rng.standard_cauchy(n)
        data = Dataset(covariates=X, treatments=t, outcomes=y)
        cfg = TrainConfig(hidden=(8,), epochs=250, head=Head.CAUCHY, warmup_epochs=150)
        p = train_member(data, cfg, seed=2)
        assert p.head is Head.CAUCHY
        locs = predict_components_batch(one(p), X, t)[0][:, 0]
        assert np.median(np.abs(locs - u)) < np.median(np.abs(np.median(y) - u))


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kw, message", [
        ({"hidden": (3.7,)}, "hidden widths"), ({"hidden": (4, True)}, "hidden widths"),
        ({"hidden": (np.int64(4),)}, "hidden widths"), ({"hidden": (0,)}, "hidden widths"),
        ({"epochs": True}, "epochs"), ({"epochs": 2.5}, "epochs"), ({"epochs": 2.0}, "epochs"),
        ({"epochs": 0}, "epochs")],
        ids=["hidden-float", "hidden-bool", "hidden-numpy", "hidden-0", "epochs-bool",
             "epochs-float", "epochs-whole-float", "epochs-0"])
    def test_widths_and_epochs_are_integers_at_least_one(self, kw, message):
        # a float width would train its floor, a bool its int
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kw)

    @pytest.mark.parametrize("m", [True, 2.0, 0, np.int64(2)],
                             ids=lambda m: f"{type(m).__name__}-{m}")
    def test_member_count_is_an_integer_at_least_one(self, rng, m):
        with pytest.raises(ValueError, match=re.escape(f"members must be an integer >= 1, "
                                                       f"got {m!r}")):
            train_ensemble(small_data(rng), TrainConfig(hidden=(2,), epochs=1), 1, m=m)


class TestTrainEnsemble:
    def test_singleton_matches_member_seed_plus_one(self, rng):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=40, head=Head.GAUSSIAN)
        model = train_ensemble(data, cfg, seed=10, m=1)
        member = train_member(data, cfg, seed=11)
        for a, b in zip(model.members[0].weights, member.weights):
            assert np.array_equal(a, b)

    def test_deterministic_given_seed(self, rng, tmp_path):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=40, head=Head.GAUSSIAN)
        m1 = train_ensemble(data, cfg, seed=4, m=3)
        m2 = train_ensemble(data, cfg, seed=4, m=3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_emitted_scales_positive(self, rng):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=60, head=Head.GAUSSIAN)
        model = train_ensemble(data, cfg, seed=4, m=3)
        _, scales = predict_components_batch(model, data.covariates, data.treatments)
        assert (scales >= 1e-6).all()

    def test_sixteen_members_beat_untrained_init_held_out(self):
        from modens import GeneratorConfig, generate_dataset

        gen = GeneratorConfig(seed=13, n_train=256, n_valid=128, n_test=32,
                              noise_family="gaussian", noise_scale=4.0)
        train, valid, _ = generate_dataset(None, gen)
        cfg = TrainConfig(hidden=(8,), epochs=120, head=Head.GAUSSIAN)
        seed = 30
        model = train_ensemble(train, cfg, seed=seed, m=16)
        X_val = np.column_stack([valid.covariates, valid.treatments.astype(float)])
        better = 0
        for j, member in enumerate(model.members, start=1):
            replay = np.random.default_rng(seed + j)
            replay.integers(0, train.n, size=train.n)  # the bootstrap draw
            init = init_params(member.layer_sizes, Head.GAUSSIAN, replay)
            _fold_affine(init, max(float(np.std(train.outcomes)), 1e-12),
                         float(np.mean(train.outcomes)))
            if nll(member, X_val, valid.outcomes) < nll(init, X_val, valid.outcomes):
                better += 1
        assert better >= 15


class TestInPlaceKernels:
    """The forward and backward passes overwrite their own temporaries in
    place; the caller's arrays and the parameters must come out unchanged."""

    @pytest.mark.parametrize("head", [Head.GAUSSIAN, Head.CAUCHY, Head.PROPENSITY])
    def test_inputs_left_unchanged(self, head, rng):
        p = init_params((4, 6, 5, head.out_dim), head, rng)
        X = rng.normal(0, 1, (30, 4))
        if head is Head.PROPENSITY:
            target = rng.integers(0, 2, 30).astype(float)
        else:
            target = rng.normal(0, 2, 30)
        X0, target0, p0 = X.copy(), target.copy(), p.copy()
        nll_and_grads(p, X, target)
        nll(p, X, target)
        if head is Head.PROPENSITY:
            predict_propensity_batch(p, X)
        else:
            predict_components_batch(EnsembleModel(members=(p,), seed=0), X[:, :3], X[:, 3] > 0)
        assert np.array_equal(X, X0) and np.array_equal(target, target0)
        for a, b in zip(p.weights + p.biases, p0.weights + p0.biases):
            assert np.array_equal(a, b)

    def test_ensemble_members_equal_train_member(self, rng):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5, 4), epochs=12, head=Head.CAUCHY, warmup_epochs=6)
        first = train_ensemble(data, cfg, seed=7, m=3)
        again = train_ensemble(data, cfg, seed=7, m=3)
        for j in range(1, 4):
            ref = train_member(data, cfg, seed=7 + j)
            for member in (first.members[j - 1], again.members[j - 1]):
                for a, b in zip(member.weights + member.biases, ref.weights + ref.biases):
                    assert np.array_equal(a, b)


def traced_peak(fn):
    """Peak bytes that `fn()` allocates above what is alive when it starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Backprop frees each activation once it is used, so at most two
    activations and two deltas of a member are alive at once, with the same
    gradient bits as backprop that keeps them all."""

    @pytest.mark.parametrize("head,weighted,rank_var", [
        (Head.GAUSSIAN, False, False), (Head.GAUSSIAN, True, False),
        (Head.GAUSSIAN, False, True), (Head.GAUSSIAN, True, True),
        (Head.CAUCHY, False, False), (Head.CAUCHY, True, False),
        (Head.PROPENSITY, False, False), (Head.PROPENSITY, True, False)])
    def test_gradients_match_reference_bit_for_bit(self, head, weighted, rank_var, rng):
        for trial in range(4):
            n = 50
            p = init_params((4, 7, 6, 5, head.out_dim), head, np.random.default_rng(trial))
            X = rng.normal(0, 1, (n, 4))
            if head is Head.PROPENSITY:
                target = rng.integers(0, 2, n).astype(float)
            else:
                target = rng.normal(0, 2, n)
            kw = {}
            if weighted:
                kw["counts"] = rng.integers(1, 5, n)
            if rank_var:
                kw["target_var"] = rng.uniform(0.0, 0.3, n)
            loss, gw, gb = nll_and_grads(p, X, target, **kw)
            ref_loss, ref_gw, ref_gb = oracles.reference_nll_and_grads(p, X, target, **kw)
            assert loss == ref_loss
            for g, ref in zip(gw + gb, ref_gw + ref_gb):
                assert g.shape == ref.shape and np.array_equal(g, ref)

    def test_nll_and_grads_peak(self, rng):
        # the forward pass holds two (n, 64) activations; backprop at most
        # two activations and two deltas, the last layer's delta (n, 2)
        n, h = 4096, 64
        p = init_params((8, h, h, 2), Head.CAUCHY, rng)
        X = rng.normal(0, 1, (n, 8))
        target = rng.standard_cauchy(n)
        nll_and_grads(p, X, target)   # import-time allocations out of the count
        peak = traced_peak(lambda: nll_and_grads(p, X, target))
        assert peak <= 3 * n * h * 8 + 16 * n * 8

    def test_cauchy_member_peak(self, rng):
        # the design rows, three (rows, 64) arrays, Adam's parameter-sized
        # state and a few (rows,) vectors; no activation outlives its pass,
        # and the bootstrap's O(n) bookkeeping is gone before the first fit
        n, d, h = 4096, 8, 64
        X = rng.normal(0, 1, (n, d))
        data = Dataset(covariates=X, treatments=rng.integers(0, 2, n),
                       outcomes=X[:, 0] + rng.standard_cauchy(n))
        cfg = TrainConfig(hidden=(h, h), epochs=2, warmup_epochs=2, head=Head.CAUCHY)
        train_member(data, cfg, seed=1)
        rows = np.unique(np.random.default_rng(2).integers(0, n, n)).size
        peak = traced_peak(lambda: train_member(data, cfg, seed=2))
        assert peak <= rows * (d + 1) * 8 + 3 * rows * h * 8 + 16 * n * 8


class TestPredict:
    def test_member_order_preserved_under_permutation(self, rng):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=30, head=Head.GAUSSIAN)
        model = train_ensemble(data, cfg, seed=2, m=4)
        perm = [2, 0, 3, 1]
        permuted = EnsembleModel(members=tuple(model.members[i] for i in perm),
                                 seed=model.seed)
        x = data.covariates[1:2]
        a, _ = predict_components_batch(model, x, [0])
        b, _ = predict_components_batch(permuted, x, [0])
        for i, j in enumerate(perm):
            assert a[0, j] == b[0, i]

    def test_propensity_complement(self, rng):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(4,), epochs=40, head=Head.GAUSSIAN)
        p = fit_propensity(data, cfg, seed=3)
        e1 = float(predict_propensity_batch(p, data.covariates[:1])[0])
        assert 0.0 < e1 < 1.0
        # e0 is defined as the exact complement
        assert (1.0 - e1) + e1 == 1.0

    def test_coin_flip_treatments_give_half(self, rng):
        n = 400
        X = rng.normal(0, 1, (n, 3))
        t = rng.integers(0, 2, n)  # independent of X
        data = Dataset(covariates=X, treatments=t, outcomes=np.zeros(n))
        cfg = TrainConfig(hidden=(4,), epochs=150, head=Head.GAUSSIAN)
        p = fit_propensity(data, cfg, seed=8)
        preds = predict_propensity_batch(p, rng.normal(0, 1, (200, 3)))
        assert abs(preds.mean() - 0.5) <= 0.05


class TestSerialization:
    def test_round_trip_structural_equality(self, rng, tmp_path):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=30, head=Head.CAUCHY, warmup_epochs=20)
        model = train_ensemble(data, cfg, seed=6, m=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.head is model.head
        assert loaded.seed == model.seed
        assert loaded.m == model.m
        for a, b in zip(model.members, loaded.members):
            assert a.layer_sizes == b.layer_sizes
            for wa, wb in zip(a.weights, b.weights):
                assert np.array_equal(wa, wb)

    def test_loaded_predictions_bit_identical(self, rng, tmp_path):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=30, head=Head.GAUSSIAN)
        model = train_ensemble(data, cfg, seed=6, m=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = data.covariates[3:4]
        for a, b in zip(predict_components_batch(model, x, [1]),
                        predict_components_batch(loaded, x, [1])):
            assert np.array_equal(a, b)

    def test_truncated_file_is_parse_error(self, rng, tmp_path):
        data = small_data(rng)
        cfg = TrainConfig(hidden=(5,), epochs=20, head=Head.GAUSSIAN)
        model = train_ensemble(data, cfg, seed=6, m=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError, match="line"):
            load_model(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ModelFileError, match="schema_version"):
            load_model(path)

    @pytest.mark.parametrize("members, message", [
        ([], "ensemble needs at least one member"),
        (7, "'int' object is not iterable")], ids=["empty", "not-a-list"])
    def test_bad_members_name_the_file(self, tmp_path, members, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema_version": 1, "head": "gaussian",
                                    "layer_sizes": [3, 2], "seed": 0, "members": members}))
        with pytest.raises(ModelFileError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_propensity_file_with_two_members_names_the_file(self, tmp_path):
        p = zero_params((3, 2, 1), Head.PROPENSITY)
        path = tmp_path / "prop.json"
        save_model(EnsembleModel(members=(p, p), seed=1), path)
        with pytest.raises(ModelFileError) as exc:
            load_propensity(path)
        assert str(exc.value) == f"{path}: a propensity model has one member, got 2"


class TestBootstrap:
    def test_row_inclusion_frequency(self):
        # P(row in resample) = 1 - (1 - 1/n)^n; check within 3 SEs
        n, reps = 64, 400
        expected = 1.0 - (1.0 - 1.0 / n) ** n
        hits = np.zeros(n)
        for s in range(reps):
            rng = np.random.default_rng(s)
            idx = rng.integers(0, n, size=n)
            hits[np.unique(idx)] += 1
        freq = hits.mean() / reps
        se = math.sqrt(expected * (1 - expected) / (n * reps))
        assert abs(freq - expected) <= 3 * se
