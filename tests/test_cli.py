import json
import numpy as np
import pytest

from modens import GeneratorConfig, cli, load_dataset_csv, write_benchmark
from modens.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = GeneratorConfig(seed=11, n_train=160, n_valid=40, n_test=60,
                          noise_family="gaussian", noise_scale=4.0)
    write_benchmark(None, cfg, out)
    return out


@pytest.fixture(scope="module")
def trained_model(bench_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = run(["train", "--seed", 5, "--data", bench_dir / "train.csv",
                "--head", "gaussian", "--members", 2, "--hidden", "6",
                "--epochs", 40, "--out", out])
    assert code == 0
    return out


class TestGenerate:
    def test_default_like_generation(self, tmp_path):
        cfg = {"generator": {"n_train": 50, "n_valid": 10, "n_test": 10, "seed": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "data"
        assert run(["generate", "--config", cfg_path, "--out-dir", out]) == 0
        train = load_dataset_csv(out / "train.csv")
        assert train.n == 50
        test = load_dataset_csv(out / "test.csv")
        assert test.potential_outcomes is not None
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_hash" in manifest
        assert manifest["files"]["train"] == "train.csv"

    def test_repeat_invocation_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_train": 40, "n_valid": 8, "n_test": 8}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--seed", 4, "--config", cfg_path, "--out-dir", a]) == 0
        assert run(["generate", "--seed", 4, "--config", cfg_path, "--out-dir", b]) == 0
        for name in ("train.csv", "valid.csv", "test.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unusable_out_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = run(["generate", "--out-dir", blocker / "sub"])
        assert code == 2

    @pytest.mark.parametrize("field", [
        {"not_a_field": 1}, {"zero_hidden": "false"}, {"noiseless": 1},
        {"n_train": 40.5}, {"seed": 2.5}, {"n_test": True}, {"noise_scale": float("nan")},
        {"treatment_boost": float("inf")}, {"noise_scale": True}, {"noise_family": 0}],
        ids=lambda field: "-".join(f"{k}={v!r}" for k, v in field.items()))
    def test_bad_config_field_exits_2(self, tmp_path, field, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(field))
        assert run(["generate", "--config", cfg_path, "--out-dir", tmp_path / "o"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_object_generator_section_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"generator": 5}))
        assert run(["generate", "--seed", 1, "--config", cfg_path,
                    "--out-dir", tmp_path / "o"]) == 2
        assert "'generator' must be an object" in capsys.readouterr().err

    SIZES = {"n_train": 50, "n_valid": 10, "n_test": 10}

    def features_csv(self, tmp_path, rows):
        matrix = np.random.default_rng(2).normal(size=(rows, 5))
        path = tmp_path / "features.csv"
        # columns named t and y are features like any other
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header="a,t,y,b,c", comments="")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SIZES))
        return matrix, path, cfg

    def test_features_csv_matches_write_benchmark(self, tmp_path):
        matrix, features, cfg = self.features_csv(tmp_path, 90)
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert run(["generate", "--seed", 3, "--config", cfg, "--features", features,
                    "--out-dir", out]) == 0
        write_benchmark(matrix, GeneratorConfig(seed=3, **self.SIZES), ref)
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_features_manifest_replay_is_byte_identical(self, tmp_path):
        _, features, cfg = self.features_csv(tmp_path, 90)
        first, replay = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--seed", 3, "--config", cfg, "--features", features,
                    "--out-dir", first]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"]["features"] == str(features)
        assert run(["generate", "--config", first / "manifest.json", "--out-dir", replay]) == 0
        for name in ("train.csv", "valid.csv", "test.csv", "manifest.json"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_features_with_too_few_rows_exit_1(self, tmp_path, capsys):
        _, features, cfg = self.features_csv(tmp_path, 69)   # 70 rows requested
        assert run(["generate", "--config", cfg, "--features", features,
                    "--out-dir", tmp_path / "out"]) == 1
        assert "features provide only 69" in capsys.readouterr().err

    def generate_from(self, tmp_path, text):
        features = tmp_path / "features.csv"
        features.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 2, "n_valid": 1, "n_test": 1}))
        return run(["generate", "--config", cfg, "--features", features,
                    "--out-dir", tmp_path / "out"])

    def test_feature_comment_is_not_stripped(self, tmp_path, capsys, recwarn):
        code = self.generate_from(tmp_path, "a,b\n1,2 # c\n3,4\n5,6\n7,8\n")
        err = capsys.readouterr().err
        assert code == 1
        assert "could not convert string '2 # c'" in err and len(err.splitlines()) == 1
        assert not recwarn.list

    def test_header_only_features_exit_1_without_warning(self, tmp_path, capsys, recwarn):
        assert self.generate_from(tmp_path, "a,b\n") == 1
        assert capsys.readouterr().err == "modens: requested 4 rows but features provide only 0\n"
        assert not recwarn.list

    def test_non_finite_feature_names_its_row(self, tmp_path, capsys, recwarn):
        # the header is row 1 and the blank line counts, as in dataset files
        code = self.generate_from(tmp_path, "a,b\n1,2\n\n3,4\n5,nan\n7,8\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"modens: {tmp_path / 'features.csv'}: row 5: "
                       "feature 'b' must be finite, got 'nan'\n")
        assert not recwarn.list

    @pytest.mark.slow
    def test_default_config_row_counts(self, tmp_path):
        out = tmp_path / "full"
        assert run(["generate", "--seed", 0, "--out-dir", out]) == 0
        counts = {name: sum(1 for _ in open(out / f"{name}.csv")) - 1
                  for name in ("train", "valid", "test")}
        assert counts == {"train": 8192, "valid": 2048, "test": 2048}


class TestParserDefaults:
    def test_train_members_default_is_16(self, bench_dir, tmp_path):
        out = tmp_path / "m.json"
        assert run(["train", "--data", bench_dir / "train.csv", "--hidden", 2,
                    "--epochs", 1, "--out", out]) == 0
        manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
        assert manifest["config"]["members"] == 16

    def test_flag_overrides_config_file(self, bench_dir, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"epochs": 10, "hidden": [4]}}))
        out = tmp_path / "m.json"
        assert run(["train", "--data", bench_dir / "train.csv", "--members", 1,
                    "--config", cfg, "--epochs", 5, "--out", out]) == 0
        manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 5     # flag wins
        assert manifest["config"]["hidden"] == [4]   # config file fills the rest


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [
        ["gamma-search", "--model", "{model}", "--test", "{data}/test.csv",
         "--target", "0.9", "--gamma-tol", "0", "--out", "{tmp}/r.json"],
        ["gamma-search", "--model", "{model}", "--test", "{data}/test.csv",
         "--target", "0.9", "--gamma-tol", "nan", "--out", "{tmp}/r.json"],
        ["train", "--data", "{data}/train.csv", "--members", "0",
         "--out", "{tmp}/m.json"],
        ["train", "--data", "{data}/train.csv", "--step", "nan",
         "--out", "{tmp}/m.json"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv",
         "--gammas", "1,nan", "--out-dir", "{tmp}/rep"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv",
         "--gammas", ",", "--out-dir", "{tmp}/rep"],
    ], ids=["gamma-tol-0", "gamma-tol-nan", "members-0", "step-nan", "gamma-nan",
            "gammas-empty"])
    def test_config_error_exits_2(self, bench_dir, trained_model, tmp_path, argv, capsys):
        paths = {"model": trained_model, "data": bench_dir, "tmp": tmp_path}
        assert run([a.format(**paths) for a in argv]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("train_cfg", [
        {"warmup_epochs": -3}, {"warmup_epochs": 0}, {"warmup_epochs": "5"},
        {"warmup_epochs": 2.5}, {"warmup_epochs": True}, {"standardize": "no"},
        {"standardize": 1}, {"epochs": 2.7}, {"epochs": True}, {"hidden": [3.9]},
        {"step": "0.01"},
    ], ids=["warmup-negative", "warmup-0", "warmup-str", "warmup-float", "warmup-bool",
            "standardize-str", "standardize-int", "epochs-float", "epochs-bool",
            "hidden-float", "step-str"])
    def test_train_config_file_error_exits_2(self, bench_dir, tmp_path, train_cfg, capsys):
        # hidden and epochs come from the file, so that a bad value there is read
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"hidden": [4], "epochs": 4, **train_cfg}}))
        assert run(["train", "--data", bench_dir / "train.csv", "--head", "cauchy",
                    "--members", 1, "--config", cfg, "--out", tmp_path / "m.json"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("train_cfg", [
        {"head": "propensity"}, {"head": "poisson"}, {"members": 0}, {"members": "2"},
        {"members": True}, {"seed": 1.5}, {"seed": "3"},
    ], ids=["head-propensity", "head-unknown", "members-0", "members-str", "members-bool",
            "seed-float", "seed-str"])
    def test_train_config_file_run_setting_error_exits_2(self, bench_dir, tmp_path,
                                                         train_cfg, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"hidden": [4], "epochs": 4, **train_cfg}}))
        assert run(["train", "--data", bench_dir / "train.csv", "--config", cfg,
                    "--out", tmp_path / "m.json"]) == 2
        assert "config error" in capsys.readouterr().err


class TestSubcommandConfigFiles:
    @pytest.mark.parametrize("argv", [
        ["intervals", "--model", "{model}", "--data", "{data}/valid.csv", "--gamma", "2",
         "--alpha", "0.2", "--out", "{tmp}/iv.csv"],
        ["gamma-search", "--model", "{model}", "--test", "{data}/test.csv",
         "--target", "0.8", "--out", "{tmp}/r.json"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv", "--gammas", "1",
         "--out-dir", "{tmp}/rep"],
        ["oracle-check", "--m", "2", "--trials", "1"],
    ], ids=["intervals", "gamma-search", "report", "oracle-check"])
    def test_missing_config_file_exits_2(self, bench_dir, trained_model, tmp_path, argv,
                                         capsys):
        paths = {"model": trained_model, "data": bench_dir, "tmp": tmp_path}
        argv = [a.format(**paths) for a in argv]
        assert run(argv + ["--config", "/nonexistent.json"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "iv.csv").exists()

    def test_malformed_config_file_exits_2(self, bench_dir, trained_model, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\"gamma\": 2,")
        assert run(["intervals", "--model", trained_model, "--data", bench_dir / "valid.csv",
                    "--alpha", 0.2, "--config", cfg, "--out", tmp_path / "iv.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [{"gamma": "2"}, {"gamma": True}, {"arm": 2},
                                         {"seed": 1.5}, {"alpha": None}],
                             ids=["gamma-str", "gamma-bool", "arm-2", "seed-float",
                                  "alpha-null"])
    def test_bad_intervals_setting_exits_2(self, bench_dir, trained_model, tmp_path,
                                           setting, capsys):
        cfg = tmp_path / "iv.json"
        cfg.write_text(json.dumps({"intervals": {"gamma": 2.0, "alpha": 0.2, **setting}}))
        assert run(["intervals", "--model", trained_model, "--data", bench_dir / "valid.csv",
                    "--config", cfg, "--out", tmp_path / "iv.csv"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_intervals_manifest_replay_and_flag_precedence(self, bench_dir, trained_model,
                                                           tmp_path):
        first, replay, flagged = (tmp_path / f"{n}.csv" for n in ("a", "b", "c"))
        assert run(["intervals", "--model", trained_model, "--data", bench_dir / "valid.csv",
                    "--gamma", 2, "--alpha", 0.2, "--arm", 1, "--out", first]) == 0
        manifest = first.with_suffix(".csv.manifest.json")
        assert run(["intervals", "--config", manifest, "--out", replay]) == 0
        assert replay.read_bytes() == first.read_bytes()
        assert run(["intervals", "--config", manifest, "--gamma", 1.5, "--out", flagged]) == 0
        resolved = json.loads(flagged.with_suffix(".csv.manifest.json").read_text())["config"]
        assert resolved["gamma"] == 1.5                           # flag wins
        assert (resolved["alpha"], resolved["arm"]) == (0.2, 1)   # the file fills the rest

    def test_propensity_model_replayed_from_manifest(self, bench_dir, trained_model,
                                                     tmp_path, capsys):
        # the propensity model sits under a name `train` would not give it
        # and the default one next to the model is another model, so a
        # replay that fell back to the default would write other intervals
        prop = tmp_path / "prop_other.json"
        prop.write_bytes(trained_model.with_suffix(".propensity.json").read_bytes())
        model = tmp_path / "m.json"
        model.write_bytes(trained_model.read_bytes())
        assert run(["train", "--data", bench_dir / "train.csv", "--members", 1,
                    "--hidden", "3", "--epochs", 2, "--seed", 9, "--out", tmp_path / "x.json",
                    "--propensity-out", tmp_path / "m.propensity.json"]) == 0
        first, replay = tmp_path / "iv.csv", tmp_path / "iv2.csv"
        assert run(["intervals", "--model", model, "--propensity-model", prop,
                    "--data", bench_dir / "valid.csv", "--gamma", 3, "--alpha", 0.2,
                    "--arm", 1, "--out", first]) == 0
        manifest = first.with_suffix(".csv.manifest.json")
        assert json.loads(manifest.read_text())["config"]["propensity_model"] == str(prop)
        assert run(["intervals", "--config", manifest, "--out", replay]) == 0
        assert replay.read_bytes() == first.read_bytes()
        fallback = tmp_path / "iv3.csv"
        assert run(["intervals", "--model", model, "--data", bench_dir / "valid.csv",
                    "--gamma", 3, "--alpha", 0.2, "--arm", 1, "--out", fallback]) == 0
        assert fallback.read_bytes() != first.read_bytes()
        for argv in (["gamma-search", "--model", model, "--propensity-model", prop,
                      "--test", bench_dir / "test.csv", "--target", 0.8,
                      "--out", tmp_path / "r.json"],
                     ["report", "--model", model, "--propensity-model", prop,
                      "--test", bench_dir / "test.csv", "--gammas", "1",
                      "--out-dir", tmp_path / "rep"]):
            assert run(argv) == 0
        for manifest in (tmp_path / "r.json.manifest.json",
                         tmp_path / "rep" / "report.manifest.json"):
            assert json.loads(manifest.read_text())["config"]["propensity_model"] == str(prop)

    def test_gamma_search_manifest_replay_writes_the_same_report(self, bench_dir,
                                                                 trained_model, tmp_path):
        first, replay = tmp_path / "a" / "r.json", tmp_path / "b" / "r.json"
        first.parent.mkdir()
        replay.parent.mkdir()
        assert run(["gamma-search", "--model", trained_model, "--test",
                    bench_dir / "test.csv", "--target", 0.8, "--alpha", 0.3, "--arm", 0,
                    "--cost", "mass", "--gamma-tol", 0.5, "--seed", 4, "--out", first]) == 0
        manifest = first.with_suffix(".json.manifest.json")
        assert run(["gamma-search", "--config", manifest, "--out", replay]) == 0
        a, b = (json.loads(p.read_text()) for p in (first, replay))
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b
        assert a["config"]["cost_kind"] == "mass" and a["seed"] == 4
        assert (replay.with_suffix(".points.csv").read_bytes()
                == first.with_suffix(".points.csv").read_bytes())
        assert (replay.with_suffix(".json.manifest.json").read_bytes()
                == manifest.read_bytes())

    def test_report_manifest_replay(self, bench_dir, trained_model, tmp_path):
        first, replay = tmp_path / "a", tmp_path / "b"
        assert run(["report", "--model", trained_model, "--test", bench_dir / "test.csv",
                    "--gammas", "1,3", "--alpha", 0.2, "--arm", 0, "--out-dir", first]) == 0
        assert run(["report", "--config", first / "report.manifest.json",
                    "--out-dir", replay]) == 0
        for name in ("coverage_curve.csv", "report.manifest.json"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_relative_cost_kind_exits_2(self, bench_dir, trained_model, tmp_path, capsys):
        cfg = tmp_path / "gs.json"
        cfg.write_text(json.dumps({"gamma-search": {"cost_kind": "relative"}}))
        assert run(["gamma-search", "--model", trained_model, "--test", bench_dir / "test.csv",
                    "--target", 0.8, "--config", cfg, "--out", tmp_path / "r.json"]) == 2
        assert "relative" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_oracle_check_reads_its_settings_from_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "oc.json"
        cfg.write_text(json.dumps({"oracle-check": {"m": 3, "trials": 2}}))
        assert run(["oracle-check", "--config", cfg]) == 0
        assert "m=3 trials=2" in capsys.readouterr().out


class TestTrain:
    def test_writes_model_and_propensity(self, trained_model):
        assert trained_model.exists()
        assert trained_model.with_suffix(".propensity.json").exists()
        doc = json.loads(trained_model.read_text())
        assert doc["head"] == "gaussian"
        assert len(doc["members"]) == 2
        assert trained_model.with_suffix(".json.manifest.json").exists()

    def test_members_one(self, bench_dir, tmp_path):
        out = tmp_path / "m1.json"
        assert run(["train", "--data", bench_dir / "train.csv", "--members", 1,
                    "--hidden", "4", "--epochs", 10, "--out", out]) == 0
        assert len(json.loads(out.read_text())["members"]) == 1

    def test_manifest_replay_is_byte_identical(self, bench_dir, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"warmup_epochs": 1}}))
        first, replay = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
        first.parent.mkdir()
        replay.parent.mkdir()
        common = ["train", "--data", bench_dir / "train.csv", "--head", "cauchy",
                  "--seed", 3, "--members", 2]
        assert run(common + ["--hidden", "4", "--epochs", 6, "--config", cfg,
                             "--out", first]) == 0
        manifest = first.with_suffix(".json.manifest.json")
        assert run(common + ["--config", manifest, "--out", replay]) == 0
        for name in ("m.json", "m.propensity.json", "m.json.manifest.json"):
            assert (replay.parent / name).read_bytes() == (first.parent / name).read_bytes()

    def test_cauchy_manifest_replay_without_flags_is_byte_identical(self, bench_dir,
                                                                    tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"warmup_epochs": 1}}))
        first, replay = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
        first.parent.mkdir()
        replay.parent.mkdir()
        assert run(["train", "--data", bench_dir / "train.csv", "--head", "cauchy",
                    "--seed", 3, "--members", 2, "--hidden", "4", "--epochs", 6,
                    "--config", cfg, "--out", first]) == 0
        manifest = first.with_suffix(".json.manifest.json")
        assert run(["train", "--data", bench_dir / "train.csv", "--config", manifest,
                    "--out", replay]) == 0
        for name in ("m.json", "m.propensity.json", "m.json.manifest.json"):
            assert (replay.parent / name).read_bytes() == (first.parent / name).read_bytes()
        doc = json.loads(replay.read_text())
        assert (doc["head"], doc["seed"], len(doc["members"])) == ("cauchy", 3, 2)

    def test_flags_override_replayed_manifest(self, bench_dir, tmp_path):
        first = tmp_path / "m.json"
        assert run(["train", "--data", bench_dir / "train.csv", "--head", "cauchy",
                    "--seed", 3, "--members", 2, "--hidden", "4", "--epochs", 4,
                    "--out", first]) == 0
        replay = tmp_path / "r.json"
        assert run(["train", "--data", bench_dir / "train.csv", "--head", "gaussian",
                    "--seed", 4, "--members", 1,
                    "--config", first.with_suffix(".json.manifest.json"),
                    "--out", replay]) == 0
        config = json.loads(replay.with_suffix(".json.manifest.json").read_text())["config"]
        assert (config["head"], config["seed"], config["members"]) == ("gaussian", 4, 1)
        assert (config["hidden"], config["epochs"]) == ([4], 4)

    @pytest.mark.parametrize("head", ["gaussian", "cauchy"])
    def test_manifest_recording_the_standardize_rule_replays(self, bench_dir, tmp_path,
                                                             head, capsys):
        # manifests written while standardize was a setting record the
        # head's rule (standardized Gaussian, raw Cauchy) and still replay
        first, replay = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
        first.parent.mkdir()
        replay.parent.mkdir()
        assert run(["train", "--data", bench_dir / "train.csv", "--head", head, "--seed", 3,
                    "--members", 2, "--hidden", "4", "--epochs", 6, "--out", first]) == 0
        manifest = first.with_suffix(".json.manifest.json")
        doc = json.loads(manifest.read_text())
        assert "standardize" not in doc["config"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"config": {**doc["config"],
                                              "standardize": head == "gaussian"}}))
        assert run(["train", "--data", bench_dir / "train.csv", "--config", old,
                    "--out", replay]) == 0
        for name in ("m.json", "m.propensity.json", "m.json.manifest.json"):
            assert (replay.parent / name).read_bytes() == (first.parent / name).read_bytes()
        old.write_text(json.dumps({"config": {**doc["config"],
                                              "standardize": head != "gaussian"}}))
        assert run(["train", "--data", bench_dir / "train.csv", "--config", old,
                    "--out", tmp_path / "x.json"]) == 2
        assert "Gaussian heads train on standardized outcomes" in capsys.readouterr().err

    def test_corrupt_csv_row_named_in_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,t,y\n0.1,0,1.0\n0.2,zzz,2.0\n")
        code = run(["train", "--data", bad, "--members", 1, "--hidden", "4",
                    "--epochs", 5, "--out", tmp_path / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 3" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
    def test_non_finite_csv_value_named_in_error(self, tmp_path, capsys, value):
        bad = tmp_path / "nan.csv"
        bad.write_text(f"x1,t,y\n0.5,1,{value}\n")
        code = run(["train", "--data", bad, "--members", 1, "--hidden", "4",
                    "--epochs", 5, "--out", tmp_path / "m.json"])
        assert code == 1
        assert f"{bad}: row 2: y must be finite, got '{value}'" in capsys.readouterr().err


class TestIntervals:
    def test_gamma_one_and_nesting(self, bench_dir, trained_model, tmp_path):
        out1 = tmp_path / "iv1.csv"
        out2 = tmp_path / "iv2.csv"
        assert run(["intervals", "--model", trained_model, "--data",
                    bench_dir / "valid.csv", "--gamma", 1, "--alpha", 0.2,
                    "--out", out1]) == 0
        assert run(["intervals", "--model", trained_model, "--data",
                    bench_dir / "valid.csv", "--gamma", 2, "--alpha", 0.2,
                    "--out", out2]) == 0
        rows1 = np.loadtxt(out1, delimiter=",", skiprows=1)
        rows2 = np.loadtxt(out2, delimiter=",", skiprows=1)
        assert (rows2[:, 2] <= rows1[:, 2] + 1e-8).all()
        assert (rows2[:, 3] >= rows1[:, 3] - 1e-8).all()

    def test_deterministic(self, bench_dir, trained_model, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["intervals", "--model", trained_model, "--data",
                        bench_dir / "valid.csv", "--gamma", 1.5, "--alpha", 0.1,
                        "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_constant_cauchy_model_gives_unit_quartile_interval(self, bench_dir, tmp_path):
        # a zero-parameter Cauchy member predicts Cauchy(0, 1) everywhere, so
        # alpha = 0.5 intervals are the quartiles (-1, 1)
        from modens import EnsembleModel, save_model, save_propensity
        from modens.mlp import Head, init_params

        d = 32
        member = init_params((d + 1, 4, 2), Head.CAUCHY, np.random.default_rng(0))
        for w in member.weights:
            w[:] = 0.0
        prop = init_params((d, 4, 1), Head.PROPENSITY, np.random.default_rng(0))
        for w in prop.weights:
            w[:] = 0.0
        model_path = tmp_path / "const.json"
        save_model(EnsembleModel(members=(member,), seed=0), model_path)
        save_propensity(prop, model_path.with_suffix(".propensity.json"))
        out = tmp_path / "iv.csv"
        assert run(["intervals", "--model", model_path, "--data",
                    bench_dir / "valid.csv", "--gamma", 1, "--alpha", 0.5,
                    "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(rows[:, 2], -1.0, atol=1e-6)
        assert np.allclose(rows[:, 3], 1.0, atol=1e-6)

    @pytest.mark.parametrize("arm", [None, 0])
    def test_rows_match_scalar_outcome_interval(self, bench_dir, trained_model,
                                                tmp_path, arm):
        # the batch path must give the scalar library answer on every row
        from modens import (PROPENSITY_CLAMP, ComponentDistribution, Family,
                            SensitivityConfig, load_model, load_propensity, msm_bounds,
                            outcome_interval, predict_components_batch,
                            predict_propensity_batch)

        gamma, alpha = 2.0, 0.2
        out = tmp_path / "iv.csv"
        args = ["intervals", "--model", trained_model, "--data",
                bench_dir / "valid.csv", "--gamma", gamma, "--alpha", alpha,
                "--out", out]
        assert run(args + ([] if arm is None else ["--arm", arm])) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,t,lo,hi"
        model = load_model(trained_model)
        prop = load_propensity(trained_model.with_suffix(".propensity.json"))
        data = load_dataset_csv(bench_dir / "valid.csv")
        assert len(lines) == data.n + 1
        arms = data.treatments if arm is None else np.full(data.n, arm)
        locs, scales = predict_components_batch(model, data.covariates, arms)
        e1s = predict_propensity_batch(prop, data.covariates)
        family = Family(model.head.value)
        for i, line in enumerate(lines[1:]):
            index, t, lo, hi = line.split(",")
            assert int(index) == i
            assert int(t) == (int(data.treatments[i]) if arm is None else arm)
            comps = [ComponentDistribution(family, loc, scale)
                     for loc, scale in zip(locs[i].tolist(), scales[i].tolist())]
            e1 = float(e1s[i])
            e_t = e1 if int(t) == 1 else 1.0 - e1
            e_t = float(np.clip(e_t, PROPENSITY_CLAMP, 1.0 - PROPENSITY_CLAMP))
            bounds = msm_bounds(e_t, SensitivityConfig(gamma))
            ref = outcome_interval(comps, bounds, alpha)
            tol = 1e-9 * (1.0 + max(c.scale for c in comps))
            assert abs(float(lo) - ref.lo) <= tol
            assert abs(float(hi) - ref.hi) <= tol

    @pytest.mark.parametrize("subcommand", ["intervals", "gamma-search"])
    def test_covariate_width_mismatch_exits_1(self, bench_dir, trained_model, tmp_path,
                                              subcommand, capsys):
        data = load_dataset_csv(bench_dir / "test.csv")
        lines = (bench_dir / "test.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines]
        narrow = tmp_path / "narrow.csv"   # without the last covariate column
        narrow.write_text("\n".join(",".join(r[:data.d - 1] + r[data.d:]) for r in rows) + "\n")
        args = {"intervals": ["--data", narrow, "--gamma", 2, "--alpha", 0.2,
                              "--out", tmp_path / "iv.csv"],
                "gamma-search": ["--test", narrow, "--target", 0.8,
                                 "--out", tmp_path / "r.json"]}[subcommand]
        assert run([subcommand, "--model", trained_model] + args) == 1
        assert (f"model expects {data.d} covariate columns, got {data.d - 1}"
                in capsys.readouterr().err)

    def test_truncated_model_exits_1(self, bench_dir, trained_model, tmp_path):
        broken = tmp_path / "broken.json"
        blob = trained_model.read_text()
        broken.write_text(blob[: len(blob) // 3])
        code = run(["intervals", "--model", broken, "--data",
                    bench_dir / "valid.csv", "--gamma", 1, "--alpha", 0.1,
                    "--out", tmp_path / "iv.csv"])
        assert code == 1


class TestGammaSearch:
    def test_report_written_and_deterministic(self, bench_dir, trained_model, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run(["gamma-search", "--model", trained_model, "--test",
                        bench_dir / "test.csv", "--target", 0.8, "--cost", "mass",
                        "--out", out]) == 0
            reports.append(json.loads(out.read_text()))
        a, b = reports
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b
        assert (tmp_path / "r1.points.csv").exists()

    def test_missing_potential_columns_exit_2(self, bench_dir, trained_model, tmp_path):
        code = run(["gamma-search", "--model", trained_model, "--test",
                    bench_dir / "train.csv", "--target", 0.9,
                    "--out", tmp_path / "r.json"])
        assert code == 2

    def test_target_one_fails_gracefully(self, bench_dir, trained_model, tmp_path):
        out = tmp_path / "r.json"
        # unattainable closed coverage of 1.0 at fixed alpha: FAILURE verdict,
        # but exit code 0 (a verdict is not an operational error)
        assert run(["gamma-search", "--model", trained_model, "--test",
                    bench_dir / "test.csv", "--target", 1.0, "--alpha", 0.5,
                    "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["gamma_star"] == "FAILURE"
        assert "coverage_cost" not in doc
        assert doc["config"]["target_coverage"] == 1.0

    def test_manifest_records_the_solved_gammas(self, bench_dir, trained_model, tmp_path):
        out = tmp_path / "r.json"
        assert run(["gamma-search", "--model", trained_model, "--test",
                    bench_dir / "test.csv", "--target", 1.0, "--alpha", 0.5,
                    "--out", out]) == 0
        manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
        # FAILURE rests on the intervals solved at the top of the range alone
        assert manifest["solved_gammas"] == [50.0]
        assert manifest["predicted_steps"] == 2
        for key in ("solved_gammas", "predicted_steps"):
            assert key not in manifest["config"]
            assert key not in json.loads(out.read_text())


class TestOracleCheck:
    def test_m2_passes(self):
        assert run(["oracle-check", "--seed", 0, "--m", 2, "--trials", 20]) == 0

    def test_m12_refused(self, capsys):
        assert run(["oracle-check", "--m", 12, "--trials", 5]) == 2
        assert "refused" in capsys.readouterr().err

    def test_m4_passes(self):
        assert run(["oracle-check", "--seed", 1, "--m", 4, "--trials", 12]) == 0

    @pytest.mark.parametrize("end", [0, 1])
    def test_checks_the_batch_solver(self, monkeypatch, capsys, end):
        # lower ends are checked for beta < 1/2, upper ends above it
        solve = cli.modulated_intervals_batch

        def shifted(*args):
            ends = solve(*args)
            ends[end][0] += 1e-3
            return ends

        monkeypatch.setattr(cli, "modulated_intervals_batch", shifted)
        assert run(["oracle-check", "--seed", 1, "--m", 3, "--trials", 9]) == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.slow
    def test_m6_trials_200_within_a_minute(self):
        import time

        t0 = time.perf_counter()
        assert run(["oracle-check", "--seed", 2, "--m", 6, "--trials", 200]) == 0
        assert time.perf_counter() - t0 < 60.0


class TestReport:
    def test_relative_costs_table(self, tmp_path):
        lengths = tmp_path / "lengths.json"
        lengths.write_text(json.dumps({"ours": 2.0, "baseline": 4.0}))
        out = tmp_path / "rep"
        assert run(["report", "--lengths", lengths, "--out-dir", out]) == 0
        text = (out / "relative_costs.csv").read_text().splitlines()
        assert text[0] == "method,mean_length,relative_cost,excess"
        rows = {line.split(",")[0]: line.split(",") for line in text[1:]}
        assert float(rows["ours"][2]) == 1.0
        assert float(rows["baseline"][3]) == 1.0

    @pytest.mark.parametrize("doc", ['[2.0]', '{"a": null}', '{"a": "x"}', '{"a": true}',
                                     '{"a": Infinity}', '{}'])
    def test_malformed_lengths_exit_2(self, tmp_path, doc, capsys):
        lengths = tmp_path / "lengths.json"
        lengths.write_text(doc)
        out = tmp_path / "rep"
        assert run(["report", "--lengths", lengths, "--out-dir", out]) == 2
        assert "finite positive numbers" in capsys.readouterr().err
        assert not (out / "relative_costs.csv").exists()

    def test_coverage_curve(self, bench_dir, trained_model, tmp_path):
        out = tmp_path / "rep"
        assert run(["report", "--model", trained_model, "--test",
                    bench_dir / "test.csv", "--gammas", "1,2,5", "--alpha", 0.2,
                    "--out-dir", out]) == 0
        lines = (out / "coverage_curve.csv").read_text().splitlines()
        assert lines[0] == "gamma,coverage,mean_length,cost_mass"
        assert len(lines) == 4
        covs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a <= b + 1e-12 for a, b in zip(covs, covs[1:]))

    def test_no_mode_exits_2(self, tmp_path):
        assert run(["report", "--out-dir", tmp_path / "rep"]) == 2
