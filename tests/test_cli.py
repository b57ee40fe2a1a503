import argparse
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import returns_within
from modens import CostKind, GeneratorConfig, Head, cli, load_dataset_csv, write_benchmark
from modens.cli import main
from modens.evalharness import check_arm


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


@pytest.fixture(scope="module")
def chain_manifests(bench_dir, trained_model, tmp_path_factory):
    """The manifest of each subcommand that writes one, by subcommand."""
    out = tmp_path_factory.mktemp("chain")
    cfg = out / "gen.json"
    cfg.write_text(json.dumps({"n_train": 20, "n_valid": 5, "n_test": 5}))
    model, test = trained_model, bench_dir / "test.csv"
    for argv in (["generate", "--seed", 1, "--config", cfg, "--out-dir", out / "data"],
                 ["intervals", "--model", model, "--data", test, "--gamma", 2, "--alpha", 0.2,
                  "--out", out / "iv.csv"],
                 ["gamma-search", "--model", model, "--test", test, "--target", 0.8,
                  "--out", out / "r.json"],
                 ["report", "--model", model, "--test", test, "--gammas", 1,
                  "--out-dir", out / "rep"]):
        assert run(argv) == 0
    return {"generate": out / "data" / "manifest.json",
            "train": trained_model.with_suffix(".json.manifest.json"),
            "intervals": out / "iv.csv.manifest.json",
            "gamma-search": out / "r.json.manifest.json",
            "report": out / "rep" / "report.manifest.json"}


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

    def test_combined_config_reads_generate_section(self, tmp_path):
        sizes = {"n_train": 30, "n_valid": 6, "n_test": 6, "seed": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"generate": {"generator": sizes},
                                        "train": {"head": "cauchy", "members": 2}}))
        out, ref = tmp_path / "data", tmp_path / "ref"
        assert run(["generate", "--config", cfg_path, "--out-dir", out]) == 0
        write_benchmark(None, GeneratorConfig(**sizes), ref)
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()
        generator = json.loads((out / "manifest.json").read_text())["config"]["generator"]
        assert {k: generator[k] for k in sizes} == sizes

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
        features.write_bytes(text.encode("utf-8"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 2, "n_valid": 1, "n_test": 1}))
        return run(["generate", "--config", cfg, "--features", features,
                    "--out-dir", tmp_path / "out"])

    def test_feature_comment_is_not_stripped(self, tmp_path, capsys, recwarn):
        code = self.generate_from(tmp_path, "a,b\n1,2 # c\n3,4\n5,6\n7,8\n")
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"modens: {tmp_path / 'features.csv'}: row 2: "
                       "could not convert string to float: '2 # c'\n")
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
                       "b must be finite, got 'nan'\n")
        assert not recwarn.list

    def test_spreadsheet_export_reads_as_plain_file(self, tmp_path):
        plain, export = tmp_path / "plain", tmp_path / "export"
        plain.mkdir()
        export.mkdir()
        assert self.generate_from(plain, "a,b\n0.5,-1\n2,3.25\n-4,0.125\n7,8\n") == 0
        assert self.generate_from(
            export, '\ufeffa,b\r\n"0.5",-1\r\n\r\n2,"3.25"\r\n-4,0.125\r\n7,8\r\n') == 0
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert (export / "out" / name).read_bytes() == (plain / "out" / name).read_bytes()

    def test_blank_first_line_reads_as_plain_file(self, tmp_path):
        plain, padded = tmp_path / "plain", tmp_path / "padded"
        plain.mkdir()
        padded.mkdir()
        assert self.generate_from(plain, "a,b\n0.5,-1\n2,3.25\n-4,0.125\n7,8\n") == 0
        assert self.generate_from(padded, "\na,b\n0.5,-1\n2,3.25\n-4,0.125\n7,8\n") == 0
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert (padded / "out" / name).read_bytes() == (plain / "out" / name).read_bytes()

    def test_blank_first_line_keeps_file_line_numbers(self, tmp_path, capsys):
        assert self.generate_from(tmp_path, "\na,b\n1,2\n3\n5,6\n7,8\n") == 1
        assert capsys.readouterr().err == (f"modens: {tmp_path / 'features.csv'}: "
                                           "row 4: expected 2 fields, got 1\n")

    def test_blank_lines_only_is_empty_file(self, tmp_path, capsys):
        assert self.generate_from(tmp_path, "\n\n") == 1
        assert capsys.readouterr().err == f"modens: {tmp_path / 'features.csv'}: empty file\n"

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n1_000,4\n5,6\n7,8\n",
         "row 3: could not convert string to float: '1_000'"),
        ("a,b\n1,2\n\n3\n5,6\n7,8\n", "row 4: expected 2 fields, got 1"),
        ("a,b\n1,2\n3,4\n5,6,9\n7,8\n", "row 4: expected 2 fields, got 3"),
    ], ids=["underscore", "short-row", "long-row"])
    def test_malformed_feature_row_is_named(self, tmp_path, capsys, text, message):
        assert self.generate_from(tmp_path, text) == 1
        assert capsys.readouterr().err == f"modens: {tmp_path / 'features.csv'}: {message}\n"

    def test_column_named_t_is_a_feature(self, tmp_path):
        assert self.generate_from(tmp_path, "x1,t,y\n1,7,2\n3,7,4\n5,7,6\n7,7,8\n") == 0
        matrix = np.array([[1, 7, 2], [3, 7, 4], [5, 7, 6], [7, 7, 8]], dtype=float)
        write_benchmark(matrix, GeneratorConfig(n_train=2, n_valid=1, n_test=1), tmp_path / "ref")
        for name in ("train.csv", "valid.csv", "test.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

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


# the flag-only arguments each subcommand needs to parse
FLAG_ONLY = {"generate": ["--out-dir", "o"], "train": ["--out", "m.json"],
             "intervals": ["--out", "iv.csv"], "gamma-search": ["--out", "r.json"],
             "oracle-check": [], "report": ["--out-dir", "rep"]}
# every output-path flag of each subcommand
OUTPUT_FLAGS = {"generate": {"--out-dir"}, "train": {"--out", "--propensity-out"},
                "intervals": {"--out"}, "gamma-search": {"--out"}, "oracle-check": set(),
                "report": {"--out-dir"}}
# a config-file value and a flag value of each setting type
SAMPLES = {int: (3, 4), float: (0.25, 0.5), str: ("a", "b"), (str, list): ("a", "b")}


class TestSettingsTable:
    @pytest.mark.parametrize("sub, row", [pytest.param(sub, row, id=f"{sub}-{row[0]}")
                                          for sub, rows in cli._SETTINGS.items()
                                          for row in rows])
    def test_flag_help_config_key_and_default(self, sub, row, tmp_path, capsys, monkeypatch):
        key, kind, default, text = row
        flag = {"target_coverage": "--target", "cost_kind": "--cost"}.get(
            key, "--" + key.replace("_", "-"))
        monkeypatch.setenv("COLUMNS", "1000")   # no help line wraps
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        shown = ("required" if default is cli._REQUIRED
                 else "optional" if default is None else f"default {default}")
        assert (f"{flag} {key.upper()} {text} ({shown})"
                in " ".join(capsys.readouterr().out.split()))

        required = {k: SAMPLES[t][0] for k, t, d, _ in cli._SETTINGS[sub]
                    if d is cli._REQUIRED}
        cfg = tmp_path / "cfg.json"

        def resolved(config, *flags):
            cfg.write_text(json.dumps(config))
            args = cli.build_parser().parse_args([sub, "--config", str(cfg),
                                                  *FLAG_ONLY[sub], *flags])
            return cli._settings(args, cli._command_config(args))[key]

        from_file, from_flag = SAMPLES[kind]
        if default is not cli._REQUIRED:
            assert resolved(required) == default
        assert resolved({**required, key: from_file}) == from_file
        assert resolved({**required, key: from_file}, flag, str(from_flag)) == from_flag

    @pytest.mark.parametrize("sub", list(cli._SETTINGS))
    def test_only_config_and_output_paths_are_flags_outside_the_table(self, sub):
        (subparsers,) = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        options = {option for action in subparsers.choices[sub]._actions
                   for option in action.option_strings}
        rows = {cli._flag(key) for key, *_ in cli._SETTINGS[sub]}
        assert options == rows | {"-h", "--help", "--config"} | OUTPUT_FLAGS[sub]

    @pytest.mark.parametrize("argv, flag, value, check", [
        (["intervals", "--model", "m.json", "--data", "d.csv", "--gamma", "2", "--alpha", "0.2",
          "--out", "{out}/iv.csv"], "--arm", 2, lambda: check_arm(2)),
        (["gamma-search", "--model", "m.json", "--test", "t.csv", "--target", "0.8",
          "--out", "{out}/r.json"], "--arm", 2, lambda: check_arm(2)),
        (["report", "--model", "m.json", "--test", "t.csv", "--out-dir", "{out}/rep"],
         "--arm", 2, lambda: check_arm(2)),
        (["train", "--data", "d.csv", "--out", "{out}/m.json"], "--head", "poisson",
         lambda: Head("poisson")),
        (["gamma-search", "--model", "m.json", "--test", "t.csv", "--target", "0.8",
          "--out", "{out}/r.json"], "--cost", "relative", lambda: CostKind("relative")),
    ], ids=["intervals-arm-2", "gamma-search-arm-2", "report-arm-2", "train-head-poisson",
            "gamma-search-cost-relative"])
    def test_bad_flag_fails_as_the_config_value(self, tmp_path, capsys, argv, flag, value,
                                                check):
        with pytest.raises(ValueError) as library:
            check()
        out = tmp_path / "out"
        out.mkdir()
        argv = [a.format(out=out) for a in argv]
        key = {"--cost": "cost_kind"}.get(flag, flag[2:])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({argv[0]: {key: value}}))
        errors = []
        for extra in ([flag, value], ["--config", cfg]):
            assert run(argv + extra) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "config error" in errors[0] and str(library.value) in errors[0]
        assert not list(out.iterdir())

    def test_report_takes_no_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["report", "--model", "m.json", "--test", "t.csv", "--seed", 1,
                 "--out-dir", tmp_path / "rep"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--data", "d.csv", "--out", "{out}/m.json"], "--step"),
        (["report", "--model", "m.json", "--test", "t.csv", "--out-dir", "{out}/rep"],
         "--lengths"),
        (["intervals", "--model", "m.json", "--data", "d.csv", "--gamma", "2", "--alpha", "0.2",
          "--out", "{out}/iv.csv"], "--seed"),
    ], ids=["train-step", "report-lengths", "intervals-seed"])
    def test_retired_flag_is_unrecognized(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run([a.format(out=tmp_path) for a in argv] + [flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [
        ["gamma-search", "--model", "{model}", "--test", "{data}/test.csv",
         "--target", "0.9", "--gamma-tol", "0", "--out", "{tmp}/r.json"],
        ["gamma-search", "--model", "{model}", "--test", "{data}/test.csv",
         "--target", "0.9", "--gamma-tol", "nan", "--out", "{tmp}/r.json"],
        ["train", "--data", "{data}/train.csv", "--members", "0",
         "--out", "{tmp}/m.json"],
        ["train", "--data", "{data}/train.csv", "--config", "{cfg}",
         "--out", "{tmp}/m.json"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv",
         "--gammas", "1,nan", "--out-dir", "{tmp}/rep"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv",
         "--gammas", ",", "--out-dir", "{tmp}/rep"],
        ["intervals", "--model", "{model}", "--data", "{data}/valid.csv", "--gamma", "0.5",
         "--alpha", "0.2", "--out", "{tmp}/iv.csv"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv",
         "--gammas", "0.5", "--out-dir", "{tmp}/rep"],
        ["report", "--model", "{model}", "--test", "{data}/test.csv",
         "--alpha", "5e-324", "--out-dir", "{tmp}/rep"],
        ["gamma-search", "--model", "{model}", "--test", "{data}/test.csv",
         "--target", "0.9", "--config", "{cfg}", "--out", "{tmp}/r.json"],
        ["generate", "--seed", "-1", "--out-dir", "{tmp}/gen"],
        ["train", "--data", "{data}/train.csv", "--seed", "-1", "--members", "1",
         "--hidden", "2", "--epochs", "1", "--out", "{tmp}/m.json"],
        ["oracle-check", "--seed", "-1", "--m", "2", "--trials", "1"],
        ["train", "--data", "{data}/train.csv", "--members", "1", "--hidden", "2",
         "--epochs", "1", "--propensity-out", "{tmp}/missing/p.json", "--out", "{tmp}/m.json"],
    ], ids=["gamma-tol-0", "gamma-tol-nan", "members-0", "step-nan", "gamma-nan",
            "gammas-empty", "intervals-gamma-0.5", "report-gammas-0.5",
            "report-alpha-halves-to-0", "gamma-search-file-arm-2", "generate-seed-negative",
            "train-seed-negative", "oracle-check-seed-negative",
            "train-propensity-out-dir-missing"])
    def test_config_error_exits_2(self, bench_dir, trained_model, tmp_path, argv, capsys):
        cfg = tmp_path / "cfg.json"
        # the retired step setting is an error at any value but 0.01
        cfg.write_text(json.dumps({"gamma-search": {"arm": 2}, "train": {"step": float("nan")}}))
        out = tmp_path / "out"
        out.mkdir()
        paths = {"model": trained_model, "data": bench_dir, "tmp": out, "cfg": cfg}
        assert run([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if "--seed" in argv:
            assert "seed must be >= 0, got -1" in err
        assert not [f for f in out.rglob("*") if f.is_file()]
        assert not (out / "rep").exists()

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
                                         {"alpha": None}, {"alpha": 5e-324}, {"gamma": 0.5}],
                             ids=["gamma-str", "gamma-bool", "arm-2", "alpha-null",
                                  "alpha-halves-to-0", "gamma-0.5"])
    def test_bad_intervals_setting_exits_2(self, bench_dir, trained_model, tmp_path,
                                           setting, capsys):
        cfg = tmp_path / "iv.json"
        cfg.write_text(json.dumps({"intervals": {"gamma": 2.0, "alpha": 0.2, **setting}}))
        assert run(["intervals", "--model", trained_model, "--data", bench_dir / "valid.csv",
                    "--config", cfg, "--out", tmp_path / "iv.csv"]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["iv.json"]

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

    @pytest.mark.parametrize("writer, reader", [
        (writer, reader) for writer in ("generate", "train", "intervals", "gamma-search", "report")
        for reader in FLAG_ONLY if reader != writer])
    def test_manifest_replays_only_under_its_subcommand(self, chain_manifests, tmp_path, capsys,
                                                        writer, reader):
        outputs = [a if a.startswith("--") else tmp_path / a for a in FLAG_ONLY[reader]]
        assert run([reader, "--config", chain_manifests[writer], *outputs]) == 2
        assert (f"config error: config file {chain_manifests[writer]} is a {writer} manifest, "
                f"which {reader} cannot replay") in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_manifest_replays_with_out_alone(self, bench_dir, tmp_path):
        first, replay = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
        first.parent.mkdir()
        replay.parent.mkdir()
        assert run(["train", "--data", bench_dir / "train.csv", "--head", "cauchy",
                    "--seed", 3, "--members", 2, "--hidden", "4", "--epochs", 6,
                    "--out", first]) == 0
        manifest = first.with_suffix(".json.manifest.json")
        assert json.loads(manifest.read_text())["config"]["data"] == str(bench_dir / "train.csv")
        assert run(["train", "--config", manifest, "--out", replay]) == 0
        for name in ("m.json", "m.propensity.json", "m.json.manifest.json"):
            assert (replay.parent / name).read_bytes() == (first.parent / name).read_bytes()

    def test_warmup_flag_and_config_file_write_the_same_model(self, bench_dir, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"warmup_epochs": 3}}))
        flag, file = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
        flag.parent.mkdir()
        file.parent.mkdir()
        # 8 epochs, whose default warm-up is 4
        common = ["train", "--data", bench_dir / "train.csv", "--head", "cauchy", "--seed", 3,
                  "--members", 2, "--hidden", "4", "--epochs", 8]
        assert run(common + ["--warmup-epochs", 3, "--out", flag]) == 0
        assert run(common + ["--config", cfg, "--out", file]) == 0
        for name in ("m.json", "m.propensity.json", "m.json.manifest.json"):
            assert (flag.parent / name).read_bytes() == (file.parent / name).read_bytes()
        manifest = json.loads(flag.with_suffix(".json.manifest.json").read_text())
        assert manifest["config"]["warmup_epochs"] == 3

    def test_warmup_flag_zero_exits_2(self, bench_dir, tmp_path, capsys):
        assert run(["train", "--data", bench_dir / "train.csv", "--warmup-epochs", 0,
                    "--out", tmp_path / "m.json"]) == 2
        assert ("config error: train config: warmup_epochs must be None or an integer >= 1, "
                "got 0") in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        # the rule recorded is the one of the head the manifest names: a
        # --head flag that changes the head brings its own
        other = "cauchy" if head == "gaussian" else "gaussian"
        old.write_text(json.dumps({"config": {**doc["config"],
                                              "standardize": head == "gaussian"}}))
        assert run(["train", "--data", bench_dir / "train.csv", "--config", old,
                    "--head", other, "--out", tmp_path / "y.json"]) == 0

    def test_failed_propensity_fit_writes_nothing(self, bench_dir, tmp_path, monkeypatch,
                                                  capsys):
        def diverge(*args):
            raise cli.mlp.TrainingDivergedError("propensity diverged")

        monkeypatch.setattr(cli.mlp, "fit_propensity", diverge)
        assert run(["train", "--data", bench_dir / "train.csv", "--members", 1,
                    "--hidden", "2", "--epochs", 2, "--out", tmp_path / "m.json"]) == 1
        assert "propensity diverged" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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


# each writing subcommand's arguments, and the files it writes under "{out}"
WRITES = {
    "generate": (["--config", "{cfg}", "--out-dir", "{out}/gen"],
                 ["gen/train.csv", "gen/valid.csv", "gen/test.csv", "gen/manifest.json"]),
    "train": (["--data", "{data}/train.csv", "--members", "1", "--hidden", "2", "--epochs", "1",
               "--out", "{out}/m.json"], ["m.json", "m.propensity.json", "m.json.manifest.json"]),
    "intervals": (["--model", "{model}", "--data", "{data}/valid.csv", "--gamma", "2",
                   "--alpha", "0.2", "--out", "{out}/iv.csv"], ["iv.csv", "iv.csv.manifest.json"]),
    "gamma-search": (["--model", "{model}", "--test", "{data}/test.csv", "--target", "0.8",
                      "--out", "{out}/r.json"],
                     ["r.json", "r.points.csv", "r.json.manifest.json"]),
    "report": (["--model", "{model}", "--test", "{data}/test.csv", "--gammas", "1",
                "--out-dir", "{out}/rep"], ["rep/coverage_curve.csv", "rep/report.manifest.json"]),
}


class TestOutputs:
    @pytest.mark.parametrize("sub, name", [(sub, name) for sub, (_, names) in WRITES.items()
                                           for name in names])
    def test_output_that_is_a_directory_exits_2_before_the_work(
            self, bench_dir, trained_model, tmp_path, monkeypatch, capsys, sub, name):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"n_train": 20, "n_valid": 5, "n_test": 5}))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        calls = []

        def recorded(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for module, fn in ((cli, "load_dataset_csv"), (cli, "_load_models"),
                           (cli, "modulated_interval_arrays"), (cli.benchgen, "write_benchmark")):
            monkeypatch.setattr(module, fn, recorded(fn, getattr(module, fn)))
        argv = [a.format(cfg=cfg, out=out, data=bench_dir, model=trained_model)
                for a in WRITES[sub][0]]
        assert run([sub, *argv]) == 2
        assert f"config error: output {out / name} is a directory" in capsys.readouterr().err
        # report reads its inputs before it makes --out-dir, but solves nothing
        assert calls == (["_load_models", "load_dataset_csv"] if sub == "report" else [])
        assert ({p.relative_to(out) for p in out.rglob("*")}
                == {Path(name), *Path(name).parents} - {Path(".")})

    @pytest.mark.parametrize("prop_out", ["m.json", "m.json.manifest.json", "./sub/../m.json"])
    def test_two_outputs_naming_one_file_exit_2_before_the_work(
            self, bench_dir, tmp_path, monkeypatch, capsys, prop_out):
        # the propensity model would overwrite the ensemble or its manifest
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        reads = []
        monkeypatch.setattr(cli, "load_dataset_csv", lambda *args: reads.append(args))
        assert run(["train", "--data", bench_dir / "train.csv", "--members", "1",
                    "--hidden", "2", "--epochs", "1", "--out", "m.json",
                    "--propensity-out", prop_out]) == 2
        assert "name the same file" in capsys.readouterr().err
        assert reads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    # (subcommand, its arguments, the output that names an input); the
    # inputs all sit in "{io}", where report's test split is coverage_curve.csv
    OVERWRITES = [
        ("generate", ["--features", "{io}/train.csv", "--out-dir", "{io}"], "train.csv"),
        ("train", ["--data", "{io}/train.csv", "--members", "1", "--hidden", "2",
                   "--epochs", "1", "--out", "{io}/train.csv"], "train.csv"),
        ("train", ["--data", "{io}/train.csv", "--members", "1", "--hidden", "2",
                   "--epochs", "1", "--out", "{io}/new.json", "--propensity-out",
                   "{io}/train.csv"], "train.csv"),
        ("intervals", ["--model", "{io}/m.json", "--data", "{io}/test.csv", "--gamma", "2",
                       "--alpha", "0.2", "--out", "{io}/test.csv"], "test.csv"),
        ("gamma-search", ["--model", "{io}/m.json", "--test", "{io}/test.csv", "--target",
                          "0.8", "--out", "{io}/m.propensity.json"], "m.propensity.json"),
        ("report", ["--model", "{io}/m.json", "--test", "{io}/coverage_curve.csv",
                    "--out-dir", "{io}"], "coverage_curve.csv"),
    ]

    @pytest.mark.parametrize("sub, argv, name", OVERWRITES,
                             ids=["generate", "train", "train-propensity-out", "intervals",
                                  "gamma-search", "report"])
    def test_output_that_names_an_input_exits_2_before_the_work(
            self, bench_dir, trained_model, tmp_path, monkeypatch, capsys, sub, argv, name):
        io = tmp_path / "io"
        io.mkdir()
        for src, dst in ((bench_dir / "train.csv", "train.csv"),
                         (bench_dir / "test.csv", "test.csv"),
                         (bench_dir / "test.csv", "coverage_curve.csv"),
                         (trained_model, "m.json"),
                         (trained_model.with_suffix(".propensity.json"), "m.propensity.json")):
            shutil.copyfile(src, io / dst)
        before = {p.name: p.read_bytes() for p in io.iterdir()}
        reads = []
        for fn in ("load_dataset_csv", "load_feature_csv", "_load_models"):
            monkeypatch.setattr(cli, fn, lambda *args, fn=fn: reads.append(fn))
        assert run([sub, *(a.format(io=io) for a in argv)]) == 2
        assert (f"config error: output {io / name} names the input {io / name}"
                in capsys.readouterr().err)
        assert reads == []
        assert {p.name: p.read_bytes() for p in io.iterdir()} == before


class TestRetiredSettings:
    """Manifests written while train had ``step``, report had ``lengths``
    and intervals had ``seed`` still replay when they record what the
    program now does; any other step is a config error (any other lengths:
    ``TestReport::test_malformed_lengths_exit_2``)."""

    def replay(self, manifest, extra, argv):
        old = manifest.parent / "old.json"
        doc = json.loads(manifest.read_text())
        old.write_text(json.dumps({"config": {**doc["config"], **extra}}))
        return run(argv + ["--config", old])

    def test_train_step(self, bench_dir, tmp_path, capsys):
        first, replay = tmp_path / "a" / "m.json", tmp_path / "b" / "m.json"
        first.parent.mkdir()
        replay.parent.mkdir()
        assert run(["train", "--data", bench_dir / "train.csv", "--head", "cauchy",
                    "--seed", 3, "--members", 2, "--hidden", "4", "--epochs", 6,
                    "--out", first]) == 0
        manifest = first.with_suffix(".json.manifest.json")
        assert "step" not in json.loads(manifest.read_text())["config"]
        argv = ["train", "--data", bench_dir / "train.csv"]
        assert self.replay(manifest, {"step": 0.01}, argv + ["--out", replay]) == 0
        for name in ("m.json", "m.propensity.json", "m.json.manifest.json"):
            assert (replay.parent / name).read_bytes() == (first.parent / name).read_bytes()
        capsys.readouterr()
        assert self.replay(manifest, {"step": 0.05}, argv + ["--out", tmp_path / "x.json"]) == 2
        assert "config error: step=0.05 cannot be set" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_report_lengths(self, bench_dir, trained_model, tmp_path):
        first, replay = tmp_path / "a", tmp_path / "b"
        assert run(["report", "--model", trained_model, "--test", bench_dir / "test.csv",
                    "--gammas", "1,3", "--out-dir", first]) == 0
        manifest = first / "report.manifest.json"
        assert "lengths" not in json.loads(manifest.read_text())["config"]
        assert self.replay(manifest, {"lengths": None}, ["report", "--out-dir", replay]) == 0
        for name in ("coverage_curve.csv", "report.manifest.json"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_intervals_seed_is_ignored(self, bench_dir, trained_model, tmp_path):
        first, replay = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["intervals", "--model", trained_model, "--data", bench_dir / "valid.csv",
                    "--gamma", 2, "--alpha", 0.2, "--out", first]) == 0
        manifest = first.with_suffix(".csv.manifest.json")
        assert "seed" not in json.loads(manifest.read_text())["config"]
        assert self.replay(manifest, {"seed": 1.5}, ["intervals", "--out", replay]) == 0
        assert replay.read_bytes() == first.read_bytes()


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

    def test_tolerance_below_float_spacing_ends(self, bench_dir, trained_model, tmp_path):
        # an interior gamma* (about 1.1) at the default tolerance and at one
        # far below the float spacing there, where the search bisects to
        # adjacent floats
        docs = {}
        for tol in ("0.05", "1e-20"):
            out = tmp_path / f"r-{tol}.json"
            argv = ["gamma-search", "--model", trained_model, "--test",
                    bench_dir / "test.csv", "--target", 0.7, "--alpha", 0.3,
                    "--gamma-tol", tol, "--out", out]
            assert returns_within(60, run, argv) == 0
            manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
            docs[tol] = json.loads(out.read_text()), len(manifest["solved_gammas"])
        (default, n_default), (fine, n_fine) = docs["0.05"], docs["1e-20"]
        assert 1.0 < default["gamma_star"] < 50.0 and n_default == 2 < n_fine
        assert fine["achieved_coverage"] == default["achieved_coverage"]
        assert fine["gamma_star"] == pytest.approx(default["gamma_star"], rel=2e-6)

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
        assert "solved_gammas" not in manifest["config"]
        assert "solved_gammas" not in json.loads(out.read_text())


class TestOracleCheck:
    def test_m2_passes(self):
        assert run(["oracle-check", "--seed", 0, "--m", 2, "--trials", 20]) == 0

    def test_m12_refused(self, capsys):
        assert run(["oracle-check", "--m", 12, "--trials", 5]) == 2
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--m", 0], "refused"), (["--m", 3, "--trials", 0], "trials must be >= 1")],
        ids=["m-0", "trials-0"])
    def test_bad_size_exits_2(self, capsys, argv, message):
        assert run(["oracle-check", *argv]) == 2
        assert message in capsys.readouterr().err

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
    @pytest.mark.parametrize("doc", ['[2.0]', '{"a": null}', '{"a": "x"}', '{"a": true}',
                                     '{"a": Infinity}', '{}'])
    def test_malformed_lengths_exit_2(self, tmp_path, doc, capsys):
        # lengths is retired: a config that still gives one, of any shape, is refused
        # before any file is read or written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"report": {"lengths": json.loads(doc)}}))
        out = tmp_path / "rep"
        assert run(["report", "--model", "m.json", "--test", "t.csv", "--config", cfg,
                    "--out-dir", out]) == 2
        assert "config error: lengths=" in capsys.readouterr().err
        assert not out.exists()

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

    def test_no_mode_exits_2(self, tmp_path, capsys):
        assert run(["report", "--out-dir", tmp_path / "rep"]) == 2
        assert "--model is required" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("given, missing", [(["--model", "m.json"], "--test"),
                                                (["--test", "t.csv"], "--model")],
                             ids=["model-only", "test-only"])
    def test_model_and_test_are_required(self, tmp_path, capsys, given, missing):
        # the one table, the coverage curve, needs both
        assert run(["report", *given, "--out-dir", tmp_path / "rep"]) == 2
        assert f"config error: {missing} is required" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("missing", ["--model", "--propensity-model", "--test"])
    def test_unreadable_input_leaves_no_out_dir(self, bench_dir, trained_model, tmp_path,
                                                capsys, missing):
        # the inputs are read before --out-dir is created
        inputs = {"--model": trained_model, "--test": bench_dir / "test.csv",
                  missing: tmp_path / "missing"}
        argv = [a for flag, path in inputs.items() for a in (flag, path)]
        assert run(["report", *argv, "--out-dir", tmp_path / "rep"]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestReportTableBytes:
    """The three report tables, byte for byte, for fixed endpoints: the
    solver is stubbed so that only the table writer decides the text."""

    LO = np.array([-0.0, -0.1, -1.5])
    HI = np.array([0.1, 0.2, 2.5])
    Y = np.array([0.05, 0.3, -3.0])

    @pytest.fixture
    def stubbed(self, tmp_path, monkeypatch):
        from modens import Dataset, save_dataset_csv

        def interval_arrays(model, prop, covariates, t, alpha):
            return lambda *gammas: [(self.LO * gamma, self.HI * gamma) for gamma in gammas]

        monkeypatch.setattr(cli, "_load_models", lambda path, prop: (None, None))
        monkeypatch.setattr(cli, "modulated_interval_arrays", interval_arrays)
        data = tmp_path / "data.csv"
        save_dataset_csv(Dataset(covariates=[[1.0], [2.0], [3.0]], treatments=[0, 1, 1],
                                 outcomes=self.Y,
                                 potential_outcomes=np.stack([self.Y, self.Y], axis=1)),
                         data)
        return data

    def test_intervals_csv(self, stubbed, tmp_path):
        out = tmp_path / "iv.csv"
        assert run(["intervals", "--model", "m.json", "--data", stubbed, "--gamma", 1,
                    "--alpha", 0.1, "--out", out]) == 0
        assert out.read_bytes() == (b"index,t,lo,hi\n"
                                    b"0,0,-0.0,0.1\n"
                                    b"1,1,-0.1,0.2\n"
                                    b"2,1,-1.5,2.5\n")

    def test_coverage_curve_csv(self, stubbed, tmp_path):
        out = tmp_path / "rep"
        assert run(["report", "--model", "m.json", "--test", stubbed, "--gammas", "1,2",
                    "--out-dir", out]) == 0
        assert (out / "coverage_curve.csv").read_bytes() == (
            b"gamma,coverage,mean_length,cost_mass\n"
            b"1.0,0.3333333333333333,1.4666666666666668,0.39562841530054643\n"
            b"2.0,1.0,2.9333333333333336,0.6163934426229508\n")

    def test_points_csv(self, tmp_path):
        from modens.evalharness import ExperimentReport

        report = ExperimentReport(gamma_star=1.0, achieved_coverage=1 / 3, coverage_cost=0.5,
                                  mean_length=1.0, lo=self.LO, hi=self.HI, config={})
        out = tmp_path / "report.points.csv"
        report.write_points_csv(out, self.Y)
        assert out.read_bytes() == (b"index,lo,hi,y,covered\n"
                                    b"0,-0.0,0.1,0.05,1\n"
                                    b"1,-0.1,0.2,0.3,0\n"
                                    b"2,-1.5,2.5,-3.0,0\n")
