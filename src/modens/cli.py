"""Command-line surface: generate / train / intervals / gamma-search /
oracle-check / report.

Every setting a flag or a ``--config`` file may give is declared once, in
``_SETTINGS``: its config key, type, default (or required) and help; only
``--config`` and the output paths are flags outside it.  The flag is the key
with dashes, except where ``_FLAGS`` renames it, and ``--help`` prints every
default.  A setting resolves as its flag, else the config file, else the
default, before any file is read; the library's checks (``mlp.Head``,
``check_arm``, ``CostKind`` and the rest) are the only checks on its value,
so a bad flag and a bad config value fail alike.  A retired setting
(``_RETIRED``) that an older config file or manifest still gives replays at
the value the program now always uses, of the same type; any other value is
a configuration error.  Every subcommand but oracle-check, which only
prints, writes a manifest echoing the resolved configuration with its hash,
which only that subcommand replays.  An output file that names an input,
is a directory or whose directory is missing, and two outputs that name
the same file are refused before any input is read (report checks its
--out-dir after reading, before any solve).  Every CSV, read or written,
goes through ``data``.
Exit codes: 0 success (a FAILURE verdict is still a success), 1 operational
error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import benchgen, mlp
from .core import (brute_force_extreme_quantile, check_alpha, check_brute_force_m,
                   maximize_quantile, minimize_quantile, modulated_intervals_batch)
from .data import load_dataset_csv, load_feature_csv, write_table
from .dist import ComponentDistribution, Family
from .evalharness import (CostKind, EvalConfig, check_arm, cost_mass, coverage,
                          modulated_interval_arrays, run_experiment)
from .sensitivity import SensitivityConfig, check_gamma, msm_bounds

PROG = "modens"


class ConfigError(ValueError):
    """User-facing configuration problem; maps to exit code 2."""


@contextlib.contextmanager
def _config_errors(prefix: str = "", errors=(TypeError, ValueError)):
    """Report ``errors`` raised inside, such as a library check's
    ValueError, as a ConfigError after ``prefix``; a ConfigError passes
    through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{prefix}: {exc}" if prefix else str(exc)) from None


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(path: Path, subcommand: str, resolved: dict,
                    extra: dict | None = None) -> None:
    doc = {"subcommand": subcommand, "config": resolved,
           "config_hash": _config_hash(resolved)}
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir_files(out_dir: Path, *names: str, inputs=()) -> list[Path]:
    """Make ``out_dir`` and return its files ``names``, checked by ``_check_outputs``."""
    with _config_errors(f"out-dir {out_dir} is not writable", OSError):
        out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in names]
    _check_outputs(*paths, inputs=inputs)
    return paths


def _check_inputs_kept(outputs, inputs) -> None:
    """Refuse an output that names an input file, which it would overwrite."""
    read = {Path(path).resolve(): path for path in inputs}
    for path in outputs:
        if path.resolve() in read:
            raise ConfigError(f"output {path} names the input {read[path.resolve()]}")


def _check_outputs(*paths: Path, inputs=()) -> None:
    """Refuse an output that names one of ``inputs``, is a directory, or
    whose directory is missing or read-only, and two that name one file."""
    _check_inputs_kept(paths, inputs)
    seen = {}
    for path in paths:
        first = seen.setdefault(path.resolve(), path)
        if first is not path:
            raise ConfigError(f"outputs {first} and {path} name the same file")
        if path.is_dir():
            raise ConfigError(f"output {path} is a directory")
        if not path.parent.exists():
            raise ConfigError(f"output directory {path.parent} does not exist")
        if not os.access(path.parent, os.W_OK):
            raise ConfigError(f"output directory {path.parent} is not writable")


_REQUIRED = object()

_MODEL = ("model", str, _REQUIRED, "ensemble JSON")
_PROPENSITY = ("propensity_model", str, None,
               "propensity model JSON; without it, the one train wrote next to the model")
_TEST = ("test", str, _REQUIRED, "test CSV with y0/y1")
_SEED = ("seed", int, 0, "RNG seed, >= 0")
_ARM = ("arm", int, 1, "treatment arm scored, 0 or 1")

# Every setting a flag or the config file may give, by subcommand:
# (config key, type, default or _REQUIRED, help).  A None default means
# "not set", which the subcommand reads as its help says.
_SETTINGS = {
    "generate": (
        ("features", str, "none", "numeric CSV with one header row, every column a "
                                  "feature, or 'none' for the built-in surrogate"),
        ("seed", int, None, "RNG seed, >= 0; without it, the generator config's"),
    ),
    "train": (
        ("data", str, _REQUIRED, "training CSV"),
        ("head", str, "gaussian", "outcome head, gaussian or cauchy"),
        ("members", int, 16, "ensemble size"),
        _SEED,
        ("hidden", (str, list), "64,64", "comma-separated hidden-layer widths"),
        ("epochs", int, 2000, "training epochs per member"),
        ("warmup_epochs", int, None, "Gaussian warm-up epochs before Cauchy fine-tuning, "
                                     ">= 1; without it, epochs // 2"),
    ),
    "intervals": (
        _MODEL, _PROPENSITY,
        ("data", str, _REQUIRED, "dataset CSV"),
        ("gamma", float, _REQUIRED, "sensitivity budget"),
        ("alpha", float, _REQUIRED, "miscoverage"),
        ("arm", int, None, "score this arm on every row; without it, each row's treatment"),
    ),
    "gamma-search": (
        _MODEL, _PROPENSITY, _TEST,
        ("target_coverage", float, _REQUIRED, "coverage target"),
        ("alpha", float, None, "interval miscoverage; without it, 1 - target"),
        ("gamma_tol", float, 0.05, "search tolerance on gamma"),
        _ARM,
        ("cost_kind", str, "abs_std", "cost function, abs_std or mass"),
        _SEED,
    ),
    "oracle-check": (
        ("m", int, _REQUIRED, "ensemble size"),
        ("trials", int, 50, "random instances"),
        _SEED,
    ),
    "report": (
        _MODEL, _PROPENSITY, _TEST,
        ("gammas", str, "1,2,5,10,25,50", "comma-separated gammas of the coverage curve"),
        ("alpha", float, 0.05, "miscoverage"),
        _ARM,
    ),
}
_FLAGS = {"target_coverage": "--target", "cost_kind": "--cost"}

# Settings since retired, by subcommand: (config key, the value the program
# now always uses, why).  The value may be a function of the config section
# and the resolved settings: standardize follows the head the section names.
# Older config files and manifests may still give them; another value, or
# the same of another type, would change the answer, so it is refused.
_RETIRED = {
    "train": (("step", mlp._ADAM_STEP, f"Adam's step size is fixed at {mlp._ADAM_STEP}"),
              ("standardize",
               lambda config, s: config.get("head", s["head"]) == mlp.Head.GAUSSIAN.value,
               "Gaussian heads train on standardized outcomes, Cauchy heads on raw outcomes")),
    "report": (("lengths", None, "report no longer writes a relative-cost table"),),
}


def _flag(key: str) -> str:
    return _FLAGS.get(key, "--" + key.replace("_", "-"))


def _settings(args, config: dict) -> dict:
    """The subcommand's settings by config key, each resolved by
    ``_setting`` from its flag and the config file section ``config``;
    any retired setting the section gives is then checked."""
    s = {key: _setting(getattr(args, key), config, key, kind, default)
         for key, kind, default, _ in _SETTINGS[args.subcommand]}
    for key, value, why in _RETIRED.get(args.subcommand, ()):
        given = config.get(key)
        if callable(value):
            value = value(config, s)
        if given is not None and (type(given) is not type(value) or given != value):
            raise ConfigError(f"{key}={given!r} cannot be set: {why}")
    if s.get("seed") is not None:
        with _config_errors():
            benchgen.check_seed(s["seed"])
    return s


def _setting(flag_value, config: dict, key: str, kind: type, default):
    """Flag, else config-file ``key``, else ``default``, checked to be of
    ``kind`` (int, float, str or a tuple of types); a JSON null counts as
    not given."""
    value = flag_value if flag_value is not None else config.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{_flag(key)} is required, "
                              f"as a flag or as {key!r} in the config file")
        return default
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = type(value) is int
    else:
        ok = isinstance(value, kind)
    if not ok:
        names = (" or ".join(k.__name__ for k in kind) if isinstance(kind, tuple)
                 else kind.__name__)
        raise ConfigError(f"{key} must be {names}, got {value!r}")
    return float(value) if kind is float else value


def _command_config(args) -> dict:
    """The config file's settings for this subcommand: its section named
    after the subcommand, else the top level (a generator config has no
    ``generate`` key).  A manifest is read as its ``config``, and only by
    the subcommand that wrote it."""
    if args.config is None:
        return {}
    with _config_errors(f"config file {args.config}", (OSError, json.JSONDecodeError)):
        cfg_file = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(cfg_file, dict):
        raise ConfigError(f"config file {args.config}: expected a JSON object")
    writer = cfg_file.get("subcommand", args.subcommand)
    if writer != args.subcommand:
        raise ConfigError(f"config file {args.config} is a {writer} manifest, "
                          f"which {args.subcommand} cannot replay")
    if isinstance(cfg_file.get("config"), dict):
        cfg_file = cfg_file["config"]
    section = cfg_file.get(args.subcommand, cfg_file)
    if not isinstance(section, dict):
        raise ConfigError(f"config file {args.config}: {args.subcommand!r} must be an object")
    return section


# ---------------------------------------------------------------- generate

def _cmd_generate(args, s: dict, config: dict) -> int:
    # `features` sits beside the generator section (a manifest) or its fields
    rest = {k: v for k, v in config.items() if k != "features"}
    gen_cfg = rest.get("generator", rest)
    if not isinstance(gen_cfg, dict):
        raise ConfigError(f"config file {args.config}: 'generator' must be an object")
    if s["seed"] is not None:
        gen_cfg = {**gen_cfg, "seed": s["seed"]}
    with _config_errors("generator config"):
        gen = benchgen.config_from_dict(gen_cfg)
    out_dir = Path(args.out_dir)
    # the three CSVs write_benchmark writes, and the manifest
    features_path = s["features"]
    inputs = [] if features_path.lower() == "none" else [features_path]
    *_, manifest = _out_dir_files(out_dir, "train.csv", "valid.csv", "test.csv",
                                  "manifest.json", inputs=inputs)
    features = load_feature_csv(features_path) if inputs else None
    paths = benchgen.write_benchmark(features, gen, out_dir)
    _write_manifest(manifest, "generate",
                    {"generator": benchgen.config_to_dict(gen), "features": features_path},
                    extra={"files": {k: p.name for k, p in paths.items()}})
    print(f"wrote {paths['train']}, {paths['valid']}, {paths['test']}")
    return 0


# ------------------------------------------------------------------- train

def _train_config_from(s: dict, head: mlp.Head) -> mlp.TrainConfig:
    hidden = s["hidden"]
    widths = ([int(h) if h.strip().isdecimal() else h for h in hidden.split(",") if h]
              if isinstance(hidden, str) else hidden)
    if any(type(h) is not int for h in widths):
        raise ConfigError(f"hidden must be comma-separated integers or a list of "
                          f"integers, got {hidden!r}")
    with _config_errors("train config"):
        return mlp.TrainConfig(hidden=tuple(widths), epochs=s["epochs"], head=head,
                               warmup_epochs=s["warmup_epochs"])


def _cmd_train(args, s: dict, _config: dict) -> int:
    with _config_errors("head"):
        head = mlp.Head(s["head"])
    if head is mlp.Head.PROPENSITY:
        raise ConfigError("train fits outcome heads; the propensity model is fitted alongside")
    train_cfg = _train_config_from(s, head)
    with _config_errors():
        mlp.check_members(s["members"])
    out = Path(args.out)
    prop_path = _propensity_path_for(out, args.propensity_out)
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    _check_outputs(out, prop_path, manifest, inputs=[s["data"]])
    data = load_dataset_csv(s["data"])
    model = mlp.train_ensemble(data, train_cfg, s["seed"], m=s["members"])
    prop = mlp.fit_propensity(data, train_cfg, s["seed"])
    # nothing is written until both fits succeed
    mlp.save_model(model, out)
    mlp.save_propensity(prop, prop_path, seed=s["seed"])
    resolved = {**s, "hidden": list(train_cfg.hidden),
                "warmup_epochs": train_cfg.resolved_warmup_epochs()}
    _write_manifest(manifest, "train", resolved)
    print(f"wrote {out} and {prop_path}")
    return 0


def _propensity_path_for(model_path: Path, explicit: str | None) -> Path:
    return Path(explicit) if explicit else model_path.with_suffix(".propensity.json")


def _model_paths(s: dict) -> tuple[Path, Path]:
    """The ensemble's path and its propensity model's, by default the one train wrote beside it."""
    model_path = Path(s["model"])
    return model_path, _propensity_path_for(model_path, s["propensity_model"])


def _load_models(model_path: Path, prop_path: Path) -> tuple[mlp.EnsembleModel, mlp.MlpParams]:
    return mlp.load_model(model_path), mlp.load_propensity(prop_path)


# --------------------------------------------------------------- intervals

def _cmd_intervals(args, s: dict, _config: dict) -> int:
    arm = s["arm"]
    with _config_errors():
        check_gamma(s["gamma"])
        check_alpha(s["alpha"])
        if arm is not None:
            check_arm(arm)
    out = Path(args.out)
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    model_path, prop_path = _model_paths(s)
    _check_outputs(out, manifest, inputs=[model_path, prop_path, s["data"]])
    model, prop = _load_models(model_path, prop_path)
    data = load_dataset_csv(s["data"])
    t = data.treatments if arm is None else np.full(data.n, arm)
    (lo, hi), = modulated_interval_arrays(model, prop, data.covariates, t,
                                          s["alpha"])(s["gamma"])
    write_table(out, {"index": range(data.n), "t": t.tolist(), "lo": lo.tolist(),
                      "hi": hi.tolist()})
    _write_manifest(manifest, "intervals", {**s, "propensity_model": str(prop_path)})
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------- gamma-search

def _cmd_gamma_search(args, s: dict, _config: dict) -> int:
    target, alpha = s["target_coverage"], s["alpha"]
    if alpha is None and target == 1.0:
        raise ConfigError("--target 1.0 needs an explicit --alpha")
    with _config_errors("gamma-search config"):
        eval_cfg = EvalConfig(target_coverage=target,
                              alpha=1.0 - target if alpha is None else alpha,
                              gamma_tol=s["gamma_tol"], arm=s["arm"],
                              cost_kind=CostKind(s["cost_kind"]))
    out = Path(args.out)
    points = out.with_suffix(".points.csv")
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    model_path, prop_path = _model_paths(s)
    _check_outputs(out, points, manifest, inputs=[model_path, prop_path, s["test"]])
    test = load_dataset_csv(s["test"])
    if test.potential_outcomes is None:
        raise ConfigError(f"{s['test']}: gamma-search needs y0/y1 potential-outcome columns")
    model, prop = _load_models(model_path, prop_path)
    report = run_experiment(test, eval_cfg, model=model, propensity=prop, seed=s["seed"])
    report.write_json(out)
    report.write_points_csv(points, test.potential_outcomes[:, eval_cfg.arm])
    _write_manifest(manifest, "gamma-search",
                    {**s, **eval_cfg.to_dict(), "propensity_model": str(prop_path)},
                    extra={"solved_gammas": list(report.solved_gammas)})
    verdict = "FAILURE" if report.failed else f"gamma*={report.gamma_star:.4f}"
    print(f"{verdict} coverage={report.achieved_coverage:.4f} -> {out}")
    return 0


# ------------------------------------------------------------- oracle-check

ORACLE_TOL = 1e-6   # largest scale-normalized deviation oracle-check passes


def run_oracle_check(m: int, trials: int, seed: int) -> tuple[float, bool]:
    """Envelope solver against the brute-force oracle on random instances;
    returns the max scale-normalized deviation and whether every trial
    stayed within ``ORACLE_TOL``.  Each trial checks both extreme
    quantiles from the single-row solver and, for beta != 1/2, one end of
    a one-row ``modulated_intervals_batch`` interval: the lower end at
    alpha = 2 beta for beta < 1/2, the upper end at alpha = 2 (1 - beta)
    above it."""
    rng = np.random.default_rng(seed)
    gammas = (1.5, 3.0, 10.0)
    betas = (0.05, 0.5, 0.975)
    worst = 0.0
    for trial in range(trials):
        comps = []
        for _ in range(m):
            fam = Family.CAUCHY if rng.random() < 0.5 else Family.GAUSSIAN
            comps.append(ComponentDistribution(
                family=fam, location=float(rng.normal(0.0, 3.0)),
                scale=float(0.2 + abs(rng.normal(0.0, 1.5)))))
        gamma = float(gammas[trial % len(gammas)])
        beta = float(betas[(trial // len(gammas)) % len(betas)])
        e = float(rng.uniform(0.05, 0.95))
        bounds = msm_bounds(e, SensitivityConfig(gamma))
        norm = 1.0 + max(c.scale for c in comps)
        q_max, _ = maximize_quantile(comps, bounds, beta)
        q_min, _ = minimize_quantile(comps, bounds, beta)
        bf_max = brute_force_extreme_quantile(comps, bounds, beta, maximize=True)
        bf_min = brute_force_extreme_quantile(comps, bounds, beta, maximize=False)
        worst = max(worst, abs(q_max - bf_max) / norm, abs(q_min - bf_min) / norm)
        if beta != 0.5:
            lo, hi = modulated_intervals_batch(
                [c.family.code for c in comps], [[c.location for c in comps]],
                [[c.scale for c in comps]], [bounds.lower], [bounds.upper],
                2.0 * min(beta, 1.0 - beta))
            end = float(lo[0] if beta < 0.5 else hi[0])
            worst = max(worst, abs(end - (bf_min if beta < 0.5 else bf_max)) / norm)
    return worst, worst <= ORACLE_TOL


def _cmd_oracle_check(args, s: dict, _config: dict) -> int:
    m, trials = s["m"], s["trials"]
    with _config_errors():
        check_brute_force_m(m)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    worst, ok = run_oracle_check(m, trials, s["seed"])
    verdict = "OK" if ok else f"FAILED (tolerance {ORACLE_TOL:g})"
    print(f"oracle-check m={m} trials={trials} max deviation={worst:.3e} {verdict}")
    return 0 if ok else 1


# ------------------------------------------------------------------ report

def _cmd_report(args, s: dict, _config: dict) -> int:
    with _config_errors():
        gammas = [check_gamma(g) for g in s["gammas"].split(",") if g]
        check_alpha(s["alpha"])
        check_arm(s["arm"])
    if not gammas:
        raise ConfigError(f"gammas must list at least one gamma, got {s['gammas']!r}")
    names = ("coverage_curve.csv", "report.manifest.json")
    model_path, prop_path = _model_paths(s)
    _check_inputs_kept([Path(args.out_dir, name) for name in names],
                       [model_path, prop_path, s["test"]])
    model, prop = _load_models(model_path, prop_path)
    test = load_dataset_csv(s["test"])
    if test.potential_outcomes is None:
        raise ConfigError(f"{s['test']}: report needs y0/y1 columns")
    path, manifest = _out_dir_files(Path(args.out_dir), *names)
    arm = s["arm"]
    intervals = modulated_interval_arrays(model, prop, test.covariates,
                                          np.full(test.n, arm), s["alpha"])
    outcomes = test.potential_outcomes[:, arm]
    curve = intervals(*gammas)
    write_table(path, {"gamma": gammas,
                       "coverage": [coverage(lo, hi, outcomes) for lo, hi in curve],
                       "mean_length": [float(np.mean(hi - lo)) for lo, hi in curve],
                       "cost_mass": [cost_mass(lo, hi, outcomes) for lo, hi in curve]})
    _write_manifest(manifest, "report", {**s, "propensity_model": str(prop_path)})
    print(f"wrote {path}")
    return 0


# ------------------------------------------------------------------ parser

_COMMANDS = (
    ("generate", _cmd_generate, "write semi-synthetic benchmark CSVs"),
    ("train", _cmd_train, "train an outcome ensemble + propensity model"),
    ("intervals", _cmd_intervals, "per-row outcome intervals at fixed gamma"),
    ("gamma-search", _cmd_gamma_search, "search for the smallest adequate gamma"),
    ("oracle-check", _cmd_oracle_check,
     "envelope solver vs brute-force oracle on random instances"),
    ("report", _cmd_report, "plot-ready coverage/cost CSVs"),
)


def _default_text(default) -> str:
    if default is _REQUIRED:
        return "required"
    return "optional" if default is None else f"default {default}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Partially identified causal outcome intervals from "
                    "weight-modulated predictor ensembles")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON config file or written manifest; flags override its values")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))
    p = {}
    for name, func, text in _COMMANDS:
        p[name] = sub.add_parser(name, help=text)
        p[name].set_defaults(func=func)
        for key, kind, default, help_text in _SETTINGS[name]:
            p[name].add_argument(_flag(key), dest=key, default=None,
                                 type=kind if kind in (int, float) else str,
                                 help=f"{help_text} ({_default_text(default)})")
    # flag-only arguments: the output paths
    p["generate"].add_argument("--out-dir", required=True)
    p["train"].add_argument("--out", required=True, help="ensemble JSON to write")
    p["train"].add_argument("--propensity-out", default=None,
                            help="propensity model JSON to write; without it, next to --out")
    p["intervals"].add_argument("--out", required=True)
    p["gamma-search"].add_argument("--out", required=True)
    p["report"].add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _command_config(args)
        return args.func(args, _settings(args, config), config)
    except ConfigError as exc:
        print(f"{PROG}: config error: {exc}", file=sys.stderr)
        return 2
    # data, model-file and divergence errors included
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
