"""Command-line surface: generate / train / intervals / gamma-search /
oracle-check / report.

Config precedence is CLI flags over --config file over built-in defaults.
Every subcommand but oracle-check, which only prints, writes a manifest
echoing the resolved configuration with its hash.  Exit codes: 0 success (a FAILURE verdict is still a success), 1
operational error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from . import benchgen, mlp
from .core import (BRUTE_FORCE_MAX_M, brute_force_extreme_quantile, maximize_quantile,
                   minimize_quantile, modulated_intervals_batch)
from .data import DatasetFormatError, load_dataset_csv
from .dist import ComponentDistribution, Family
from .evalharness import (CostKind, EvalConfig, cost_mass, cost_relative, coverage,
                          modulated_interval_arrays, run_experiment)
from .sensitivity import SensitivityConfig, msm_bounds

PROG = "modens"


class ConfigError(ValueError):
    """User-facing configuration problem; maps to exit code 2."""


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    # a previously written manifest can be replayed directly
    if "config" in doc and isinstance(doc["config"], dict):
        return doc["config"]
    return doc


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


def _check_writable_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".modens-write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"out-dir {out_dir} is not writable: {exc}") from None


def _check_writable_parent(out: Path) -> None:
    parent = out.parent if out.parent != Path("") else Path(".")
    if not parent.exists():
        raise ConfigError(f"output directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"output directory {parent} is not writable")


_REQUIRED = object()


def _setting(flag_value, config: dict, key: str, kind: type, default=_REQUIRED,
             flag: str | None = None):
    """Flag, else config-file ``key``, else ``default``, checked to be of
    ``kind`` (int, float, str or a tuple of types); a JSON null counts as
    not given."""
    value = flag_value if flag_value is not None else config.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{flag or '--' + key.replace('_', '-')} is required, "
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
    after the subcommand, else the top level (a replayed manifest)."""
    cfg_file = _load_config_file(args.config)
    section = cfg_file.get(args.subcommand, cfg_file)
    if not isinstance(section, dict):
        raise ConfigError(f"config file {args.config}: {args.subcommand!r} must be an object")
    return section


# ---------------------------------------------------------------- generate

def _cmd_generate(args) -> int:
    cfg_file = _load_config_file(args.config)
    features_path = _setting(args.features, cfg_file, "features", str, "none")
    # `features` sits beside the generator section (a manifest) or its fields
    rest = {k: v for k, v in cfg_file.items() if k != "features"}
    gen_cfg = rest.get("generator", rest)
    if not isinstance(gen_cfg, dict):
        raise ConfigError(f"config file {args.config}: 'generator' must be an object")
    if args.seed is not None:
        gen_cfg = {**gen_cfg, "seed": args.seed}
    try:
        config = benchgen.config_from_dict(gen_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator config: {exc}") from None
    out_dir = Path(args.out_dir)
    _check_writable_dir(out_dir)
    features = None if features_path.lower() == "none" else _load_matrix_csv(features_path)
    paths = benchgen.write_benchmark(features, config, out_dir)
    _write_manifest(out_dir / "manifest.json", "generate",
                    {"generator": benchgen.config_to_dict(config), "features": features_path},
                    extra={"files": {k: p.name for k, p in paths.items()}})
    print(f"wrote {paths['train']}, {paths['valid']}, {paths['test']}")
    return 0


def _load_matrix_csv(path: str) -> np.ndarray:
    """A numeric CSV with one header row; every column is a feature, and
    every value must be finite."""
    try:
        with warnings.catch_warnings():
            # a header-only file is reported by generate as too few rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: the default "#" would read "1,2 # c" as [1, 2]
            matrix = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                                dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise _non_finite_feature(path, int(bad[0]))
    return matrix


def _non_finite_feature(path: str, index: int) -> DatasetFormatError:
    """The error naming data row `index` of a feature file, counting the
    header as row 1 and the blank lines that np.loadtxt skips as rows."""
    with open(path, encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        numbered = ((lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, start=2))
        lineno, line = next(islice(((k, line) for k, line in numbered if line), index, None))
    row = line.split(",")
    j = next(j for j, v in enumerate(row) if not math.isfinite(float(v)))
    return DatasetFormatError(
        f"{path}: row {lineno}: feature {header[j].strip()!r} must be finite, got {row[j]!r}")


# ------------------------------------------------------------------- train

def _train_config_from(args, section: dict, head: mlp.Head) -> mlp.TrainConfig:
    hidden = _setting(args.hidden, section, "hidden", (str, list), "64,64")
    widths = ([int(h) if h.strip().isdecimal() else h for h in hidden.split(",") if h]
              if isinstance(hidden, str) else hidden)
    if any(type(h) is not int for h in widths):
        raise ConfigError(f"hidden must be comma-separated integers or a list of "
                          f"integers, got {hidden!r}")
    try:
        return mlp.TrainConfig(
            hidden=tuple(widths),
            epochs=_setting(args.epochs, section, "epochs", int, 2000),
            step=_setting(args.step, section, "step", float, 1e-2),
            head=head,
            warmup_epochs=section.get("warmup_epochs"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train config: {exc}") from None


def _cmd_train(args) -> int:
    section = _command_config(args)
    head_name = _setting(args.head, section, "head", str, "gaussian")
    try:
        head = mlp.Head(head_name)
    except ValueError:
        raise ConfigError(f"unknown head {head_name!r}") from None
    if head is mlp.Head.PROPENSITY:
        raise ConfigError("train fits outcome heads; the propensity model is fitted alongside")
    _check_standardize_record(section, head)
    config = _train_config_from(args, section, head)
    members = _setting(args.members, section, "members", int, 16)
    if members < 1:
        raise ConfigError(f"members must be an integer >= 1, got {members!r}")
    seed = _setting(args.seed, section, "seed", int, 0)
    out = Path(args.out)
    _check_writable_parent(out)
    data = load_dataset_csv(args.data)
    model = mlp.train_ensemble(data, config, seed, m=members)
    mlp.save_model(model, out)
    prop_path = _propensity_path_for(out, args.propensity_out)
    prop = mlp.fit_propensity(data, config, seed)
    mlp.save_propensity(prop, prop_path, seed=seed)
    resolved = {"data": str(args.data), "head": head.value, "members": members,
                "seed": seed, "hidden": list(config.hidden), "epochs": config.epochs,
                "step": config.step, "warmup_epochs": config.resolved_warmup_epochs()}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "train", resolved)
    print(f"wrote {out} and {prop_path}")
    return 0


def _check_standardize_record(section: dict, head: mlp.Head) -> None:
    """``standardize`` is not a setting: Gaussian heads train on
    standardized outcomes and Cauchy heads on raw ones.  Older manifests
    record that rule for the head they name, so a matching value replays;
    a ``--head`` flag that changes the head brings its own rule."""
    value = section.get("standardize")
    named = section.get("head", head.value)
    if value is not None and value is not (named == mlp.Head.GAUSSIAN.value):
        raise ConfigError(f"standardize={value!r} cannot be set: Gaussian heads train on "
                          f"standardized outcomes, Cauchy heads on raw outcomes")


def _propensity_path_for(model_path: Path, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return model_path.with_suffix(".propensity.json")


def _load_models(model_path: Path, propensity_model: str | None
                 ) -> tuple[mlp.EnsembleModel, mlp.MlpParams, str]:
    """The ensemble, its propensity model (by default the one `train` wrote
    next to it) and the propensity path, which the manifest records so
    that a replay loads the same file."""
    prop_path = _propensity_path_for(model_path, propensity_model)
    return mlp.load_model(model_path), mlp.load_propensity(prop_path), str(prop_path)


# --------------------------------------------------------------- intervals

def _cmd_intervals(args) -> int:
    cfg = _command_config(args)
    model_path = Path(_setting(args.model, cfg, "model", str))
    propensity_model = _setting(args.propensity_model, cfg, "propensity_model", str, None)
    data_path = _setting(args.data, cfg, "data", str)
    gamma = _setting(args.gamma, cfg, "gamma", float)
    alpha = _setting(args.alpha, cfg, "alpha", float)
    arm = _setting(args.arm, cfg, "arm", int, None)
    seed = _setting(args.seed, cfg, "seed", int, 0)
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ConfigError(f"gamma must be finite and >= 1, got {gamma}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if arm not in (None, 0, 1):
        raise ConfigError(f"arm must be 0 or 1, got {arm}")
    out = Path(args.out)
    _check_writable_parent(out)
    model, prop, prop_path = _load_models(model_path, propensity_model)
    data = load_dataset_csv(data_path)

    t = data.treatments if arm is None else np.full(data.n, arm)
    lo, hi = modulated_interval_arrays(model, prop, data.covariates, t, alpha)(gamma)
    lines = ["index,t,lo,hi"]
    for i, (t_i, lo_i, hi_i) in enumerate(zip(t.tolist(), lo.tolist(), hi.tolist())):
        lines.append(f"{i},{t_i},{lo_i!r},{hi_i!r}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    resolved = {"model": str(model_path), "propensity_model": prop_path,
                "data": data_path, "gamma": gamma, "alpha": alpha, "arm": arm,
                "seed": seed}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "intervals", resolved)
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------- gamma-search

def _cmd_gamma_search(args) -> int:
    cfg = _command_config(args)
    model_path = Path(_setting(args.model, cfg, "model", str))
    propensity_model = _setting(args.propensity_model, cfg, "propensity_model", str, None)
    test_path = _setting(args.test, cfg, "test", str)
    target = _setting(args.target, cfg, "target_coverage", float, flag="--target")
    alpha = _setting(args.alpha, cfg, "alpha", float, None)
    gamma_tol = _setting(args.gamma_tol, cfg, "gamma_tol", float, 0.05)
    arm = _setting(args.arm, cfg, "arm", int, 1)
    cost = _setting(args.cost, cfg, "cost_kind", str, "abs_std", flag="--cost")
    seed = _setting(args.seed, cfg, "seed", int, 0)
    if alpha is None and target == 1.0:
        raise ConfigError("--target 1.0 needs an explicit --alpha")
    try:
        eval_cfg = EvalConfig(target_coverage=target,
                              alpha=1.0 - target if alpha is None else alpha,
                              gamma_tol=gamma_tol, arm=arm, cost_kind=CostKind(cost))
    except ValueError as exc:
        raise ConfigError(f"gamma-search config: {exc}") from None
    out = Path(args.out)
    _check_writable_parent(out)
    test = load_dataset_csv(test_path)
    if test.potential_outcomes is None:
        raise ConfigError(f"{test_path}: gamma-search needs y0/y1 potential-outcome columns")
    model, prop, prop_path = _load_models(model_path, propensity_model)
    report = run_experiment(test, eval_cfg, model=model, propensity=prop, seed=seed,
                            report_json=out, points_csv=out.with_suffix(".points.csv"))
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "gamma-search",
                    {"model": str(model_path), "propensity_model": prop_path,
                     "test": test_path, "seed": seed, **eval_cfg.to_dict()},
                    extra={"solved_gammas": list(report.solved_gammas),
                           "predicted_steps": report.predicted_steps})
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
    the batch solver's interval: the lower end at alpha = 2 beta for
    beta < 1/2, the upper end at alpha = 2 (1 - beta) above it.  One
    ``modulated_intervals_batch`` call solves all trials with the same
    member families and beta, which a call shares across its rows."""
    rng = np.random.default_rng(seed)
    gammas = (1.5, 3.0, 10.0)
    betas = (0.05, 0.5, 0.975)
    worst = 0.0
    batches: dict[tuple, list] = {}
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
            key = (tuple(c.family.code for c in comps), beta)
            batches.setdefault(key, []).append((comps, bounds, bf_min if beta < 0.5 else bf_max))
    for (fam, beta), rows in batches.items():
        members, bounds, oracle = zip(*rows)
        scales = np.array([[c.scale for c in row] for row in members])
        lo, hi = modulated_intervals_batch(
            fam, [[c.location for c in row] for row in members], scales,
            [b.lower for b in bounds], [b.upper for b in bounds], 2.0 * min(beta, 1.0 - beta))
        deviation = np.abs((lo if beta < 0.5 else hi) - oracle) / (1.0 + scales.max(axis=1))
        worst = max(worst, float(deviation.max()))
    return worst, worst <= ORACLE_TOL


def _cmd_oracle_check(args) -> int:
    cfg = _command_config(args)
    m = _setting(args.m, cfg, "m", int)
    trials = _setting(args.trials, cfg, "trials", int, 50)
    seed = _setting(args.seed, cfg, "seed", int, 0)
    if m > BRUTE_FORCE_MAX_M:
        raise ConfigError(
            f"m={m} refused: the brute-force oracle costs m * 2^m quantile "
            f"solves and is capped at m <= {BRUTE_FORCE_MAX_M}")
    if m < 1 or trials < 1:
        raise ConfigError("m and trials must be >= 1")
    worst, ok = run_oracle_check(m, trials, seed)
    verdict = "OK" if ok else f"FAILED (tolerance {ORACLE_TOL:g})"
    print(f"oracle-check m={m} trials={trials} max deviation={worst:.3e} {verdict}")
    return 0 if ok else 1


# ------------------------------------------------------------------ report

def _cmd_report(args) -> int:
    cfg = _command_config(args)
    lengths_path = _setting(args.lengths, cfg, "lengths", str, None)
    model_path = _setting(args.model, cfg, "model", str, None)
    propensity_model = _setting(args.propensity_model, cfg, "propensity_model", str, None)
    test_path = _setting(args.test, cfg, "test", str, None)
    gammas_arg = _setting(args.gammas, cfg, "gammas", str, "1,2,5,10,25,50")
    alpha = _setting(args.alpha, cfg, "alpha", float, 0.05)
    arm = _setting(args.arm, cfg, "arm", int, 1)
    out_dir = Path(args.out_dir)
    _check_writable_dir(out_dir)
    wrote = []
    if lengths_path:
        try:
            lengths = json.loads(Path(lengths_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"lengths file: {exc}") from None
        # bools are ints to json; NaN and Infinity parse as floats
        if not (isinstance(lengths, dict) and lengths and all(
                type(v) in (int, float) and 0.0 < v < math.inf for v in lengths.values())):
            raise ConfigError(f"lengths file {lengths_path}: expected a JSON object "
                              f"mapping method names to finite positive numbers")
        rel = cost_relative({str(k): float(v) for k, v in lengths.items()})
        lines = ["method,mean_length,relative_cost,excess"]
        for name in sorted(rel):
            lines.append(f"{name},{float(lengths[name])!r},{rel[name]!r},{rel[name] - 1.0!r}")
        path = out_dir / "relative_costs.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        wrote.append(path)
    if model_path and test_path:
        try:
            gammas = [float(g) for g in gammas_arg.split(",") if g]
        except ValueError as exc:
            raise ConfigError(f"report config: {exc}") from None
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
        if arm not in (0, 1):
            raise ConfigError(f"arm must be 0 or 1, got {arm}")
        if not gammas or not all(math.isfinite(g) and g >= 1.0 for g in gammas):
            raise ConfigError(f"gammas must be finite numbers >= 1, got {gammas_arg!r}")
        model, prop, propensity_model = _load_models(Path(model_path), propensity_model)
        test = load_dataset_csv(test_path)
        if test.potential_outcomes is None:
            raise ConfigError(f"{test_path}: report needs y0/y1 columns")
        intervals = modulated_interval_arrays(model, prop, test.covariates,
                                              np.full(test.n, arm), alpha)
        outcomes = test.potential_outcomes[:, arm]
        lines = ["gamma,coverage,mean_length,cost_mass"]
        for g in gammas:
            lo, hi = intervals(g)
            cov = coverage(lo, hi, outcomes)
            mean_len = float(np.mean(hi - lo))
            lines.append(f"{g!r},{cov!r},{mean_len!r},{cost_mass(lo, hi, outcomes)!r}")
        path = out_dir / "coverage_curve.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        wrote.append(path)
    if not wrote:
        raise ConfigError("report needs --lengths and/or (--model and --test)")
    _write_manifest(out_dir / "report.manifest.json", "report",
                    {"lengths": lengths_path, "model": model_path,
                     "propensity_model": propensity_model, "test": test_path,
                     "gammas": gammas_arg,
                     "alpha": alpha, "arm": arm})
    print("wrote " + ", ".join(str(p) for p in wrote))
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Partially identified causal outcome intervals from "
                    "weight-modulated predictor ensembles")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default 0)")
    common.add_argument("--config", default=None,
                        help="JSON config file; CLI flags override its values")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    # Options a config file can set have no parser default; each command
    # resolves them as flag, then config file, then the default in its help.
    p = sub.add_parser("generate", help="write semi-synthetic benchmark CSVs")
    p.add_argument("--features", default=None,
                   help="numeric CSV with one header row, every column a feature, "
                        "or 'none' for the built-in surrogate (default none)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train an outcome ensemble + propensity model")
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=("gaussian", "cauchy"), default=None,
                   help="outcome head (default gaussian)")
    p.add_argument("--members", type=int, default=None, help="ensemble size (default 16)")
    p.add_argument("--out", required=True)
    p.add_argument("--propensity-out", default=None)
    p.add_argument("--hidden", default=None, help="comma-separated widths, e.g. 64,64")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("intervals", help="per-row outcome intervals at fixed gamma")
    p.add_argument("--model", default=None, help="ensemble JSON (required)")
    p.add_argument("--propensity-model", default=None)
    p.add_argument("--data", default=None, help="dataset CSV (required)")
    p.add_argument("--gamma", type=float, default=None, help="sensitivity budget (required)")
    p.add_argument("--alpha", type=float, default=None, help="miscoverage (required)")
    p.add_argument("--arm", type=int, choices=(0, 1), default=None,
                   help="score a fixed arm instead of each row's treatment")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("gamma-search", help="binary-search the smallest adequate gamma")
    p.add_argument("--model", default=None, help="ensemble JSON (required)")
    p.add_argument("--propensity-model", default=None)
    p.add_argument("--test", default=None, help="test CSV with y0/y1 (required)")
    p.add_argument("--target", type=float, default=None,
                   help="coverage target (required; config key target_coverage)")
    p.add_argument("--cost", choices=[k.value for k in CostKind], default=None,
                   help="cost function (default abs_std; config key cost_kind)")
    p.add_argument("--alpha", type=float, default=None,
                   help="interval miscoverage (default 1 - target)")
    p.add_argument("--arm", type=int, choices=(0, 1), default=None, help="(default 1)")
    p.add_argument("--gamma-tol", type=float, default=None, help="(default 0.05)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gamma_search)

    p = sub.add_parser("oracle-check",
                       help="envelope solver vs brute-force oracle on random instances")
    p.add_argument("--m", type=int, default=None, help="ensemble size (required)")
    p.add_argument("--trials", type=int, default=None, help="(default 50)")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("report", help="plot-ready coverage/cost CSVs")
    p.add_argument("--model", default=None)
    p.add_argument("--propensity-model", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--gammas", default=None, help="(default 1,2,5,10,25,50)")
    p.add_argument("--alpha", type=float, default=None, help="(default 0.05)")
    p.add_argument("--arm", type=int, choices=(0, 1), default=None, help="(default 1)")
    p.add_argument("--lengths", default=None,
                   help="JSON {method: mean_length} for relative-cost tables")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{PROG}: config error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, mlp.ModelFileError, mlp.TrainingDivergedError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
