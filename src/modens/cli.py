"""Command-line surface: generate / train / intervals / gamma-search /
oracle-check / report.

Config precedence is CLI flags over --config file over built-in defaults.
Every run writes a manifest echoing the resolved configuration with its
hash.  Exit codes: 0 success (a FAILURE verdict is still a success), 1
operational error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import benchgen, mlp
from .core import brute_force_extreme_quantile, maximize_quantile, minimize_quantile
from .data import DatasetFormatError, load_dataset_csv
from .dist import ComponentDistribution, Family
from .evalharness import (CostKind, EvalConfig, cost_mass, cost_relative,
                          coverage, modulated_interval_arrays, modulated_pipeline,
                          run_experiment)
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


def _resolve(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


# ---------------------------------------------------------------- generate

def _cmd_generate(args) -> int:
    cfg_file = _load_config_file(args.config)
    gen_cfg = cfg_file.get("generator", cfg_file)
    if args.seed is not None:
        gen_cfg = {**gen_cfg, "seed": args.seed}
    try:
        config = benchgen.config_from_dict(gen_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator config: {exc}") from None
    out_dir = Path(args.out_dir)
    _check_writable_dir(out_dir)
    features = None
    if args.features and args.features.lower() != "none":
        features = load_dataset_csv(args.features).covariates \
            if _looks_like_dataset(args.features) else _load_matrix_csv(args.features)
    paths = benchgen.write_benchmark(features, config, out_dir)
    _write_manifest(out_dir / "manifest.json", "generate",
                    {"generator": benchgen.config_to_dict(config)},
                    extra={"files": {k: p.name for k, p in paths.items()
                                     if k != "manifest"}})
    print(f"wrote {paths['train']}, {paths['valid']}, {paths['test']}")
    return 0


def _looks_like_dataset(path: str) -> bool:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return "t" in header and "y" in header


def _load_matrix_csv(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


# ------------------------------------------------------------------- train

def _train_config_from(args, section: dict, head: mlp.Head) -> mlp.TrainConfig:
    hidden = _resolve(args.hidden, section, "hidden", (64, 64))
    if isinstance(hidden, str):
        hidden = tuple(int(h) for h in hidden.split(",") if h)
    try:
        return mlp.TrainConfig(
            hidden=tuple(int(h) for h in hidden),
            epochs=int(_resolve(args.epochs, section, "epochs", 2000)),
            step=float(_resolve(args.step, section, "step", 1e-2)),
            head=head,
            standardize=section.get("standardize"),
            warmup_epochs=section.get("warmup_epochs"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train config: {exc}") from None


def _cmd_train(args) -> int:
    cfg_file = _load_config_file(args.config)
    section = cfg_file.get("train", cfg_file)
    head_name = _resolve(args.head, section, "head", "gaussian")
    try:
        head = mlp.Head(head_name)
    except (TypeError, ValueError):
        raise ConfigError(f"unknown head {head_name!r}") from None
    if head is mlp.Head.PROPENSITY:
        raise ConfigError("train fits outcome heads; the propensity model is fitted alongside")
    config = _train_config_from(args, section, head)
    # --members has a parser default, so it wins only when it was given
    members = _resolve(args.members if args.members_given else None,
                       section, "members", args.members)
    if type(members) is not int or members < 1:
        raise ConfigError(f"members must be an integer >= 1, got {members!r}")
    seed = _resolve(args.seed, section, "seed", 0)
    if type(seed) is not int:
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    out = Path(args.out)
    _check_writable_parent(out)
    data = load_dataset_csv(args.data)
    model = mlp.train_ensemble(data, config, seed, m=members)
    mlp.save_model(model, out)
    prop_path = Path(args.propensity_out) if args.propensity_out else \
        out.with_suffix(".propensity.json")
    prop = mlp.fit_propensity(data, config, seed)
    mlp.save_propensity(prop, prop_path, seed=seed)
    resolved = {"data": str(args.data), "head": head.value, "members": members,
                "seed": seed, "hidden": list(config.hidden), "epochs": config.epochs,
                "step": config.step, "standardize": config.resolved_standardize(),
                "warmup_epochs": config.resolved_warmup_epochs()}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "train", resolved)
    print(f"wrote {out} and {prop_path}")
    return 0


def _propensity_path_for(model_path: Path, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return model_path.with_suffix(".propensity.json")


# --------------------------------------------------------------- intervals

def _cmd_intervals(args) -> int:
    model_path = Path(args.model)
    model = mlp.load_model(model_path)
    prop = mlp.load_propensity(_propensity_path_for(model_path, args.propensity_model))
    data = load_dataset_csv(args.data)
    gamma = float(args.gamma)
    alpha = float(args.alpha)
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ConfigError(f"gamma must be finite and >= 1, got {gamma}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    out = Path(args.out)
    _check_writable_parent(out)

    t = data.treatments if args.arm is None else np.full(data.n, int(args.arm))
    lo, hi = modulated_interval_arrays(model, prop, data.covariates, t, alpha)(gamma)
    lines = ["index,t,lo,hi"]
    for i, (t_i, lo_i, hi_i) in enumerate(zip(t.tolist(), lo.tolist(), hi.tolist())):
        lines.append(f"{i},{t_i},{lo_i!r},{hi_i!r}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    resolved = {"model": str(model_path), "data": str(args.data), "gamma": gamma,
                "alpha": alpha, "arm": args.arm,
                "seed": args.seed if args.seed is not None else 0}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "intervals", resolved)
    print(f"wrote {out}")
    return 0


# ------------------------------------------------------------- gamma-search

def _cmd_gamma_search(args) -> int:
    model_path = Path(args.model)
    test = load_dataset_csv(args.test)
    if test.potential_outcomes is None:
        raise ConfigError(f"{args.test}: gamma-search needs y0/y1 potential-outcome columns")
    target = float(args.target)
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target must be in (0, 1], got {target}")
    try:
        cost_kind = CostKind(args.cost)
    except ValueError:
        raise ConfigError(f"unknown cost kind {args.cost!r}") from None
    if args.alpha is not None:
        alpha = float(args.alpha)
    elif target < 1.0:
        alpha = 1.0 - target
    else:
        raise ConfigError("--target 1.0 needs an explicit --alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if target >= 1.0:
        # coverage of a closed target of 1.0 is unattainable at finite gamma
        # on unbounded outcome laws; keep it representable so the FAILURE
        # path is reachable by scripted checks
        target = 1.0 - 1e-12
    out = Path(args.out)
    _check_writable_parent(out)
    try:
        eval_cfg = EvalConfig(target_coverage=target, alpha=alpha,
                              gamma_tol=float(args.gamma_tol), arm=int(args.arm),
                              cost_kind=cost_kind)
    except ValueError as exc:
        raise ConfigError(f"gamma-search config: {exc}") from None
    seed = args.seed if args.seed is not None else 0
    points_path = out.with_suffix(".points.csv")
    report = run_experiment(
        test, eval_cfg, model=model_path,
        propensity=_propensity_path_for(model_path, args.propensity_model),
        seed=seed, report_json=out, points_csv=points_path)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "gamma-search",
                    {"model": str(model_path), "test": str(args.test),
                     "seed": seed, **eval_cfg.to_dict()})
    verdict = "FAILURE" if report.failed else f"gamma*={report.gamma_star:.4f}"
    print(f"{verdict} coverage={report.achieved_coverage:.4f} -> {out}")
    return 0


# ------------------------------------------------------------- oracle-check

def run_oracle_check(m: int, trials: int, seed: int, tol: float = 1e-6
                     ) -> tuple[float, bool]:
    """Envelope solver against the brute-force oracle on random instances;
    returns the max scale-normalized deviation and whether every trial
    stayed within tol."""
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
    return worst, worst <= tol


def _cmd_oracle_check(args) -> int:
    if args.m > 10:
        raise ConfigError(
            f"m={args.m} refused: the brute-force oracle costs m * 2^m quantile "
            f"solves and is capped at m <= 10")
    if args.m < 1 or args.trials < 1:
        raise ConfigError("m and trials must be >= 1")
    seed = args.seed if args.seed is not None else 0
    worst, ok = run_oracle_check(args.m, args.trials, seed)
    print(f"oracle-check m={args.m} trials={args.trials} max deviation={worst:.3e} "
          f"{'OK' if ok else 'FAILED (tolerance 1e-6)'}")
    return 0 if ok else 1


# ------------------------------------------------------------------ report

def _cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    _check_writable_dir(out_dir)
    wrote = []
    if args.lengths:
        try:
            lengths = json.loads(Path(args.lengths).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"lengths file: {exc}") from None
        rel = cost_relative({str(k): float(v) for k, v in lengths.items()})
        lines = ["method,mean_length,relative_cost,excess"]
        for name in sorted(rel):
            lines.append(f"{name},{float(lengths[name])!r},{rel[name]!r},{rel[name] - 1.0!r}")
        path = out_dir / "relative_costs.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        wrote.append(path)
    if args.model and args.test:
        try:
            gammas = [float(g) for g in args.gammas.split(",") if g]
            eval_cfg = EvalConfig(target_coverage=0.5, alpha=float(args.alpha),
                                  arm=int(args.arm))
        except ValueError as exc:
            raise ConfigError(f"report config: {exc}") from None
        for g in gammas:
            if not (math.isfinite(g) and g >= 1.0):
                raise ConfigError(f"gamma must be finite and >= 1, got {g}")
        model = mlp.load_model(Path(args.model))
        prop = mlp.load_propensity(_propensity_path_for(Path(args.model),
                                                        args.propensity_model))
        test = load_dataset_csv(args.test)
        if test.potential_outcomes is None:
            raise ConfigError(f"{args.test}: report needs y0/y1 columns")
        pipeline = modulated_pipeline(model, prop, test, eval_cfg)
        outcomes = test.potential_outcomes[:, eval_cfg.arm]
        lines = ["gamma,coverage,mean_length,cost_mass"]
        for g in gammas:
            ivs = pipeline(g)
            cov = coverage(ivs, outcomes)
            mean_len = float(np.mean([iv.length for iv in ivs]))
            lines.append(f"{g!r},{cov!r},{mean_len!r},{cost_mass(ivs, outcomes)!r}")
        path = out_dir / "coverage_curve.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        wrote.append(path)
    if not wrote:
        raise ConfigError("report needs --lengths and/or (--model and --test)")
    _write_manifest(out_dir / "report.manifest.json", "report",
                    {"lengths": args.lengths, "model": args.model,
                     "test": args.test, "gammas": args.gammas,
                     "alpha": args.alpha, "arm": args.arm})
    print("wrote " + ", ".join(str(p) for p in wrote))
    return 0


# ------------------------------------------------------------------ parser

class _StoreGiven(argparse.Action):
    """Stores the value and sets `<dest>_given`, so that a config file can
    still fill an option that has a parser default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, self.dest + "_given", True)


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

    p = sub.add_parser("generate", help="write semi-synthetic benchmark CSVs")
    p.add_argument("--features", default="none",
                   help="feature CSV or 'none' for the built-in surrogate")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train an outcome ensemble + propensity model")
    p.add_argument("--data", required=True)
    p.add_argument("--head", choices=("gaussian", "cauchy"), default=None,
                   help="outcome head (default gaussian)")
    p.add_argument("--members", type=int, default=16, action=_StoreGiven)
    p.add_argument("--out", required=True)
    p.add_argument("--propensity-out", default=None)
    p.add_argument("--hidden", default=None, help="comma-separated widths, e.g. 64,64")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=_cmd_train, members_given=False)

    p = sub.add_parser("intervals", help="per-row outcome intervals at fixed gamma")
    p.add_argument("--model", required=True)
    p.add_argument("--propensity-model", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--gamma", required=True, type=float)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--arm", type=int, choices=(0, 1), default=None,
                   help="score a fixed arm instead of each row's treatment")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("gamma-search", help="binary-search the smallest adequate gamma")
    p.add_argument("--model", required=True)
    p.add_argument("--propensity-model", default=None)
    p.add_argument("--test", required=True)
    p.add_argument("--target", required=True, type=float)
    p.add_argument("--cost", choices=[k.value for k in CostKind], default="abs_std")
    p.add_argument("--alpha", type=float, default=None,
                   help="interval miscoverage (default 1 - target)")
    p.add_argument("--arm", type=int, choices=(0, 1), default=1)
    p.add_argument("--gamma-tol", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gamma_search)

    p = sub.add_parser("oracle-check",
                       help="envelope solver vs brute-force oracle on random instances")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("report", help="plot-ready coverage/cost CSVs")
    p.add_argument("--model", default=None)
    p.add_argument("--propensity-model", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--gammas", default="1,2,5,10,25,50")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--arm", type=int, choices=(0, 1), default=1)
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
