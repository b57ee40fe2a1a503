"""Semi-synthetic hidden-confounding benchmark generator.

A feature matrix (real data, or a seeded low-rank surrogate) is randomly
projected into 32 visible confounders, 1 treatment column, and 32 hidden
confounders.  Confounder columns are rank-normalized onto a Uniform[0,1)
grid, the treatment column is binarized by thresholding at 2/3 (so controls
outnumber treated), and the outcome is the quadratic form u = V' M V with
the treatment diagonal of M boosted by 64 and heavy-tailed Cauchy
observation noise.  Test sets carry both-arm potential outcomes obtained by
forcing the treatment coordinate and drawing fresh noise, while the hidden
block is withheld from every emitted covariate matrix.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, save_dataset_csv

# shape of the fallback feature matrix: columns, and the factor-model rank
SYNTHETIC_FEATURES = 128
SYNTHETIC_RANK = 8


@dataclass(frozen=True)
class GeneratorConfig:
    n_visible: int = 32
    n_hidden: int = 32
    treatment_threshold: float = 2.0 / 3.0
    treatment_boost: float = 64.0
    noise_scale: float = 1.0
    seed: int = 0
    n_train: int = 8192
    n_valid: int = 2048
    n_test: int = 2048
    # cauchy matches the benchmark recipe; gaussian gives a well-specified
    # setting for calibration checks
    noise_family: str = "cauchy"
    # deterministic mode: y = u exactly (the noise_scale -> 0 limit)
    noiseless: bool = False
    # keep the hidden block at zero so all confounding is visible
    zero_hidden: bool = False

    def __post_init__(self):
        # JSON configs arrive unchecked (a string "false" is truthy): each
        # field has its default's type, and a float field takes a finite int
        # or float, so bools, NaN and infinities fail
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            ok = (type(value) in (int, float) and math.isfinite(value) if kind is float
                  else type(value) is kind)
            if not ok:
                want = "a finite number" if kind is float else kind.__name__
                raise ValueError(f"{f.name} must be {want}, got {value!r}")
        if self.n_visible < 1 or self.n_hidden < 1:
            raise ValueError("n_visible and n_hidden must be >= 1")
        if not 0.0 < self.treatment_threshold < 1.0:
            raise ValueError("treatment_threshold must be in (0, 1)")
        if self.treatment_boost <= 0.0 or self.noise_scale <= 0.0:
            raise ValueError("treatment_boost and noise_scale must be > 0")
        if min(self.n_train, self.n_valid, self.n_test) < 1:
            raise ValueError("split sizes must be >= 1")
        if self.noise_family not in ("cauchy", "gaussian"):
            raise ValueError(f"unknown noise_family {self.noise_family!r}")

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_valid + self.n_test

    @property
    def n_projected(self) -> int:
        return self.n_visible + 1 + self.n_hidden

    @property
    def treatment_index(self) -> int:
        return self.n_visible


@dataclass(frozen=True)
class GeneratedPanel:
    """Full generated arrays (including the hidden block and the pre-noise
    outcome) before splitting; mostly useful for diagnostics and tests."""

    visible: np.ndarray       # (n, n_visible) in [0, 1)
    hidden: np.ndarray        # (n, n_hidden) in [0, 1)
    t: np.ndarray             # (n,) int64
    u: np.ndarray             # (n,) pre-noise outcome
    y: np.ndarray             # (n,) observed outcome
    u_potential: np.ndarray   # (n, 2) pre-noise outcome per forced arm
    y_potential: np.ndarray   # (n, 2) noisy potential outcome per arm


def synthetic_features(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fallback feature matrix: n x 128 from a rank-8 factor model with
    signed, heavy-tailed log-normal loadings, so projected columns end up
    with nontrivial cross-correlations like real expression data."""
    factors = rng.standard_normal((n, SYNTHETIC_RANK))
    loadings = np.exp(rng.standard_normal((SYNTHETIC_RANK, SYNTHETIC_FEATURES)))
    loadings *= rng.choice((-1.0, 1.0), size=loadings.shape)
    return factors @ loadings


def random_projection(features: np.ndarray, config: GeneratorConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Project n x p features into n_visible + 1 + n_hidden columns, each a
    linear combination with i.i.d. standard normal coefficients.  Column
    order: visible block, treatment column, hidden block."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
        raise ValueError("features must be a nonempty 2-d matrix")
    coeffs = rng.standard_normal((features.shape[1], config.n_projected))
    return features @ coeffs


def rank_normalize(column: np.ndarray) -> np.ndarray:
    """Map the value at rank k (0-based, ties broken by index) to k/n, so
    the output marginal is exactly the grid {0, 1/n, ..., (n-1)/n}."""
    column = np.asarray(column, dtype=np.float64)
    n = column.shape[0]
    if n == 0:
        raise ValueError("empty column")
    order = np.argsort(column, kind="stable")
    out = np.empty(n)
    out[order] = np.arange(n) / n
    return out


def binarize_treatment(column: np.ndarray, threshold: float) -> np.ndarray:
    """t = 1 iff value >= threshold; on a rank-normalized column the treated
    fraction is about 1 - threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    return (np.asarray(column, dtype=np.float64) >= threshold).astype(np.int64)


def outcome_link_matrix(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard normal link matrix with the treatment diagonal entry
    boosted to keep the treatment effect discernible."""
    M = rng.standard_normal((config.n_projected, config.n_projected))
    M[config.treatment_index, config.treatment_index] *= config.treatment_boost
    return M


def _noise(config: GeneratorConfig, rng: np.random.Generator, size) -> np.ndarray:
    if config.noiseless:
        return np.zeros(size)
    if config.noise_family == "cauchy":
        return config.noise_scale * rng.standard_cauchy(size)
    return config.noise_scale * rng.standard_normal(size)


def generate_panel(features: np.ndarray | None, config: GeneratorConfig) -> GeneratedPanel:
    """Generate all n_train + n_valid + n_test units from one seeded RNG
    stream (fixed draw order, so outputs are byte-reproducible)."""
    rng = np.random.default_rng(config.seed)
    n = config.n_total
    if features is None:
        features = synthetic_features(n, rng=rng)
    else:
        features = np.asarray(features, dtype=np.float64)
    if features.shape[0] < n:
        raise ValueError(
            f"requested {n} rows but features provide only {features.shape[0]}")
    perm = rng.permutation(features.shape[0])[:n]
    features = features[perm]

    projected = random_projection(features, config, rng)
    vis_idx = np.arange(config.n_visible)
    hid_idx = np.arange(config.n_visible + 1, config.n_projected)
    visible = np.column_stack([rank_normalize(projected[:, j]) for j in vis_idx])
    hidden = np.column_stack([rank_normalize(projected[:, j]) for j in hid_idx])
    if config.zero_hidden:
        hidden = np.zeros_like(hidden)
    t = binarize_treatment(rank_normalize(projected[:, config.treatment_index]),
                           config.treatment_threshold)

    M = outcome_link_matrix(config, rng)
    # u per arm with the treatment coordinate forced to the binarized value
    V0 = np.empty((n, config.n_projected))
    V0[:, vis_idx] = visible
    V0[:, hid_idx] = hidden
    V0[:, config.treatment_index] = 0.0
    V1 = V0.copy()
    V1[:, config.treatment_index] = 1.0
    u0 = np.einsum("ni,ij,nj->n", V0, M, V0)
    u1 = np.einsum("ni,ij,nj->n", V1, M, V1)
    u = np.where(t == 1, u1, u0)
    y = u + _noise(config, rng, n)
    y_pot = np.column_stack([u0, u1]) + _noise(config, rng, (n, 2))
    return GeneratedPanel(visible=visible, hidden=hidden, t=t, u=u, y=y,
                          u_potential=np.column_stack([u0, u1]),
                          y_potential=y_pot)


def generate_dataset(features: np.ndarray | None, config: GeneratorConfig
                     ) -> tuple[Dataset, Dataset, Dataset]:
    """(train, valid, test) datasets.  Only the test split carries potential
    outcomes; the hidden block is withheld from all covariates."""
    panel = generate_panel(features, config)
    edges = (0, config.n_train, config.n_train + config.n_valid, config.n_total)

    def cut(a: int, b: int, with_potential: bool) -> Dataset:
        return Dataset(
            covariates=panel.visible[a:b],
            treatments=panel.t[a:b],
            outcomes=panel.y[a:b],
            potential_outcomes=panel.y_potential[a:b] if with_potential else None)

    train = cut(edges[0], edges[1], False)
    valid = cut(edges[1], edges[2], False)
    test = cut(edges[2], edges[3], True)
    return train, valid, test


def config_to_dict(config: GeneratorConfig) -> dict:
    return asdict(config)


def config_from_dict(obj: dict) -> GeneratorConfig:
    known = {f: obj[f] for f in GeneratorConfig.__dataclass_fields__ if f in obj}
    unknown = set(obj) - set(GeneratorConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown generator config fields: {sorted(unknown)}")
    return GeneratorConfig(**known)


def write_benchmark(features: np.ndarray | None, config: GeneratorConfig,
                    out_dir: str | Path) -> dict[str, Path]:
    """Write the train/valid/test CSVs; `modens generate` adds the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {split: out_dir / f"{split}.csv" for split in ("train", "valid", "test")}
    for dataset, path in zip(generate_dataset(features, config), paths.values()):
        save_dataset_csv(dataset, path)
    return paths
