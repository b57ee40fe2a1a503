"""Ensembles of small feedforward conditional-outcome predictors.

Fully connected nets with sigmoid hidden activations and a linear output
layer, trained by full-batch maximum likelihood with per-parameter adaptive
steps (Adam).  Each outcome member maximises the likelihood of its own
bootstrap resample, computed as the count-weighted likelihood of the
resample's unique rows: the same objective as on the replicated rows, with
about 37% fewer rows per epoch.  Outcome heads emit (location, log-scale)
for a Gaussian or Cauchy predictive; the propensity head emits a logit.
Gaussian members train on standardized outcomes (y - mean) / std, folded
back into the output layer; Cauchy members, whose outcome moments may not
exist, train on raw outcomes.
The treatment enters outcome nets as one appended input scalar.
Prediction works on row batches only: ``predict_components_batch`` gives
the (n, m) member location and scale arrays, ``predict_propensity_batch``
the n propensities e_1(x); both reject covariates of the wrong width.

Backpropagation is hand-rolled for this fixed architecture so the gradient
check against finite differences stays meaningful.  It frees each hidden
activation once it has read it for the last time, and each delta once the
next one is formed, so training a member holds at most its design rows,
two hidden activations and two deltas at once, beside O(n) bootstrap
bookkeeping.  Output-only forward passes (prediction, ``nll``, the Cauchy
warm-up's quartile map) hold every hidden activation until they return.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset

SCALE_FLOOR = 1e-6
SCHEMA_VERSION = 1
_ADAM_STEP, _ADAM_B1, _ADAM_B2, _ADAM_EPS = 1e-2, 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    """Raised when the training NLL becomes non-finite."""


class ModelFileError(ValueError):
    """Malformed model file; message carries parse context."""


class Head(enum.Enum):
    GAUSSIAN = "gaussian"
    CAUCHY = "cauchy"
    PROPENSITY = "propensity"

    @property
    def out_dim(self) -> int:
        return 1 if self is Head.PROPENSITY else 2


@dataclass(frozen=True)
class TrainConfig:
    """Hidden widths, full-batch epochs, outcome head and the Cauchy
    warm-up length.  Adam's step size and moment constants are fixed
    (``_ADAM_STEP``, ``_ADAM_B1``, ``_ADAM_B2``, ``_ADAM_EPS``)."""

    hidden: tuple[int, ...] = (64, 64)
    epochs: int = 2000
    head: Head = Head.GAUSSIAN
    # Gaussian-on-ranks warm-up epochs before Cauchy fine-tuning; None = epochs // 2
    warmup_epochs: int | None = None

    def __post_init__(self):
        if self.epochs < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("invalid training configuration")
        w = self.warmup_epochs
        if w is not None and (type(w) is not int or w < 1):
            raise ValueError(f"warmup_epochs must be None or an integer >= 1, got {w!r}")

    def resolved_warmup_epochs(self) -> int:
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        return max(self.epochs // 2, 1)


@dataclass
class MlpParams:
    """Dense-layer parameters: weights[l] has shape (fan_in, fan_out),
    biases[l] shape (fan_out,).  Hidden activations are sigmoid, the output
    layer is linear."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: Head

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if sizes[-1] != self.head.out_dim:
            raise ValueError(f"head {self.head.value} needs {self.head.out_dim} outputs")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("layer count mismatch")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l], sizes[l + 1]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} parameter shape mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l} parameters must be finite")
        self.layer_sizes = sizes

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def copy(self) -> "MlpParams":
        return MlpParams(self.layer_sizes, [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases], self.head)


@dataclass(frozen=True)
class EnsembleModel:
    """m i.i.d.-trained members sharing architecture and head; the training
    seed is kept for provenance."""

    members: tuple[MlpParams, ...]
    seed: int

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("ensemble needs at least one member")
        head = self.members[0].head
        sizes = self.members[0].layer_sizes
        for p in self.members:
            if p.head is not head or p.layer_sizes != sizes:
                raise ValueError("all members must share layer sizes and head")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def head(self) -> Head:
        return self.members[0].head


def init_params(layer_sizes, head: Head, rng: np.random.Generator) -> MlpParams:
    # uniform +-sqrt(6 / (fan_in + fan_out)), the usual choice for
    # saturating activations
    sizes = tuple(int(s) for s in layer_sizes)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, weights, biases, head)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(z / 2)): one branch-free pass
    that cannot overflow at any |z| and stays within 2.3e-16 of the
    exp-based form.  `out` may be `z` itself."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _net_forward(params: MlpParams, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (output (n, out_dim), hidden activations incl. input)."""
    acts = [X]
    a = X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = a @ w
        a += b
        _sigmoid(a, out=a)
        acts.append(a)
    out = a @ params.weights[-1]
    out += params.biases[-1]
    return out, acts


def _head_loss_grad(head: Head, out: np.ndarray, target: np.ndarray,
                    counts: np.ndarray | None = None,
                    target_var: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean NLL and its gradient wrt the raw network outputs.

    Row i carries the weight w_i = c_i / sum(c), or 1/n without `counts`:
    the loss is sum(w_i * l_i) and row i's gradient is scaled by w_i.  With
    `counts`, row i stands for counts[i] copies of itself, so these are the
    values on the replicated rows.  With
    `target_var` (Gaussian head only), row i's copies carry targets of mean
    target[i] and variance target_var[i]; the Gaussian NLL of such copies is
    0.5 * ((target - mu)^2 + var) / s^2 + log s per copy."""
    n = out.shape[0]
    w = np.full(n, 1.0 / n) if counts is None else counts / counts.sum()
    dout = np.empty_like(out)
    if head is Head.PROPENSITY:
        z = out[:, 0]
        loss = float(w @ (np.logaddexp(0.0, z) - target * z))
        d = _sigmoid(z, out=dout[:, 0])
        d -= target
        d *= w
        return loss, dout
    if target_var is not None and head is not Head.GAUSSIAN:
        raise ValueError("target_var needs the Gaussian head")
    mu = out[:, 0]
    ls = out[:, 1]
    el = np.exp(np.minimum(ls, 300.0))
    s = np.maximum(el, SCALE_FLOOR)
    live = el > SCALE_FLOOR   # below the floor d(scale)/d(log-scale) = 0
    r = target - mu
    z2 = (r / s) ** 2
    if head is Head.GAUSSIAN:
        if target_var is not None:
            z2 += target_var / s ** 2
        loss = float(w @ (0.5 * z2 + np.log(s) + 0.5 * math.log(2.0 * math.pi)))
        dout[:, 0] = -r / s ** 2 * w
        dout[:, 1] = np.where(live, 1.0 - z2, 0.0) * w
    elif head is Head.CAUCHY:
        loss = float(w @ (np.log(math.pi * s) + np.log1p(z2)))
        dout[:, 0] = -2.0 * r / (s ** 2 + r ** 2) * w
        dout[:, 1] = np.where(live, (s ** 2 - r ** 2) / (s ** 2 + r ** 2), 0.0) * w
    else:  # pragma: no cover
        raise ValueError(f"unknown head {head}")
    return loss, dout


def nll_and_grads(params: MlpParams, X: np.ndarray, target: np.ndarray,
                  counts: np.ndarray | None = None,
                  target_var: np.ndarray | None = None
                  ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Full-batch mean NLL and gradients via backprop; `counts` and
    `target_var` as in `_head_loss_grad`."""
    out, acts = _net_forward(params, X)
    loss, delta = _head_loss_grad(params.head, out, target, counts, target_var)
    del out
    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.biases)
    ones = np.ones(X.shape[0])   # column sums as one BLAS product
    for l in range(len(params.weights) - 1, -1, -1):
        # acts[l] is last read in this layer: popped, it is freed when the
        # next layer rebinds `a`
        a = acts.pop()
        grads_w[l] = a.T @ delta
        grads_b[l] = ones @ delta
        if l > 0:
            # sigmoid' = a * (1 - a), with a itself overwritten by 1 - a in
            # place of a fresh temporary; rebinding delta frees the old one
            delta = delta @ params.weights[l].T
            delta *= a
            np.subtract(1.0, a, out=a)
            delta *= a
    return loss, grads_w, grads_b


def nll(params: MlpParams, X: np.ndarray, target: np.ndarray,
        counts: np.ndarray | None = None, target_var: np.ndarray | None = None) -> float:
    out, _ = _net_forward(params, X)
    loss, _ = _head_loss_grad(params.head, out, target, counts, target_var)
    return loss


def _adam_fit(params: MlpParams, X: np.ndarray, target: np.ndarray,
              epochs: int, counts: np.ndarray | None = None,
              target_var: np.ndarray | None = None) -> MlpParams:
    """Full-batch Adam keeping the best-NLL parameter snapshot, so the
    returned NLL never exceeds the initial one (epoch 1's loss); `counts`
    and `target_var` as in `_head_loss_grad`."""
    # params' own arrays: the in-place steps below update params itself
    arrays = params.weights + params.biases
    m1 = [np.zeros_like(a) for a in arrays]
    m2 = [np.zeros_like(a) for a in arrays]
    best, best_loss = params, math.inf
    for epoch in range(1, epochs + 1):
        loss, gw, gb = nll_and_grads(params, X, target, counts, target_var)
        if not math.isfinite(loss):
            if epoch == 1:
                raise TrainingDivergedError(
                    f"initial NLL is non-finite for head {params.head.value}")
            raise TrainingDivergedError(
                f"NLL became non-finite at epoch {epoch} (head {params.head.value})")
        if loss < best_loss:
            best_loss = loss
            best = params.copy()
        c1 = 1.0 - _ADAM_B1 ** epoch
        c2 = 1.0 - _ADAM_B2 ** epoch
        for k, (a, g) in enumerate(zip(arrays, gw + gb)):
            m1[k] = _ADAM_B1 * m1[k] + (1 - _ADAM_B1) * g
            m2[k] = _ADAM_B2 * m2[k] + (1 - _ADAM_B2) * g ** 2
            a -= _ADAM_STEP * (m1[k] / c1) / (np.sqrt(m2[k] / c2) + _ADAM_EPS)
    final_loss = nll(params, X, target, counts, target_var)
    if math.isfinite(final_loss) and final_loss < best_loss:
        return params
    return best


def _outcome_design(covariates: np.ndarray, treatments) -> np.ndarray:
    """Outcome-net inputs: the covariates with the treatment appended as
    the last column."""
    return np.column_stack([covariates, np.asarray(treatments, dtype=np.float64).ravel()])


def _fold_affine(params: MlpParams, scale: float, shift: float) -> None:
    """Fold an affine output transform y = scale * y~ + shift into the linear
    output layer, exactly: the location column is rescaled and the log-scale
    bias shifted by log(scale)."""
    params.weights[-1][:, 0] *= scale
    params.biases[-1][0] = params.biases[-1][0] * scale + shift
    params.biases[-1][1] += math.log(scale)


def train_member(data: Dataset, config: TrainConfig, seed: int) -> MlpParams:
    """One ensemble member: seeded bootstrap resample, seeded init, Adam MLE.

    The member maximises the likelihood of its bootstrap resample, written
    as the count-weighted likelihood of the resample's unique rows (the
    weighted likelihood bootstrap): the same objective, on about 63% of the
    rows.  Gaussian heads train on standardized outcomes, folded back to
    outcome units.  Cauchy heads train in two phases: a Gaussian warm-up on
    rank-normalized outcomes to place the body away from the heavy tails,
    then an affine re-map of the location head to outcome units
    (quartile-matched) and Cauchy fine-tuning on the raw outcomes.
    """
    if data.n < 2:
        raise ValueError("need at least 2 training rows")
    if config.head is Head.PROPENSITY:
        raise ValueError("use fit_propensity for the propensity head")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.n, size=data.n)
    rows, copy_row, counts = np.unique(idx, return_inverse=True, return_counts=True)
    X = _outcome_design(data.covariates[rows], data.treatments[rows])
    y = data.outcomes[rows]
    params = init_params((X.shape[1], *config.hidden, 2), Head.GAUSSIAN, rng)

    if config.head is Head.GAUSSIAN:
        del rows, idx, copy_row
        mu_y = float(np.mean(data.outcomes))
        sd_y = max(float(np.std(data.outcomes)), 1e-12)
        params = _adam_fit(params, X, (y - mu_y) / sd_y, config.epochs, counts)
        _fold_affine(params, sd_y, mu_y)
        return params

    # Cauchy head.  The warm-up targets are the stable-tie ranks k/n of the
    # n resampled outcomes, so the copies of one row hold distinct ranks:
    # each unique row carries their mean and their variance.
    y_boot = data.outcomes[idx]
    q25, q50, q75 = np.percentile(y_boot, [25.0, 50.0, 75.0])
    ranks = np.empty(data.n)
    ranks[np.argsort(y_boot, kind="stable")] = np.arange(data.n) / data.n
    rank_mean = np.bincount(copy_row, weights=ranks) / counts
    dev = ranks - rank_mean[copy_row]   # from deviations, not E[r^2] - mean^2
    rank_var = np.bincount(copy_row, weights=dev * dev) / counts
    del rows, idx, copy_row, y_boot, ranks, dev
    params = _adam_fit(params, X, rank_mean, config.resolved_warmup_epochs(), counts,
                       rank_var)
    del rank_mean, rank_var
    # quartile-matched affine map from predicted rank space to outcome units
    out = _net_forward(params, X)[0]
    r_hat = np.repeat(out[:, 0], counts)
    r25, r50, r75 = np.percentile(r_hat, [25.0, 50.0, 75.0])
    slope = (q75 - q25) / max(r75 - r25, 0.05)
    slope = max(slope, 1e-6)
    _fold_affine(params, slope, q50 - slope * r50)
    # the log-scale column is reset, the fold's log(slope) shift with it: the
    # Cauchy fine-tuning starts from a constant scale of half the IQR
    params.weights[-1][:, 1] = 0.0
    params.biases[-1][1] = math.log(max((q75 - q25) / 2.0, 1e-3))
    params.head = Head.CAUCHY
    return _adam_fit(params, X, y, config.epochs, counts)


def check_members(m: int) -> None:
    """Reject an ensemble size below one member."""
    if m < 1:
        raise ValueError(f"members must be >= 1, got {m!r}")


def train_ensemble(data: Dataset, config: TrainConfig, seed: int,
                   m: int = 16) -> EnsembleModel:
    """m independent members with derived seeds seed+1 .. seed+m."""
    check_members(m)
    members = [train_member(data, config, seed + j) for j in range(1, m + 1)]
    return EnsembleModel(members=tuple(members), seed=seed)


def fit_propensity(data: Dataset, config: TrainConfig, seed: int) -> MlpParams:
    """Binary cross-entropy MLE of e_1(x) = P(T=1 | X=x) on the covariates
    alone; e_0(x) is reported as its complement."""
    if data.n < 2:
        raise ValueError("need at least 2 training rows")
    rng = np.random.default_rng(seed)
    sizes = (data.d, *config.hidden, 1)
    params = init_params(sizes, Head.PROPENSITY, rng)
    return _adam_fit(params, data.covariates, data.treatments.astype(np.float64),
                     config.epochs)


def _covariate_matrix(X: np.ndarray, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        got = X.shape[1] if X.ndim == 2 else f"an array of shape {X.shape}"
        raise ValueError(f"model expects {d} covariate columns, got {got}")
    return X


def predict_components_batch(model: EnsembleModel, X: np.ndarray, t: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Member locations and scales for n query rows (covariates X, treatment
    t appended as the last input): arrays of shape (n, m), member order
    preserved."""
    if model.head is Head.PROPENSITY:
        raise ValueError("model is propensity-headed")
    X = _covariate_matrix(X, model.members[0].input_dim - 1)
    rows = _outcome_design(X, t)
    n = rows.shape[0]
    locs = np.empty((n, model.m))
    scales = np.empty((n, model.m))
    for j, p in enumerate(model.members):
        out, _ = _net_forward(p, rows)
        locs[:, j] = out[:, 0]
        scales[:, j] = np.maximum(np.exp(np.minimum(out[:, 1], 300.0)), SCALE_FLOOR)
    return locs, scales


def predict_propensity_batch(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """e_1(x) for n rows of covariates X, in [0, 1] (exactly 0 or 1 once
    |logit| exceeds about 37; callers clamp it `sensitivity.PROPENSITY_CLAMP`
    away from both); e_0 is its complement."""
    if params.head is not Head.PROPENSITY:
        raise ValueError("model is not propensity-headed")
    out, _ = _net_forward(params, _covariate_matrix(X, params.input_dim))
    return _sigmoid(out[:, 0])


def _params_to_json(params: MlpParams) -> dict:
    return {"weights": [w.tolist() for w in params.weights],
            "biases": [b.tolist() for b in params.biases]}


def _params_from_json(obj: dict, sizes: tuple[int, ...], head: Head,
                      context: str) -> MlpParams:
    try:
        weights = [np.asarray(w, dtype=np.float64) for w in obj["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in obj["biases"]]
        return MlpParams(sizes, weights, biases, head)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{context}: {exc}") from None


def save_model(model: EnsembleModel, path: str | Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "head": model.head.value,
        "layer_sizes": list(model.members[0].layer_sizes),
        "seed": int(model.seed),
        "members": [_params_to_json(p) for p in model.members],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> EnsembleModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ModelFileError(f"{path}: unsupported or missing schema_version")
    try:
        head = Head(doc["head"])
        sizes = tuple(int(s) for s in doc["layer_sizes"])
        seed = int(doc["seed"])
        raw_members = doc["members"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    members = [_params_from_json(obj, sizes, head, f"{path}: member {i}")
               for i, obj in enumerate(raw_members)]
    return EnsembleModel(members=tuple(members), seed=seed)


def save_propensity(params: MlpParams, path: str | Path, seed: int = 0) -> None:
    save_model(EnsembleModel(members=(params,), seed=seed), path)


def load_propensity(path: str | Path) -> MlpParams:
    model = load_model(path)
    if model.head is not Head.PROPENSITY:
        raise ModelFileError(f"{path}: expected a propensity model, got {model.head.value}")
    return model.members[0]
