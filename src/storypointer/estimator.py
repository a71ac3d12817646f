"""Effort estimation head: LSTM or dense stack over embedded requirements.

Sequence inputs go through an LSTM that reads each text's token rows as
the batch stores them, with no padding, and returns only each text's
final state, which feeds two nonlinear dense layers; pooled inputs skip
straight to the dense stack.
The output is either a single linear unit or a 9-way softmax over the
Planning-Poker buckets. `forward` takes a `FeatureBatch` of the head's
mode and returns the raw outputs; `predict` turns them into one effort
per row, as a float64 array: the linear output clamped to the ends of
the bucket scale, [1, 100], or the bucket of the most probable class.
Training uses minibatch Adam with early stopping on validation MAE and
restores the best-epoch parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import BUCKETS, bucket_index
from .features import MODES, FeatureBatch
from .kernel import (
    LSTM,
    Adam,
    Dense,
    RngStream,
    Tensor,
    cross_entropy,
    mse_loss,
    no_grad,
    softmax,
)
from .kernel.checkpoint import (config_from_meta, load_checkpoint, require_kind, require_params,
                                save_checkpoint)
from .kernel.optim import require_learning_rate
from .metrics import mae

OUTPUTS = ("linear", "softmax")  # one unit, or one class per bucket
N_CLASSES = len(BUCKETS)


@dataclass(frozen=True)
class HeadConfig:
    mode: str = "sequence"
    lstm_hidden: int = 50
    dense_sizes: Tuple[int, int] = (50, 10)
    output: str = "linear"
    activation: str = "relu"
    epochs: int = 20
    batch_size: int = 128
    patience: int = 5
    epsilon: float = 1e-4
    learning_rate: float = 0.002
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown input mode {self.mode!r}")
        if self.output not in OUTPUTS:
            raise ValueError(f"unknown output head {self.output!r}")
        if any(size <= 0 for size in self.dense_sizes) or self.lstm_hidden <= 0:
            raise ValueError("layer sizes must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if not 1 <= self.patience <= self.epochs:
            raise ValueError(f"patience must be from 1 to epochs ({self.epochs}), "
                             f"got {self.patience}")
        require_learning_rate(self.learning_rate)


@dataclass
class TrainHistory:
    train_loss: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = "epochs"

    @property
    def best_val_mae(self) -> float:
        return self.val_mae[self.best_epoch]


class EstimatorModel:
    def __init__(self, config: HeadConfig, input_dim: int, source: Optional[dict] = None):
        if input_dim < 1:
            raise ValueError(f"input dimension must be positive, got {input_dim}")
        self.config = config
        self.input_dim = input_dim
        self.source = dict(source or {})
        rng = RngStream(config.seed).child("head")
        first, second = config.dense_sizes
        self.lstm: Optional[LSTM] = None
        if config.mode == "sequence":
            self.lstm = LSTM(rng.child("lstm"), input_dim, config.lstm_hidden)
            dense_in = config.lstm_hidden
        else:
            dense_in = input_dim
        self.dense1 = Dense(rng.child("dense1"), dense_in, first, config.activation)
        self.dense2 = Dense(rng.child("dense2"), first, second, config.activation)
        out_dim = 1 if config.output == "linear" else N_CLASSES
        self.head = Dense(rng.child("out"), second, out_dim, "identity")

    @property
    def model_id(self) -> str:
        base = self.source.get("model_id", "raw")
        return f"estimator-{self.config.mode}-{self.config.output}-on-{base}"

    def parameters(self) -> Dict[str, Tensor]:
        """Every parameter under a dotted `layer.name`."""
        layers = {"dense1": self.dense1, "dense2": self.dense2, "head": self.head}
        if self.lstm is not None:
            layers["lstm"] = self.lstm
        return {f"{layer}.{name}": tensor for layer, module in layers.items()
                for name, tensor in module.parameters().items()}

    def forward(self, batch: FeatureBatch) -> Tensor:
        """The raw head outputs, (n, 1) or (n, 9), for a batch of the head's mode."""
        if batch.mode != self.config.mode:
            raise ValueError(f"feature mode {batch.mode!r} does not match head mode "
                             f"{self.config.mode!r}")
        if self.config.mode == "sequence":
            rows, mask = batch.vectors, batch.mask
            if (rows.ndim != 2 or rows.shape[-1] != self.input_dim or mask is None
                    or mask.ndim != 2 or len(rows) != np.count_nonzero(mask > 0)):
                raise ValueError(f"sequence mode expects (R, {self.input_dim}) rows, one per real "
                                 f"step of an (n, t) mask, got rows {rows.shape} and mask "
                                 f"{None if mask is None else mask.shape}")
            h = self.lstm(Tensor(rows), np.count_nonzero(mask > 0, axis=1))
        else:
            h = Tensor(np.asarray(batch.vectors, dtype=np.float64))
            if h.data.ndim != 2 or h.shape[-1] != self.input_dim:
                raise ValueError(f"pooled mode expects (n, {self.input_dim}) inputs, got {h.shape}")
        return self.head(self.dense2(self.dense1(h)))


def require_features(config: HeadConfig, input_dim: int, kind: Optional[str],
                     featurizer) -> None:
    """Refuses a featurizer whose output a head of `config` and `input_dim`
    cannot read: one of another mode or dimension, or of an embedding kind
    other than `kind` (None: any kind)."""
    has = featurizer.describe()
    wants = {"kind": has["kind"] if kind is None else kind, "mode": config.mode,
             "dimension": input_dim}
    if any(has[key] != value for key, value in wants.items()):
        line = "{kind} {mode} features of dimension {dimension}"
        raise ValueError(f"the head reads {line.format(**wants)}, "
                         f"but the embedding gives {line.format(**has)}")


def _snapshot(params: Dict[str, Tensor]) -> Dict[str, np.ndarray]:
    return {name: t.numpy().copy() for name, t in params.items()}


def _restore(params: Dict[str, Tensor], snapshot: Dict[str, np.ndarray]) -> None:
    for name, t in params.items():
        t.data = snapshot[name].copy()


def _training_loss(model: EstimatorModel, batch: FeatureBatch, efforts: np.ndarray) -> Tensor:
    raw = model.forward(batch)
    if model.config.output == "linear":
        return mse_loss(raw.reshape(len(batch)), efforts)
    labels = np.array([bucket_index(e) for e in efforts], dtype=np.int64)
    return cross_entropy(raw, labels)


def predict(model: EstimatorModel, batch: FeatureBatch) -> np.ndarray:
    """One effort per row: the clamped linear output, or the bucket whose
    softmax probability is largest (ties go to the lowest bucket)."""
    with no_grad():
        raw = model.forward(batch).numpy()
    if model.config.output == "linear":
        return np.clip(raw.reshape(-1), BUCKETS[0], BUCKETS[-1])
    choice = np.argmax(softmax(Tensor(raw)).numpy(), axis=-1)
    return np.asarray(BUCKETS, dtype=np.float64)[choice]


# A diverging head overflows its squares and matmuls and may sum
# infinities of both signs; it is refused after the epoch rather than
# warned about on every minibatch.
@np.errstate(over="ignore", invalid="ignore")
def train_estimator(
    model: EstimatorModel,
    train_batch: FeatureBatch,
    train_efforts: Sequence[float],
    val_batch: FeatureBatch,
    val_efforts: Sequence[float],
) -> TrainHistory:
    """Minibatch Adam with patience-based early stopping on validation MAE.

    Raises ValueError after the first epoch whose train loss or validation
    MAE is not finite.
    """
    train_efforts = np.asarray(train_efforts, dtype=np.float64)
    val_efforts = np.asarray(val_efforts, dtype=np.float64)
    if len(train_batch) == 0 or len(val_batch) == 0:
        raise ValueError("train and validation sets must be non-empty")
    if len(train_batch) != len(train_efforts) or len(val_batch) != len(val_efforts):
        raise ValueError("feature/effort counts differ")

    config = model.config
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    stream = RngStream(config.seed).child("train")
    history = TrainHistory()
    best = np.inf
    best_params = _snapshot(params)
    stale = 0

    for epoch in range(config.epochs):
        order = stream.permutation(len(train_batch))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            picks = order[start:start + config.batch_size]
            optimizer.zero_grad()
            loss = _training_loss(model, train_batch.select(picks), train_efforts[picks])
            loss.backward()
            optimizer.step()
            loss_sum += float(loss.item()) * len(picks)
        history.train_loss.append(loss_sum / len(train_batch))

        val_mae = mae(val_efforts, predict(model, val_batch))
        history.val_mae.append(val_mae)
        if not (np.isfinite(history.train_loss[-1]) and np.isfinite(val_mae)):
            raise ValueError(f"head training diverged: train loss {history.train_loss[-1]} "
                             f"and validation MAE {val_mae} after epoch {epoch + 1}")
        if val_mae < best:
            # any strict improvement moves the restore point, but only a
            # material one (> epsilon) resets the patience counter
            material = best - val_mae > config.epsilon
            best = val_mae
            history.best_epoch = epoch
            best_params = _snapshot(params)
            stale = 0 if material else stale + 1
        else:
            stale += 1
        if stale >= config.patience:
            history.stop_reason = "patience"
            break

    _restore(params, best_params)
    return history


def save_estimator(model: EstimatorModel, path, history: Optional[TrainHistory] = None) -> None:
    meta = {
        "kind": "estimator",
        "model_id": model.model_id,
        "config": asdict(model.config),
        "input_dim": model.input_dim,
        "source": model.source,
    }
    if history is not None:
        meta["history"] = asdict(history)
    save_checkpoint(path, model.parameters(), meta=meta)


def estimator_from_parts(params, meta, sections) -> EstimatorModel:
    """The head held by the parts `load_checkpoint` returns."""
    require_kind(meta, "estimator")
    config = config_from_meta(HeadConfig, meta.get("config"))
    input_dim, source = meta.get("input_dim"), meta.get("source", {})
    if type(input_dim) is not int or not isinstance(source, dict):
        raise ValueError("checkpoint meta needs an integer input_dim and an object as source")
    model = EstimatorModel(config, input_dim, source=source)
    own = model.parameters()
    require_params(params, {name: tensor.shape for name, tensor in own.items()}, "head")
    for name, tensor in own.items():
        tensor.data = params[name].numpy().astype(np.float64)
    return model


def load_estimator(path) -> EstimatorModel:
    return estimator_from_parts(*load_checkpoint(path))
