"""Quantile-loss training: pinball loss over several levels, Adam updates
with gradient clipping, a seeded minibatch loop with early stopping on
validation loss, and a self-describing binary checkpoint format.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import (
    CheckpointError,
    ConfigurationError,
    DimensionError,
    GradientError,
)
from .model import ModelConfig, ModelParams, forward_batch, set_parameter_values
from .numerics import Tensor
from .pipeline import TABLE1_INTERVALS

CHECKPOINT_MAGIC = b"HVF1"
CHECKPOINT_VERSION = 1


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=float))


def pinball_loss(actual, predicted, q: float) -> Tensor:
    """Mean over elements of max(q*(y - yhat), (q - 1)*(y - yhat))."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile level {q} outside (0, 1)")
    y = _as_tensor(actual)
    yhat = _as_tensor(predicted)
    if y.shape != yhat.shape:
        raise DimensionError(
            f"pinball loss: actual {y.shape} vs predicted {yhat.shape}")
    err = nm.sub(y, yhat)
    return nm.tmean(nm.maximum(nm.mul(err, q), nm.mul(err, q - 1.0)))


def total_quantile_loss(actual, predicted, levels) -> Tensor:
    """Unweighted mean of pinball losses across all levels; `predicted`
    carries one slice per level on its last axis."""
    levels = tuple(levels)
    if not levels:
        raise ConfigurationError("quantile levels must be non-empty")
    y = _as_tensor(actual)
    yhat = _as_tensor(predicted)
    if yhat.shape[-1] != len(levels):
        raise DimensionError(
            f"quantile loss: last axis {yhat.shape[-1]} does not match "
            f"{len(levels)} levels")
    if yhat.shape[:-1] != y.shape:
        raise DimensionError(
            f"quantile loss: predicted {yhat.shape} does not broadcast to "
            f"actual {y.shape}")
    total = None
    for k, q in enumerate(levels):
        slice_k = nm.reshape(nm.narrow(yhat, yhat.ndim - 1, k, 1), y.shape)
        term = pinball_loss(y, slice_k, q)
        total = term if total is None else nm.add(total, term)
    return nm.mul(total, 1.0 / len(levels))


@dataclass
class OptimizerState:
    """Adam moments keyed by parameter name, plus the shared step counter
    and hyperparameters."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, named: dict[str, "nm.Parameter"],
                   learning_rate: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        state = cls(learning_rate=learning_rate, beta1=beta1, beta2=beta2,
                    eps=eps)
        for name, p in named.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(named: dict[str, "nm.Parameter"],
              grads: dict[str, np.ndarray],
              state: OptimizerState) -> None:
    """One bias-corrected Adam update, in place on the parameter values."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in named.items():
        g = np.asarray(grads[name])
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        p.data = p.data - state.learning_rate * m_hat / (np.sqrt(v_hat)
                                                         + state.eps)


def clip_gradient_norm(grads: dict[str, np.ndarray],
                       max_norm: float) -> float:
    """Scale all gradients so their joint Euclidean norm is at most
    `max_norm`; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ConfigurationError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


@dataclass(frozen=True)
class Hyperparameters:
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 10
    grad_clip_norm: float = 1.0
    shuffle_seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ConfigurationError("patience must be >= 0")
        if self.grad_clip_norm <= 0:
            raise ConfigurationError("grad_clip_norm must be positive")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float | None
    val_loss: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord]
    best_epoch: int
    best_val_loss: float
    stopping_reason: str


def evaluate_loss(params: ModelParams, windows, batch_size: int = 256) -> float:
    """Mean quantile loss over a window set, computed without recording
    gradients."""
    if len(windows) == 0:
        raise ConfigurationError("cannot evaluate an empty window set")
    levels = params.cfg.quantile_levels
    total = 0.0
    count = 0
    with nm.no_grad():
        for lo in range(0, len(windows), batch_size):
            idx = range(lo, min(lo + batch_size, len(windows)))
            past, future, target = windows.batch(idx)
            out = forward_batch(params, past, future, training=False)
            loss = total_quantile_loss(target, out, levels)
            total += float(loss.data) * len(idx)
            count += len(idx)
    return total / count


def fit(
    params: ModelParams,
    train_windows,
    val_windows,
    hyper: Hyperparameters = Hyperparameters(),
    log_path: str | None = None,
) -> TrainReport:
    """Minibatch training with per-epoch seeded shuffles, dropout active
    only during training, gradient clipping, and early stopping: training
    ends once validation loss has failed to improve for more than
    `patience` consecutive epochs, and the best-validation parameters are
    restored before returning. Epoch 0 records the pre-training validation
    loss."""
    hyper.validate()
    for name, windows in (("train", train_windows),
                          ("validation", val_windows)):
        if len(windows) == 0:
            raise ConfigurationError(f"{name} split is empty")

    named = params.named_parameters()
    state = OptimizerState.for_params(named,
                                      learning_rate=hyper.learning_rate)
    log_fh = open(log_path, "w") if log_path is not None else None

    def emit(record: EpochRecord) -> None:
        if log_fh is not None:
            log_fh.write(json.dumps(dataclasses.asdict(record),
                                    sort_keys=True) + "\n")
            log_fh.flush()

    try:
        started = time.perf_counter()
        val0 = evaluate_loss(params, val_windows, hyper.batch_size)
        records = [EpochRecord(0, None, val0,
                               time.perf_counter() - started)]
        emit(records[0])

        best_epoch = 0
        best_val = val0
        best_values = {n: p.data.copy() for n, p in named.items()}
        stale = 0
        reason = "max_epochs reached"

        for epoch in range(1, hyper.max_epochs + 1):
            tick = time.perf_counter()
            seq = np.random.SeedSequence(hyper.shuffle_seed,
                                         spawn_key=(epoch,))
            shuffle_rng, dropout_rng = [np.random.default_rng(s)
                                        for s in seq.spawn(2)]
            order = shuffle_rng.permutation(len(train_windows))
            running = 0.0
            seen = 0
            for lo in range(0, len(order), hyper.batch_size):
                idx = order[lo:lo + hyper.batch_size]
                past, future, target = train_windows.batch(idx)
                for p in named.values():
                    p.zero_grad()
                out = forward_batch(params, past, future, training=True,
                                    rng=dropout_rng)
                loss = total_quantile_loss(target, out,
                                           params.cfg.quantile_levels)
                if not np.isfinite(loss.data).all():
                    raise GradientError(
                        f"non-finite training loss {float(loss.data)} in "
                        f"epoch {epoch}, batch order[{lo}:{lo + len(idx)}] "
                        f"starting at window {idx[0]}")
                nm.backward(loss)
                grads = {n: p.grad for n, p in named.items()}
                clip_gradient_norm(grads, hyper.grad_clip_norm)
                adam_step(named, grads, state)
                running += float(loss.data) * len(idx)
                seen += len(idx)

            val = evaluate_loss(params, val_windows, hyper.batch_size)
            record = EpochRecord(epoch, running / seen, val,
                                 time.perf_counter() - tick)
            records.append(record)
            emit(record)

            if val < best_val:
                best_val = val
                best_epoch = epoch
                best_values = {n: p.data.copy() for n, p in named.items()}
                stale = 0
            else:
                stale += 1
                if stale > hyper.patience:
                    reason = (f"no validation improvement for {stale} "
                              f"epochs")
                    break

        set_parameter_values(params, best_values)
        return TrainReport(epochs=records, best_epoch=best_epoch,
                           best_val_loss=best_val, stopping_reason=reason)
    finally:
        if log_fh is not None:
            log_fh.close()


@dataclass
class Checkpoint:
    """Everything needed to reproduce inference: architecture config, all
    parameter tensors, the scaling intervals, and training metadata."""

    config: ModelConfig
    parameters: dict[str, np.ndarray]
    scaler_intervals: dict[str, tuple[float, float]]
    rng_seed: int
    metadata: dict
    version: int = CHECKPOINT_VERSION


def make_checkpoint(params: ModelParams, metadata: dict | None = None,
                    scaler_intervals: dict | None = None) -> Checkpoint:
    return Checkpoint(
        config=params.cfg,
        parameters={n: p.data.copy()
                    for n, p in params.named_parameters().items()},
        scaler_intervals=dict(scaler_intervals if scaler_intervals is not None
                              else TABLE1_INTERVALS),
        rng_seed=params.cfg.rng_seed,
        metadata=dict(metadata or {}),
    )


def restore_model(ckpt: Checkpoint) -> ModelParams:
    params = ModelParams(ckpt.config)
    set_parameter_values(params, ckpt.parameters)
    return params


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write magic, a canonical JSON header (names, shapes, offsets), then
    the raw float64 little-endian tensor payloads, atomically."""
    names = sorted(ckpt.parameters)
    tensors = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(ckpt.parameters[name], dtype=np.float64)
        tensors.append({"name": name, "shape": list(arr.shape),
                        "offset": offset})
        offset += arr.nbytes
    header = {
        "version": ckpt.version,
        "config": dataclasses.asdict(ckpt.config),
        "scaler_intervals": {k: list(v)
                             for k, v in sorted(ckpt.scaler_intervals.items())},
        "rng_seed": ckpt.rng_seed,
        "metadata": ckpt.metadata,
        "tensors": tensors,
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            arr = np.ascontiguousarray(ckpt.parameters[name],
                                       dtype=np.float64)
            fh.write(arr.astype("<f8", copy=False).tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError("checkpoint file is truncated")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic bytes)")
    header_len = struct.unpack("<Q", blob[4:12])[0]
    header_end = 12 + header_len
    if len(blob) < header_end:
        raise CheckpointError("checkpoint file is truncated")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}, expected "
            f"{CHECKPOINT_VERSION}")

    cfg_dict = dict(header["config"])
    cfg_dict["quantile_levels"] = tuple(cfg_dict["quantile_levels"])
    config = ModelConfig(**cfg_dict)

    payload = blob[header_end:]
    parameters: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + count * 8
        if end > len(payload):
            raise CheckpointError(
                f"checkpoint file is truncated: tensor {entry['name']} "
                f"extends past end of file")
        parameters[entry["name"]] = np.frombuffer(
            payload[start:end], dtype="<f8").reshape(shape).copy()

    return Checkpoint(
        config=config,
        parameters=parameters,
        scaler_intervals={k: tuple(v)
                          for k, v in header["scaler_intervals"].items()},
        rng_seed=header["rng_seed"],
        metadata=header["metadata"],
        version=version,
    )
