"""Quantile-loss training: pinball loss over several levels, Adam updates
with gradient clipping, a seeded minibatch loop with early stopping on
validation loss, and a self-describing binary checkpoint format.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import (CheckpointError, ConfigurationError, GradientError,
                     check_count, check_number, check_seed)
from .model import (ModelConfig, ModelParams, forward_batch, no_grad_batches,
                    set_parameter_values)
from .numerics import Tensor
from .pipeline import TABLE1_INTERVALS

CHECKPOINT_MAGIC = b"HVF1"
CHECKPOINT_VERSION = 2
_HEADER_KEYS = ("config", "metadata", "payload_crc32", "scaler_intervals",
                "tensors")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=float))


def total_quantile_loss(actual, predicted, levels) -> Tensor:
    """Unweighted mean of pinball losses across all levels; `predicted`
    carries one slice per level on its last axis."""
    return nm.quantile_loss(_as_tensor(actual), _as_tensor(predicted), levels)


# Adam's moment decay rates and the denominator guard (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moments keyed by parameter name, plus the shared step counter
    and the learning rate. `adam_step` makes a parameter's moments at its
    first update, so no moment memory exists before the first step."""

    learning_rate: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(named: dict[str, "nm.Parameter"],
              grads: dict[str, np.ndarray],
              state: OptimizerState) -> None:
    """One bias-corrected Adam update, in place on the parameter values.
    A parameter's moments start at zero, made at its first update. The
    moments and values are updated through `out=` with two temporaries per
    parameter, in the operation order of
    p - lr * (m / bias1) / (sqrt(v / bias2) + eps)."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in named.items():
        g = np.asarray(grads[name])
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros(p.shape)
            state.v[name] = np.zeros(p.shape)
        m = state.m[name]
        v = state.v[name]
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        np.divide(m, bias1, out=step)
        step *= state.learning_rate
        denom = np.divide(v, bias2)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p.data -= step


def clip_gradient_norm(grads: dict[str, np.ndarray],
                       max_norm: float) -> float:
    """Scale all gradients so their joint Euclidean norm is at most
    `max_norm`; returns the pre-clip norm."""
    check_number("max_norm", max_norm, "positive")
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
        check_count("batch_size", self.batch_size, minimum=1)
        check_number("learning_rate", self.learning_rate, "positive")
        check_count("max_epochs", self.max_epochs, minimum=1)
        check_count("patience", self.patience, minimum=0)
        check_number("grad_clip_norm", self.grad_clip_norm, "positive")
        check_seed("shuffle_seed", self.shuffle_seed)


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
    levels = params.cfg.quantile_levels
    total = 0.0
    for out, target in no_grad_batches(params, windows, range(len(windows)),
                                       batch_size):
        loss = total_quantile_loss(target, out, levels)
        total += float(loss.data) * len(target)
    return total / len(windows)


def _apply_gradients(named: dict[str, "nm.Parameter"], max_norm: float,
                     state: OptimizerState) -> None:
    """Clip and apply the gradients `backward` left on the parameters, and
    take them off the parameters, so that none is held through the next
    forward; the next `backward` makes new ones. A parameter `backward` did
    not reach has a zero gradient."""
    grads = {}
    for name, p in named.items():
        grads[name] = np.zeros(p.shape) if p.grad is None else p.grad
        p.grad = None
    clip_gradient_norm(grads, max_norm)
    adam_step(named, grads, state)


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
    loss. A gradient already on a parameter is dropped at entry, and each
    step's gradients are freed once applied, so every parameter's `grad`
    is None when `fit` returns."""
    hyper.validate()
    for name, windows in (("train", train_windows),
                          ("validation", val_windows)):
        if len(windows) == 0:
            raise ConfigurationError(f"{name} split is empty")

    named = params.named_parameters()
    for p in named.values():
        p.grad = None   # left by a backward outside fit, not this fit's
    state = OptimizerState(learning_rate=hyper.learning_rate)
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
                _apply_gradients(named, hyper.grad_clip_norm, state)
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
    """Everything needed to reproduce inference: the model (its config and
    parameter tensors) and training metadata. The file also records the
    Table 1 scaling intervals, and loading refuses any others."""

    params: ModelParams
    metadata: dict


def make_checkpoint(params: ModelParams,
                    metadata: dict | None = None) -> Checkpoint:
    """Wrap the live model, without copying it."""
    return Checkpoint(params=params, metadata=dict(metadata or {}))


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write magic, a canonical JSON header (names, shapes, offsets, the
    payload's CRC-32), then the raw float64 little-endian tensor payloads,
    atomically."""
    arrays = {name: np.ascontiguousarray(p.data, dtype="<f8") for name, p
              in sorted(ckpt.params.named_parameters().items())}
    tensors = []
    offset = 0
    crc = 0
    for name, arr in arrays.items():
        tensors.append({"name": name, "shape": list(arr.shape),
                        "offset": offset})
        offset += arr.nbytes
        crc = zlib.crc32(arr, crc)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(ckpt.params.cfg),
        "scaler_intervals": {k: list(v)
                             for k, v in sorted(TABLE1_INTERVALS.items())},
        "metadata": ckpt.metadata,
        "payload_crc32": crc,
        "tensors": tensors,
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(arr)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    """Build the model the header describes and read each tensor from the
    file straight into its parameter's array, refusing by name a tensor
    whose name, shape or offset is not the model's."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(CHECKPOINT_MAGIC) + 8)
        if len(head) < len(CHECKPOINT_MAGIC) + 8:
            raise CheckpointError("checkpoint file is truncated")
        if head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic bytes)")
        header_end = 12 + struct.unpack("<Q", head[4:])[0]
        if size < header_end:
            raise CheckpointError("checkpoint file is truncated")
        try:
            header = json.loads(fh.read(header_end - 12).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(
                f"checkpoint header must be a JSON object, got "
                f"{type(header).__name__}")
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r}, expected "
                f"{CHECKPOINT_VERSION}")
        absent = [key for key in _HEADER_KEYS if key not in header]
        if absent:
            raise CheckpointError(f"checkpoint header is missing {absent}")
        cfg_dict = header["config"]
        if not isinstance(cfg_dict, dict):
            raise CheckpointError("checkpoint config must be a JSON object")
        fields = {f.name for f in dataclasses.fields(ModelConfig)}
        missing = sorted(fields - set(cfg_dict))
        extra = sorted(set(cfg_dict) - fields)
        if missing or extra:
            raise CheckpointError(
                f"checkpoint config key mismatch: missing {missing}, "
                f"unexpected {extra}")
        if isinstance(cfg_dict["quantile_levels"], list):
            cfg_dict["quantile_levels"] = tuple(cfg_dict["quantile_levels"])
        try:
            # every tensor is read from the file below, or the load is
            # refused, so the random init is not drawn
            params = ModelParams(ModelConfig(**cfg_dict), draw=False)
        except ConfigurationError as exc:
            raise CheckpointError(f"checkpoint config: {exc}") from None
        intervals = header["scaler_intervals"]
        if not isinstance(intervals, dict):
            raise CheckpointError(
                "checkpoint scaler_intervals must be a JSON object")
        for name, interval in intervals.items():
            if not (isinstance(interval, list) and len(interval) == 2):
                raise CheckpointError(
                    f"checkpoint scaler_intervals {name} must be a "
                    f"[low, high] pair, got {interval!r}")
        for name in sorted(intervals.keys() | TABLE1_INTERVALS.keys()):
            got, want = intervals.get(name), TABLE1_INTERVALS.get(name)
            if got is None or want is None or tuple(got) != want:
                raise CheckpointError(
                    f"checkpoint scaling interval for {name} is "
                    f"{'missing' if got is None else got}, but Table 1 has "
                    f"{'none' if want is None else list(want)}")
        if not isinstance(header["metadata"], dict):
            raise CheckpointError("checkpoint metadata must be a JSON object")
        if not isinstance(header["tensors"], list):
            raise CheckpointError("checkpoint tensors must be a JSON list")
        named = params.named_parameters()
        unread = dict(named)
        crc = offset = 0
        for i, entry in enumerate(header["tensors"]):
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("name"), str)):
                raise CheckpointError(
                    f"checkpoint tensor entry {i} has no name")
            name = entry["name"]
            param = unread.pop(name, None)
            if param is None:
                raise CheckpointError(
                    f"checkpoint tensor {name} is "
                    + ("listed twice" if name in named
                       else "not a model parameter"))
            if entry.get("shape") != list(param.shape):
                raise CheckpointError(
                    f"checkpoint tensor {name} has shape "
                    f"{entry.get('shape')!r}, but the model's is "
                    f"{list(param.shape)}")
            # save_checkpoint writes the payloads back to back in header
            # order, so any other offset would alias or skip bytes.
            if entry.get("offset") != offset:
                raise CheckpointError(
                    f"checkpoint tensor {name} has offset "
                    f"{entry.get('offset')!r}, expected {offset}")
            if fh.readinto(param.data) != param.data.nbytes:
                raise CheckpointError(
                    f"checkpoint file is truncated: tensor {name} "
                    f"extends past end of file")
            crc = zlib.crc32(param.data, crc)
            if sys.byteorder == "big":   # the file is little-endian
                param.data.byteswap(inplace=True)
            offset += param.data.nbytes
    if unread:
        raise CheckpointError(f"checkpoint lacks tensors {sorted(unread)}")
    if size - header_end != offset:
        raise CheckpointError(
            f"checkpoint payload length {size - header_end} does not match "
            f"its {offset} tensor bytes")
    if header["payload_crc32"] != crc:
        raise CheckpointError(
            f"checkpoint payload fails its checksum: CRC-32 {crc}, header "
            f"records {header['payload_crc32']!r}")
    return Checkpoint(params=params, metadata=header["metadata"])
