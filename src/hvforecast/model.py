"""Sequence-to-sequence quantile forecaster for multi-zone indoor
temperature.

Two input branches (one over the history window, one over the known future
covariates) each run dense projection, self-attention with a skip
connection, and a bidirectional LSTM, with gated residual blocks between
stages. Cross-attention queries the future branch against the history
branch and rejoins the future stream through a skip connection, a final
bidirectional LSTM decodes the result, and a shared dense head emits one
value per (timestep, zone, quantile level).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import (ConfigurationError, DimensionError, GradientError,
                     check_count, check_number, check_numbers, check_seed)
from .layers import BiLstm, Dense, Grn, Layer, MultiHeadAttention, dropout_apply
from .numerics import Parameter, Tensor
from .pipeline import FUTURE_FEATURES, PAST_FEATURES, WindowSet

DEFAULT_QUANTILE_LEVELS = (0.005, 0.025, 0.05, 0.5, 0.95, 0.975, 0.995)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and sampling geometry. `d_model` defaults to twice the
    LSTM units so attention blocks consume LSTM outputs directly; any other
    value routes through a dense adapter."""

    n_past: int = 672
    n_future: int = 96
    past_feature_count: int = len(PAST_FEATURES)
    future_feature_count: int = len(FUTURE_FEATURES)
    zone_count: int = 5
    rnn_units: int = 200
    mha_heads: int = 4
    d_model: int | None = None
    dropout_rate: float = 0.3
    quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS
    rng_seed: int = 0

    def __post_init__(self):
        # a wrongly typed rnn_units leaves d_model None, for validate to
        # refuse by name
        if (self.d_model is None
                and isinstance(self.rnn_units, numbers.Integral)):
            object.__setattr__(self, "d_model", 2 * self.rnn_units)

    def validate(self) -> None:
        for name in ("n_past", "n_future", "past_feature_count",
                     "future_feature_count", "zone_count", "rnn_units",
                     "mha_heads", "d_model"):
            check_count(name, getattr(self, name), minimum=1)
        if self.d_model % self.mha_heads != 0:
            raise ConfigurationError(
                f"d_model ({self.d_model}) must be divisible by mha_heads "
                f"({self.mha_heads})")
        check_number("dropout_rate", self.dropout_rate)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate ({self.dropout_rate}) must be in [0, 1)")
        check_numbers("quantile_levels", self.quantile_levels)
        levels = tuple(self.quantile_levels)
        fault = nm.level_fault(levels)
        if fault:
            raise ConfigurationError(
                f"quantile_levels: {fault[1]}, got {levels}")
        if 0.5 not in levels:
            raise ConfigurationError("quantile_levels must include 0.5")
        check_seed("rng_seed", self.rng_seed)


class _Branch(Layer):
    """Projection, self-attention, and bidirectional LSTM. The attention
    output passes through dropout, rejoins the projected stream through a
    skip connection, and the sum feeds a gated residual block, so
    position-local content survives even when attention averages broadly."""

    def __init__(self, d_in: int, cfg: ModelConfig,
                 rng: np.random.Generator | None, name: str):
        self.proj = Dense(d_in, cfg.d_model, rng, f"{name}/proj")
        self.attn = MultiHeadAttention(cfg.d_model, cfg.mha_heads, rng,
                                       f"{name}/self_mha")
        self.grn_attn = Grn(cfg.d_model, rng, f"{name}/grn_attn")
        self.lstm = BiLstm(cfg.d_model, cfg.rnn_units, rng, f"{name}/bilstm")
        self.grn_lstm = Grn(2 * cfg.rnn_units, rng, f"{name}/grn_lstm")
        if 2 * cfg.rnn_units != cfg.d_model:
            self.adapter = Dense(2 * cfg.rnn_units, cfg.d_model, rng,
                                 f"{name}/adapter")
        else:
            self.adapter = None
        self.dropout_rate = cfg.dropout_rate

    def __call__(self, seq: Tensor, training: bool,
                 rng: np.random.Generator | None) -> Tensor:
        x = self.proj(seq)
        a = self.attn(x, x)
        a = dropout_apply(a, self.dropout_rate, training, rng)
        x = self.grn_attn(nm.add(x, a))
        h = self.lstm(x)
        h = dropout_apply(h, self.dropout_rate, training, rng)
        h = self.grn_lstm(h)
        if self.adapter is not None:
            h = self.adapter(h)
        return h


class ModelParams(Layer):
    """All model weights, built deterministically from the config seed.
    With `draw=False` the random weights are left undrawn, for a caller
    that overwrites every parameter (`training.load_checkpoint`)."""

    def __init__(self, cfg: ModelConfig, draw: bool = True):
        cfg.validate()
        rng = np.random.default_rng(cfg.rng_seed) if draw else None
        q_count = len(cfg.quantile_levels)
        self.cfg = cfg
        self.encoder = _Branch(cfg.past_feature_count, cfg, rng, "encoder")
        self.decoder = _Branch(cfg.future_feature_count, cfg, rng, "decoder")
        self.cross = MultiHeadAttention(cfg.d_model, cfg.mha_heads, rng,
                                        "cross_mha")
        self.grn_cross = Grn(cfg.d_model, rng, "grn_cross")
        self.out_lstm = BiLstm(cfg.d_model, cfg.rnn_units, rng,
                               "output_bilstm")
        self.grn_out = Grn(2 * cfg.rnn_units, rng, "grn_out")
        self.head = Dense(2 * cfg.rnn_units, cfg.zone_count * q_count, rng,
                          "head")

    def named_parameters(self) -> dict[str, Parameter]:
        out: dict[str, Parameter] = {}
        for p in self.parameters():
            if p.name in out:
                raise ConfigurationError(f"duplicate parameter name {p.name}")
            out[p.name] = p
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


def build_model(cfg: ModelConfig) -> ModelParams:
    return ModelParams(cfg)


def _batched_input(x, want_steps: int, want_features: int,
                   stage: str) -> Tensor:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (want_steps, want_features):
        raise DimensionError(
            f"{stage}: expected (batch, {want_steps}, {want_features}), "
            f"got {arr.shape}")
    return Tensor(arr)


def forward_batch(
    params: ModelParams,
    past,
    future,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the model over a batch of scaled windows, `past` of shape
    (batch, n_past, past_feature_count) and `future` of shape
    (batch, n_future, future_feature_count). Returns a Tensor of shape
    (batch, n_future, zone_count, level_count)."""
    cfg = params.cfg
    past_t = _batched_input(past, cfg.n_past, cfg.past_feature_count,
                            "encoder input")
    future_t = _batched_input(future, cfg.n_future, cfg.future_feature_count,
                              "decoder input")
    if past_t.shape[0] != future_t.shape[0]:
        raise DimensionError(
            f"batch mismatch: past {past_t.shape[0]} vs future "
            f"{future_t.shape[0]}")

    enc = params.encoder(past_t, training, rng)
    dec = params.decoder(future_t, training, rng)
    crossed = params.cross(dec, enc)
    x = params.grn_cross(nm.add(dec, crossed))
    x = params.out_lstm(x)
    x = params.grn_out(x)
    flat = params.head(x)
    batch = past_t.shape[0]
    return nm.reshape(flat, (batch, cfg.n_future, cfg.zone_count,
                             len(cfg.quantile_levels)))


def no_grad_batches(params: ModelParams, windows: WindowSet, indices,
                    batch_size: int):
    """The one inference loop: forward the windows at `indices` (a sliceable,
    non-empty sequence) without recording gradients, `batch_size` (>= 1) at
    a time, yielding each chunk's output Tensor and its scaled targets."""
    check_count("batch_size", batch_size, minimum=1)
    if len(indices) == 0:
        raise ConfigurationError("cannot forecast an empty window set")
    with nm.no_grad():
        for lo in range(0, len(indices), batch_size):
            past, future, target = windows.batch(indices[lo:lo + batch_size])
            yield forward_batch(params, past, future), target


def forecast_windows(
    params: ModelParams,
    windows: WindowSet,
    indices,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Forecast the chosen windows without recording gradients, in chunks
    of `batch_size`, and map them to degrees C with the scaler the windows
    were built with. Returns values (N, n_future, zone_count, level_count)
    and actuals (N, n_future, zone_count). Non-finite forecasts are refused,
    naming the origin of the first window that has one."""
    indices = list(indices)
    outs, actuals = zip(*no_grad_batches(params, windows, indices,
                                         batch_size))
    scaler = windows.scaler
    values = scaler.inverse_scale_targets(
        np.concatenate([out.data for out in outs]), axis=2)
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        origin = windows.origins[indices[int(np.argmin(finite))]]
        raise GradientError(
            f"forecast for the window at origin {origin} has non-finite "
            f"values")
    return values, scaler.inverse_scale_targets(np.concatenate(actuals),
                                                axis=2)


def set_parameter_values(params: ModelParams,
                         values: dict[str, np.ndarray]) -> None:
    """Overwrite every named parameter from the mapping; names and shapes
    must match exactly."""
    named = params.named_parameters()
    missing = sorted(set(named) - set(values))
    extra = sorted(set(values) - set(named))
    if missing or extra:
        raise ConfigurationError(
            f"parameter name mismatch: missing {missing}, unexpected {extra}")
    for name, param in named.items():
        arr = np.asarray(values[name], dtype=np.float64)
        if arr.shape != param.shape:
            raise DimensionError(
                f"parameter {name}: shape {arr.shape} does not match "
                f"{param.shape}")
        param.data = arr.copy()
