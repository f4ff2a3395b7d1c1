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

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigurationError, DimensionError
from .layers import BiLstm, Dense, Grn, Layer, MultiHeadAttention, dropout_apply
from .numerics import Parameter, Tensor
from .pipeline import (FUTURE_FEATURES, PAST_FEATURES, Scaler, WindowSet,
                       scale_features)

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
        if self.d_model is None:
            object.__setattr__(self, "d_model", 2 * self.rnn_units)

    def validate(self) -> None:
        for name in ("n_past", "n_future", "past_feature_count",
                     "future_feature_count", "zone_count", "rnn_units",
                     "mha_heads", "d_model"):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.d_model % self.mha_heads != 0:
            raise ConfigurationError(
                f"d_model ({self.d_model}) must be divisible by mha_heads "
                f"({self.mha_heads})")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate ({self.dropout_rate}) must be in [0, 1)")
        levels = tuple(self.quantile_levels)
        if not levels:
            raise ConfigurationError("quantile_levels must be non-empty")
        for q in levels:
            if not 0.0 < q < 1.0:
                raise ConfigurationError(
                    f"quantile_levels entry {q} outside (0, 1)")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigurationError(
                f"quantile_levels must be strictly ascending, got {levels}")
        if 0.5 not in levels:
            raise ConfigurationError("quantile_levels must include 0.5")


@dataclass
class QuantileForecast:
    """Forecast values in degrees C, one per (future step, zone, quantile
    level), plus how many raw inputs had to be clamped into their documented
    intervals before scaling."""

    values: np.ndarray
    quantile_levels: tuple[float, ...]
    clamped_inputs: int = 0


class _Branch(Layer):
    """Projection, self-attention, and bidirectional LSTM. The attention
    output passes through dropout, rejoins the projected stream through a
    skip connection, and the sum feeds a gated residual block, so
    position-local content survives even when attention averages broadly."""

    def __init__(self, d_in: int, cfg: ModelConfig, rng: np.random.Generator,
                 name: str):
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
    """All model weights, built deterministically from the config seed."""

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        rng = np.random.default_rng(cfg.rng_seed)
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


def _as_batched_tensor(x, want_steps: int, want_features: int,
                       stage: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=float))
    if t.ndim == 2:
        t = nm.reshape(t, (1,) + t.shape)
    if t.ndim != 3 or t.shape[1] != want_steps or t.shape[2] != want_features:
        raise DimensionError(
            f"{stage}: expected (batch, {want_steps}, {want_features}), "
            f"got {t.shape}")
    return t


def forward_batch(
    params: ModelParams,
    past,
    future,
    training: bool = False,
    rng: np.random.Generator | None = None,
    collect_attention: bool = False,
):
    """Run the model over a batch. Returns a Tensor of shape
    (batch, n_future, zone_count, level_count); with `collect_attention`
    also returns the cross-attention weights as a plain array of shape
    (batch, heads, n_future, n_past)."""
    cfg = params.cfg
    past_t = _as_batched_tensor(past, cfg.n_past, cfg.past_feature_count,
                                "encoder input")
    future_t = _as_batched_tensor(future, cfg.n_future,
                                  cfg.future_feature_count, "decoder input")
    if past_t.shape[0] != future_t.shape[0]:
        raise DimensionError(
            f"batch mismatch: past {past_t.shape[0]} vs future "
            f"{future_t.shape[0]}")

    enc = params.encoder(past_t, training, rng)
    dec = params.decoder(future_t, training, rng)
    crossed, weights = params.cross(dec, enc, return_weights=True)
    x = params.grn_cross(nm.add(dec, crossed))
    x = params.out_lstm(x)
    x = params.grn_out(x)
    flat = params.head(x)
    batch = past_t.shape[0]
    out = nm.reshape(flat, (batch, cfg.n_future, cfg.zone_count,
                            len(cfg.quantile_levels)))
    if collect_attention:
        return out, weights.data.copy()
    return out


def model_forward(
    params: ModelParams,
    past,
    future,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Single-sample forward: (n_past, F_past) and (n_future, F_future) in
    scaled units to (n_future, zone_count, level_count) in scaled units."""
    out = forward_batch(params, past, future, training=training, rng=rng)
    return nm.reshape(out, out.shape[1:])


def predict(
    params: ModelParams,
    raw_past: np.ndarray,
    raw_future: np.ndarray,
    scaler: Scaler | None = None,
) -> QuantileForecast:
    """Forecast from physical-unit feature matrices: scale inputs feature by
    feature, run inference, and inverse-scale the outputs to degrees C.
    Inputs outside their documented intervals are clamped and counted."""
    cfg = params.cfg
    if scaler is None:
        scaler = Scaler()
    raw_past = np.asarray(raw_past, dtype=float)
    raw_future = np.asarray(raw_future, dtype=float)
    if raw_past.shape != (cfg.n_past, cfg.past_feature_count):
        raise DimensionError(
            f"encoder input: expected ({cfg.n_past}, "
            f"{cfg.past_feature_count}), got {raw_past.shape}")
    if raw_future.shape != (cfg.n_future, cfg.future_feature_count):
        raise DimensionError(
            f"decoder input: expected ({cfg.n_future}, "
            f"{cfg.future_feature_count}), got {raw_future.shape}")

    before = scaler.total_clamped()
    past = scale_features(raw_past, PAST_FEATURES, scaler)
    future = scale_features(raw_future, FUTURE_FEATURES, scaler)
    clamped = scaler.total_clamped() - before

    with nm.no_grad():
        out = model_forward(params, past, future, training=False)
    values = scaler.inverse_scale_targets(out.data, axis=1)
    if not np.all(np.isfinite(values)):
        raise DimensionError("forecast produced non-finite values")
    return QuantileForecast(values=values,
                            quantile_levels=tuple(cfg.quantile_levels),
                            clamped_inputs=clamped)


def forecast_windows(
    params: ModelParams,
    windows: WindowSet,
    indices,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Forecast the chosen windows without recording gradients, in chunks
    of `batch_size`, and map them to degrees C with the scaler the windows
    were built with. Returns values (N, n_future, zone_count, level_count)
    and actuals (N, n_future, zone_count)."""
    indices = list(indices)
    values, actuals = [], []
    with nm.no_grad():
        for lo in range(0, len(indices), batch_size):
            past, future, target = windows.batch(indices[lo:lo + batch_size])
            values.append(forward_batch(params, past, future).data)
            actuals.append(target)
    scaler = windows.scaler
    return (scaler.inverse_scale_targets(np.concatenate(values), axis=2),
            scaler.inverse_scale_targets(np.concatenate(actuals), axis=2))


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
