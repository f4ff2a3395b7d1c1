"""Neural building blocks: LSTM cell, bidirectional LSTM, multi-head
attention, gated linear unit, gated residual network, layer norm, dense,
dropout.

All layers are pure functions of (input, weights, rng stream). Sequences are
(batch, time, features); single-sample helpers wrap a batch of one. Weights
are `Parameter` leaves registered under slash-separated names so a model can
enumerate them for optimization and checkpointing.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import numerics as nm
from .errors import ConfigurationError, ContractViolation, DimensionError
from .numerics import Parameter, Tensor


class Layer:
    """Base: tracks child layers/parameters in declaration order."""

    def parameters(self) -> Iterator[Parameter]:
        for name, value in self.__dict__.items():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Layer):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Layer):
                        yield from item.parameters()


def _uniform(rng: np.random.Generator, bound: float, shape) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


class Dense(Layer):
    """Affine map along the last axis: y = x W + b."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name: str):
        bound = 1.0 / math.sqrt(d_in)
        self.w = Parameter(f"{name}/w", _uniform(rng, bound, (d_in, d_out)))
        self.b = Parameter(f"{name}/b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return nm.add_bias(nm.matmul(x, self.w), self.b)


class LstmState:
    """Hidden and cell activations, each (batch, units)."""

    __slots__ = ("h", "c")

    def __init__(self, h: Tensor, c: Tensor):
        if h.shape != c.shape:
            raise DimensionError(f"LstmState: h {h.shape} and c {c.shape} differ")
        self.h = h
        self.c = c

    @classmethod
    def zeros(cls, batch: int, units: int) -> "LstmState":
        return cls(Tensor(np.zeros((batch, units))), Tensor(np.zeros((batch, units))))


class LstmCell(Layer):
    """Single LSTM step with packed gate kernels (order: input, forget,
    candidate, output). Forget-gate bias starts at 1.0; other weights are
    uniform in +/- 1/sqrt(units)."""

    def __init__(self, d_in: int, units: int, rng: np.random.Generator, name: str):
        self.units = units
        bound = 1.0 / math.sqrt(units)
        self.w_x = Parameter(f"{name}/w_x", _uniform(rng, bound, (d_in, 4 * units)))
        self.w_h = Parameter(f"{name}/w_h", _uniform(rng, bound, (units, 4 * units)))
        bias = np.zeros(4 * units)
        bias[units:2 * units] = 1.0
        self.b = Parameter(f"{name}/b", bias)

    def step(self, x: Tensor, state: LstmState) -> LstmState:
        if x.shape[-1] != self.w_x.shape[0]:
            raise DimensionError(
                f"lstm step: input extent {x.shape[-1]} does not match kernel {self.w_x.shape}")
        u = self.units
        z = nm.add_bias(nm.add(nm.matmul(x, self.w_x), nm.matmul(state.h, self.w_h)), self.b)
        i = nm.sigmoid(nm.narrow(z, -1, 0, u))
        f = nm.sigmoid(nm.narrow(z, -1, u, u))
        g = nm.tanh(nm.narrow(z, -1, 2 * u, u))
        o = nm.sigmoid(nm.narrow(z, -1, 3 * u, u))
        c_next = nm.add(nm.mul(f, state.c), nm.mul(i, g))
        h_next = nm.mul(o, nm.tanh(c_next))
        return LstmState(h_next, c_next)


class BiLstm(Layer):
    """Forward-in-time and backward-in-time LSTM passes, outputs concatenated
    per step to (batch, time, 2*units). Each pass is a single
    `numerics.lstm_sequence` graph node with hand-written backpropagation
    through time, computing the same recurrence as `LstmCell.step`."""

    def __init__(self, d_in: int, units: int, rng: np.random.Generator, name: str):
        self.units = units
        self.fwd = LstmCell(d_in, units, rng, f"{name}/fwd")
        self.bwd = LstmCell(d_in, units, rng, f"{name}/bwd")

    def __call__(self, seq: Tensor) -> Tensor:
        fwd = nm.lstm_sequence(seq, self.fwd.w_x, self.fwd.w_h, self.fwd.b)
        bwd = nm.lstm_sequence(seq, self.bwd.w_x, self.bwd.w_h, self.bwd.b, reverse=True)
        return nm.concat([fwd, bwd], axis=-1)


class MultiHeadAttention(Layer):
    """Scaled dot-product attention run over several heads in parallel.

    Self-attention passes the same sequence for queries and keys/values;
    cross-attention draws keys/values from a second sequence.
    """

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator, name: str):
        if d_model % heads != 0:
            raise ConfigurationError(f"mha: d_model {d_model} not divisible by {heads} heads")
        self.d_model = d_model
        self.heads = heads
        self.d_head = d_model // heads
        self.wq = Dense(d_model, d_model, rng, f"{name}/q")
        self.wk = Dense(d_model, d_model, rng, f"{name}/k")
        self.wv = Dense(d_model, d_model, rng, f"{name}/v")
        self.wo = Dense(d_model, d_model, rng, f"{name}/out")

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, steps, _ = x.shape
        return nm.transpose(nm.reshape(x, (batch, steps, self.heads, self.d_head)),
                            (0, 2, 1, 3))

    def __call__(self, q_seq: Tensor, kv_seq: Tensor, return_weights: bool = False):
        if q_seq.shape[-1] != self.d_model or kv_seq.shape[-1] != self.d_model:
            raise DimensionError(
                f"mha: feature extents {q_seq.shape[-1]}/{kv_seq.shape[-1]} "
                f"do not match d_model {self.d_model}")
        batch, tq, _ = q_seq.shape
        q = self._split_heads(self.wq(q_seq))            # (B, H, Tq, dh)
        k = self._split_heads(self.wk(kv_seq))           # (B, H, Tk, dh)
        v = self._split_heads(self.wv(kv_seq))
        scores = nm.mul(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))),
                        1.0 / math.sqrt(self.d_head))    # (B, H, Tq, Tk)
        weights = nm.softmax_last_axis(scores)
        mixed = nm.matmul(weights, v)                    # (B, H, Tq, dh)
        merged = nm.reshape(nm.transpose(mixed, (0, 2, 1, 3)), (batch, tq, self.d_model))
        out = self.wo(merged)
        if return_weights:
            return out, weights
        return out


class Glu(Layer):
    """Gated linear unit: one affine map produces value and gate halves,
    output = value * sigmoid(gate)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name: str):
        self.d_out = d_out
        self.proj = Dense(d_in, 2 * d_out, rng, f"{name}/proj")

    def __call__(self, x: Tensor) -> Tensor:
        z = self.proj(x)
        value = nm.narrow(z, -1, 0, self.d_out)
        gate = nm.narrow(z, -1, self.d_out, self.d_out)
        return nm.mul(value, nm.sigmoid(gate))


def glu_combine(value: Tensor, gate_preact: Tensor) -> Tensor:
    """Bare gating a * sigmoid(b) for already-projected halves."""
    if value.shape != gate_preact.shape:
        raise DimensionError(
            f"glu: value {value.shape} and gate {gate_preact.shape} differ")
    return nm.mul(value, nm.sigmoid(gate_preact))


class LayerNorm(Layer):
    """Normalize each last-axis slice to zero mean / unit variance
    (population convention), then apply gain and bias."""

    def __init__(self, d: int, rng: np.random.Generator | None = None,
                 name: str = "ln", eps: float = 1e-5):
        if d < 1:
            raise DimensionError("layer norm: extent must be >= 1")
        if eps <= 0:
            raise ConfigurationError("layer norm: eps must be positive")
        self.d = d
        self.eps = eps
        self.gain = Parameter(f"{name}/gain", np.ones(d))
        self.bias = Parameter(f"{name}/bias", np.zeros(d))

    def __call__(self, x: Tensor, eps: float | None = None) -> Tensor:
        return layer_norm_forward(x, self.gain, self.bias, self.eps if eps is None else eps)


def layer_norm_forward(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    d = x.shape[-1]
    mean = nm.tmean(x, axis=-1, keepdims=True)
    centered = nm.sub(x, nm.expand_last(mean, d))
    var = nm.tmean(nm.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = nm.power(nm.add(var, eps), -0.5)
    normed = nm.mul(centered, nm.expand_last(inv_std, d))
    return nm.add_bias(nm.scale_by_vector(normed, gain), bias)


class Grn(Layer):
    """Gated residual wrapper: LayerNorm(x + GLU(dense(elu(dense(x))))).

    Preserves the feature extent; with the gate shut it degrades to a plain
    layer norm of its input.
    """

    def __init__(self, d: int, rng: np.random.Generator, name: str):
        self.d = d
        self.fc1 = Dense(d, d, rng, f"{name}/fc1")
        self.fc2 = Dense(d, d, rng, f"{name}/fc2")
        self.glu = Glu(d, d, rng, f"{name}/glu")
        self.ln = LayerNorm(d, name=f"{name}/ln")

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d:
            raise DimensionError(f"grn: input extent {x.shape[-1]} != {self.d}")
        branch = self.glu(self.fc2(nm.elu(self.fc1(x))))
        return self.ln(nm.add(x, branch))


def dropout_apply(x: Tensor, rate: float, training: bool,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Zero each element with probability `rate` and rescale survivors by
    1/(1-rate) during training; identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout: rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractViolation("dropout: training mode needs an rng stream")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return nm.mul(x, Tensor(mask))
