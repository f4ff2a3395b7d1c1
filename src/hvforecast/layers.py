"""Neural building blocks: LSTM weights, bidirectional LSTM, multi-head
attention, gated linear unit, gated residual network, layer norm, dense,
dropout.

All layers are pure functions of (input, weights, rng stream). Sequences are
(batch, time, features). Weights are `Parameter` leaves registered under
slash-separated names so a model can enumerate them for optimization and
checkpointing.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import numerics as nm
from .errors import ConfigurationError, ContractViolation, DimensionError
from .numerics import Parameter, Tensor


class Layer:
    """Base: yields the parameters held as attributes and those of child
    layers, in declaration order."""

    def parameters(self) -> Iterator[Parameter]:
        for name, value in self.__dict__.items():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Layer):
                yield from value.parameters()


def _uniform(rng: np.random.Generator | None, bound: float,
             shape) -> np.ndarray:
    """Weights drawn uniform in +/- `bound`; with no generator, left
    undrawn (`np.empty`) for a caller that fills every one."""
    if rng is None:
        return np.empty(shape)
    return rng.uniform(-bound, bound, size=shape)


class Dense(Layer):
    """Affine map along the last axis: y = x W + b."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None,
                 name: str):
        bound = 1.0 / math.sqrt(d_in)
        self.w = Parameter(f"{name}/w", _uniform(rng, bound, (d_in, d_out)))
        self.b = Parameter(f"{name}/b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return nm.affine(x, self.w, self.b)


class LstmCell(Layer):
    """Weights of one LSTM direction, gate kernels packed in the order
    input, forget, candidate, output; `numerics.lstm_sequence` runs them.
    Forget-gate bias starts at 1.0; other weights are uniform in
    +/- 1/sqrt(units)."""

    def __init__(self, d_in: int, units: int, rng: np.random.Generator | None,
                 name: str):
        bound = 1.0 / math.sqrt(units)
        self.w_x = Parameter(f"{name}/w_x", _uniform(rng, bound, (d_in, 4 * units)))
        self.w_h = Parameter(f"{name}/w_h", _uniform(rng, bound, (units, 4 * units)))
        bias = np.zeros(4 * units)
        bias[units:2 * units] = 1.0
        self.b = Parameter(f"{name}/b", bias)


class BiLstm(Layer):
    """Forward-in-time and backward-in-time LSTM passes, outputs concatenated
    per step to (batch, time, 2*units). Each pass is a single
    `numerics.lstm_sequence` graph node with hand-written backpropagation
    through time, computing the recurrence of the one-step reference
    `lstm_step` in `tests/unfused.py`."""

    def __init__(self, d_in: int, units: int, rng: np.random.Generator | None,
                 name: str):
        self.fwd = LstmCell(d_in, units, rng, f"{name}/fwd")
        self.bwd = LstmCell(d_in, units, rng, f"{name}/bwd")

    def __call__(self, seq: Tensor) -> Tensor:
        fwd = nm.lstm_sequence(seq, self.fwd.w_x, self.fwd.w_h, self.fwd.b)
        bwd = nm.lstm_sequence(seq, self.bwd.w_x, self.bwd.w_h, self.bwd.b, reverse=True)
        return nm.concat([fwd, bwd], axis=-1)


class MultiHeadAttention(Layer):
    """Scaled dot-product attention run over several heads in parallel.

    Self-attention passes the same sequence for queries and keys/values;
    cross-attention draws keys/values from a second sequence. The head
    split, scores, softmax, mixing and merge are one `numerics.attention`
    node between the four dense maps; the call returns the output of the
    last one. The softmax weights stay inside that node.
    """

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator | None,
                 name: str):
        if d_model % heads != 0:
            raise ConfigurationError(f"mha: d_model {d_model} not divisible by {heads} heads")
        self.d_model = d_model
        self.heads = heads
        self.wq = Dense(d_model, d_model, rng, f"{name}/q")
        self.wk = Dense(d_model, d_model, rng, f"{name}/k")
        self.wv = Dense(d_model, d_model, rng, f"{name}/v")
        self.wo = Dense(d_model, d_model, rng, f"{name}/out")

    def __call__(self, q_seq: Tensor, kv_seq: Tensor) -> Tensor:
        if q_seq.shape[-1] != self.d_model or kv_seq.shape[-1] != self.d_model:
            raise DimensionError(
                f"mha: feature extents {q_seq.shape[-1]}/{kv_seq.shape[-1]} "
                f"do not match d_model {self.d_model}")
        mixed = nm.attention(self.wq(q_seq), self.wk(kv_seq), self.wv(kv_seq),
                             self.heads)
        return self.wo(mixed)


class Glu(Layer):
    """Weights of a gated linear unit: one affine map produces the value
    and gate halves, output = value * sigmoid(gate), which
    `numerics.gate_add_norm` applies."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None,
                 name: str):
        self.proj = Dense(d_in, 2 * d_out, rng, f"{name}/proj")


# Added to the variance before its inverse square root.
LAYER_NORM_EPS = 1e-5


class LayerNorm(Layer):
    """Gain and bias of a layer norm, which normalizes each last-axis slice
    to zero mean / unit variance (population convention) and then applies
    them; `numerics.gate_add_norm` runs it."""

    def __init__(self, d: int, name: str = "ln"):
        if d < 1:
            raise DimensionError("layer norm: extent must be >= 1")
        self.gain = Parameter(f"{name}/gain", np.ones(d))
        self.bias = Parameter(f"{name}/bias", np.zeros(d))


class Grn(Layer):
    """Gated residual wrapper: LayerNorm(x + GLU(dense(elu(dense(x))))).

    The gate, the residual add and the layer norm are one
    `numerics.gate_add_norm` node. Preserves the feature extent; with the
    gate shut it degrades to a plain layer norm of its input.
    """

    def __init__(self, d: int, rng: np.random.Generator | None, name: str):
        self.d = d
        self.fc1 = Dense(d, d, rng, f"{name}/fc1")
        self.fc2 = Dense(d, d, rng, f"{name}/fc2")
        self.glu = Glu(d, d, rng, f"{name}/glu")
        self.ln = LayerNorm(d, name=f"{name}/ln")

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d:
            raise DimensionError(f"grn: input extent {x.shape[-1]} != {self.d}")
        gate_in = self.glu.proj(self.fc2(nm.elu(self.fc1(x))))
        return nm.gate_add_norm(x, gate_in, self.ln.gain, self.ln.bias,
                                LAYER_NORM_EPS)


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
    return nm.dropout(x, rng.random(x.shape) >= rate, rate)
