"""Unfused graph compositions that the fused numerics nodes replace, kept as
test-side references.

Each reference builds the same computation from small engine ops, so a
fused node's outputs and gradients can be compared with it. The small ops
that only these references and the tests need (`tanh`, `sigmoid`, `exp`,
`sub`, `maximum`, `power`, `matmul`, `transpose`, `narrow`, `stack`,
`add_bias`, `scale_by_vector`, `expand_last`, `tmean`, `softmax_last_axis`)
live here too, built on the engine's node constructor. `lstm_step` is one
step of the recurrence `numerics.lstm_sequence` runs, and `inverse_scale`
is the per-feature reference for `Scaler.inverse_scale_targets`.
`kept_weights` reads the softmax weights a recorded `numerics.attention`
node keeps for its backward, to compare with those of `attention`.
"""

from __future__ import annotations

import math

import numpy as np

from hvforecast import numerics as nm
from hvforecast.errors import ContractViolation, DimensionError
from hvforecast.numerics import Tensor
from hvforecast.pipeline import TABLE1_INTERVALS

# ---------------------------------------------------------------------------
# small graph ops
# ---------------------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return nm._result(y, "tanh", (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    y = nm._sigmoid(a.data)
    return nm._result(y, "sigmoid", (a,), lambda g: (g * y * (1.0 - y),))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return nm._result(y, "exp", (a,), lambda g: (g * y,))


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return nm._result(a.data - c, "sub", (a,), lambda g: (g,))
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} differ")
    return nm._result(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    if a.shape != b.shape:
        raise DimensionError(f"maximum: shapes {a.shape} and {b.shape} differ")
    mask = a.data >= b.data
    return nm._result(np.where(mask, a.data, b.data), "maximum", (a, b),
                      lambda g: (g * mask, g * ~mask))


def power(a: Tensor, p: float) -> Tensor:
    base = a.data
    return nm._result(base ** p, "power", (a,),
                      lambda g: (g * p * base ** (p - 1.0),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. `a` may carry leading batch axes; `b` is either a plain
    matrix (shared weights) or stacked with leading axes equal to `a`'s."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be >=2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: leading extents differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    if b.ndim == 2:
        def bw(g):
            ga = g @ bd.T
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb
    else:
        def bw(g):
            ga = g @ bd.swapaxes(-1, -2)
            gb = ad.swapaxes(-1, -2) @ g
            return ga, gb

    return nm._result(out, "matmul", (a, b), bw)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return nm._result(a.data.transpose(axes), "transpose", (a,),
                      lambda g: (g.transpose(inv),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) exceeds extent {a.shape[axis]} of axis {axis}")
    idx = tuple(slice(None) if d != axis else slice(start, start + length) for d in range(a.ndim))
    shape = a.shape

    def bw(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return nm._result(a.data[idx], "narrow", (a,), bw)


def stack(tensors, axis: int) -> Tensor:
    if not tensors:
        raise ContractViolation("stack: empty input list")

    def bw(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return nm._result(np.stack([t.data for t in tensors], axis=axis), "stack",
                      tuple(tensors), bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a rank-1 bias along the last axis of x (explicit trailing-axis lift)."""
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise DimensionError(f"add_bias: bias {b.shape} does not match last extent of {x.shape}")

    def bw(g):
        return g, g.reshape(-1, g.shape[-1]).sum(axis=0)

    return nm._result(x.data + b.data, "add_bias", (x, b), bw)


def scale_by_vector(x: Tensor, v: Tensor) -> Tensor:
    """Multiply by a rank-1 vector along the last axis of x."""
    if v.ndim != 1 or v.shape[0] != x.shape[-1]:
        raise DimensionError(f"scale_by_vector: vector {v.shape} does not match {x.shape}")
    xd, vd = x.data, v.data

    def bw(g):
        return g * vd, (g * xd).reshape(-1, g.shape[-1]).sum(axis=0)

    return nm._result(xd * vd, "scale_by_vector", (x, v), bw)


def expand_last(x: Tensor, extent: int) -> Tensor:
    """Broadcast a trailing singleton axis to `extent`."""
    if x.shape[-1] != 1:
        raise DimensionError(f"expand_last: last extent of {x.shape} is not 1")
    out = np.broadcast_to(x.data, x.shape[:-1] + (extent,))
    return nm._result(out, "expand_last", (x,),
                      lambda g: (g.sum(axis=-1, keepdims=True),))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        n = int(np.prod([shape[i] for i in axes]))

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, shape).copy(),)

    return nm._result(a.data.mean(axis=axis, keepdims=keepdims), "mean", (a,), bw)


def softmax_last_axis(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if x.shape[-1] < 1:
        raise DimensionError("softmax_last_axis: empty last axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return nm._result(y, "softmax", (x,), bw)


# ---------------------------------------------------------------------------
# unfused references of the fused nodes
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add_bias(matmul(x, w), b)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    d = x.shape[-1]
    mean = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, expand_last(mean, d))
    var = tmean(nm.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = power(nm.add(var, eps), -0.5)
    normed = nm.mul(centered, expand_last(inv_std, d))
    return add_bias(scale_by_vector(normed, gain), bias)


def glu(z: Tensor) -> Tensor:
    d = z.shape[-1] // 2
    value = narrow(z, -1, 0, d)
    gate = narrow(z, -1, d, d)
    return nm.mul(value, sigmoid(gate))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """Split heads, scaled scores, softmax, mixing and merge; returns the
    merged output and the softmax node."""
    batch, tq, dm = q.shape
    d_head = dm // heads

    def split(x):
        return transpose(nm.reshape(x, (batch, x.shape[1], heads, d_head)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = nm.mul(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(d_head))
    weights = softmax_last_axis(scores)
    mixed = matmul(weights, vh)
    return nm.reshape(transpose(mixed, (0, 2, 1, 3)), (batch, tq, dm)), weights


def kept_weights(node: Tensor) -> np.ndarray:
    """The softmax weights (batch, heads, Tq, Tk) held by the backward
    closure of a recorded `numerics.attention` node."""
    names = node._backward.__code__.co_freevars
    return node._backward.__closure__[names.index("weights")].cell_contents


def pinball_loss(y: Tensor, yhat: Tensor, q: float) -> Tensor:
    err = sub(y, yhat)
    return tmean(maximum(nm.mul(err, q), nm.mul(err, q - 1.0)))


def quantile_loss(y: Tensor, yhat: Tensor, levels) -> Tensor:
    """Per-level pinball losses on narrowed slices, summed, then averaged."""
    total = None
    for k, q in enumerate(levels):
        slice_k = nm.reshape(narrow(yhat, yhat.ndim - 1, k, 1), y.shape)
        term = pinball_loss(y, slice_k, q)
        total = term if total is None else nm.add(total, term)
    return nm.mul(total, 1.0 / len(levels))


def lstm_step(cell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One step of `cell` (an `LstmCell`) from the state (h, c), each
    (batch, units), with the gates packed (input, forget, candidate,
    output): the recurrence `numerics.lstm_sequence` runs as one node.
    Returns the next (h, c)."""
    if x.shape[-1] != cell.w_x.shape[0]:
        raise DimensionError(
            f"lstm step: input extent {x.shape[-1]} does not match kernel {cell.w_x.shape}")
    if h.shape != c.shape:
        raise DimensionError(f"lstm step: h {h.shape} and c {c.shape} differ")
    u = cell.w_h.shape[0]
    z = add_bias(nm.add(matmul(x, cell.w_x), matmul(h, cell.w_h)), cell.b)
    i = sigmoid(narrow(z, -1, 0, u))
    f = sigmoid(narrow(z, -1, u, u))
    g = tanh(narrow(z, -1, 2 * u, u))
    o = sigmoid(narrow(z, -1, 3 * u, u))
    c_next = nm.add(nm.mul(f, c), nm.mul(i, g))
    return nm.mul(o, tanh(c_next)), c_next


# ---------------------------------------------------------------------------
# per-feature reference of the one map back to physical units
# ---------------------------------------------------------------------------


def inverse_scale(scaled, feature: str) -> np.ndarray:
    """Map one feature's scaled values back to its Table 1 interval, as
    `Scaler.inverse_scale_targets` does for all zones at once."""
    lo, hi = TABLE1_INTERVALS[feature]
    arr = np.asarray(scaled, dtype=float)
    return (arr + 1.0) * (hi - lo) / 2.0 + lo
