"""Unfused graph compositions that the fused numerics nodes replace, kept as
test-side references.

Each reference builds the same computation from small engine ops, so a
fused node's outputs and gradients can be compared with it. The small ops
that only these references and the tests need (`sub`, `maximum`, `power`,
`transpose`, `scale_by_vector`, `expand_last`, `tmean`,
`softmax_last_axis`) live here too, built on the engine's node constructor.
"""

from __future__ import annotations

import math

import numpy as np

from hvforecast import numerics as nm
from hvforecast.errors import DimensionError
from hvforecast.numerics import Tensor

# ---------------------------------------------------------------------------
# small graph ops
# ---------------------------------------------------------------------------


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


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return nm._result(a.data.transpose(axes), "transpose", (a,),
                      lambda g: (g.transpose(inv),))


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
    return nm.add_bias(nm.matmul(x, w), b)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    d = x.shape[-1]
    mean = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, expand_last(mean, d))
    var = tmean(nm.mul(centered, centered), axis=-1, keepdims=True)
    inv_std = power(nm.add(var, eps), -0.5)
    normed = nm.mul(centered, expand_last(inv_std, d))
    return nm.add_bias(scale_by_vector(normed, gain), bias)


def glu(z: Tensor) -> Tensor:
    d = z.shape[-1] // 2
    value = nm.narrow(z, -1, 0, d)
    gate = nm.narrow(z, -1, d, d)
    return nm.mul(value, nm.sigmoid(gate))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """Split heads, scaled scores, softmax, mixing and merge; returns the
    merged output and the softmax node."""
    batch, tq, dm = q.shape
    d_head = dm // heads

    def split(x):
        return transpose(nm.reshape(x, (batch, x.shape[1], heads, d_head)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = nm.mul(nm.matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(d_head))
    weights = softmax_last_axis(scores)
    mixed = nm.matmul(weights, vh)
    return nm.reshape(transpose(mixed, (0, 2, 1, 3)), (batch, tq, dm)), weights


def pinball_loss(y: Tensor, yhat: Tensor, q: float) -> Tensor:
    err = sub(y, yhat)
    return tmean(maximum(nm.mul(err, q), nm.mul(err, q - 1.0)))


def quantile_loss(y: Tensor, yhat: Tensor, levels) -> Tensor:
    """Per-level pinball losses on narrowed slices, summed, then averaged."""
    total = None
    for k, q in enumerate(levels):
        slice_k = nm.reshape(nm.narrow(yhat, yhat.ndim - 1, k, 1), y.shape)
        term = pinball_loss(y, slice_k, q)
        total = term if total is None else nm.add(total, term)
    return nm.mul(total, 1.0 / len(levels))
