"""Unfused graph compositions that the fused numerics nodes replace, kept as
test-side references.

Each reference builds the same computation from small engine ops, so a
fused node's outputs and gradients can be compared with it. The small ops
that only these references and the tests need (`mul`, `tanh`, `sigmoid`,
`exp`, `sub`, `maximum`, `power`, `matmul`, `transpose`, `narrow`, `stack`,
`add_bias`, `scale_by_vector`, `expand_last`, `tmean`, `softmax_last_axis`)
live here too, built on the engine's node constructor. `lstm_step` is one
step of the recurrence `numerics.lstm_sequence` runs, and `inverse_scale`
is the per-feature reference for `Scaler.inverse_scale_targets`.
`kept_weights` reads the softmax weights a recorded `numerics.attention`
node of one block keeps for its backward, to compare with those of
`attention`.
`elu` is the masked definition of `numerics.elu`, and `dropout` the
product with a float mask that `numerics.dropout` forms without one.
`glu_node` and `layer_norm_node` are the one-node gate and layer norm
that `numerics.gate_add_norm` fuses, with the residual `add` between
them; `layer_norm_allocating` and `lstm_sequence_step_scaled` are the
allocating forms of fused kernels that reuse their buffers. These, with
`elu` and `dropout`, are the bitwise references.
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


def elu(a: Tensor) -> Tensor:
    """exp(x)-1 for x<=0, identity above, chosen per element by a mask:
    the definition `numerics.elu` computes without one."""
    pos = a.data > 0
    y = np.where(pos, a.data, np.expm1(a.data))
    return nm._result(y, "elu", (a,), lambda g: (g * np.where(pos, 1.0, y + 1.0),))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of equal shapes, or by a Python scalar."""
    if not isinstance(b, Tensor):
        c = float(b)
        return nm._result(a.data * c, "mul", (a,), lambda g: (g * c,))
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")
    ad, bd = a.data, b.data

    def bw(g):
        # an operand outside the graph, such as a dropout mask, gets none
        return (g * bd if a.requires_grad else None,
                g * ad if b.requires_grad else None)

    return nm._result(ad * bd, "mul", (a, b), bw)


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
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv_std = power(nm.add(var, eps), -0.5)
    normed = mul(centered, expand_last(inv_std, d))
    return add_bias(scale_by_vector(normed, gain), bias)


def glu(z: Tensor) -> Tensor:
    d = z.shape[-1] // 2
    value = narrow(z, -1, 0, d)
    gate = narrow(z, -1, d, d)
    return mul(value, sigmoid(gate))


def gate_add_norm(x: Tensor, z: Tensor, gain: Tensor, bias: Tensor,
                  eps: float) -> Tensor:
    return layer_norm(nm.add(x, glu(z)), gain, bias, eps)


def dropout(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout as the product with the float mask keep / (1 - rate),
    an operand outside the graph."""
    return mul(x, Tensor(keep / (1.0 - rate)))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """Split heads, scaled scores, softmax, mixing and merge; returns the
    merged output and the softmax node."""
    batch, tq, dm = q.shape
    d_head = dm // heads

    def split(x):
        return transpose(nm.reshape(x, (batch, x.shape[1], heads, d_head)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = mul(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(d_head))
    weights = softmax_last_axis(scores)
    mixed = matmul(weights, vh)
    return nm.reshape(transpose(mixed, (0, 2, 1, 3)), (batch, tq, dm)), weights


def kept_weights(node: Tensor) -> np.ndarray:
    """The softmax weights (batch, heads, Tq, Tk) held by the backward
    closure of a recorded `numerics.attention` node; None for a node of
    several blocks, whose backward recomputes them."""
    names = node._backward.__code__.co_freevars
    return node._backward.__closure__[names.index("weights")].cell_contents


def pinball_loss(y: Tensor, yhat: Tensor, q: float) -> Tensor:
    err = sub(y, yhat)
    return tmean(maximum(mul(err, q), mul(err, q - 1.0)))


def quantile_loss(y: Tensor, yhat: Tensor, levels) -> Tensor:
    """Per-level pinball losses on narrowed slices, summed, then averaged."""
    total = None
    for k, q in enumerate(levels):
        slice_k = nm.reshape(narrow(yhat, yhat.ndim - 1, k, 1), y.shape)
        term = pinball_loss(y, slice_k, q)
        total = term if total is None else nm.add(total, term)
    return mul(total, 1.0 / len(levels))


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
    c_next = nm.add(mul(f, c), mul(i, g))
    return mul(o, tanh(c_next)), c_next


# ---------------------------------------------------------------------------
# the fused kernels as they ran before they were fused further
# ---------------------------------------------------------------------------
# `numerics.gate_add_norm` runs the one-node gate and layer norm below with
# the residual add between them, and `numerics.lstm_sequence` reuses
# buffers, pre-scales weights and reorders loops; each keeps every rounding
# step, so their outputs and gradients equal these forms bit for bit.


def glu_node(z: Tensor) -> Tensor:
    """Gated linear unit over the two halves of the last axis of `z`,
    value * sigmoid(gate), value first, as one node that keeps only its
    input and recomputes the gate in backward."""
    if z.ndim < 1 or z.shape[-1] % 2 or z.shape[-1] == 0:
        raise DimensionError(f"glu: last extent of {z.shape} is not a positive even number")
    d = z.shape[-1] // 2
    value, gate = z.data[..., :d], z.data[..., d:]
    out = nm._sigmoid(gate)
    out *= value

    def bw(g):
        s = nm._sigmoid(gate)
        gz = np.empty(z.shape)
        np.multiply(g, s, out=gz[..., :d])
        gs = g * value
        gs *= s
        gs *= np.subtract(1.0, s, out=s)
        gz[..., d:] = gs
        return (gz,)

    return nm._result(out, "glu", (z,), bw)


def layer_norm_node(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer norm as one node in owned buffers, keeping the normalised
    input and the inverse standard deviation."""
    d = x.shape[-1] if x.ndim else 0
    if d < 1 or gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} or bias {bias.shape} does not "
            f"match the last extent of {x.shape}")
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.multiply(normed, normed)
    inv_std = (out.mean(axis=-1, keepdims=True) + eps) ** -0.5
    normed *= inv_std
    gd = gain.data
    np.multiply(normed, gd, out=out)
    out += bias.data

    def bw(g):
        g_rows = g.reshape(-1, d)
        buf = np.multiply(g, normed)
        g_gain = buf.reshape(-1, d).sum(axis=0)
        gy = np.multiply(g, gd, out=buf)
        gx = gy - gy.mean(axis=-1, keepdims=True)
        gy *= normed
        np.multiply(normed, gy.mean(axis=-1, keepdims=True), out=gy)
        gx -= gy
        gx *= inv_std
        return gx, g_gain, g_rows.sum(axis=0)

    return nm._result(out, "layer_norm", (x, gain, bias), bw)


def gate_add_norm_nodes(x: Tensor, z: Tensor, gain: Tensor, bias: Tensor,
                        eps: float) -> Tensor:
    """The gated residual block's tail as three nodes."""
    return layer_norm_node(nm.add(x, glu_node(z)), gain, bias, eps)


def layer_norm_allocating(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Closed-form layer norm with a new array for every intermediate."""
    d = x.shape[-1]
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = ((normed * normed).mean(axis=-1, keepdims=True) + eps) ** -0.5
    normed *= inv_std
    out = normed * gain.data
    out += bias.data
    gd = gain.data

    def bw(g):
        g_rows = g.reshape(-1, d)
        g_gain = (g * normed).reshape(-1, d).sum(axis=0)
        gy = g * gd
        gx = gy - gy.mean(axis=-1, keepdims=True)
        gx -= normed * (gy * normed).mean(axis=-1, keepdims=True)
        gx *= inv_std
        return gx, g_gain, g_rows.sum(axis=0)

    return nm._result(out, "layer_norm", (x, gain, bias), bw)


def lstm_sequence_step_scaled(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor,
                              reverse: bool = False) -> Tensor:
    """The LSTM pass of `numerics.lstm_sequence`, halving the sigmoid gates'
    pre-activations at every step instead of their weights once, and
    forming the backward's gate coefficients on strided (time, batch,
    units) views of the packed gates."""
    batch, steps, d = x.shape
    u = w_h.shape[0]
    wx, wh, bd = w_x.data, w_h.data, b.data
    scale = np.array([0.5, 0.5, 1.0, 0.5])[:, None]
    offset = np.array([0.5, 0.5, 0.0, 0.5])[:, None]
    xs = x.data.transpose(1, 0, 2)
    if reverse:
        xs = xs[::-1]
    xs = np.ascontiguousarray(xs).reshape(steps * batch, d)
    xw = (xs @ wx).reshape(steps, batch, 4, u)
    gates = np.empty((steps, batch, 4, u))
    cs = np.empty((steps, batch, u))
    tcs = np.empty((steps, batch, u))
    hs = np.empty((steps, batch, u))
    h = np.zeros((batch, u))
    c = np.zeros((batch, u))
    for t in range(steps):
        z = (xw[t].reshape(batch, 4 * u) + h @ wh).reshape(batch, 4, u)
        z += bd.reshape(4, u)
        z *= scale
        a = np.tanh(z, out=gates[t])
        a *= scale
        a += offset
        c = np.add(a[:, 1] * c, a[:, 0] * a[:, 2], out=cs[t])
        h = np.multiply(a[:, 3], np.tanh(c, out=tcs[t]), out=hs[t])
    out = hs.transpose(1, 0, 2)
    if reverse:
        out = out[:, ::-1]

    def bw(g):
        gs = g.transpose(1, 0, 2)
        if reverse:
            gs = gs[::-1]
        i, f, cand, o = (gates[:, :, k] for k in range(4))
        c_prev = np.zeros_like(cs)
        c_prev[1:] = cs[:-1]
        coef_c = np.stack((cand * i * (1.0 - i), c_prev * f * (1.0 - f),
                           i * (1.0 - cand * cand)), axis=2)
        coef_o = tcs * o * (1.0 - o)
        dc_dh = o * (1.0 - tcs * tcs)
        dz = np.empty_like(gates)
        dh_next = np.zeros((batch, u))
        dc_next = np.zeros((batch, u))
        for t in reversed(range(steps)):
            dh = gs[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            np.multiply(coef_c[t], dc[:, None, :], out=dz[t, :, :3])
            np.multiply(coef_o[t], dh, out=dz[t, :, 3])
            if t:
                dc_next = dc * f[t]
                dh_next = dz[t].reshape(batch, 4 * u) @ wh.T
        dz_flat = dz.reshape(steps * batch, 4 * u)
        g_x = (dz_flat @ wx.T).reshape(steps, batch, d)
        if reverse:
            g_x = g_x[::-1]
        return (g_x.transpose(1, 0, 2), xs.T @ dz_flat,
                hs[:-1].reshape(-1, u).T @ dz_flat[batch:], dz_flat.sum(axis=0))

    return nm._result(out, "lstm_sequence", (x, w_x, w_h, b), bw)


# ---------------------------------------------------------------------------
# per-feature reference of the one map back to physical units
# ---------------------------------------------------------------------------


def inverse_scale(scaled, feature: str) -> np.ndarray:
    """Map one feature's scaled values back to its Table 1 interval, as
    `Scaler.inverse_scale_targets` does for all zones at once."""
    lo, hi = TABLE1_INTERVALS[feature]
    arr = np.asarray(scaled, dtype=float)
    return (arr + 1.0) * (hi - lo) / 2.0 + lo
