"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value is a `Tensor` wrapping a row-major float64 ndarray. Operations
build an implicit acyclic graph: each result records its parent tensors and
a closure computing parent gradients from its own. `backward` walks that
graph once in reverse topological order and accumulates gradients into the
`grad` field of the participating leaves; a leaf's `grad` is None until the
first gradient written to it, and a reader takes None as zero. The walk
consumes the graph: it drops each node's closure and parent links once the
closure has run, so the activations the closures saved are freed during the
walk rather than kept until the caller lets go of the loss. A training step
then holds at most one graph, and a graph can be backpropagated only once.

The small ops are the ones the model builds, `add`, `mul`, `elu`, `reshape`
and `concat`, plus the sum reduction `tsum`. Broadcasting is deliberately
restricted: `add` and `mul` require equal shapes or a Python scalar, so a
shape mismatch is always a loud error instead of a silent broadcast. The
layers' dense blocks are fused nodes with hand-written backwards: `affine`,
`layer_norm`, `glu`, `attention`, `quantile_loss` and `lstm_sequence`. Each
applies its trailing-axis vectors internally after checking their extents,
and keeps only what its backward needs, so one layer stores one output
instead of a chain of intermediates. The two that hold the most,
`attention` and `lstm_sequence`, each run one loop for both modes; when no
graph is recorded that loop keeps nothing for a backward and computes the
same values bitwise with less memory: attention in blocks of (batch, head)
slices, the recurrence with one step's buffers. The unfused compositions
they replace, and the small ops only those need, are test-side references.

The train step is thousands of small numpy calls, so the nodes are written
to make few of them over few new arrays. `affine` runs its input gradient
as one 2-D GEMM over all rows. `elu`, `glu` and `layer_norm` work in place
in buffers they own, and `lstm_sequence` folds the sigmoid gates' halving
into its weights once per call. Each keeps the rounding of every step, so
their results are bitwise those of the allocating forms, except `affine`'s
input gradient: a 2-D GEMM may block its sums unlike a batched 3-D `@`,
which moves it by a few ulps (within 1e-12 of the unfused reference).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, DimensionError, GradientError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite
    differences); `attention` and `lstm_sequence` then also skip the
    buffers a backward would read."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """n-dimensional float64 array, optionally a node of the autodiff graph.

    `requires_grad` on a leaf marks it as a differentiation target;
    on an op result it marks the node as part of the recorded graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"


class Parameter(Tensor):
    """Named trainable leaf. Its `grad` is None until a `backward` reaches
    it, which makes the gradient on its first write; a parameter no
    backward reached has no gradient, which a reader takes as zero."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over `parents` becomes a node of the recorded graph."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None
            ) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    out.requires_grad = keep = _records(parents)
    out.parents = parents if keep else ()
    out._backward = backward if keep else None
    return out


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result(a.data + c, "add", (a,), lambda g: (g,))
    _check_same_shape("add", a, b)
    return _result(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result(a.data * c, "mul", (a,), lambda g: (g * c,))
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g):
        # an operand outside the graph, such as a dropout mask, gets none
        return (g * bd if a.requires_grad else None,
                g * ad if b.requires_grad else None)

    return _result(ad * bd, "mul", (a, b), bw)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """sigmoid(z) = 0.5*(tanh(z/2)+1), overflow-free for any finite z,
    computed in place in one new buffer."""
    s = z * 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def elu(a: Tensor) -> Tensor:
    """exp(x)-1 for x<=0, identity above (alpha = 1), as
    expm1(min(x, 0)) + max(x, 0) in one owned buffer. Keeps only its
    output: the derivative is min(y, 0) + 1."""
    y = np.minimum(a.data, 0.0)
    np.expm1(y, out=y)
    y += np.maximum(a.data, 0.0)

    def bw(g):
        d = np.minimum(y, 0.0)
        d += 1.0
        d *= g
        return (d,)

    return _result(y, "elu", (a,), bw)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _result(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(orig),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractViolation("concat: empty input list")
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    ndim = datas[0].ndim
    ax = axis % ndim

    def bw(g):
        return tuple(
            g[tuple(slice(None) if d != ax else slice(offsets[i], offsets[i + 1])
                    for d in range(ndim))]
            for i in range(len(datas)))

    return _result(np.concatenate(datas, axis=axis), "concat", tuple(tensors), bw)


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, as a scalar node."""
    shape = a.shape
    return _result(a.data.sum(), "sum", (a,),
                   lambda g: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# fused dense blocks
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b along the last axis of `x`, as one node: one GEMM with the
    bias added in place, so only the result is stored. The backward takes
    `x` and the output gradient as (rows, features) matrices, so the input
    gradient is one 2-D GEMM: with a 3-D `g`, `g @ w.T` would run a small
    product per batch item against the transposed kernel. It skips the
    input gradient when `x` is outside the graph, as a model input is."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"affine: input {x.shape} does not fit kernel {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"affine: bias {b.shape} does not match kernel {w.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data

    def bw(g):
        g_rows = g.reshape(-1, g.shape[-1])
        g_x = (g_rows @ wd.T).reshape(xd.shape) if x.requires_grad else None
        return g_x, xd.reshape(-1, xd.shape[-1]).T @ g_rows, g_rows.sum(axis=0)

    return _result(out, "affine", (x, w, b), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalise each last-axis slice of `x` to zero mean and unit
    (population) variance, then apply `gain` and `bias`.

    Keeps only the normalised input and the inverse standard deviation; the
    backward is the closed form of Ba et al. (arXiv:1607.06450),
    dx = inv_std * (gy - mean(gy) - x_hat * mean(gy * x_hat)) with
    gy = g * gain.
    """
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
        # one buffer holds g * x_hat, then gy, then gy * x_hat and its
        # product with the mean of that
        buf = np.multiply(g, normed)
        g_gain = buf.reshape(-1, d).sum(axis=0)
        gy = np.multiply(g, gd, out=buf)
        gx = gy - gy.mean(axis=-1, keepdims=True)
        gy *= normed
        np.multiply(normed, gy.mean(axis=-1, keepdims=True), out=gy)
        gx -= gy
        gx *= inv_std
        return gx, g_gain, g_rows.sum(axis=0)

    return _result(out, "layer_norm", (x, gain, bias), bw)


def glu(z: Tensor) -> Tensor:
    """Gated linear unit over the two halves of the last axis of `z`:
    value * sigmoid(gate), value first. The sigmoid is formed in place in
    one half-size buffer, which then becomes the output, so the forward
    allocates nothing else. Keeps nothing but its input; the backward
    recomputes the gate and reuses its buffer for 1 - sigmoid."""
    if z.ndim < 1 or z.shape[-1] % 2 or z.shape[-1] == 0:
        raise DimensionError(f"glu: last extent of {z.shape} is not a positive even number")
    d = z.shape[-1] // 2
    value, gate = z.data[..., :d], z.data[..., d:]
    out = _sigmoid(gate)
    out *= value

    def bw(g):
        s = _sigmoid(gate)
        gz = np.empty(z.shape)
        np.multiply(g, s, out=gz[..., :d])
        gs = g * value
        gs *= s
        gs *= np.subtract(1.0, s, out=s)
        gz[..., d:] = gs
        return (gz,)

    return _result(out, "glu", (z,), bw)


# Score elements (float64, 2 MiB) that one block of an unrecorded
# `attention` may hold; a single (batch, head) slice larger than this is its
# own block.
ATTENTION_BLOCK_SCORES = 2 ** 18


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over `heads` heads, as one node.

    `q` is (batch, Tq, d) and `k`, `v` are (batch, Tk, d). Each is split
    into `heads` slices of d/heads features; every head mixes `v` by the
    softmax of its scaled scores, and the heads are merged back to the
    (batch, Tq, d) output.

    One loop runs over blocks of whole (batch, head) slices and writes each
    block's mix into the output. A recorded node is a single block, whose
    softmax weights (batch, heads, Tq, Tk) are the only intermediate its
    backward keeps: the softmax row term comes from the node's own output,
    sum_k(dW * W) = sum_j(dO * O) per query and head. When no graph is
    recorded (under `no_grad`, or with no input that requires grad) the
    blocks hold scores within `ATTENTION_BLOCK_SCORES`, so the scores of all
    slices never exist at once, and nothing is kept. Each slice runs the
    same matrix products and row reductions in either case, so the output
    is bitwise the same.
    """
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape:
        raise DimensionError(
            f"attention: expected (batch, time, features) queries and equal "
            f"keys/values, got {q.shape}, {k.shape}, {v.shape}")
    batch, tq, dm = q.shape
    tk = k.shape[1]
    if k.shape[0] != batch or k.shape[2] != dm:
        raise DimensionError(f"attention: keys {k.shape} do not fit queries {q.shape}")
    if tq < 1 or tk < 1:
        raise DimensionError(f"attention: empty sequence, {q.shape} and {k.shape}")
    if heads < 1 or dm % heads:
        raise DimensionError(f"attention: {dm} features do not split into {heads} heads")
    dh = dm // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a, steps):
        return a.reshape(batch, steps, heads, dh).transpose(0, 2, 1, 3)

    def merge(a, steps):
        return a.transpose(0, 2, 1, 3).reshape(batch, steps, dm)

    qh, kh, vh = split(q.data, tq), split(k.data, tk), split(v.data, tk)
    keep = _records((q, k, v))
    if keep:   # one block, whose weights the backward reads
        items, head_run = batch, heads
    else:
        # a block is several batch items with every head, or some heads
        # of one batch item
        per_block = max(1, ATTENTION_BLOCK_SCORES // (tq * tk))
        items, head_run = max(1, per_block // heads), min(heads, per_block)
    out = np.empty((batch, tq, dm))
    out_h = split(out, tq)
    for i in range(0, batch, items):
        for h in range(0, heads, head_run):
            block = (slice(i, i + items), slice(h, h + head_run))
            weights = qh[block] @ kh[block].transpose(0, 1, 3, 2)
            weights *= scale
            weights -= weights.max(axis=-1, keepdims=True)
            np.exp(weights, out=weights)
            weights /= weights.sum(axis=-1, keepdims=True)
            out_h[block] = weights @ vh[block]
            if not keep:
                del weights   # before the next block's scores are made
    if not keep:
        return _result(out, "attention", (q, k, v), None)

    def bw(g):
        gm = split(g, tq)
        g_v = weights.transpose(0, 1, 3, 2) @ gm
        gs = gm @ vh.transpose(0, 1, 3, 2)
        gs -= (gm * out_h).sum(axis=-1, keepdims=True)
        gs *= weights
        gs *= scale
        g_q = gs @ kh
        g_k = gs.transpose(0, 1, 3, 2) @ qh
        return merge(g_q, tq), merge(g_k, tk), merge(g_v, tk)

    return _result(out, "attention", (q, k, v), bw)


def level_fault(levels: Sequence[float]) -> tuple[int, str] | None:
    """Index of the first quantile level that breaks the rule that the
    levels are non-empty, each lies in (0, 1) and they strictly ascend, and
    the reason; None when the levels keep it."""
    if not len(levels):
        return 0, "quantile levels must be non-empty"
    for k, q in enumerate(levels):
        if not 0.0 < q < 1.0:
            return k, f"quantile level {q} outside (0, 1)"
        if k and not q > levels[k - 1]:
            return k, "quantile levels must strictly ascend"
    return None


def quantile_loss(actual: Tensor, predicted: Tensor, levels: Sequence[float]) -> Tensor:
    """Mean over `levels` of the mean pinball loss
    max(q * (y - yhat), (q - 1) * (y - yhat)), as one scalar node.

    `predicted` carries one slice per level on its last axis and otherwise
    matches `actual`. Keeps only the sign of each error.
    """
    levels = tuple(float(q) for q in levels)
    fault = level_fault(levels)
    if fault:
        raise ConfigurationError(f"{fault[1]}, got {levels}")
    if predicted.shape != actual.shape + (len(levels),):
        raise DimensionError(
            f"quantile loss: predicted {predicted.shape} does not match actual "
            f"{actual.shape} with {len(levels)} levels on its last axis")
    count = len(levels)
    n = actual.size
    err = actual.data[None] - np.moveaxis(predicted.data, -1, 0)   # (levels, ...)
    total = 0.0
    for e, q in zip(err, levels):
        total += float(np.maximum(e * q, e * (q - 1.0)).mean())
    below = err < 0.0
    q = np.array(levels).reshape((count,) + (1,) * actual.ndim)

    def bw(g):
        g_err = np.where(below, q - 1.0, q)
        g_err *= (g * (1.0 / count)) / n
        g_pred = np.ascontiguousarray(np.moveaxis(-g_err, 0, -1))
        g_act = g_err.sum(axis=0) if actual.requires_grad else None
        return g_act, g_pred

    return _result(np.array(total * (1.0 / count)), "quantile_loss", (actual, predicted), bw)


# ---------------------------------------------------------------------------
# fused recurrence
# ---------------------------------------------------------------------------

# Per-gate pre-scale (and post-scale) and offset that turn one tanh over the
# packed (input, forget, candidate, output) gates into three sigmoids,
# 0.5*(tanh(z/2)+1), and one tanh.
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])
_GATE_OFFSET = np.array([0.5, 0.5, 0.0, 0.5])


def lstm_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor,
                  reverse: bool = False) -> Tensor:
    """Hidden states of an LSTM run over a whole (batch, time, features)
    sequence from a zero state, as one graph node of shape (batch, time,
    units).

    Gates are packed (input, forget, candidate, output) along the last axis
    of `w_x` (features, 4*units), `w_h` (units, 4*units) and `b` (4*units),
    as in the one-step reference `lstm_step` in `tests/unfused.py`.
    `reverse` runs the recurrence from the last step to the first; output
    step t always holds the state after reading x[:, t].

    The sigmoid gates' columns of `w_x`, `w_h` and `b` are halved once per
    call, which is exact (a power of two), so each step's pre-activations
    come out already scaled for the one tanh. The input projection of every
    step is one time-major GEMM; only `h @ w_h` stays in the loop, written
    straight into that step's gate buffer. Backward is hand-written BPTT:
    the gate derivative coefficients are formed for all steps at once, on
    a gate-major copy of the gates so each product runs over contiguous
    data; the loop carries just dh/dc and one `dz @ w_h.T`, and the weight
    and input gradients are three GEMMs over all steps.

    When no graph is recorded (under `no_grad`, or with no input that
    requires grad) the same loop keeps one step's gates, cell state and
    tanh(c) instead of every step's, and the node has no backward.
    """
    if x.ndim != 3:
        raise DimensionError(
            f"lstm_sequence: expected (batch, time, features), got {x.shape}")
    batch, steps, d = x.shape
    if steps < 1:
        raise ContractViolation("lstm_sequence: empty sequence")
    if w_x.ndim != 2 or w_x.shape[0] != d or w_x.shape[1] % 4 != 0:
        raise DimensionError(
            f"lstm_sequence: input kernel {w_x.shape} does not fit "
            f"{d} features and four gates")
    u = w_x.shape[1] // 4
    if w_h.shape != (u, 4 * u) or b.shape != (4 * u,):
        raise DimensionError(
            f"lstm_sequence: recurrent kernel {w_h.shape} or bias {b.shape} "
            f"does not fit {u} units")
    wx, wh = w_x.data, w_h.data
    scale = np.repeat(_GATE_SCALE, u)

    # time-major, in processing order
    xs = x.data.transpose(1, 0, 2)
    if reverse:
        xs = xs[::-1]
    xs = np.ascontiguousarray(xs).reshape(steps * batch, d)
    xw = (xs @ (wx * scale)).reshape(steps, batch, 4 * u)
    keep = _records((x, w_x, w_h, b))
    if not keep:
        del xs   # the time-major copy, read again only by a backward
    wh_scaled = wh * scale
    # the step's vectors as whole (batch, 4*units) rows: an in-place ufunc
    # over equal shapes runs one contiguous loop, where a broadcast vector
    # runs one per batch row
    b_rows, scale_rows, offset_rows = (
        np.broadcast_to(v, (batch, 4 * u)).copy()
        for v in (b.data * scale, scale, np.repeat(_GATE_OFFSET, u)))
    # without a graph, one step's gates, cell state and tanh(c) are kept
    kept = steps if keep else 1
    gates = np.empty((kept, batch, 4 * u))
    cs = np.empty((kept, batch, u))
    tcs = np.empty((kept, batch, u))
    hs = np.empty((steps, batch, u))
    h = np.zeros((batch, u))
    c = np.zeros((batch, u))
    for t in range(steps):
        k = t if keep else 0
        a = np.matmul(h, wh_scaled, out=gates[k])
        a += xw[t]
        a += b_rows
        np.tanh(a, out=a)
        a *= scale_rows
        a += offset_rows
        c = np.add(a[:, u:2 * u] * c, a[:, :u] * a[:, 2 * u:3 * u], out=cs[k])
        h = np.multiply(a[:, 3 * u:], np.tanh(c, out=tcs[k]), out=hs[t])

    out = hs.transpose(1, 0, 2)
    if reverse:
        out = out[:, ::-1]
    if not keep:
        return _result(out, "lstm_sequence", (x, w_x, w_h, b), None)

    def bw(g):
        gs = g.transpose(1, 0, 2)
        if reverse:
            gs = gs[::-1]
        # a gate-major copy, so that every product below runs over
        # contiguous data; once read, i, cand and o serve as scratch, and
        # f stays for the loop
        packed = gates.reshape(steps, batch, 4, u).transpose(2, 0, 1, 3)
        i, f, cand, o = np.ascontiguousarray(packed)
        # dz_{i,f,g} = dc * coef[k]; dz_o = dh * coef[3];
        # dc gains dh * dc_dh from the output gate path. Each product is
        # associated as in (cand * i) * (1 - i).
        coef = np.empty((4, steps, batch, u))
        np.multiply(cand, cand, out=coef[2])
        np.subtract(1.0, coef[2], out=coef[2])
        coef[2] *= i
        np.multiply(cand, i, out=coef[0])
        coef[0] *= np.subtract(1.0, i, out=i)
        coef[1, 0] = 0.0   # c_prev is zero before the first step
        np.multiply(cs[:-1], f[1:], out=coef[1, 1:])
        coef[1, 1:] *= np.subtract(1.0, f[1:], out=i[1:])
        dc_dh = np.multiply(tcs, tcs, out=cand)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        np.multiply(tcs, o, out=coef[3])
        coef[3] *= np.subtract(1.0, o, out=o)
        coef_c = coef[:3].transpose(1, 2, 0, 3)   # (steps, batch, 3, units)
        dz = np.empty((steps, batch, 4, u))
        dh_next = np.zeros((batch, u))
        dc_next = np.zeros((batch, u))
        for t in reversed(range(steps)):
            dh = gs[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            np.multiply(coef_c[t], dc[:, None, :], out=dz[t, :, :3])
            np.multiply(coef[3, t], dh, out=dz[t, :, 3])
            if t:
                dc_next = dc * f[t]
                dh_next = dz[t].reshape(batch, 4 * u) @ wh.T
        dz_flat = dz.reshape(steps * batch, 4 * u)
        g_wx = xs.T @ dz_flat
        g_wh = hs[:-1].reshape(-1, u).T @ dz_flat[batch:]
        g_b = dz_flat.sum(axis=0)
        g_x = (dz_flat @ wx.T).reshape(steps, batch, d)
        if reverse:
            g_x = g_x[::-1]
        return g_x.transpose(1, 0, 2), g_wx, g_wh, g_b

    return _result(out, "lstm_sequence", (x, w_x, w_h, b), bw)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def topological_order(root: Tensor) -> list[Tensor]:
    """All graph nodes reachable from `root`, parents before children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into the grad of every reachable leaf,
    consuming the graph.

    Each graph node is visited exactly once; a node consumed by several
    downstream ops receives the sum of their contributions before its own
    backward closure runs. The graph is used once: each node leaves the walk
    as it is visited, and its `_backward` and `parents` are cleared once its
    closure has run. So every saved activation is freed as soon as the last
    node that needs it has run, and after the call the root, and any output
    the caller still holds, keep only their `data`. Without this, a training
    loop holds a step's whole graph while the next step builds its forward.
    A second backward through a consumed node raises ContractViolation.
    """
    if loss.size != 1:
        raise ContractViolation(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = topological_order(loss)
    for node in order:
        if node._backward is None and node.op != "leaf":
            raise ContractViolation(
                f"backward: the graph through this {node.op!r} node was already "
                f"backpropagated; build a new graph for each backward")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        closure, parents = node._backward, node.parents
        node._backward, node.parents = None, ()
        if g is None:
            continue
        if closure is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(parents, closure(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    coord_count: int


def gradient_check(f: Callable[[], Tensor], params: Iterable[Tensor],
                   step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of the scalar `f()` against central
    finite differences, coordinate by coordinate.

    Relative error is guarded: |ad - fd| / max(1, |ad|, |fd|), so it reads as
    absolute error where gradients are small. Raises GradientError if any
    evaluation or gradient is non-finite instead of silently passing. Each
    parameter's `grad` is None on return: a gradient already on it is
    dropped first, and the one the check made is dropped once read.
    """
    if step <= 0:
        raise ContractViolation("gradient_check: step must be positive")
    params = list(params)
    for p in params:
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data).all():
        raise GradientError("gradient_check: function value is not finite")
    backward(loss)
    analytic = [np.zeros(p.shape) if p.grad is None else p.grad for p in params]
    for p in params:
        p.grad = None

    max_rel = 0.0
    count = 0
    with no_grad():
        for p, ad in zip(params, analytic):
            if not np.isfinite(ad).all():
                raise GradientError("gradient_check: reverse-mode gradient is not finite")
            flat = p.data.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = float(f().data)
                flat[j] = orig - step
                dn = float(f().data)
                flat[j] = orig
                if not (np.isfinite(up) and np.isfinite(dn)):
                    raise GradientError(
                        f"gradient_check: non-finite value at coordinate {j}")
                fd = (up - dn) / (2.0 * step)
                a = float(ad.reshape(-1)[j])
                rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
                if rel > max_rel:
                    max_rel = rel
                count += 1
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel < tol, coord_count=count)
