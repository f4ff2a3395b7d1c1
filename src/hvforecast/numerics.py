"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value is a `Tensor` wrapping a row-major float64 ndarray. Operations
build an implicit acyclic graph: each result records its parent tensors and
a closure computing parent gradients from its own. `backward` walks that
graph once in reverse topological order and accumulates gradients into the
`grad` field of the participating leaves.

Broadcasting is deliberately restricted: binary elementwise ops require
equal shapes or a Python scalar. The explicit lifts `add_bias`,
`scale_by_vector` and `expand_last` cover the trailing-axis patterns the
layers need, so a shape mismatch is always a loud error instead of a silent
broadcast.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractViolation, DimensionError, GradientError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
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

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # operator sugar; the module-level functions carry the contracts
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


class Parameter(Tensor):
    """Named trainable leaf; `grad` starts at zero so unreached parameters read as zero-grad."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.zero_grad()

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out.parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out.op = op
        out.parents = ()
        out._backward = None
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


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result(a.data - c, "sub", (a,), lambda g: (g,))
    _check_same_shape("sub", a, b)
    return _result(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result(a.data * c, "mul", (a,), lambda g: (g * c,))
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return _result(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    _check_same_shape("maximum", a, b)
    mask = a.data >= b.data
    return _result(np.where(mask, a.data, b.data), "maximum", (a, b),
                   lambda g: (g * mask, g * ~mask))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _result(y, "tanh", (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    # 0.5*(tanh(x/2)+1) is overflow-free for any finite x
    y = 0.5 * (np.tanh(0.5 * a.data) + 1.0)
    return _result(y, "sigmoid", (a,), lambda g: (g * y * (1.0 - y),))


def elu(a: Tensor) -> Tensor:
    """exp(x)-1 for x<=0, identity above (alpha = 1)."""
    pos = a.data > 0
    y = np.where(pos, a.data, np.expm1(a.data))
    return _result(y, "elu", (a,), lambda g: (g * np.where(pos, 1.0, y + 1.0),))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _result(y, "exp", (a,), lambda g: (g * y,))


def power(a: Tensor, p: float) -> Tensor:
    y = a.data ** p
    base = a.data
    return _result(y, "power", (a,), lambda g: (g * p * base ** (p - 1.0),))


# ---------------------------------------------------------------------------
# linear algebra and structure
# ---------------------------------------------------------------------------

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

    return _result(out, "matmul", (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _result(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(int(i) for i in np.argsort(axes))
    return _result(a.data.transpose(axes), "transpose", (a,), lambda g: (g.transpose(inv),))


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

    return _result(a.data[idx], "narrow", (a,), bw)


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


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractViolation("stack: empty input list")

    def bw(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _result(np.stack([t.data for t in tensors], axis=axis), "stack", tuple(tensors), bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a rank-1 bias along the last axis of x (explicit trailing-axis lift)."""
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise DimensionError(f"add_bias: bias {b.shape} does not match last extent of {x.shape}")

    def bw(g):
        return g, g.reshape(-1, g.shape[-1]).sum(axis=0)

    return _result(x.data + b.data, "add_bias", (x, b), bw)


def scale_by_vector(x: Tensor, v: Tensor) -> Tensor:
    """Multiply by a rank-1 vector along the last axis of x."""
    if v.ndim != 1 or v.shape[0] != x.shape[-1]:
        raise DimensionError(f"scale_by_vector: vector {v.shape} does not match {x.shape}")
    xd, vd = x.data, v.data

    def bw(g):
        return g * vd, (g * xd).reshape(-1, g.shape[-1]).sum(axis=0)

    return _result(xd * vd, "scale_by_vector", (x, v), bw)


def expand_last(x: Tensor, extent: int) -> Tensor:
    """Broadcast a trailing singleton axis to `extent` (explicit, for keepdims stats)."""
    if x.shape[-1] != 1:
        raise DimensionError(f"expand_last: last extent of {x.shape} is not 1")
    out = np.broadcast_to(x.data, x.shape[:-1] + (extent,))
    return _result(out, "expand_last", (x,), lambda g: (g.sum(axis=-1, keepdims=True),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _result(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), bw)


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

    return _result(a.data.mean(axis=axis, keepdims=keepdims), "mean", (a,), bw)


def softmax_last_axis(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if x.shape[-1] < 1:
        raise DimensionError("softmax_last_axis: empty last axis")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return _result(y, "softmax", (x,), bw)


# ---------------------------------------------------------------------------
# fused recurrence
# ---------------------------------------------------------------------------

# Per-gate pre-scale (and post-scale) and offset that turn one tanh over the
# packed (input, forget, candidate, output) gates into three sigmoids,
# 0.5*(tanh(z/2)+1), and one tanh.
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])[:, None]
_GATE_OFFSET = np.array([0.5, 0.5, 0.0, 0.5])[:, None]


def lstm_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor,
                  reverse: bool = False) -> Tensor:
    """Hidden states of an LSTM run over a whole (batch, time, features)
    sequence from a zero state, as one graph node of shape (batch, time,
    units).

    Gates are packed (input, forget, candidate, output) along the last axis
    of `w_x` (features, 4*units), `w_h` (units, 4*units) and `b` (4*units),
    as in `LstmCell.step`. `reverse` runs the recurrence from the last step
    to the first; output step t always holds the state after reading x[:, t].

    The input projection of every step is one time-major GEMM; only
    `h @ w_h` stays in the loop. Backward is hand-written BPTT: the gate
    derivative coefficients are formed for all steps at once, the loop
    carries just dh/dc and one `dz @ w_h.T`, and the weight and input
    gradients are three GEMMs over all steps.
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
    wx, wh, bd = w_x.data, w_h.data, b.data

    # time-major, in processing order
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
        z *= _GATE_SCALE
        a = np.tanh(z, out=gates[t])
        a *= _GATE_SCALE
        a += _GATE_OFFSET
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
        # dz_{i,f,g} = dc * coef_c[:, :, k]; dz_o = dh * coef_o;
        # dc gains dh * dc_dh from the output gate path
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
    """Accumulate d(loss)/d(leaf) into the grad of every reachable leaf.

    Each graph node is visited exactly once; a node consumed by several
    downstream ops receives the sum of their contributions before its own
    backward closure runs.
    """
    if loss.size != 1:
        raise ContractViolation(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = topological_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad = node.grad + g
            continue
        for parent, pg in zip(node.parents, node._backward(g)):
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
    evaluation or gradient is non-finite instead of silently passing.
    """
    if step <= 0:
        raise ContractViolation("gradient_check: step must be positive")
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data).all():
        raise GradientError("gradient_check: function value is not finite")
    backward(loss)
    analytic = [p.grad.copy() for p in params]

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
