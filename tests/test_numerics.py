import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvforecast import numerics as nm
from hvforecast.errors import ContractViolation, DimensionError, GradientError
from hvforecast.numerics import Parameter, Tensor, backward, gradient_check

import unfused as uf


def t(x, grad=False):
    return Tensor(np.asarray(x, dtype=float), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        eye = t(np.eye(2))
        m = t([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(uf.matmul(eye, m).data, m.data)

    def test_zero_annihilator(self):
        z = t(np.zeros((2, 2)))
        m = t(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(uf.matmul(z, m).data, np.zeros((2, 3)))

    def test_hand_expansion(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(uf.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            uf.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_associativity_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
            left = (a @ b) @ c
            right = a @ (b @ c)
            assert np.allclose(left, right, rtol=1e-9)
            got = uf.matmul(uf.matmul(t(a), t(b)), t(c)).data
            assert np.allclose(got, left, rtol=1e-12)

    def test_batched_against_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3, 4))
        w = rng.normal(size=(4, 2))
        got = uf.matmul(t(a), t(w)).data
        for i in range(5):
            assert np.allclose(got[i], a[i] @ w)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert uf.sigmoid(t([0.0])).data[0] == pytest.approx(0.5, abs=1e-15)

    def test_tanh_zero(self):
        assert uf.tanh(t([0.0])).data[0] == 0.0

    def test_elu_negative_one(self):
        assert nm.elu(t([-1.0])).data[0] == pytest.approx(np.exp(-1) - 1, abs=1e-12)

    def test_elu_positive_identity(self):
        assert nm.elu(t([2.5])).data[0] == 2.5

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.add(t(np.ones(3)), t(np.ones(4)))
        with pytest.raises(DimensionError):
            nm.mul(t(np.ones((2, 2))), t(np.ones(4)))

    def test_scalar_broadcast_allowed(self):
        out = nm.add(t([1.0, 2.0]), 1.5)
        assert np.array_equal(out.data, [2.5, 3.5])


class TestSoftmax:
    def test_uniform(self):
        out = uf.softmax_last_axis(t([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_stability_under_large_inputs(self):
        out = uf.softmax_last_axis(t([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_values(self):
        out = uf.softmax_last_axis(t([1.0, 2.0, 3.0])).data
        e = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(out, e / e.sum(), atol=1e-12)
        assert out == pytest.approx([0.09003057, 0.24472847, 0.66524096], abs=1e-7)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_bounded(self, row):
        out = uf.softmax_last_axis(t(np.array([row, row]))).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestBackward:
    def test_square(self):
        x = t([3.0], grad=True)
        loss = nm.tsum(nm.mul(x, x))
        backward(loss)
        assert x.grad[0] == pytest.approx(6.0, abs=1e-12)

    def test_sum_gives_ones(self):
        v = t(np.arange(6.0).reshape(2, 3), grad=True)
        backward(nm.tsum(v))
        assert np.array_equal(v.grad, np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(ContractViolation):
            backward(nm.mul(x, x))

    def test_reused_node_accumulates(self):
        # loss = sum(s*a) + sum(s*b) with s shared; ds = a + b
        x = t([0.3, -0.2], grad=True)
        s = uf.tanh(x)
        a, b = t([2.0, 1.0]), t([0.5, -1.0])
        loss = nm.add(nm.tsum(nm.mul(s, a)), nm.tsum(nm.mul(s, b)))
        backward(loss)
        expect = (1 - np.tanh(x.data) ** 2) * (a.data + b.data)
        assert np.allclose(x.grad, expect, atol=1e-12)

    def test_unreachable_parameter_grad_stays_none(self):
        used = Parameter("used", np.array([2.0]))
        unused = Parameter("unused", np.array([5.0]))
        assert used.grad is None and unused.grad is None
        backward(nm.tsum(nm.mul(used, used)))
        assert unused.grad is None
        assert used.grad[0] == pytest.approx(4.0)

    def test_three_layer_composite_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w1 = Parameter("w1", rng.normal(size=(3, 4)))
        w2 = Parameter("w2", rng.normal(size=(4, 2)))
        bias = Parameter("b", rng.normal(size=2))
        x = Tensor(rng.normal(size=(5, 3)))

        def f():
            h = uf.tanh(uf.matmul(x, w1))
            out = uf.sigmoid(uf.add_bias(uf.matmul(h, w2), bias))
            return uf.tmean(nm.mul(out, out))

        report = gradient_check(f, [w1, w2, bias], step=1e-5, tol=1e-6)
        assert report.passed, report

    def test_topological_order_parents_first(self):
        x = t([1.0], grad=True)
        y = uf.tanh(x)
        z = nm.mul(y, y)
        order = nm.topological_order(z)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for p in node.parents:
                if id(p) in pos:
                    assert pos[id(p)] < pos[id(node)]

    def test_backward_consumes_the_graph(self):
        x = t([1.0, 2.0], grad=True)
        y = nm.mul(x, x)
        loss = nm.tsum(y)
        backward(loss)
        for node in (y, loss):
            assert node.parents == () and node._backward is None
        # a second backward, through the consumed root or through a fresh
        # root over a consumed node, is refused before touching any grad
        for root in (loss, nm.tsum(y)):
            with pytest.raises(ContractViolation,
                               match="already backpropagated"):
                backward(root)
        assert np.array_equal(x.grad, [2.0, 4.0])


class TestStructuralOps:
    def test_narrow_and_grad(self):
        x = t(np.arange(12.0).reshape(3, 4), grad=True)
        piece = uf.narrow(x, 1, 1, 2)
        assert np.array_equal(piece.data, x.data[:, 1:3])
        backward(nm.tsum(piece))
        expect = np.zeros((3, 4))
        expect[:, 1:3] = 1.0
        assert np.array_equal(x.grad, expect)

    def test_concat_stack_roundtrip(self):
        a = t(np.ones((2, 3)), grad=True)
        b = t(np.full((2, 3), 2.0), grad=True)
        cat = nm.concat([a, b], axis=1)
        assert cat.shape == (2, 6)
        stk = uf.stack([a, b], axis=1)
        assert stk.shape == (2, 2, 3)
        backward(nm.tsum(nm.add(nm.tsum(cat), nm.tsum(stk))))
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))

    def test_transpose_reshape_grads(self):
        x = t(np.arange(6.0).reshape(2, 3), grad=True)
        y = nm.reshape(uf.transpose(x, (1, 0)), (6,))
        backward(nm.tsum(nm.mul(y, y)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_add_bias_grad_sums_leading(self):
        x = t(np.ones((4, 3)), grad=True)
        b = Parameter("b", np.zeros(3))
        backward(nm.tsum(uf.add_bias(x, b)))
        assert np.array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_mean_axis(self):
        x = t(np.arange(6.0).reshape(2, 3), grad=True)
        m = uf.tmean(x, axis=-1, keepdims=True)
        assert m.shape == (2, 1)
        backward(nm.tsum(m))
        assert np.allclose(x.grad, np.full((2, 3), 1 / 3))


class TestGradientCheck:
    def test_linear_is_nearly_exact(self):
        rng = np.random.default_rng(0)
        w = Parameter("w", rng.normal(size=5))
        x = Tensor(rng.normal(size=5))
        report = gradient_check(lambda: nm.tsum(nm.mul(w, x)), [w])
        assert report.max_rel_err < 1e-9

    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        aa = Tensor(a + a.T)
        v = Parameter("v", rng.normal(size=(1, 4)))
        report = gradient_check(
            lambda: nm.tsum(nm.mul(uf.matmul(v, aa), v)), [v], tol=1e-6)
        assert report.passed

    def test_leaves_every_gradient_none(self):
        rng = np.random.default_rng(4)
        w, b = Parameter("w", rng.normal(size=(3, 2))), Parameter("b", np.zeros(2))
        w.grad = np.ones((3, 2))
        x = Tensor(rng.normal(size=(2, 4, 3)))
        report = gradient_check(lambda: nm.tsum(nm.affine(x, w, b)), [w, b])
        assert report.passed and report.coord_count == 8
        assert w.grad is None and b.grad is None

    def test_nan_surfaces_as_error(self):
        w = Parameter("w", np.array([0.5]))

        def f():
            bad = nm.mul(w, float("nan"))
            return nm.tsum(bad)

        with pytest.raises(GradientError):
            gradient_check(f, [w])

    def test_finite_values_everywhere_after_ops(self):
        rng = np.random.default_rng(2)
        x = t(rng.normal(size=(3, 3)) * 10)
        for fn in (uf.tanh, uf.sigmoid, nm.elu, uf.softmax_last_axis):
            assert np.isfinite(fn(x).data).all()


class TestNoGrad:
    def test_no_history_recorded(self):
        x = t([1.0], grad=True)
        with nm.no_grad():
            y = nm.mul(x, x)
        assert not y.requires_grad and y.parents == ()

    # (batch, heads, Tq, Tk) and the block bound in whole (batch, head)
    # slices: all 12 slices in one block; 2 batch items (8 slices) per
    # block, the last holding 1; 3 heads of one batch item per block, the
    # last holding 1
    @pytest.mark.parametrize("slices", [None, 8, 3],
                             ids=["one block", "batch split", "head split"])
    def test_blocked_attention_is_bitwise_the_recorded_output(
            self, monkeypatch, slices):
        batch, heads, tq, tk, dm = 3, 4, 6, 9, 8
        if slices is not None:
            monkeypatch.setattr(nm, "ATTENTION_BLOCK_SCORES", slices * tq * tk)
        rng = np.random.default_rng(21)
        q, k, v = (Parameter(name, rng.normal(size=shape)) for name, shape in
                   (("q", (batch, tq, dm)), ("k", (batch, tk, dm)),
                    ("v", (batch, tk, dm))))
        recorded = nm.attention(q, k, v, heads)
        with nm.no_grad():
            out = nm.attention(q, k, v, heads)
        assert recorded.requires_grad and recorded._backward is not None
        assert uf.kept_weights(recorded).shape == (batch, heads, tq, tk)
        assert not out.requires_grad and out._backward is None
        assert out.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("slices", [None, 8, 3],
                             ids=["one block", "batch split", "head split"])
    def test_attention_over_untracked_inputs_is_bitwise_the_recorded_output(
            self, monkeypatch, slices):
        # grad stays on, but no input requires it: the node is not
        # recorded, so it runs the blocks of an unrecorded attention
        batch, heads, tq, tk, dm = 3, 4, 6, 9, 8
        if slices is not None:
            monkeypatch.setattr(nm, "ATTENTION_BLOCK_SCORES", slices * tq * tk)
        rng = np.random.default_rng(23)
        arrays = [rng.normal(size=shape) for shape in
                  ((batch, tq, dm), (batch, tk, dm), (batch, tk, dm))]
        recorded = nm.attention(*(t(a, grad=True) for a in arrays), heads)
        out = nm.attention(*(t(a) for a in arrays), heads)
        assert recorded._backward is not None
        assert not out.requires_grad and out._backward is None and out.parents == ()
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_closures_skip_gradients_of_operands_outside_the_graph(self):
        rng = np.random.default_rng(22)
        x, mask = t(rng.normal(size=(4, 3))), t(rng.normal(size=(4, 3)))
        w, b = Parameter("w", rng.normal(size=(3, 2))), Parameter("b", np.zeros(2))
        g = np.ones((4, 3))
        assert nm.mul(Parameter("p", x.data), mask)._backward(g)[1] is None
        assert nm.mul(mask, Parameter("p", x.data))._backward(g)[0] is None
        g_x, g_w, g_b = nm.affine(x, w, b)._backward(np.ones((4, 2)))
        assert g_x is None and g_w.shape == (3, 2) and g_b.shape == (2,)


def probe_loss(out, probe):
    return out if out.size == 1 else nm.tsum(nm.mul(out, Tensor(probe)))


def fused_and_reference(fused, reference, arrays, seed=0):
    """Outputs and every input gradient of `fused` and `reference` on the
    same inputs, reduced by the same random probe."""
    probe = None
    results = []
    for fn in (fused, reference):
        inputs = [t(a.copy(), grad=True) for a in arrays]
        out = fn(*inputs)
        if probe is None:
            probe = np.random.default_rng(seed).normal(size=out.shape)
        backward(probe_loss(out, probe))
        results.append((out, [x.grad for x in inputs]))
    return results


FUSED_CASES = {
    "affine": ("affine", nm.affine, uf.affine, [(3, 5, 4), (4, 6), (6,)]),
    "affine_2d": ("affine", nm.affine, uf.affine, [(7, 4), (4, 2), (2,)]),
    "affine_4d": ("affine", nm.affine, uf.affine, [(2, 3, 2, 4), (4, 3), (3,)]),
    "layer_norm": ("layer_norm", lambda x, g, b: nm.layer_norm(x, g, b, 1e-5),
                   lambda x, g, b: uf.layer_norm(x, g, b, 1e-5),
                   [(3, 5, 4), (4,), (4,)]),
    "glu": ("glu", nm.glu, uf.glu, [(3, 5, 8)]),
    **{f"attention_{kind}_{heads}h": (
        "attention",
        lambda q, k, v, heads=heads: nm.attention(q, k, v, heads),
        lambda q, k, v, heads=heads: uf.attention(q, k, v, heads)[0],
        [(3, 5, 4), (3, tk, 4), (3, tk, 4)])
       for kind, tk in (("self", 5), ("cross", 7)) for heads in (1, 2, 4)},
    "quantile_loss": (
        "quantile_loss",
        lambda y, p: nm.quantile_loss(y, p, (0.1, 0.5, 0.8)),
        lambda y, p: uf.quantile_loss(y, p, (0.1, 0.5, 0.8)),
        [(3, 5, 2), (3, 5, 2, 3)]),
}


class TestFusedOps:
    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_matches_unfused_reference(self, case):
        _, fused, reference, shapes = FUSED_CASES[case]
        rng = np.random.default_rng(len(case))
        arrays = [rng.normal(size=s) for s in shapes]
        (out, grads), (ref_out, ref_grads) = fused_and_reference(
            fused, reference, arrays)
        assert out.shape == ref_out.shape
        assert np.max(np.abs(out.data - ref_out.data)) <= 1e-12
        for g, ref_g in zip(grads, ref_grads):
            assert g.shape == ref_g.shape
            assert np.max(np.abs(g - ref_g)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_one_node(self, case):
        op, fused, _, shapes = FUSED_CASES[case]
        inputs = [t(np.ones(s), grad=True) for s in shapes]
        out = fused(*inputs)
        assert [n.op for n in nm.topological_order(out)] == ["leaf"] * len(inputs) + [op]
        assert out.parents == tuple(inputs)

    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_gradient_check(self, case):
        _, fused, _, shapes = FUSED_CASES[case]
        rng = np.random.default_rng(3)
        params = [Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
        probe = rng.normal(size=fused(*params).shape)
        report = gradient_check(lambda: probe_loss(fused(*params), probe), params,
                                tol=1e-6)
        assert report.passed, report

    def test_attention_weights_match_reference(self):
        rng = np.random.default_rng(4)
        q, k, v = (t(rng.normal(size=s), grad=True)
                   for s in ((2, 3, 6), (2, 4, 6), (2, 4, 6)))
        out = nm.attention(q, k, v, 3)
        ref_out, ref = uf.attention(q, k, v, 3)
        weights = uf.kept_weights(out)
        assert weights.shape == (2, 3, 3, 4)
        assert np.array_equal(weights, ref.data)
        assert np.array_equal(out.data, ref_out.data)

    def test_quantile_loss_one_level_each_side_of_median(self):
        rng = np.random.default_rng(6)
        y, p = rng.normal(size=(4, 3)), rng.normal(size=(4, 3, 1))
        for q in (0.05, 0.5, 0.95):
            (out, grads), (ref, ref_grads) = fused_and_reference(
                lambda a, b: nm.quantile_loss(a, b, (q,)),
                lambda a, b: uf.quantile_loss(a, b, (q,)), [y, p])
            assert float(out.data) == float(ref.data)
            for g, ref_g in zip(grads, ref_grads):
                assert np.max(np.abs(g - ref_g)) <= 1e-12

    def test_extent_errors(self):
        x = t(np.ones((2, 3, 4)))
        with pytest.raises(DimensionError, match="affine"):
            nm.affine(x, t(np.ones((3, 2))), t(np.ones(2)))
        with pytest.raises(DimensionError, match="affine"):
            nm.affine(x, t(np.ones((4, 2))), t(np.ones(3)))
        with pytest.raises(DimensionError, match="affine"):
            nm.affine(t(np.ones(4)), t(np.ones((4, 2))), t(np.ones(2)))
        with pytest.raises(DimensionError, match="layer_norm"):
            nm.layer_norm(x, t(np.ones(3)), t(np.ones(4)), 1e-5)
        with pytest.raises(DimensionError, match="layer_norm"):
            nm.layer_norm(x, t(np.ones(4)), t(np.ones((1, 4))), 1e-5)
        with pytest.raises(DimensionError, match="glu"):
            nm.glu(t(np.ones((2, 3))))
        with pytest.raises(DimensionError, match="glu"):
            nm.glu(t(np.ones((2, 0))))
        with pytest.raises(DimensionError, match="attention"):
            nm.attention(x, t(np.ones((2, 5, 3))), t(np.ones((2, 5, 3))), 2)
        with pytest.raises(DimensionError, match="attention"):
            nm.attention(x, t(np.ones((3, 5, 4))), t(np.ones((3, 5, 4))), 2)
        with pytest.raises(DimensionError, match="attention"):
            nm.attention(x, t(np.ones((2, 5, 4))), t(np.ones((2, 6, 4))), 2)
        with pytest.raises(DimensionError, match="attention"):
            nm.attention(x, x, x, 3)
        with pytest.raises(DimensionError, match="attention"):
            nm.attention(t(np.ones((2, 3))), x, x, 2)
        with pytest.raises(DimensionError, match="quantile"):
            nm.quantile_loss(t(np.ones((2, 3))), t(np.ones((2, 3, 2))), (0.5,))
        with pytest.raises(DimensionError, match="quantile"):
            nm.quantile_loss(t(np.ones((2, 3))), t(np.ones((2, 4, 1))), (0.5,))


# (batch, time, features) of the tiny profile at B=32: the history and future
# branches at d_model 32, and a wider future input
KERNEL_SHAPES = [(32, 48, 32), (32, 12, 32), (32, 12, 48)]
LSTM_UNITS = 16


def kernel_cases(shape):
    """(fused, reference, input shapes) of each kernel that reuses its
    buffers, over inputs of `shape`; each pair rounds every step alike."""
    f = shape[-1]
    lstm = [shape, (f, 4 * LSTM_UNITS), (LSTM_UNITS, 4 * LSTM_UNITS), (4 * LSTM_UNITS,)]
    return {
        "elu": (nm.elu, uf.elu, [shape]),
        "glu": (nm.glu, uf.glu, [shape]),
        "layer_norm": (lambda x, g, b: nm.layer_norm(x, g, b, 1e-5),
                       lambda x, g, b: uf.layer_norm_allocating(x, g, b, 1e-5),
                       [shape, (f,), (f,)]),
        **{name: (lambda *a, reverse=reverse: nm.lstm_sequence(*a, reverse=reverse),
                  lambda *a, reverse=reverse: uf.lstm_sequence_step_scaled(
                      *a, reverse=reverse),
                  lstm)
           for name, reverse in (("lstm_sequence", False),
                                 ("lstm_sequence_reverse", True))},
    }


KERNELS = list(kernel_cases(KERNEL_SHAPES[0]))


class TestRewrittenKernels:
    """The in-place kernels against their references at the tiny model's
    shapes: bitwise where every rounding step is kept (a signed zero
    apart), within 1e-12 for `affine`, whose input gradient is one 2-D GEMM
    that may block its sums unlike the reference's batched 3-D `@`."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bitwise_the_reference(self, kernel, shape):
        fused, reference, shapes = kernel_cases(shape)[kernel]
        rng = np.random.default_rng(len(kernel) + shape[1])
        arrays = [0.5 * rng.normal(size=s) for s in shapes]
        (out, grads), (ref_out, ref_grads) = fused_and_reference(
            fused, reference, arrays)
        assert np.array_equal(out.data, ref_out.data)
        for g, ref_g in zip(grads, ref_grads):
            assert np.array_equal(g, ref_g)
        with nm.no_grad():
            unrecorded = fused(*(t(a) for a in arrays))
        assert unrecorded._backward is None
        assert np.array_equal(unrecorded.data, ref_out.data)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    @pytest.mark.parametrize("units", [32, 64])
    def test_affine_within_1e_12_of_the_unfused_reference(self, shape, units):
        rng = np.random.default_rng(units + shape[1])
        arrays = [rng.normal(size=s) for s in (shape, (shape[-1], units), (units,))]
        (out, grads), (ref_out, ref_grads) = fused_and_reference(
            nm.affine, uf.affine, arrays)
        assert out.shape == ref_out.shape == shape[:-1] + (units,)
        assert np.max(np.abs(out.data - ref_out.data)) <= 1e-12
        assert grads[0].shape == shape
        for g, ref_g in zip(grads, ref_grads):
            assert np.max(np.abs(g - ref_g)) <= 1e-12


class TestNoGradMemory:
    """Under `no_grad` the elementwise nodes allocate their output and at
    most one buffer of its size, measured with tracemalloc (which traces
    numpy's buffers)."""

    SLACK = 4096   # the Tensor object and array headers

    @staticmethod
    def peak_bytes(fn, x):
        with nm.no_grad():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = fn(x)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return out, peak

    def test_glu_allocates_only_its_output(self):
        # the gate's sigmoid is formed in the buffer that becomes the
        # output; reading a strided half, a ufunc may also fill its fixed
        # iteration buffer of np.getbufsize() elements
        z = t(np.random.default_rng(8).normal(size=(32, 48, 64)))
        out, peak = self.peak_bytes(nm.glu, z)
        assert out.data.nbytes == z.data.nbytes // 2
        ufunc_buffer = 8 * np.getbufsize()
        assert ufunc_buffer < out.data.nbytes // 4
        assert peak <= out.data.nbytes + ufunc_buffer + self.SLACK, peak

    def test_elu_allocates_its_output_and_one_buffer(self):
        x = t(np.random.default_rng(9).normal(size=(32, 48, 32)))
        out, peak = self.peak_bytes(nm.elu, x)
        assert peak <= 2 * out.data.nbytes + self.SLACK, peak
