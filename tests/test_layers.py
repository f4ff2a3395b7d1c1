import numpy as np
import pytest

from hvforecast import layers as ly
from hvforecast import numerics as nm
from hvforecast.errors import ConfigurationError, ContractViolation, DimensionError
from hvforecast.layers import (
    BiLstm,
    Dense,
    Glu,
    Grn,
    LayerNorm,
    LstmCell,
    MultiHeadAttention,
    dropout_apply,
)
from hvforecast.numerics import Tensor, backward, gradient_check

import unfused as uf

SEEDS = range(10)


def t(x):
    return Tensor(np.asarray(x, dtype=float))


class TestDense:
    def test_affine_identity_setup(self):
        d = Dense(2, 2, np.random.default_rng(0), "d")
        d.w.data[:] = np.eye(2)
        d.b.data[:] = [10.0, 20.0]
        out = d(t([[1.0, 2.0]]))
        assert np.array_equal(out.data, [[11.0, 22.0]])

    def test_init_bounds(self):
        d = Dense(16, 8, np.random.default_rng(1), "d")
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(d.w.data) <= bound)
        assert np.array_equal(d.b.data, np.zeros(8))

    def test_gradients(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            d = Dense(3, 2, rng, "d")
            x = Tensor(rng.normal(size=(4, 3)))
            report = gradient_check(lambda: uf.tmean(uf.tanh(d(x))),
                                    list(d.parameters()))
            assert report.passed, f"seed {seed}: {report}"


def zero_state(batch, units):
    return t(np.zeros((batch, units))), t(np.zeros((batch, units)))


class TestLstmCell:
    """`LstmCell` weights run through the one-step reference `uf.lstm_step`."""

    def test_hand_values_zero_weights(self):
        cell = LstmCell(1, 1, np.random.default_rng(0), "c")
        cell.w_x.data[:] = 0.0
        cell.w_h.data[:] = 0.0
        cell.b.data[:] = 0.0
        h, c = uf.lstm_step(cell, t([[0.0]]), t([[0.0]]), t([[1.0]]))
        # gates all sigmoid(0)=0.5, candidate tanh(0)=0:
        # c' = 0.5*1 + 0.5*0 = 0.5, h' = 0.5*tanh(0.5)
        assert c.data[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert h.data[0, 0] == pytest.approx(0.23105857863000487, abs=1e-15)

    def test_forget_bias_starts_at_one(self):
        cell = LstmCell(3, 4, np.random.default_rng(0), "c")
        assert np.array_equal(cell.b.data[4:8], np.ones(4))
        assert np.array_equal(cell.b.data[:4], np.zeros(4))
        assert np.array_equal(cell.b.data[8:], np.zeros(8))

    def test_saturated_forget_preserves_cell(self):
        cell = LstmCell(1, 1, np.random.default_rng(0), "c")
        cell.w_x.data[:] = 0.0
        cell.w_h.data[:] = 0.0
        cell.b.data[:] = [-50.0, 50.0, 0.0, -50.0]  # i~0, f~1, o~0
        h, c = uf.lstm_step(cell, t([[5.0]]), t([[0.3]]), t([[0.7]]))
        assert c.data[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert abs(h.data[0, 0]) < 1e-12

    def test_input_extent_checked(self):
        cell = LstmCell(3, 2, np.random.default_rng(0), "c")
        with pytest.raises(DimensionError):
            uf.lstm_step(cell, t(np.ones((2, 4))), *zero_state(2, 2))

    def test_state_shape_mismatch(self):
        cell = LstmCell(3, 3, np.random.default_rng(0), "c")
        with pytest.raises(DimensionError):
            uf.lstm_step(cell, t(np.ones((2, 3))), t(np.zeros((2, 3))),
                         t(np.zeros((2, 2))))

    def test_gradients_through_two_steps(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            cell = LstmCell(2, 3, rng, "c")
            x0 = Tensor(rng.normal(size=(2, 2)))
            x1 = Tensor(rng.normal(size=(2, 2)))

            def f():
                state = uf.lstm_step(cell, x0, *zero_state(2, 3))
                h, _ = uf.lstm_step(cell, x1, *state)
                return uf.tmean(h)

            report = gradient_check(f, list(cell.parameters()))
            assert report.passed, f"seed {seed}: {report}"


class TestBiLstm:
    def test_output_shape(self):
        net = BiLstm(3, 4, np.random.default_rng(0), "b")
        out = net(t(np.random.default_rng(1).normal(size=(2, 5, 3))))
        assert out.shape == (2, 5, 8)

    def test_empty_sequence_rejected(self):
        net = BiLstm(3, 4, np.random.default_rng(0), "b")
        with pytest.raises(ContractViolation):
            net(t(np.zeros((2, 0, 3))))

    def test_palindrome_symmetry_with_tied_cells(self):
        # With identical forward/backward cells, a time-palindromic input
        # makes the backward track a mirror of the forward one.
        rng = np.random.default_rng(5)
        net = BiLstm(2, 3, rng, "b")
        for src, dst in zip(net.fwd.parameters(), net.bwd.parameters()):
            dst.data[:] = src.data
        steps = rng.normal(size=(1, 3, 2))
        steps[:, 2] = steps[:, 0]  # x0 x1 x0
        out = net(t(steps)).data
        u = 3
        for i in range(3):
            assert np.allclose(out[0, i, :u], out[0, 2 - i, u:], atol=1e-12)

    def test_forward_half_matches_manual_unroll(self):
        rng = np.random.default_rng(9)
        net = BiLstm(2, 3, rng, "b")
        seq = rng.normal(size=(2, 4, 2))
        out = net(t(seq)).data
        h, c = zero_state(2, 3)
        for i in range(4):
            h, c = uf.lstm_step(net.fwd, t(seq[:, i]), h, c)
            assert np.allclose(out[:, i, :3], h.data, atol=1e-12)

    def test_wrong_feature_extent_rejected(self):
        net = BiLstm(3, 4, np.random.default_rng(0), "b")
        with pytest.raises(DimensionError):
            net(t(np.zeros((2, 5, 4))))
        with pytest.raises(DimensionError):
            net(t(np.zeros((5, 3))))

    def test_gradients(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            net = BiLstm(2, 2, rng, "b")
            seq = Tensor(rng.normal(size=(2, 3, 2)))
            report = gradient_check(lambda: uf.tmean(net(seq)),
                                    list(net.parameters()))
            assert report.passed, f"seed {seed}: {report}"

    def test_gradients_include_input_sequence(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            net = BiLstm(2, 3, rng, "b")
            seq = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
            probe = t(rng.normal(size=(2, 4, 6)))
            report = gradient_check(lambda: nm.tsum(nm.mul(net(seq), probe)),
                                    list(net.parameters()) + [seq])
            assert report.passed, f"seed {seed}: {report}"
            assert report.coord_count == seq.size + sum(
                p.size for p in net.parameters())


def unrolled_cell(cell, seq, reverse):
    """Reference for `lstm_sequence`: `uf.lstm_step` applied step by step,
    states stacked back into time order."""
    batch, steps, d = seq.shape
    h, c = zero_state(batch, cell.w_h.shape[0])
    outs = [None] * steps
    order = reversed(range(steps)) if reverse else range(steps)
    for i in order:
        h, c = uf.lstm_step(cell, nm.reshape(uf.narrow(seq, 1, i, 1), (batch, d)), h, c)
        outs[i] = h
    return uf.stack(outs, axis=1)


class TestLstmSequence:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", [1, 5])
    def test_matches_unrolled_cell(self, reverse, steps):
        rng = np.random.default_rng(11 + steps)
        cell = LstmCell(3, 4, rng, "c")
        probe = rng.normal(size=(3, steps, 4))
        x_data = rng.normal(size=(3, steps, 3))
        results = []
        for run in (lambda x: nm.lstm_sequence(x, cell.w_x, cell.w_h, cell.b,
                                               reverse=reverse),
                    lambda x: unrolled_cell(cell, x, reverse)):
            x = Tensor(x_data.copy(), requires_grad=True)
            for p in cell.parameters():
                p.grad = None
            out = run(x)
            backward(nm.tsum(nm.mul(out, t(probe))))
            results.append([out.data, x.grad]
                           + [p.grad.copy() for p in cell.parameters()])
        for name, got, want in zip(("h", "x", "w_x", "w_h", "b"), *results):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-12, name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_no_grad_states_are_bitwise_the_recorded_ones(self, reverse):
        rng = np.random.default_rng(12)
        cell = LstmCell(5, 6, rng, "c")
        x = t(rng.normal(size=(3, 7, 5)))
        recorded = nm.lstm_sequence(x, cell.w_x, cell.w_h, cell.b, reverse=reverse)
        with nm.no_grad():
            out = nm.lstm_sequence(x, cell.w_x, cell.w_h, cell.b, reverse=reverse)
        assert recorded._backward is not None
        assert out._backward is None and out.parents == ()
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_is_one_graph_node(self):
        rng = np.random.default_rng(0)
        cell = LstmCell(2, 3, rng, "c")
        x = Tensor(rng.normal(size=(2, 6, 2)), requires_grad=True)
        out = nm.lstm_sequence(x, cell.w_x, cell.w_h, cell.b)
        assert out.op == "lstm_sequence"
        assert out.parents == (x, cell.w_x, cell.w_h, cell.b)

    def test_empty_sequence_rejected(self):
        cell = LstmCell(3, 2, np.random.default_rng(0), "c")
        with pytest.raises(ContractViolation):
            nm.lstm_sequence(t(np.zeros((2, 0, 3))), cell.w_x, cell.w_h, cell.b)

    def test_wrong_extents_rejected(self):
        cell = LstmCell(3, 2, np.random.default_rng(0), "c")
        with pytest.raises(DimensionError):
            nm.lstm_sequence(t(np.zeros((2, 3))), cell.w_x, cell.w_h, cell.b)
        with pytest.raises(DimensionError):
            nm.lstm_sequence(t(np.zeros((2, 3, 4))), cell.w_x, cell.w_h, cell.b)
        with pytest.raises(DimensionError):
            nm.lstm_sequence(t(np.zeros((2, 3, 3))), cell.w_x, cell.w_x, cell.b)
        with pytest.raises(DimensionError):
            nm.lstm_sequence(t(np.zeros((2, 3, 3))), cell.w_x, cell.w_h,
                             t(np.zeros(7)))


def reference_attention(mha, q, kv):
    """The unfused reference's merged mix and softmax weights for the
    projections `mha` makes of `q` and `kv`."""
    return uf.attention(mha.wq(q), mha.wk(kv), mha.wv(kv), mha.heads)


class TestMultiHeadAttention:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            MultiHeadAttention(6, 4, np.random.default_rng(0), "m")

    def test_weight_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadAttention(4, 2, rng, "m")
        q = t(rng.normal(size=(2, 3, 4)))
        kv = t(rng.normal(size=(2, 5, 4)))
        out = mha(q, kv)
        mixed, w = reference_attention(mha, q, kv)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.data, mha.wo(mixed).data)
        w = w.data
        assert w.shape == (2, 2, 3, 5)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)

    def test_zero_queries_give_uniform_mixing(self):
        rng = np.random.default_rng(3)
        mha = MultiHeadAttention(4, 2, rng, "m")
        mha.wq.w.data[:] = 0.0
        q = t(rng.normal(size=(1, 4, 4)))
        kv = t(rng.normal(size=(1, 6, 4)))
        out = mha(q, kv)
        mixed, w = reference_attention(mha, q, kv)
        assert np.array_equal(out.data, mha.wo(mixed).data)
        assert np.allclose(w.data, 1.0 / 6.0, atol=1e-12)
        # every query position then receives the same mixture
        assert np.allclose(out.data - out.data[:, :1], 0.0, atol=1e-12)

    def test_permuting_kv_positions_leaves_uniform_output(self):
        rng = np.random.default_rng(4)
        mha = MultiHeadAttention(4, 2, rng, "m")
        mha.wq.w.data[:] = 0.0
        q = t(rng.normal(size=(1, 2, 4)))
        kv = rng.normal(size=(1, 5, 4))
        out_a = mha(q, t(kv)).data
        out_b = mha(q, t(kv[:, ::-1])).data
        assert np.allclose(out_a, out_b, atol=1e-12)

    def test_feature_extent_checked(self):
        mha = MultiHeadAttention(4, 2, np.random.default_rng(0), "m")
        with pytest.raises(DimensionError):
            mha(t(np.zeros((1, 2, 3))), t(np.zeros((1, 2, 4))))

    def test_gradients(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            mha = MultiHeadAttention(4, 2, rng, "m")
            q = Tensor(rng.normal(size=(2, 2, 4)))
            kv = Tensor(rng.normal(size=(2, 3, 4)))
            report = gradient_check(lambda: uf.tmean(mha(q, kv)),
                                    list(mha.parameters()))
            assert report.passed, f"seed {seed}: {report}"


class TestGluAndGrn:
    def test_glu_halves(self):
        rng = np.random.default_rng(0)
        glu = Glu(3, 2, rng, "g")
        x = t(rng.normal(size=(4, 3)))
        z = glu.proj(x).data
        expect = z[:, :2] * (1.0 / (1.0 + np.exp(-z[:, 2:])))
        assert np.allclose(glu(x).data, expect, atol=1e-12)

    def test_gate_shut_glu_vanishes(self):
        glu = Glu(2, 3, np.random.default_rng(0), "g")
        glu.proj.w.data[:] = 0.0
        glu.proj.b.data[:] = [7.0, 7.0, 7.0, -60.0, -60.0, -60.0]
        x = t(np.ones((2, 2)))
        assert np.allclose(glu(x).data, 0.0, atol=1e-20)

    def test_grn_with_dead_branch_is_plain_layer_norm(self):
        rng = np.random.default_rng(1)
        grn = Grn(4, rng, "g")
        grn.glu.proj.w.data[:] = 0.0
        grn.glu.proj.b.data[:] = 0.0
        x = rng.normal(size=(3, 4))
        got = grn(t(x)).data
        expect = grn.ln(t(x)).data
        assert np.allclose(got, expect, atol=1e-12)

    def test_grn_preserves_extent(self):
        rng = np.random.default_rng(2)
        grn = Grn(4, rng, "g")
        out = grn(t(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 4)
        with pytest.raises(DimensionError):
            grn(t(np.zeros((2, 3))))

    def test_gradients(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            grn = Grn(3, rng, "g")
            x = Tensor(rng.normal(size=(4, 3)))
            report = gradient_check(lambda: uf.tmean(grn(x)),
                                    list(grn.parameters()))
            assert report.passed, f"seed {seed}: {report}"


class TestLayerNorm:
    def test_hand_values(self):
        ln = LayerNorm(3)
        out = nm.layer_norm(t([[1.0, 2.0, 3.0]]), ln.gain, ln.bias, 1e-30).data
        root = 1.224744871391589  # sqrt(3/2); population variance of 1,2,3 is 2/3
        assert out[0] == pytest.approx([-root, 0.0, root], abs=1e-9)

    def test_population_variance_convention(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 5)) * 3 + 2
        ln = LayerNorm(5)
        out = nm.layer_norm(t(x), ln.gain, ln.bias, 1e-30).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-9)

    def test_gain_bias_applied(self):
        ln = LayerNorm(2)
        ln.gain.data[:] = [2.0, 2.0]
        ln.bias.data[:] = [1.0, 1.0]
        out = nm.layer_norm(t([[0.0, 2.0]]), ln.gain, ln.bias, 1e-30).data
        assert out[0] == pytest.approx([-1.0, 3.0], abs=1e-9)

    def test_constant_row_survives_via_eps(self):
        out = LayerNorm(3)(t([[4.0, 4.0, 4.0]])).data
        assert np.allclose(out, 0.0, atol=1e-12)
        assert np.isfinite(out).all()

    def test_invalid_construction(self):
        with pytest.raises(DimensionError):
            LayerNorm(0)

    def test_gradients(self):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            ln = LayerNorm(4)
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

            def f():
                return uf.tmean(nm.mul(ln(x), ln(x)))

            report = gradient_check(f, [ln.gain, ln.bias])
            assert report.passed, f"seed {seed}: {report}"


class TestDropout:
    def test_inference_identity(self):
        x = t(np.ones((5, 5)))
        assert dropout_apply(x, 0.5, training=False) is x

    def test_zero_rate_identity(self):
        x = t(np.ones((5, 5)))
        assert dropout_apply(x, 0.0, training=True) is x

    def test_rate_validated(self):
        x = t(np.ones(3))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                dropout_apply(x, bad, training=True)

    def test_training_requires_rng(self):
        with pytest.raises(ContractViolation):
            dropout_apply(t(np.ones(3)), 0.5, training=True)

    def test_mask_statistics_and_rescale(self):
        rng = np.random.default_rng(0)
        x = t(np.ones((400, 400)))
        out = dropout_apply(x, 0.25, training=True, rng=rng).data
        zero_frac = np.mean(out == 0.0)
        assert zero_frac == pytest.approx(0.25, abs=0.01)
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75, atol=1e-12)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_grad_flows_through_mask(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(1000), requires_grad=True)
        out = dropout_apply(x, 0.5, training=True, rng=rng)
        backward(nm.tsum(out))
        kept = out.data != 0.0
        assert np.allclose(x.grad[kept], 2.0)
        assert np.allclose(x.grad[~kept], 0.0)

    def test_mask_gets_no_gradient_and_parameters_match_unfused(self):
        rng = np.random.default_rng(2)
        first, second = Dense(4, 6, rng, "a"), Dense(6, 3, rng, "b")
        x = t(rng.normal(size=(5, 4)))   # a model input, outside the graph
        probe = t(rng.normal(size=(5, 3)))
        params = list(first.parameters()) + list(second.parameters())

        def gradients(out):
            for p in params:
                p.grad = None
            backward(nm.tsum(nm.mul(out, probe)))
            return [p.grad for p in params]

        dropped = dropout_apply(first(x), 0.5, training=True,
                                rng=np.random.default_rng(9))
        mask = dropped.parents[1]
        assert dropped._backward(np.ones((5, 6)))[1] is None
        got = gradients(second(dropped))
        assert mask.grad is None and x.grad is None
        # unfused reference, whose product forms both operand gradients
        h, md = uf.affine(x, first.w, first.b), mask.data
        product = nm._result(h.data * md, "mul", (h, mask),
                             lambda g, hd=h.data: (g * md, g * hd))
        want = gradients(uf.affine(product, second.w, second.b))
        for p, g, ref in zip(params, got, want):
            assert g.tobytes() == ref.tobytes(), p.name


class TestParameterEnumeration:
    def test_nested_layers_and_lists_are_walked(self):
        rng = np.random.default_rng(0)

        class Inner(ly.Layer):
            def __init__(self):
                self.deep = Dense(2, 2, rng, "deep")

        class Wrapper(ly.Layer):
            def __init__(self):
                self.inner = Dense(2, 2, rng, "inner")
                self.nested = Inner()

        names = sorted(p.name for p in Wrapper().parameters())
        assert names == sorted(["inner/w", "inner/b", "deep/w", "deep/b"])

    def test_counts_for_attention_block(self):
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0), "m")
        params = list(mha.parameters())
        assert len(params) == 8  # four dense maps, each w and b
        total = sum(p.data.size for p in params)
        assert total == 4 * (8 * 8 + 8)
