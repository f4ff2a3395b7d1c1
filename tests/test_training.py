"""Tests for pinball/quantile losses, the Adam optimizer, the training
loop with early stopping, and checkpoint persistence."""

import dataclasses
import json
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from hvforecast import model
from hvforecast import numerics as nm
from hvforecast import training
from hvforecast.config import RunConfig, apply_profile
from hvforecast.errors import (
    CheckpointError,
    ConfigurationError,
    DimensionError,
    GradientError,
)
from hvforecast.model import ModelConfig, build_model, forward_batch
from hvforecast.numerics import Parameter, Tensor
from hvforecast.pipeline import TABLE1_INTERVALS
from hvforecast.training import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    Hyperparameters,
    OptimizerState,
    adam_step,
    clip_gradient_norm,
    evaluate_loss,
    fit,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
    total_quantile_loss,
)

import unfused as uf

MICRO = ModelConfig(n_past=5, n_future=3, past_feature_count=2,
                    future_feature_count=2, zone_count=2, rnn_units=2,
                    mha_heads=2, d_model=4, dropout_rate=0.0,
                    quantile_levels=(0.1, 0.5, 0.9), rng_seed=0)


class FakeWindows:
    """Minimal stand-in for a window set: fixed arrays plus batch()."""

    def __init__(self, past, future, target):
        self.past = past
        self.future = future
        self.target = target

    def __len__(self):
        return self.past.shape[0]

    def batch(self, indices):
        idx = np.asarray(list(indices), dtype=int)
        return self.past[idx], self.future[idx], self.target[idx]


def micro_data(cfg, n, seed=0):
    """Synthetic samples whose targets are a linear map of the inputs."""
    rng = np.random.default_rng(seed)
    past = rng.uniform(-1, 1, size=(n, cfg.n_past, cfg.past_feature_count))
    future = rng.uniform(-1, 1,
                         size=(n, cfg.n_future, cfg.future_feature_count))
    target = 0.5 * future[:, :, :cfg.zone_count] + 0.1 * past[:, -1:, :cfg.zone_count]
    return FakeWindows(past, future, target)


def pinball_loss(actual, predicted, q):
    """The one-level reference `uf.pinball_loss` on plain arrays."""
    return uf.pinball_loss(Tensor(actual), Tensor(predicted), q)


class TestPinballLoss:
    """The one-level pinball loss: values through the reference, refusals
    through `total_quantile_loss` with one level."""

    def test_zero_at_perfect_prediction(self):
        y = np.array([1.0, -2.0, 3.0])
        assert float(pinball_loss(y, y, 0.3).data) == 0.0

    def test_median_overprediction(self):
        assert float(pinball_loss(np.array([1.0]), np.array([0.0]),
                                  0.5).data) == 0.5

    def test_high_level_underprediction(self):
        loss = float(pinball_loss(np.array([0.0]), np.array([1.0]), 0.9).data)
        assert loss == pytest.approx(0.1, abs=1e-12)

    def test_level_outside_open_interval_rejected(self):
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigurationError, match="outside"):
                total_quantile_loss(np.zeros(2), np.zeros((2, 1)), (q,))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="quantile loss"):
            total_quantile_loss(np.zeros(3), np.zeros((4, 1)), (0.5,))

    def test_convex_in_prediction(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=6)
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            lam = rng.uniform()
            q = rng.uniform(0.01, 0.99)
            mixed = float(pinball_loss(y, lam * a + (1 - lam) * b, q).data)
            bound = (lam * float(pinball_loss(y, a, q).data)
                     + (1 - lam) * float(pinball_loss(y, b, q).data))
            assert mixed <= bound + 1e-12


class TestTotalQuantileLoss:
    def test_median_only_equals_half_mae(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(4, 6, 5))
        yhat = rng.normal(size=(4, 6, 5, 1))
        loss = float(total_quantile_loss(y, yhat, (0.5,)).data)
        mae = float(np.mean(np.abs(y - yhat[..., 0])))
        assert loss == pytest.approx(0.5 * mae, abs=1e-12)

    def test_zero_at_perfect_prediction(self):
        y = np.random.default_rng(3).normal(size=(2, 3, 4))
        yhat = np.repeat(y[..., None], 3, axis=-1)
        assert float(total_quantile_loss(y, yhat, (0.1, 0.5, 0.9)).data) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(3, 4, 2))
        yhat = rng.normal(size=(3, 4, 2, 3))
        base = float(total_quantile_loss(y, yhat, (0.2, 0.5, 0.8)).data)
        shifted = float(total_quantile_loss(y + 7.5, yhat + 7.5,
                                            (0.2, 0.5, 0.8)).data)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_level_count_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="levels"):
            total_quantile_loss(np.zeros((2, 3)), np.zeros((2, 3, 4)),
                                (0.1, 0.5, 0.9))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(2, 3))
        p = Parameter("yhat", rng.normal(size=(2, 3, 3)))
        report = nm.gradient_check(
            lambda: total_quantile_loss(y, p, (0.25, 0.5, 0.75)), [p])
        assert report.passed


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = Parameter("w", np.array([1.0, -2.0]))
        named = {"w": p}
        state = OptimizerState()
        adam_step(named, {"w": np.zeros(2)}, state)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_matches_hand_formula(self):
        g = 1000.0
        lr = 0.05
        p = Parameter("w", np.array([2.0]))
        named = {"w": p}
        state = OptimizerState(learning_rate=lr)
        adam_step(named, {"w": np.array([g])}, state)
        expect = 2.0 - lr * g / (abs(g) + training.ADAM_EPS)
        assert p.data[0] == pytest.approx(expect, rel=1e-12)
        assert p.data[0] == pytest.approx(2.0 - lr, rel=1e-6)

    def test_zero_betas_degenerate_to_normalized_descent(self, monkeypatch):
        monkeypatch.setattr(training, "ADAM_BETA1", 0.0)
        monkeypatch.setattr(training, "ADAM_BETA2", 0.0)
        rng = np.random.default_rng(6)
        values = rng.normal(size=5)
        grads = rng.normal(size=5)
        p = Parameter("w", values.copy())
        named = {"w": p}
        state = OptimizerState(learning_rate=0.01)
        adam_step(named, {"w": grads.copy()}, state)
        expect = values - 0.01 * grads / (np.abs(grads) + training.ADAM_EPS)
        assert np.allclose(p.data, expect, rtol=0, atol=1e-15)

    def test_nan_gradient_names_parameter(self):
        p = Parameter("encoder/w", np.zeros(2))
        named = {"encoder/w": p}
        state = OptimizerState()
        with pytest.raises(GradientError, match="encoder/w"):
            adam_step(named, {"encoder/w": np.array([np.nan, 0.0])}, state)

    def test_second_moment_stays_nonnegative(self):
        p = Parameter("w", np.zeros(3))
        named = {"w": p}
        state = OptimizerState()
        rng = np.random.default_rng(7)
        for _ in range(20):
            adam_step(named, {"w": rng.normal(size=3)}, state)
            assert np.all(state.v["w"] >= 0.0)
        assert state.t == 20

    def test_in_place_update_is_bitwise_the_allocating_formula(self):
        rng = np.random.default_rng(8)
        shapes = {"w": (6, 5), "b": (5,)}
        named = {n: Parameter(n, rng.normal(size=s)) for n, s in shapes.items()}
        arrays = {n: p.data for n, p in named.items()}
        want = {n: p.data.copy() for n, p in named.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        state = OptimizerState(learning_rate=0.03)
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        for step in range(1, 6):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            adam_step(named, grads, state)
            # the update as written with a new array per operation
            bias1, bias2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                want[n] = want[n] - 0.03 * (m[n] / bias1) / (
                    np.sqrt(v[n] / bias2) + training.ADAM_EPS)
            for n, p in named.items():
                assert p.data is arrays[n]
                assert p.data.tobytes() == want[n].tobytes(), (step, n)
                assert state.m[n].tobytes() == m[n].tobytes()
                assert state.v[n].tobytes() == v[n].tobytes()


class TestGradientClipping:
    def test_large_norm_scaled_to_limit(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_gradient_norm(grads, 1.0)
        assert norm == pytest.approx(5.0, abs=1e-12)
        clipped = np.sqrt(sum(float(np.sum(g * g))
                              for g in grads.values()))
        assert clipped == pytest.approx(1.0, abs=1e-12)

    def test_small_norm_untouched(self):
        grads = {"a": np.array([0.3])}
        clip_gradient_norm(grads, 1.0)
        assert grads["a"][0] == 0.3

    def test_bad_limit_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            clip_gradient_norm({"a": np.ones(1)}, 0.0)

    @pytest.mark.parametrize("limit", [np.nan, np.inf])
    def test_non_finite_limit_rejected(self, limit):
        grads = {"a": np.array([3.0, 4.0])}
        with pytest.raises(ConfigurationError, match="max_norm"):
            clip_gradient_norm(grads, limit)
        assert np.array_equal(grads["a"], [3.0, 4.0])


class TestHyperparameters:
    @pytest.mark.parametrize("field", ["learning_rate", "grad_clip_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            Hyperparameters(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["batch_size", "max_epochs", "patience"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, None])
    def test_non_integer_count_refused(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be an integer, got "):
            Hyperparameters(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [("batch_size", 0),
                                              ("max_epochs", 0),
                                              ("patience", -1)])
    def test_count_below_minimum_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be >= "):
            Hyperparameters(**{field: value}).validate()


class TestFit:
    def test_default_batch_size(self):
        assert Hyperparameters().batch_size == 256

    def test_loss_decreases_on_overfit_problem(self):
        params = build_model(MICRO)
        data = micro_data(MICRO, 8)
        hyper = Hyperparameters(batch_size=8, learning_rate=3e-3,
                                max_epochs=3, patience=10)
        report = fit(params, data, data, hyper)
        train = [r.train_loss for r in report.epochs[1:]]
        assert len(train) == 3
        assert train[0] > train[1] > train[2]

    def test_epoch_zero_is_pretraining_validation(self):
        params = build_model(MICRO)
        baseline = evaluate_loss(params, micro_data(MICRO, 6))
        report = fit(build_model(MICRO), micro_data(MICRO, 6),
                     micro_data(MICRO, 6),
                     Hyperparameters(batch_size=6, max_epochs=1))
        assert report.epochs[0].epoch == 0
        assert report.epochs[0].train_loss is None
        assert report.epochs[0].val_loss == pytest.approx(baseline,
                                                          rel=1e-12)

    def test_best_checkpoint_is_minimum_recorded(self):
        params = build_model(MICRO)
        data = micro_data(MICRO, 8)
        report = fit(params, data, data,
                     Hyperparameters(batch_size=4, max_epochs=6,
                                     learning_rate=5e-3))
        vals = [r.val_loss for r in report.epochs]
        assert report.best_val_loss == min(vals)
        assert vals[report.best_epoch] == report.best_val_loss

    def test_best_parameters_restored(self):
        params = build_model(MICRO)
        train = micro_data(MICRO, 8)
        val = micro_data(MICRO, 4, seed=1)
        report = fit(params, train, val,
                     Hyperparameters(batch_size=4, max_epochs=6,
                                     learning_rate=5e-3))
        assert evaluate_loss(params, val) == pytest.approx(
            report.best_val_loss, rel=1e-12)

    def test_patience_zero_stops_at_first_non_improvement(self):
        params = build_model(MICRO)
        data = micro_data(MICRO, 8)
        report = fit(params, data, data,
                     Hyperparameters(batch_size=4, max_epochs=50,
                                     learning_rate=0.05, patience=0))
        assert "improvement" in report.stopping_reason
        vals = [r.val_loss for r in report.epochs]
        best = vals[0]
        for v in vals[1:-1]:
            assert v < best
            best = v
        assert vals[-1] >= best

    def test_seeded_runs_identical(self):
        runs = []
        for _ in range(2):
            params = build_model(MICRO)
            data = micro_data(MICRO, 8)
            report = fit(params, data, data,
                         Hyperparameters(batch_size=4, max_epochs=3))
            runs.append([r.val_loss for r in report.epochs])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("outside", ["backward", "gradient_check"])
    def test_gradients_left_before_fit_are_not_applied(self, outside):
        train, val = micro_data(MICRO, 6), micro_data(MICRO, 3, seed=1)
        hyper = Hyperparameters(batch_size=3, learning_rate=0.01, max_epochs=1)
        clean = build_model(MICRO)
        report = fit(clean, train, val, hyper)
        assert report.best_epoch == 1   # the step's update is kept
        params = build_model(MICRO)
        named = params.named_parameters()
        past, future, target = train.batch(range(3))

        def loss():
            out = forward_batch(params, past, future, training=False)
            return total_quantile_loss(target, out, MICRO.quantile_levels)

        if outside == "backward":
            nm.backward(loss())
            assert all(p.grad is not None for p in named.values())
        else:
            nm.gradient_check(loss, [named["head/w"], named["head/b"]])
        fit(params, train, val, hyper)
        for name, p in clean.named_parameters().items():
            assert named[name].data.tobytes() == p.data.tobytes(), name

    def test_empty_split_rejected(self):
        params = build_model(MICRO)
        data = micro_data(MICRO, 4)
        empty = micro_data(MICRO, 4)
        empty.past = empty.past[:0]
        with pytest.raises(ConfigurationError, match="empty"):
            fit(params, data, empty, Hyperparameters(max_epochs=1))

    def test_non_finite_loss_names_the_batch(self):
        params = build_model(MICRO)
        train = micro_data(MICRO, 6)
        train.target[4, 1, 0] = np.nan
        with pytest.raises(GradientError,
                           match=r"epoch 1, batch order\[\d+:\d+\] "
                                 r"starting at window 4$"):
            fit(params, train, micro_data(MICRO, 4, seed=1),
                Hyperparameters(batch_size=1, max_epochs=1))
        # raised before backward, so no update ever saw the NaN
        for p in params.parameters():
            assert np.isfinite(p.data).all()

    def test_training_log_is_line_delimited_json(self, tmp_path):
        params = build_model(MICRO)
        data = micro_data(MICRO, 8)
        log = tmp_path / "train.jsonl"
        report = fit(params, data, data,
                     Hyperparameters(batch_size=4, max_epochs=2),
                     log_path=str(log))
        lines = log.read_text().strip().splitlines()
        assert len(lines) == len(report.epochs)
        first = json.loads(lines[0])
        assert set(first) == {"epoch", "train_loss", "val_loss", "seconds"}
        assert first["epoch"] == 0

    def test_single_batch_overfit_collapses_loss(self):
        params = build_model(MICRO)
        data = micro_data(MICRO, 4)
        named = params.named_parameters()
        state = OptimizerState(learning_rate=3e-3)
        past, future, target = data.batch(range(4))
        initial = None
        final = None
        for _ in range(500):
            for p in named.values():
                p.grad = None
            out = forward_batch(params, past[:1], future[:1], training=False)
            loss = total_quantile_loss(target[:1], out,
                                       MICRO.quantile_levels)
            if initial is None:
                initial = float(loss.data)
            nm.backward(loss)
            grads = {n: p.grad for n, p in named.items()}
            clip_gradient_norm(grads, 1.0)
            adam_step(named, grads, state)
            final = float(loss.data)
        assert final < 0.05 * initial


class TestGraphMemory:
    """`backward` consumes the graph, measured with tracemalloc (which
    traces numpy's buffers) over train steps of the tiny profile at B=32,
    whose forward graph takes about 24 MB."""

    MB = 1e6

    @pytest.fixture
    def tiny_step(self):
        cfg = apply_profile(RunConfig(seed=23), "tiny")
        params = build_model(cfg.model_config())
        mc, batch = params.cfg, cfg.training.batch_size
        rng = np.random.default_rng(23)
        past = rng.uniform(-1, 1, (batch, mc.n_past, mc.past_feature_count))
        future = rng.uniform(-1, 1,
                             (batch, mc.n_future, mc.future_feature_count))
        target = rng.uniform(-1, 1, (batch, mc.n_future, mc.zone_count))
        return params, past, future, target

    @staticmethod
    def traced() -> int:
        return tracemalloc.get_traced_memory()[0]

    def test_backward_releases_the_graph(self, tiny_step):
        params, past, future, target = tiny_step
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            # traced, so that backward's replacement of each grad nets out
            for p in params.parameters():
                p.grad = np.zeros(p.shape)
            before = self.traced()
            out = forward_batch(params, past, future, training=True, rng=rng)
            loss = total_quantile_loss(target, out, params.cfg.quantile_levels)
            graph = self.traced() - before
            nm.backward(loss)
            held = self.traced() - before
        finally:
            tracemalloc.stop()
        assert graph > 10 * self.MB
        # `loss` and `out` are still referenced, and keep only their data
        assert abs(held) < 1 * self.MB, (graph, held)
        assert out.parents == () and out._backward is None

    def test_train_loop_holds_one_graph_at_a_time(self, tiny_step):
        params, past, future, target = tiny_step
        named = params.named_parameters()
        state = OptimizerState(learning_rate=1e-3)
        rng = np.random.default_rng(0)
        graph = None
        tracemalloc.start()
        try:
            # shaped like `fit`: `out` and `loss` stay bound until the next
            # step rebinds them
            for _ in range(3):
                for p in named.values():
                    p.grad = np.zeros(p.shape)
                before = self.traced()
                out = forward_batch(params, past, future, training=True,
                                    rng=rng)
                loss = total_quantile_loss(target, out,
                                           params.cfg.quantile_levels)
                if graph is None:
                    graph = self.traced() - before
                nm.backward(loss)
                grads = {n: p.grad for n, p in named.items()}
                clip_gradient_norm(grads, 1.0)
                adam_step(named, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph > 10 * self.MB
        assert peak < 1.5 * graph, (graph, peak)


def zeroing_fit(params, train, val, hyper):
    """`fit`'s loop as it ran with every gradient zeroed before each forward
    and Adam's moments made before the first step. Returns the losses in
    `fit`'s report order and the parameter values after each epoch."""
    named = params.named_parameters()
    state = OptimizerState(learning_rate=hyper.learning_rate)
    for name, p in named.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    losses = [evaluate_loss(params, val, hyper.batch_size)]
    values = [{n: p.data.copy() for n, p in named.items()}]
    for epoch in range(1, hyper.max_epochs + 1):
        seq = np.random.SeedSequence(hyper.shuffle_seed, spawn_key=(epoch,))
        shuffle_rng, dropout_rng = [np.random.default_rng(s)
                                    for s in seq.spawn(2)]
        order = shuffle_rng.permutation(len(train))
        running = 0.0
        for lo in range(0, len(order), hyper.batch_size):
            idx = order[lo:lo + hyper.batch_size]
            past, future, target = train.batch(idx)
            for p in named.values():
                p.grad = np.zeros(p.shape)
            out = forward_batch(params, past, future, training=True,
                                rng=dropout_rng)
            loss = total_quantile_loss(target, out,
                                       params.cfg.quantile_levels)
            nm.backward(loss)
            grads = {n: p.grad for n, p in named.items()}
            clip_gradient_norm(grads, hyper.grad_clip_norm)
            adam_step(named, grads, state)
            running += float(loss.data) * len(idx)
        losses += [running / len(order),
                   evaluate_loss(params, val, hyper.batch_size)]
        values.append({n: p.data.copy() for n, p in named.items()})
    return losses, values


class TestOptimizerMemory:
    """`fit` frees each step's gradients before the next forward and makes
    Adam's moments at the first update, without changing a bit of its
    result."""

    # parameters (about 1.4 MB) that outweigh the graph of a 2-window batch
    WIDE = dataclasses.replace(MICRO, n_past=3, n_future=2, rnn_units=48)

    def test_losses_and_parameters_match_the_zeroing_loop(self):
        cfg = dataclasses.replace(MICRO, dropout_rate=0.2)
        train = micro_data(cfg, 7)
        val = micro_data(cfg, 3, seed=1)
        hyper = Hyperparameters(batch_size=3, learning_rate=0.02,
                                max_epochs=2, patience=5,
                                grad_clip_norm=0.5)
        params = build_model(cfg)
        report = fit(params, train, val, hyper)
        want_losses, want_values = zeroing_fit(build_model(cfg), train, val,
                                               hyper)
        got_losses = [report.epochs[0].val_loss] + [
            v for r in report.epochs[1:] for v in (r.train_loss, r.val_loss)]
        assert got_losses == want_losses
        assert report.best_epoch == 2
        for name, p in params.named_parameters().items():
            assert p.data.tobytes() == want_values[2][name].tobytes(), name

    def test_no_gradient_or_early_moment_is_held_through_a_forward(
            self, monkeypatch):
        params = build_model(self.WIDE)
        size = sum(p.data.nbytes for p in params.parameters())
        grads = []     # weak references to every gradient backward made
        updates = []   # the moment count at entry to each Adam step
        entries = []   # (traced bytes, updates done, earlier grads freed)

        def on_forward(forward):
            def probe(*args, **kwargs):
                entries.append((tracemalloc.get_traced_memory()[0],
                                len(updates),
                                all(ref() is None for ref in grads)))
                return forward(*args, **kwargs)
            return probe

        def on_backward(loss):
            backward(loss)
            grads.extend(weakref.ref(p.grad) for p in params.parameters())

        def on_adam(named, step_grads, state):
            updates.append(len(state.m) + len(state.v))
            adam(named, step_grads, state)

        backward, adam = nm.backward, training.adam_step
        monkeypatch.setattr(nm, "backward", on_backward)
        monkeypatch.setattr(training, "adam_step", on_adam)
        monkeypatch.setattr(training, "forward_batch",
                            on_forward(training.forward_batch))
        monkeypatch.setattr(model, "forward_batch",
                            on_forward(model.forward_batch))
        tracemalloc.start()
        try:
            fit(params, micro_data(self.WIDE, 4),
                micro_data(self.WIDE, 2, seed=1),
                Hyperparameters(batch_size=2, max_epochs=2))
        finally:
            tracemalloc.stop()
        assert size > 1e6
        moments = 2 * len(params.named_parameters())
        assert updates == [0, moments, moments, moments]
        # the pre-training validation, then 2 train steps and a validation
        # forward per epoch
        assert len(entries) == 1 + 2 * (2 + 1)
        for traced, done, freed in entries:
            assert freed
            # fit's copy of the best values; once an update has run, also
            # the updated parameter values (built before tracing began) and
            # Adam's two moments. A gradient would add one more `size`.
            assert traced < size * (1.5 + 3 * (done > 0)), (traced, done)
        assert all(p.grad is None for p in params.parameters())


class TestCheckpoint:
    def roundtrip(self, tmp_path, metadata=None):
        params = build_model(MICRO)
        ckpt = make_checkpoint(params, metadata=metadata or {"best_epoch": 3})
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, path)
        return params, ckpt, path

    def with_header(self, tmp_path, edit):
        """Write a fresh checkpoint whose header is replaced by
        `edit(header)` and return its path."""
        _, _, path = self.roundtrip(tmp_path)
        blob = open(path, "rb").read()
        end = 12 + struct.unpack("<Q", blob[4:12])[0]
        header = json.dumps(edit(json.loads(blob[12:end]))).encode()
        edited = tmp_path / "edited.ckpt"
        edited.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(header))
                           + header + blob[end:])
        return str(edited)

    def test_parameters_bitwise_round_trip(self, tmp_path):
        params, _, path = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        saved = params.named_parameters()
        restored = loaded.params.named_parameters()
        assert list(restored) == list(saved)
        for name, p in saved.items():
            assert np.array_equal(restored[name].data, p.data)
            assert not np.shares_memory(restored[name].data, p.data)
        assert loaded.params.cfg == params.cfg
        assert loaded.metadata == {"best_epoch": 3}

    def test_header_records_table1_intervals(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = open(path, "rb").read()
        end = 12 + struct.unpack("<Q", blob[4:12])[0]
        assert json.loads(blob[12:end])["scaler_intervals"] == {
            name: list(interval)
            for name, interval in TABLE1_INTERVALS.items()}

    def test_save_load_save_byte_identical(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        second = str(tmp_path / "again.ckpt")
        save_checkpoint(loaded, second)
        with open(path, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_forecast_from_checkpoint_bitwise_equal(self, tmp_path):
        params, _, path = self.roundtrip(tmp_path)
        restored = load_checkpoint(path).params
        rng = np.random.default_rng(11)
        past = rng.uniform(-1, 1, size=(1, MICRO.n_past,
                                        MICRO.past_feature_count))
        future = rng.uniform(-1, 1, size=(1, MICRO.n_future,
                                          MICRO.future_feature_count))
        a = forward_batch(params, past, future).data
        b = forward_batch(restored, past, future).data
        assert np.array_equal(a, b)

    def test_load_holds_only_the_model(self, tmp_path):
        # the model's weights are the payload, and a parameter holds no
        # gradient until a backward reaches it; a file-sized buffer or a
        # copy of the tensors on the way into the model would add another
        # payload or more
        params = build_model(ModelConfig(
            n_past=4, n_future=2, past_feature_count=3,
            future_feature_count=2, zone_count=2, rnn_units=32, mha_heads=2,
            dropout_rate=0.0, quantile_levels=(0.1, 0.5, 0.9)))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(make_checkpoint(params), path)
        payload = 8 * params.parameter_count()
        del params
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload > 10 ** 6
        assert peak < 1.5 * payload, (peak, payload)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        bumped = self.with_header(tmp_path, lambda h: {**h, "version": 99})
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 99"):
            load_checkpoint(bumped)

    def test_truncated_payload_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = open(path, "rb").read()
        stub = tmp_path / "cut.ckpt"
        stub.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(stub))

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = open(path, "rb").read()
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(blob + bytes(16))
        with pytest.raises(CheckpointError, match="payload length"):
            load_checkpoint(str(padded))

    def test_flipped_payload_bit_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0x10
        flipped = tmp_path / "flipped.ckpt"
        flipped.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(str(flipped))

    @pytest.mark.parametrize("edit, match", [
        (lambda h: {k: v for k, v in h.items() if k != "config"},
         r"missing \['config'\]"),
        (lambda h: {**h, "config": {k: v for k, v in h["config"].items()
                                    if k != "quantile_levels"}},
         r"missing \['quantile_levels'\]"),
        (lambda h: {**h, "config": {**h["config"], "width": 3}},
         r"unexpected \['width'\]"),
        (lambda h: {**h, "config": 5}, "config must be a JSON object"),
        (lambda h: [h], "header must be a JSON object"),
        (lambda h: {**h, "tensors": [
            h["tensors"][0],
            {**h["tensors"][1], "offset": h["tensors"][0]["offset"]},
            *h["tensors"][2:]]},
         r"tensor \S+ has offset 0, expected [1-9]\d*"),
        (lambda h: {**h, "tensors": [{**h["tensors"][0], "offset": -8},
                                     *h["tensors"][1:]]},
         r"tensor \S+ has offset -8, expected 0"),
        (lambda h: {**h, "tensors": [
            {k: v for k, v in h["tensors"][0].items() if k != "shape"},
            *h["tensors"][1:]]},
         r"tensor \S+ has shape None, but the model's is \[\d+(, \d+)*\]$"),
        (lambda h: {**h, "tensors": h["tensors"][:-1]},
         r"^checkpoint lacks tensors \['output_bilstm/fwd/w_x'\]$"),
        (lambda h: {**h, "tensors": [
            {**t, "shape": t["shape"][::-1]} if t["name"] == "head/w" else t
            for t in h["tensors"]]},
         r"^checkpoint tensor head/w has shape \[6, 4\], but the model's "
         r"is \[4, 6\]$"),
        (lambda h: {**h, "tensors": [{**h["tensors"][0], "name": "head/v"},
                                     *h["tensors"][1:]]},
         "^checkpoint tensor head/v is not a model parameter$"),
        (lambda h: {**h, "tensors": [h["tensors"][0], h["tensors"][0],
                                     *h["tensors"][2:]]},
         r"^checkpoint tensor \S+ is listed twice$"),
        (lambda h: {**h, "config": {**h["config"], "rnn_units": "2"}},
         "^checkpoint config: rnn_units must be an integer, got '2'$"),
        (lambda h: {**h, "config": {**h["config"], "rnn_units": 2.5}},
         r"^checkpoint config: rnn_units must be an integer, got 2\.5$"),
        (lambda h: {**h, "scaler_intervals": {**h["scaler_intervals"],
                                              "t_out": 3}},
         "scaler_intervals t_out must be a"),
        (lambda h: {**h, "config": {**h["config"], "quantile_levels": None}},
         "^checkpoint config: quantile_levels must be a list of numbers, "
         "got None$"),
        (lambda h: {**h, "metadata": [1]},
         "metadata must be a JSON object"),
        (lambda h: {**h, "scaler_intervals": {**h["scaler_intervals"],
                                              "t_in_1": [5.0, 45.0]}},
         r"interval for t_in_1 is \[5\.0, 45\.0\], but Table 1 has "
         r"\[10\.0, 40\.0\]"),
        (lambda h: {**h, "scaler_intervals": {
            k: v for k, v in h["scaler_intervals"].items() if k != "t_out"}},
         "interval for t_out is missing"),
        (lambda h: {**h, "scaler_intervals": {**h["scaler_intervals"],
                                              "t_roof": [0.0, 1.0]}},
         "interval for t_roof is .* Table 1 has none"),
        (lambda h: {**h, "config": {**h["config"], "mha_heads": 3}},
         r"^checkpoint config: d_model \(4\) must be divisible by "
         r"mha_heads \(3\)$"),
        (lambda h: {**h, "config": {**h["config"],
                                    "quantile_levels": [0.9, 0.5, 0.1]}},
         r"^checkpoint config: quantile_levels: quantile levels must "
         r"strictly ascend, got \(0\.9, 0\.5, 0\.1\)$"),
    ], ids=["no-config", "no-quantile-levels", "unknown-config-key",
            "numeric-config", "list-header", "aliased-offset",
            "negative-offset", "tensor-without-shape", "dropped-tensor",
            "transposed-shape", "unknown-tensor", "repeated-tensor",
            "string-rnn-units",
            "fractional-rnn-units", "scalar-scaler-interval",
            "null-quantile-levels", "list-metadata", "moved-interval",
            "missing-interval", "extra-interval", "heads-not-dividing-width",
            "descending-quantile-levels"])
    def test_malformed_header_names_field(self, tmp_path, edit, match):
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(self.with_header(tmp_path, edit))

    def test_unknown_top_level_key_ignored(self, tmp_path):
        # a header key this version does not read, such as rng_seed, is ignored
        path = self.with_header(tmp_path, lambda h: {**h, "rng_seed": 13})
        assert load_checkpoint(path).metadata == {"best_epoch": 3}

    def test_truncated_header_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = open(path, "rb").read()
        stub = tmp_path / "stub.ckpt"
        stub.write_bytes(blob[:20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(stub))

    def test_no_temp_file_left_behind(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_magic_bytes(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        with open(path, "rb") as fh:
            assert fh.read(4) == CHECKPOINT_MAGIC == b"HVF1"
