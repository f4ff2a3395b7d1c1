"""Tests for pinball/quantile losses, the Adam optimizer, the training
loop with early stopping, and checkpoint persistence."""

import json
import os

import numpy as np
import pytest

from hvforecast import numerics as nm
from hvforecast.errors import (
    CheckpointError,
    ConfigurationError,
    DimensionError,
    GradientError,
)
from hvforecast.model import ModelConfig, build_model, model_forward
from hvforecast.numerics import Parameter, Tensor
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
    pinball_loss,
    restore_model,
    save_checkpoint,
    total_quantile_loss,
)

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


class TestPinballLoss:
    def test_zero_at_perfect_prediction(self):
        y = np.array([1.0, -2.0, 3.0])
        assert pinball_loss(y, y, 0.3).item() == 0.0

    def test_median_overprediction(self):
        assert pinball_loss(np.array([1.0]), np.array([0.0]),
                            0.5).item() == 0.5

    def test_high_level_underprediction(self):
        loss = pinball_loss(np.array([0.0]), np.array([1.0]), 0.9).item()
        assert loss == pytest.approx(0.1, abs=1e-12)

    def test_level_outside_open_interval_rejected(self):
        for q in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigurationError, match="outside"):
                pinball_loss(np.zeros(2), np.zeros(2), q)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="pinball"):
            pinball_loss(np.zeros(3), np.zeros(4), 0.5)

    def test_convex_in_prediction(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=6)
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            lam = rng.uniform()
            q = rng.uniform(0.01, 0.99)
            mixed = pinball_loss(y, lam * a + (1 - lam) * b, q).item()
            bound = (lam * pinball_loss(y, a, q).item()
                     + (1 - lam) * pinball_loss(y, b, q).item())
            assert mixed <= bound + 1e-12


class TestTotalQuantileLoss:
    def test_median_only_equals_half_mae(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(4, 6, 5))
        yhat = rng.normal(size=(4, 6, 5, 1))
        loss = total_quantile_loss(y, yhat, (0.5,)).item()
        mae = float(np.mean(np.abs(y - yhat[..., 0])))
        assert loss == pytest.approx(0.5 * mae, abs=1e-12)

    def test_zero_at_perfect_prediction(self):
        y = np.random.default_rng(3).normal(size=(2, 3, 4))
        yhat = np.repeat(y[..., None], 3, axis=-1)
        assert total_quantile_loss(y, yhat, (0.1, 0.5, 0.9)).item() == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(3, 4, 2))
        yhat = rng.normal(size=(3, 4, 2, 3))
        base = total_quantile_loss(y, yhat, (0.2, 0.5, 0.8)).item()
        shifted = total_quantile_loss(y + 7.5, yhat + 7.5,
                                      (0.2, 0.5, 0.8)).item()
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
        state = OptimizerState.for_params(named)
        adam_step(named, {"w": np.zeros(2)}, state)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_matches_hand_formula(self):
        g = 1000.0
        lr = 0.05
        p = Parameter("w", np.array([2.0]))
        named = {"w": p}
        state = OptimizerState.for_params(named, learning_rate=lr)
        adam_step(named, {"w": np.array([g])}, state)
        expect = 2.0 - lr * g / (abs(g) + state.eps)
        assert p.data[0] == pytest.approx(expect, rel=1e-12)
        assert p.data[0] == pytest.approx(2.0 - lr, rel=1e-6)

    def test_zero_betas_degenerate_to_normalized_descent(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=5)
        grads = rng.normal(size=5)
        p = Parameter("w", values.copy())
        named = {"w": p}
        state = OptimizerState.for_params(named, learning_rate=0.01,
                                          beta1=0.0, beta2=0.0)
        adam_step(named, {"w": grads.copy()}, state)
        expect = values - 0.01 * grads / (np.abs(grads) + state.eps)
        assert np.allclose(p.data, expect, rtol=0, atol=1e-15)

    def test_nan_gradient_names_parameter(self):
        p = Parameter("encoder/w", np.zeros(2))
        named = {"encoder/w": p}
        state = OptimizerState.for_params(named)
        with pytest.raises(GradientError, match="encoder/w"):
            adam_step(named, {"encoder/w": np.array([np.nan, 0.0])}, state)

    def test_second_moment_stays_nonnegative(self):
        p = Parameter("w", np.zeros(3))
        named = {"w": p}
        state = OptimizerState.for_params(named)
        rng = np.random.default_rng(7)
        for _ in range(20):
            adam_step(named, {"w": rng.normal(size=3)}, state)
            assert np.all(state.v["w"] >= 0.0)
        assert state.t == 20


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
        state = OptimizerState.for_params(named, learning_rate=3e-3)
        past, future, target = data.batch(range(4))
        initial = None
        final = None
        for _ in range(500):
            for p in named.values():
                p.zero_grad()
            out = model_forward(params, past[0], future[0], training=False)
            loss = total_quantile_loss(target[0], out,
                                       MICRO.quantile_levels)
            if initial is None:
                initial = float(loss.data)
            nm.backward(loss)
            grads = {n: p.grad for n, p in named.items()}
            clip_gradient_norm(grads, 1.0)
            adam_step(named, grads, state)
            final = float(loss.data)
        assert final < 0.05 * initial


class TestCheckpoint:
    def roundtrip(self, tmp_path, metadata=None):
        params = build_model(MICRO)
        ckpt = make_checkpoint(params, metadata=metadata or {"best_epoch": 3})
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, path)
        return params, ckpt, path

    def test_parameters_bitwise_round_trip(self, tmp_path):
        params, ckpt, path = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        assert set(loaded.parameters) == set(ckpt.parameters)
        for name, arr in ckpt.parameters.items():
            assert np.array_equal(loaded.parameters[name], arr)
        assert loaded.config == params.cfg
        assert loaded.metadata == {"best_epoch": 3}
        assert loaded.scaler_intervals["t_out"] == (-30.0, 40.0)

    def test_save_load_save_byte_identical(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        second = str(tmp_path / "again.ckpt")
        save_checkpoint(loaded, second)
        with open(path, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_forecast_from_checkpoint_bitwise_equal(self, tmp_path):
        params, _, path = self.roundtrip(tmp_path)
        restored = restore_model(load_checkpoint(path))
        rng = np.random.default_rng(11)
        past = rng.uniform(-1, 1, size=(MICRO.n_past,
                                        MICRO.past_feature_count))
        future = rng.uniform(-1, 1, size=(MICRO.n_future,
                                          MICRO.future_feature_count))
        a = model_forward(params, past, future).data
        b = model_forward(restored, past, future).data
        assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        _, ckpt, path = self.roundtrip(tmp_path)
        ckpt.version = 99
        bumped = str(tmp_path / "v99.ckpt")
        save_checkpoint(ckpt, bumped)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bumped)

    def test_truncated_payload_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = open(path, "rb").read()
        stub = tmp_path / "cut.ckpt"
        stub.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(stub))

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
