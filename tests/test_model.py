"""Tests for the quantile forecaster: configuration validation, build
determinism, forward shapes, attention invariants, gradient correctness on a
micro configuration, and physical-unit prediction."""

from datetime import datetime

import numpy as np
import pytest

from hvforecast import numerics as nm
from hvforecast.building_sim import DATASET_COLUMNS, SimulatedDataset, make_timestamps
from hvforecast.errors import ConfigurationError, DimensionError
from hvforecast.model import (
    DEFAULT_QUANTILE_LEVELS,
    ModelConfig,
    QuantileForecast,
    build_model,
    forecast_windows,
    forward_batch,
    model_forward,
    predict,
    set_parameter_values,
)
from hvforecast.numerics import Tensor, gradient_check
from hvforecast.pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TABLE1_INTERVALS,
    TARGET_FEATURES,
    Scaler,
    ScalerSpec,
    build_windows,
)

TINY = ModelConfig(n_past=8, n_future=4, past_feature_count=6,
                   future_feature_count=3, zone_count=5, rnn_units=4,
                   mha_heads=2, d_model=8, dropout_rate=0.3, rng_seed=1)

MICRO = ModelConfig(n_past=5, n_future=3, past_feature_count=2,
                    future_feature_count=2, zone_count=2, rnn_units=2,
                    mha_heads=2, d_model=4, dropout_rate=0.0,
                    quantile_levels=(0.1, 0.5, 0.9), rng_seed=0)


def random_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    past = rng.uniform(-1, 1, size=(cfg.n_past, cfg.past_feature_count))
    future = rng.uniform(-1, 1, size=(cfg.n_future, cfg.future_feature_count))
    return past, future


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.n_past, cfg.n_future) == (672, 96)
        assert cfg.rnn_units == 200
        assert cfg.mha_heads == 4
        assert cfg.dropout_rate == 0.3
        assert cfg.d_model == 400
        assert cfg.quantile_levels == DEFAULT_QUANTILE_LEVELS
        cfg.validate()

    def test_dimension_head_divisibility(self):
        ModelConfig(d_model=8, mha_heads=4).validate()
        with pytest.raises(ConfigurationError, match="divisible"):
            ModelConfig(d_model=10, mha_heads=4).validate()

    def test_quantiles_must_ascend(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            ModelConfig(quantile_levels=(0.5, 0.3)).validate()

    def test_quantiles_must_include_median(self):
        with pytest.raises(ConfigurationError, match="0.5"):
            ModelConfig(quantile_levels=(0.1, 0.9)).validate()

    def test_quantiles_open_interval(self):
        with pytest.raises(ConfigurationError, match="outside"):
            ModelConfig(quantile_levels=(0.5, 1.0)).validate()

    def test_dropout_range(self):
        with pytest.raises(ConfigurationError, match="dropout_rate"):
            ModelConfig(dropout_rate=1.0).validate()

    def test_positive_extents(self):
        with pytest.raises(ConfigurationError, match="rnn_units"):
            ModelConfig(rnn_units=0).validate()


def dense_params(d_in, d_out):
    return d_in * d_out + d_out


def lstm_params(d_in, units):
    return d_in * 4 * units + units * 4 * units + 4 * units


def bilstm_params(d_in, units):
    return 2 * lstm_params(d_in, units)


def mha_params(d):
    return 4 * dense_params(d, d)


def grn_params(d):
    return 2 * dense_params(d, d) + dense_params(d, 2 * d) + 2 * d


def branch_params(d_in, cfg):
    total = dense_params(d_in, cfg.d_model)
    total += mha_params(cfg.d_model) + grn_params(cfg.d_model)
    total += bilstm_params(cfg.d_model, cfg.rnn_units)
    total += grn_params(2 * cfg.rnn_units)
    if 2 * cfg.rnn_units != cfg.d_model:
        total += dense_params(2 * cfg.rnn_units, cfg.d_model)
    return total


def expected_params(cfg):
    total = branch_params(cfg.past_feature_count, cfg)
    total += branch_params(cfg.future_feature_count, cfg)
    total += mha_params(cfg.d_model) + grn_params(cfg.d_model)
    total += bilstm_params(cfg.d_model, cfg.rnn_units)
    total += grn_params(2 * cfg.rnn_units)
    total += dense_params(2 * cfg.rnn_units,
                          cfg.zone_count * len(cfg.quantile_levels))
    return total


class TestBuild:
    def test_same_seed_same_parameters(self):
        a = build_model(TINY)
        b = build_model(TINY)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_model(TINY)
        b = build_model(ModelConfig(**{**TINY.__dict__, "rng_seed": 2}))
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_parameter_names_unique_and_prefixed(self):
        params = build_model(TINY)
        names = params.named_parameters()
        assert len(names) == sum(1 for _ in params.parameters())
        assert any(n.startswith("encoder/") for n in names)
        assert any(n.startswith("decoder/") for n in names)
        assert any(n.startswith("cross_mha/") for n in names)

    def test_parameter_count_matches_shape_arithmetic(self):
        for cfg in (TINY, MICRO):
            assert build_model(cfg).parameter_count() == expected_params(cfg)

    def test_adapter_appears_only_when_extents_differ(self):
        with_adapter = build_model(TINY)  # 2*units=8 == d_model -> no adapter
        assert all("adapter" not in n
                   for n in with_adapter.named_parameters())
        cfg = ModelConfig(n_past=4, n_future=2, past_feature_count=3,
                          future_feature_count=3, zone_count=2, rnn_units=3,
                          mha_heads=2, d_model=8, rng_seed=0)
        adapted = build_model(cfg)
        assert any("adapter" in n for n in adapted.named_parameters())
        assert adapted.parameter_count() == expected_params(cfg)

    def test_invalid_config_rejected_at_build(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            build_model(ModelConfig(d_model=10, mha_heads=4))


class TestForward:
    def test_single_sample_output_shape(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY)
        out = model_forward(params, past, future)
        assert out.shape == (4, 5, len(DEFAULT_QUANTILE_LEVELS))
        assert np.all(np.isfinite(out.data))

    def test_batched_output_shape(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY)
        out = forward_batch(params, np.stack([past, past, past]),
                            np.stack([future, future, future]))
        assert out.shape == (3, 4, 5, len(DEFAULT_QUANTILE_LEVELS))

    def test_inference_bit_identical(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=3)
        a = model_forward(params, past, future, training=False)
        b = model_forward(params, past, future, training=False)
        assert np.array_equal(a.data, b.data)

    def test_training_mode_reproducible_with_seed(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=4)
        a = model_forward(params, past, future, training=True,
                          rng=np.random.default_rng(7))
        b = model_forward(params, past, future, training=True,
                          rng=np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)

    def test_training_mode_dropout_changes_output(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=4)
        plain = model_forward(params, past, future, training=False)
        dropped = model_forward(params, past, future, training=True,
                                rng=np.random.default_rng(7))
        assert not np.array_equal(plain.data, dropped.data)

    def test_wrong_past_shape_names_encoder(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY)
        with pytest.raises(DimensionError, match="encoder input"):
            model_forward(params, past[:-1], future)

    def test_wrong_future_shape_names_decoder(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY)
        with pytest.raises(DimensionError, match="decoder input"):
            model_forward(params, past, future[:, :-1])

    def test_cross_attention_rows_sum_to_one(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=5)
        out, weights = forward_batch(params, past, future,
                                     collect_attention=True)
        assert weights.shape == (1, TINY.mha_heads, TINY.n_future,
                                 TINY.n_past)
        sums = weights.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_every_future_window_signal_reaches_output(self):
        cfg = ModelConfig(n_past=8, n_future=4,
                          past_feature_count=len(PAST_FEATURES),
                          future_feature_count=len(FUTURE_FEATURES),
                          zone_count=5, rnn_units=4, mha_heads=2, d_model=8,
                          dropout_rate=0.0, rng_seed=3)
        params = build_model(cfg)
        past, future = random_inputs(cfg, seed=6)
        base = model_forward(params, past, future).data
        for w in range(1, 5):
            col = FUTURE_FEATURES.index(f"ws_{w}")
            poked = future.copy()
            poked[2, col] += 0.5
            delta = model_forward(params, past, poked).data - base
            assert np.max(np.abs(delta)) > 0.0


def micro_pinball(out: Tensor, target: np.ndarray, levels) -> Tensor:
    """Mean pinball loss across levels, built from graph ops."""
    terms = []
    y = Tensor(target)
    for k, q in enumerate(levels):
        pred = nm.reshape(nm.narrow(out, 2, k, 1), out.shape[:2])
        err = nm.sub(y, pred)
        terms.append(nm.tmean(nm.maximum(nm.mul(err, q),
                                         nm.mul(err, q - 1.0))))
    total = terms[0]
    for t in terms[1:]:
        total = nm.add(total, t)
    return nm.mul(total, 1.0 / len(terms))


class TestGradients:
    def test_finite_difference_check_micro_model(self):
        params = build_model(MICRO)
        past, future = random_inputs(MICRO, seed=9)
        rng = np.random.default_rng(10)
        target = rng.uniform(-1, 1, size=(MICRO.n_future, MICRO.zone_count))

        def loss():
            out = model_forward(params, past, future, training=False)
            return micro_pinball(out, target, MICRO.quantile_levels)

        report = gradient_check(loss, params.parameters(), tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err}"
        assert report.coord_count == params.parameter_count()


class TestGraphSize:
    def test_tiny_train_step_graph_under_500_nodes(self):
        # One training step of the tiny profile at its batch size of 32.
        # Each LSTM pass is one graph node, so the count does not grow with
        # the sequence length.
        from hvforecast.config import RunConfig, tiny_profile
        from hvforecast.training import total_quantile_loss

        profile = tiny_profile(RunConfig())
        cfg = ModelConfig(n_past=profile.pipeline.n_past,
                          n_future=profile.pipeline.n_future,
                          rnn_units=profile.model.rnn_units,
                          mha_heads=profile.model.mha_heads,
                          d_model=profile.model.d_model,
                          dropout_rate=profile.model.dropout_rate,
                          rng_seed=23)
        batch = profile.training.batch_size
        assert batch == 32
        rng = np.random.default_rng(23)
        past = rng.uniform(-1, 1, (batch, cfg.n_past, cfg.past_feature_count))
        future = rng.uniform(-1, 1,
                             (batch, cfg.n_future, cfg.future_feature_count))
        target = rng.uniform(-1, 1, (batch, cfg.n_future, cfg.zone_count))
        out = forward_batch(build_model(cfg), past, future, training=True,
                            rng=rng)
        loss = total_quantile_loss(target, out, cfg.quantile_levels)
        assert len(nm.topological_order(loss)) < 500


class TestPredict:
    def physical_inputs(self, cfg, seed=0, nudge=0.0):
        rng = np.random.default_rng(seed)
        past = np.column_stack([
            rng.uniform(lo, hi, size=cfg.n_past) + nudge
            for lo, hi in (TABLE1_INTERVALS[n] for n in PAST_FEATURES)])
        future = np.column_stack([
            rng.uniform(lo, hi, size=cfg.n_future)
            for lo, hi in (TABLE1_INTERVALS[n] for n in FUTURE_FEATURES)])
        return past, future

    def full_feature_config(self):
        return ModelConfig(n_past=8, n_future=4,
                           past_feature_count=len(PAST_FEATURES),
                           future_feature_count=len(FUTURE_FEATURES),
                           zone_count=5, rnn_units=4, mha_heads=2, d_model=8,
                           rng_seed=11)

    def test_forecast_shape_and_finiteness(self):
        cfg = self.full_feature_config()
        params = build_model(cfg)
        past, future = self.physical_inputs(cfg)
        fc = predict(params, past, future)
        assert isinstance(fc, QuantileForecast)
        assert fc.values.shape == (4, 5, len(DEFAULT_QUANTILE_LEVELS))
        assert np.all(np.isfinite(fc.values))
        assert fc.clamped_inputs == 0

    def test_constant_inputs_finite(self):
        cfg = self.full_feature_config()
        params = build_model(cfg)
        past = np.full((cfg.n_past, cfg.past_feature_count), 0.5)
        future = np.full((cfg.n_future, cfg.future_feature_count), 0.5)
        fc = predict(params, past, future)
        assert np.all(np.isfinite(fc.values))

    def test_out_of_interval_inputs_counted(self):
        cfg = self.full_feature_config()
        params = build_model(cfg)
        past, future = self.physical_inputs(cfg)
        past[0, PAST_FEATURES.index("t_out")] = 99.0
        fc = predict(params, past, future)
        assert fc.clamped_inputs == 1

    def test_non_finite_input_refused_naming_feature(self):
        cfg = self.full_feature_config()
        params = build_model(cfg)
        past, future = self.physical_inputs(cfg)
        future[2, FUTURE_FEATURES.index("sp_heat_3")] = np.nan
        with pytest.raises(ConfigurationError, match="sp_heat_3"):
            predict(params, past, future)

    def test_wrong_input_shape_names_stage(self):
        cfg = self.full_feature_config()
        params = build_model(cfg)
        past, future = self.physical_inputs(cfg)
        with pytest.raises(DimensionError, match="encoder input"):
            predict(params, past[:-1], future)

    def test_matches_manual_scale_forward_inverse(self):
        cfg = self.full_feature_config()
        params = build_model(cfg)
        past, future = self.physical_inputs(cfg, seed=2)
        fc = predict(params, past, future)
        scaler = Scaler()
        sp = np.column_stack([scaler.scale(past[:, j], n)
                              for j, n in enumerate(PAST_FEATURES)])
        sf = np.column_stack([scaler.scale(future[:, j], n)
                              for j, n in enumerate(FUTURE_FEATURES)])
        with nm.no_grad():
            out = model_forward(params, sp, sf).data
        manual = np.stack([
            scaler.inverse_scale(out[:, z, :], name)
            for z, name in enumerate(TARGET_FEATURES)], axis=1)
        assert np.array_equal(fc.values, manual)


class TestForecastWindows:
    def windows(self, scaler):
        rng = np.random.default_rng(4)
        n = 40
        columns = {name: rng.uniform(*TABLE1_INTERVALS.get(name, (20.0, 35.0)),
                                     size=n)
                   for name in DATASET_COLUMNS}
        dataset = SimulatedDataset(make_timestamps(datetime(2021, 3, 1), n),
                                   columns)
        return build_windows(dataset, n_past=8, n_future=4, scaler=scaler)

    @pytest.mark.parametrize("t_in_1", [(10.0, 40.0), (0.0, 50.0)])
    def test_matches_per_zone_inverse_scale(self, t_in_1):
        scaler = Scaler(ScalerSpec(dict(TABLE1_INTERVALS, t_in_1=t_in_1)))
        windows = self.windows(scaler)
        params = build_model(TestPredict().full_feature_config())
        indices = [0, 3, 4, 9, 17, 28, 2]
        values, actuals = forecast_windows(params, windows, indices,
                                           batch_size=3)

        scaled_v, scaled_a = [], []
        with nm.no_grad():
            for lo in range(0, len(indices), 3):
                past, future, target = windows.batch(indices[lo:lo + 3])
                scaled_v.append(forward_batch(params, past, future).data)
                scaled_a.append(target)
        scaled_v = np.concatenate(scaled_v)
        scaled_a = np.concatenate(scaled_a)
        expect_v = np.empty_like(scaled_v)
        expect_a = np.empty_like(scaled_a)
        for z, name in enumerate(TARGET_FEATURES):
            expect_v[:, :, z, :] = scaler.inverse_scale(scaled_v[:, :, z, :],
                                                        name)
            expect_a[:, :, z] = scaler.inverse_scale(scaled_a[:, :, z], name)
        assert values.shape == (7, 4, 5, len(DEFAULT_QUANTILE_LEVELS))
        assert actuals.shape == (7, 4, 5)
        assert np.array_equal(values, expect_v)
        assert np.array_equal(actuals, expect_a)


class TestParameterLoading:
    def test_round_trip_values(self):
        src = build_model(TINY)
        snapshot = {n: p.data.copy()
                    for n, p in src.named_parameters().items()}
        dst = build_model(ModelConfig(**{**TINY.__dict__, "rng_seed": 99}))
        set_parameter_values(dst, snapshot)
        past, future = random_inputs(TINY, seed=8)
        a = model_forward(src, past, future).data
        b = model_forward(dst, past, future).data
        assert np.array_equal(a, b)

    def test_name_mismatch_rejected(self):
        params = build_model(TINY)
        values = {n: p.data.copy()
                  for n, p in params.named_parameters().items()}
        values.pop("head/b")
        with pytest.raises(ConfigurationError, match="head/b"):
            set_parameter_values(params, values)

    def test_shape_mismatch_rejected(self):
        params = build_model(TINY)
        values = {n: p.data.copy()
                  for n, p in params.named_parameters().items()}
        values["head/b"] = np.zeros(3)
        with pytest.raises(DimensionError, match="head/b"):
            set_parameter_values(params, values)
