"""Tests for the quantile forecaster: configuration validation, build
determinism, forward shapes, attention invariants, gradient correctness on a
micro configuration, and forecasts in degrees C."""

import tracemalloc
from datetime import datetime

import numpy as np
import pytest

from hvforecast import numerics as nm
from hvforecast.building_sim import DATASET_COLUMNS, SimulatedDataset, make_timestamps
from hvforecast.config import RunConfig
from hvforecast.errors import ConfigurationError, DimensionError, GradientError
from hvforecast.evaluation import pinball_scores
from hvforecast.model import (
    DEFAULT_QUANTILE_LEVELS,
    ModelConfig,
    build_model,
    forecast_windows,
    forward_batch,
    set_parameter_values,
)
from hvforecast.numerics import Tensor, gradient_check
from hvforecast.pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TABLE1_INTERVALS,
    TARGET_FEATURES,
    build_windows,
)
from hvforecast.training import Hyperparameters, evaluate_loss

import unfused as uf

TINY = ModelConfig(n_past=8, n_future=4, past_feature_count=6,
                   future_feature_count=3, zone_count=5, rnn_units=4,
                   mha_heads=2, d_model=8, dropout_rate=0.3, rng_seed=1)

MICRO = ModelConfig(n_past=5, n_future=3, past_feature_count=2,
                    future_feature_count=2, zone_count=2, rnn_units=2,
                    mha_heads=2, d_model=4, dropout_rate=0.0,
                    quantile_levels=(0.1, 0.5, 0.9), rng_seed=0)


def random_inputs(cfg, seed=0, batch=1):
    rng = np.random.default_rng(seed)
    past = rng.uniform(-1, 1, size=(batch, cfg.n_past, cfg.past_feature_count))
    future = rng.uniform(-1, 1,
                         size=(batch, cfg.n_future, cfg.future_feature_count))
    return past, future


def full_feature_config():
    return ModelConfig(n_past=8, n_future=4,
                       past_feature_count=len(PAST_FEATURES),
                       future_feature_count=len(FUTURE_FEATURES),
                       zone_count=5, rnn_units=4, mha_heads=2, d_model=8,
                       rng_seed=11)


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
        with pytest.raises(ConfigurationError,
                           match=r"^quantile_levels: quantile levels must "
                                 r"strictly ascend, got \(0\.5, 0\.3\)$"):
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

    @pytest.mark.parametrize("name", ["rnn_units", "mha_heads", "n_past"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
    def test_non_integer_size_refused(self, name, value):
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be an integer, got "):
            ModelConfig(**{name: value}).validate()

    def test_numpy_integer_size_accepted(self):
        ModelConfig(rnn_units=np.int64(4), mha_heads=np.int32(2)).validate()


# One seed rule for the three objects that carry a seed.
SEEDED = {"seed": RunConfig, "rng_seed": ModelConfig,
          "shuffle_seed": Hyperparameters}


@pytest.mark.parametrize("name", sorted(SEEDED))
@pytest.mark.parametrize("value, reason", [
    (2.5, "must be an integer"), (True, "must be an integer"),
    ("7", "must be an integer"), (None, "must be an integer"),
    (-1, r"must be in \[0, 2\*\*64\)"), (2 ** 64, r"must be in \[0, 2\*\*64\)")])
def test_seed_rule(name, value, reason):
    with pytest.raises(ConfigurationError, match=f"^{name} {reason}, got "):
        SEEDED[name](**{name: value}).validate()


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seed_range_ends_accepted(name):
    for value in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
        SEEDED[name](**{name: value}).validate()


@pytest.mark.parametrize("levels, reason", [
    ((), "quantile levels must be non-empty"),
    ((0.5, 1.0), r"quantile level 1\.0 outside \(0, 1\)"),
    ((0.5, 0.5), "quantile levels must strictly ascend")])
def test_one_quantile_level_rule(levels, reason):
    """The model config, the training loss and the metrics refuse bad
    levels with the same words."""
    shape = (1, 1, 1)
    checks = (
        lambda: ModelConfig(quantile_levels=levels).validate(),
        lambda: nm.quantile_loss(Tensor(np.zeros(shape)),
                                 Tensor(np.zeros(shape + (len(levels),))),
                                 levels),
        lambda: pinball_scores(np.zeros(shape + (len(levels),)),
                               np.zeros(shape), levels))
    for check in checks:
        with pytest.raises(ConfigurationError, match=f"{reason}, got "):
            check()


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
        out = forward_batch(params, past, future)
        assert out.shape == (1, 4, 5, len(DEFAULT_QUANTILE_LEVELS))
        assert np.all(np.isfinite(out.data))

    def test_batched_output_shape(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, batch=3)
        out = forward_batch(params, past, future)
        assert out.shape == (3, 4, 5, len(DEFAULT_QUANTILE_LEVELS))
        assert np.all(np.isfinite(out.data))

    def test_inference_bit_identical(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=3)
        a = forward_batch(params, past, future, training=False)
        b = forward_batch(params, past, future, training=False)
        assert np.array_equal(a.data, b.data)

    def test_no_grad_forward_is_bitwise_the_recorded_one_at_paper_geometry(
            self):
        cfg = ModelConfig()
        params = build_model(cfg)
        past, future = random_inputs(cfg, seed=5, batch=2)
        recorded = forward_batch(params, past, future)
        with nm.no_grad():
            out = forward_batch(params, past, future)
        assert recorded.requires_grad and not out.requires_grad
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_no_grad_forward_holds_no_full_score_matrix(self):
        # at 672 history steps the encoder's self-attention scores over
        # the whole batch alone take 2 * 4 * 672 * 672 floats (27.6 MiB)
        cfg = ModelConfig(rnn_units=16, d_model=32, mha_heads=4, rng_seed=3)
        params = build_model(cfg)
        past, future = random_inputs(cfg, seed=6, batch=2)
        tracemalloc.start()
        try:
            with nm.no_grad():
                out = forward_batch(params, past, future)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(out.data).all()
        assert peak < 10 * 2 ** 20, peak

    def test_training_mode_reproducible_with_seed(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=4)
        a = forward_batch(params, past, future, training=True,
                          rng=np.random.default_rng(7))
        b = forward_batch(params, past, future, training=True,
                          rng=np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)

    def test_training_mode_dropout_changes_output(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=4)
        plain = forward_batch(params, past, future, training=False)
        dropped = forward_batch(params, past, future, training=True,
                                rng=np.random.default_rng(7))
        assert not np.array_equal(plain.data, dropped.data)

    def test_wrong_past_shape_names_encoder(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY)
        for bad_past, bad_future in ((past[:, :-1], future),
                                     (past[0], future[0])):
            with pytest.raises(DimensionError, match="encoder input"):
                forward_batch(params, bad_past, bad_future)

    def test_wrong_future_shape_names_decoder(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY)
        with pytest.raises(DimensionError, match="decoder input"):
            forward_batch(params, past, future[:, :, :-1])

    def test_cross_attention_rows_sum_to_one(self):
        params = build_model(TINY)
        past, future = random_inputs(TINY, seed=5)
        enc = params.encoder(Tensor(past), False, None)
        dec = params.decoder(Tensor(future), False, None)
        cross = params.cross
        mixed, weights = uf.attention(cross.wq(dec), cross.wk(enc),
                                      cross.wv(enc), TINY.mha_heads)
        assert np.array_equal(cross(dec, enc).data, cross.wo(mixed).data)
        assert weights.shape == (1, TINY.mha_heads, TINY.n_future,
                                 TINY.n_past)
        sums = weights.data.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_collected_attention_equals_unfused_reference(self):
        cfg = ModelConfig(n_past=8, n_future=4, past_feature_count=6,
                          future_feature_count=3, zone_count=5, rnn_units=4,
                          mha_heads=2, d_model=8, dropout_rate=0.0, rng_seed=7)
        params = build_model(cfg)
        rng = np.random.default_rng(8)
        past = rng.uniform(-1, 1, (3, cfg.n_past, cfg.past_feature_count))
        future = rng.uniform(-1, 1, (3, cfg.n_future, cfg.future_feature_count))
        enc = params.encoder(Tensor(past), False, None)
        dec = params.decoder(Tensor(future), False, None)
        cross = params.cross
        out = cross(dec, enc)
        node = out.parents[0]
        assert node.op == "attention"
        weights = uf.kept_weights(node)
        mixed, expect = uf.attention(cross.wq(dec), cross.wk(enc),
                                     cross.wv(enc), cfg.mha_heads)
        assert weights.shape == (3, cfg.mha_heads, cfg.n_future, cfg.n_past)
        assert np.array_equal(weights, expect.data)
        assert np.array_equal(out.data, cross.wo(mixed).data)

    def test_every_future_window_signal_reaches_output(self):
        cfg = ModelConfig(n_past=8, n_future=4,
                          past_feature_count=len(PAST_FEATURES),
                          future_feature_count=len(FUTURE_FEATURES),
                          zone_count=5, rnn_units=4, mha_heads=2, d_model=8,
                          dropout_rate=0.0, rng_seed=3)
        params = build_model(cfg)
        past, future = random_inputs(cfg, seed=6)
        base = forward_batch(params, past, future).data
        for w in range(1, 5):
            col = FUTURE_FEATURES.index(f"ws_{w}")
            poked = future.copy()
            poked[0, 2, col] += 0.5
            delta = forward_batch(params, past, poked).data - base
            assert np.max(np.abs(delta)) > 0.0


def micro_pinball(out: Tensor, target: np.ndarray, levels) -> Tensor:
    """Mean pinball loss across levels, built from graph ops."""
    terms = []
    y = Tensor(target)
    for k, q in enumerate(levels):
        pred = nm.reshape(uf.narrow(out, 3, k, 1), out.shape[:3])
        err = uf.sub(y, pred)
        terms.append(uf.tmean(uf.maximum(uf.mul(err, q),
                                         uf.mul(err, q - 1.0))))
    total = terms[0]
    for t in terms[1:]:
        total = nm.add(total, t)
    return uf.mul(total, 1.0 / len(terms))


class TestGradients:
    def test_finite_difference_check_micro_model(self):
        params = build_model(MICRO)
        past, future = random_inputs(MICRO, seed=9)
        rng = np.random.default_rng(10)
        target = rng.uniform(-1, 1, size=(1, MICRO.n_future, MICRO.zone_count))

        def loss():
            out = forward_batch(params, past, future, training=False)
            return micro_pinball(out, target, MICRO.quantile_levels)

        report = gradient_check(loss, params.parameters(), tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err}"
        assert report.coord_count == params.parameter_count()


def tiny_train_inputs():
    """The tiny profile's model and one random batch at its batch size of
    32, with the rng the step's dropout draws from."""
    from hvforecast.config import RunConfig, apply_profile

    profile = apply_profile(RunConfig(), "tiny")
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
    return cfg, build_model(cfg), past, future, target, rng


def recorded_step_bytes(cfg, batch):
    """Bytes a recorded train step's graph holds once the loss is formed,
    derived from the shapes: each node's output while its consumer lists
    it in `parents`, plus what each closure captures for its backward.
    An attention node keeps its softmax weights only when it is one block,
    its scores over the whole batch fitting `ATTENTION_BLOCK_SCORES`. The
    model inputs are the caller's arrays and are not counted."""
    d, u, heads, zq = cfg.d_model, cfg.rnn_units, cfg.mha_heads, (
        cfg.zone_count * len(cfg.quantile_levels))
    assert 2 * u == d   # no adapter after the LSTMs
    # per (batch, step) position, in float64 values
    grn = (d + d          # fc1 output, elu output
           + d + 2 * d    # fc2 output, the gate's input
           + 2 * d + 1)   # gate_add_norm output, normalised values, inv_std
    lstm = 2 * (4 * u + u + u) + 2 * u   # per pass gates, c, h; the concat
    dropout = d + d / 8                  # output and a bool mask
    branch = (d                          # input projection
              + 3 * d + 2 * d            # q, k, v, attention and out maps
              + dropout + d + grn        # dropout, skip add, GRN
              + lstm + dropout + grn)
    values = ((cfg.n_past + cfg.n_future) * branch
              + cfg.n_past * 2 * d       # cross-attention keys and values
              + cfg.n_future * (d + 2 * d              # its queries,
                                + d + grn + lstm + grn + zq))   # the rest
    below = len(cfg.quantile_levels) * cfg.n_future * cfg.zone_count   # bools

    def weights(tq, tk):
        scores = batch * heads * tq * tk
        return scores if scores <= nm.ATTENTION_BLOCK_SCORES else 0

    kept = (weights(cfg.n_past, cfg.n_past) + weights(cfg.n_future, cfg.n_future)
            + weights(cfg.n_future, cfg.n_past))
    return batch * (8 * values + below) + 8 * kept


class TestGraphSize:
    def test_tiny_train_step_graph_under_100_op_nodes(self):
        # One training step of the tiny profile at its batch size of 32.
        # Each LSTM pass, dense map, gated residual tail, dropout, attention
        # core and the quantile loss is one graph node, so the count does
        # not grow with the sequence length.
        from hvforecast.training import total_quantile_loss

        cfg, params, past, future, target, rng = tiny_train_inputs()
        out = forward_batch(params, past, future, training=True, rng=rng)
        loss = total_quantile_loss(target, out, cfg.quantile_levels)
        ops = [n.op for n in nm.topological_order(loss) if n.op != "leaf"]
        assert len(ops) < 100
        assert not {"add_bias", "narrow", "softmax", "power", "expand_last",
                    "maximum", "scale_by_vector", "mul", "glu",
                    "layer_norm"} & set(ops)

    def test_tiny_train_step_graph_holds_only_what_backward_reads(self):
        # traced bytes live once the loss is formed: the float dropout
        # masks, the LSTM's time-major input copies and tanh(c), and the
        # gate outputs and residual sums held as parents would add about
        # a quarter to the derived figure
        from hvforecast.training import total_quantile_loss

        cfg, params, past, future, target, rng = tiny_train_inputs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward_batch(params, past, future, training=True, rng=rng)
            loss = total_quantile_loss(target, out, cfg.quantile_levels)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        derived = recorded_step_bytes(cfg, len(past))
        # the Tensor objects, closures and per-row vectors of ~160 nodes
        slack = 2 ** 19
        assert live <= derived + slack, (live, derived)
        assert float(loss.data) > 0.0

    def test_paper_geometry_train_step_graph_keeps_no_multi_block_weights(self):
        # at batch 1 the encoder's self-attention (4 x 672 x 672 scores) is
        # several blocks and keeps no weights, where the cross-attention
        # (4 x 96 x 672) and the decoder's self-attention are one block
        # each; keeping the encoder's weights would add 13.8 MiB
        from hvforecast.training import total_quantile_loss

        cfg = ModelConfig()
        params = build_model(cfg)
        past, future = random_inputs(cfg, seed=12, batch=1)
        rng = np.random.default_rng(12)
        target = rng.uniform(-1, 1, (1, cfg.n_future, cfg.zone_count))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward_batch(params, past, future, training=True, rng=rng)
            loss = total_quantile_loss(target, out, cfg.quantile_levels)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        derived = recorded_step_bytes(cfg, 1)
        heads, n_past, n_future = cfg.mha_heads, cfg.n_past, cfg.n_future
        assert (heads * n_past * n_past > nm.ATTENTION_BLOCK_SCORES
                >= heads * n_future * n_past)
        assert live <= derived + 2 ** 19, (live, derived)
        assert float(loss.data) > 0.0


class TestForecastWindows:
    def windows(self):
        rng = np.random.default_rng(4)
        n = 40
        columns = {name: rng.uniform(*TABLE1_INTERVALS.get(name, (20.0, 35.0)),
                                     size=n)
                   for name in DATASET_COLUMNS}
        dataset = SimulatedDataset(make_timestamps(datetime(2021, 3, 1), n),
                                   columns)
        return build_windows(dataset, n_past=8, n_future=4)

    def test_matches_per_zone_inverse_scale(self):
        windows = self.windows()
        params = build_model(full_feature_config())
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
            expect_v[:, :, z, :] = uf.inverse_scale(scaled_v[:, :, z, :],
                                                    name)
            expect_a[:, :, z] = uf.inverse_scale(scaled_a[:, :, z], name)
        assert values.shape == (7, 4, 5, len(DEFAULT_QUANTILE_LEVELS))
        assert actuals.shape == (7, 4, 5)
        assert np.array_equal(values, expect_v)
        assert np.array_equal(actuals, expect_a)

    def test_non_finite_forecast_names_window_origin(self):
        windows = self.windows()
        params = build_model(full_feature_config())
        params.named_parameters()["head/b"].data[0] = np.nan
        with pytest.raises(GradientError, match="origin 9 "):
            forecast_windows(params, windows, [9, 3, 4], batch_size=2)

    @pytest.mark.parametrize("indices, batch_size, match", [
        ([], 2, "empty window set"),
        ([0, 1], 0, "batch_size must be >= 1"),
        ([0, 1], 1.5, "batch_size must be an integer"),
    ])
    def test_bad_request_refused_by_name(self, indices, batch_size, match):
        windows = self.windows()
        params = build_model(full_feature_config())
        with pytest.raises(ConfigurationError, match=match):
            forecast_windows(params, windows, indices, batch_size=batch_size)
        with pytest.raises(ConfigurationError, match=match):
            evaluate_loss(params, windows.subset(windows.origins[indices]),
                          batch_size=batch_size)


class TestParameterLoading:
    def test_round_trip_values(self):
        src = build_model(TINY)
        snapshot = {n: p.data.copy()
                    for n, p in src.named_parameters().items()}
        dst = build_model(ModelConfig(**{**TINY.__dict__, "rng_seed": 99}))
        set_parameter_values(dst, snapshot)
        past, future = random_inputs(TINY, seed=8)
        a = forward_batch(src, past, future).data
        b = forward_batch(dst, past, future).data
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
