"""Go/no-go acceptance gate.

One test per numbered criterion, each finishing with a single PASS line
(run with `python3 -m pytest tests/test_acceptance.py -v -s` to see them):

  1  finite-difference gradient correctness of every layer and a complete
     micro model, 10 seeds each
  2  reference input/output geometry of the full and tiny profiles
  3  pinball-loss identities (half-MAE at the median, convexity)
  4  desk-scale learning: validation-loss reduction and test CVRMSE
  5  central 90% interval coverage on the test split
  6  per-step CVRMSE emission for a 96-step horizon
  7  simulator physics: window cooling, ventilation hand value,
     inner-step convergence
  8  excitation-signal contracts (setpoint levels, window pulses)
  9  pipeline exactness (scaling, encodings, splits, window counts)
  10 end-to-end byte-level determinism of the command-line chain

Criteria 4 and 5 share one trained model; together they dominate the
module's runtime (several minutes on one core).
"""

import csv
import os
import time
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest

import hvforecast.numerics as nm
from hvforecast.building_sim import (
    DATASET_COLUMNS,
    MPRS_LEVELS,
    SimulatedDataset,
    generate_mprs_setpoints,
    generate_prbs_windows,
    is_occupied,
    make_timestamps,
    simulate,
    simulator_inputs,
    ventilation_flow,
)
from hvforecast.cli import main
from hvforecast.config import RunConfig, apply_profile
from hvforecast.evaluation import (
    export_metrics,
    interval_coverage,
    per_horizon_cvrmse,
    plateau_step,
)
from hvforecast.layers import (
    LAYER_NORM_EPS,
    BiLstm,
    Dense,
    Glu,
    Grn,
    LayerNorm,
    LstmCell,
    MultiHeadAttention,
)
from hvforecast.model import (
    ModelConfig,
    build_model,
    forecast_windows,
    forward_batch,
)
from hvforecast.numerics import Tensor, gradient_check, no_grad
from hvforecast.pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TABLE1_INTERVALS,
    TARGET_FEATURES,
    Scaler,
    build_windows,
    encode_time_columns,
    split_chronological,
)
from hvforecast.training import (
    Hyperparameters,
    fit,
    total_quantile_loss,
)

import unfused as uf
from sim_inputs import constant_inputs

DESK_SEED = 23
DESK_DAYS = 60
# window centred on the seasonal minimum so all three chronological splits
# see the same climate regime
DESK_START = datetime(2020, 12, 15)
DESK_EPOCHS = 15
DESK_LR = 1e-3
# light regularisation and an early stop: the tiny geometry trains on
# ~3.4k overlapping windows, where the full-scale dropout rate starves
# learning and long training overfits the interval widths
DESK_DROPOUT = 0.1
HORIZON_SEED = 31


def make_dataset(seed, days, start=None):
    return simulate(*simulator_inputs(seed, days, start))


def tiny_model_config(n_past, n_future, rng_seed, dropout=None):
    base = apply_profile(RunConfig(), "tiny").model
    if dropout is None:
        dropout = base.dropout_rate
    return ModelConfig(n_past=n_past, n_future=n_future,
                       past_feature_count=len(PAST_FEATURES),
                       future_feature_count=len(FUTURE_FEATURES),
                       zone_count=len(TARGET_FEATURES),
                       rnn_units=base.rnn_units, mha_heads=base.mha_heads,
                       d_model=base.d_model,
                       dropout_rate=dropout, rng_seed=rng_seed)


@pytest.fixture(scope="module")
def desk_run():
    """Tiny profile trained on the seeded 60-day dataset; shared by
    criteria 4 and 5."""
    dataset = make_dataset(DESK_SEED, DESK_DAYS, DESK_START)
    profile = apply_profile(RunConfig(), "tiny")
    mc = tiny_model_config(profile.pipeline.n_past, profile.pipeline.n_future,
                           DESK_SEED, dropout=DESK_DROPOUT)
    windows = build_windows(dataset, n_past=mc.n_past, n_future=mc.n_future,
                            noise_seed=DESK_SEED)
    splits = split_chronological(windows)
    params = build_model(mc)
    hyper = Hyperparameters(batch_size=profile.training.batch_size,
                            learning_rate=DESK_LR,
                            max_epochs=DESK_EPOCHS, patience=DESK_EPOCHS,
                            shuffle_seed=DESK_SEED)
    started = time.monotonic()
    report = fit(params, splits.train, splits.validation, hyper)
    train_seconds = time.monotonic() - started
    values, actuals = forecast_windows(params, splits.test,
                                       range(len(splits.test)))
    return SimpleNamespace(mc=mc, report=report, seconds=train_seconds,
                           values=values, actuals=actuals)


MICRO = ModelConfig(n_past=4, n_future=2, past_feature_count=2,
                    future_feature_count=2, zone_count=2, rnn_units=2,
                    mha_heads=2, d_model=4, dropout_rate=0.0,
                    quantile_levels=(0.1, 0.5, 0.9), rng_seed=0)


def layer_gradient_cases(seed):
    """One (name, loss, layer) case per layer type, freshly seeded."""
    rng = np.random.default_rng(seed)
    u = rng.uniform

    dense = Dense(3, 2, rng, "dense")
    x_dense = Tensor(u(-1, 1, (4, 3)))

    cell = LstmCell(3, 2, rng, "cell")
    x_cell = Tensor(u(-1, 1, (4, 3)))
    h_cell, c_cell = Tensor(u(-1, 1, (4, 2))), Tensor(u(-1, 1, (4, 2)))

    def cell_loss():  # nonzero initial state exercises the forget gate
        return uf.tmean(nm.add(*uf.lstm_step(cell, x_cell, h_cell, c_cell)))

    bilstm = BiLstm(3, 2, rng, "bilstm")
    x_bilstm = Tensor(u(-1, 1, (2, 4, 3)))

    mha = MultiHeadAttention(4, 2, rng, "mha")
    q_mha = Tensor(u(-1, 1, (2, 3, 4)))
    kv_mha = Tensor(u(-1, 1, (2, 5, 4)))

    glu = Glu(3, 2, rng, "glu")
    x_glu = Tensor(u(-1, 1, (4, 3)))

    grn = Grn(4, rng, "grn")
    x_grn = Tensor(u(-1, 1, (2, 4)))

    norm = LayerNorm(4, name="norm")
    x_norm = Tensor(u(-1, 1, (3, 4)))

    head = Dense(4, 6, rng, "head")
    x_head = Tensor(u(-1, 1, (2, 4)))
    y_head = u(-1, 1, (2, 2))

    def head_loss():  # quantile head: dense, reshape, pinball stack
        out = nm.reshape(head(x_head), (2, 2, 3))
        return total_quantile_loss(y_head, out, (0.1, 0.5, 0.9))

    # the gate and the layer norm run inside one gate_add_norm node: each
    # is checked with the other's weights held fixed
    res_glu, z_norm = Tensor(u(-1, 1, (4, 2))), Tensor(u(-1, 1, (3, 8)))
    gain, bias = Tensor(u(0.5, 1.5, 2)), Tensor(u(-1, 1, 2))

    def glu_loss():
        return uf.tmean(nm.gate_add_norm(res_glu, glu.proj(x_glu), gain, bias,
                                         LAYER_NORM_EPS))

    def norm_loss():
        return uf.tmean(nm.gate_add_norm(x_norm, z_norm, norm.gain, norm.bias,
                                         LAYER_NORM_EPS))

    return [
        ("dense", lambda: uf.tmean(dense(x_dense)), dense),
        ("lstm_cell", cell_loss, cell),
        ("bilstm", lambda: uf.tmean(bilstm(x_bilstm)), bilstm),
        ("mha", lambda: uf.tmean(mha(q_mha, kv_mha)), mha),
        ("glu", glu_loss, glu),
        ("grn", lambda: uf.tmean(grn(x_grn)), grn),
        ("layer_norm", norm_loss, norm),
        ("quantile_head", head_loss, head),
    ]


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    worst = 0.0
    for seed in range(10):
        for name, loss, layer in layer_gradient_cases(seed):
            report = gradient_check(loss, layer.parameters())
            assert report.passed, \
                f"{name} seed {seed}: max rel err {report.max_rel_err}"
            worst = max(worst, report.max_rel_err)

    for seed in range(10):
        cfg = ModelConfig(**{**MICRO.__dict__, "rng_seed": seed})
        params = build_model(cfg)
        rng = np.random.default_rng(seed + 100)
        past = rng.uniform(-1, 1, (1, cfg.n_past, cfg.past_feature_count))
        future = rng.uniform(-1, 1,
                             (1, cfg.n_future, cfg.future_feature_count))
        target = rng.uniform(-1, 1, (1, cfg.n_future, cfg.zone_count))

        def loss():
            out = forward_batch(params, past, future, training=False)
            return total_quantile_loss(target, out, cfg.quantile_levels)

        report = gradient_check(loss, params.parameters())
        assert report.passed, \
            f"micro model seed {seed}: max rel err {report.max_rel_err}"
        assert report.coord_count == params.parameter_count()
        worst = max(worst, report.max_rel_err)

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"PASS criterion 1: all layers and the complete micro model "
          f"match central differences over 10 seeds "
          f"(worst rel err {worst:.2e} < 1e-4, {elapsed:.0f}s < 120s)")


def test_criterion_02_reference_geometry():
    started = time.monotonic()
    rng = np.random.default_rng(0)

    full = ModelConfig(past_feature_count=len(PAST_FEATURES),
                       future_feature_count=len(FUTURE_FEATURES),
                       zone_count=len(TARGET_FEATURES))
    assert (full.n_past, full.n_future, full.rnn_units) == (672, 96, 200)
    params = build_model(full)
    past = rng.uniform(-1, 1, (1, full.n_past, full.past_feature_count))
    future = rng.uniform(-1, 1, (1, full.n_future, full.future_feature_count))
    with no_grad():
        out = forward_batch(params, past, future)
    assert out.shape == (1, 96, 5, len(full.quantile_levels))

    profile = apply_profile(RunConfig(), "tiny")
    tiny = tiny_model_config(profile.pipeline.n_past,
                             profile.pipeline.n_future, rng_seed=0)
    tiny_params = build_model(tiny)
    past = rng.uniform(-1, 1, (1, tiny.n_past, tiny.past_feature_count))
    future = rng.uniform(-1, 1, (1, tiny.n_future, tiny.future_feature_count))
    with no_grad():
        tiny_out = forward_batch(tiny_params, past, future)
    assert tiny_out.shape == (1, 12, 5, len(tiny.quantile_levels))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS criterion 2: full profile (672 past, 96 future, "
          f"{params.parameter_count():,} parameters) emits 96x5x"
          f"{len(full.quantile_levels)}; tiny profile emits 12x5x"
          f"{len(tiny.quantile_levels)} ({elapsed:.1f}s)")


def test_criterion_03_loss_identities():
    def pinball_loss(actual, predicted, q):  # the training loss at one level
        return total_quantile_loss(actual, predicted[..., None], (q,))

    rng = np.random.default_rng(7)
    actual = rng.normal(0.0, 3.0, size=(40, 6))
    predicted = rng.normal(0.0, 3.0, size=(40, 6))
    half_mae = 0.5 * np.mean(np.abs(actual - predicted))
    gap = abs(pinball_loss(actual, predicted, 0.5).data - half_mae)
    assert gap <= 1e-12

    worst = -np.inf
    for _ in range(1000):
        q = rng.uniform(0.01, 0.99)
        y = np.array([rng.normal(0.0, 2.0)])
        p1, p2 = rng.normal(0.0, 2.0, size=2)
        lam = rng.uniform()
        mixed = pinball_loss(y, np.array([lam * p1 + (1 - lam) * p2]), q).data
        chord = (lam * pinball_loss(y, np.array([p1]), q).data
                 + (1 - lam) * pinball_loss(y, np.array([p2]), q).data)
        worst = max(worst, float(mixed - chord))
        assert mixed <= chord + 1e-12
    print(f"PASS criterion 3: median pinball = MAE/2 (gap {gap:.1e} <= "
          f"1e-12); convexity held on 1000 random triples "
          f"(worst violation {worst:.1e})")


def test_criterion_04_desk_scale_learning(desk_run):
    records = desk_run.report.epochs
    v0 = records[0].val_loss
    best = min(rec.val_loss for rec in records if 1 <= rec.epoch <= 30)
    reduction = 1.0 - best / v0
    assert reduction >= 0.40

    horizon = per_horizon_cvrmse(desk_run.values, desk_run.actuals,
                                 desk_run.mc.quantile_levels)
    assert horizon.overall < 5.0
    assert desk_run.seconds < 900.0
    print(f"PASS criterion 4: validation loss {v0:.4f} -> {best:.4f} "
          f"({100 * reduction:.0f}% >= 40% within 30 epochs); test median "
          f"CVRMSE {horizon.overall:.2f}% < 5%; trained in "
          f"{desk_run.seconds:.0f}s < 900s")


def test_criterion_05_interval_coverage(desk_run):
    report = interval_coverage(desk_run.values, desk_run.actuals,
                               desk_run.mc.quantile_levels)
    c90 = report.coverage[0.90]
    assert 0.75 <= c90 <= 0.99
    print(f"PASS criterion 5: 90% central interval covers "
          f"{100 * c90:.1f}% of test points (within [75%, 99%]); "
          f"quantile-crossing frequency {100 * report.crossing_freq:.2f}% "
          f"(reported, not asserted)")


def test_criterion_06_horizon_curve(tmp_path):
    dataset = make_dataset(HORIZON_SEED, 24)
    mc = tiny_model_config(96, 96, HORIZON_SEED)
    windows = build_windows(dataset, n_past=96, n_future=96,
                            noise_seed=HORIZON_SEED)
    splits = split_chronological(windows)
    params = build_model(mc)
    fit(params, splits.train, splits.validation,
        Hyperparameters(batch_size=32, max_epochs=1,
                        shuffle_seed=HORIZON_SEED))
    values, actuals = forecast_windows(params, splits.test, range(16))
    horizon = per_horizon_cvrmse(values, actuals, mc.quantile_levels)

    path = tmp_path / "horizon_cvrmse.csv"
    export_metrics(horizon, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["zone", "step", "cvrmse_pct"]
    body = rows[1:]
    assert len(body) == 5 * 96
    for zone in range(1, 6):
        steps = [int(r[1]) for r in body if r[0] == str(zone)]
        assert steps == list(range(1, 97))
    plateau = plateau_step(horizon.mean_curve)
    print(f"PASS criterion 6: per-step CVRMSE emitted for steps 1..96, "
          f"96 rows per zone; mean curve reaches 95% of its final value "
          f"at step {plateau} (reported, not asserted)")


def test_criterion_07_simulator_physics():
    rng = np.random.default_rng(29)
    for _ in range(100):
        t_in = rng.uniform(18.0, 35.0)
        t_out = t_in - rng.uniform(0.5, 15.0)
        wind = rng.uniform(0.0, 4.0)
        zone = int(rng.integers(0, 4))
        closed = simulate(*constant_inputs(2, t_out, wind),
                          initial_t_in_c=t_in)
        opened = simulate(*constant_inputs(2, t_out, wind,
                                           open_windows=(zone,)),
                          initial_t_in_c=t_in)
        column = f"t_in_{zone + 1}"
        assert opened.columns[column][1] < closed.columns[column][1]

    flow = ventilation_flow(1.0, 2.0, 22.0, 10.0)
    assert abs(flow - 0.768) < 1e-3

    weather, schedules, signals = simulator_inputs(
        99, 7, start=datetime(2021, 1, 18))
    coarse = simulate(weather, schedules, signals, inner_step_s=60)
    fine = simulate(weather, schedules, signals, inner_step_s=30)
    worst = max(
        float(np.abs(coarse.columns[f"t_in_{z}"]
                     - fine.columns[f"t_in_{z}"]).max())
        for z in range(1, 6))
    assert worst < 0.05
    print(f"PASS criterion 7: open window cools faster on 100 random "
          f"states; ventilation flow {flow:.4f} m3/s within 1e-3 of "
          f"0.768; halving the inner step moves temperatures by "
          f"{worst:.4f} C < 0.05 C")


def test_criterion_08_excitation_contracts():
    rng = np.random.default_rng(3)
    ts = make_timestamps(datetime(2021, 3, 1), 28 * 96)
    sp_heat, sp_cool = generate_mprs_setpoints(rng, ts)
    occupied = np.array([is_occupied(t) for t in ts])
    assert set(np.unique(sp_heat[occupied])) <= set(MPRS_LEVELS)
    assert np.all(sp_cool[occupied] - sp_heat[occupied] == 5.0)
    assert np.all(sp_heat[~occupied] == 15.0)
    assert np.all(sp_cool[~occupied] == 30.0)

    rng = np.random.default_rng(5)
    steps, p = 100_000, 0.05
    signal = generate_prbs_windows(rng, steps, p_open=p, windows=1)[:, 0]
    padded = np.concatenate(([0], signal, [0]))
    edges = np.flatnonzero(np.diff(padded))
    lengths = edges[1::2] - edges[::2]
    interior = lengths[edges[1::2] < steps]
    assert np.all(interior >= 2)

    events = int(np.sum(np.diff(np.concatenate(([0], signal))) == 1))
    draws = steps - int(signal.sum()) + events
    sigma = np.sqrt(draws * p * (1 - p))
    assert abs(events - draws * p) < 4 * sigma
    print(f"PASS criterion 8: occupied setpoints on the 0.5 C grid "
          f"18..22 with +5 cooling offset, setback (15, 30); "
          f"{events} window pulses all >= 2 steps, rate "
          f"{events / draws:.4f} within 4 sigma of p={p}")


SYNTH_INTERVALS = dict(TABLE1_INTERVALS)
for _zone in range(1, 6):
    SYNTH_INTERVALS[f"sp_cool_{_zone}"] = (20.0, 35.0)


def synth_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    columns = {}
    for name in DATASET_COLUMNS:
        lo, hi = SYNTH_INTERVALS[name]
        if name == "hol" or name.startswith("ws_"):
            columns[name] = rng.integers(0, 2, size=n).astype(float)
        else:
            columns[name] = rng.uniform(lo, hi, size=n)
    return SimulatedDataset(make_timestamps(datetime(2021, 3, 1), n), columns)


def test_criterion_09_pipeline_exactness():
    scaler = Scaler()
    rng = np.random.default_rng(13)
    for name, (lo, hi) in TABLE1_INTERVALS.items():
        ends = scaler.scale(np.array([lo, hi]), name)
        assert ends[0] == -1.0 and ends[1] == 1.0
        inside = rng.uniform(lo, hi, size=200)
        back = uf.inverse_scale(scaler.scale(inside, name), name)
        assert np.max(np.abs(back - inside)) <= 1e-12

    base = datetime(2019, 1, 1)
    enc = encode_time_columns([base.fromtimestamp(rng.uniform(1.55e9, 1.9e9))
                               for _ in range(300)])
    for stem in ("hour", "dow", "month"):
        radius = enc[f"{stem}_sin"] ** 2 + enc[f"{stem}_cos"] ** 2
        assert np.max(np.abs(radius - 1.0)) <= 1e-12

    counts = []
    for n_rows in (768, 770, 1000, 5000, 35040):
        windows = build_windows(synth_dataset(n_rows), n_past=672,
                                n_future=96, noise_sd=0.0)
        expected = (n_rows - 672 - 96) // 1 + 1
        assert len(windows) == expected
        counts.append(expected)

    windows = build_windows(synth_dataset(2000), n_past=96, n_future=24,
                            noise_sd=0.0)
    splits = split_chronological(windows)
    b1, b2 = splits.boundaries
    assert (b1, b2) == (1200, 1600)
    need = 96 + 24
    assert len(splits.train) == b1 - need + 1
    assert len(splits.validation) == (b2 - need) - b1 + 1
    assert len(splits.test) == (2000 - need) - b2 + 1
    assert np.all(splits.train.origins + need <= b1)
    assert np.all(splits.validation.origins >= b1)
    assert np.all(splits.validation.origins + need <= b2)
    assert np.all(splits.test.origins >= b2)
    print(f"PASS criterion 9: interval endpoints map to exactly +-1 and "
          f"round-trip within 1e-12; sin^2+cos^2 = 1 within 1e-12; window "
          f"counts {counts} match the closed form on 5 lengths; 60/20/20 "
          f"split at ({b1}, {b2}) with zero boundary-crossing windows")


def test_criterion_10_end_to_end_determinism(tmp_path):
    args = ["--profile", "tiny", "--seed", "13"]

    def run_chain(root):
        root.mkdir()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            assert main(["generate", *args, "--days", "5"]) == 0
            assert main(["train", *args, "--epochs", "2"]) == 0
            assert main(["predict", *args, "--instances", "head:6"]) == 0
            assert main(["evaluate", *args]) == 0
        finally:
            os.chdir(cwd)

    run_chain(tmp_path / "first")
    run_chain(tmp_path / "second")
    compared = ["dataset.csv", "model.ckpt", "forecasts.csv",
                "metrics/horizon_cvrmse.csv", "metrics/coverage.csv",
                "metrics/summary.json"]
    for rel in compared:
        first = (tmp_path / "first" / rel).read_bytes()
        second = (tmp_path / "second" / rel).read_bytes()
        assert first == second, f"{rel} differs between identical runs"
    print(f"PASS criterion 10: generate/train/predict/evaluate chain "
          f"reproduced {len(compared)} files byte-identically across two "
          f"runs under one seed")
