"""Tests for scaling, time encodings, forecast noise, windowing, and
chronological splits."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvforecast.building_sim import (
    DATASET_COLUMNS,
    BuildingSpec,
    Calendar,
    ExcitationSignals,
    SimulatedDataset,
    generate_mprs_setpoints,
    generate_prbs_windows,
    generate_schedules,
    make_timestamps,
    simulate,
    synth_weather,
)
from hvforecast.errors import ConfigurationError
from hvforecast.pipeline import (
    FUTURE_FEATURES,
    PAST_FEATURES,
    TABLE1_INTERVALS,
    TARGET_FEATURES,
    TIME_FEATURES,
    WEATHER_FEATURES,
    Scaler,
    ScalerSpec,
    add_forecast_noise,
    build_windows,
    encode_time_features,
    split_chronological,
)

SYNTH_INTERVALS = dict(TABLE1_INTERVALS)
for _z in range(1, 6):
    SYNTH_INTERVALS[f"sp_cool_{_z}"] = (20.0, 35.0)


def synth_dataset(n: int, seed: int = 0,
                  start: datetime = datetime(2021, 3, 1)) -> SimulatedDataset:
    """Random dataset with every column inside its documented interval."""
    rng = np.random.default_rng(seed)
    columns = {}
    for name in DATASET_COLUMNS:
        lo, hi = SYNTH_INTERVALS[name]
        if name == "hol" or name.startswith("ws_"):
            columns[name] = rng.integers(0, 2, size=n).astype(float)
        else:
            columns[name] = rng.uniform(lo, hi, size=n)
    return SimulatedDataset(make_timestamps(start, n), columns)


def simulated_dataset(days: int, seed: int = 11) -> SimulatedDataset:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cal = Calendar()
    weather = synth_weather(rng, days, start=datetime(2021, 4, 5))
    schedules = generate_schedules(rng, weather.timestamps, cal)
    sp_heat, sp_cool = generate_mprs_setpoints(rng, weather.timestamps, cal)
    windows = generate_prbs_windows(rng, len(weather))
    signals = ExcitationSignals(sp_heat, sp_cool, windows)
    return simulate(BuildingSpec(), weather, schedules, signals)


@pytest.fixture(scope="module")
def sim_ds():
    return simulated_dataset(days=20)


class TestFeatureLists:
    def test_feature_counts(self):
        assert len(PAST_FEATURES) == 36
        assert len(FUTURE_FEATURES) == 21
        assert len(TARGET_FEATURES) == 5

    def test_future_is_subset_of_past_plus_targets(self):
        assert set(FUTURE_FEATURES) < set(PAST_FEATURES)
        assert set(TARGET_FEATURES) < set(PAST_FEATURES)

    def test_every_feature_has_an_interval(self):
        for name in PAST_FEATURES + FUTURE_FEATURES + TARGET_FEATURES:
            assert name in TABLE1_INTERVALS


class TestScaler:
    def test_endpoints_exact(self):
        scaler = Scaler()
        for name, (lo, hi) in TABLE1_INTERVALS.items():
            assert scaler.scale(lo, name) == -1.0
            assert scaler.scale(hi, name) == 1.0

    def test_outdoor_temperature_midpoint(self):
        assert Scaler().scale(5.0, "t_out") == 0.0

    def test_round_trip_tight(self):
        scaler = Scaler()
        rng = np.random.default_rng(3)
        for name in ("t_out", "l_norm", "t_in_3", "sp_heat_1"):
            lo, hi = TABLE1_INTERVALS[name]
            values = rng.uniform(lo, hi, size=10_000)
            back = scaler.inverse_scale(scaler.scale(values, name), name)
            assert np.max(np.abs(back - values)) <= 1e-12

    def test_clamping_counted(self):
        scaler = Scaler()
        out = scaler.scale(np.array([-31.0, 41.0, 0.0]), "t_out")
        assert out[0] == -1.0 and out[1] == 1.0
        assert scaler.clamp_counts == {"t_out": 2}
        assert scaler.total_clamped() == 2

    def test_in_range_values_not_counted(self):
        scaler = Scaler()
        scaler.scale(np.array([-30.0, 40.0, 5.0]), "t_out")
        assert scaler.total_clamped() == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, bad):
        scaler = Scaler()
        with pytest.raises(ConfigurationError, match="non-finite.*'occu_2'"):
            scaler.scale(np.array([3.0, bad]), "occu_2")
        assert scaler.total_clamped() == 0

    def test_unknown_feature_rejected(self):
        with pytest.raises(ConfigurationError, match="t_roof"):
            Scaler().scale(1.0, "t_roof")

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="max > min"):
            Scaler(ScalerSpec({"x": (2.0, 2.0)}))


class TestTimeEncodings:
    def test_midnight_hour_encoding(self):
        enc = encode_time_features(datetime(2021, 6, 7, 0, 0))
        assert enc["hour_sin"] == 0.0
        assert enc["hour_cos"] == 1.0

    def test_six_am_hour_encoding(self):
        enc = encode_time_features(datetime(2021, 6, 7, 6, 0))
        assert enc["hour_sin"] == pytest.approx(1.0, abs=1e-12)
        assert enc["hour_cos"] == pytest.approx(0.0, abs=1e-12)

    def test_noon_and_evening(self):
        noon = encode_time_features(datetime(2021, 6, 7, 12, 0))
        assert noon["hour_cos"] == pytest.approx(-1.0, abs=1e-12)
        evening = encode_time_features(datetime(2021, 6, 7, 18, 0))
        assert evening["hour_sin"] == pytest.approx(-1.0, abs=1e-12)

    def test_monday_midnight_week_phase(self):
        enc = encode_time_features(datetime(2021, 6, 7, 0, 0))  # a Monday
        assert enc["dow_sin"] == 0.0
        assert enc["dow_cos"] == 1.0

    def test_january_first_month_phase(self):
        enc = encode_time_features(datetime(2021, 1, 1, 0, 0))
        assert enc["month_sin"] == 0.0
        assert enc["month_cos"] == 1.0

    @given(st.datetimes(min_value=datetime(2019, 1, 1),
                        max_value=datetime(2030, 12, 31)))
    @settings(max_examples=60, deadline=None)
    def test_unit_circle_identity(self, ts):
        enc = encode_time_features(ts)
        for name in ("hour", "dow", "month"):
            radius = enc[f"{name}_sin"] ** 2 + enc[f"{name}_cos"] ** 2
            assert radius == pytest.approx(1.0, abs=1e-9)

    def test_quarter_hour_resolution(self):
        a = encode_time_features(datetime(2021, 6, 7, 10, 0))
        b = encode_time_features(datetime(2021, 6, 7, 10, 15))
        assert a["hour_sin"] != b["hour_sin"]


class TestForecastNoise:
    def test_noise_statistics(self):
        rng = np.random.default_rng(5)
        base = np.full((200_000, 5), 20.0)
        noised = add_forecast_noise(base, rng, sd=0.01)
        delta = noised - base
        assert abs(float(delta.mean())) < 1e-4
        assert float(delta.std()) == pytest.approx(0.01, abs=5e-4)

    def test_zero_sd_is_identity(self):
        base = np.random.default_rng(0).uniform(0, 10, size=(50, 5))
        out = add_forecast_noise(base, np.random.default_rng(1), sd=0.0)
        assert np.array_equal(out, base)
        assert out is not base

    def test_noise_clamped_to_intervals(self):
        rng = np.random.default_rng(2)
        base = np.zeros((2000, 5))
        base[:, 1] = 0.0     # h_out at its lower bound
        base[:, 2] = 25.0    # w_out at its upper bound
        noised = add_forecast_noise(base, rng, sd=1.0)
        assert float(noised[:, 1].min()) >= 0.0
        assert float(noised[:, 2].max()) <= 25.0

    def test_per_feature_sd(self):
        rng = np.random.default_rng(7)
        base = np.full((100_000, 5), 20.0)
        sd = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
        noised = add_forecast_noise(base, rng, sd=sd)
        assert float(np.abs(noised[:, 0] - 20.0).max()) > 0.0
        assert np.array_equal(noised[:, 1:], base[:, 1:])

    def test_negative_sd_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            add_forecast_noise(np.zeros((4, 5)), np.random.default_rng(0),
                               sd=-0.01)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="must be"):
            add_forecast_noise(np.zeros((4, 3)), np.random.default_rng(0))

    def test_seeded_noise_reproducible(self):
        base = np.full((100, 5), 10.0)
        a = add_forecast_noise(base, np.random.default_rng(42))
        b = add_forecast_noise(base, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestWindowing:
    def test_minimal_dataset_yields_one_window(self):
        ds = synth_dataset(768)
        assert len(build_windows(ds)) == 1

    def test_window_count_formula(self):
        for n, stride, expect in ((770, 1, 3), (770, 2, 2), (1000, 1, 233),
                                  (1000, 7, 34)):
            ds = synth_dataset(n)
            windows = build_windows(ds, stride=stride)
            assert len(windows) == (n - 768) // stride + 1 == expect

    def test_insufficient_rows_messages_minimum(self):
        with pytest.raises(ConfigurationError, match="768"):
            build_windows(synth_dataset(767))

    def test_sample_shapes(self):
        windows = build_windows(synth_dataset(800))
        past, future, target = windows.batch([0])
        assert past[0].shape == (672, 36)
        assert future[0].shape == (96, 21)
        assert target[0].shape == (96, 5)

    def test_origin_timestamps_follow_stride(self):
        ds = synth_dataset(1000)
        windows = build_windows(ds, stride=7)
        assert windows.origins[1] == 7
        assert ds.timestamps[windows.origins[1]] == ds.timestamps[7]

    def test_target_matches_scaled_indoor_temperature(self):
        ds = synth_dataset(800)
        windows = build_windows(ds)
        _, _, target = windows.batch([2])
        scaler = Scaler()
        for z in range(5):
            expect = scaler.scale(
                ds.columns[f"t_in_{z + 1}"][2 + 672:2 + 768], f"t_in_{z + 1}")
            assert np.array_equal(target[0][:, z], expect)

    def test_column_shuffle_leaves_samples_identical(self):
        ds = synth_dataset(800)
        shuffled = SimulatedDataset(
            ds.timestamps,
            {name: ds.columns[name] for name in reversed(DATASET_COLUMNS)})
        a = build_windows(ds, noise_seed=9).batch([5])
        b = build_windows(shuffled, noise_seed=9).batch([5])
        for block_a, block_b in zip(a, b):
            assert np.array_equal(block_a, block_b)

    def test_missing_column_rejected(self):
        ds = synth_dataset(800)
        del ds.columns["h_out"]
        with pytest.raises(ConfigurationError, match="h_out"):
            build_windows(ds)

    def test_bad_geometry_rejected(self):
        ds = synth_dataset(800)
        with pytest.raises(ConfigurationError, match="positive"):
            build_windows(ds, stride=0)

    def test_noise_depends_on_origin_not_access_order(self):
        ds = synth_dataset(900)
        first = build_windows(ds, noise_seed=4)
        second = build_windows(ds, noise_seed=4)
        forward = [first.batch([i])[1][0] for i in range(len(first))]
        backward = [second.batch([i])[1][0]
                    for i in reversed(range(len(second)))]
        for i, fut in enumerate(forward):
            assert np.array_equal(fut, backward[len(forward) - 1 - i])
        _, reversed_batch, _ = second.batch(range(len(second))[::-1])
        assert np.array_equal(reversed_batch, np.stack(forward[::-1]))

    def test_noise_seed_changes_future_weather_only(self):
        ds = synth_dataset(800)
        a_past, a_future, _ = build_windows(ds, noise_seed=1).batch([0])
        b_past, b_future, _ = build_windows(ds, noise_seed=2).batch([0])
        weather_cols = [FUTURE_FEATURES.index(n) for n in WEATHER_FEATURES]
        other = [j for j in range(21) if j not in weather_cols]
        assert not np.array_equal(a_future[0][:, weather_cols],
                                  b_future[0][:, weather_cols])
        assert np.array_equal(a_future[0][:, other], b_future[0][:, other])
        assert np.array_equal(a_past, b_past)

    def test_future_aligns_with_next_window_past(self):
        """The future covariates of one sample cover the same rows as the
        tail of the past window 96 origins later."""
        ds = synth_dataset(1000)
        windows = build_windows(ds, noise_sd=0.0)
        past, future, _ = windows.batch([0, 96])
        past_cols = [PAST_FEATURES.index(n) for n in FUTURE_FEATURES]
        assert np.array_equal(future[0], past[1][-96:, past_cols])

    def test_batch_stacks_samples(self):
        windows = build_windows(synth_dataset(900))
        past, future, target = windows.batch([0, 3, 5])
        assert past.shape == (3, 672, 36)
        assert future.shape == (3, 96, 21)
        assert target.shape == (3, 96, 5)
        assert np.array_equal(past[1], windows.batch([3])[0][0])

    def test_scaled_values_within_unit_interval(self, sim_ds):
        windows = build_windows(sim_ds)
        for block in windows.batch([len(windows) // 2]):
            assert float(block.min()) >= -1.0
            assert float(block.max()) <= 1.0

    def test_no_clamping_on_simulated_data(self, sim_ds):
        windows = build_windows(sim_ds)
        windows.batch(range(0, len(windows), 97))
        assert windows.scaler.total_clamped() == 0

    def test_each_out_of_range_cell_clamped_once(self):
        ds = synth_dataset(900)
        ds.columns["t_out"][700] = 55.0      # past and future of some windows
        ds.columns["t_in_1"][750] = 3.0      # past and target of some windows
        windows = build_windows(ds)
        assert windows.scaler.clamp_counts == {"t_out": 1, "t_in_1": 1}
        assert windows.scaler.total_clamped() == 2

    def test_non_finite_cell_refused_naming_feature(self):
        ds = synth_dataset(900)
        ds.columns["occu_2"][300] = np.nan
        with pytest.raises(ConfigurationError, match="occu_2"):
            build_windows(ds)


def reference_batch(dataset, windows, indices):
    """Window-by-window assembly, as the windowing layer read samples before
    it gathered batches from one scaled table: each window scales its own
    past, future and target blocks straight from the dataset, then draws
    and scales its own noised future weather. `WindowSet.batch` must match
    it exactly."""
    scaler = Scaler(windows.scaler.spec)
    encoded = [encode_time_features(ts) for ts in dataset.timestamps]
    physical = dict(dataset.columns)
    for name in TIME_FEATURES:
        physical[name] = np.array([enc[name] for enc in encoded])

    def block(names, lo, hi):
        return np.column_stack([scaler.scale(physical[name][lo:hi], name)
                                for name in names])

    pasts, futures, targets = [], [], []
    for i in indices:
        origin = int(windows.origins[i])
        lo, hi = origin + windows.n_past, origin + windows.n_past + windows.n_future
        rng = np.random.default_rng(
            np.random.SeedSequence(windows.noise_seed, spawn_key=(origin,)))
        weather = np.column_stack([physical[name][lo:hi]
                                   for name in WEATHER_FEATURES])
        noised = add_forecast_noise(weather, rng, windows.noise_sd)
        future = block(FUTURE_FEATURES, lo, hi)
        for k, name in enumerate(WEATHER_FEATURES):
            future[:, FUTURE_FEATURES.index(name)] = scaler.scale(
                noised[:, k], name)
        pasts.append(block(PAST_FEATURES, origin, lo))
        futures.append(future)
        targets.append(block(TARGET_FEATURES, lo, hi))
    return np.stack(pasts), np.stack(futures), np.stack(targets)


MOVED_INTERVALS = dict(TABLE1_INTERVALS, t_out=(-10.0, 25.0),
                       w_out=(2.0, 20.0), t_in_2=(15.0, 30.0))


class TestBatchMatchesReference:
    @pytest.fixture(scope="class")
    def dataset(self):
        return synth_dataset(800, seed=5)

    def assert_matches(self, dataset, windows, indices):
        got = windows.batch(indices)
        expect = reference_batch(dataset, windows, indices)
        for block_got, block_expect in zip(got, expect):
            assert block_got.dtype == block_expect.dtype
            assert np.array_equal(block_got, block_expect)

    @pytest.mark.parametrize("noise_sd", [
        0.0, 0.01, 0.5, np.array([0.5, 0.0, 2.0, 40.0, 0.0])])
    def test_shuffled_indices(self, dataset, noise_sd):
        windows = build_windows(dataset, n_past=96, n_future=24,
                                noise_sd=noise_sd, noise_seed=3)
        order = np.random.default_rng(0).permutation(len(windows))[:25]
        self.assert_matches(dataset, windows, order)

    def test_stride(self, dataset):
        windows = build_windows(dataset, n_past=96, n_future=24, stride=7,
                                noise_seed=8)
        self.assert_matches(dataset, windows, range(len(windows)))

    def test_subset(self, dataset):
        windows = build_windows(dataset, n_past=96, n_future=24,
                                noise_sd=0.5, noise_seed=2)
        subset = windows.subset(windows.origins[100:400:13])
        self.assert_matches(dataset, subset, [5, 0, 17, 3])

    def test_paper_geometry(self, dataset):
        windows = build_windows(dataset, noise_seed=6)
        self.assert_matches(dataset, windows, [len(windows) - 1, 0, 7])

    @pytest.mark.parametrize("noise_sd", [0.0, 0.5])
    def test_moved_scaling_interval(self, dataset, noise_sd):
        windows = build_windows(dataset, n_past=96, n_future=24,
                                noise_sd=noise_sd, noise_seed=4,
                                scaler=Scaler(ScalerSpec(MOVED_INTERVALS)))
        assert windows.scaler.clamp_counts["t_out"] > 0
        order = np.random.default_rng(1).permutation(len(windows))[:25]
        self.assert_matches(dataset, windows, order)


class TestSplits:
    def test_year_boundaries(self):
        n = 35040
        ds = synth_dataset(n)
        splits = split_chronological(build_windows(ds))
        assert splits.boundaries == (21024, 28032)

    def test_year_split_sizes(self):
        ds = synth_dataset(35040)
        splits = split_chronological(build_windows(ds))
        assert len(splits.train) == 20257
        assert len(splits.validation) == 6241
        assert len(splits.test) == 6241

    def test_boundary_windows_dropped(self):
        ds = synth_dataset(35040)
        splits = split_chronological(build_windows(ds))
        span = 768
        assert splits.train.origins.max() + span <= 21024
        assert splits.validation.origins.min() >= 21024
        assert splits.validation.origins.max() + span <= 28032
        assert splits.test.origins.min() >= 28032
        total = sum(len(s) for s in splits)
        assert total == (35040 - span + 1) - 2 * (span - 1)

    def test_splits_are_chronologically_ordered(self):
        ds = synth_dataset(4000)
        splits = split_chronological(build_windows(ds))
        assert splits.train.origins.max() < splits.validation.origins.min()
        assert splits.validation.origins.max() < splits.test.origins.min()

    def test_split_then_read_matches_full_set(self):
        ds = synth_dataset(4000)
        windows = build_windows(ds, noise_seed=13)
        splits = split_chronological(windows)
        probe = splits.validation.batch([0])
        origin = splits.validation.origins[0]
        full_index = int(np.where(windows.origins == origin)[0][0])
        direct = windows.batch([full_index])
        for block_probe, block_direct in zip(probe, direct):
            assert np.array_equal(block_probe, block_direct)

    def test_too_small_for_any_split_rejected(self):
        ds = synth_dataset(900)
        with pytest.raises(ConfigurationError, match="empty"):
            split_chronological(build_windows(ds))

    def test_bad_fractions_rejected(self):
        ds = synth_dataset(4000)
        windows = build_windows(ds)
        with pytest.raises(ConfigurationError, match="sum to 1"):
            split_chronological(windows, fractions=(0.5, 0.2, 0.2))
        with pytest.raises(ConfigurationError, match="positive"):
            split_chronological(windows, fractions=(1.0, 0.0, 0.0))
