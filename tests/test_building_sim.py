import csv
import math
import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvforecast import building_sim as bs
from hvforecast.building_sim import (
    DATASET_COLUMNS,
    MPRS_LEVELS,
    BuildingSpec,
    Calendar,
    ExcitationSignals,
    ScheduleSet,
    WeatherSeries,
    generate_mprs_setpoints,
    generate_prbs_windows,
    generate_schedules,
    load_dataset_csv,
    make_timestamps,
    save_dataset_csv,
    simulate,
    synth_weather,
    ventilation_flow,
)
from hvforecast.errors import ConfigurationError, ParseError, SimulationError
from sim_inputs import constant_inputs


def build_inputs(seed, days, start=None):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cal = Calendar()
    weather = synth_weather(rng, days, start=start)
    schedules = generate_schedules(rng, weather.timestamps, cal)
    sp_heat, sp_cool = generate_mprs_setpoints(rng, weather.timestamps, cal)
    windows = generate_prbs_windows(rng, len(weather))
    return weather, schedules, ExcitationSignals(sp_heat, sp_cool, windows)


@pytest.fixture(scope="module")
def year_run():
    weather, schedules, signals = build_inputs(7, 365)
    dataset = simulate(BuildingSpec(), weather, schedules, signals)
    return weather, schedules, signals, dataset


class NumpyReference:
    """The flux routine and explicit-Euler loop that `simulate` ran on
    5-element numpy arrays before its inner step moved to Python floats.
    Tests check the scalar loop against it."""

    def __init__(self, spec):
        self.spec = spec
        self.gains = bs._Engine(spec).boundary_gains
        self.cap = spec.capacitances_j_per_k
        self.ua_ext = spec.ua_ext_w_per_k
        self.ua_int = spec.ua_int_w_per_k
        self.ua_int_rowsum = self.ua_int.sum(axis=1)
        self.heat_cap_w = np.asarray(spec.heat_capacity_w)
        self.cool_cap_w = np.asarray(spec.cool_capacity_w)
        self.stat_gain = np.asarray(spec.thermostat_gain_w_per_k)
        self.saturated = {"heat": 0, "cool": 0, "vent": 0}

    def fluxes(self, t_zones, t_out, wind, gains_w, sp_heat, sp_cool,
               window_open):
        spec = self.spec
        cond_ext = self.ua_ext * (t_out - t_zones)
        cond_int = self.ua_int @ t_zones - self.ua_int_rowsum * t_zones
        heat = np.clip(self.stat_gain * (sp_heat - t_zones),
                       0.0, self.heat_cap_w)
        cool = np.clip(self.stat_gain * (t_zones - sp_cool),
                       0.0, self.cool_cap_w)
        hvac = heat - cool
        vent_flow = np.zeros(bs.ZONE_COUNT)
        for slot, z in enumerate(bs.WINDOW_ZONES):
            if window_open[slot]:
                vent_flow[z] = ventilation_flow(
                    spec.window_open_area_m2, wind, t_zones[z], t_out,
                    spec.vent_c_wind, spec.vent_c_discharge,
                    spec.vent_height_m)
        vent = bs.RHO_CP_AIR * vent_flow * (t_out - t_zones)
        self.saturated["heat"] += int(np.sum(heat == self.heat_cap_w))
        self.saturated["cool"] += int(np.sum(cool == self.cool_cap_w))
        self.saturated["vent"] += int(np.count_nonzero(vent_flow))
        return cond_ext + cond_int + gains_w + hvac + vent

    def run(self, weather, schedules, signals, inner_step_s=60):
        """Return (t_in rows, largest audit error) of a run from 20 C."""
        n = len(weather)
        dt = float(inner_step_s)
        t = np.full(bs.ZONE_COUNT, 20.0)
        rows = np.empty((n, bs.ZONE_COUNT))
        audit_max = 0.0
        for k in range(n):
            rows[k] = t
            gains = self.gains(
                weather.t_out_c[k], weather.dni_wm2[k], weather.dhi_wm2[k],
                schedules.occupancy[k], schedules.equipment_w[k],
                schedules.lighting_on[k])
            for j in range(bs.SAMPLE_STEP_S // inner_step_s):
                total = self.fluxes(
                    t, float(weather.t_out_c[k]), float(weather.wind_mps[k]),
                    gains, signals.sp_heat_c[k], signals.sp_cool_c[k],
                    signals.window_open[k])
                t_next = t + dt * total / self.cap
                balance = self.cap * (t_next - t) - total * dt
                scale = np.maximum(np.abs(total * dt), 1.0)
                audit_max = max(audit_max,
                                float(np.max(np.abs(balance) / scale)))
                if np.any(t_next < -50.0) or np.any(t_next > 60.0):
                    bad = int(np.argmax((t_next < -50.0) | (t_next > 60.0)))
                    raise SimulationError(
                        f"zone {bs.ZONE_NAMES[bad]} diverged to "
                        f"{t_next[bad]:.2f} C at sample {k}, inner step {j}")
                t = t_next
        return rows, audit_max


def saturating_inputs(days=3):
    """Seeded inputs with windows open a third of the time and setpoints
    that alternate every two hours between far above and far below the
    zone temperatures, so heating and cooling both run at capacity."""
    weather, schedules, signals = build_inputs(41, days,
                                               start=datetime(2021, 1, 18))
    n = len(weather)
    hot = (np.arange(n) // 8) % 2 == 0
    sp_heat = np.where(hot, 40.0, 0.0)[:, None].repeat(5, axis=1)
    windows = generate_prbs_windows(np.random.default_rng(2), n, p_open=0.2)
    return weather, schedules, ExcitationSignals(sp_heat, sp_heat + 5.0,
                                                 windows)


class TestVentilationFlow:
    def test_documented_hand_value(self):
        # wind term 0.3*1*2; stack term 0.6*sqrt(2*9.81*0.8*12/295.15)
        q = ventilation_flow(1.0, 2.0, 22.0, 10.0)
        assert abs(q - 0.768) < 1e-3
        assert q == pytest.approx(math.hypot(0.6, 0.47930832767628895), abs=1e-12)

    def test_zero_area_gives_zero(self):
        assert ventilation_flow(0.0, 5.0, 30.0, 10.0) == 0.0

    def test_no_drivers_gives_zero(self):
        assert ventilation_flow(1.0, 0.0, 21.0, 21.0) == 0.0

    def test_negative_area_rejected(self):
        with pytest.raises(ConfigurationError):
            ventilation_flow(-0.1, 1.0, 20.0, 10.0)

    @given(
        a=st.floats(0.0, 3.0),
        wind=st.floats(0.0, 10.0),
        dt=st.floats(0.0, 25.0),
        bump=st.floats(0.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_driver(self, a, wind, dt, bump):
        t_in = 20.0 + dt
        base = ventilation_flow(a, wind, t_in, 20.0)
        assert ventilation_flow(a + bump, wind, t_in, 20.0) >= base
        assert ventilation_flow(a, wind + bump, t_in, 20.0) >= base
        assert ventilation_flow(a, wind, t_in + bump, 20.0) >= base

    def test_symmetric_in_temperature_difference(self):
        warm = ventilation_flow(1.0, 1.0, 25.0, 15.0)
        cold = ventilation_flow(1.0, 1.0, 15.0, 25.0)
        # stack denominator uses the indoor temperature, so swapping the
        # roles changes the density correction but not the driving head
        assert warm == pytest.approx(cold, rel=0.02)


class TestExcitationSignals:
    def test_mprs_occupied_levels_and_offset(self):
        rng = np.random.default_rng(3)
        cal = Calendar()
        ts = make_timestamps(datetime(2021, 3, 1), 14 * 96)
        sp_heat, sp_cool = generate_mprs_setpoints(rng, ts, cal)
        occupied = np.array([cal.is_occupied(t) for t in ts])
        assert set(np.unique(sp_heat[occupied])) <= set(MPRS_LEVELS)
        assert np.all(sp_cool[occupied] - sp_heat[occupied] == 5.0)
        assert np.all(sp_heat[~occupied] == 15.0)
        assert np.all(sp_cool[~occupied] == 30.0)

    def test_mprs_setback_on_weekends(self):
        rng = np.random.default_rng(3)
        cal = Calendar()
        ts = make_timestamps(datetime(2021, 3, 6), 96)  # a Saturday
        sp_heat, sp_cool = generate_mprs_setpoints(rng, ts, cal)
        assert np.all(sp_heat == 15.0)
        assert np.all(sp_cool == 30.0)

    def test_prbs_zero_probability_stays_closed(self):
        rng = np.random.default_rng(0)
        assert generate_prbs_windows(rng, 500, p_open=0.0).sum() == 0

    def test_prbs_pulses_span_even_step_counts(self):
        rng = np.random.default_rng(11)
        sig = generate_prbs_windows(rng, 20000, p_open=0.05)
        for w in range(sig.shape[1]):
            col = sig[:, w]
            edges = np.flatnonzero(np.diff(np.concatenate(([0], col, [0]))))
            starts, stops = edges[::2], edges[1::2]
            lengths = stops - starts
            interior = lengths[stops < len(col)]
            assert np.all(interior >= 2)
            assert np.all(interior % 2 == 0)

    def test_prbs_event_rate_matches_probability(self):
        rng = np.random.default_rng(5)
        steps, p = 100_000, 0.05
        sig = generate_prbs_windows(rng, steps, p_open=p, windows=1)[:, 0]
        events = int(np.sum(np.diff(np.concatenate(([0], sig))) == 1))
        draws = steps - int(sig.sum()) + events  # one draw opens, one is forced
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(events - draws * p) < 4 * sigma

    def test_prbs_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_prbs_windows(np.random.default_rng(0), 10, p_open=1.5)


class TestSchedules:
    def test_empty_outside_working_days(self):
        rng = np.random.default_rng(2)
        cal = Calendar()
        ts = make_timestamps(datetime(2021, 3, 6), 2 * 96)  # weekend
        sched = generate_schedules(rng, ts, cal)
        assert sched.occupancy.sum() == 0
        assert sched.lighting_on.sum() == 0

    def test_bounded_counts_and_equipment(self):
        rng = np.random.default_rng(2)
        cal = Calendar()
        ts = make_timestamps(datetime(2021, 3, 1), 7 * 96)
        sched = generate_schedules(rng, ts, cal)
        assert sched.occupancy.min() >= 0
        assert sched.occupancy.max() <= 30
        assert sched.equipment_w.min() >= 0
        assert sched.equipment_w.max() <= 600

    def test_holiday_column_flags_new_year(self):
        rng = np.random.default_rng(2)
        cal = Calendar()
        ts = make_timestamps(datetime(2021, 1, 1), 96)
        sched = generate_schedules(rng, ts, cal)
        assert np.all(sched.holiday == 1.0)
        assert sched.occupancy.sum() == 0


class TestZonePhysics:
    def test_zero_net_flux_leaves_temperature_unchanged(self):
        dataset = simulate(BuildingSpec(), *constant_inputs(96, 20.0))
        for z in range(1, 6):
            assert np.all(dataset.columns[f"t_in_{z}"] == 20.0)

    def test_monotone_approach_to_equilibrium(self):
        spec = BuildingSpec()
        t_out = 10.0
        # no gain in the core, which has no envelope: a zone's temperature
        # falls monotonically only if its flux at the 30 C start is <= 0
        gains = np.array([400.0, 300.0, 200.0, 100.0, 0.0])
        ua_ext, ua_int = spec.ua_ext_w_per_k, spec.ua_int_w_per_k
        # steady state: ua_ext (t_out - T) + ua_int @ T - rowsum * T + g = 0
        balance = np.diag(ua_ext + ua_int.sum(axis=1)) - ua_int
        t_eq = np.linalg.solve(balance, ua_ext * t_out + gains)
        dataset = simulate(spec, *constant_inputs(3 * 96, t_out,
                                                  equipment_w=gains),
                           initial_t_in_c=30.0)
        for z in range(5):
            col = dataset.columns[f"t_in_{z + 1}"]
            assert col[0] == 30.0
            assert np.all(np.diff(col) <= 0.0)
            assert col.min() >= t_eq[z] - 1e-9
            assert col[-1] == pytest.approx(t_eq[z], abs=0.05)


class TestSimulate:
    def test_year_row_count(self, year_run):
        _, _, _, dataset = year_run
        assert len(dataset) == 35040

    def test_year_columns_complete(self, year_run):
        _, _, _, dataset = year_run
        assert set(dataset.columns) == set(DATASET_COLUMNS)

    def test_year_temperatures_inside_output_interval(self, year_run):
        _, _, _, dataset = year_run
        for z in range(1, 6):
            col = dataset.columns[f"t_in_{z}"]
            assert col.min() >= 10.0
            assert col.max() <= 40.0

    def test_year_energy_balance_audit(self, year_run):
        _, _, _, dataset = year_run
        assert dataset.audit_max_rel_err > 0.0
        assert dataset.audit_max_rel_err < 1e-6

    def test_setpoint_columns_keep_fixed_offset_when_occupied(self, year_run):
        _, _, _, dataset = year_run
        for z in range(1, 6):
            heat = dataset.columns[f"sp_heat_{z}"]
            cool = dataset.columns[f"sp_cool_{z}"]
            occupied = dataset.columns[f"occu_{z}"] > 0
            assert np.all(cool[occupied] - heat[occupied] == 5.0)

    def test_occupied_thermostat_band_tracking(self):
        # windows shut, mild season: settled occupied steps stay in band
        weather, schedules, signals = build_inputs(
            1, 5, start=datetime(2021, 6, 7))
        closed = ExcitationSignals(
            signals.sp_heat_c, signals.sp_cool_c,
            np.zeros_like(signals.window_open))
        dataset = simulate(BuildingSpec(), weather, schedules, closed)
        settle = 8  # two hours
        for z in range(5):
            t = dataset.columns[f"t_in_{z+1}"]
            heat, cool = signals.sp_heat_c[:, z], signals.sp_cool_c[:, z]
            occ = schedules.occupancy[:, z]
            for k in range(settle, len(t)):
                if not np.all(occ[k - settle:k + 1] > 0):
                    continue
                if not np.all(heat[k - settle:k + 1] == heat[k]):
                    continue
                assert heat[k] - 0.5 <= t[k] <= cool[k] + 0.5

    def test_halving_inner_step_changes_little(self):
        # winter week with window pulses, the stiffest regime
        weather, schedules, signals = build_inputs(
            99, 7, start=datetime(2021, 1, 18))
        spec = BuildingSpec()
        coarse = simulate(spec, weather, schedules, signals, inner_step_s=60)
        fine = simulate(spec, weather, schedules, signals, inner_step_s=30)
        worst = max(
            np.abs(coarse.columns[f"t_in_{z}"]
                   - fine.columns[f"t_in_{z}"]).max()
            for z in range(1, 6))
        assert worst < 0.05

    def test_bit_deterministic_given_seed(self):
        w1, s1, g1 = build_inputs(5, 3)
        w2, s2, g2 = build_inputs(5, 3)
        d1 = simulate(BuildingSpec(), w1, s1, g1)
        d2 = simulate(BuildingSpec(), w2, s2, g2)
        for name in d1.columns:
            assert np.array_equal(d1.columns[name], d2.columns[name])

    @pytest.mark.parametrize("inner_step_s", [60, 30])
    def test_scalar_loop_matches_numpy_reference(self, inner_step_s):
        weather, schedules, signals = saturating_inputs()
        spec = BuildingSpec()
        reference = NumpyReference(spec)
        rows, ref_audit = reference.run(weather, schedules, signals,
                                        inner_step_s)
        # the run exercises every branch of the flux routine
        assert min(reference.saturated.values()) > 1000
        dataset = simulate(spec, weather, schedules, signals,
                           inner_step_s=inner_step_s)
        for z in range(5):
            col = dataset.columns[f"t_in_{z + 1}"]
            assert np.max(np.abs(col - rows[:, z])) <= 1e-12
        assert rows.min() < 12.0 and rows.max() > 30.0
        assert 0.0 < ref_audit < 1e-6
        assert 0.0 < dataset.audit_max_rel_err < 1e-6

    def test_divergence_guard_names_the_step(self):
        weather, schedules, signals = build_inputs(5, 2)
        fragile = BuildingSpec(capacitance_air_multiple=0.005)
        with pytest.raises(SimulationError) as expected:
            NumpyReference(fragile).run(weather, schedules, signals)
        with pytest.raises(SimulationError) as got:
            simulate(fragile, weather, schedules, signals)
        assert str(got.value) == str(expected.value)
        assert re.fullmatch(
            r"zone (south|east|north|west|core) diverged to -?\d+\.\d\d C "
            r"at sample \d+, inner step \d+", str(got.value))

    def test_series_length_mismatch_rejected(self):
        weather, schedules, signals = build_inputs(5, 2)
        short = ExcitationSignals(
            signals.sp_heat_c[:-5], signals.sp_cool_c[:-5],
            signals.window_open[:-5])
        with pytest.raises(ConfigurationError):
            simulate(BuildingSpec(), weather, schedules, short)

    @pytest.mark.parametrize("inner_step_s", [0, -60])
    def test_non_positive_inner_step_rejected(self, inner_step_s):
        with pytest.raises(ConfigurationError, match="must be at least 1s"):
            simulate(BuildingSpec(), *constant_inputs(96, 20.0),
                     inner_step_s=inner_step_s)

    @pytest.mark.parametrize("case, match", [
        ("hot-t-out", r"outside \[-30\.0, 40\.0\]"),
        ("cadence-break", "weather cadence break at index 5"),
        ("short-series", "length 287 != 288"),
        ("inner-step-7", "must divide 900s"),
    ])
    def test_input_contract_refused(self, case, match):
        weather, schedules, signals = constant_inputs(288, 20.0)
        inner_step_s = 60
        if case == "hot-t-out":
            weather.t_out_c[3] = 45.0
        elif case == "cadence-break":
            weather.timestamps[5] += timedelta(minutes=5)
        elif case == "short-series":
            weather.rh_pct = weather.rh_pct[:-1]
        else:
            inner_step_s = 7
        with pytest.raises(ConfigurationError, match=match):
            simulate(BuildingSpec(), weather, schedules, signals,
                     inner_step_s=inner_step_s)


class TestSynthWeather:
    def test_within_documented_intervals(self):
        rng = np.random.default_rng(21)
        w = synth_weather(rng, 30)
        for name, series in (("t_out_c", w.t_out_c), ("rh_pct", w.rh_pct),
                             ("wind_mps", w.wind_mps), ("dni_wm2", w.dni_wm2),
                             ("dhi_wm2", w.dhi_wm2)):
            lo, hi = bs.WEATHER_INTERVALS[name]
            assert series.min() >= lo
            assert series.max() <= hi

    def test_no_irradiance_at_midnight(self):
        rng = np.random.default_rng(21)
        w = synth_weather(rng, 3)
        midnight = [k for k, ts in enumerate(w.timestamps)
                    if ts.hour == 0 and ts.minute == 0]
        assert all(w.dni_wm2[k] == 0.0 for k in midnight)
        assert all(w.dhi_wm2[k] == 0.0 for k in midnight)

    def test_seeded_reproducibility(self):
        a = synth_weather(np.random.default_rng(np.random.SeedSequence(4)), 5)
        b = synth_weather(np.random.default_rng(np.random.SeedSequence(4)), 5)
        assert np.array_equal(a.t_out_c, b.t_out_c)
        assert np.array_equal(a.dni_wm2, b.dni_wm2)
        assert np.array_equal(a.wind_mps, b.wind_mps)

    def test_timestamps_on_quarter_hours(self):
        ts = make_timestamps(datetime(2021, 1, 1), 200)
        deltas = {(b - a).total_seconds() for a, b in zip(ts, ts[1:])}
        assert deltas == {900.0}


class TestDatasetCsv:
    @pytest.fixture()
    def small_dataset(self):
        weather, schedules, signals = build_inputs(6, 2)
        return simulate(BuildingSpec(), weather, schedules, signals)

    def test_round_trip_is_lossless(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        loaded = load_dataset_csv(str(path))
        assert loaded.timestamps == small_dataset.timestamps
        for name in DATASET_COLUMNS:
            assert np.array_equal(loaded.columns[name],
                                  small_dataset.columns[name]), name

    def test_writer_is_byte_identical_to_repr_per_cell(self, tmp_path,
                                                       small_dataset):
        small_dataset.columns["ws_1"] = (
            small_dataset.columns["ws_1"].astype(np.int64))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp"] + DATASET_COLUMNS)
            for i, ts in enumerate(small_dataset.timestamps):
                writer.writerow([ts.isoformat()] + [
                    repr(float(small_dataset.columns[c][i]))
                    for c in DATASET_COLUMNS])
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        assert path.read_bytes() == reference.read_bytes()

    def test_column_order_is_irrelevant(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        order = [0] + list(range(len(header) - 1, 0, -1))
        shuffled = [",".join(line.split(",")[i] for i in order)
                    for line in lines]
        path.write_text("\n".join(shuffled) + "\n")
        loaded = load_dataset_csv(str(path))
        for name in DATASET_COLUMNS:
            assert np.array_equal(loaded.columns[name],
                                  small_dataset.columns[name]), name

    def test_tampered_header_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("t_out", "hol", 1)  # duplicates hol too
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="t_out"):
            load_dataset_csv(str(path))

    def test_bad_float_names_row(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[1] = "oops"
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 5"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_column_and_row(self, tmp_path,
                                                  small_dataset, text):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        column = lines[0].split(",").index("occu_2")
        cells = lines[6].split(",")
        cells[column] = text
        lines[6] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 7: column occu_2: not finite"):
            load_dataset_csv(str(path))


class TestBuildingSpecValidation:
    def test_default_spec_is_valid(self):
        BuildingSpec().validate()

    def test_interior_window_rejected(self):
        spec = BuildingSpec(window_areas_m2=(12.0, 12.0, 12.0, 12.0, 1.0))
        with pytest.raises(ConfigurationError, match="interior"):
            spec.validate()

    def test_window_larger_than_wall_rejected(self):
        spec = BuildingSpec(window_areas_m2=(60.0, 12.0, 12.0, 12.0, 0.0))
        with pytest.raises(ConfigurationError, match="window"):
            spec.validate()

    def test_asymmetric_adjacency_rejected(self):
        adj = [[0.0] * 5 for _ in range(5)]
        adj[0][1] = 10.0
        spec = BuildingSpec(adjacency_m2=tuple(tuple(r) for r in adj))
        with pytest.raises(ConfigurationError, match="symmetric"):
            spec.validate()

    def test_nonpositive_capacity_rejected(self):
        spec = BuildingSpec(heat_capacity_w=(0.0,) * 5)
        with pytest.raises(ConfigurationError, match="heat_capacity_w"):
            spec.validate()

    def test_wrong_tuple_length_rejected(self):
        spec = BuildingSpec(floor_areas_m2=(100.0, 100.0))
        with pytest.raises(ConfigurationError, match="floor_areas_m2"):
            spec.validate()
