import csv
import math
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvforecast import building_sim as bs
from hvforecast.building_sim import (
    DATASET_COLUMNS,
    MPRS_LEVELS,
    ExcitationSignals,
    cadence_break,
    generate_mprs_setpoints,
    generate_prbs_windows,
    generate_schedules,
    is_occupied,
    load_dataset_csv,
    make_timestamps,
    save_dataset_csv,
    simulate,
    simulator_inputs,
    synth_weather,
    ventilation_flow,
)
from hvforecast.errors import ConfigurationError, ParseError, SimulationError
from sim_inputs import constant_inputs

import rowwise_dataset as rowwise


@pytest.fixture(scope="module")
def year_run():
    weather, schedules, signals = simulator_inputs(7, 365)
    dataset = simulate(weather, schedules, signals)
    return weather, schedules, signals, dataset


class NumpyReference:
    """The flux routine and explicit-Euler loop that `simulate` ran on
    5-element numpy arrays before its inner step moved to Python floats.
    Tests check the scalar loop against it."""

    def __init__(self):
        self.gains = bs._boundary_gains
        self.cap = bs.CAPACITANCES_J_PER_K
        self.ua_ext = bs.UA_EXT_W_PER_K
        self.ua_int = bs.UA_INT_W_PER_K
        self.ua_int_rowsum = self.ua_int.sum(axis=1)
        self.heat_cap_w = np.asarray(bs.HEAT_CAPACITY_W)
        self.cool_cap_w = np.asarray(bs.COOL_CAPACITY_W)
        self.stat_gain = np.asarray(bs.THERMOSTAT_GAIN_W_PER_K)
        self.saturated = {"heat": 0, "cool": 0, "vent": 0}

    def fluxes(self, t_zones, t_out, wind, gains_w, sp_heat, sp_cool,
               window_open):
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
                    bs.WINDOW_OPEN_AREA_M2, wind, t_zones[z], t_out)
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
                weather.t_out[k], weather.l_norm[k], weather.l_hor[k],
                schedules.occupancy[k], schedules.equipment_w[k],
                schedules.lighting_on[k])
            for j in range(bs.SAMPLE_STEP_S // inner_step_s):
                total = self.fluxes(
                    t, float(weather.t_out[k]), float(weather.w_out[k]),
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


class PerStepReference:
    """The three excitation generators as they ran before each looped once
    per event (day, hold, pulse): one iteration per 15-minute step, with
    hand-kept counters. Tests check the generators against them bitwise."""

    @staticmethod
    def schedules(rng, timestamps):
        n = len(timestamps)
        steps_per_day = 24 * 3600 // bs.SAMPLE_STEP_S
        occupancy = np.zeros((n, bs.ZONE_COUNT))
        lighting = np.zeros(n)
        holiday = np.zeros(n)
        for start_idx in range(0, n, steps_per_day):
            day = timestamps[start_idx].date()
            day_slice = slice(start_idx, min(start_idx + steps_per_day, n))
            if bs.is_holiday(day):
                holiday[day_slice] = 1.0
            if not bs.is_working_day(day):
                continue
            arrivals = rng.integers(28, 37, size=bs.ZONE_COUNT)
            departures = rng.integers(64, 77, size=bs.ZONE_COUNT)
            counts = np.clip(np.asarray(bs.OCCUPANCY_BASE)
                             + rng.integers(-2, 3, size=bs.ZONE_COUNT), 0, 30)
            for k in range(day_slice.start, day_slice.stop):
                step_of_day = k - start_idx
                hour = timestamps[k].hour
                if bs.OCCUPIED_START_HOUR <= hour < bs.OCCUPIED_END_HOUR:
                    lighting[k] = 1.0
                for z in range(bs.ZONE_COUNT):
                    if arrivals[z] <= step_of_day < departures[z]:
                        people = counts[z]
                        if 48 <= step_of_day < 52:
                            people = math.ceil(people / 2)
                        occupancy[k, z] = float(people)
        jitter = rng.normal(0.0, 5.0, size=(n, bs.ZONE_COUNT))
        equipment = np.clip(bs.EQUIPMENT_STANDBY_W
                            + bs.EQUIPMENT_PER_PERSON_W * occupancy + jitter,
                            0.0, 600.0)
        return bs.ScheduleSet(occupancy, equipment, lighting, holiday)

    @staticmethod
    def mprs_setpoints(rng, timestamps):
        n = len(timestamps)
        occupied = np.array([is_occupied(ts) for ts in timestamps])
        sp_heat = np.full((n, bs.ZONE_COUNT), bs.SETBACK_HEAT_C)
        sp_cool = np.full((n, bs.ZONE_COUNT), bs.SETBACK_COOL_C)
        for z in range(bs.ZONE_COUNT):
            remaining = 0
            level = MPRS_LEVELS[0]
            for k in range(n):
                if not occupied[k]:
                    continue
                if remaining == 0:
                    level = MPRS_LEVELS[rng.integers(0, len(MPRS_LEVELS))]
                    remaining = int(rng.integers(1, bs.MPRS_MAX_HOLD_STEPS + 1))
                sp_heat[k, z] = level
                sp_cool[k, z] = level + bs.COOL_OFFSET_C
                remaining -= 1
        return sp_heat, sp_cool

    @staticmethod
    def prbs_windows(rng, steps, p_open, windows):
        out = np.zeros((steps, windows), dtype=np.int64)
        for w in range(windows):
            remaining = 0
            for k in range(steps):
                if remaining > 0:
                    out[k, w] = 1
                    remaining -= 1
                elif rng.random() < p_open:
                    out[k, w] = 1
                    remaining = bs.PRBS_PULSE_STEPS - 1
        return out


def assert_bitwise(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def seeded_pair(seed):
    """Two generators in the same state."""
    return tuple(np.random.default_rng(np.random.SeedSequence(seed))
                 for _ in range(2))


def saturating_inputs(days=3):
    """Seeded inputs with windows open a third of the time and setpoints
    that alternate every two hours between far above and far below the
    zone temperatures, so heating and cooling both run at capacity."""
    weather, schedules, signals = simulator_inputs(
        41, days, start=datetime(2021, 1, 18))
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
        ts = make_timestamps(datetime(2021, 3, 1), 14 * 96)
        sp_heat, sp_cool = generate_mprs_setpoints(rng, ts)
        occupied = np.array([is_occupied(t) for t in ts])
        assert set(np.unique(sp_heat[occupied])) <= set(MPRS_LEVELS)
        assert np.all(sp_cool[occupied] - sp_heat[occupied] == 5.0)
        assert np.all(sp_heat[~occupied] == 15.0)
        assert np.all(sp_cool[~occupied] == 30.0)

    def test_mprs_setback_on_weekends(self):
        rng = np.random.default_rng(3)
        ts = make_timestamps(datetime(2021, 3, 6), 96)  # a Saturday
        sp_heat, sp_cool = generate_mprs_setpoints(rng, ts)
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


# From 2020-12-15, 60 days cross Christmas and New Year, and 400 days
# cross every fixed holiday and two year ends.
REFERENCE_START = datetime(2020, 12, 15)


class TestGeneratorsMatchPerStepReference:
    def test_longest_span_crosses_every_holiday(self):
        ts = make_timestamps(REFERENCE_START, 400 * 96)
        assert {(t.month, t.day) for t in ts} >= set(bs.HOLIDAYS)
        assert len({t.year for t in ts}) == 3

    @pytest.mark.parametrize("days", [1, 60, 400])
    @pytest.mark.parametrize("seed", [3, 23, 41])
    def test_schedules_then_setpoints(self, seed, days):
        ts = make_timestamps(REFERENCE_START, days * 96)
        rng, ref_rng = seeded_pair(seed)
        got = generate_schedules(rng, ts)
        want = PerStepReference.schedules(ref_rng, ts)
        for name in ("occupancy", "equipment_w", "lighting_on", "holiday"):
            assert_bitwise(getattr(got, name), getattr(want, name))
        for got_sp, want_sp in zip(generate_mprs_setpoints(rng, ts),
                                   PerStepReference.mprs_setpoints(ref_rng,
                                                                   ts)):
            assert_bitwise(got_sp, want_sp)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("windows", [4, 1])
    @pytest.mark.parametrize("p_open", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("days", [1, 60, 400])
    def test_windows(self, days, p_open, windows):
        for seed in (3, 23, 41):
            rng, ref_rng = seeded_pair(seed)
            assert_bitwise(
                generate_prbs_windows(rng, days * 96, p_open, windows),
                PerStepReference.prbs_windows(ref_rng, days * 96, p_open,
                                              windows))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSchedules:
    def test_empty_outside_working_days(self):
        rng = np.random.default_rng(2)
        ts = make_timestamps(datetime(2021, 3, 6), 2 * 96)  # weekend
        sched = generate_schedules(rng, ts)
        assert sched.occupancy.sum() == 0
        assert sched.lighting_on.sum() == 0

    def test_bounded_counts_and_equipment(self):
        rng = np.random.default_rng(2)
        ts = make_timestamps(datetime(2021, 3, 1), 7 * 96)
        sched = generate_schedules(rng, ts)
        assert sched.occupancy.min() >= 0
        assert sched.occupancy.max() <= 30
        assert sched.equipment_w.min() >= 0
        assert sched.equipment_w.max() <= 600

    def test_holiday_column_flags_new_year(self):
        rng = np.random.default_rng(2)
        ts = make_timestamps(datetime(2021, 1, 1), 96)
        sched = generate_schedules(rng, ts)
        assert np.all(sched.holiday == 1.0)
        assert sched.occupancy.sum() == 0

    def test_start_off_midnight_refused(self):
        # days are cut every 96 steps from the first timestamp
        ts = make_timestamps(datetime(2021, 3, 3, 7, 15), 96)
        with pytest.raises(ConfigurationError, match=r"^schedules start at "
                           r"2021-03-03T07:15:00, not at 00:00$"):
            generate_schedules(np.random.default_rng(2), ts)


class TestZonePhysics:
    def test_zero_net_flux_leaves_temperature_unchanged(self):
        dataset = simulate(*constant_inputs(96, 20.0))
        for z in range(1, 6):
            assert np.all(dataset.columns[f"t_in_{z}"] == 20.0)

    def test_monotone_approach_to_equilibrium(self):
        t_out = 10.0
        # no gain in the core, which has no envelope: a zone's temperature
        # falls monotonically only if its flux at the 30 C start is <= 0
        gains = np.array([400.0, 300.0, 200.0, 100.0, 0.0])
        ua_ext, ua_int = bs.UA_EXT_W_PER_K, bs.UA_INT_W_PER_K
        # steady state: ua_ext (t_out - T) + ua_int @ T - rowsum * T + g = 0
        balance = np.diag(ua_ext + ua_int.sum(axis=1)) - ua_int
        t_eq = np.linalg.solve(balance, ua_ext * t_out + gains)
        dataset = simulate(*constant_inputs(3 * 96, t_out,
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
        weather, schedules, signals = simulator_inputs(
            1, 5, start=datetime(2021, 6, 7))
        closed = ExcitationSignals(
            signals.sp_heat_c, signals.sp_cool_c,
            np.zeros_like(signals.window_open))
        dataset = simulate(weather, schedules, closed)
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
        weather, schedules, signals = simulator_inputs(
            99, 7, start=datetime(2021, 1, 18))
        coarse = simulate(weather, schedules, signals, inner_step_s=60)
        fine = simulate(weather, schedules, signals, inner_step_s=30)
        worst = max(
            np.abs(coarse.columns[f"t_in_{z}"]
                   - fine.columns[f"t_in_{z}"]).max()
            for z in range(1, 6))
        assert worst < 0.05

    def test_bit_deterministic_given_seed(self):
        d1 = simulate(*simulator_inputs(5, 3))
        d2 = simulate(*simulator_inputs(5, 3))
        for name in d1.columns:
            assert np.array_equal(d1.columns[name], d2.columns[name])

    @pytest.mark.parametrize("inner_step_s", [60, 30])
    def test_scalar_loop_matches_numpy_reference(self, inner_step_s):
        weather, schedules, signals = saturating_inputs()
        reference = NumpyReference()
        rows, ref_audit = reference.run(weather, schedules, signals,
                                        inner_step_s)
        # the run exercises every branch of the flux routine
        assert min(reference.saturated.values()) > 1000
        dataset = simulate(weather, schedules, signals,
                           inner_step_s=inner_step_s)
        for z in range(5):
            col = dataset.columns[f"t_in_{z + 1}"]
            assert np.max(np.abs(col - rows[:, z])) <= 1e-12
        assert rows.min() < 12.0 and rows.max() > 30.0
        assert 0.0 < ref_audit < 1e-6
        assert 0.0 < dataset.audit_max_rel_err < 1e-6

    def test_divergence_guard_names_the_step(self):
        # a megawatt in the core overheats it within one inner step
        inputs = constant_inputs(96, 20.0, equipment_w=(0, 0, 0, 0, 1e6))
        with pytest.raises(SimulationError) as expected:
            NumpyReference().run(*inputs)
        with pytest.raises(SimulationError) as got:
            simulate(*inputs)
        assert str(got.value) == str(expected.value)
        assert re.fullmatch(
            r"zone (south|east|north|west|core) diverged to -?\d+\.\d\d C "
            r"at sample \d+, inner step \d+", str(got.value))

    def test_series_length_mismatch_rejected(self):
        weather, schedules, signals = simulator_inputs(5, 2)
        short = ExcitationSignals(
            signals.sp_heat_c[:-5], signals.sp_cool_c[:-5],
            signals.window_open[:-5])
        with pytest.raises(ConfigurationError):
            simulate(weather, schedules, short)

    @pytest.mark.parametrize("inner_step_s", [0, -60])
    def test_non_positive_inner_step_rejected(self, inner_step_s):
        with pytest.raises(ConfigurationError, match="must be at least 1s"):
            simulate(*constant_inputs(96, 20.0), inner_step_s=inner_step_s)

    @pytest.mark.parametrize("case, match", [
        ("hot-t-out", r"outside \[-30\.0, 40\.0\]"),
        ("cadence-break", "weather cadence break at index 5"),
        ("short-series", "length 287 != 288"),
        ("inner-step-7", "must divide 900s"),
        ("nan-rh", r"h_out value nan at index 10 outside"),
        ("nan-t-out", r"t_out value nan at index 10 outside"),
    ])
    def test_input_contract_refused(self, case, match):
        weather, schedules, signals = constant_inputs(288, 20.0)
        inner_step_s = 60
        if case == "hot-t-out":
            weather.t_out[3] = 45.0
        elif case == "cadence-break":
            weather.timestamps[5] += timedelta(minutes=5)
        elif case == "short-series":
            weather.h_out = weather.h_out[:-1]
        elif case == "nan-rh":
            weather.h_out[10] = np.nan
        elif case == "nan-t-out":
            weather.t_out[10] = np.nan
        else:
            inner_step_s = 7
        with pytest.raises(ConfigurationError, match=match):
            simulate(weather, schedules, signals, inner_step_s=inner_step_s)


class TestSynthWeather:
    def test_within_documented_intervals(self):
        rng = np.random.default_rng(21)
        w = synth_weather(rng, 30)
        for name, (lo, hi) in bs.WEATHER_INTERVALS.items():
            series = getattr(w, name)
            assert series.min() >= lo
            assert series.max() <= hi

    def test_no_irradiance_at_midnight(self):
        rng = np.random.default_rng(21)
        w = synth_weather(rng, 3)
        midnight = [k for k, ts in enumerate(w.timestamps)
                    if ts.hour == 0 and ts.minute == 0]
        assert all(w.l_norm[k] == 0.0 for k in midnight)
        assert all(w.l_hor[k] == 0.0 for k in midnight)

    def test_start_off_midnight_refused(self):
        # the hour of day is read from the step index
        with pytest.raises(ConfigurationError, match=r"^weather starts at "
                           r"2021-03-03T07:15:00, not at 00:00$"):
            synth_weather(np.random.default_rng(21), 3,
                          start=datetime(2021, 3, 3, 7, 15))

    def test_seeded_reproducibility(self):
        a = synth_weather(np.random.default_rng(np.random.SeedSequence(4)), 5)
        b = synth_weather(np.random.default_rng(np.random.SeedSequence(4)), 5)
        assert np.array_equal(a.t_out, b.t_out)
        assert np.array_equal(a.l_norm, b.l_norm)
        assert np.array_equal(a.w_out, b.w_out)

    def test_timestamps_on_quarter_hours(self):
        ts = make_timestamps(datetime(2021, 1, 1), 200)
        deltas = {(b - a).total_seconds() for a, b in zip(ts, ts[1:])}
        assert deltas == {900.0}

    def test_cadence_break_is_first_index_off_the_sequence(self):
        ts = make_timestamps(datetime(2021, 1, 1), 10)
        assert cadence_break(ts) is None
        assert cadence_break([]) is None
        assert cadence_break(ts[:4] + ts[5:]) == 4
        assert cadence_break(ts[:7] + [ts[7] + timedelta(seconds=1)]) == 7
        # an offset-aware timestamp never equals a naive one
        aware = ts[3].replace(tzinfo=timezone.utc)
        assert cadence_break(ts[:3] + [aware] + ts[4:]) == 3


class TestDatasetCsv:
    @pytest.fixture()
    def small_dataset(self):
        return simulate(*simulator_inputs(6, 2))

    def test_round_trip_is_lossless(self, tmp_path):
        for seed in (6, 23):
            dataset = simulate(*simulator_inputs(seed, 2))
            path = tmp_path / f"dataset-{seed}.csv"
            save_dataset_csv(dataset, str(path))
            loaded = load_dataset_csv(str(path))
            assert loaded.timestamps == dataset.timestamps
            for name in DATASET_COLUMNS:
                assert np.array_equal(loaded.columns[name].view(np.int64),
                                      dataset.columns[name].view(np.int64)), name

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

    def test_reordered_columns_refused(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        order = [0] + list(range(len(header) - 1, 0, -1))
        shuffled = [",".join(line.split(",")[i] for i in order)
                    for line in lines]
        path.write_text("\n".join(shuffled) + "\n")
        with pytest.raises(ParseError, match="row 1: header field 2 is "
                           "'t_in_5', expected 't_out'") as info:
            load_dataset_csv(str(path))
        assert info.value.row == 1

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
        with pytest.raises(ParseError,
                           match="row 5: column t_out: not a number: 'oops'"):
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

    @pytest.mark.parametrize("row", [2, 12])
    def test_timestamp_with_utc_offset_names_row(self, tmp_path,
                                                 small_dataset, row):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = path.read_text().splitlines()
        stamp, rest = lines[row - 1].split(",", 1)
        lines[row - 1] = f"{stamp}+00:00,{rest}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match=f"row {row}: timestamp .* has a UTC offset"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("start", [datetime(2021, 1, 1),
                                       datetime(2021, 1, 1, 0, 0, 0, 1)])
    def test_long_timestamp_text_refused_at_its_row(self, tmp_path, start):
        # a text that starts as the writer's stamp and runs on past the
        # longest one (26 characters) must not be cut down to that stamp
        rng = np.random.default_rng(8)
        dataset = bs.SimulatedDataset(
            make_timestamps(start, 6),
            {name: rng.uniform(20.0, 25.0, 6) for name in DATASET_COLUMNS})
        path = tmp_path / "dataset.csv"
        save_dataset_csv(dataset, str(path))
        lines = path.read_text().splitlines()
        stamp, rest = lines[2].split(",", 1)
        text = stamp + (".000000xyz" if len(stamp) == 19 else "xyz")
        assert len(text) > 26
        lines[2] = f"{text},{rest}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^row 3: bad timestamp "
                           f"'{text}'") as info:
            load_dataset_csv(str(path))
        assert info.value.row == 3

    # Each edit takes the lines of a saved file, header first, and returns
    # them changed; the loader must refuse the result at the row given.
    EDITS = {
        "empty file": (lambda lines: [], 1, "empty dataset file"),
        "header only": (lambda lines: lines[:1], 2,
                        "dataset file has no data rows"),
        "blank line": (lambda lines: lines[:5] + [""] + lines[5:], 6,
                       "expected 36 fields, got 0"),
        "field dropped": (lambda lines: lines[:4] + [
            lines[4].rsplit(",", 1)[0]] + lines[5:], 5,
            "expected 36 fields, got 35"),
        "field added": (lambda lines: lines[:4] + [lines[4] + ",1.0"]
                        + lines[5:], 5, "expected 36 fields, got 37"),
        "row dropped": (lambda lines: lines[:9] + lines[10:], 10,
                        r"timestamp gap of 1800s \(need 900s\)"),
        "rows swapped": (lambda lines: lines[:3] + [lines[4], lines[3]]
                         + lines[5:], 4,
                         r"timestamp gap of 1800s \(need 900s\)"),
        "unparsable timestamp": (lambda lines: lines[:3] + [
            "2021-02-30T00:00:00" + lines[3][19:]] + lines[4:], 4,
            "bad timestamp '2021-02-30T00:00:00'"),
        "space separator": (lambda lines: lines[:7] + [
            lines[7].replace("T", " ", 1)] + lines[8:], 8,
            "timestamp '2021-01-01 01:30:00' is not in the writer's form "
            "'2021-01-01T01:30:00'"),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_refusal_names_row(self, tmp_path, small_dataset, edit):
        change, row, message = self.EDITS[edit]
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = change(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ParseError, match=f"^row {row}: {message}") as info:
            load_dataset_csv(str(path))
        assert info.value.row == row


    def test_reader_matches_rowwise_reference(self, tmp_path):
        for seed in (6, 23):
            path = str(tmp_path / f"dataset-{seed}.csv")
            save_dataset_csv(simulate(*simulator_inputs(seed, 3)), path)
            assert_same_dataset(load_dataset_csv(path),
                                rowwise.load_dataset_csv(path))

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_refusal_matches_rowwise_reference(self, tmp_path, small_dataset,
                                               edit):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        lines = self.EDITS[edit][0](path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ParseError) as want:
            rowwise.load_dataset_csv(str(path))
        with pytest.raises(ParseError) as got:
            load_dataset_csv(str(path))
        assert (str(got.value), got.value.row) == (str(want.value),
                                                   want.value.row)

    # Texts the writer never produces that the row reader still accepts:
    # where `np.loadtxt` refuses them, the rescan reads them.
    VARIANTS = {
        "LF line ends": lambda text: text.replace("\r\n", "\n"),
        "no final line end": lambda text: text[:-2],
        "quoted cell": lambda text: re.sub(r"(?m)^([^,]*,)([^,]*),",
                                           r'\1"\2",', text, count=3),
        "digit separator": lambda text: text.replace(",0.0,", ",0_0.0,", 1),
        "padded cell": lambda text: text.replace(",0.0,", ", 0.0 ,", 1),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variants_read_as_rowwise_reference(self, tmp_path, small_dataset,
                                                variant):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(small_dataset, str(path))
        text = path.read_bytes().decode()
        changed = self.VARIANTS[variant](text)
        assert changed != text
        path.write_bytes(changed.encode())
        loaded = load_dataset_csv(str(path))
        assert_same_dataset(loaded, rowwise.load_dataset_csv(str(path)))
        assert_same_dataset(loaded, small_dataset)


def assert_same_dataset(got, want):
    assert got.timestamps == want.timestamps
    assert list(got.columns) == DATASET_COLUMNS
    for name in DATASET_COLUMNS:
        assert got.columns[name].flags.c_contiguous, name
        assert np.array_equal(got.columns[name].view(np.int64),
                              np.asarray(want.columns[name], dtype=float
                                         ).view(np.int64)), name


class TestBuildingConstants:
    def test_building_is_physically_consistent(self):
        per_zone = (bs.FLOOR_AREAS_M2, bs.WALL_AREAS_M2, bs.WINDOW_AREAS_M2,
                    bs.SOLAR_DNI_FRACTION, bs.SOLAR_DHI_FRACTION,
                    bs.HEAT_CAPACITY_W, bs.COOL_CAPACITY_W,
                    bs.THERMOSTAT_GAIN_W_PER_K)
        assert all(len(values) == bs.ZONE_COUNT for values in per_zone)
        assert bs.WINDOW_AREAS_M2[4] == 0.0  # the core has no facade
        assert all(win <= wall for wall, win
                   in zip(bs.WALL_AREAS_M2, bs.WINDOW_AREAS_M2))
        assert min(bs.WALL_AREAS_M2) >= 0.0 and min(bs.WINDOW_AREAS_M2) >= 0.0
        adj = np.asarray(bs.ADJACENCY_M2)
        assert adj.shape == (bs.ZONE_COUNT, bs.ZONE_COUNT)
        assert np.array_equal(adj, adj.T)
        assert adj.min() >= 0.0 and np.all(np.diag(adj) == 0.0)
        assert min(bs.FLOOR_AREAS_M2) > 0.0
        assert min(bs.CEILING_HEIGHT_M, bs.U_EXT_W_M2K, bs.U_INT_W_M2K,
                   bs.U_WINDOW_W_M2K, bs.CAPACITANCE_AIR_MULTIPLE) > 0.0
        assert min(bs.HEAT_CAPACITY_W + bs.COOL_CAPACITY_W
                   + bs.THERMOSTAT_GAIN_W_PER_K) > 0.0

    @pytest.mark.parametrize("name", ["CAPACITANCES_J_PER_K",
                                      "UA_EXT_W_PER_K", "UA_INT_W_PER_K"])
    def test_derived_arrays_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(bs, name)[0] = 1.0
