"""Five-zone office building simulator with hybrid-ventilation excitation.

A lumped-capacitance (RC) thermal model per zone stands in for a full
building-energy program: proportional thermostats, wind-and-stack natural
ventilation through operable windows, solar and internal gains, stochastic
occupancy/equipment schedules, and the two excitation signals used for
system identification — randomized multi-level setpoints (mPRS) and a
pseudo-random binary window-opening sequence (PRBS). The simulator emits
one dataset row per 15 minutes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta

import numpy as np

from .errors import (ConfigurationError, ParseError, SimulationError,
                     check_count, check_seed)
from .tables import finite, parse_table, scan_table

ZONE_NAMES = ("south", "east", "north", "west", "core")
ZONE_COUNT = 5
WINDOW_ZONES = (0, 1, 2, 3)  # exterior zones carry one operable window each

RHO_CP_AIR = 1.2 * 1005.0    # J/(m3 K), air density times specific heat
GRAVITY = 9.81               # m/s2

SAMPLE_STEP_S = 900          # dataset cadence: 15 minutes

# Fixed-date public holidays (month, day); weekends are handled separately.
HOLIDAYS = (
    (1, 1), (5, 1), (7, 4), (9, 6), (11, 25), (12, 24), (12, 25), (12, 31),
)
OCCUPIED_START_HOUR = 7
OCCUPIED_END_HOUR = 19

# Dataset schema: timestamp plus every model variable, one row per 15 min.
DATASET_COLUMNS = (
    ["t_out", "h_out", "w_out", "l_norm", "l_hor", "hol"]
    + [f"occu_{i}" for i in range(1, 6)]
    + [f"e_{i}" for i in range(1, 6)]
    + [f"ws_{i}" for i in range(1, 5)]
    + [f"sp_heat_{i}" for i in range(1, 6)]
    + [f"sp_cool_{i}" for i in range(1, 6)]
    + [f"t_in_{i}" for i in range(1, 6)]
)

# Table 1's weather intervals, keyed by dataset column; the simulator
# refuses weather outside them and the pipeline scales with them.
WEATHER_INTERVALS = {
    "t_out": (-30.0, 40.0),    # outdoor temperature, C
    "h_out": (0.0, 100.0),     # outdoor relative humidity, %
    "w_out": (0.0, 25.0),      # wind speed, m/s
    "l_norm": (0.0, 1300.0),   # direct normal irradiance, W/m2
    "l_hor": (0.0, 1300.0),    # diffuse horizontal irradiance, W/m2
}

# The one building the simulator models. Editing these constants is how to
# change it; every per-zone tuple lists south, east, north, west, core.
FLOOR_AREAS_M2 = (105.0, 105.0, 105.0, 105.0, 30.0)
CEILING_HEIGHT_M = 2.4
WALL_AREAS_M2 = (54.0, 54.0, 54.0, 54.0, 0.0)
WINDOW_AREAS_M2 = (12.0, 12.0, 12.0, 12.0, 0.0)
U_EXT_W_M2K = 2.8
U_INT_W_M2K = 1.6
U_WINDOW_W_M2K = 0.7
SOLAR_G_VALUE = 0.12
SHADE_THRESHOLD_C = 23.0
SHADE_FACTOR = 0.3
# Fraction of direct-normal / diffuse-horizontal irradiance reaching
# each zone's glazing (orientation surrogate).
SOLAR_DNI_FRACTION = (0.5, 0.3, 0.1, 0.3, 0.0)
SOLAR_DHI_FRACTION = (0.5, 0.5, 0.5, 0.5, 0.0)
CAPACITANCE_AIR_MULTIPLE = 5.0
# Plant sized per zone (100 / 80 W per m2 of floor) so every zone warms
# and cools at the same rate; thermostat gain scales the same way.
HEAT_CAPACITY_W = (10500.0, 10500.0, 10500.0, 10500.0, 3000.0)
COOL_CAPACITY_W = (8400.0, 8400.0, 8400.0, 8400.0, 2400.0)
THERMOSTAT_GAIN_W_PER_K = (4200.0, 4200.0, 4200.0, 4200.0, 1600.0)
OCCUPANT_GAIN_W = 75.0
LIGHTING_W_PER_M2 = 3.5
VENT_C_WIND = 0.3
VENT_C_DISCHARGE = 0.6
VENT_HEIGHT_M = 0.8
WINDOW_OPEN_AREA_M2 = 1.0

# Shared internal wall areas (m2) between zones.
# Layout: a 30 m x 15 m floor, 2.4 m ceilings, split pinwheel-style into
# four 105 m2 perimeter zones (each owning a quarter of the 90 m facade)
# around a 30 m2 service core. The pinwheel gives every perimeter zone
# the same envelope area and thermal mass, so no zone is much stiffer
# than the rest under the 1-minute integration step.
ADJACENCY_M2 = (
    (0.0, 24.0, 0.0, 24.0, 13.2),
    (24.0, 0.0, 24.0, 0.0, 13.2),
    (0.0, 24.0, 0.0, 24.0, 13.2),
    (24.0, 0.0, 24.0, 0.0, 13.2),
    (13.2, 13.2, 13.2, 13.2, 0.0),
)

# Derived per-zone arrays, computed once; read-only like the tuples above.
CAPACITANCES_J_PER_K = CAPACITANCE_AIR_MULTIPLE * RHO_CP_AIR * (
    np.asarray(FLOOR_AREAS_M2) * CEILING_HEIGHT_M)
UA_EXT_W_PER_K = (
    U_EXT_W_M2K * (np.asarray(WALL_AREAS_M2) - np.asarray(WINDOW_AREAS_M2))
    + U_WINDOW_W_M2K * np.asarray(WINDOW_AREAS_M2))
UA_INT_W_PER_K = U_INT_W_M2K * np.asarray(ADJACENCY_M2, dtype=float)
for _derived in (CAPACITANCES_J_PER_K, UA_EXT_W_PER_K, UA_INT_W_PER_K):
    _derived.setflags(write=False)
del _derived


def is_holiday(day: date) -> bool:
    return (day.month, day.day) in HOLIDAYS


def is_working_day(day: date) -> bool:
    return day.weekday() < 5 and not is_holiday(day)


def is_occupied(ts: datetime) -> bool:
    return (is_working_day(ts.date())
            and OCCUPIED_START_HOUR <= ts.hour < OCCUPIED_END_HOUR)


@dataclass
class WeatherSeries:
    """Outdoor boundary conditions at 15-minute cadence, one field per
    WEATHER_INTERVALS entry."""

    timestamps: list[datetime]
    t_out: np.ndarray
    h_out: np.ndarray
    w_out: np.ndarray
    l_norm: np.ndarray
    l_hor: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def validate(self) -> None:
        n = len(self.timestamps)
        for name, (lo, hi) in WEATHER_INTERVALS.items():
            series = getattr(self, name)
            if len(series) != n:
                raise ConfigurationError(f"weather series {name} length {len(series)} != {n}")
            bad = np.flatnonzero(~((series >= lo) & (series <= hi)))  # or NaN
            if bad.size:
                raise ConfigurationError(
                    f"weather series {name} value {series[bad[0]]} at index "
                    f"{bad[0]} outside [{lo}, {hi}]")
        k = cadence_break(self.timestamps)
        if k is not None:
            raise ConfigurationError(f"weather cadence break at index {k}")


@dataclass
class ScheduleSet:
    """Occupancy, equipment, lighting, and holiday series (15-min cadence)."""

    occupancy: np.ndarray      # (n, 5) persons
    equipment_w: np.ndarray    # (n, 5) watts
    lighting_on: np.ndarray    # (n,) 0/1
    holiday: np.ndarray        # (n,) 0/1

    def __len__(self) -> int:
        return self.occupancy.shape[0]


@dataclass
class ExcitationSignals:
    """Thermostat setpoints and window-opening commands per 15-min step."""

    sp_heat_c: np.ndarray      # (n, 5)
    sp_cool_c: np.ndarray      # (n, 5)
    window_open: np.ndarray    # (n, 4) 0/1

    def __len__(self) -> int:
        return self.sp_heat_c.shape[0]


@dataclass
class SimulatedDataset:
    """All dataset columns keyed by name, plus the shared timestamp axis.

    `audit_max_rel_err` is the largest relative energy-balance error of any
    zone over any inner step of the simulation that produced the dataset;
    it is NaN for a dataset that no simulation produced (loaded from CSV or
    built by hand).
    """

    timestamps: list[datetime]
    columns: dict[str, np.ndarray]
    audit_max_rel_err: float = math.nan

    def __len__(self) -> int:
        return len(self.timestamps)


def make_timestamps(start: datetime, steps: int) -> list[datetime]:
    tick = timedelta(seconds=SAMPLE_STEP_S)
    return [start + k * tick for k in range(steps)]


def cadence_break(timestamps: list[datetime]) -> int | None:
    """Index of the first timestamp off the 15-minute sequence that starts
    at the first one, or None."""
    expected = make_timestamps(timestamps[0], len(timestamps)) if timestamps else []
    return next((k for k, (got, want) in enumerate(zip(timestamps, expected))
                 if got != want), None)


# ---------------------------------------------------------------------------
# Excitation signals


MPRS_LEVELS = tuple(18.0 + 0.5 * k for k in range(9))   # 18.0 .. 22.0
MPRS_MAX_HOLD_STEPS = 16                                 # 15 min .. 4 h
SETBACK_HEAT_C = 15.0
SETBACK_COOL_C = 30.0
COOL_OFFSET_C = 5.0


def generate_mprs_setpoints(
    rng: np.random.Generator,
    timestamps: list[datetime],
) -> tuple[np.ndarray, np.ndarray]:
    """Randomized multi-level heating setpoints with a fixed cooling offset.

    Each zone runs one hold after another over the occupied steps: a
    hold draws its heating setpoint uniformly from {18.0, 18.5, ..., 22.0},
    then its length, a uniform 1..16 occupied steps, so it spans any
    unoccupied gap. Unoccupied steps keep the setback pair (15, 30).
    """
    occupied = np.flatnonzero([is_occupied(ts) for ts in timestamps])
    sp_heat = np.full((len(timestamps), ZONE_COUNT), SETBACK_HEAT_C)
    sp_cool = np.full((len(timestamps), ZONE_COUNT), SETBACK_COOL_C)
    levels = np.empty(len(occupied))  # one zone's setpoint per occupied row
    for z in range(ZONE_COUNT):
        start = 0
        while start < len(occupied):
            level = MPRS_LEVELS[rng.integers(0, len(MPRS_LEVELS))]
            stop = start + int(rng.integers(1, MPRS_MAX_HOLD_STEPS + 1))
            levels[start:stop] = level
            start = stop
        sp_heat[occupied, z] = levels
        sp_cool[occupied, z] = levels + COOL_OFFSET_C
    return sp_heat, sp_cool


PRBS_PULSE_STEPS = 2  # one opening lasts 30 minutes = 2 dataset steps


def generate_prbs_windows(
    rng: np.random.Generator,
    steps: int,
    p_open: float = 0.05,
    windows: int = len(WINDOW_ZONES),
) -> np.ndarray:
    """Pseudo-random binary window commands: each closed step draws once,
    and a trigger opens the window for exactly two consecutive 15-min
    steps; no draws occur mid-pulse."""
    if not 0.0 <= p_open <= 1.0:
        raise ConfigurationError(f"p_open {p_open} outside [0, 1]")
    out = np.zeros((steps, windows), dtype=np.int64)
    for w in range(windows):
        k = 0
        while k < steps:
            if rng.random() < p_open:
                out[k:k + PRBS_PULSE_STEPS, w] = 1
                k += PRBS_PULSE_STEPS
            else:
                k += 1
    return out


# ---------------------------------------------------------------------------
# Schedules

OCCUPANCY_BASE = (6, 6, 6, 6, 5)       # nominal headcount per zone
EQUIPMENT_STANDBY_W = 25.0
EQUIPMENT_PER_PERSON_W = 20.0


def generate_schedules(
    rng: np.random.Generator,
    timestamps: list[datetime],
) -> ScheduleSet:
    """Stochastic occupancy (arrive 07:00-09:00, leave 16:00-19:00, lunch
    dip), equipment tied to presence, and a lighting flag on in occupied
    hours. Days run 96 steps from the first timestamp, which must be at
    00:00; each working day draws every zone's arrival, departure and
    headcount."""
    n = len(timestamps)
    if n and timestamps[0].time() != time():
        raise ConfigurationError(
            f"schedules start at {timestamps[0].isoformat()}, not at 00:00")
    steps_per_day = 24 * 3600 // SAMPLE_STEP_S
    step_of_day = np.arange(steps_per_day)[:, None]
    occupancy = np.zeros((n, ZONE_COUNT))
    lighting = np.array([is_occupied(ts) for ts in timestamps], dtype=float)
    holiday = np.zeros(n)

    for start in range(0, n, steps_per_day):
        day = timestamps[start].date()
        holiday[start:start + steps_per_day] = is_holiday(day)
        if not is_working_day(day):
            continue
        arrivals = rng.integers(28, 37, size=ZONE_COUNT)    # 07:00-09:00
        departures = rng.integers(64, 77, size=ZONE_COUNT)  # 16:00-19:00
        counts = np.clip(
            np.asarray(OCCUPANCY_BASE) + rng.integers(-2, 3, size=ZONE_COUNT),
            0, 30)
        people = np.where((arrivals <= step_of_day)
                          & (step_of_day < departures), counts, 0)
        # lunch hour, 12:00-13:00: half of each zone stays, rounded up
        people[48:52] = (people[48:52] + 1) // 2
        occupancy[start:start + steps_per_day] = people[:n - start]

    jitter = rng.normal(0.0, 5.0, size=(n, ZONE_COUNT))
    equipment = np.clip(
        EQUIPMENT_STANDBY_W + EQUIPMENT_PER_PERSON_W * occupancy + jitter,
        0.0, 600.0)
    return ScheduleSet(occupancy, equipment, lighting, holiday)


# ---------------------------------------------------------------------------
# Physics


def ventilation_flow(
    a_open_m2: float,
    wind: float,
    t_in: float,
    t_out: float,
) -> float:
    """Wind-and-stack airflow (m3/s) through an opening, combined in
    quadrature; wind in m/s, temperatures in C.

    Q_wind = C_w * A * wind; Q_stack = C_d * A * sqrt(2 g dH |dT| / T_in_K).
    """
    if a_open_m2 < 0:
        raise ConfigurationError("opening area must be >= 0")
    q_wind = VENT_C_WIND * a_open_m2 * wind
    q_stack = VENT_C_DISCHARGE * a_open_m2 * math.sqrt(
        2.0 * GRAVITY * VENT_HEIGHT_M * abs(t_in - t_out) / (t_in + 273.15))
    return math.hypot(q_wind, q_stack)


# (capacitance, envelope UA, [(neighbour, UA)], summed interzone UA,
# thermostat gain, heating capacity, cooling capacity) per zone as Python
# floats; zero-area neighbours are left out, which adds nothing to the sum.
_ZONES = tuple(
    (cap, ua_ext, [(i, ua) for i, ua in enumerate(row) if ua != 0.0],
     ua_sum, gain, heat_cap, cool_cap)
    for cap, ua_ext, row, ua_sum, gain, heat_cap, cool_cap in zip(
        CAPACITANCES_J_PER_K.tolist(), UA_EXT_W_PER_K.tolist(),
        UA_INT_W_PER_K.tolist(), UA_INT_W_PER_K.sum(axis=1).tolist(),
        THERMOSTAT_GAIN_W_PER_K, HEAT_CAPACITY_W, COOL_CAPACITY_W))


def _boundary_gains(
    t_out: float,
    dni: float,
    dhi: float,
    occupants: np.ndarray,
    equipment_w: np.ndarray,
    lights_on: float,
) -> np.ndarray:
    """Per-zone gains that stay constant within one 15-min block.

    Takes one block (scalar weather, (5,) schedules) or many at once
    ((n, 1) weather and lights, (n, 5) schedules); each block's gains
    come out the same either way.
    """
    attenuation = np.where(t_out > SHADE_THRESHOLD_C, SHADE_FACTOR, 1.0)
    solar = (SOLAR_G_VALUE * np.asarray(WINDOW_AREAS_M2)
             * (np.asarray(SOLAR_DNI_FRACTION) * dni
                + np.asarray(SOLAR_DHI_FRACTION) * dhi) * attenuation)
    internal = (OCCUPANT_GAIN_W * occupants + equipment_w
                + LIGHTING_W_PER_M2 * np.asarray(FLOOR_AREAS_M2) * lights_on)
    return solar + internal


def simulate(
    weather: WeatherSeries,
    schedules: ScheduleSet,
    signals: ExcitationSignals,
    inner_step_s: int = 60,
    initial_t_in_c: float = 20.0,
) -> SimulatedDataset:
    """Run the RC model over the supplied series and emit the dataset.

    Physics advance with an inner explicit-Euler step (default 1 min);
    rows are sampled every 15 min at block start. Boundary conditions are
    held constant within each block. The inner loop runs on Python floats,
    one zone at a time: on five-element arrays numpy's per-call overhead
    outweighs the arithmetic. Every inner step audits the energy balance
    of each zone and refuses a temperature outside [-50, 60] C.
    """
    n = len(weather)
    if n < 1:
        raise ConfigurationError("simulation needs at least one step")
    for name, series in (("schedules", schedules), ("signals", signals)):
        if len(series) < n:
            raise ConfigurationError(
                f"{name} covers {len(series)} steps, need {n}")
    if inner_step_s < 1:
        raise ConfigurationError(
            f"inner step {inner_step_s}s must be at least 1s")
    if SAMPLE_STEP_S % inner_step_s != 0:
        raise ConfigurationError(
            f"inner step {inner_step_s}s must divide {SAMPLE_STEP_S}s")
    weather.validate()

    inner_per_block = SAMPLE_STEP_S // inner_step_s
    dt = float(inner_step_s)
    t = [float(initial_t_in_c)] * ZONE_COUNT
    rows = []
    audit_max = 0.0

    # Each block's constant inputs, converted to Python floats up front.
    gains = _boundary_gains(
        weather.t_out[:, None], weather.l_norm[:, None],
        weather.l_hor[:, None], schedules.occupancy[:n],
        schedules.equipment_w[:n], schedules.lighting_on[:n, None])
    window_open = np.zeros((n, ZONE_COUNT), dtype=bool)
    window_open[:, WINDOW_ZONES] = signals.window_open[:n] != 0
    blocks = zip(weather.t_out.tolist(), weather.w_out.tolist(),
                 gains.tolist(), signals.sp_heat_c[:n].tolist(),
                 signals.sp_cool_c[:n].tolist(), window_open.tolist())

    for k, (t_out, wind, *per_zone) in enumerate(blocks):
        rows.append(t)
        block = tuple(zip(range(ZONE_COUNT), _ZONES, *per_zone))
        for j in range(inner_per_block):
            t_next = []
            for (z, (cap, ua_ext, neighbours, ua_sum, stat_gain, heat_cap,
                     cool_cap), gain, sp_heat, sp_cool, is_open) in block:
                # The flux into the zone (W), summed in a fixed order:
                # envelope, interzone, gains, HVAC, then ventilation if open.
                t_z = t[z]
                coupled = 0.0
                for i, ua in neighbours:
                    coupled += ua * t[i]
                heat = stat_gain * (sp_heat - t_z)
                if heat < 0.0:
                    heat = 0.0
                elif heat > heat_cap:
                    heat = heat_cap
                cool = stat_gain * (t_z - sp_cool)
                if cool < 0.0:
                    cool = 0.0
                elif cool > cool_cap:
                    cool = cool_cap
                total = (ua_ext * (t_out - t_z) + (coupled - ua_sum * t_z)
                         + gain + (heat - cool))
                if is_open:
                    flow = ventilation_flow(WINDOW_OPEN_AREA_M2, wind, t_z,
                                            t_out)
                    total += RHO_CP_AIR * flow * (t_out - t_z)
                t_new = t_z + dt * total / cap
                scale = abs(total * dt)
                err = abs(cap * (t_new - t_z) - total * dt) / (
                    scale if scale > 1.0 else 1.0)
                if err > audit_max:
                    audit_max = err
                if not -50.0 <= t_new <= 60.0:
                    raise SimulationError(
                        f"zone {ZONE_NAMES[z]} diverged to {t_new:.2f} C "
                        f"at sample {k}, inner step {j}")
                t_next.append(t_new)
            t = t_next
    t_in_rows = np.array(rows)

    columns: dict[str, np.ndarray] = {
        name: getattr(weather, name).astype(float)
        for name in WEATHER_INTERVALS}
    columns["hol"] = schedules.holiday[:n].astype(float)
    for i in range(ZONE_COUNT):
        columns[f"occu_{i + 1}"] = schedules.occupancy[:n, i].astype(float)
        columns[f"e_{i + 1}"] = schedules.equipment_w[:n, i].astype(float)
        columns[f"sp_heat_{i + 1}"] = signals.sp_heat_c[:n, i].astype(float)
        columns[f"sp_cool_{i + 1}"] = signals.sp_cool_c[:n, i].astype(float)
        columns[f"t_in_{i + 1}"] = t_in_rows[:, i]
    for w in range(len(WINDOW_ZONES)):
        columns[f"ws_{w + 1}"] = signals.window_open[:n, w].astype(float)

    return SimulatedDataset(
        timestamps=list(weather.timestamps),
        columns=columns,
        audit_max_rel_err=audit_max)


# ---------------------------------------------------------------------------
# Synthetic weather


def synth_weather(
    rng: np.random.Generator,
    days: int,
    start: datetime | None = None,
) -> WeatherSeries:
    """Mild synthetic climate: seasonal and diurnal temperature cycles with
    AR(1) noise, half-sine daytime irradiance under daily cloud cover, a
    reflected-AR(1) wind, and bounded humidity."""
    check_count("days", days, minimum=1)
    if start is None:
        start = datetime(2021, 1, 1)
    if start.time() != time():
        raise ConfigurationError(
            f"weather starts at {start.isoformat()}, not at 00:00")
    n = days * (24 * 3600 // SAMPLE_STEP_S)
    timestamps = make_timestamps(start, n)

    k = np.arange(n)
    hours = (k % 96) * 0.25
    day_index = k // 96
    doy = (start.timetuple().tm_yday - 1 + day_index) % 365

    seasonal = 21.0 - 6.0 * np.cos(2.0 * np.pi * (doy - 14) / 365.0)
    diurnal = -3.5 * np.cos(2.0 * np.pi * (hours - 14.5) / 24.0)

    ar = np.empty(n)
    innovations = rng.normal(0.0, 0.468, size=n)
    state = 0.0
    for i in range(n):
        state = 0.95 * state + innovations[i]
        ar[i] = state
    t_out = np.clip(seasonal + diurnal + ar, 15.0, 30.0)

    clear = np.clip(np.sin(np.pi * (hours - 6.0) / 12.0), 0.0, None)
    season_f = 0.7 + 0.3 * (seasonal - 15.0) / 12.0
    cloud_daily = rng.uniform(0.3, 1.0, size=days)
    cloud = np.clip(
        np.repeat(cloud_daily, 96)[:n] + rng.normal(0.0, 0.02, size=n),
        0.25, 1.0)
    dni = 900.0 * clear * cloud * season_f
    dhi = clear * (80.0 + 250.0 * (1.0 - 0.5 * cloud))

    wind = np.empty(n)
    gusts = rng.normal(0.0, 0.25, size=n)
    w = 1.0
    for i in range(n):
        w = abs(0.9 * w + gusts[i])
        wind[i] = w
    wind = np.clip(wind, 0.0, 2.0)

    rh = np.clip(72.0 - 1.2 * (t_out - seasonal) + rng.normal(0.0, 4.0, size=n),
                 25.0, 100.0)

    series = WeatherSeries(timestamps, t_out, rh, wind, dni, dhi)
    series.validate()
    return series


def simulator_inputs(seed: int, days: int, start: datetime | None = None
                     ) -> tuple[WeatherSeries, ScheduleSet, ExcitationSignals]:
    """Return `simulate`'s (weather, schedules, signals) for `days` days,
    drawn from one generator seeded with `SeedSequence(seed)` in a fixed
    order: weather, schedules, setpoints, windows."""
    check_seed("seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weather = synth_weather(rng, days, start=start)
    schedules = generate_schedules(rng, weather.timestamps)
    sp_heat, sp_cool = generate_mprs_setpoints(rng, weather.timestamps)
    windows = generate_prbs_windows(rng, len(weather))
    return weather, schedules, ExcitationSignals(sp_heat, sp_cool, windows)


# ---------------------------------------------------------------------------
# CSV serialization (repr floats: lossless round trips)


def _parse_timestamp(text: str) -> datetime:
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None
    # save_dataset_csv writes naive timestamps; an offset-aware one never
    # equals a naive one, so the cadence check would misreport it
    if ts.tzinfo is not None:
        raise ParseError(f"timestamp {text!r} has a UTC offset")
    if ts.isoformat() != text:
        raise ParseError(f"timestamp {text!r} is not in the writer's form "
                         f"{ts.isoformat()!r}")
    return ts


# One dataset row. A writer's timestamp text is at most 26 characters; the
# 27-character field keeps a longer text from being cut down to one.
_DATASET_DTYPE = np.dtype([("timestamp", "U27")]
                          + [(name, "f8") for name in DATASET_COLUMNS])
_DATASET_RULES = ([lambda text: _parse_timestamp(text).isoformat()]
                  + [finite] * len(DATASET_COLUMNS))


def save_dataset_csv(dataset: SimulatedDataset, path: str) -> None:
    """Write the header and one row per timestamp, numbers as `repr` and
    lines ending in `\\r\\n`. Each row is one `",".join`; the rows are
    streamed, since one string of the whole file doubles the writer's
    peak memory."""
    columns = [map(repr, np.asarray(dataset.columns[c], dtype=float).tolist())
               for c in DATASET_COLUMNS]
    rows = map(",".join, zip((ts.isoformat() for ts in dataset.timestamps),
                             *columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_DATASET_DTYPE.names) + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)


def load_dataset_csv(path: str) -> SimulatedDataset:
    """Read the layout `save_dataset_csv` writes with the package's table
    reader. A parsed table is taken when its numbers are finite and its
    timestamp texts are the writer's 15-minute sequence from the first
    one. Otherwise the rescan names the first bad row or, if every row is
    good, the row where the cadence breaks."""
    rows = parse_table(path, _DATASET_DTYPE)
    timestamps = None if rows is None else _writer_timestamps(rows)
    if timestamps is None:
        rows = scan_table(path, "dataset", _DATASET_DTYPE, _DATASET_RULES)
        timestamps = [datetime.fromisoformat(text)
                      for text in rows["timestamp"].tolist()]
        k = cadence_break(timestamps)
        if k is not None:
            gap = (timestamps[k] - timestamps[k - 1]).total_seconds()
            raise ParseError(f"timestamp gap of {gap:.0f}s (need "
                             f"{SAMPLE_STEP_S}s)", row=k + 2)
    return SimulatedDataset(timestamps, {name: rows[name].copy()
                                         for name in DATASET_COLUMNS})


def _writer_timestamps(rows: np.ndarray) -> list[datetime] | None:
    """The timestamps of parsed rows whose numbers are finite and whose
    timestamp texts are the writer's sequence, else None."""
    texts = rows["timestamp"].tolist()
    try:
        timestamps = make_timestamps(_parse_timestamp(texts[0]), len(texts))
    except ParseError:
        return None
    ok = (all(np.isfinite(rows[name]).all() for name in DATASET_COLUMNS)
          and [ts.isoformat() for ts in timestamps] == texts)
    return timestamps if ok else None
