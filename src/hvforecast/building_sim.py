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

import csv
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from .errors import ConfigurationError, ParseError, SimulationError

ZONE_NAMES = ("south", "east", "north", "west", "core")
ZONE_COUNT = 5
WINDOW_ZONES = (0, 1, 2, 3)  # exterior zones carry one operable window each

RHO_CP_AIR = 1.2 * 1005.0    # J/(m3 K), air density times specific heat
GRAVITY = 9.81               # m/s2

SAMPLE_STEP_S = 900          # dataset cadence: 15 minutes

# Fixed-date public holidays (month, day); weekends are handled separately.
DEFAULT_HOLIDAYS = (
    (1, 1), (5, 1), (7, 4), (9, 6), (11, 25), (12, 24), (12, 25), (12, 31),
)

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

# Intervals the emitted dataset must respect (scaling contract downstream).
WEATHER_INTERVALS = {
    "t_out_c": (-30.0, 40.0),
    "rh_pct": (0.0, 100.0),
    "wind_mps": (0.0, 25.0),
    "dni_wm2": (0.0, 1300.0),
    "dhi_wm2": (0.0, 1300.0),
}


def _default_adjacency() -> tuple[tuple[float, ...], ...]:
    """Shared internal wall areas (m2) between zones.

    Layout: a 30 m x 15 m floor, 2.4 m ceilings, split pinwheel-style into
    four 105 m2 perimeter zones (each owning a quarter of the 90 m facade)
    around a 30 m2 service core. The pinwheel gives every perimeter zone
    the same envelope area and thermal mass, so no zone is much stiffer
    than the rest under the 1-minute integration step.
    """
    a = np.zeros((5, 5))
    pairs = {
        (0, 1): 24.0, (1, 2): 24.0,          # perimeter ring neighbours
        (2, 3): 24.0, (3, 0): 24.0,
        (0, 4): 13.2, (1, 4): 13.2,          # perimeter to core
        (2, 4): 13.2, (3, 4): 13.2,
    }
    for (i, j), area in pairs.items():
        a[i, j] = area
        a[j, i] = area
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class BuildingSpec:
    """Geometry, envelope, plant, and ventilation constants for the model."""

    floor_areas_m2: tuple[float, ...] = (105.0, 105.0, 105.0, 105.0, 30.0)
    ceiling_height_m: float = 2.4
    wall_areas_m2: tuple[float, ...] = (54.0, 54.0, 54.0, 54.0, 0.0)
    window_areas_m2: tuple[float, ...] = (12.0, 12.0, 12.0, 12.0, 0.0)
    adjacency_m2: tuple[tuple[float, ...], ...] = field(
        default_factory=_default_adjacency)
    u_ext_w_m2k: float = 2.8
    u_int_w_m2k: float = 1.6
    u_window_w_m2k: float = 0.7
    solar_g_value: float = 0.12
    shade_threshold_c: float = 23.0
    shade_factor: float = 0.3
    # Fraction of direct-normal / diffuse-horizontal irradiance reaching
    # each zone's glazing (orientation surrogate).
    solar_dni_fraction: tuple[float, ...] = (0.5, 0.3, 0.1, 0.3, 0.0)
    solar_dhi_fraction: tuple[float, ...] = (0.5, 0.5, 0.5, 0.5, 0.0)
    capacitance_air_multiple: float = 5.0
    # Plant sized per zone (100 / 80 W per m2 of floor) so every zone warms
    # and cools at the same rate; thermostat gain scales the same way.
    heat_capacity_w: tuple[float, ...] = (
        10500.0, 10500.0, 10500.0, 10500.0, 3000.0)
    cool_capacity_w: tuple[float, ...] = (
        8400.0, 8400.0, 8400.0, 8400.0, 2400.0)
    thermostat_gain_w_per_k: tuple[float, ...] = (
        4200.0, 4200.0, 4200.0, 4200.0, 1600.0)
    occupant_gain_w: float = 75.0
    lighting_w_per_m2: float = 3.5
    vent_c_wind: float = 0.3
    vent_c_discharge: float = 0.6
    vent_height_m: float = 0.8
    window_open_area_m2: float = 1.0

    def validate(self) -> None:
        per_zone = ("floor_areas_m2", "wall_areas_m2", "window_areas_m2",
                    "solar_dni_fraction", "solar_dhi_fraction",
                    "heat_capacity_w", "cool_capacity_w",
                    "thermostat_gain_w_per_k")
        for name in per_zone:
            if len(getattr(self, name)) != ZONE_COUNT:
                raise ConfigurationError(f"{name} must have {ZONE_COUNT} entries")
        if min(self.floor_areas_m2) <= 0:
            raise ConfigurationError("floor_areas_m2 entries must be positive")
        if min(self.wall_areas_m2) < 0 or min(self.window_areas_m2) < 0:
            raise ConfigurationError("envelope areas must be non-negative")
        if self.window_areas_m2[4] != 0.0:
            raise ConfigurationError("interior zone cannot have a window")
        for wall, win in zip(self.wall_areas_m2, self.window_areas_m2):
            if win > wall:
                raise ConfigurationError("window area exceeds its wall area")
        for name in ("ceiling_height_m", "u_ext_w_m2k", "u_int_w_m2k",
                     "u_window_w_m2k", "capacitance_air_multiple"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("heat_capacity_w", "cool_capacity_w",
                     "thermostat_gain_w_per_k"):
            if min(getattr(self, name)) <= 0:
                raise ConfigurationError(f"{name} entries must be positive")
        adj = np.asarray(self.adjacency_m2, dtype=float)
        if adj.shape != (ZONE_COUNT, ZONE_COUNT):
            raise ConfigurationError("adjacency_m2 must be 5x5")
        if np.any(adj < 0) or np.any(np.diag(adj) != 0):
            raise ConfigurationError("adjacency areas must be >= 0 with zero diagonal")
        if not np.array_equal(adj, adj.T):
            raise ConfigurationError("adjacency_m2 must be symmetric")

    @property
    def volumes_m3(self) -> np.ndarray:
        return np.asarray(self.floor_areas_m2) * self.ceiling_height_m

    @property
    def capacitances_j_per_k(self) -> np.ndarray:
        return self.capacitance_air_multiple * RHO_CP_AIR * self.volumes_m3

    @property
    def ua_ext_w_per_k(self) -> np.ndarray:
        wall = np.asarray(self.wall_areas_m2)
        win = np.asarray(self.window_areas_m2)
        return self.u_ext_w_m2k * (wall - win) + self.u_window_w_m2k * win

    @property
    def ua_int_w_per_k(self) -> np.ndarray:
        return self.u_int_w_m2k * np.asarray(self.adjacency_m2, dtype=float)


@dataclass(frozen=True)
class Calendar:
    """Working-day and occupied-hour definitions driving every schedule."""

    holidays: tuple[tuple[int, int], ...] = DEFAULT_HOLIDAYS
    occupied_start_hour: int = 7
    occupied_end_hour: int = 19

    def is_holiday(self, day: date) -> bool:
        return (day.month, day.day) in self.holidays

    def is_working_day(self, day: date) -> bool:
        return day.weekday() < 5 and not self.is_holiday(day)

    def is_occupied(self, ts: datetime) -> bool:
        return (self.is_working_day(ts.date())
                and self.occupied_start_hour <= ts.hour < self.occupied_end_hour)


@dataclass
class WeatherSeries:
    """Outdoor boundary conditions at 15-minute cadence."""

    timestamps: list[datetime]
    t_out_c: np.ndarray
    rh_pct: np.ndarray
    wind_mps: np.ndarray
    dni_wm2: np.ndarray
    dhi_wm2: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def validate(self) -> None:
        n = len(self.timestamps)
        for name in ("t_out_c", "rh_pct", "wind_mps", "dni_wm2", "dhi_wm2"):
            series = getattr(self, name)
            if len(series) != n:
                raise ConfigurationError(f"weather series {name} length {len(series)} != {n}")
            lo, hi = WEATHER_INTERVALS[name]
            if np.any(series < lo) or np.any(series > hi):
                raise ConfigurationError(f"weather series {name} outside [{lo}, {hi}]")
        for k in range(1, n):
            if (self.timestamps[k] - self.timestamps[k - 1]).total_seconds() != SAMPLE_STEP_S:
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
    calendar: Calendar,
    zones: int = ZONE_COUNT,
) -> tuple[np.ndarray, np.ndarray]:
    """Randomized multi-level heating setpoints with a fixed cooling offset.

    During occupied hours the heating setpoint is drawn uniformly from
    {18.0, 18.5, ..., 22.0} and held for a uniform 1..16 occupied steps;
    outside them the setback pair (15, 30) applies and holds are frozen.
    """
    n = len(timestamps)
    occupied = np.array([calendar.is_occupied(ts) for ts in timestamps])
    sp_heat = np.full((n, zones), SETBACK_HEAT_C)
    sp_cool = np.full((n, zones), SETBACK_COOL_C)
    for z in range(zones):
        remaining = 0
        level = MPRS_LEVELS[0]
        for k in range(n):
            if not occupied[k]:
                continue
            if remaining == 0:
                level = MPRS_LEVELS[rng.integers(0, len(MPRS_LEVELS))]
                remaining = int(rng.integers(1, MPRS_MAX_HOLD_STEPS + 1))
            sp_heat[k, z] = level
            sp_cool[k, z] = level + COOL_OFFSET_C
            remaining -= 1
    return sp_heat, sp_cool


PRBS_PULSE_STEPS = 2  # one opening lasts 30 minutes = 2 dataset steps


def generate_prbs_windows(
    rng: np.random.Generator,
    steps: int,
    p_open: float = 0.05,
    windows: int = len(WINDOW_ZONES),
) -> np.ndarray:
    """Pseudo-random binary window commands: each trigger opens a window
    for exactly two consecutive 15-min steps; no draws occur mid-pulse."""
    if not 0.0 <= p_open <= 1.0:
        raise ConfigurationError(f"p_open {p_open} outside [0, 1]")
    out = np.zeros((steps, windows), dtype=np.int64)
    for w in range(windows):
        remaining = 0
        for k in range(steps):
            if remaining > 0:
                out[k, w] = 1
                remaining -= 1
            elif rng.random() < p_open:
                out[k, w] = 1
                remaining = PRBS_PULSE_STEPS - 1
    return out


# ---------------------------------------------------------------------------
# Schedules

OCCUPANCY_BASE = (6, 6, 6, 6, 5)       # nominal headcount per zone
EQUIPMENT_STANDBY_W = 25.0
EQUIPMENT_PER_PERSON_W = 20.0


def generate_schedules(
    rng: np.random.Generator,
    timestamps: list[datetime],
    calendar: Calendar,
) -> ScheduleSet:
    """Stochastic occupancy (arrive 07:00-09:00, leave 16:00-19:00, lunch
    dip), equipment tied to presence, and a fixed working-hours lighting
    flag."""
    n = len(timestamps)
    steps_per_day = 24 * 3600 // SAMPLE_STEP_S
    occupancy = np.zeros((n, ZONE_COUNT))
    lighting = np.zeros(n)
    holiday = np.zeros(n)

    day_starts = range(0, n, steps_per_day)
    for start_idx in day_starts:
        day = timestamps[start_idx].date()
        day_slice = slice(start_idx, min(start_idx + steps_per_day, n))
        if calendar.is_holiday(day):
            holiday[day_slice] = 1.0
        if not calendar.is_working_day(day):
            continue
        arrivals = rng.integers(28, 37, size=ZONE_COUNT)    # 07:00-09:00
        departures = rng.integers(64, 77, size=ZONE_COUNT)  # 16:00-19:00
        counts = np.clip(
            np.asarray(OCCUPANCY_BASE) + rng.integers(-2, 3, size=ZONE_COUNT),
            0, 30)
        for k in range(day_slice.start, day_slice.stop):
            step_of_day = k - start_idx
            hour = timestamps[k].hour
            if (calendar.occupied_start_hour <= hour
                    < calendar.occupied_end_hour):
                lighting[k] = 1.0
            for z in range(ZONE_COUNT):
                if arrivals[z] <= step_of_day < departures[z]:
                    people = counts[z]
                    if 48 <= step_of_day < 52:  # lunch hour, 12:00-13:00
                        people = math.ceil(people / 2)
                    occupancy[k, z] = float(people)

    jitter = rng.normal(0.0, 5.0, size=(n, ZONE_COUNT))
    equipment = np.clip(
        EQUIPMENT_STANDBY_W + EQUIPMENT_PER_PERSON_W * occupancy + jitter,
        0.0, 600.0)
    return ScheduleSet(occupancy, equipment, lighting, holiday)


# ---------------------------------------------------------------------------
# Physics


def ventilation_flow(
    a_open_m2: float,
    wind_mps: float,
    t_in_c: float,
    t_out_c: float,
    c_wind: float = 0.3,
    c_discharge: float = 0.6,
    delta_h_m: float = 0.8,
) -> float:
    """Wind-and-stack airflow through an opening, combined in quadrature.

    Q_wind = C_w * A * wind; Q_stack = C_d * A * sqrt(2 g dH |dT| / T_in_K).
    """
    if a_open_m2 < 0:
        raise ConfigurationError("opening area must be >= 0")
    q_wind = c_wind * a_open_m2 * wind_mps
    q_stack = c_discharge * a_open_m2 * math.sqrt(
        2.0 * GRAVITY * delta_h_m * abs(t_in_c - t_out_c) / (t_in_c + 273.15))
    return math.hypot(q_wind, q_stack)


class _Engine:
    """Per-zone constants as Python floats and the flux routine of the
    simulation loop."""

    def __init__(self, spec: BuildingSpec):
        spec.validate()
        self.spec = spec
        self.cap = spec.capacitances_j_per_k.tolist()
        ua_int = spec.ua_int_w_per_k
        # (envelope UA, [(neighbour, UA)], summed interzone UA, thermostat
        # gain, heating capacity, cooling capacity) per zone; zero-area
        # neighbours are left out, which adds nothing to the sum.
        self.zones = tuple(
            (ua_ext, [(j, ua) for j, ua in enumerate(row) if ua != 0.0],
             ua_sum, gain, heat_cap, cool_cap)
            for ua_ext, row, ua_sum, gain, heat_cap, cool_cap in zip(
                spec.ua_ext_w_per_k.tolist(), ua_int.tolist(),
                ua_int.sum(axis=1).tolist(), spec.thermostat_gain_w_per_k,
                spec.heat_capacity_w, spec.cool_capacity_w))
        self.win_area = np.asarray(spec.window_areas_m2)
        self.dni_frac = np.asarray(spec.solar_dni_fraction)
        self.dhi_frac = np.asarray(spec.solar_dhi_fraction)
        self.floor = np.asarray(spec.floor_areas_m2)

    def boundary_gains(
        self,
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
        spec = self.spec
        attenuation = np.where(t_out > spec.shade_threshold_c,
                               spec.shade_factor, 1.0)
        solar = (spec.solar_g_value * self.win_area
                 * (self.dni_frac * dni + self.dhi_frac * dhi) * attenuation)
        internal = (spec.occupant_gain_w * occupants + equipment_w
                    + spec.lighting_w_per_m2 * self.floor * lights_on)
        return solar + internal

    def zone_flux(
        self,
        z: int,
        t: list[float],
        t_out: float,
        wind: float,
        gain_w: float,
        sp_heat: float,
        sp_cool: float,
        window_open: bool,
    ) -> float:
        """Return the total flux (W) into zone `z` at zone temperatures `t`.
        The terms are summed in a fixed order: envelope conduction,
        interzone conduction, gains, HVAC, and ventilation when the zone's
        window is open."""
        ua_ext, neighbours, ua_sum, stat_gain, heat_cap, cool_cap = self.zones[z]
        t_z = t[z]
        coupled = 0.0
        for j, ua in neighbours:
            coupled += ua * t[j]
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
                 + gain_w + (heat - cool))
        if window_open:
            spec = self.spec
            flow = ventilation_flow(
                spec.window_open_area_m2, wind, t_z, t_out,
                spec.vent_c_wind, spec.vent_c_discharge, spec.vent_height_m)
            total += RHO_CP_AIR * flow * (t_out - t_z)
        return total


def simulate(
    spec: BuildingSpec,
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

    engine = _Engine(spec)
    flux = engine.zone_flux
    inner_per_block = SAMPLE_STEP_S // inner_step_s
    dt = float(inner_step_s)
    t = [float(initial_t_in_c)] * ZONE_COUNT
    rows = []
    audit_max = 0.0

    # Each block's constant inputs, converted to Python floats up front.
    gains = engine.boundary_gains(
        weather.t_out_c[:, None], weather.dni_wm2[:, None],
        weather.dhi_wm2[:, None], schedules.occupancy[:n],
        schedules.equipment_w[:n], schedules.lighting_on[:n, None])
    window_open = np.zeros((n, ZONE_COUNT), dtype=bool)
    window_open[:, WINDOW_ZONES] = signals.window_open[:n] != 0
    blocks = zip(weather.t_out_c.tolist(), weather.wind_mps.tolist(),
                 gains.tolist(), signals.sp_heat_c[:n].tolist(),
                 signals.sp_cool_c[:n].tolist(), window_open.tolist())

    for k, (t_out, wind, *per_zone) in enumerate(blocks):
        rows.append(t)
        block = tuple(zip(range(ZONE_COUNT), engine.cap, *per_zone))
        for j in range(inner_per_block):
            t_next = []
            for z, cap, gain, sp_heat, sp_cool, is_open in block:
                total = flux(z, t, t_out, wind, gain, sp_heat, sp_cool,
                             is_open)
                t_z = t[z]
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
        "t_out": weather.t_out_c.astype(float),
        "h_out": weather.rh_pct.astype(float),
        "w_out": weather.wind_mps.astype(float),
        "l_norm": weather.dni_wm2.astype(float),
        "l_hor": weather.dhi_wm2.astype(float),
        "hol": schedules.holiday[:n].astype(float),
    }
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
    if days < 1:
        raise ConfigurationError("days must be >= 1")
    if start is None:
        start = datetime(2021, 1, 1)
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


# ---------------------------------------------------------------------------
# CSV serialization (repr floats: lossless round trips)


def _parse_timestamp(text: str, row: int) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}", row=row) from None


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"column {column}: not a number: {text!r}", row=row) from None
    if not math.isfinite(value):
        raise ParseError(f"column {column}: not finite: {text!r}", row=row)
    return value


def save_dataset_csv(dataset: SimulatedDataset, path: str) -> None:
    # csv writes a Python float as its repr, so converting each column
    # once gives the same bytes as formatting every cell.
    columns = [np.asarray(dataset.columns[c], dtype=float).tolist()
               for c in DATASET_COLUMNS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + DATASET_COLUMNS)
        writer.writerows(zip((ts.isoformat() for ts in dataset.timestamps),
                             *columns))


def load_dataset_csv(path: str) -> SimulatedDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty dataset file", row=1)
        if header[0] != "timestamp":
            raise ParseError("first column must be 'timestamp'", row=1)
        expected = set(DATASET_COLUMNS)
        got = set(header[1:])
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            parts = []
            if missing:
                parts.append(f"missing {missing}")
            if extra:
                parts.append(f"unknown {extra}")
            raise ParseError("dataset header mismatch: " + "; ".join(parts), row=1)
        if len(header) != len(set(header)):
            raise ParseError("duplicate dataset columns", row=1)
        names = header[1:]
        timestamps: list[datetime] = []
        rows: list[list[float]] = []
        for line_no, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(fields)}", row=line_no)
            ts = _parse_timestamp(fields[0], line_no)
            if timestamps and (ts - timestamps[-1]).total_seconds() != SAMPLE_STEP_S:
                gap = (ts - timestamps[-1]).total_seconds()
                raise ParseError(
                    f"timestamp gap of {gap:.0f}s (need {SAMPLE_STEP_S}s)",
                    row=line_no)
            timestamps.append(ts)
            rows.append([_parse_float(text, names[j], line_no)
                         for j, text in enumerate(fields[1:])])
    if not timestamps:
        raise ParseError("dataset file has no data rows", row=2)
    table = np.asarray(rows)
    columns = {name: table[:, j].copy() for j, name in enumerate(names)}
    return SimulatedDataset(timestamps=timestamps, columns=columns)
