"""Dataset-to-sample transformation: fixed min-max scaling, cyclical time
encodings, forecast-noise injection, sliding-window assembly, and
chronological train/validation/test splitting.

Feature order is fixed by the tuples below. Columns are looked up by name
in memory; the dataset file has one column order, the writer's.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from operator import attrgetter, methodcaller

import numpy as np

from .building_sim import WEATHER_INTERVALS, SimulatedDataset
from .errors import (ConfigurationError, check_count, check_number,
                     check_numbers, check_seed)

WEATHER_FEATURES = tuple(WEATHER_INTERVALS)

TIME_FEATURES = ("hour_sin", "hour_cos", "dow_sin", "dow_cos",
                 "month_sin", "month_cos")

PAST_FEATURES = (
    WEATHER_FEATURES + TIME_FEATURES + ("hol",)
    + tuple(f"e_{z}" for z in range(1, 6))
    + tuple(f"occu_{z}" for z in range(1, 6))
    + tuple(f"ws_{w}" for w in range(1, 5))
    + tuple(f"sp_heat_{z}" for z in range(1, 6))
    + tuple(f"t_in_{z}" for z in range(1, 6))
)

FUTURE_FEATURES = (
    WEATHER_FEATURES + TIME_FEATURES + ("hol",)
    + tuple(f"ws_{w}" for w in range(1, 5))
    + tuple(f"sp_heat_{z}" for z in range(1, 6))
)

TARGET_FEATURES = tuple(f"t_in_{z}" for z in range(1, 6))

_MONTH_DAYS = np.array(calendar.mdays[1:])  # February of a common year

_UNIT = (-1.0, 1.0)
# The paper's Table 1: each model variable's scaling interval, fixed like
# the building the simulator models.
TABLE1_INTERVALS: dict[str, tuple[float, float]] = {
    **WEATHER_INTERVALS,
    "hour_sin": _UNIT, "hour_cos": _UNIT,
    "dow_sin": _UNIT, "dow_cos": _UNIT,
    "month_sin": _UNIT, "month_cos": _UNIT,
    "hol": (0.0, 1.0),
    **{f"e_{z}": (0.0, 1000.0) for z in range(1, 6)},
    **{f"occu_{z}": (0.0, 30.0) for z in range(1, 6)},
    **{f"ws_{w}": (0.0, 1.0) for w in range(1, 5)},
    **{f"sp_heat_{z}": (15.0, 30.0) for z in range(1, 6)},
    **{f"t_in_{z}": (10.0, 40.0) for z in range(1, 6)},
}

def _interval(feature: str) -> tuple[float, float]:
    try:
        return TABLE1_INTERVALS[feature]
    except KeyError:
        raise ConfigurationError(
            f"no scaling interval defined for feature {feature!r}"
        ) from None


class Scaler:
    """Min-max map from the Table 1 intervals onto [-1, 1] with clamping
    and per-feature clamp counts; non-finite inputs are refused."""

    def __init__(self):
        self.clamp_counts: dict[str, int] = {}

    def scale(self, values, feature: str) -> np.ndarray:
        """`rescale`, after refusing non-finite values and adding the cells
        outside the feature's interval to `clamp_counts`."""
        lo, hi = _interval(feature)
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError(
                f"cannot scale non-finite values of feature {feature!r}")
        hits = int(np.count_nonzero((arr < lo) | (arr > hi)))
        if hits:
            self.clamp_counts[feature] = (
                self.clamp_counts.get(feature, 0) + hits)
        return self.rescale(arr, feature)

    def rescale(self, values, feature) -> np.ndarray:
        """Clamp to the feature's interval and map onto [-1, 1] without
        counting, for values derived from cells `scale` has counted.
        `feature` names one feature, or is a tuple of names along the
        last axis of `values`."""
        if isinstance(feature, str):
            lo, hi = _interval(feature)
        else:
            lo, hi = np.array([_interval(name) for name in feature]).T
        clipped = np.clip(np.asarray(values, dtype=float), lo, hi)
        return 2.0 * (clipped - lo) / (hi - lo) - 1.0

    def inverse_scale_targets(self, scaled, axis: int) -> np.ndarray:
        """Map scaled indoor temperatures back to degrees C; `axis` runs
        over the zones in TARGET_FEATURES order."""
        arr = np.asarray(scaled, dtype=float)
        shape = [1] * arr.ndim
        shape[axis] = len(TARGET_FEATURES)
        bounds = np.array([TABLE1_INTERVALS[name]
                           for name in TARGET_FEATURES])
        lo = bounds[:, 0].reshape(shape)
        hi = bounds[:, 1].reshape(shape)
        return (arr + 1.0) * (hi - lo) / 2.0 + lo

    def total_clamped(self) -> int:
        return sum(self.clamp_counts.values())


def encode_time_columns(timestamps) -> dict[str, np.ndarray]:
    """Cyclical encodings of each timestamp, one column per TIME_FEATURES
    name: fractional hour of day (period 24), fractional day of week
    (period 7, Monday 0), fractional month of year (period 12). Each
    timestamp's wall-clock fields are read; microseconds are ignored."""
    n = len(timestamps)
    fields = {name: np.fromiter(map(attrgetter(name), timestamps),
                                dtype=np.int64, count=n)
              for name in ("year", "month", "day", "hour", "minute", "second")}
    weekday = np.fromiter(map(methodcaller("weekday"), timestamps),
                          dtype=np.int64, count=n)
    year, month = fields["year"], fields["month"]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    days_in_month = _MONTH_DAYS[month - 1] + ((month == 2) & leap)
    hour = fields["hour"] + fields["minute"] / 60.0 + fields["second"] / 3600.0
    day_frac = hour / 24.0
    dow = weekday + day_frac
    month_phase = (month - 1) + (fields["day"] - 1 + day_frac) / days_in_month
    out: dict[str, np.ndarray] = {}
    for name, value, period in (("hour", hour, 24.0), ("dow", dow, 7.0),
                                ("month", month_phase, 12.0)):
        angle = 2.0 * np.pi * value / period
        out[f"{name}_sin"] = np.sin(angle)
        out[f"{name}_cos"] = np.cos(angle)
    return out


def check_fractions(name: str, fractions) -> None:
    """The split rule: three positive fractions summing to 1."""
    check_numbers(name, fractions, "positive")
    if len(fractions) != 3 or not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ConfigurationError(
            f"{name} must be three positive values that sum to 1, "
            f"got {fractions}")


_FUTURE_COLUMNS = np.array([PAST_FEATURES.index(n) for n in FUTURE_FEATURES])
_TARGET_COLUMNS = np.array([PAST_FEATURES.index(n) for n in TARGET_FEATURES])
_WEATHER_COLUMNS = [PAST_FEATURES.index(n) for n in WEATHER_FEATURES]
_NOISED_COLUMNS = [FUTURE_FEATURES.index(n) for n in WEATHER_FEATURES]


class WindowSet:
    """Ordered sliding windows over one scaled feature table.

    `table` holds every PAST_FEATURES column of the dataset, scaled once;
    the future covariates and targets are fixed column subsets of it.
    Forecast noise for a window depends only on (noise_seed, origin), so
    any access order and any subset give identical values. `scaler` holds
    the clamp counts of the scaled table.
    """

    def __init__(
        self,
        table: np.ndarray,
        weather_physical: np.ndarray,
        origins: np.ndarray,
        n_past: int,
        n_future: int,
        noise_sd: float,
        noise_seed: int,
        scaler: Scaler,
    ):
        self.table = table
        self._weather = weather_physical
        self.origins = np.asarray(origins, dtype=int)
        self.n_past = n_past
        self.n_future = n_future
        self.noise_sd = noise_sd
        self.noise_seed = noise_seed
        self.scaler = scaler

    def __len__(self) -> int:
        return len(self.origins)

    def batch(self, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked scaled (past, future, target) arrays for the given window
        indices, with forecast noise on the future weather."""
        origins = self.origins[np.asarray(indices, dtype=int)]
        past_rows = origins[:, None] + np.arange(self.n_past)
        future_rows = origins[:, None] + np.arange(
            self.n_past, self.n_past + self.n_future)
        future = self.table[future_rows[:, :, None], _FUTURE_COLUMNS]
        weather = self._weather[future_rows]
        if self.noise_sd:
            weather = weather + np.stack([
                np.random.default_rng(np.random.SeedSequence(
                    self.noise_seed, spawn_key=(int(origin),))).normal(
                        0.0, 1.0, size=weather.shape[1:])
                for origin in origins]) * self.noise_sd
        # rescale clamps the noised weather to its Table 1 intervals
        future[:, :, _NOISED_COLUMNS] = self.scaler.rescale(
            weather, WEATHER_FEATURES)
        return (self.table[past_rows], future,
                self.table[future_rows[:, :, None], _TARGET_COLUMNS])

    def subset(self, origins: np.ndarray) -> "WindowSet":
        sub = WindowSet.__new__(WindowSet)
        sub.__dict__.update(self.__dict__)
        sub.origins = np.asarray(origins, dtype=int)
        return sub


def build_windows(
    dataset: SimulatedDataset,
    n_past: int = 672,
    n_future: int = 96,
    stride: int = 1,
    noise_sd: float = 0.01,
    noise_seed: int = 0,
) -> WindowSet:
    """Assemble every length-(n_past+n_future) window at the given stride.

    Window count follows floor((N - n_past - n_future)/stride) + 1.
    """
    for name, value in (("n_past", n_past), ("n_future", n_future),
                        ("stride", stride)):
        check_count(name, value, minimum=1)
    check_number("noise_sd", noise_sd, "non-negative")
    check_seed("noise_seed", noise_seed)
    n = len(dataset)
    need = n_past + n_future
    if n < need:
        raise ConfigurationError(
            f"dataset has {n} rows but windowing needs at least {need}")

    source = {**dataset.columns, **encode_time_columns(dataset.timestamps)}
    try:
        physical = np.column_stack([source[name] for name in PAST_FEATURES])
    except KeyError as exc:
        raise ConfigurationError(
            f"dataset is missing required column {exc.args[0]!r}") from None
    scaler = Scaler()
    table = np.column_stack([scaler.scale(physical[:, j], name)
                             for j, name in enumerate(PAST_FEATURES)])

    origins = np.arange(0, n - need + 1, stride)
    return WindowSet(table, physical[:, _WEATHER_COLUMNS], origins,
                     n_past, n_future, noise_sd, noise_seed, scaler)


@dataclass
class DatasetSplits:
    """Chronological train/validation/test windows with their row
    boundaries; windows overlapping a boundary are dropped."""

    train: WindowSet
    validation: WindowSet
    test: WindowSet
    boundaries: tuple[int, int]

    def __iter__(self):
        yield self.train
        yield self.validation
        yield self.test


def split_chronological(
    windows: WindowSet,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> DatasetSplits:
    check_fractions("fractions", fractions)
    n_rows = len(windows.table)
    b1 = int(np.floor(fractions[0] * n_rows))
    b2 = int(np.floor((fractions[0] + fractions[1]) * n_rows))
    span = windows.n_past + windows.n_future
    origins = windows.origins
    ends = origins + span
    train = origins[ends <= b1]
    val = origins[(origins >= b1) & (ends <= b2)]
    test = origins[origins >= b2]
    for name, block in (("train", train), ("validation", val),
                        ("test", test)):
        if len(block) == 0:
            raise ConfigurationError(
                f"{name} split is empty: {n_rows} rows with window span "
                f"{span} leave no room")
    return DatasetSplits(windows.subset(train), windows.subset(val),
                         windows.subset(test), (b1, b2))
