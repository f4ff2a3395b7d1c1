"""Dataset-to-sample transformation: fixed min-max scaling, cyclical time
encodings, forecast-noise injection, sliding-window assembly, and
chronological train/validation/test splitting.

Feature order is fixed by the tuples below and lookup is header-driven, so
reordering dataset columns never changes an assembled sample.
"""

from __future__ import annotations

import calendar as _calendar
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .building_sim import SimulatedDataset
from .errors import ConfigurationError

WEATHER_FEATURES = ("t_out", "h_out", "w_out", "l_norm", "l_hor")

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

_UNIT = (-1.0, 1.0)
TABLE1_INTERVALS: dict[str, tuple[float, float]] = {
    "t_out": (-30.0, 40.0),
    "h_out": (0.0, 100.0),
    "w_out": (0.0, 25.0),
    "l_norm": (0.0, 1300.0),
    "l_hor": (0.0, 1300.0),
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


@dataclass(frozen=True)
class ScalerSpec:
    """Per-feature (min, max) scaling intervals."""

    intervals: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(TABLE1_INTERVALS))

    def validate(self) -> None:
        for name, (lo, hi) in self.intervals.items():
            if not hi > lo:
                raise ConfigurationError(
                    f"scaling interval for {name} must have max > min, "
                    f"got ({lo}, {hi})")

    def interval(self, feature: str) -> tuple[float, float]:
        try:
            return self.intervals[feature]
        except KeyError:
            raise ConfigurationError(
                f"no scaling interval defined for feature {feature!r}"
            ) from None


class Scaler:
    """Min-max map onto [-1, 1] with clamping and per-feature clamp counts;
    non-finite inputs are refused."""

    def __init__(self, spec: ScalerSpec | None = None):
        self.spec = spec if spec is not None else ScalerSpec()
        self.spec.validate()
        self.clamp_counts: dict[str, int] = {}

    def scale(self, values, feature: str) -> np.ndarray:
        lo, hi = self.spec.interval(feature)
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError(
                f"cannot scale non-finite values of feature {feature!r}")
        clipped = np.clip(arr, lo, hi)
        hits = int(np.count_nonzero(clipped != arr))
        if hits:
            self.clamp_counts[feature] = (
                self.clamp_counts.get(feature, 0) + hits)
        return 2.0 * (clipped - lo) / (hi - lo) - 1.0

    def inverse_scale(self, scaled, feature: str) -> np.ndarray:
        lo, hi = self.spec.interval(feature)
        arr = np.asarray(scaled, dtype=float)
        return (arr + 1.0) * (hi - lo) / 2.0 + lo

    def inverse_scale_targets(self, scaled, axis: int) -> np.ndarray:
        """Map scaled indoor temperatures back to degrees C; `axis` runs
        over the zones in TARGET_FEATURES order."""
        arr = np.asarray(scaled, dtype=float)
        shape = [1] * arr.ndim
        shape[axis] = len(TARGET_FEATURES)
        bounds = np.array([self.spec.interval(name)
                           for name in TARGET_FEATURES])
        lo = bounds[:, 0].reshape(shape)
        hi = bounds[:, 1].reshape(shape)
        return (arr + 1.0) * (hi - lo) / 2.0 + lo

    def total_clamped(self) -> int:
        return sum(self.clamp_counts.values())


def encode_time_features(timestamp: datetime) -> dict[str, float]:
    """Cyclical encodings: fractional hour of day (period 24), fractional
    day of week (period 7, Monday 0), fractional month of year (period 12).
    """
    hour = timestamp.hour + timestamp.minute / 60.0 + timestamp.second / 3600.0
    day_frac = hour / 24.0
    dow = timestamp.weekday() + day_frac
    days_in_month = _calendar.monthrange(timestamp.year, timestamp.month)[1]
    month = (timestamp.month - 1) + (timestamp.day - 1 + day_frac) / days_in_month
    out: dict[str, float] = {}
    for name, value, period in (("hour", hour, 24.0), ("dow", dow, 7.0),
                                ("month", month, 12.0)):
        angle = 2.0 * np.pi * value / period
        out[f"{name}_sin"] = float(np.sin(angle))
        out[f"{name}_cos"] = float(np.cos(angle))
    return out


def add_forecast_noise(
    weather_future: np.ndarray,
    rng: np.random.Generator,
    sd: float | np.ndarray = 0.01,
) -> np.ndarray:
    """Gaussian perturbation of future weather in physical units, then
    clamped back to the documented intervals. `sd` may be a scalar or one
    value per weather feature."""
    sd_arr = np.broadcast_to(np.asarray(sd, dtype=float),
                             (len(WEATHER_FEATURES),))
    if np.any(sd_arr < 0):
        raise ConfigurationError("noise sd must be non-negative")
    arr = np.asarray(weather_future, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(WEATHER_FEATURES):
        raise ConfigurationError(
            f"weather_future must be (n, {len(WEATHER_FEATURES)}), "
            f"got {arr.shape}")
    if np.all(sd_arr == 0.0):
        return arr.copy()
    noised = arr + rng.normal(0.0, 1.0, size=arr.shape) * sd_arr
    for j, name in enumerate(WEATHER_FEATURES):
        lo, hi = TABLE1_INTERVALS[name]
        np.clip(noised[:, j], lo, hi, out=noised[:, j])
    return noised


_FUTURE_COLUMNS = np.array([PAST_FEATURES.index(n) for n in FUTURE_FEATURES])
_TARGET_COLUMNS = np.array([PAST_FEATURES.index(n) for n in TARGET_FEATURES])
_WEATHER_COLUMNS = [PAST_FEATURES.index(n) for n in WEATHER_FEATURES]
_NOISED_COLUMNS = [FUTURE_FEATURES.index(n) for n in WEATHER_FEATURES]


def scale_features(values, names: tuple[str, ...], scaler: Scaler) -> np.ndarray:
    """Scale a (rows, len(names)) physical-unit array column by column, each
    by its own feature's interval."""
    values = np.asarray(values, dtype=float)
    return np.column_stack([scaler.scale(values[:, j], name)
                            for j, name in enumerate(names)])


class WindowSet:
    """Ordered sliding windows over one scaled feature table.

    `table` holds every PAST_FEATURES column of the dataset, scaled once;
    the future covariates and targets are fixed column subsets of it.
    Forecast noise for a window depends only on (noise_seed, origin), so
    any access order and any subset give identical values. `scaler` is the
    one the windows were scaled with.
    """

    def __init__(
        self,
        table: np.ndarray,
        weather_physical: np.ndarray,
        origins: np.ndarray,
        n_past: int,
        n_future: int,
        noise_sd: float | np.ndarray,
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
        starts = origins + self.n_past
        past_rows = origins[:, None] + np.arange(self.n_past)
        future_rows = (starts[:, None] + np.arange(self.n_future))[:, :, None]
        future = self.table[future_rows, _FUTURE_COLUMNS]
        noised = np.stack([
            add_forecast_noise(
                self._weather[lo:lo + self.n_future],
                np.random.default_rng(np.random.SeedSequence(
                    self.noise_seed, spawn_key=(int(origin),))),
                self.noise_sd)
            for origin, lo in zip(origins, starts)])
        for k, name in enumerate(WEATHER_FEATURES):
            future[:, :, _NOISED_COLUMNS[k]] = self.scaler.scale(
                noised[:, :, k], name)
        return (self.table[past_rows], future,
                self.table[future_rows, _TARGET_COLUMNS])

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
    noise_sd: float | np.ndarray = 0.01,
    noise_seed: int = 0,
    scaler: Scaler | None = None,
) -> WindowSet:
    """Assemble every length-(n_past+n_future) window at the given stride.

    Window count follows floor((N - n_past - n_future)/stride) + 1.
    """
    if n_past <= 0 or n_future <= 0 or stride <= 0:
        raise ConfigurationError("n_past, n_future, and stride must be positive")
    n = len(dataset)
    need = n_past + n_future
    if n < need:
        raise ConfigurationError(
            f"dataset has {n} rows but windowing needs at least {need}")
    if scaler is None:
        scaler = Scaler()

    time_table: dict[str, np.ndarray] = {
        name: np.empty(n) for name in TIME_FEATURES}
    for k, ts in enumerate(dataset.timestamps):
        encoded = encode_time_features(ts)
        for name in TIME_FEATURES:
            time_table[name][k] = encoded[name]

    source = {**dataset.columns, **time_table}
    try:
        physical = np.column_stack([source[name] for name in PAST_FEATURES])
    except KeyError as exc:
        raise ConfigurationError(
            f"dataset is missing required column {exc.args[0]!r}") from None
    table = scale_features(physical, PAST_FEATURES, scaler)

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
    n_rows = len(windows.table)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(
            f"split fractions must sum to 1, got {fractions}")
    if min(fractions) <= 0:
        raise ConfigurationError("all split fractions must be positive")
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
