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
    """Min-max map onto [-1, 1] with clamping and per-feature clamp counts."""

    def __init__(self, spec: ScalerSpec | None = None):
        self.spec = spec if spec is not None else ScalerSpec()
        self.spec.validate()
        self.clamp_counts: dict[str, int] = {}

    def scale(self, values, feature: str) -> np.ndarray:
        lo, hi = self.spec.interval(feature)
        arr = np.asarray(values, dtype=float)
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


@dataclass
class WindowedSample:
    """One model sample: scaled history, scaled future covariates, and the
    scaled future indoor temperatures the model must predict."""

    past: np.ndarray       # (n_past, len(PAST_FEATURES))
    future: np.ndarray     # (n_future, len(FUTURE_FEATURES))
    target: np.ndarray     # (n_future, len(TARGET_FEATURES))
    origin: int            # dataset row where the past window starts
    origin_timestamp: datetime


class WindowSet:
    """Ordered sliding windows over a scaled dataset.

    Samples are assembled on access; forecast noise for a sample depends
    only on (noise_seed, origin), so any access order and any subset give
    identical values. `scaler` is the one the windows were scaled with.
    """

    def __init__(
        self,
        past_matrix: np.ndarray,
        future_matrix: np.ndarray,
        target_matrix: np.ndarray,
        weather_physical: np.ndarray,
        timestamps: list[datetime],
        origins: np.ndarray,
        n_past: int,
        n_future: int,
        noise_sd: float | np.ndarray,
        noise_seed: int,
        scaler: Scaler,
    ):
        self._past = past_matrix
        self._future = future_matrix
        self._target = target_matrix
        self._weather = weather_physical
        self._timestamps = timestamps
        self.origins = np.asarray(origins, dtype=int)
        self.n_past = n_past
        self.n_future = n_future
        self.noise_sd = noise_sd
        self.noise_seed = noise_seed
        self.scaler = scaler
        self._weather_cols = [FUTURE_FEATURES.index(name)
                              for name in WEATHER_FEATURES]

    def __len__(self) -> int:
        return len(self.origins)

    def _noised_future(self, origin: int) -> np.ndarray:
        lo = origin + self.n_past
        hi = lo + self.n_future
        future = self._future[lo:hi].copy()
        rng = np.random.default_rng(
            np.random.SeedSequence(self.noise_seed, spawn_key=(origin,)))
        noised = add_forecast_noise(self._weather[lo:hi], rng, self.noise_sd)
        for k, name in enumerate(WEATHER_FEATURES):
            future[:, self._weather_cols[k]] = self.scaler.scale(
                noised[:, k], name)
        return future

    def __getitem__(self, index: int) -> WindowedSample:
        origin = int(self.origins[index])
        lo = origin + self.n_past
        hi = lo + self.n_future
        return WindowedSample(
            past=self._past[origin:lo].copy(),
            future=self._noised_future(origin),
            target=self._target[lo:hi].copy(),
            origin=origin,
            origin_timestamp=self._timestamps[origin],
        )

    def batch(self, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked (past, future, target) arrays for the given sample
        indices."""
        samples = [self[int(i)] for i in indices]
        return (np.stack([s.past for s in samples]),
                np.stack([s.future for s in samples]),
                np.stack([s.target for s in samples]))

    def subset(self, origins: np.ndarray) -> "WindowSet":
        sub = WindowSet.__new__(WindowSet)
        sub.__dict__.update(self.__dict__)
        sub.origins = np.asarray(origins, dtype=int)
        return sub


def _feature_matrix(
    dataset: SimulatedDataset,
    features: tuple[str, ...],
    time_table: dict[str, np.ndarray],
    scaler: Scaler,
) -> np.ndarray:
    n = len(dataset)
    out = np.empty((n, len(features)))
    for j, name in enumerate(features):
        if name in time_table:
            column = time_table[name]
        else:
            try:
                column = dataset.columns[name]
            except KeyError:
                raise ConfigurationError(
                    f"dataset is missing required column {name!r}") from None
        out[:, j] = scaler.scale(column, name)
    return out


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

    past_matrix = _feature_matrix(dataset, PAST_FEATURES, time_table, scaler)
    future_matrix = _feature_matrix(dataset, FUTURE_FEATURES, time_table, scaler)
    target_matrix = _feature_matrix(dataset, TARGET_FEATURES, time_table, scaler)
    weather_physical = np.column_stack(
        [dataset.columns[name] for name in WEATHER_FEATURES])

    origins = np.arange(0, n - need + 1, stride)
    return WindowSet(past_matrix, future_matrix, target_matrix,
                     weather_physical, dataset.timestamps, origins,
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
    n_rows: int | None = None,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> DatasetSplits:
    if n_rows is None:
        n_rows = windows._past.shape[0]
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
