"""Row-at-a-time dataset reader, per-timestamp time encodings and per-window
forecast noise, kept as test-side references for the columnar code in
`hvforecast.building_sim` and `hvforecast.pipeline`.

The reader converts each row's numbers with one numpy call after
`csv.reader` has split it, and checks the cadence once every row is read.
The time encoder builds one dict per timestamp. The noise function draws,
adds and clamps the noise of one window. The columnar code's arrays,
timestamps and error messages are compared with them.
"""

from __future__ import annotations

import calendar
import csv
import math
from datetime import datetime
from itertools import zip_longest

import numpy as np

from hvforecast.building_sim import (
    DATASET_COLUMNS,
    SAMPLE_STEP_S,
    SimulatedDataset,
    _parse_timestamp,
    cadence_break,
)
from hvforecast.errors import ConfigurationError, ParseError, check_number
from hvforecast.pipeline import TABLE1_INTERVALS, WEATHER_FEATURES


def load_dataset_csv(path: str) -> SimulatedDataset:
    """Read the layout `save_dataset_csv` writes, converting each row's
    numbers with one numpy call. Each refusal names its row, and a bad cell
    its column."""
    header = ["timestamp"] + DATASET_COLUMNS
    timestamps, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise ParseError("empty dataset file", row=1)
        for k, (got, want) in enumerate(zip_longest(first, header), start=1):
            if got != want:
                raise ParseError(f"header field {k} is {got!r}, expected {want!r}", row=1)
        for row, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(fields)}", row=row)
            try:
                timestamps.append(_parse_timestamp(fields[0]))
            except ParseError as exc:
                raise ParseError(str(exc), row=row) from None
            try:
                numbers = np.array(fields[1:], dtype=float)
            except ValueError:
                numbers = None
            if numbers is None or not np.isfinite(numbers).all():
                for name, text in zip(DATASET_COLUMNS, fields[1:]):
                    try:
                        value = float(text)
                    except ValueError:
                        raise ParseError(f"column {name}: not a number: {text!r}", row=row) from None
                    if not math.isfinite(value):
                        raise ParseError(f"column {name}: not finite: {text!r}", row=row)
            values.append(numbers)
    if not timestamps:
        raise ParseError("dataset file has no data rows", row=2)
    k = cadence_break(timestamps)
    if k is not None:
        gap = (timestamps[k] - timestamps[k - 1]).total_seconds()
        raise ParseError(f"timestamp gap of {gap:.0f}s (need {SAMPLE_STEP_S}s)", row=k + 2)
    return SimulatedDataset(timestamps, dict(zip(DATASET_COLUMNS, np.array(values).T.copy())))


def encode_time_features(timestamp: datetime) -> dict[str, float]:
    """Cyclical encodings: fractional hour of day (period 24), fractional
    day of week (period 7, Monday 0), fractional month of year (period 12).
    """
    hour = timestamp.hour + timestamp.minute / 60.0 + timestamp.second / 3600.0
    day_frac = hour / 24.0
    dow = timestamp.weekday() + day_frac
    days_in_month = calendar.monthrange(timestamp.year, timestamp.month)[1]
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
    sd: float = 0.01,
) -> np.ndarray:
    """Gaussian perturbation of future weather in physical units, with one
    sd for every feature, then clamped back to the Table 1 intervals."""
    check_number("noise_sd", sd, "non-negative")
    arr = np.asarray(weather_future, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(WEATHER_FEATURES):
        raise ConfigurationError(
            f"weather_future must be (n, {len(WEATHER_FEATURES)}), "
            f"got {arr.shape}")
    if sd == 0.0:
        noised = arr.copy()
    else:
        noised = arr + rng.normal(0.0, 1.0, size=arr.shape) * sd
    for j, name in enumerate(WEATHER_FEATURES):
        lo, hi = TABLE1_INTERVALS[name]
        np.clip(noised[:, j], lo, hi, out=noised[:, j])
    return noised
