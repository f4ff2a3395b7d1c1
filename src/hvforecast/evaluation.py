"""Forecast evaluation: CVRMSE aggregate and per horizon step, empirical
coverage of central prediction intervals with quantile-crossing
bookkeeping, pinball scores, and deterministic CSV exports.

The forecast dump (`hvforecast predict` writes it, `hvforecast evaluate`
reads it) holds one CSV row per (instance, step, zone, quantile level).
It is written one instance at a time and read column by column: one
`np.loadtxt` call parses the body, numpy checks the grid, and one
fancy-index assignment fills the dense arrays. Malformed files are
rescanned row by row, so each error names the same row a row-at-a-time
reader would.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DimensionError, ParseError

NOMINAL_INTERVALS = (0.90, 0.95, 0.99)


def cvrmse(actual, predicted) -> float:
    """Coefficient of variation of the RMSE in percent:
    100 * sqrt(mean((a - p)^2)) / mean(a), in physical units."""
    a = np.asarray(actual, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if a.size != p.size:
        raise DimensionError(
            f"cvrmse: series lengths {a.size} and {p.size} differ")
    if a.size == 0:
        raise ConfigurationError("cvrmse needs at least one pair")
    mean = float(a.mean())
    if abs(mean) < 1e-12:
        raise ContractViolation(
            "cvrmse undefined: actual series has zero mean")
    rmse = math.sqrt(float(np.mean((a - p) ** 2)))
    return 100.0 * rmse / mean


def _coerce_forecasts(forecasts, quantile_levels):
    """Check a raw (N, H, Z, Q) forecast array against its quantile levels
    and return (values, levels)."""
    values = np.asarray(forecasts, dtype=float)
    levels = tuple(float(q) for q in quantile_levels)
    if values.ndim != 4 or values.shape[-1] != len(levels):
        raise DimensionError(
            f"forecast values must be (instances, steps, zones, "
            f"{len(levels)}), got {values.shape}")
    return values, levels


def _check_actuals(values, actuals):
    actuals = np.asarray(actuals, dtype=float)
    if actuals.shape != values.shape[:3]:
        raise DimensionError(
            f"actuals {actuals.shape} do not match forecasts "
            f"{values.shape[:3]}")
    return actuals


@dataclass
class HorizonMetrics:
    """CVRMSE in percent per zone and forecast step, with per-zone and
    cross-zone aggregates."""

    zone_curves: np.ndarray    # (zones, steps)
    zone_aggregate: np.ndarray  # (zones,)
    mean_curve: np.ndarray     # (steps,)
    overall: float

    @property
    def step_count(self) -> int:
        return self.zone_curves.shape[1]

    @property
    def zone_count(self) -> int:
        return self.zone_curves.shape[0]


def per_horizon_cvrmse(forecasts, actuals, quantile_levels) -> HorizonMetrics:
    """CVRMSE of the median forecast against actuals, per zone, for every
    step ahead, over all instances."""
    values, levels = _coerce_forecasts(forecasts, quantile_levels)
    actuals = _check_actuals(values, actuals)
    if values.shape[0] == 0:
        raise ConfigurationError("no forecast instances to evaluate")
    try:
        median_idx = levels.index(0.5)
    except ValueError:
        raise ConfigurationError(
            "quantile levels do not include the median 0.5") from None
    median = values[..., median_idx]          # (N, H, Z)
    n, steps, zones = median.shape
    curves = np.empty((zones, steps))
    for z in range(zones):
        for h in range(steps):
            curves[z, h] = cvrmse(actuals[:, h, z], median[:, h, z])
    aggregate = np.array([cvrmse(actuals[:, :, z], median[:, :, z])
                          for z in range(zones)])
    overall = cvrmse(actuals, median)
    if not (np.all(np.isfinite(curves)) and np.all(curves >= 0)):
        raise ContractViolation("per-horizon CVRMSE produced invalid values")
    return HorizonMetrics(zone_curves=curves, zone_aggregate=aggregate,
                          mean_curve=curves.mean(axis=0), overall=overall)


def plateau_step(curve, fraction: float = 0.95) -> int:
    """First 1-based step whose CVRMSE reaches `fraction` of the final
    step's value; descriptive only."""
    arr = np.asarray(curve, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("plateau_step expects a non-empty 1-d curve")
    threshold = fraction * arr[-1]
    hits = np.nonzero(arr >= threshold)[0]
    return int(hits[0]) + 1 if hits.size else arr.size


@dataclass
class CoverageReport:
    """Per nominal central interval: empirical coverage, plus the fraction
    of (instance, step, zone) points whose quantile vector needed
    reordering to be ascending."""

    nominal_levels: tuple[float, ...]
    coverage: dict[float, float]
    crossing_freq: float


def interval_coverage(forecasts, actuals, quantile_levels,
                      nominal_levels=NOMINAL_INTERVALS) -> CoverageReport:
    """Empirical coverage of central intervals. Quantile vectors are sorted
    ascending per point before bounds are read, and the fraction of points
    that required sorting is reported."""
    values, levels = _coerce_forecasts(forecasts, quantile_levels)
    actuals = _check_actuals(values, actuals)
    if values.shape[0] == 0:
        raise ConfigurationError("no forecast instances to evaluate")

    level_arr = np.asarray(levels)
    columns = {}
    for nominal in nominal_levels:
        lo_q = (1.0 - nominal) / 2.0
        hi_q = (1.0 + nominal) / 2.0
        lo_hits = np.nonzero(np.abs(level_arr - lo_q) < 1e-9)[0]
        hi_hits = np.nonzero(np.abs(level_arr - hi_q) < 1e-9)[0]
        if not (lo_hits.size and hi_hits.size):
            raise ConfigurationError(
                f"central {nominal:.0%} interval needs quantile levels "
                f"{lo_q:g} and {hi_q:g}")
        columns[nominal] = (int(lo_hits[0]), int(hi_hits[0]))

    ordered = np.sort(values, axis=-1)
    crossed = np.any(np.diff(values, axis=-1) < 0, axis=-1)
    crossing_freq = float(crossed.mean())

    coverage = {}
    for nominal, (lo_idx, hi_idx) in columns.items():
        lower = ordered[..., lo_idx]
        upper = ordered[..., hi_idx]
        inside = (actuals >= lower) & (actuals <= upper)
        coverage[nominal] = float(inside.mean())
    return CoverageReport(nominal_levels=tuple(nominal_levels),
                          coverage=coverage, crossing_freq=crossing_freq)


def pinball_scores(forecasts, actuals, quantile_levels) -> dict[float, float]:
    """Mean pinball score per quantile level, in physical units."""
    values, levels = _coerce_forecasts(forecasts, quantile_levels)
    actuals = _check_actuals(values, actuals)
    scores = {}
    for k, q in enumerate(levels):
        err = actuals - values[..., k]
        scores[q] = float(np.mean(np.maximum(q * err, (q - 1.0) * err)))
    return scores


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def export_metrics(metrics, path: str) -> str:
    """Write a metrics object deterministically as CSV. HorizonMetrics rows
    carry (zone, step, cvrmse_pct); CoverageReport rows carry (level,
    coverage, crossing_freq). Values are printed at 6 significant digits."""
    if isinstance(metrics, HorizonMetrics):
        header = ("zone", "step", "cvrmse_pct")
        rows = [(z + 1, h + 1, _fmt(metrics.zone_curves[z, h]))
                for z in range(metrics.zone_count)
                for h in range(metrics.step_count)]
    elif isinstance(metrics, CoverageReport):
        header = ("level", "coverage", "crossing_freq")
        rows = [(_fmt(level), _fmt(metrics.coverage[level]),
                 _fmt(metrics.crossing_freq))
                for level in metrics.nominal_levels]
    else:
        raise ConfigurationError(
            f"cannot export metrics of type {type(metrics).__name__}")

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc
    return path


# One dump row; the field names are the CSV header.
_DUMP_DTYPE = np.dtype([("instance", "i8"), ("step", "i8"), ("zone", "i8"),
                        ("q_level", "f8"), ("value_c", "f8"),
                        ("actual_c", "f8")])
_INT64_LIMIT = 2 ** 63


def write_forecast_dump(path: str, forecasts, actuals, quantile_levels,
                        instance_ids=None) -> str:
    """Write every forecast value as one CSV row:
    instance,step,zone,q_level,value_c,actual_c, with `\\r\\n` line ends
    and no quoting. Floats use repr so the dump is lossless. Rows are
    formatted one instance at a time."""
    values, levels = _coerce_forecasts(forecasts, quantile_levels)
    actuals = _check_actuals(values, actuals)
    n = values.shape[0]
    if instance_ids is None:
        instance_ids = range(n)
    if len(instance_ids) != n:
        raise DimensionError(
            f"{len(instance_ids)} instance ids for {n} instances")
    try:
        ids = np.array([operator.index(inst) for inst in instance_ids],
                       dtype=np.int64).tolist()
    except (TypeError, OverflowError):
        raise ConfigurationError(
            "instance ids must be 64-bit integers") from None
    level_text = [repr(q) for q in levels]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_DUMP_DTYPE.names) + "\r\n")
        for inst, grid, truth in zip(ids, values, actuals):
            fh.write("".join([
                f"{inst},{h},{z},{q},{v!r},{a}\r\n"
                for h, (cells, row_truth) in enumerate(
                    zip(grid.tolist(), truth.tolist()), start=1)
                for z, (cell, a) in enumerate(
                    zip(cells, map(repr, row_truth)), start=1)
                for q, v in zip(level_text, cell)]))
    return path


@dataclass
class ForecastDump:
    values: np.ndarray            # (instances, steps, zones, levels)
    actuals: np.ndarray           # (instances, steps, zones)
    quantile_levels: tuple[float, ...]
    instance_ids: list[int]


def read_forecast_dump(path: str) -> ForecastDump:
    """Parse a forecast dump back into dense arrays. Rows may come in any
    order; instances keep the order of their first row. The grid must be
    complete, without duplicate cells, and each (instance, step, zone) must
    carry one actual_c across its quantile rows.

    The body is parsed by one `np.loadtxt` call. If it refuses the file, or
    skips blank lines, the rows are rescanned one at a time to name the
    first bad one."""
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(_DUMP_DTYPE.names):
            raise ParseError(f"forecast dump header must be "
                             f"{list(_DUMP_DTYPE.names)}", row=1)
        try:
            with warnings.catch_warnings():
                # numpy 1.x reads "1.0" in an int column with only a
                # DeprecationWarning; int() refuses it.
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=_DUMP_DTYPE, delimiter=",",
                                  comments=None, ndmin=1)
        except (ValueError, Warning):
            rows = None
    if rows is not None and len(rows) == _count_lines(path) - 1:
        return _assemble_dump(rows, None)
    return _assemble_dump(*_scan_rows(path))


def _count_lines(path: str) -> int:
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return count + (last != b"\n")


def _scan_rows(path: str) -> tuple[np.ndarray, ParseError | None]:
    """Parse the dump body one csv row at a time. Returns the rows before
    the first malformed one, and that row's error (None if every row
    parses)."""
    parsed, error = [], None
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 6:
                    raise ParseError(f"expected 6 columns, got {len(row)}",
                                     row=lineno)
                try:
                    ints = [int(text) for text in row[:3]]
                    floats = [float(text) for text in row[3:]]
                except ValueError as exc:
                    raise ParseError(f"bad value: {exc}", row=lineno) from exc
                if not all(-_INT64_LIMIT <= v < _INT64_LIMIT for v in ints):
                    raise ParseError("bad value: integer out of range",
                                     row=lineno)
                parsed.append((*ints, *floats))
    except ParseError as exc:
        error = exc
    return np.array(parsed, dtype=_DUMP_DTYPE), error


def _refusal(rows: np.ndarray, error: ParseError) -> ParseError:
    """The error a faulty dump is refused with. A row-by-row read meets a
    duplicate cell before any grid fault or later bad row, so the first
    duplicate among `rows` wins over `error`."""
    if len(rows) < 2:
        return error
    keys = [rows[name] for name in ("q_level", "zone", "step", "instance")]
    order = np.lexsort(keys)   # stable: rows of one cell stay in file order
    repeat = np.ones(len(rows) - 1, dtype=bool)
    for key in keys:
        ordered = key[order]
        repeat &= ordered[1:] == ordered[:-1]
    if not repeat.any():
        return error
    dup = int(order[1:][repeat].min())
    inst, step, zone, q = rows[dup].tolist()[:4]
    return ParseError(f"duplicate cell instance={inst} step={step} "
                      f"zone={zone} q={q}", row=dup + 2)


def _assemble_dump(rows: np.ndarray, error: ParseError | None) -> ForecastDump:
    """Check the grid of parsed dump rows and scatter them into dense
    arrays. `error` is the parse error of the row after the last one in
    `rows`, if any. A complete grid has no duplicate cells, so they are
    looked for only once some check fails."""
    if error is not None:
        raise _refusal(rows, error)
    if not len(rows):
        raise ParseError("forecast dump has no data rows", row=2)

    inst, step, zone, q = (rows[name] for name in
                           ("instance", "step", "zone", "q_level"))
    ids, first_row, inverse = np.unique(inst, return_index=True,
                                        return_inverse=True)
    by_appearance = np.argsort(first_row)
    # position of each row's instance in order of first appearance
    idx = np.argsort(by_appearance)[inverse.reshape(-1)]
    order = ids[by_appearance].tolist()

    lead = idx == 0
    steps, zones, levels = (np.unique(col[lead]) for col in (step, zone, q))
    if not np.array_equal(steps, np.arange(1, len(steps) + 1)):
        raise _refusal(rows, ParseError(
            f"steps must be 1..{len(steps)}, got {steps[:5].tolist()}..."))
    if not np.array_equal(zones, np.arange(1, len(zones) + 1)):
        raise _refusal(rows, ParseError(
            f"zones must be 1..{len(zones)}, got {zones.tolist()}"))

    n_s, n_z, n_q = len(steps), len(zones), len(levels)
    per_instance = n_s * n_z * n_q
    k = np.minimum(np.searchsorted(levels, q), n_q - 1)
    in_grid = ((step >= 1) & (step <= n_s) & (zone >= 1) & (zone <= n_z)
               & (levels[k] == q))
    cell = ((step - 1) * n_z + (zone - 1)) * n_q + k

    # Instances are checked in order, each for its cell count and then for
    # a missing cell. Those before the first miscounted one have exactly
    # `per_instance` rows, so their presence grid is no larger than the
    # dump.
    counts = np.bincount(idx, minlength=len(order))
    miscounted = np.flatnonzero(counts != per_instance)
    checked = int(miscounted[0]) if miscounted.size else len(order)
    present = np.zeros((checked, per_instance), dtype=bool)
    head = in_grid & (idx < checked)
    present[idx[head], cell[head]] = True
    gaps = np.flatnonzero(~present.all(axis=1))
    if gaps.size:
        i = int(gaps[0])
        h, z, kk = np.unravel_index(int(np.argmin(present[i])),
                                    (n_s, n_z, n_q))
        raise _refusal(rows, ParseError(
            f"instance {order[i]} is missing step={int(steps[h])} "
            f"zone={int(zones[z])} q={float(levels[kk])}"))
    if checked < len(order):
        raise _refusal(rows, ParseError(
            f"instance {order[checked]} has {int(counts[checked])} cells, "
            f"expected {per_instance}"))

    # Every row is now a distinct grid cell.
    values = np.empty((len(order), n_s, n_z, n_q))
    values.reshape(-1)[idx * per_instance + cell] = rows["value_c"]
    actual = rows["actual_c"]
    point = idx * (n_s * n_z) + cell // n_q
    actuals = np.empty(values.shape[:3])
    lowest = k == 0
    actuals.reshape(-1)[point[lowest]] = actual[lowest]
    differs = (actuals.reshape(-1)[point].view(np.int64)
               != actual.view(np.int64))
    if differs.any():
        r = int(np.argmax(differs))
        raise ParseError(
            f"actual_c differs across the quantile rows of instance="
            f"{order[idx[r]]} step={int(step[r])} zone={int(zone[r])}",
            row=r + 2)
    return ForecastDump(values=values, actuals=actuals,
                        quantile_levels=tuple(levels.tolist()),
                        instance_ids=order)
