"""Forecast evaluation: CVRMSE aggregate and per horizon step, empirical
coverage of central prediction intervals with quantile-crossing
bookkeeping, pinball scores, and deterministic CSV / JSON-lines exports.
"""

from __future__ import annotations

import csv
import json
import math
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
    if quantile_levels is None:
        raise ConfigurationError("quantile levels are required")
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


def per_horizon_cvrmse(forecasts, actuals,
                       quantile_levels=None) -> HorizonMetrics:
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


def interval_coverage(forecasts, actuals, quantile_levels=None,
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


def pinball_scores(forecasts, actuals, quantile_levels=None) -> dict[float, float]:
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


def export_metrics(metrics, path: str, fmt: str = "csv") -> str:
    """Write a metrics object deterministically. HorizonMetrics rows carry
    (zone, step, cvrmse_pct); CoverageReport rows carry (level, coverage,
    crossing_freq). Values are printed at 6 significant digits."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigurationError(f"unknown export format {fmt!r}")
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
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            else:
                for row in rows:
                    fh.write(json.dumps(dict(zip(header, row)),
                                        sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc
    return path


def write_forecast_dump(path: str, forecasts, actuals,
                        quantile_levels=None, instance_ids=None) -> str:
    """Write every forecast value as one CSV row:
    instance,step,zone,q_level,value_c,actual_c. Floats use repr so the
    dump is lossless."""
    values, levels = _coerce_forecasts(forecasts, quantile_levels)
    actuals = _check_actuals(values, actuals)
    n, steps, zones, _ = values.shape
    if instance_ids is None:
        instance_ids = list(range(n))
    if len(instance_ids) != n:
        raise DimensionError(
            f"{len(instance_ids)} instance ids for {n} instances")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "step", "zone", "q_level", "value_c",
                         "actual_c"])
        for i, inst in enumerate(instance_ids):
            for h in range(steps):
                for z in range(zones):
                    actual = repr(float(actuals[i, h, z]))
                    for k, q in enumerate(levels):
                        writer.writerow([inst, h + 1, z + 1, repr(float(q)),
                                         repr(float(values[i, h, z, k])),
                                         actual])
    return path


@dataclass
class ForecastDump:
    values: np.ndarray            # (instances, steps, zones, levels)
    actuals: np.ndarray           # (instances, steps, zones)
    quantile_levels: tuple[float, ...]
    instance_ids: list[int]


def read_forecast_dump(path: str) -> ForecastDump:
    """Parse a forecast dump back into dense arrays; the grid must be
    complete and consistently ordered per instance."""
    expected_header = ["instance", "step", "zone", "q_level", "value_c",
                       "actual_c"]
    cells: dict[int, dict[tuple[int, int, float], tuple[float, float]]] = {}
    order: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ParseError(
                f"forecast dump header must be {expected_header}", row=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise ParseError(
                    f"expected 6 columns, got {len(row)}", row=lineno)
            try:
                inst = int(row[0])
                step = int(row[1])
                zone = int(row[2])
                q = float(row[3])
                value = float(row[4])
                actual = float(row[5])
            except ValueError as exc:
                raise ParseError(f"bad value: {exc}", row=lineno) from exc
            if inst not in cells:
                cells[inst] = {}
                order.append(inst)
            key = (step, zone, q)
            if key in cells[inst]:
                raise ParseError(
                    f"duplicate cell instance={inst} step={step} "
                    f"zone={zone} q={q}", row=lineno)
            cells[inst][key] = (value, actual)

    if not order:
        raise ParseError("forecast dump has no data rows", row=2)
    first = cells[order[0]]
    steps = sorted({k[0] for k in first})
    zones = sorted({k[1] for k in first})
    levels = sorted({k[2] for k in first})
    if steps != list(range(1, len(steps) + 1)):
        raise ParseError(f"steps must be 1..{len(steps)}, got {steps[:5]}...")
    if zones != list(range(1, len(zones) + 1)):
        raise ParseError(f"zones must be 1..{len(zones)}, got {zones}")

    shape = (len(order), len(steps), len(zones), len(levels))
    values = np.empty(shape)
    actuals = np.empty(shape[:3])
    for i, inst in enumerate(order):
        grid = cells[inst]
        if len(grid) != len(steps) * len(zones) * len(levels):
            raise ParseError(
                f"instance {inst} has {len(grid)} cells, expected "
                f"{len(steps) * len(zones) * len(levels)}")
        for h, step in enumerate(steps):
            for z, zone in enumerate(zones):
                for k, q in enumerate(levels):
                    try:
                        value, actual = grid[(step, zone, q)]
                    except KeyError:
                        raise ParseError(
                            f"instance {inst} is missing step={step} "
                            f"zone={zone} q={q}") from None
                    values[i, h, z, k] = value
                    actuals[i, h, z] = actual
    return ForecastDump(values=values, actuals=actuals,
                        quantile_levels=tuple(levels),
                        instance_ids=list(order))
