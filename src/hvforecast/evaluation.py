"""Forecast evaluation: CVRMSE aggregate and per horizon step, empirical
coverage of central prediction intervals with quantile-crossing
bookkeeping, pinball scores, and deterministic CSV exports.

The forecast dump (`hvforecast predict` writes it, `hvforecast evaluate`
reads it) holds one CSV row per (instance, step, zone, quantile level),
in the order the writer loops over them. It is written one instance at a
time and read with the package's table reader (`tables`). numpy then
checks every row against the writer's layout, naming the first row out
of place, and reshapes the columns into the dense arrays.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ConfigurationError, ContractViolation, DimensionError, ParseError
from .numerics import level_fault
from .tables import integer, number, parse_table, scan_table

NOMINAL_INTERVALS = (0.90, 0.95, 0.99)
PLATEAU_FRACTION = 0.95


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
    """Check a raw (N, H, Z, Q) forecast array against its quantile levels,
    which must keep `level_fault`'s rule, and return (values, levels)."""
    values = np.asarray(forecasts, dtype=float)
    levels = tuple(float(q) for q in quantile_levels)
    fault = level_fault(levels)
    if fault:
        raise ConfigurationError(f"{fault[1]}, got {levels}")
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


def plateau_step(curve) -> int:
    """First 1-based step whose CVRMSE reaches `PLATEAU_FRACTION` of the
    final step's value; descriptive only."""
    arr = np.asarray(curve, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError("plateau_step expects a non-empty 1-d curve")
    threshold = PLATEAU_FRACTION * arr[-1]
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
_DUMP_RULES = [integer] * 3 + [number] * 3


def write_forecast_dump(path: str, forecasts, actuals, quantile_levels,
                        instance_ids=None) -> str:
    """Write every forecast value as one CSV row:
    instance,step,zone,q_level,value_c,actual_c, with `\\r\\n` line ends
    and no quoting. Floats use repr so the dump is lossless. Each
    instance's rows are joined into one string from its value and actual
    texts and the step, zone and level texts, which every instance
    shares."""
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
    steps, zones, n_q = values.shape[1:]
    # ",step,zone,q_level," of every row of an instance, in writer order
    tails = [f",{h},{z},{q}," for h in range(1, steps + 1)
             for z in range(1, zones + 1) for q in map(repr, levels)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_DUMP_DTYPE.names) + "\r\n")
        for inst, grid, truth in zip(map(str, ids), values, actuals):
            ends = [f",{a}\r\n" for a in map(repr, truth.ravel().tolist())]
            fh.write("".join(chain.from_iterable(zip(
                repeat(inst), tails, map(repr, grid.ravel().tolist()),
                # each cell's actual_c ends all n_q of its rows
                chain.from_iterable(zip(*[ends] * n_q))))))
    return path


@dataclass
class ForecastDump:
    values: np.ndarray            # (instances, steps, zones, levels)
    actuals: np.ndarray           # (instances, steps, zones)
    quantile_levels: tuple[float, ...]
    instance_ids: list[int]


def read_forecast_dump(path: str) -> ForecastDump:
    """Parse a forecast dump, its rows in the order `write_forecast_dump`
    writes them, back into dense arrays, with the package's table reader,
    which rescans a malformed file to name its first bad row."""
    rows = parse_table(path, _DUMP_DTYPE)
    if rows is None:
        rows = scan_table(path, "forecast dump", _DUMP_DTYPE, _DUMP_RULES)
    return _assemble_dump(rows)


def _leading(mask: np.ndarray) -> int:
    """Length of the run of True at the start of `mask`."""
    return len(mask) if mask.all() else int(np.argmin(mask))


def _cell(inst, step, zone, q) -> str:
    return (f"instance={int(inst)} step={int(step)} zone={int(zone)} "
            f"q={float(q)}")


def _assemble_dump(rows: np.ndarray) -> ForecastDump:
    """Check parsed dump rows against the writer's layout and reshape them
    into dense arrays.

    The first instance gives the grid: the quantile levels are the q_level
    of its leading step-1, zone-1 rows and must keep `level_fault`'s
    rule, and its last row gives the step and zone counts. Each row must
    then carry the (instance, step, zone, q_level) of its place in blocks
    of one instance, each block a new instance, with one actual_c per
    (instance, step, zone). The first row that breaks a rule is named."""
    n = len(rows)
    inst, step, zone, q = (rows[name] for name in
                           ("instance", "step", "zone", "q_level"))
    first = inst == inst[0]
    n_q = max(_leading(first & (step == 1) & (zone == 1)), 1)
    last = _leading(first) - 1
    # Clamped so that the arithmetic below cannot overflow. A count outside
    # [1, n] cannot match the row it came from, so that row is refused.
    n_s, n_z = (min(max(int(col[last]), 1), n) for col in (step, zone))
    per_instance = n_s * n_z * n_q
    block = min(per_instance, n + 1)
    levels = q[:n_q]

    index = np.arange(n)
    pos = index % block
    expected = (inst[index - pos], pos // (n_z * n_q) + 1,
                pos // n_q % n_z + 1, levels[pos % n_q])
    misplaced = np.any([got != want for got, want in
                        zip((inst, step, zone, q), expected)], axis=0)
    level_at, level_reason = level_fault(levels.tolist()) or (n, "")
    starts = index[::block]
    repeated = np.zeros(n, dtype=bool)
    repeated[starts] = True
    repeated[starts[np.unique(inst[starts], return_index=True)[1]]] = False
    bits = rows["actual_c"].view(np.int64)
    differs = bits != bits[index - pos % n_q]

    faults = np.array([index == level_at, misplaced, repeated, differs])
    if faults.any():
        r = int(np.argmax(faults.any(axis=0)))
        got = _cell(inst[r], step[r], zone[r], q[r])
        raise ParseError((
            level_reason,
            f"expected {_cell(*(col[r] for col in expected))}, got {got}",
            f"instance {inst[r]} appears twice",
            f"actual_c differs from the first quantile row at {got}",
        )[int(np.argmax(faults[:, r]))], row=r + 2)
    if n % block:
        raise ParseError(f"instance {inst[starts[-1]]} has {n % block} "
                         f"rows, expected {per_instance}")

    shape = (n // block, n_s, n_z, n_q)
    return ForecastDump(
        values=np.ascontiguousarray(rows["value_c"]).reshape(shape),
        actuals=np.ascontiguousarray(rows["actual_c"][::n_q]).reshape(
            shape[:3]),
        quantile_levels=tuple(levels.tolist()),
        instance_ids=inst[starts].tolist())
