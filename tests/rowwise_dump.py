"""Row-at-a-time forecast-dump writer and reader that the columnar codec in
`hvforecast.evaluation` replaces, kept as test-side references.

The writer goes through `csv.writer` and the reader through `csv.reader`
with one Python `int`/`float` per field and a dict of cells, so the
columnar codec's bytes, arrays and error messages can be compared with
them.
"""

from __future__ import annotations

import csv

import numpy as np

from hvforecast.errors import DimensionError, ParseError
from hvforecast.evaluation import (
    ForecastDump,
    _check_actuals,
    _coerce_forecasts,
)


def write_forecast_dump(path: str, forecasts, actuals, quantile_levels,
                        instance_ids=None) -> str:
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
