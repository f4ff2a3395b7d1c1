"""Row-at-a-time forecast-dump writer and reader, kept as test-side
references for the columnar codec in `hvforecast.evaluation`.

`write_forecast_dump` is the `csv.writer` writer the columnar writer
replaced, and `write_forecast_dump_per_row` the f-string writer that
followed it. The reader parses every row through `csv.reader` into Python
ints and floats, then walks the rows against the key the writer's loops
put at each place, with a set of the instances seen. The columnar codec's bytes, arrays and
error messages are compared with them.
"""

from __future__ import annotations

import csv
import itertools
import struct

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


def _parse_rows(path: str) -> list[tuple]:
    """Every body row as (instance, step, zone, q_level, value_c,
    actual_c) in Python ints and floats; the first malformed row is
    refused in the words of the package's table reader."""
    names = ["instance", "step", "zone", "q_level", "value_c", "actual_c"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty forecast dump file", row=1)
        for k, (got, want) in enumerate(
                itertools.zip_longest(header, names), start=1):
            if got != want:
                raise ParseError(
                    f"header field {k} is {got!r}, expected {want!r}", row=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise ParseError(
                    f"expected 6 fields, got {len(row)}", row=lineno)
            for k, (name, text) in enumerate(zip(names, row)):
                try:
                    row[k] = int(text) if k < 3 else float(text)
                except ValueError:
                    kind = "an integer" if k < 3 else "a number"
                    raise ParseError(f"column {name}: not {kind}: {text!r}",
                                     row=lineno) from None
                if k < 3 and not -2 ** 63 <= row[k] < 2 ** 63:
                    raise ParseError(f"column {name}: integer out of range: "
                                     f"{text!r}", row=lineno)
            rows.append(tuple(row))
    if not rows:
        raise ParseError("forecast dump file has no data rows", row=2)
    return rows


def _layout(rows, steps, zones, levels):
    """The (instance, step, zone, q_level) each row must carry, one
    instance after another, each taking the instance its first row
    names."""
    for start in itertools.count(0, steps * zones * len(levels)):
        inst = rows[start][0]
        for step in range(1, steps + 1):
            for zone in range(1, zones + 1):
                for q in levels:
                    yield inst, step, zone, q


def _cell(inst, step, zone, q) -> str:
    return f"instance={inst} step={step} zone={zone} q={q}"


def read_forecast_dump(path: str) -> ForecastDump:
    """Parse a forecast dump back into dense arrays. The first instance's
    leading step-1, zone-1 rows give the quantile levels, which must lie in
    (0, 1) and strictly ascend, and its last row the step and zone counts;
    every row is then walked against the key the writer's loops put at its
    place."""
    rows = _parse_rows(path)
    first = rows[0][0]
    run = list(itertools.takewhile(lambda row: row[0] == first, rows))
    levels = [row[3] for row in itertools.takewhile(
        lambda row: row[:3] == (first, 1, 1), run)] or [rows[0][3]]
    steps, zones = (max(count, 1) for count in run[-1][1:3])
    size = steps * zones * len(levels)

    seen, ids, values, actuals = set(), [], [], []
    for r, (row, key) in enumerate(zip(rows, _layout(rows, steps, zones,
                                                     levels))):
        lineno = r + 2
        inst, step, zone, q, value, actual = row
        if r < len(levels) and not 0 < q < 1:
            raise ParseError(f"quantile level {q} outside (0, 1)", row=lineno)
        if 0 < r < len(levels) and not q > levels[r - 1]:
            raise ParseError("quantile levels must strictly ascend",
                             row=lineno)
        if any(got != want for got, want in zip(row, key)):
            raise ParseError(f"expected {_cell(*key)}, got {_cell(*row[:4])}",
                             row=lineno)
        if r % size == 0:
            if inst in seen:
                raise ParseError(f"instance {inst} appears twice",
                                 row=lineno)
            seen.add(inst)
            ids.append(inst)
        if r % len(levels) == 0:   # the first row of a cell
            cell_actual = struct.pack("<d", actual)
            actuals.append(actual)
        elif struct.pack("<d", actual) != cell_actual:
            raise ParseError(f"actual_c differs from the first quantile "
                             f"row at {_cell(*row[:4])}", row=lineno)
        values.append(value)
    if len(rows) % size:
        raise ParseError(f"instance {ids[-1]} has {len(rows) % size} rows, "
                         f"expected {size}")
    shape = (len(ids), steps, zones, len(levels))
    return ForecastDump(values=np.array(values).reshape(shape),
                        actuals=np.array(actuals).reshape(shape[:3]),
                        quantile_levels=tuple(levels),
                        instance_ids=ids)


def write_forecast_dump_per_row(path: str, forecasts, actuals,
                                quantile_levels, instance_ids=None) -> str:
    """The writer the tail-table one replaced: one six-field f-string per
    row, joined one instance at a time."""
    values, levels = _coerce_forecasts(forecasts, quantile_levels)
    actuals = _check_actuals(values, actuals)
    if instance_ids is None:
        instance_ids = range(values.shape[0])
    ids = [int(inst) for inst in instance_ids]
    level_text = [repr(q) for q in levels]
    with open(path, "w", newline="") as fh:
        fh.write("instance,step,zone,q_level,value_c,actual_c\r\n")
        for inst, grid, truth in zip(ids, values, actuals):
            fh.write("".join([
                f"{inst},{h},{z},{q},{v!r},{a}\r\n"
                for h, (cells, row_truth) in enumerate(
                    zip(grid.tolist(), truth.tolist()), start=1)
                for z, (cell, a) in enumerate(
                    zip(cells, map(repr, row_truth)), start=1)
                for q, v in zip(level_text, cell)]))
    return path
