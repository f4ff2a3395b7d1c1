"""Tests for the package's one CSV table reader, through the two files it
reads: `dataset.csv` and the forecast dump refuse each fault in the same
words, and differ only in the file's name, width and column names."""

import gzip
from datetime import datetime

import numpy as np
import pytest

from hvforecast.building_sim import (
    DATASET_COLUMNS,
    SimulatedDataset,
    load_dataset_csv,
    make_timestamps,
    save_dataset_csv,
)
from hvforecast.errors import ParseError
from hvforecast.evaluation import read_forecast_dump, write_forecast_dump

import rowwise_dataset
import rowwise_dump


def save_dataset(path):
    rng = np.random.default_rng(3)
    save_dataset_csv(SimulatedDataset(
        make_timestamps(datetime(2021, 1, 1), 6),
        {name: rng.uniform(20.0, 25.0, 6) for name in DATASET_COLUMNS}), path)


def save_dump(path):
    rng = np.random.default_rng(4)
    write_forecast_dump(path, rng.uniform(20.0, 25.0, (2, 3, 1, 1)),
                        rng.uniform(20.0, 25.0, (2, 3, 1)), (0.5,))


# what the file is called, its writer, its reader, its row-at-a-time
# reference reader, and the column a number cell is changed in
FILES = {
    "dataset": (save_dataset, load_dataset_csv,
                rowwise_dataset.load_dataset_csv, "t_out"),
    "forecast dump": (save_dump, read_forecast_dump,
                      rowwise_dump.read_forecast_dump, "value_c"),
}


def set_cell(lines, i, column, text):
    """`lines` with the cell under header `column` of line `i` set to
    `text`."""
    cells = lines[i].split(",")
    cells[lines[0].split(",").index(column)] = text
    return lines[:i] + [",".join(cells)] + lines[i + 1:]


# Each fault takes the lines of a saved file, header first, and the column
# of its number cell, and returns the lines to write, each ended by "\n".
# The refusal is at the row given, in words filled in from the file.
FAULTS = {
    "empty file": (lambda lines, column: [], 1, "empty {what} file"),
    "header only": (lambda lines, column: lines[:1], 2,
                    "{what} file has no data rows"),
    "blank line": (lambda lines, column: lines[:3] + [""] + lines[3:], 4,
                   "expected {width} fields, got 0"),
    # a lone "\r" ends line 2, so the blank line is row 5 of 7 lines
    "blank line after a lone CR": (
        lambda lines, column: [lines[0], lines[1] + "\r" + lines[2]]
        + lines[3:4] + [""] + lines[4:], 5,
        "expected {width} fields, got 0"),
    "field dropped": (lambda lines, column: lines[:2] + [
        lines[2].rsplit(",", 1)[0]] + lines[3:], 3,
        "expected {width} fields, got {fewer}"),
    "non-number cell": (lambda lines, column: set_cell(lines, 2, column,
                                                       "oops"), 3,
                        "column {column}: not a number: 'oops'"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("what", sorted(FILES))
def test_both_readers_share_one_wording(tmp_path, fault, what):
    change, row, words = FAULTS[fault]
    save, load, reference, column = FILES[what]
    path = tmp_path / "table.csv"
    save(str(path))
    lines = path.read_text().splitlines()
    width = len(lines[0].split(","))
    path.write_text("".join(line + "\n" for line in change(lines, column)),
                    newline="")
    with pytest.raises(ParseError) as got:
        load(str(path))
    assert str(got.value) == f"row {row}: " + words.format(
        what=what, width=width, fewer=width - 1, column=column)
    assert got.value.row == row
    with pytest.raises(ParseError) as want:
        reference(str(path))
    assert (str(got.value), got.value.row) == (str(want.value),
                                               want.value.row)



def latin1_at_row(data, row):
    """`data` with a Latin-1 "e acute" at the start of `row` (the header is
    row 1)."""
    lines = data.split(b"\n")
    lines[row - 1] = b"\xe9" + lines[row - 1]
    return b"\n".join(lines)


@pytest.mark.parametrize("edit, row", [
    (gzip.compress, 1), (lambda data: latin1_at_row(data, 4), 4)],
    ids=["compressed", "latin-1 cell"])
@pytest.mark.parametrize("what", sorted(FILES))
def test_undecodable_table_refused(tmp_path, what, edit, row):
    # the refusal names the row that holds the first byte that is not UTF-8
    save, load, _, _ = FILES[what]
    path = tmp_path / "table.csv"
    save(str(path))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ParseError) as got:
        load(str(path))
    assert str(got.value) == f"row {row}: {what} file is not UTF-8 text"


def test_undecodable_byte_past_the_first_chunk_names_its_row(tmp_path):
    # row 401 of a 5-day dataset starts about 270 KB in, well past the
    # chunk a text decoder reads ahead
    rng = np.random.default_rng(5)
    path = tmp_path / "dataset.csv"
    save_dataset_csv(SimulatedDataset(
        make_timestamps(datetime(2021, 1, 1), 5 * 96),
        {name: rng.uniform(20.0, 25.0, 5 * 96) for name in DATASET_COLUMNS}),
        str(path))
    path.write_bytes(latin1_at_row(path.read_bytes(), 401))
    with pytest.raises(ParseError) as got:
        load_dataset_csv(str(path))
    assert str(got.value) == "row 401: dataset file is not UTF-8 text"
    assert got.value.row == 401


@pytest.mark.parametrize("what", sorted(FILES))
def test_plain_table_named_as_compressed_loads(tmp_path, what):
    # np.loadtxt reads a path ending in .gz as gzip data and fails; the
    # rescan reads the text
    save, load, _, _ = FILES[what]
    path = str(tmp_path / "table.csv.gz")
    save(path)
    load(path)
