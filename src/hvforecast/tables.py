"""The one reader of the package's CSV tables, `dataset.csv` and the
forecast dump. A table is a structured dtype, whose field names are the
header line, and one rule per column. A rule turns a cell's text into its
value, or refuses it with a `ValueError` giving the reason, which the
refusal prefixes with the column name, or a `ParseError` worded in full.
"""

import csv
import math
import warnings
from itertools import zip_longest

import numpy as np

from .errors import ParseError


def number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def finite(text: str) -> float:
    value = number(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def integer(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"integer out of range: {text!r}")
    return value


def parse_table(path: str, dtype: np.dtype) -> np.ndarray | None:
    """The rows of `path` if its header is the writer's and one
    `np.loadtxt` call parses a row from every line after it, else None."""
    try:
        with open(path) as fh:   # text mode ends lines where np.loadtxt does
            if fh.readline() != ",".join(dtype.names) + "\n":
                return None
            lines = sum(1 for _ in fh)
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" in an int column with only a
            # DeprecationWarning, and an empty body with a UserWarning
            warnings.simplefilter("error")
            # numpy reads a path in chunks, and a name ending in .gz as gzip
            rows = np.loadtxt(path, dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
    # text that is not UTF-8 raises UnicodeDecodeError, a ValueError
    except (OSError, ValueError, Warning):
        return None
    # np.loadtxt skips blank lines, which the rescan refuses
    return rows if len(rows) == lines else None


def _undecodable(fields: list[str]) -> bool:
    """Whether a row read with errors="surrogateescape" held a byte that
    is not UTF-8, which that handler turns into a lone surrogate."""
    try:
        "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def scan_table(path: str, what: str, dtype: np.dtype, rules) -> np.ndarray:
    """The rows of `path`, read one `csv.reader` row at a time. The first
    fault is refused naming its row, and a bad cell its column; `what`
    names the file. A row holding a byte that is not UTF-8 is refused as
    such."""
    # surrogateescape decodes every byte, so a bad one is found in its row,
    # not in the chunk the decoder reads ahead
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError(f"empty {what} file", row=1)
            if _undecodable(first):
                raise ParseError(f"{what} file is not UTF-8 text", row=1)
            for k, (got, want) in enumerate(zip_longest(first, dtype.names),
                                            start=1):
                if got != want:
                    raise ParseError(f"header field {k} is {got!r}, expected "
                                     f"{want!r}", row=1)
            rows = []
            for row, fields in enumerate(reader, start=2):
                if _undecodable(fields):
                    raise ParseError(f"{what} file is not UTF-8 text",
                                     row=row)
                if len(fields) != len(rules):
                    raise ParseError(f"expected {len(rules)} fields, got "
                                     f"{len(fields)}", row=row)
                cells = []
                for name, rule, text in zip(dtype.names, rules, fields):
                    try:
                        cells.append(rule(text))
                    except ParseError as exc:
                        raise ParseError(str(exc), row=row) from None
                    except ValueError as exc:
                        raise ParseError(f"column {name}: {exc}",
                                         row=row) from None
                rows.append(tuple(cells))
        except csv.Error:
            # Python 3.10's csv refuses a NUL byte ("line contains NUL"),
            # which no text file holds and gzip data does
            raise ParseError(f"{what} file is not UTF-8 text",
                             row=reader.line_num) from None
    if not rows:
        raise ParseError(f"{what} file has no data rows", row=2)
    return np.array(rows, dtype=dtype)
