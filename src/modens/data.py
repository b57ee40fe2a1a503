"""Observational dataset container, and every CSV the program reads or
writes.

A dataset file has header columns ``x1..xd, t, y`` and optionally
``y0, y1`` (de-confounded potential outcomes, test sets only).  Its writer
ends every line with CRLF, as ``csv.writer`` does, writes ``t`` as
``0``/``1`` and every float as its shortest round-trip ``repr``, so
regeneration under a fixed seed is byte-identical.  It writes in blocks of
rows: in each block it finds the distinct float bit patterns, and each
cell's index into them, with ``np.unique``.  It takes the texts of the
patterns the previous block also held from that block, and formats only
the others, so a float that recurs block after block (a value of the
rank-normalized covariates' grid) is formatted once per file.  Report
tables (``write_table``) end lines with LF instead.

One reader parses dataset files and ``generate --features`` matrices (any
header, every column a feature) with one ``np.loadtxt`` call.  It accepts
LF or CRLF line ends, blank lines, quoted numbers and a UTF-8 byte-order
mark; it rejects ``#`` comments, digit-group underscores (``1_000``) and
non-finite values.  The header is the first line that is not blank.
Error messages name the row by its line in the file, blank lines
included.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

_EOL = "\r\n"
_WRITE_BLOCK_ROWS = 1024


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries row/column context."""


@dataclass(frozen=True)
class Dataset:
    """Covariates, binary treatments, factual outcomes; optionally both-arm
    potential outcomes for de-confounded test evaluation."""

    covariates: np.ndarray        # (n, d) float64
    treatments: np.ndarray        # (n,) int64 in {0, 1}
    outcomes: np.ndarray          # (n,) float64
    potential_outcomes: np.ndarray | None = None   # (n, 2) float64

    def __post_init__(self):
        cov = np.ascontiguousarray(self.covariates, dtype=np.float64)
        t = np.ascontiguousarray(self.treatments, dtype=np.int64)
        y = np.ascontiguousarray(self.outcomes, dtype=np.float64)
        if cov.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix")
        n = cov.shape[0]
        if t.shape != (n,) or y.shape != (n,):
            raise ValueError("inconsistent row counts across columns")
        if not np.isin(t, (0, 1)).all():
            raise ValueError("treatments must be binary 0/1")
        if not np.isfinite(cov).all() or not np.isfinite(y).all():
            raise ValueError("covariates and outcomes must be finite")
        po = self.potential_outcomes
        if po is not None:
            po = np.ascontiguousarray(po, dtype=np.float64)
            if po.shape != (n, 2):
                raise ValueError("potential_outcomes must have shape (n, 2)")
            if not np.isfinite(po).all():
                raise ValueError("potential_outcomes must be finite")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "treatments", t)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "potential_outcomes", po)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


def _expected_header(d: int, with_potential: bool) -> list[str]:
    cols = [f"x{i}" for i in range(1, d + 1)] + ["t", "y"]
    if with_potential:
        cols += ["y0", "y1"]
    return cols


def save_dataset_csv(ds: Dataset, path: str | Path) -> None:
    with_potential = ds.potential_outcomes is not None
    # the previous block's distinct bit patterns, ascending, and their texts
    known_bits = np.empty(0, dtype=np.int64)
    known_text = np.empty(0, dtype=object)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_expected_header(ds.d, with_potential)) + _EOL)
        for start in range(0, ds.n, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            floats = np.hstack([ds.covariates[block], ds.outcomes[block, None]]
                               + ([ds.potential_outcomes[block]] if with_potential else []))
            # Distinct bit patterns, not distinct values, so -0.0 keeps its
            # own text.  Rank-normalized covariates share one grid of
            # values, so a block holds far fewer distinct floats than cells,
            # and most of them were in the block before.
            bits, codes = np.unique(floats.view(np.int64), return_inverse=True)
            at = np.searchsorted(known_bits, bits)
            hit = at < len(known_bits)
            hit[hit] = known_bits[at[hit]] == bits[hit]
            text = np.empty(len(bits), dtype=object)
            text[hit] = known_text[at[hit]]
            text[~hit] = [repr(v) for v in bits[~hit].view(np.float64).tolist()]
            known_bits, known_text = bits, text
            cells = np.insert(codes.reshape(floats.shape), ds.d,
                              len(bits) + ds.treatments[block], axis=1)
            text = np.append(text, ["0", "1"])
            fh.write("".join([",".join(row) + _EOL for row in text[cells].tolist()]))


def write_table(path: str | Path, columns: Mapping[str, Iterable]) -> None:
    """A report table: the column names as header, then one line per row
    of ``str`` of the columns' Python scalars (floats as their shortest
    round-trip repr), every line ending in LF."""
    rows = map(",".join, zip(*[map(str, column) for column in columns.values()]))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(columns), *rows]) + "\n")


def _open_for_reading(path: Path):
    # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
    return path.open("r", newline="", encoding="utf-8-sig")


def _treatment(field: str) -> float:
    value = field.strip()
    if value not in ("0", "1"):
        raise ValueError(f"treatment must be 0 or 1, got {value!r}")
    return float(value)


def _number(field: str) -> float:
    """`float`, narrowed to the fields `np.loadtxt` accepts: no digit-group
    underscores and no non-ASCII digits."""
    core = field.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(core)


def _row_error(path: Path, header: list[str], d: int | None, problem: str) -> DatasetFormatError:
    """The error naming the first bad row of a file the bulk parse rejected.

    Reads the file again record by record, as `csv` splits it, with column
    `d` (if not None) holding treatments.  A malformed row anywhere is
    reported before a non-finite value; `problem` describes a file in
    which neither shows.
    """
    non_finite = None
    with _open_for_reading(path) as fh:
        reader = csv.reader(fh)
        header_row, _ = _header(reader)
        for lineno, row in enumerate(reader, start=header_row + 1):
            if not row:
                continue
            if len(row) != len(header):
                return DatasetFormatError(
                    f"{path}: row {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [_treatment(v) if j == d else _number(v) for j, v in enumerate(row)]
            except ValueError as exc:
                return DatasetFormatError(f"{path}: row {lineno}: {exc}")
            bad = np.flatnonzero(~np.isfinite(values))
            if non_finite is None and bad.size:
                j = bad[0]
                non_finite = DatasetFormatError(
                    f"{path}: row {lineno}: {header[j]} must be finite, got {row[j]!r}")
    return non_finite or DatasetFormatError(f"{path}: {problem}")


def _header(reader) -> tuple[int, list[str] | None]:
    """The file row of the first non-blank record and its stripped fields,
    or None for a file of blank lines only."""
    for row_number, row in enumerate(reader, start=1):
        if row:
            return row_number, [h.strip() for h in row]
    return 0, None


def _read_table(path: Path, dataset: bool) -> tuple[int | None, np.ndarray]:
    """The treatment column and the float rows, by one ``np.loadtxt`` call,
    of a dataset file or (not ``dataset``) a feature file, which has none."""
    with _open_for_reading(path) as fh:
        _, header = _header(csv.reader(fh))
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
        d = _treatment_column(path, header) if dataset else None
        try:
            with warnings.catch_warnings():
                # a header-only file is left to the caller to report
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # comments=None: the default "#" would accept a field like "2 # c"
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                                   converters=None if d is None else {d: _treatment})
        except ValueError as exc:
            raise _row_error(path, header, d, str(exc)) from None
    if table.shape[0] and (table.shape[1] != len(header) or not np.isfinite(table).all()):
        raise _row_error(path, header, d, f"rows must hold {len(header)} finite numbers")
    return d, table


def _treatment_column(path: Path, header: list[str]) -> int:
    """d, the index of ``t`` in a dataset header ``x1..xd,t,y[,y0,y1]``."""
    d = 0
    while d < len(header) and header[d] == f"x{d + 1}":
        d += 1
    if d == 0:
        raise DatasetFormatError(f"{path}: header must start with x1..xd, got {header[:3]}")
    if header not in (_expected_header(d, False), _expected_header(d, True)):
        raise DatasetFormatError(
            f"{path}: expected columns t,y[,y0,y1] after x{d}, got {header[d:]}")
    return d


def load_dataset_csv(path: str | Path) -> Dataset:
    path = Path(path)
    d, table = _read_table(path, dataset=True)
    if table.shape[0] == 0:
        raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(
        covariates=table[:, :d],
        treatments=table[:, d].astype(np.int64),
        outcomes=table[:, d + 1],
        potential_outcomes=table[:, d + 2:] if table.shape[1] > d + 2 else None,
    )


def load_feature_csv(path: str | Path) -> np.ndarray:
    """The (rows, columns) matrix of a numeric CSV with one header row of
    any names: every column is a feature, a column named ``t`` too."""
    return _read_table(Path(path), dataset=False)[1]
